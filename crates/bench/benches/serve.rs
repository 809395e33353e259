//! Serving scheduler throughput: wall-clock cost of
//! the discrete-event loop dispatching the mixed workload under Poisson
//! arrivals, at the canonical pool size and under overload with a bounded
//! queue. The virtual-time SLO record (tail latencies, goodput, shed rate)
//! is written by `exp serve --gate` as `BENCH_serve.json`; this suite
//! measures what the event queue itself costs the host.

use mimose_bench::harness::{BenchMeta, Criterion};
use mimose_bench::{criterion_group, criterion_main};
use mimose_cluster::{ArrivalProcess, Cluster, DevicePool, Workload};
use std::hint::black_box;

fn bench_serve(c: &mut Criterion) {
    let iters = 2;
    let ops = (Workload::mixed(iters).len() * iters) as u64;
    let meta = BenchMeta {
        blocks: None,
        ops_per_iter: Some(ops),
    };
    let mut g = c.benchmark_group("cluster_serving");
    g.bench_function_with("poisson_2dev", meta, |b| {
        b.iter(|| {
            let outcome = Cluster::builder()
                .devices(DevicePool::v100(2))
                .workload(Workload::mixed(iters))
                .arrivals(ArrivalProcess::poisson(400_000, 42))
                .run()
                .expect("serving run");
            black_box(outcome)
        })
    });
    let overload_ops = (Workload::scaled(iters, 64).len() * iters) as u64;
    let overload_meta = BenchMeta {
        blocks: None,
        ops_per_iter: Some(overload_ops),
    };
    g.bench_function_with("overload_64job_4dev", overload_meta, |b| {
        b.iter(|| {
            let outcome = Cluster::builder()
                .devices(DevicePool::v100(4))
                .workload(Workload::scaled(iters, 64))
                .arrivals(ArrivalProcess::poisson(200_000, 7))
                .queue_limit(Some(16))
                .run()
                .expect("overload run");
            black_box(outcome)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
