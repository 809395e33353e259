//! Fleet-scheduler throughput vs device count: wall-clock cost of the
//! discrete-event driver scheduling the eight-job mixed workload (every
//! job arriving at `t = 0`) over 1/2/4 V100s. The virtual-time scaling record
//! (makespan, utilization per pool size) is written by `exp cluster --gate`
//! as `target/bench/BENCH_cluster.json`; this suite measures what the scheduler itself
//! costs the host.

use mimose_bench::harness::{BenchMeta, Criterion};
use mimose_bench::{criterion_group, criterion_main};
use mimose_cluster::{Cluster, DevicePool, Workload};
use std::hint::black_box;

fn bench_cluster(c: &mut Criterion) {
    let iters = 2;
    let ops = (Workload::mixed(iters).len() * iters) as u64;
    let meta = BenchMeta {
        blocks: None,
        ops_per_iter: Some(ops),
    };
    let mut g = c.benchmark_group("cluster_mixed");
    for devices in [1usize, 2, 4] {
        g.bench_function_with(&format!("serial_{devices}dev"), meta, |b| {
            b.iter(|| {
                let outcome = Cluster::builder()
                    .devices(DevicePool::v100(devices))
                    .workload(Workload::mixed(iters))
                    .run()
                    .expect("canonical workload runs");
                black_box(outcome)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_cluster);
criterion_main!(benches);
