//! `fleet`: run a workload over a pool of simulated V100s and print the
//! fleet rollup. Jobs arrive on the virtual clock per an arrival process
//! (`--arrivals immediate` puts every job at `t = 0`), dispatch at real
//! iteration boundaries, and the report carries the SLO tail rollup
//! (queue-wait and iteration-latency p50/p95/p99, goodput,
//! rejection/shed rates).
//!
//! `--lose` / `--down` inject device-lifecycle faults, timed in virtual
//! nanoseconds, so the failure protocol's event chain can be inspected by
//! hand (`--json` includes the full chain).
//!
//! With `--gate`, exit non-zero unless the fleet honours its contract:
//! the CLI's spec replays to a byte-identical report; the audit cluster
//! lint — which independently re-folds every rollup number and tail
//! percentile from the per-job rows and re-derives the
//! arrival/dispatch/completion chain — is clean under each dispatch
//! policy, on poisson and bursty arrivals, on the overload run and at
//! both scaling sizes; makespan improves monotonically from 1 to 4
//! devices; an overload run (a scaled workload squeezed through a bounded
//! queue) sheds explicitly: nonzero sheds, zero failed jobs; and the
//! per-job host cost of build + run + JSON + lint (best of 3) at 2·10⁴
//! jobs stays within 1.3× the cost at 10³. The gate writes
//! `target/bench/BENCH_cluster.json` (the device-scaling record) and
//! `target/bench/BENCH_serve.json` (steady + overload SLO records and the
//! scaling costs). Degenerate equivalence with `Session::run` and
//! survivability under device loss are checked by the test suites
//! (`degenerate_equivalence.rs`, `cluster_survivability.rs`).

use mimose::cluster::{ClusterBuilder, ClusterOutcome, ClusterReport};
use mimose::prelude::*;
use mimose_audit::{lint_cluster, Diagnostic};
use mimose_exp::benchfile::write_bench;
use mimose_exp::table::{gib, ms, render_table};
use mimose_runtime::json::{self, Json};
use std::hint::black_box;
use std::str::FromStr;
use std::time::Instant;

const USAGE: &str = "\
fleet — the multi-device fleet: online arrivals, SLO tails, bounded queues,
device faults

USAGE:
    fleet [OPTIONS]

OPTIONS:
    --devices <N>      V100 pool size, 1..=16  [2]
    --jobs <N>         jobs in the workload (scaled mixed cycle)  [8]
    --iters <N>        iterations per job  [2]
    --arrivals <P>     immediate | poisson | bursty  [poisson]
    --gap <NS>         mean inter-arrival gap, virtual ns  [400000]
    --seed <N>         arrival-stream seed  [42]
    --queue-limit <N>  bound the pending queue; arrivals past it shed  [none]
    --schedule <P>     fifo | shortest-predicted | best-fit-memory  [fifo]
    --lose <D:T>       permanently lose device D at virtual ns T (repeatable)
    --down <D:T:N>     take device D down at virtual ns T for N ns (repeatable)
    --json             print the ClusterReport JSON instead of the table
    --gate             run the determinism/audit/scaling/overload gate and
                       write target/bench/BENCH_{cluster,serve}.json
    --help             print this message
";

/// Burst-phase gap is this fraction of the calm gap in `--arrivals bursty`.
const BURST_GAP_DIV: u64 = 8;
/// Mean arrivals per MMPP phase in `--arrivals bursty`.
const BURST_PHASE_LEN: usize = 6;

struct Args {
    devices: usize,
    jobs: usize,
    iters: usize,
    arrivals: String,
    gap_ns: u64,
    seed: u64,
    queue_limit: Option<usize>,
    schedule: SchedulePolicy,
    faults: Vec<(usize, TimedDeviceFault)>,
    json: bool,
    gate: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            devices: 2,
            jobs: 8,
            iters: 2,
            arrivals: "poisson".into(),
            gap_ns: 400_000,
            seed: 42,
            queue_limit: None,
            schedule: SchedulePolicy::Fifo,
            faults: Vec::new(),
            json: false,
            gate: false,
        }
    }
}

fn parse_fault(arg: &str, spec: &str) -> Result<(usize, TimedDeviceFault), String> {
    let shape = if arg == "--lose" { "D:T" } else { "D:T:N" };
    let bad = || format!("{arg} expects {shape} (integers), got '{spec}'");
    let nums: Vec<u64> = spec
        .split(':')
        .map(str::parse)
        .collect::<Result<_, _>>()
        .map_err(|_| bad())?;
    let fault = match (arg, nums.as_slice()) {
        ("--lose", &[_, at_ns]) => TimedDeviceFault::Lost { at_ns },
        ("--down", &[_, at_ns, duration_ns]) => TimedDeviceFault::Down { at_ns, duration_ns },
        _ => return Err(bad()),
    };
    Ok((usize::try_from(nums[0]).map_err(|_| bad())?, fault))
}

fn num<T: FromStr>(flag: &str, s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("{flag} must be an integer"))
}

fn positive<T: FromStr + Default + PartialEq>(flag: &str, s: &str) -> Result<T, String> {
    let n = num(flag, s)?;
    if n == T::default() {
        return Err(format!("{flag} must be positive"));
    }
    Ok(n)
}

fn parse(args: &[String]) -> Result<Option<Args>, String> {
    let mut a = Args::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} requires a value"))
        };
        let flag = arg.as_str();
        match flag {
            "--help" | "-h" => return Ok(None),
            "--gate" => a.gate = true,
            "--json" => a.json = true,
            "--devices" => {
                a.devices = num(flag, value(flag)?)?;
                if !(1..=16).contains(&a.devices) {
                    return Err("--devices out of range (1..=16)".into());
                }
            }
            "--jobs" => a.jobs = positive(flag, value(flag)?)?,
            "--iters" => a.iters = positive(flag, value(flag)?)?,
            "--gap" => a.gap_ns = positive(flag, value(flag)?)?,
            "--seed" => a.seed = num(flag, value(flag)?)?,
            "--queue-limit" => a.queue_limit = Some(num(flag, value(flag)?)?),
            "--arrivals" => {
                let name = value(flag)?;
                if !["immediate", "poisson", "bursty"].contains(&name.as_str()) {
                    return Err(format!("unknown arrival process '{name}'"));
                }
                a.arrivals = name.clone();
            }
            "--schedule" => {
                let name = value(flag)?;
                a.schedule = SchedulePolicy::parse(name)
                    .ok_or_else(|| format!("unknown schedule '{name}'"))?;
            }
            "--lose" | "--down" => a.faults.push(parse_fault(flag, value(flag)?)?),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    // After the loop, so `--devices` may come before or after a fault.
    for (d, _) in &a.faults {
        if *d >= a.devices {
            return Err(format!("fault names device {d}, pool has {}", a.devices));
        }
    }
    Ok(Some(a))
}

fn arrivals(args: &Args) -> ArrivalProcess {
    match args.arrivals.as_str() {
        "immediate" => ArrivalProcess::Immediate,
        "bursty" => ArrivalProcess::bursty(
            args.gap_ns,
            (args.gap_ns / BURST_GAP_DIV).max(1),
            BURST_PHASE_LEN,
            args.seed,
        ),
        _ => ArrivalProcess::poisson(args.gap_ns, args.seed),
    }
}

fn builder(args: &Args) -> ClusterBuilder {
    let faults = args
        .faults
        .iter()
        .fold(FleetFaultPlan::none(0), |plan, (d, f)| {
            plan.with_timed_fault(*d, *f)
        });
    Cluster::builder()
        .devices(DevicePool::v100(args.devices))
        .workload(Workload::scaled(args.iters, args.jobs))
        .arrivals(arrivals(args))
        .queue_limit(args.queue_limit)
        .schedule(args.schedule)
        .faults(faults)
}

fn run(b: ClusterBuilder) -> ClusterOutcome {
    b.run().expect("fleet specs are well-formed")
}

fn render(outcome: &ClusterOutcome) {
    let r = &outcome.report;
    let rows: Vec<Vec<String>> = r
        .jobs
        .iter()
        .map(|j| {
            vec![
                j.name.clone(),
                j.policy.clone(),
                j.device.map_or("-".into(), |d| d.to_string()),
                j.outcome.tag().to_string(),
                j.iters.to_string(),
                ms(j.arrival_ns),
                ms(j.queue_wait_ns),
                ms(j.total_ns),
                gib(j.max_peak_bytes),
                j.oom_iters.to_string(),
                j.recovered_iters.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &format!(
                "fleet: {} arrivals, {} schedule, {} devices",
                r.arrivals.name(),
                r.schedule,
                r.devices.len()
            ),
            &[
                "job",
                "policy",
                "dev",
                "outcome",
                "iters",
                "arrive(ms)",
                "queue(ms)",
                "total(ms)",
                "peak",
                "oom",
                "rec",
            ],
            &rows,
        )
    );
    let s = &r.slo;
    println!(
        "\nmakespan {} ms | utilization {:.1}% | epochs {} | goodput {} iters ({:.1}/s)",
        ms(r.makespan_ns),
        r.utilization_pct,
        r.rounds,
        s.goodput_iters,
        s.goodput_iters_per_s,
    );
    println!(
        "queue wait mean/p50/p95/p99: {}/{}/{}/{} ms | iter latency p50/p95/p99: {}/{}/{} ms",
        ms(r.mean_queue_wait_ns),
        ms(s.queue_wait_p50_ns),
        ms(s.queue_wait_p95_ns),
        ms(s.queue_wait_p99_ns),
        ms(s.iter_latency_p50_ns),
        ms(s.iter_latency_p95_ns),
        ms(s.iter_latency_p99_ns),
    );
    println!(
        "admitted {} demoted {} | rejected {} ({:.1}%) | shed {} ({:.1}%) | failed {}",
        r.admission.admitted,
        r.admission.demoted,
        s.rejected_jobs,
        s.rejection_rate_pct,
        s.shed_jobs,
        s.shed_rate_pct,
        s.failed_jobs,
    );
    println!(
        "fleet: {} device(s) lost | {} checkpoints | {} migrations | overhead {} ms",
        r.fleet.devices_lost,
        r.fleet.checkpoints,
        r.fleet.migrations,
        ms(r.fleet.overhead_ns),
    );
    println!("fleet events ({}):", r.events.len());
    for e in &r.events {
        println!("  {:>10} ms  {}", ms(e.at_ns), e.kind.tag());
    }
}

/// The dispatch-policy lint leg and the makespan leg run the canonical
/// eight-job mixed workload with every job present at `t = 0`.
const BATCH_DEVICES: usize = 4;
const BATCH_ITERS: usize = 4;

fn batch_builder(devices: usize) -> ClusterBuilder {
    Cluster::builder()
        .devices(DevicePool::v100(devices))
        .workload(Workload::mixed(BATCH_ITERS))
}

/// Overload-leg shape: enough jobs to swamp the pool, arrivals much
/// faster than service, and a queue bound that forces explicit shedding.
const OVERLOAD_JOBS: usize = 200;
const OVERLOAD_ITERS: usize = 2;
const OVERLOAD_DEVICES: usize = 4;
const OVERLOAD_GAP_NS: u64 = 100_000_000;
const OVERLOAD_QUEUE_LIMIT: usize = 24;
const OVERLOAD_SEED: u64 = 23;

/// Scaling-leg shape: the serve-steady load (two-iteration jobs, Poisson
/// arrivals ~80% of 16 V100s' capacity) at a small and a large size.
const SCALING_JOBS: [usize; 2] = [1_000, 20_000];
const SCALING_ITERS: usize = 2;
const SCALING_DEVICES: usize = 16;
const SCALING_GAP_NS: u64 = 72_000_000;
const SCALING_SEED: u64 = 1;
/// Runs per size, alternating small and large so that transient load
/// lands on both; the leg keeps each size's cheapest.
const SCALING_REPEATS: usize = 3;
/// Largest allowed ratio of per-job host cost, large size over small.
const SCALING_BOUND: f64 = 1.3;

/// Build, run, serialise and lint one serving run of `n` jobs. Returns
/// the wall ns per job of all four and the lint's diagnostics.
fn scaling_run(n: usize) -> (f64, Vec<Diagnostic>) {
    let t0 = Instant::now();
    let outcome = run(Cluster::builder()
        .devices(DevicePool::v100(SCALING_DEVICES))
        .workload(Workload::scaled(SCALING_ITERS, n))
        .arrivals(ArrivalProcess::poisson(SCALING_GAP_NS, SCALING_SEED)));
    black_box(outcome.report.to_json());
    let diags = lint_cluster(&outcome);
    (t0.elapsed().as_nanos() as f64 / n as f64, diags)
}

fn scaling_json(reports: &[ClusterReport]) -> String {
    json::object(256 + 160 * reports.len(), |w| {
        w.field("suite", "cluster")
            .field("workload", "mixed-8job")
            .field("iters_per_job", BATCH_ITERS)
            .field("schedule", "fifo")
            .key("scaling")
            .array(|w| {
                for r in reports {
                    w.object(|w| {
                        w.field("devices", r.devices.len())
                            .field("makespan_ns", r.makespan_ns)
                            .field("busy_ns", r.busy_ns)
                            .field("utilization_pct", r.utilization_pct)
                            .field("mean_queue_wait_ns", r.mean_queue_wait_ns)
                            .field("rounds", r.rounds);
                    });
                }
            });
    })
}

fn slo_fields(w: &mut Json, r: &ClusterReport) {
    let s = &r.slo;
    w.field("devices", r.devices.len())
        .field("jobs", r.jobs.len())
        .field("arrivals", r.arrivals.name())
        .field("makespan_ns", r.makespan_ns)
        .field("utilization_pct", r.utilization_pct)
        .field("queue_wait_p50_ns", s.queue_wait_p50_ns)
        .field("queue_wait_p95_ns", s.queue_wait_p95_ns)
        .field("queue_wait_p99_ns", s.queue_wait_p99_ns)
        .field("iter_latency_p50_ns", s.iter_latency_p50_ns)
        .field("iter_latency_p95_ns", s.iter_latency_p95_ns)
        .field("iter_latency_p99_ns", s.iter_latency_p99_ns)
        .field("goodput_iters", s.goodput_iters)
        .field("goodput_iters_per_s", s.goodput_iters_per_s)
        .field("rejected_jobs", s.rejected_jobs)
        .field("shed_jobs", s.shed_jobs)
        .field("failed_jobs", s.failed_jobs)
        .field("rejection_rate_pct", s.rejection_rate_pct)
        .field("shed_rate_pct", s.shed_rate_pct);
}

/// The gate's verdicts: each check prints one line, and a failing one
/// keeps its detail.
#[derive(Default)]
struct Gate {
    failures: Vec<String>,
}

impl Gate {
    fn check(&mut self, name: &str, ok: bool, detail: String) {
        eprintln!("fleet gate: {name}: {}", if ok { "ok" } else { "FAILED" });
        if !ok {
            self.failures.push(format!("{name}: {detail}"));
        }
    }

    fn lint(&mut self, shape: &str, diags: &[Diagnostic]) {
        let detail: Vec<String> = diags.iter().map(ToString::to_string).collect();
        self.check(
            &format!("audit lint ({shape})"),
            diags.is_empty(),
            format!("{detail:?}"),
        );
    }

    fn write(&mut self, suite: &str, json: &str) {
        match write_bench(suite, json) {
            Ok(path) => eprintln!("fleet gate: wrote {}", path.display()),
            Err(e) => self.failures.push(format!("BENCH_{suite}.json: {e}")),
        }
    }
}

fn gate(args: &Args) -> Vec<String> {
    let mut g = Gate::default();

    // Same spec twice ⇒ byte-identical report.
    let steady = run(builder(args));
    let again = run(builder(args)).report.to_json();
    g.check(
        "replay determinism",
        steady.report.to_json() == again,
        "two runs diverged".into(),
    );

    // Audit lint under every dispatch policy, on both arrival shapes.
    for schedule in [
        SchedulePolicy::Fifo,
        SchedulePolicy::ShortestPredicted,
        SchedulePolicy::BestFitMemory,
    ] {
        let outcome = run(batch_builder(BATCH_DEVICES).schedule(schedule).record(true));
        g.lint(schedule.name(), &lint_cluster(&outcome));
    }
    for shape in ["poisson", "bursty"] {
        let shaped = Args {
            arrivals: shape.into(),
            ..Args::default()
        };
        let outcome = run(builder(&shaped).record(true));
        g.lint(&format!("{shape} arrivals"), &lint_cluster(&outcome));
    }

    // Makespan improves monotonically 1 → 4 devices.
    let points: Vec<ClusterReport> = (1..=4)
        .map(|m| {
            let r = run(batch_builder(m)).report;
            eprintln!(
                "fleet gate: makespan: {m} device(s) → {} ms, utilization {:.1}%",
                ms(r.makespan_ns),
                r.utilization_pct
            );
            r
        })
        .collect();
    let makespans: Vec<u64> = points.iter().map(|r| r.makespan_ns).collect();
    g.check(
        "makespan scaling",
        makespans.windows(2).all(|w| w[1] <= w[0]) && makespans[3] < makespans[0],
        format!("makespans {makespans:?} not monotonically improving 1→4 devices"),
    );

    // Overload: a bounded queue under saturating arrivals must shed
    // explicitly — nonzero sheds, zero failed jobs — and still lint clean
    // (the lint demands a terminal event for every job).
    let overload = run(Cluster::builder()
        .devices(DevicePool::v100(OVERLOAD_DEVICES))
        .workload(Workload::scaled(OVERLOAD_ITERS, OVERLOAD_JOBS))
        .arrivals(ArrivalProcess::poisson(OVERLOAD_GAP_NS, OVERLOAD_SEED))
        .queue_limit(Some(OVERLOAD_QUEUE_LIMIT))
        .record(true));
    let r = &overload.report;
    eprintln!(
        "fleet gate: overload: {} jobs → {} finished, {} shed, {} rejected, {} failed; \
         wait p99 {} ms, goodput {:.1} iters/s",
        r.jobs.len(),
        r.jobs.iter().filter(|j| j.outcome.finished()).count(),
        r.slo.shed_jobs,
        r.slo.rejected_jobs,
        r.slo.failed_jobs,
        ms(r.slo.queue_wait_p99_ns),
        r.slo.goodput_iters_per_s,
    );
    g.check(
        "overload sheds explicitly, loses nothing",
        r.slo.shed_jobs > 0 && r.slo.failed_jobs == 0,
        format!("{} shed, {} failed", r.slo.shed_jobs, r.slo.failed_jobs),
    );
    g.lint("overload", &lint_cluster(&overload));

    // Scaling: per-job host cost stays flat from 10³ to 2·10⁴ jobs, and
    // the audit keeps up — lint clean at both sizes.
    let mut per_job_ns = [f64::INFINITY; 2];
    let mut diags = [Vec::new(), Vec::new()];
    for _ in 0..SCALING_REPEATS {
        for (k, &n) in SCALING_JOBS.iter().enumerate() {
            let (ns, d) = scaling_run(n);
            per_job_ns[k] = per_job_ns[k].min(ns);
            diags[k].extend(d);
        }
    }
    for ((&n, ns), diags) in SCALING_JOBS.iter().zip(per_job_ns).zip(&diags) {
        eprintln!("fleet gate: scaling: {n} jobs, {:.0} us/job", ns / 1e3);
        g.lint(&format!("{n} jobs"), diags);
    }
    let ratio = per_job_ns[1] / per_job_ns[0];
    g.check(
        "scaling: per-job host cost stays flat",
        ratio <= SCALING_BOUND,
        format!(
            "{:.0} us/job at {} jobs is {ratio:.2}x the {:.0} us/job at {} (bound {SCALING_BOUND}x)",
            per_job_ns[1] / 1e3,
            SCALING_JOBS[1],
            per_job_ns[0] / 1e3,
            SCALING_JOBS[0]
        ),
    );

    // Emit the device-scaling record and the SLO record: the steady run
    // on the CLI's spec, the overload run and the scaling costs.
    g.write("cluster", &scaling_json(&points));
    let serve = json::object(1024, |w| {
        w.field("suite", "serve")
            .field("mode", "event-driven")
            .field("iters_per_job", args.iters);
        w.key("steady").object(|w| slo_fields(w, &steady.report));
        w.key("overload").object(|w| slo_fields(w, r));
        w.key("scaling").array(|a| {
            for (&jobs, &ns) in SCALING_JOBS.iter().zip(&per_job_ns) {
                a.object(|w| {
                    w.field("jobs", jobs).field("per_job_ns", ns);
                });
            }
        });
    });
    g.write("serve", &serve);

    g.failures
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(Some(a)) => a,
        Ok(None) => {
            print!("{USAGE}");
            return;
        }
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    };

    if args.gate {
        let failures = gate(&args);
        if failures.is_empty() {
            eprintln!("fleet gate: every check passed");
        } else {
            for f in &failures {
                eprintln!("fleet gate: FAILED: {f}");
            }
            std::process::exit(1);
        }
        return;
    }

    let outcome = run(builder(&args));
    if args.json {
        println!("{}", outcome.report.to_json());
    } else {
        render(&outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn error(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        match parse(&args) {
            Ok(_) => String::new(),
            Err(e) => e,
        }
    }

    #[test]
    fn malformed_faults_name_their_shape() {
        for (flag, spec, shape) in [
            ("--lose", "1", "D:T"),
            ("--lose", "1:2:3", "D:T"),
            ("--lose", "a:100", "D:T"),
            ("--down", "0:100", "D:T:N"),
            ("--down", "0:100:x", "D:T:N"),
            ("--down", "-1:100:5", "D:T:N"),
        ] {
            let e = error(&[flag, spec]);
            assert!(
                e.contains(&format!("expects {shape}")),
                "{flag} {spec}: {e}"
            );
        }
        assert_eq!(error(&["--lose"]), "--lose requires a value");
    }

    #[test]
    fn faults_must_name_a_device_in_the_pool_whatever_the_flag_order() {
        let outside = "fault names device 4, pool has 4";
        assert_eq!(error(&["--devices", "4", "--lose", "4:100"]), outside);
        assert_eq!(error(&["--lose", "4:100", "--devices", "4"]), outside);
        assert_eq!(
            error(&["--down", "2:100:5"]),
            "fault names device 2, pool has 2"
        );
        assert_eq!(error(&["--lose", "3:100", "--devices", "4"]), "");
        assert_eq!(error(&["--devices", "4", "--down", "3:100:5"]), "");
    }

    #[test]
    fn numeric_flags_are_checked() {
        assert_eq!(error(&["--jobs", "0"]), "--jobs must be positive");
        assert_eq!(error(&["--gap", "1e6"]), "--gap must be an integer");
        assert_eq!(
            error(&["--devices", "17"]),
            "--devices out of range (1..=16)"
        );
        assert_eq!(error(&["--queue-limit", "0", "--seed", "7"]), "");
    }

    #[test]
    fn unknown_arrivals_and_schedules_are_rejected() {
        assert_eq!(
            error(&["--arrivals", "uniform"]),
            "unknown arrival process 'uniform'"
        );
        assert_eq!(error(&["--schedule", "lifo"]), "unknown schedule 'lifo'");
        assert_eq!(
            error(&["--arrivals", "bursty", "--schedule", "best-fit-memory"]),
            ""
        );
    }
}
