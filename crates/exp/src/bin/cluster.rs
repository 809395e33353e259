//! `cluster`: run the eight-job mixed NLP/vision workload over a pool of
//! simulated V100s and print the fleet rollup.
//!
//! Every job arrives at `t = 0` (the batch world) and the fleet's one
//! driver, the discrete-event loop, dispatches them.
//!
//! With `--gate`, exit non-zero unless the fleet scheduler honours its
//! determinism contract: same seed ⇒ byte-identical `ClusterReport` across
//! two runs; a 1-job/1-device cluster run byte-identical to driving the
//! job through `Session::run`; the audit cluster lint clean under every
//! dispatch policy; makespan improving monotonically from 1 to 4 devices;
//! and — the survivability leg — a fault plan permanently killing one
//! device mid-run must end with every job finished or explicitly shed
//! (zero lost jobs), a lint-clean fleet trace, and byte-identical replay.
//! The gate also writes `BENCH_cluster.json` (the device-scaling record)
//! at the repository root.
//!
//! `--lose` / `--down` inject device-lifecycle faults, timed in virtual
//! nanoseconds, into plain runs, so the failure protocol's event chain can
//! be inspected by hand (`--json` includes the full chain).

use mimose::cluster::{ClusterBuilder, ClusterOutcome};
use mimose::prelude::*;
use mimose_audit::lint_cluster;
use mimose_exp::fleetgate::fleet_matches_session;
use mimose_exp::table::{gib, ms, render_table};
use mimose_runtime::json;
use std::path::Path;

const USAGE: &str = "\
cluster — deterministic multi-device fleet scheduling of the mixed workload

USAGE:
    cluster [OPTIONS]

OPTIONS:
    --devices <N>     V100 pool size, 1..=16  [4]
    --iters <N>       iterations per job  [4]
    --schedule <P>    fifo | shortest-predicted | best-fit-memory  [fifo]
    --lose <D:T>      permanently lose device D at virtual ns T (repeatable)
    --down <D:T:N>    take device D down at virtual ns T for N ns (repeatable)
    --json            print the ClusterReport JSON instead of the table
    --gate            run the determinism/audit/scaling/survivability gate
                      and write BENCH_cluster.json at the repository root
    --help            print this message
";

struct Args {
    devices: usize,
    iters: usize,
    schedule: SchedulePolicy,
    faults: Vec<(usize, TimedDeviceFault)>,
    json: bool,
    gate: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            devices: 4,
            iters: 4,
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

fn parse(args: &[String]) -> Result<Option<Args>, String> {
    let mut a = Args::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--gate" => a.gate = true,
            "--json" => a.json = true,
            "--devices" => {
                a.devices = value("--devices")?
                    .parse()
                    .map_err(|_| "--devices must be an integer".to_string())?;
                if !(1..=16).contains(&a.devices) {
                    return Err("--devices out of range (1..=16)".into());
                }
            }
            "--iters" => {
                a.iters = value("--iters")?
                    .parse()
                    .map_err(|_| "--iters must be an integer".to_string())?;
                if a.iters == 0 {
                    return Err("--iters must be positive".into());
                }
            }
            "--schedule" => {
                let name = value("--schedule")?;
                a.schedule = SchedulePolicy::parse(name)
                    .ok_or_else(|| format!("unknown schedule '{name}'"))?;
            }
            "--lose" | "--down" => {
                let flag = arg.as_str();
                a.faults.push(parse_fault(flag, value(flag)?)?);
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    for (d, _) in &a.faults {
        if *d >= a.devices {
            return Err(format!("fault names device {d}, pool has {}", a.devices));
        }
    }
    Ok(Some(a))
}

fn fault_plan(faults: &[(usize, TimedDeviceFault)]) -> FleetFaultPlan {
    faults.iter().fold(FleetFaultPlan::none(0), |plan, (d, f)| {
        plan.with_timed_fault(*d, *f)
    })
}

fn builder(args: &Args) -> ClusterBuilder {
    Cluster::builder()
        .devices(DevicePool::v100(args.devices))
        .workload(Workload::mixed(args.iters))
        .schedule(args.schedule)
        .faults(fault_plan(&args.faults))
}

/// When the survivability leg loses device 1: mid-run, partway through
/// its first job, so that job must checkpoint and migrate.
const SURVIVABILITY_LOSS_NS: u64 = 1_618_617_222;

fn run(b: ClusterBuilder) -> ClusterOutcome {
    b.run().expect("gate specs are well-formed")
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
                "cluster: {} schedule, {} devices",
                r.schedule,
                r.devices.len()
            ),
            &[
                "job",
                "policy",
                "dev",
                "outcome",
                "iters",
                "queue(ms)",
                "total(ms)",
                "peak",
                "oom",
                "rec",
            ],
            &rows,
        )
    );
    println!(
        "\nmakespan {} ms | utilization {:.1}% | epochs {} | mean queue {} ms | \
         admitted {} demoted {} rejected {}",
        ms(r.makespan_ns),
        r.utilization_pct,
        r.rounds,
        ms(r.mean_queue_wait_ns),
        r.admission.admitted,
        r.admission.demoted,
        r.admission.rejected,
    );
    if !r.events.is_empty() {
        println!(
            "fleet: {} device(s) lost | {} checkpoints | {} migrations | \
             {} shed | {} failed | overhead {} ms",
            r.fleet.devices_lost,
            r.fleet.checkpoints,
            r.fleet.migrations,
            r.fleet.shed_jobs,
            r.fleet.failed_jobs,
            ms(r.fleet.overhead_ns),
        );
        for e in &r.events {
            println!("  {:>10} ms  {}", ms(e.at_ns), e.kind.tag());
        }
    }
}

/// One device-count sample of the scaling sweep.
struct ScalePoint {
    devices: usize,
    makespan_ns: u64,
    busy_ns: u64,
    utilization_pct: f64,
    mean_queue_wait_ns: u64,
    rounds: usize,
}

fn bench_json(iters: usize, points: &[ScalePoint]) -> String {
    json::object(256 + 160 * points.len(), |w| {
        w.field("suite", "cluster")
            .field("workload", "mixed-8job")
            .field("iters_per_job", iters)
            .field("schedule", "fifo")
            .key("scaling")
            .array(|w| {
                for p in points {
                    w.object(|w| {
                        w.field("devices", p.devices)
                            .field("makespan_ns", p.makespan_ns)
                            .field("busy_ns", p.busy_ns)
                            .field("utilization_pct", p.utilization_pct)
                            .field("mean_queue_wait_ns", p.mean_queue_wait_ns)
                            .field("rounds", p.rounds);
                    });
                }
            });
    })
}

fn gate(args: &Args) -> Vec<String> {
    let mut failures = Vec::new();
    let mut check = |name: &str, ok: bool, detail: String| {
        eprintln!("cluster gate: {name}: {}", if ok { "ok" } else { "FAILED" });
        if !ok {
            failures.push(format!("{name}: {detail}"));
        }
    };

    // 1. Same spec twice ⇒ byte-identical report.
    let a = run(builder(args)).report.to_json();
    let b = run(builder(args)).report.to_json();
    check("replay determinism", a == b, "two runs diverged".into());

    // 2. Degenerate 1-job/1-device run ≡ Session::run.
    check(
        "degenerate equivalence",
        fleet_matches_session(args.iters),
        "1-job/1-device cluster diverged from Session::run".into(),
    );

    // 3. Audit lint clean under every dispatch policy.
    for schedule in [
        SchedulePolicy::Fifo,
        SchedulePolicy::ShortestPredicted,
        SchedulePolicy::BestFitMemory,
    ] {
        let outcome = run(builder(args).schedule(schedule).record(true));
        let diags = lint_cluster(&outcome);
        check(
            &format!("audit lint ({})", schedule.name()),
            diags.is_empty(),
            format!(
                "{:?}",
                diags.iter().map(|d| d.to_string()).collect::<Vec<_>>()
            ),
        );
    }

    // 4. Makespan improves monotonically 1 → 4 devices.
    let points: Vec<ScalePoint> = (1..=4)
        .map(|m| {
            let r = run(Cluster::builder()
                .devices(DevicePool::v100(m))
                .workload(Workload::mixed(args.iters)))
            .report;
            eprintln!(
                "cluster gate: scaling: {m} device(s) → makespan {} ms, utilization {:.1}%",
                ms(r.makespan_ns),
                r.utilization_pct
            );
            ScalePoint {
                devices: m,
                makespan_ns: r.makespan_ns,
                busy_ns: r.busy_ns,
                utilization_pct: r.utilization_pct,
                mean_queue_wait_ns: r.mean_queue_wait_ns,
                rounds: r.rounds,
            }
        })
        .collect();
    let monotone = points
        .windows(2)
        .all(|w| w[1].makespan_ns <= w[0].makespan_ns);
    let strict = points[3].makespan_ns < points[0].makespan_ns;
    check(
        "makespan scaling",
        monotone && strict,
        format!(
            "makespans {:?} not monotonically improving 1→4 devices",
            points.iter().map(|p| p.makespan_ns).collect::<Vec<_>>()
        ),
    );

    // 5. Survivability: permanently lose device 1 of 4 mid-run on the
    // canonical 8-job workload. Every job must finish or be explicitly
    // shed (here: capacity still fits, so zero shed and zero failed), the
    // fleet trace must lint clean, and the whole degraded run must replay
    // byte-identically.
    {
        let lossy = || {
            Cluster::builder()
                .devices(DevicePool::v100(4))
                .workload(Workload::mixed(args.iters))
                .faults(FleetFaultPlan::none(0).with_timed_fault(
                    1,
                    TimedDeviceFault::Lost {
                        at_ns: SURVIVABILITY_LOSS_NS,
                    },
                ))
                .record(true)
        };
        let outcome = run(lossy());
        let r = &outcome.report;
        let unaccounted: Vec<&str> = r
            .jobs
            .iter()
            .filter(|j| !j.outcome.finished())
            .map(|j| j.name.as_str())
            .collect();
        check(
            "survivability: zero lost jobs",
            unaccounted.is_empty() && r.fleet.devices_lost == 1 && r.fleet.migrations >= 1,
            format!(
                "unaccounted jobs {unaccounted:?}, {} lost device(s), {} migration(s)",
                r.fleet.devices_lost, r.fleet.migrations
            ),
        );
        let diags = lint_cluster(&outcome);
        check(
            "survivability: fleet trace lints clean",
            diags.is_empty(),
            format!(
                "{:?}",
                diags.iter().map(|d| d.to_string()).collect::<Vec<_>>()
            ),
        );
        let replay = run(lossy()).report.to_json();
        check(
            "survivability: byte-identical replay under device loss",
            r.to_json() == replay,
            "degraded runs diverged across replays".into(),
        );
    }

    // 6. Emit the scaling record.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_cluster.json");
    match std::fs::write(&path, bench_json(args.iters, &points)) {
        Ok(()) => eprintln!("cluster gate: wrote {}", path.display()),
        Err(e) => failures.push(format!("BENCH_cluster.json: {e}")),
    }

    failures
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
            eprintln!("cluster gate: every check passed");
        } else {
            for f in &failures {
                eprintln!("cluster gate: FAILED: {f}");
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
