//! `serve`: run the fleet as a server — jobs arrive on
//! the virtual clock per an arrival process, dispatch at real iteration
//! boundaries, and the report carries the SLO tail rollup (queue-wait and
//! iteration-latency p50/p95/p99, goodput, rejection/shed rates).
//!
//! With `--gate`, exit non-zero unless serving honours its contract:
//! same spec ⇒ byte-identical report across two runs; a 1-job/1-device
//! fleet run reproduces `Session::run` exactly (the degenerate-equivalence
//! leg); the audit cluster lint — which independently re-folds every tail
//! percentile from the per-job rows and re-derives the arrival/dispatch/
//! completion chain — is clean on steady and bursty serving runs; and an
//! overload scenario (a scaled workload squeezed through a bounded queue)
//! sheds work explicitly: nonzero sheds, zero failed jobs, every job
//! settled with a terminal outcome. The gate also writes
//! `BENCH_serve.json` (steady + overload SLO records) at the repository
//! root.

use mimose::cluster::{ClusterBuilder, ClusterOutcome, ClusterReport};
use mimose::prelude::*;
use mimose_audit::lint_cluster;
use mimose_exp::fleetgate::fleet_matches_session;
use mimose_exp::table::{gib, ms, render_table};
use std::path::Path;

const USAGE: &str = "\
serve — the fleet as a server: online arrivals, SLO tails, bounded queues

USAGE:
    serve [OPTIONS]

OPTIONS:
    --devices <N>      V100 pool size, 1..=16  [2]
    --jobs <N>         jobs in the workload (scaled mixed cycle)  [8]
    --iters <N>        iterations per job  [2]
    --arrivals <P>     immediate | poisson | bursty  [poisson]
    --gap <NS>         mean inter-arrival gap, virtual ns  [400000]
    --seed <N>         arrival-stream seed  [42]
    --queue-limit <N>  bound the pending queue; arrivals past it shed  [none]
    --schedule <P>     fifo | shortest-predicted | best-fit-memory  [fifo]
    --json             print the ClusterReport JSON instead of the table
    --gate             run the determinism/equivalence/audit/overload gate
                       and write BENCH_serve.json at the repository root
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
            json: false,
            gate: false,
        }
    }
}

fn parse(args: &[String]) -> Result<Option<Args>, String> {
    let mut a = Args::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} requires a value"))
        };
        let num = |flag: &str, s: &str| -> Result<usize, String> {
            s.parse().map_err(|_| format!("{flag} must be an integer"))
        };
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--gate" => a.gate = true,
            "--json" => a.json = true,
            "--devices" => {
                a.devices = num("--devices", value("--devices")?)?;
                if !(1..=16).contains(&a.devices) {
                    return Err("--devices out of range (1..=16)".into());
                }
            }
            "--jobs" => {
                a.jobs = num("--jobs", value("--jobs")?)?;
                if a.jobs == 0 {
                    return Err("--jobs must be positive".into());
                }
            }
            "--iters" => {
                a.iters = num("--iters", value("--iters")?)?;
                if a.iters == 0 {
                    return Err("--iters must be positive".into());
                }
            }
            "--arrivals" => {
                let name = value("--arrivals")?;
                if !["immediate", "poisson", "bursty"].contains(&name.as_str()) {
                    return Err(format!("unknown arrival process '{name}'"));
                }
                a.arrivals = name.clone();
            }
            "--gap" => {
                a.gap_ns = value("--gap")?
                    .parse()
                    .map_err(|_| "--gap must be an integer".to_string())?;
                if a.gap_ns == 0 {
                    return Err("--gap must be positive".into());
                }
            }
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be an integer".to_string())?;
            }
            "--queue-limit" => {
                a.queue_limit = Some(num("--queue-limit", value("--queue-limit")?)?);
            }
            "--schedule" => {
                let name = value("--schedule")?;
                a.schedule = SchedulePolicy::parse(name)
                    .ok_or_else(|| format!("unknown schedule '{name}'"))?;
            }
            other => return Err(format!("unknown option '{other}'")),
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
    Cluster::builder()
        .devices(DevicePool::v100(args.devices))
        .workload(Workload::scaled(args.iters, args.jobs))
        .arrivals(arrivals(args))
        .queue_limit(args.queue_limit)
        .schedule(args.schedule)
}

fn run(b: ClusterBuilder) -> ClusterOutcome {
    b.run().expect("serve specs are well-formed")
}

fn render(outcome: &ClusterOutcome) {
    let r = &outcome.report;
    let rows: Vec<Vec<String>> = r
        .jobs
        .iter()
        .map(|j| {
            vec![
                j.name.clone(),
                j.device.map_or("-".into(), |d| d.to_string()),
                j.outcome.tag().to_string(),
                j.iters.to_string(),
                ms(j.arrival_ns),
                ms(j.queue_wait_ns),
                ms(j.total_ns),
                gib(j.max_peak_bytes),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &format!(
                "serve: {} arrivals, {} schedule, {} devices",
                r.arrivals.name(),
                r.schedule,
                r.devices.len()
            ),
            &[
                "job",
                "dev",
                "outcome",
                "iters",
                "arrive(ms)",
                "queue(ms)",
                "total(ms)",
                "peak",
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
        "queue wait p50/p95/p99: {}/{}/{} ms | iter latency p50/p95/p99: {}/{}/{} ms",
        ms(s.queue_wait_p50_ns),
        ms(s.queue_wait_p95_ns),
        ms(s.queue_wait_p99_ns),
        ms(s.iter_latency_p50_ns),
        ms(s.iter_latency_p95_ns),
        ms(s.iter_latency_p99_ns),
    );
    println!(
        "rejected {} ({:.1}%) | shed {} ({:.1}%) | failed {}",
        s.rejected_jobs, s.rejection_rate_pct, s.shed_jobs, s.shed_rate_pct, s.failed_jobs,
    );
    if !r.events.is_empty() {
        println!("fleet events ({}):", r.events.len());
        for e in &r.events {
            println!("  t {:>12} ns  {}", e.at_ns, e.kind.tag());
        }
    }
}

fn slo_json(label: &str, r: &ClusterReport) -> String {
    let s = &r.slo;
    format!(
        "  \"{label}\": {{\n    \"devices\": {}, \"jobs\": {}, \"arrivals\": \"{}\", \
         \"makespan_ns\": {}, \"utilization_pct\": {:.4},\n    \
         \"queue_wait_p50_ns\": {}, \"queue_wait_p95_ns\": {}, \"queue_wait_p99_ns\": {},\n    \
         \"iter_latency_p50_ns\": {}, \"iter_latency_p95_ns\": {}, \"iter_latency_p99_ns\": {},\n    \
         \"goodput_iters\": {}, \"goodput_iters_per_s\": {:.4},\n    \
         \"rejected_jobs\": {}, \"shed_jobs\": {}, \"failed_jobs\": {}, \
         \"rejection_rate_pct\": {:.4}, \"shed_rate_pct\": {:.4}\n  }}",
        r.devices.len(),
        r.jobs.len(),
        r.arrivals.name(),
        r.makespan_ns,
        r.utilization_pct,
        s.queue_wait_p50_ns,
        s.queue_wait_p95_ns,
        s.queue_wait_p99_ns,
        s.iter_latency_p50_ns,
        s.iter_latency_p95_ns,
        s.iter_latency_p99_ns,
        s.goodput_iters,
        s.goodput_iters_per_s,
        s.rejected_jobs,
        s.shed_jobs,
        s.failed_jobs,
        s.rejection_rate_pct,
        s.shed_rate_pct,
    )
}

/// Overload-leg shape: enough jobs to swamp the pool, arrivals much
/// faster than service, and a queue bound that forces explicit shedding.
const OVERLOAD_JOBS: usize = 200;
const OVERLOAD_DEVICES: usize = 4;
const OVERLOAD_GAP_NS: u64 = 100_000_000;
const OVERLOAD_QUEUE_LIMIT: usize = 24;
const OVERLOAD_SEED: u64 = 23;

fn overload_builder(iters: usize) -> ClusterBuilder {
    Cluster::builder()
        .devices(DevicePool::v100(OVERLOAD_DEVICES))
        .workload(Workload::scaled(iters, OVERLOAD_JOBS))
        .arrivals(ArrivalProcess::poisson(OVERLOAD_GAP_NS, OVERLOAD_SEED))
        .queue_limit(Some(OVERLOAD_QUEUE_LIMIT))
}

fn gate(args: &Args) -> Vec<String> {
    let mut failures = Vec::new();
    let mut check = |name: &str, ok: bool, detail: String| {
        eprintln!("serve gate: {name}: {}", if ok { "ok" } else { "FAILED" });
        if !ok {
            failures.push(format!("{name}: {detail}"));
        }
    };

    // 1. Same spec twice ⇒ byte-identical report.
    let steady = run(builder(args));
    let again = run(builder(args)).report.to_json();
    check(
        "replay determinism",
        steady.report.to_json() == again,
        "two serving runs diverged".into(),
    );

    // 2. Degenerate equivalence: a 1-job/1-device fleet run ≡
    // Session::run — the event loop adds orchestration, never behavior.
    check(
        "session-degenerate equivalence",
        fleet_matches_session(args.iters),
        "1-job/1-device fleet run diverged from Session::run".into(),
    );

    // 3. Audit lint — independent re-fold of every SLO tail and the
    // arrival/dispatch/completion chain — clean on steady and bursty
    // serving runs.
    for shape in ["poisson", "bursty"] {
        let mut shaped = Args {
            arrivals: shape.into(),
            ..Args::default()
        };
        shaped.iters = args.iters;
        shaped.devices = args.devices;
        let outcome = run(builder(&shaped).record(true));
        let diags = lint_cluster(&outcome);
        check(
            &format!("audit lint ({shape} arrivals)"),
            diags.is_empty(),
            format!(
                "{:?}",
                diags.iter().map(|d| d.to_string()).collect::<Vec<_>>()
            ),
        );
    }

    // 4. Overload: a bounded queue under saturating arrivals must shed
    // explicitly — nonzero sheds, zero failed jobs, every job settled —
    // and still lint clean.
    let overload = run(overload_builder(args.iters).record(true));
    {
        let r = &overload.report;
        let unsettled: Vec<&str> = r
            .jobs
            .iter()
            .filter(|j| {
                !(j.outcome.finished()
                    || matches!(
                        j.outcome,
                        JobOutcome::Rejected | JobOutcome::Shed(_) | JobOutcome::Failed(_)
                    ))
            })
            .map(|j| j.name.as_str())
            .collect();
        eprintln!(
            "serve gate: overload: {} jobs → {} finished, {} shed, {} rejected, {} failed; \
             wait p99 {} ms, goodput {:.1} iters/s",
            r.jobs.len(),
            r.jobs.iter().filter(|j| j.outcome.finished()).count(),
            r.slo.shed_jobs,
            r.slo.rejected_jobs,
            r.slo.failed_jobs,
            ms(r.slo.queue_wait_p99_ns),
            r.slo.goodput_iters_per_s,
        );
        check(
            "overload sheds explicitly, loses nothing",
            r.slo.shed_jobs > 0 && r.slo.failed_jobs == 0 && unsettled.is_empty(),
            format!(
                "{} shed, {} failed, unsettled {unsettled:?}",
                r.slo.shed_jobs, r.slo.failed_jobs
            ),
        );
        let diags = lint_cluster(&overload);
        check(
            "overload trace lints clean",
            diags.is_empty(),
            format!(
                "{:?}",
                diags.iter().map(|d| d.to_string()).collect::<Vec<_>>()
            ),
        );
    }

    // 5. Emit the SLO record: the steady serving run plus the overload
    // scenario.
    let json = format!(
        "{{\n  \"suite\": \"serve\",\n  \"mode\": \"event-driven\",\n  \
         \"iters_per_job\": {},\n{},\n{}\n}}\n",
        args.iters,
        slo_json("steady", &steady.report),
        slo_json("overload", &overload.report),
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json");
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!("serve gate: wrote {}", path.display()),
        Err(e) => failures.push(format!("BENCH_serve.json: {e}")),
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
            eprintln!("serve gate: every check passed");
        } else {
            for f in &failures {
                eprintln!("serve gate: FAILED: {f}");
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
