//! `serve-steady` and `serve-overload`: open loops of job arrivals into
//! an event-driven fleet of 16 modelled V100s. Arrival offsets are
//! computed in advance on the virtual clock, so the load generator is
//! never late, and queue wait runs from each job's arrival instant.

use crate::probe::{PolicyCall, Recorded, StepTrace, Timed};
use crate::stats::{cpu_ns, derive, Clock, Digest, Metric};
use crate::{Args, Outcome, VirtRow};
use mimose::audit::{lint_cluster, Severity};
use mimose::cluster::{
    ArrivalProcess, Cluster, ClusterOutcome, DeterministicMimose, DevicePool, JobPolicy, JobSpec,
    Mode, Workload,
};
use mimose::core::{MimoseConfig, MimosePolicy};
use mimose::exec::{Session, TimeBreakdown};
use mimose::models::PassPipeline;
use mimose::planner::MemoryPolicy;
use mimose::simgpu::DeviceProfile;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One serving workload.
pub struct Spec {
    /// Jobs submitted, cycling through `Workload::scaled`'s eight-job mix.
    jobs: usize,
    /// Iterations per job.
    iters: usize,
    /// The arrival process, given the arrival stream's seed.
    arrivals: fn(u64) -> ArrivalProcess,
    /// Bound on the pending queue; arrivals past it are shed.
    queue_limit: Option<usize>,
    /// Queue-wait limit of `slo_met_pct`.
    slo_wait_ns: u64,
    /// Jobs replayed as plain sessions for the per-layer session rows.
    probe_jobs: usize,
}

const DEVICES: usize = 16;

/// 5000 two-iteration jobs arriving as a Poisson stream with a 72 ms mean
/// gap, about 80% of the fleet's capacity of ~17 jobs/s: per-job fixed
/// costs (workload build, admission, session set-up, report fold and
/// JSON, `lint_cluster`) dominate, and the audit is a visible share.
/// Two-iteration Mimose jobs never leave their shuttle phase, so the plan
/// ladder is bypassed. The 2 s wait limit sits above the p99 wait this
/// load gives.
pub const STEADY: Spec = Spec {
    jobs: 5000,
    iters: 2,
    arrivals: |seed| ArrivalProcess::poisson(72_000_000, seed),
    queue_limit: None,
    slo_wait_ns: 2_000_000_000,
    probe_jobs: 64,
};

/// 3000 sixteen-iteration jobs arriving in MMPP bursts (450 ms calm gap,
/// 8× faster bursts, six arrivals per phase on average), about 1.8× the
/// fleet's capacity, into a pending queue bounded at 32: the queue stays
/// long, jobs are shed, Mimose plans inside fleet jobs, and per-iteration
/// cost dominates. The 15 s wait limit is the wait a full queue implies:
/// about two sixteen-iteration jobs per device ahead of an arrival.
pub const OVERLOAD: Spec = Spec {
    jobs: 3000,
    iters: 16,
    arrivals: |seed| ArrivalProcess::bursty(450_000_000, 450_000_000 / 8, 6, seed),
    queue_limit: Some(32),
    slo_wait_ns: 15_000_000_000,
    probe_jobs: 32,
};

/// The workload seed's stream for arrival gaps; job `i` reseeds from
/// stream `i`, far below it.
const ARRIVAL_STREAM: u64 = 1 << 32;

/// At least this many cycles per run, so every run checks that two runs
/// of one seed agree.
const MIN_CYCLES: usize = 3;

/// The jobs of one seed: `Workload::scaled` with every job reseeded from
/// the workload seed (`scaled` alone fixes the seeds).
/// The first `n` of them are the same jobs for any larger `n`.
fn jobs(spec: &Spec, seed: u64, n: usize) -> Vec<JobSpec> {
    let mut jobs = Workload::scaled(spec.iters, n).into_jobs();
    for (i, job) in jobs.iter_mut().enumerate() {
        job.seed = derive(seed, i as u64);
    }
    jobs
}

/// Host spans of one cycle, ns.
#[derive(Default, Clone, Copy)]
struct Spans {
    arrivals: u64,
    build: u64,
    setup: u64,
    run: u64,
    json: u64,
    lint: u64,
}

impl Spans {
    fn timed(&self) -> u64 {
        self.run + self.json + self.lint
    }
}

/// What one cycle's fleet report says, beyond its host spans.
#[derive(Default)]
struct Fleet {
    iters: u64,
    virt: Vec<VirtRow>,
    finished: u64,
    failed: u64,
    report_bytes: usize,
    admit: usize,
    demote: usize,
    reject: usize,
    shed: usize,
    events: usize,
    utilization_pct: f64,
    time: TimeBreakdown,
    tiers: [u64; 4],
    shuttle_iters: u64,
    oom_iters: usize,
    recovered_iters: usize,
    max_peak: usize,
    max_frag: usize,
    digest: u64,
}

fn cycle(spec: &Spec, seed: u64) -> Result<(Spans, Fleet), String> {
    let mut s = Spans::default();
    let t0 = cpu_ns();
    let offsets = (spec.arrivals)(derive(seed, ARRIVAL_STREAM)).arrival_ns(spec.jobs);
    s.arrivals = cpu_ns() - t0;
    let t1 = cpu_ns();
    let jobs = jobs(spec, seed, spec.jobs);
    s.build = cpu_ns() - t1;
    let batch: Vec<u64> = jobs.iter().map(|j| j.dataset.batch_size() as u64).collect();
    let builder = Cluster::builder()
        .devices(DevicePool::v100(DEVICES))
        .workload(Workload::custom(jobs))
        .mode(Mode::EventDriven)
        .arrivals(ArrivalProcess::trace(offsets))
        .queue_limit(spec.queue_limit)
        .threads(1);
    s.setup = cpu_ns() - t0;

    let t = cpu_ns();
    let outcome = builder.run().map_err(|e| format!("cluster run: {e}"))?;
    s.run = cpu_ns() - t;
    let t = cpu_ns();
    let json = outcome.report.to_json();
    s.json = cpu_ns() - t;
    let t = cpu_ns();
    let diags = lint_cluster(&outcome);
    s.lint = cpu_ns() - t;

    if let Some(d) = diags.iter().find(|d| d.severity == Severity::Error) {
        return Err(format!(
            "lint_cluster error {} on {}: {}",
            d.check, d.subject, d.message
        ));
    }
    let fleet = fold(spec, &outcome, &batch, &json)?;
    Ok((s, fleet))
}

/// Check that every job reached a terminal outcome and fold the report
/// into the run's metrics.
fn fold(spec: &Spec, o: &ClusterOutcome, batch: &[u64], json: &str) -> Result<Fleet, String> {
    let r = &o.report;
    if r.jobs.len() != spec.jobs || o.details.len() != spec.jobs {
        return Err(format!(
            "{} job rows and {} details for {} jobs submitted",
            r.jobs.len(),
            o.details.len(),
            spec.jobs
        ));
    }
    let mut f = Fleet::default();
    let mut samples = 0u64;
    let mut met = 0u64;
    for ((job, detail), &b) in r.jobs.iter().zip(&o.details).zip(batch) {
        f.iters += detail.reports.len() as u64;
        if job.outcome.finished() {
            if detail.reports.len() != spec.iters || job.finish_ns.is_none() {
                return Err(format!(
                    "{} finished after {} of {} iterations",
                    job.name,
                    detail.reports.len(),
                    spec.iters
                ));
            }
            f.finished += 1;
        } else if matches!(job.outcome, mimose::cluster::JobOutcome::Failed(_)) {
            f.failed += 1;
        }
        samples += b * detail.reports.iter().filter(|x| x.ok()).count() as u64;
        if detail.dispatch_seq.is_some() && job.queue_wait_ns <= spec.slo_wait_ns {
            met += 1;
        }
        f.time.add(&detail.summary.time);
        f.max_peak = f.max_peak.max(detail.summary.max_peak_bytes);
        f.max_frag = f.max_frag.max(detail.summary.max_frag_bytes);
        f.shuttle_iters += job.shuttle_iters as u64;
        if let Some(t) = job.plan_tiers {
            f.tiers[0] += t.certified_hits;
            f.tiers[1] += t.cache_hits;
            f.tiers[2] += t.repaired_plans;
            f.tiers[3] += t.cold_solves;
        }
    }
    let n = spec.jobs as f64;
    let slo = &r.slo;
    f.virt = vec![
        (
            "virt_samples_per_s",
            "samples/s",
            samples as f64 / (r.makespan_ns as f64 / 1e9),
        ),
        (
            "queue_wait_p50_ms",
            "ms",
            slo.queue_wait_p50_ns as f64 / 1e6,
        ),
        (
            "queue_wait_p99_ms",
            "ms",
            slo.queue_wait_p99_ns as f64 / 1e6,
        ),
        (
            "iter_latency_p50_ms",
            "ms",
            slo.iter_latency_p50_ns as f64 / 1e6,
        ),
        (
            "iter_latency_p99_ms",
            "ms",
            slo.iter_latency_p99_ns as f64 / 1e6,
        ),
        ("goodput_iters_per_s", "iters/s", slo.goodput_iters_per_s),
        ("slo_met_pct", "%", 100.0 * met as f64 / n),
        ("completed_pct", "%", 100.0 * f.finished as f64 / n),
        (
            "fail_pct",
            "%",
            100.0 * (slo.rejected_jobs + slo.shed_jobs + slo.failed_jobs) as f64 / n,
        ),
    ];
    let mut d = Digest::new();
    d.bytes(json.as_bytes());
    for &(_, _, x) in &f.virt {
        d.word(x.to_bits());
    }
    f.digest = d.finish();
    f.report_bytes = json.len();
    f.admit = r.admission.admitted;
    f.demote = r.admission.demoted;
    f.reject = r.admission.rejected;
    f.shed = slo.shed_jobs;
    f.events = r.events.len();
    f.utilization_pct = r.utilization_pct;
    f.oom_iters = r.oom_iters;
    f.recovered_iters = r.recovered_iters;
    Ok(f)
}

/// Replay sampled fleet jobs as plain sessions: traced (timing policy
/// decorator and per-step timer), then recorded beside an unrecorded twin.
fn probe(sample: &[JobSpec]) -> Result<(StepTrace, Recorded), String> {
    let dev = DeviceProfile::v100();
    let mut trace = StepTrace::default();
    let mut rec = Recorded::default();
    let log = Arc::new(Mutex::new(Vec::<PolicyCall>::new()));
    for job in sample {
        let worst = job
            .worst_profile()
            .map_err(|e| format!("{}: worst case does not profile: {e}", job.name))?;
        let builder = || {
            let b = Session::builder(&job.model, &job.dataset).seed(job.seed);
            match &job.recovery {
                Some(cfg) => b.recovery(cfg.clone()),
                None => b,
            }
        };
        let timed: Box<dyn MemoryPolicy> = match job.policy {
            JobPolicy::Mimose { budget } => Box::new(Timed::new(
                Box::new(DeterministicMimose::new(MimosePolicy::new(
                    MimoseConfig::with_budget(budget),
                ))),
                |p: &DeterministicMimose| p.inner().stats().estimator_fit_ns,
                log.clone(),
            )),
            _ => Box::new(Timed::new(
                job.policy.build(&worst, &dev),
                |_| 0,
                log.clone(),
            )),
        };
        let mut s = builder()
            .policy_boxed(timed)
            .build()
            .map_err(|e| format!("{}: {e}", job.name))?;
        let reports = trace.run(&mut s, job.iters)?;
        drop(s);
        trace.profile(&job.model, &reports)?;
        let plain = |record: bool| {
            builder()
                .policy_boxed(job.policy.build(&worst, &dev))
                .record(record)
                .build()
                .map_err(|e| format!("{}: {e}", job.name))
        };
        rec.check(&mut plain(true)?, &mut plain(false)?, job.iters, &job.name)?;
    }
    trace.collect(&log)?;
    Ok((trace, rec))
}

/// Host time of the graph pass pipeline over one cycle of the job mix,
/// scaled to the cycles the workload builds (it rebuilds all eight graphs
/// per cycle).
fn optimize_ms(spec: &Spec) -> Vec<f64> {
    let raws: Vec<_> = Workload::mixed(spec.iters)
        .into_jobs()
        .into_iter()
        .map(|j| j.model.raw().clone())
        .collect();
    let cycles = spec.jobs.div_ceil(raws.len()) as f64;
    (0..5)
        .map(|_| {
            let graphs = raws.clone();
            let t0 = Instant::now();
            for g in graphs {
                std::hint::black_box(PassPipeline::standard().run(g));
            }
            t0.elapsed().as_secs_f64() * 1e3 * cycles
        })
        .collect()
}

pub fn run(args: &Args, spec: &Spec) -> Result<Outcome, String> {
    let t_run = Instant::now();
    let mut spans: Vec<(Spans, bool)> = Vec::new();
    let mut first: Option<Fleet> = None;
    let mut digests = Vec::new();
    let mut k = 0;
    while k < MIN_CYCLES * (1 + args.trace as usize)
        || t_run.elapsed().as_secs_f64() < args.seconds as f64
    {
        // A traced run alternates plain and traced cycles; the spans are
        // timed in both, so the difference is the cost of tracing.
        let traced = args.trace && k % 2 == 1;
        let (s, fleet) = cycle(spec, args.seed)?;
        spans.push((s, traced));
        digests.push(fleet.digest);
        if first.is_none() {
            first = Some(fleet);
        }
        k += 1;
    }
    let f = first.ok_or("no cycle ran")?;
    if digests.iter().any(|&d| d != digests[0]) {
        return Err(format!("cycles of one seed disagree: {digests:x?}"));
    }

    let mut out = Outcome {
        attempted: spec.jobs as u64,
        failed: f.failed,
        digest: digests[0],
        ..Outcome::default()
    };
    let plain: Vec<Spans> = spans.iter().filter(|x| !x.1).map(|x| x.0).collect();
    let secs = |pick: fn(&Spans) -> u64, v: &[Spans]| -> Vec<f64> {
        v.iter().map(|s| pick(s) as f64 / 1e9).collect()
    };
    let rate = |v: &[Spans]| -> Vec<f64> {
        v.iter()
            .map(|s| f.iters as f64 / (s.timed() as f64 / 1e9))
            .collect()
    };
    out.e2e.push(Metric::new(
        "setup_s",
        "s",
        Clock::Host,
        secs(|s| s.setup, &plain),
    ));
    out.e2e
        .push(Metric::best("sim_iters_per_s", "iters/s", rate(&plain)));
    for &(name, unit, x) in &f.virt {
        let clock = if name.ends_with("_pct") {
            Clock::None
        } else {
            Clock::Virt
        };
        out.e2e.push(Metric::one(name, unit, clock, x));
    }
    if !args.trace {
        return Ok(out);
    }

    let all: Vec<Spans> = spans.iter().map(|x| x.0).collect();
    let traced: Vec<Spans> = spans.iter().filter(|x| x.1).map(|x| x.0).collect();
    let (trace, rec) = probe(&jobs(spec, args.seed, spec.probe_jobs))?;
    let l = &mut out.layer;
    trace.metrics(l)?;
    rec.metrics(l)?;
    l.push(Metric::new(
        "models.optimize_ms",
        "ms",
        Clock::Host,
        optimize_ms(spec),
    ));
    l.push(Metric::new(
        "data.arrivals_ms",
        "ms",
        Clock::Host,
        secs(|s| s.arrivals, &all).iter().map(|x| x * 1e3).collect(),
    ));
    for (i, name) in [
        "core.plan.certified_hits",
        "core.plan.cache_hits",
        "core.plan.repairs",
        "core.plan.cold_solves",
    ]
    .into_iter()
    .enumerate()
    {
        l.push(Metric::one(name, "count", Clock::Virt, f.tiers[i] as f64));
    }
    let planned: u64 = f.tiers.iter().sum();
    l.push(Metric::one(
        "core.plan.hit_pct",
        "%",
        Clock::Virt,
        if planned == 0 {
            0.0
        } else {
            100.0 * (f.tiers[0] + f.tiers[1]) as f64 / planned as f64
        },
    ));
    for (name, x) in [
        ("core.shuttle_iters", f.shuttle_iters as f64),
        ("exec.oom_iters", f.oom_iters as f64),
        ("exec.recovered_iters", f.recovered_iters as f64),
        ("cluster.admit", f.admit as f64),
        ("cluster.demote", f.demote as f64),
        ("cluster.reject", f.reject as f64),
        ("cluster.shed", f.shed as f64),
        ("cluster.fleet_events", f.events as f64),
    ] {
        l.push(Metric::one(name, "count", Clock::Virt, x));
    }
    crate::push_virt_shares(l, &f.time);
    l.push(Metric::one(
        "simgpu.peak_gib_max",
        "GiB",
        Clock::Virt,
        f.max_peak as f64 / GIB,
    ));
    l.push(Metric::one(
        "simgpu.frag_gib_max",
        "GiB",
        Clock::Virt,
        f.max_frag as f64 / GIB,
    ));
    l.push(Metric::one(
        "cluster.utilization_pct",
        "%",
        Clock::Virt,
        f.utilization_pct,
    ));
    l.push(Metric::one(
        "cluster.report_mib",
        "MiB",
        Clock::None,
        f.report_bytes as f64 / (1u64 << 20) as f64,
    ));
    let share = |pick: fn(&Spans) -> u64| -> Vec<f64> {
        all.iter()
            .map(|s| 100.0 * pick(s) as f64 / (s.setup + s.timed()) as f64)
            .collect()
    };
    l.push(Metric::new(
        "cluster.build_pct",
        "%",
        Clock::Host,
        share(|s| s.build),
    ));
    l.push(Metric::new(
        "cluster.run_pct",
        "%",
        Clock::Host,
        share(|s| s.run),
    ));
    l.push(Metric::new(
        "cluster.report_json_pct",
        "%",
        Clock::Host,
        share(|s| s.json),
    ));
    l.push(Metric::new(
        "audit.lint_cluster_pct",
        "%",
        Clock::Host,
        share(|s| s.lint),
    ));
    l.push(Metric::new(
        "cluster.workload_build_s",
        "s",
        Clock::Host,
        secs(|s| s.build, &all),
    ));
    l.push(Metric::new(
        "cluster.run_s",
        "s",
        Clock::Host,
        secs(|s| s.run, &all),
    ));
    l.push(Metric::new(
        "cluster.run_us_per_job",
        "us",
        Clock::Host,
        secs(|s| s.run, &all)
            .iter()
            .map(|x| x * 1e6 / spec.jobs as f64)
            .collect(),
    ));
    l.push(Metric::new(
        "cluster.report_json_s",
        "s",
        Clock::Host,
        secs(|s| s.json, &all),
    ));
    l.push(Metric::new(
        "audit.lint_cluster_s",
        "s",
        Clock::Host,
        secs(|s| s.lint, &all),
    ));
    l.push(Metric::new(
        "trace.cycle_covered_pct",
        "%",
        Clock::Host,
        all.iter()
            .map(|s| {
                100.0 * (s.arrivals + s.build + s.timed()) as f64 / (s.setup + s.timed()) as f64
            })
            .collect(),
    ));
    l.push(crate::overhead(&rate(&plain), &rate(&traced)));
    let note = crate::ladder_note(&out.layer);
    out.notes.push(note);
    Ok(out)
}

const GIB: f64 = (1u64 << 30) as f64;
