//! `train`: a closed loop over the six Table II tasks, one `Session` per
//! task run back to back on one modelled V100, each under Mimose at one
//! budget inside its feasible range.

use crate::probe::{PolicyCall, Recorded, StepTrace, Timed};
use crate::stats::{cpu_ns, derive, nearest_rank, Clock, Digest, Metric};
use crate::{Args, Outcome, VirtRow};
use mimose::cluster::DeterministicMimose;
use mimose::core::{MimoseConfig, MimosePolicy};
use mimose::data::{presets, Dataset};
use mimose::exec::{IterationReport, RunSummary, Session, TimeBreakdown};
use mimose::models::builders::{
    bert_base, resnet101_od, resnet50_od, roberta_base, t5_base, BertHead,
};
use mimose::models::{ModelGraph, OptimizedGraph};
use mimose::planner::memory_model::min_feasible_budget;
use mimose::planner::PlanTierStats;
use std::sync::{Arc, Mutex};
use std::time::Instant;

type TaskDef = (&'static str, fn() -> ModelGraph, fn() -> Dataset);

/// The Table II tasks: paper abbreviation, model, dataset (whose preset
/// fixes the batch size).
const TASKS: [TaskDef; 6] = [
    (
        "MC-Roberta",
        || roberta_base(BertHead::Classification { labels: 1 }),
        presets::swag,
    ),
    ("TR-T5", t5_base, presets::un_pc),
    (
        "QA-Bert",
        || bert_base(BertHead::QuestionAnswering),
        presets::squad,
    ),
    (
        "TC-Bert",
        || bert_base(BertHead::Classification { labels: 2 }),
        presets::glue_qqp,
    ),
    ("OD-R50", resnet50_od, || presets::coco(8)),
    ("OD-R101", resnet101_od, || presets::coco(6)),
];

/// Where each task's budget sits between the smallest feasible budget
/// (everything checkpointed) and the no-checkpoint peak of its worst-case
/// input: a quarter of the way up checkpoints on most inputs, so the plan
/// ladder, the estimator and recomputation all do work.
const BUDGET_FRACTION: f64 = 0.25;

/// Iterations per task in one pass: long enough that the 10–30 shuttle
/// iterations are a small share and the plan cache reaches steady state.
const ITERS_PER_TASK: usize = 400;

/// Iterations per task in the recorded correctness pass: past the
/// shuttle phase, so planned iterations are audited too.
const RECORDED_ITERS: usize = 48;

/// At least this many passes per run, so every run checks that two runs
/// of one seed agree.
const MIN_PASSES: usize = 3;

struct Task {
    abbr: &'static str,
    model: OptimizedGraph,
    dataset: Dataset,
    budget: usize,
}

fn build_tasks(optimize_ns: &mut u64) -> Result<Vec<Task>, String> {
    TASKS
        .iter()
        .map(|&(abbr, graph, dataset)| {
            let raw = graph();
            let t0 = cpu_ns();
            let model = raw.optimize();
            *optimize_ns += cpu_ns() - t0;
            let dataset = dataset();
            let worst = model
                .profile(&dataset.worst_case())
                .map_err(|e| format!("{abbr}: worst case does not profile: {e}"))?;
            let lo = min_feasible_budget(&worst);
            let hi = worst.peak_no_checkpoint();
            let budget = lo + ((hi - lo) as f64 * BUDGET_FRACTION) as usize;
            Ok(Task {
                abbr,
                model,
                dataset,
                budget,
            })
        })
        .collect()
}

fn mimose(budget: usize) -> DeterministicMimose {
    DeterministicMimose::new(MimosePolicy::new(MimoseConfig::with_budget(budget)))
}

fn fit_ns(p: &DeterministicMimose) -> u64 {
    p.inner().stats().estimator_fit_ns
}

/// The virtual-clock results of one pass.
#[derive(Default)]
struct Pass {
    attempted: u64,
    ok: u64,
    in_budget: u64,
    samples: u64,
    iter_ns: Vec<u64>,
    task_ns: Vec<u64>,
    time: TimeBreakdown,
    tiers: PlanTierStats,
    shuttle_iters: u64,
    oom_iters: u64,
    recovered_iters: u64,
    max_peak: usize,
    max_frag: usize,
    digest: Digest,
}

impl Pass {
    fn absorb(
        &mut self,
        task: &Task,
        session: &Session<'_>,
        reports: &[IterationReport],
    ) -> Result<(), String> {
        let mut fold = RunSummary::default();
        for r in reports {
            fold.absorb(r);
        }
        if format!("{fold:?}") != format!("{:?}", session.summary()) {
            return Err(format!(
                "{}: the session summary differs from the fold of its reports",
                task.abbr
            ));
        }
        let batch = task.dataset.batch_size() as u64;
        for r in reports {
            self.attempted += 1;
            let ns = r.time.total_ns();
            self.iter_ns.push(ns);
            if r.ok() {
                self.ok += 1;
                self.samples += batch;
                if r.peak_bytes <= task.budget {
                    self.in_budget += 1;
                }
            }
            self.digest.word(ns);
            self.digest.word(r.peak_bytes as u64);
            self.digest.word(r.input_size as u64);
        }
        self.task_ns.push(fold.total_ns);
        self.time.add(&fold.time);
        self.shuttle_iters += fold.shuttle_iters as u64;
        self.oom_iters += fold.oom_iters as u64;
        self.recovered_iters += fold.recovered_iters as u64;
        self.max_peak = self.max_peak.max(fold.max_peak_bytes);
        self.max_frag = self.max_frag.max(fold.max_frag_bytes);
        if let Some(t) = session.policy().plan_tier_stats() {
            self.tiers.certified_hits += t.certified_hits;
            self.tiers.cache_hits += t.cache_hits;
            self.tiers.repaired_plans += t.repaired_plans;
            self.tiers.cold_solves += t.cold_solves;
        }
        Ok(())
    }

    /// The end-to-end virtual metrics, and their digest.
    fn virt(&mut self) -> Vec<VirtRow> {
        let virt_s = self.task_ns.iter().sum::<u64>() as f64 / 1e9;
        // The sessions run back to back on one device: each task waits
        // for every task submitted before it.
        let mut waits: Vec<u64> = self
            .task_ns
            .iter()
            .scan(0u64, |start, &ns| {
                let wait = *start;
                *start += ns;
                Some(wait)
            })
            .collect();
        waits.sort_unstable();
        let mut iter_ns = self.iter_ns.clone();
        iter_ns.sort_unstable();
        let att = self.attempted as f64;
        let v = vec![
            (
                "virt_samples_per_s",
                "samples/s",
                self.samples as f64 / virt_s,
            ),
            (
                "queue_wait_p50_ms",
                "ms",
                nearest_rank(&waits, 50.0) as f64 / 1e6,
            ),
            (
                "queue_wait_p99_ms",
                "ms",
                nearest_rank(&waits, 99.0) as f64 / 1e6,
            ),
            (
                "iter_latency_p50_ms",
                "ms",
                nearest_rank(&iter_ns, 50.0) as f64 / 1e6,
            ),
            (
                "iter_latency_p99_ms",
                "ms",
                nearest_rank(&iter_ns, 99.0) as f64 / 1e6,
            ),
            ("goodput_iters_per_s", "iters/s", self.ok as f64 / virt_s),
            ("slo_met_pct", "%", 100.0 * self.in_budget as f64 / att),
            ("completed_pct", "%", 100.0 * self.ok as f64 / att),
            (
                "fail_pct",
                "%",
                100.0 * (self.attempted - self.ok) as f64 / att,
            ),
        ];
        for &(_, _, x) in &v {
            self.digest.word(x.to_bits());
        }
        v
    }
}

/// Host CPU time of one pass's set-up, graph passes and timed phase, ns.
struct PassTimes {
    setup_ns: u64,
    optimize_ns: u64,
    timed_ns: u64,
}

/// One pass: set up the six sessions, step each through
/// [`ITERS_PER_TASK`] iterations, fold and check the results.
fn pass(seed: u64, trace: Option<&mut StepTrace>) -> Result<(Pass, PassTimes), String> {
    let t_setup = cpu_ns();
    let mut optimize_ns = 0;
    let tasks = build_tasks(&mut optimize_ns)?;
    let log = Arc::new(Mutex::new(Vec::<PolicyCall>::new()));
    let mut sessions = tasks
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let b = Session::builder(&t.model, &t.dataset).seed(derive(seed, i as u64));
            let b = if trace.is_some() {
                b.policy(Timed::new(Box::new(mimose(t.budget)), fit_ns, log.clone()))
            } else {
                b.policy(mimose(t.budget))
            };
            b.build().map_err(|e| format!("{}: {e}", t.abbr))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let setup_ns = cpu_ns() - t_setup;

    let mut out = Pass::default();
    let mut trace = trace;
    let t0 = cpu_ns();
    let mut runs = Vec::with_capacity(tasks.len());
    for (t, s) in tasks.iter().zip(&mut sessions) {
        let reports = match trace.as_deref_mut() {
            None => s
                .run(ITERS_PER_TASK)
                .map_err(|e| format!("{}: {e}", t.abbr))?,
            Some(trace) => trace.run(s, ITERS_PER_TASK)?,
        };
        runs.push(reports);
    }
    let timed_ns = cpu_ns() - t0;
    for ((t, s), reports) in tasks.iter().zip(&sessions).zip(&runs) {
        out.absorb(t, s, reports)?;
    }
    drop(sessions);
    if let Some(trace) = trace {
        trace.collect(&log)?;
        for (t, reports) in tasks.iter().zip(&runs) {
            trace.profile(&t.model, reports)?;
        }
    }
    Ok((
        out,
        PassTimes {
            setup_ns,
            optimize_ns,
            timed_ns,
        },
    ))
}

/// The recorded pass: every task's session run recorded beside an
/// unrecorded twin, each stream audited and folded.
fn recorded_pass(seed: u64) -> Result<Recorded, String> {
    let mut ignored = 0;
    let tasks = build_tasks(&mut ignored)?;
    let mut rec = Recorded::default();
    for (i, t) in tasks.iter().enumerate() {
        let build = |record: bool| {
            Session::builder(&t.model, &t.dataset)
                .seed(derive(seed, i as u64))
                .policy(mimose(t.budget))
                .record(record)
                .build()
                .map_err(|e| format!("{}: {e}", t.abbr))
        };
        rec.check(
            &mut build(true)?,
            &mut build(false)?,
            RECORDED_ITERS,
            t.abbr,
        )?;
    }
    Ok(rec)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let deadline = args.seconds as f64;
    let t_run = Instant::now();
    let mut setup_s = Vec::new();
    let mut iters_per_s = Vec::new();
    let mut traced_iters_per_s = Vec::new();
    let mut optimize_ms = Vec::new();
    let mut trace = StepTrace::default();
    let mut first: Option<(Pass, Vec<VirtRow>)> = None;
    let mut digests = Vec::new();
    let mut k = 0;
    while k < MIN_PASSES * (1 + args.trace as usize) || t_run.elapsed().as_secs_f64() < deadline {
        // A traced run alternates plain and traced passes, so the
        // overhead of tracing is measured under the same conditions.
        let traced = args.trace && k % 2 == 1;
        let (mut p, times) = pass(args.seed, traced.then_some(&mut trace))?;
        let virt = p.virt();
        let rate = p.attempted as f64 / (times.timed_ns as f64 / 1e9);
        if traced {
            traced_iters_per_s.push(rate);
        } else {
            iters_per_s.push(rate);
            setup_s.push(times.setup_ns as f64 / 1e9);
        }
        optimize_ms.push(times.optimize_ns as f64 / 1e6);
        digests.push(p.digest.finish());
        if first.is_none() {
            first = Some((p, virt));
        }
        k += 1;
    }
    let (p, virt) = first.ok_or("no pass ran")?;
    if digests.iter().any(|&d| d != digests[0]) {
        return Err(format!(
            "passes of one seed disagree on the virtual clock: {digests:x?}"
        ));
    }
    let rec = recorded_pass(args.seed)?;

    let mut out = Outcome {
        attempted: p.attempted,
        failed: p.attempted - p.ok,
        digest: digests[0],
        ..Outcome::default()
    };
    out.e2e
        .push(Metric::new("setup_s", "s", Clock::Host, setup_s));
    out.e2e.push(Metric::best(
        "sim_iters_per_s",
        "iters/s",
        iters_per_s.clone(),
    ));
    for (name, unit, x) in virt {
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

    let l = &mut out.layer;
    trace.metrics(l)?;
    rec.metrics(l)?;
    l.push(Metric::new(
        "models.optimize_ms",
        "ms",
        Clock::Host,
        optimize_ms,
    ));
    let mut draw_ms = Vec::new();
    let mut ignored = 0;
    let tasks = build_tasks(&mut ignored)?;
    for _ in 0..5 {
        let t0 = Instant::now();
        for (i, t) in tasks.iter().enumerate() {
            let batches = t
                .dataset
                .stream(derive(args.seed, i as u64))
                .take_batches(ITERS_PER_TASK);
            std::hint::black_box(batches);
        }
        draw_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    l.push(Metric::new("data.arrivals_ms", "ms", Clock::Host, draw_ms));
    let tiers = p.tiers;
    let planned = tiers.total().max(1) as f64;
    for (name, x) in [
        ("core.plan.certified_hits", tiers.certified_hits),
        ("core.plan.cache_hits", tiers.cache_hits),
        ("core.plan.repairs", tiers.repaired_plans),
        ("core.plan.cold_solves", tiers.cold_solves),
        ("core.shuttle_iters", p.shuttle_iters),
        ("exec.oom_iters", p.oom_iters),
        ("exec.recovered_iters", p.recovered_iters),
    ] {
        l.push(Metric::one(name, "count", Clock::Virt, x as f64));
    }
    l.push(Metric::one(
        "core.plan.hit_pct",
        "%",
        Clock::Virt,
        100.0 * (tiers.certified_hits + tiers.cache_hits) as f64 / planned,
    ));
    crate::push_virt_shares(l, &p.time);
    l.push(Metric::one(
        "simgpu.peak_gib_max",
        "GiB",
        Clock::Virt,
        p.max_peak as f64 / GIB,
    ));
    l.push(Metric::one(
        "simgpu.frag_gib_max",
        "GiB",
        Clock::Virt,
        p.max_frag as f64 / GIB,
    ));
    crate::push_no_fleet(l);
    l.push(crate::overhead(&iters_per_s, &traced_iters_per_s));
    let note = crate::ladder_note(&out.layer);
    out.notes.push(note);
    Ok(out)
}

const GIB: f64 = (1u64 << 30) as f64;
