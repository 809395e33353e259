//! Per-layer measurement from the benchmark's own files: a timing
//! [`MemoryPolicy`] decorator, traced session runs with an isolated
//! profile loop, and a recorded pass that audits, folds and replays each
//! iteration's event stream.

use crate::stats::{Clock, Metric};
use mimose::audit::{audit_exec_events, Severity};
use mimose::exec::{IterationReport, Session};
use mimose::models::{ModelProfile, OptimizedGraph};
use mimose::planner::{Directive, IterationObservation, MemoryPolicy, PlanTierStats, PlannerMeta};
use mimose::runtime::{fold_events, ExecEvent};
use mimose::simgpu::{AllocId, Arena};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which rung of the planning ladder served an iteration.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Rung {
    /// Collection iteration (or any iteration a tiered planner did not plan).
    Shuttle,
    /// Certified or uncertified plan-cache hit.
    Hit,
    /// Repair of a neighbouring bucket's plan.
    Repair,
    /// Cold scheduler solve.
    Cold,
    /// A policy without a tiered planner.
    Static,
}

/// One policy consult: its rung, the host time of `begin_iteration` +
/// `end_iteration`, and the estimator-fit time inside it.
#[derive(Clone, Copy)]
pub struct PolicyCall {
    rung: Rung,
    ns: u64,
    fit_ns: u64,
}

/// Times every call into the wrapped policy and classifies it by ladder
/// rung from the policy's own tier counters. The calls are handed to the
/// shared log when the session that owns the policy drops it, so timing
/// adds no lock to the measured path.
pub struct Timed<P: MemoryPolicy + ?Sized> {
    inner: Box<P>,
    fit_ns: fn(&P) -> u64,
    calls: Vec<PolicyCall>,
    log: Arc<Mutex<Vec<PolicyCall>>>,
}

impl<P: MemoryPolicy + ?Sized> Timed<P> {
    /// `fit_ns` reads the policy's accumulated estimator-fit time (zero
    /// for policies without an estimator).
    pub fn new(inner: Box<P>, fit_ns: fn(&P) -> u64, log: Arc<Mutex<Vec<PolicyCall>>>) -> Self {
        Timed {
            inner,
            fit_ns,
            calls: Vec::new(),
            log,
        }
    }
}

impl<P: MemoryPolicy + ?Sized> Drop for Timed<P> {
    fn drop(&mut self) {
        if let Ok(mut log) = self.log.lock() {
            log.append(&mut self.calls);
        }
    }
}

fn rung_of(before: Option<PlanTierStats>, after: Option<PlanTierStats>) -> Rung {
    match (before, after) {
        (Some(b), Some(a)) if a.cold_solves > b.cold_solves => Rung::Cold,
        (Some(b), Some(a)) if a.repaired_plans > b.repaired_plans => Rung::Repair,
        (Some(b), Some(a)) if a.cache_hits + a.certified_hits > b.cache_hits + b.certified_hits => {
            Rung::Hit
        }
        (Some(_), Some(_)) => Rung::Shuttle,
        _ => Rung::Static,
    }
}

impl<P: MemoryPolicy + ?Sized> MemoryPolicy for Timed<P> {
    fn meta(&self) -> PlannerMeta {
        self.inner.meta()
    }

    fn budget_bytes(&self) -> usize {
        self.inner.budget_bytes()
    }

    fn begin_iteration(&mut self, iter: usize, profile: &ModelProfile) -> Directive {
        let before = self.inner.plan_tier_stats();
        let t0 = Instant::now();
        let directive = self.inner.begin_iteration(iter, profile);
        let ns = t0.elapsed().as_nanos() as u64;
        let rung = rung_of(before, self.inner.plan_tier_stats());
        self.calls.push(PolicyCall {
            rung,
            ns,
            fit_ns: 0,
        });
        directive
    }

    fn end_iteration(&mut self, obs: &IterationObservation) {
        let fit_before = (self.fit_ns)(&self.inner);
        let t0 = Instant::now();
        self.inner.end_iteration(obs);
        let ns = t0.elapsed().as_nanos() as u64;
        let fit = (self.fit_ns)(&self.inner) - fit_before;
        if let Some(call) = self.calls.last_mut() {
            call.ns += ns;
            call.fit_ns += fit;
        }
    }

    fn last_plan_overhead_ns(&self) -> u64 {
        self.inner.last_plan_overhead_ns()
    }

    fn predicted_peak_bytes(&self, profile: &ModelProfile) -> Option<usize> {
        self.inner.predicted_peak_bytes(profile)
    }

    fn plan_tier_stats(&self) -> Option<PlanTierStats> {
        self.inner.plan_tier_stats()
    }
}

/// Host time of a traced session run, per iteration.
#[derive(Default)]
pub struct StepTrace {
    /// `Session::step`, whole.
    step_ns: Vec<u64>,
    /// `OptimizedGraph::profile` of the same input, in an isolated loop.
    profile_ns: Vec<u64>,
    /// Policy consults, aligned with `step_ns`.
    policy: Vec<PolicyCall>,
}

impl StepTrace {
    /// Step a session `iters` times, timing every step.
    pub fn run(
        &mut self,
        session: &mut Session<'_>,
        iters: usize,
    ) -> Result<Vec<IterationReport>, String> {
        let mut reports = Vec::with_capacity(iters);
        for _ in 0..iters {
            let t0 = Instant::now();
            let report = session.step().map_err(|e| format!("traced step: {e}"))?;
            self.step_ns.push(t0.elapsed().as_nanos() as u64);
            reports.push(report);
        }
        Ok(reports)
    }

    /// Time `OptimizedGraph::profile` on every input the traced steps
    /// ran, in an isolated loop outside the timed phase.
    pub fn profile(
        &mut self,
        model: &OptimizedGraph,
        reports: &[IterationReport],
    ) -> Result<(), String> {
        for r in reports {
            let t0 = Instant::now();
            let p = model
                .profile(black_box(&r.input))
                .map_err(|e| format!("profile: {e}"))?;
            self.profile_ns.push(t0.elapsed().as_nanos() as u64);
            black_box(p);
        }
        Ok(())
    }

    /// Take the policy calls the dropped sessions logged.
    pub fn collect(&mut self, log: &Arc<Mutex<Vec<PolicyCall>>>) -> Result<(), String> {
        let mut calls = log.lock().map_err(|_| "policy log poisoned")?;
        self.policy.append(&mut calls);
        if self.policy.len() != self.step_ns.len() {
            return Err(format!(
                "policy log has {} calls for {} steps",
                self.policy.len(),
                self.step_ns.len()
            ));
        }
        Ok(())
    }

    /// The `models`, `core`, `estimator` and `exec` host-time rows.
    pub fn metrics(&self, out: &mut Vec<Metric>) -> Result<(), String> {
        let n = self.step_ns.len() as f64;
        let us = |ns: &[u64]| ns.iter().map(|&x| x as f64 / 1e3).collect::<Vec<_>>();
        let policy_ns: Vec<u64> = self.policy.iter().map(|c| c.ns).collect();
        let sum = |v: &[u64]| v.iter().sum::<u64>() as f64;
        let (step, profile, policy) = (sum(&self.step_ns), sum(&self.profile_ns), sum(&policy_ns));
        let self_ns = step - profile - policy;
        if self_ns < 0.0 {
            return Err(format!(
                "profile {profile} ns + policy {policy} ns exceed the {step} ns of timed steps"
            ));
        }
        let fit: u64 = self.policy.iter().map(|c| c.fit_ns).sum();
        let fits = self.policy.iter().filter(|c| c.fit_ns > 0).count();
        let steps = us(&self.step_ns);
        out.push(Metric::one(
            "models.profile_us",
            "us",
            Clock::Host,
            profile / n / 1e3,
        ));
        out.push(Metric::one(
            "core.plan_us",
            "us",
            Clock::Host,
            policy / n / 1e3,
        ));
        for (rung, name) in [
            (Rung::Hit, "core.plan_us.hit"),
            (Rung::Repair, "core.plan_us.repair"),
            (Rung::Cold, "core.plan_us.cold"),
        ] {
            let v: Vec<u64> = self
                .policy
                .iter()
                .filter(|c| c.rung == rung)
                .map(|c| c.ns)
                .collect();
            out.push(Metric::new(name, "us", Clock::Host, us(&v)));
        }
        out.push(Metric::one(
            "estimator.fits",
            "count",
            Clock::None,
            fits as f64,
        ));
        out.push(Metric::one(
            "estimator.fit_us",
            "us",
            Clock::Host,
            if fits == 0 {
                f64::NAN
            } else {
                fit as f64 / fits as f64 / 1e3
            },
        ));
        out.push(Metric::one(
            "estimator.fit_pct",
            "%",
            Clock::Host,
            100.0 * fit as f64 / step,
        ));
        out.push(Metric::one(
            "exec.step_us_p50",
            "us",
            Clock::Host,
            crate::stats::quantile(&steps, 0.5),
        ));
        out.push(Metric::one(
            "exec.step_us_p99",
            "us",
            Clock::Host,
            crate::stats::quantile(&steps, 0.99),
        ));
        out.push(Metric::one(
            "exec.self_us",
            "us",
            Clock::Host,
            self_ns / n / 1e3,
        ));
        out.push(Metric::one("trace.steps", "count", Clock::None, n));
        Ok(())
    }
}

/// What a recorded pass over a set of sessions measured.
#[derive(Default)]
pub struct Recorded {
    iters: usize,
    events: usize,
    allocator_events: usize,
    record_step_ns: u64,
    plain_step_ns: u64,
    audit_ns: u64,
    /// The arena script of the iteration with the most allocator events.
    script: Vec<ArenaOp>,
    script_capacity: usize,
    script_peak: usize,
}

/// One allocator call of a recorded iteration, with frees naming the
/// index of the allocation they release.
#[derive(Clone, Copy)]
enum ArenaOp {
    Alloc(usize),
    Free(usize),
    Compact,
    Reset,
}

impl Recorded {
    /// Check one recorded session against its unrecorded twin.
    pub fn check(
        &mut self,
        recorded: &mut Session<'_>,
        plain: &mut Session<'_>,
        iters: usize,
        label: &str,
    ) -> Result<(), String> {
        let t0 = Instant::now();
        let plain_reports = plain.run(iters).map_err(|e| format!("{label}: {e}"))?;
        self.plain_step_ns += t0.elapsed().as_nanos() as u64;
        let t0 = Instant::now();
        let reports = recorded.run(iters).map_err(|e| format!("{label}: {e}"))?;
        self.record_step_ns += t0.elapsed().as_nanos() as u64;
        if format!("{plain_reports:?}") != format!("{reports:?}") {
            return Err(format!("{label}: recording changed the iteration reports"));
        }
        let records = recorded.take_records();
        if records.len() != reports.len() {
            return Err(format!(
                "{label}: {} recorded streams for {} iterations",
                records.len(),
                reports.len()
            ));
        }
        for (rec, rep) in records.iter().zip(&reports) {
            let t0 = Instant::now();
            let diags = audit_exec_events(rec.capacity, &rec.events, Some(&rec.arena));
            self.audit_ns += t0.elapsed().as_nanos() as u64;
            if let Some(d) = diags.iter().find(|d| d.severity == Severity::Error) {
                return Err(format!(
                    "{label} iter {}: audit error {} on {}: {}",
                    rec.iter, d.check, d.subject, d.message
                ));
            }
            let f = fold_events(rec.capacity, &rec.events);
            if f.time != rep.time
                || f.peak_used != rep.peak_bytes
                || f.peak_frag != rep.frag_bytes
                || f.report_extent() != rep.peak_extent
                || f.allocs != rec.arena.allocs
                || f.frees != rec.arena.frees
            {
                return Err(format!(
                    "{label} iter {}: the event fold does not reproduce the report",
                    rec.iter
                ));
            }
            self.events += rec.events.len();
            self.iters += 1;
            let allocator_events = rec
                .events
                .iter()
                .filter(|e| matches!(e, ExecEvent::Alloc { .. } | ExecEvent::Free { .. }))
                .count();
            self.allocator_events += allocator_events;
            if allocator_events > self.script.len() {
                self.script = arena_script(&rec.events)?;
                self.script_capacity = rec.capacity;
                self.script_peak = rec.arena.peak_used;
            }
        }
        Ok(())
    }

    /// Replay the recorded arena script through the public `Arena` API
    /// until `budget_ns` has passed; returns host ns per allocator call.
    pub fn replay_alloc_ns(&self, budget_ns: u64) -> Result<f64, String> {
        let mut slots: Vec<Option<AllocId>> = Vec::new();
        let mut calls = 0u64;
        let t0 = Instant::now();
        loop {
            let mut arena = Arena::new(self.script_capacity);
            slots.clear();
            for op in &self.script {
                match *op {
                    ArenaOp::Alloc(bytes) => {
                        let id = arena
                            .alloc(black_box(bytes))
                            .map_err(|e| format!("arena replay: {e}"))?;
                        slots.push(Some(id));
                    }
                    ArenaOp::Free(slot) => {
                        let id = slots[slot].take().ok_or("arena replay: double free")?;
                        arena.free(id);
                    }
                    ArenaOp::Compact => {
                        arena.compact();
                    }
                    ArenaOp::Reset => arena.reset(),
                }
            }
            calls += self.script.len() as u64;
            if arena.stats().peak_used != self.script_peak {
                return Err(format!(
                    "arena replay peaked at {} B, the recorded run at {} B",
                    arena.stats().peak_used,
                    self.script_peak
                ));
            }
            if t0.elapsed().as_nanos() as u64 >= budget_ns {
                break;
            }
        }
        Ok(t0.elapsed().as_nanos() as f64 / calls as f64)
    }

    /// The `runtime`, `audit` and `simgpu` rows.
    pub fn metrics(&self, out: &mut Vec<Metric>) -> Result<(), String> {
        let n = self.iters as f64;
        out.push(Metric::one(
            "runtime.events_per_iter",
            "count",
            Clock::None,
            self.events as f64 / n,
        ));
        out.push(Metric::one(
            "runtime.record_us_per_iter",
            "us",
            Clock::Host,
            (self.record_step_ns as f64 - self.plain_step_ns as f64) / n / 1e3,
        ));
        out.push(Metric::one(
            "audit.exec_events_us_per_iter",
            "us",
            Clock::Host,
            self.audit_ns as f64 / n / 1e3,
        ));
        out.push(Metric::one(
            "simgpu.alloc_ns",
            "ns",
            Clock::Host,
            self.replay_alloc_ns(200_000_000)?,
        ));
        out.push(Metric::one(
            "simgpu.ops_per_iter",
            "count",
            Clock::None,
            self.allocator_events as f64 / n,
        ));
        Ok(())
    }
}

fn arena_script(events: &[ExecEvent]) -> Result<Vec<ArenaOp>, String> {
    let mut slot_of = std::collections::HashMap::new();
    let mut script = Vec::new();
    let mut allocs = 0usize;
    for e in events {
        match e {
            ExecEvent::Alloc { id, requested, .. } => {
                slot_of.insert(id.raw(), allocs);
                script.push(ArenaOp::Alloc(*requested));
                allocs += 1;
            }
            ExecEvent::Free { id, .. } => {
                let slot = slot_of
                    .remove(&id.raw())
                    .ok_or("recorded free of an unknown allocation")?;
                script.push(ArenaOp::Free(slot));
            }
            ExecEvent::Compact { .. } => script.push(ArenaOp::Compact),
            ExecEvent::Reset => script.push(ArenaOp::Reset),
            _ => {}
        }
    }
    Ok(script)
}
