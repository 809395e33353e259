//! Fleet reporting: per-job and per-device rollups, SLO tail percentiles,
//! plus the [`ClusterReport`] with its deterministic JSON encoding (stable
//! field order, integral counters, fixed-precision floats — two runs with
//! the same seed serialize byte-identically).

use crate::admission::AdmissionStats;
use crate::events::{FleetEvent, FleetEventKind};
use mimose_chaos::{FleetFaultPlan, TimedDeviceFault};
use mimose_data::ArrivalProcess;
use mimose_planner::PlanTierStats;
use mimose_runtime::json::{self, Json};

/// How a job's cluster run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// Ran every requested iteration on one device.
    Completed,
    /// Ran every requested iteration, surviving at least one device loss
    /// via checkpointed migration.
    Migrated,
    /// No device in the pool could ever admit it.
    Rejected,
    /// Explicitly dropped by fleet load shedding: after device loss, no
    /// surviving device could ever hold it, the whole pool died, or (in
    /// event-driven mode) the bounded queue was full on arrival.
    Shed(String),
    /// Aborted mid-run on a typed executor error, or displaced past the
    /// retry budget.
    Failed(String),
}

impl JobOutcome {
    /// Stable lowercase tag for serialization.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            JobOutcome::Completed => "completed",
            JobOutcome::Migrated => "migrated",
            JobOutcome::Rejected => "rejected",
            JobOutcome::Shed(_) => "shed",
            JobOutcome::Failed(_) => "failed",
        }
    }

    /// True when the job executed every requested iteration (with or
    /// without migrating).
    #[must_use]
    pub fn finished(&self) -> bool {
        matches!(self, JobOutcome::Completed | JobOutcome::Migrated)
    }
}

/// One contiguous span of a job's execution on one device. A job that
/// never migrates has exactly one placement; each migration opens a new
/// one. Placements let the audit layer re-derive per-device busy time and
/// iteration counts even when jobs move.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPlacement {
    /// Device the span ran on.
    pub device: usize,
    /// Virtual nanoseconds of iteration time executed in the span.
    pub busy_ns: u64,
    /// Iterations executed in the span.
    pub iters: usize,
}

/// Fleet-level fault-tolerance rollup: what the failure protocol did,
/// re-derivable from the [`FleetEvent`] chain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Devices that were permanently lost during the run.
    pub devices_lost: usize,
    /// Jobs checkpointed off a dying device.
    pub checkpoints: usize,
    /// Checkpointed jobs successfully resumed on a surviving device.
    pub migrations: usize,
    /// Jobs explicitly shed because the degraded pool could never place
    /// them (or their arrival overflowed the bounded queue).
    pub shed_jobs: usize,
    /// Jobs that ended in failure (executor errors or retry exhaustion).
    pub failed_jobs: usize,
    /// The retry budget displaced jobs were bounded by.
    pub max_retries: usize,
    /// Total modeled checkpoint/restore overhead, virtual nanoseconds
    /// (accounted per job, separate from device busy time).
    pub overhead_ns: u64,
}

/// Nearest-rank percentile over an unsorted sample: the smallest element
/// such that at least `p`% of the sample is ≤ it. Returns 0 for an empty
/// sample. `p` is in (0, 100].
fn percentile(xs: &[u64], p: f64) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.max(1) - 1]
}

/// Service-level rollup: queue-wait and iteration-latency tail
/// percentiles, goodput, and rejection/shed rates. Folded from the per-job
/// rows, and re-derived independently by the
/// audit layer from the same rows — a quoted tail can never drift from
/// the evidence behind it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SloRollup {
    /// Median queue wait over dispatched jobs, virtual nanoseconds.
    pub queue_wait_p50_ns: u64,
    /// 95th-percentile queue wait (nearest rank).
    pub queue_wait_p95_ns: u64,
    /// 99th-percentile queue wait (nearest rank).
    pub queue_wait_p99_ns: u64,
    /// Median per-iteration latency over every executed iteration.
    pub iter_latency_p50_ns: u64,
    /// 95th-percentile iteration latency (nearest rank).
    pub iter_latency_p95_ns: u64,
    /// 99th-percentile iteration latency (nearest rank).
    pub iter_latency_p99_ns: u64,
    /// Iterations executed by jobs that finished (completed or migrated):
    /// work the fleet delivered, not just attempted.
    pub goodput_iters: usize,
    /// `goodput_iters` per virtual second of makespan.
    pub goodput_iters_per_s: f64,
    /// Jobs admission rejected outright.
    pub rejected_jobs: usize,
    /// Jobs the fleet shed (degraded pool or full queue).
    pub shed_jobs: usize,
    /// Jobs that failed mid-run.
    pub failed_jobs: usize,
    /// `rejected_jobs` as a percentage of submissions.
    pub rejection_rate_pct: f64,
    /// `shed_jobs` as a percentage of submissions.
    pub shed_rate_pct: f64,
}

impl SloRollup {
    /// Fold the rollup from per-job rows plus the flat list of every
    /// executed iteration's latency. Queue waits count only jobs that
    /// actually dispatched (`device` set); goodput counts only iterations
    /// of jobs that finished.
    #[must_use]
    pub fn fold(jobs: &[JobReport], iter_latencies: &[u64], makespan_ns: u64) -> SloRollup {
        let waits: Vec<u64> = jobs
            .iter()
            .filter(|j| j.device.is_some())
            .map(|j| j.queue_wait_ns)
            .collect();
        let goodput_iters: usize = jobs
            .iter()
            .filter(|j| j.outcome.finished())
            .map(|j| j.iters)
            .sum();
        let goodput_iters_per_s = if makespan_ns > 0 {
            goodput_iters as f64 / (makespan_ns as f64 / 1e9)
        } else {
            0.0
        };
        let rejected_jobs = jobs
            .iter()
            .filter(|j| j.outcome == JobOutcome::Rejected)
            .count();
        let shed_jobs = jobs
            .iter()
            .filter(|j| matches!(j.outcome, JobOutcome::Shed(_)))
            .count();
        let failed_jobs = jobs
            .iter()
            .filter(|j| matches!(j.outcome, JobOutcome::Failed(_)))
            .count();
        let rate = |n: usize| {
            if jobs.is_empty() {
                0.0
            } else {
                n as f64 / jobs.len() as f64 * 100.0
            }
        };
        SloRollup {
            queue_wait_p50_ns: percentile(&waits, 50.0),
            queue_wait_p95_ns: percentile(&waits, 95.0),
            queue_wait_p99_ns: percentile(&waits, 99.0),
            iter_latency_p50_ns: percentile(iter_latencies, 50.0),
            iter_latency_p95_ns: percentile(iter_latencies, 95.0),
            iter_latency_p99_ns: percentile(iter_latencies, 99.0),
            goodput_iters,
            goodput_iters_per_s,
            rejected_jobs,
            shed_jobs,
            failed_jobs,
            rejection_rate_pct: rate(rejected_jobs),
            shed_rate_pct: rate(shed_jobs),
        }
    }
}

/// One job's rollup.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Job name.
    pub name: String,
    /// Policy display name.
    pub policy: String,
    /// The policy's memory budget in bytes (`None` for the unconstrained
    /// baseline) — the knob behind the policy name, echoed so report rows
    /// are self-describing.
    pub budget_bytes: Option<usize>,
    /// Device index the job ran on (`None` when rejected).
    pub device: Option<usize>,
    /// How the run ended.
    pub outcome: JobOutcome,
    /// Whether admission dispatched it with demotion armed.
    pub demoted: bool,
    /// Iterations executed.
    pub iters: usize,
    /// Virtual instant the job entered the fleet.
    pub arrival_ns: u64,
    /// Time spent queued: dispatch instant minus arrival instant.
    pub queue_wait_ns: u64,
    /// Virtual instant the job's last iteration completed (`None` for
    /// jobs that never finished).
    pub finish_ns: Option<u64>,
    /// Summed iteration time.
    pub total_ns: u64,
    /// Highest peak residency over the run.
    pub max_peak_bytes: usize,
    /// Iterations ending in unrecovered OOM.
    pub oom_iters: usize,
    /// Iterations rescued by the recovery ladder.
    pub recovered_iters: usize,
    /// Recovery-ladder rungs taken.
    pub recovery_events: usize,
    /// Mimose shuttle (collection) iterations.
    pub shuttle_iters: usize,
    /// Planning-tier ladder counters (certified hit → cached hit → repair
    /// → cold solve) for runtime planners; `None` for static policies.
    pub plan_tiers: Option<PlanTierStats>,
    /// Successful checkpoint-and-resume moves between devices.
    pub migrations: usize,
    /// Times the job was displaced off a dying device (bounded by the
    /// spec's retry budget).
    pub retries: usize,
    /// Modeled checkpoint/restore overhead attributed to this job,
    /// virtual nanoseconds (separate from device busy time).
    pub fleet_overhead_ns: u64,
    /// The policy's predicted first-iteration peak over the raw
    /// (pre-pass) graph — what admission would have gated on without
    /// the optimization pipeline (`None` when the job never profiled).
    pub graph_raw_peak_bytes: Option<usize>,
    /// The same prediction over the optimized graph, the number
    /// admission actually gated on; the gap to `graph_raw_peak_bytes`
    /// is the pass pipeline's credit.
    pub graph_opt_peak_bytes: Option<usize>,
    /// Why admission demoted or rejected the job (`None` for a plain
    /// admit); the first non-trivial decision the job received.
    pub admission_reason: Option<String>,
    /// Per-device execution spans, in execution order (empty when the
    /// job never dispatched).
    pub placements: Vec<JobPlacement>,
}

/// One device's rollup.
#[derive(Debug, Clone)]
pub struct DeviceReport {
    /// Device index in the pool.
    pub index: usize,
    /// Arena capacity in bytes.
    pub capacity_bytes: usize,
    /// Virtual nanoseconds the device spent executing iterations.
    pub busy_ns: u64,
    /// Jobs that ran to their end (completion or failure) here.
    pub jobs_run: usize,
    /// Iterations executed here.
    pub iters: usize,
    /// True when the fault plan permanently removed this device during
    /// the run.
    pub lost: bool,
}

/// The whole fleet's rollup.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Dispatch policy name.
    pub schedule: String,
    /// Execution mode name (always "event-driven": the fleet has one
    /// driver; the field keeps the JSON self-describing).
    pub mode: String,
    /// The arrival process the run executed under, embedded so the
    /// report is self-describing.
    pub arrivals: ArrivalProcess,
    /// Event-loop epochs executed (same-instant event batches; named
    /// `rounds` for JSON-key stability).
    pub rounds: usize,
    /// Virtual time of the last fleet event — when the fleet last did
    /// anything.
    pub makespan_ns: u64,
    /// Summed busy time across devices.
    pub busy_ns: u64,
    /// `busy / (makespan × devices)`, percent.
    pub utilization_pct: f64,
    /// Mean queue wait over dispatched jobs.
    pub mean_queue_wait_ns: u64,
    /// Worst queue wait over dispatched jobs.
    pub max_queue_wait_ns: u64,
    /// Fleet totals of the per-job OOM/recovery counters.
    pub oom_iters: usize,
    /// Iterations rescued by the ladder, fleet-wide.
    pub recovered_iters: usize,
    /// Recovery rungs taken, fleet-wide.
    pub recovery_events: usize,
    /// Admission outcomes and prediction quality.
    pub admission: AdmissionStats,
    /// SLO tails: queue-wait/iteration-latency percentiles, goodput, and
    /// rejection/shed rates.
    pub slo: SloRollup,
    /// Fault-tolerance rollup (all zeros on a clean run).
    pub fleet: FleetStats,
    /// The fault plan the run executed under, embedded so a gated chaos
    /// run's evidence is self-describing.
    pub fault_plan: FleetFaultPlan,
    /// The typed fleet-event chain, in observation order (never empty:
    /// every job at least arrives).
    pub events: Vec<FleetEvent>,
    /// Per-device rollups, in index order.
    pub devices: Vec<DeviceReport>,
    /// Per-job rollups, in submission order.
    pub jobs: Vec<JobReport>,
}

fn event_fields(w: &mut Json, e: &FleetEvent) {
    w.field("round", e.round)
        .field("at_ns", e.at_ns)
        .field("kind", e.kind.tag());
    match &e.kind {
        FleetEventKind::Arrive { job } => {
            w.field("job", job);
        }
        FleetEventKind::Dispatch { job, device, seq } => {
            w.field("job", job)
                .field("device", device)
                .field("seq", seq);
        }
        FleetEventKind::Complete { job, device } => {
            w.field("job", job).field("device", device);
        }
        FleetEventKind::DeviceDown {
            device,
            until_round,
        } => {
            w.field("device", device).field("until_round", until_round);
        }
        FleetEventKind::DeviceUp { device } => {
            w.field("device", device);
        }
        FleetEventKind::Checkpoint {
            job,
            device,
            cursor,
        } => {
            w.field("job", job)
                .field("device", device)
                .field("cursor", cursor);
        }
        FleetEventKind::Requeue { job, retries } => {
            w.field("job", job).field("retries", retries);
        }
        FleetEventKind::Backoff { job, until_round } => {
            w.field("job", job).field("until_round", until_round);
        }
        FleetEventKind::Migrate {
            job,
            from,
            to,
            cursor,
            seq,
        } => {
            w.field("job", job)
                .field("from", from)
                .field("to", to)
                .field("cursor", cursor)
                .field("seq", seq);
        }
        FleetEventKind::Reject { job, reason }
        | FleetEventKind::Shed { job, reason }
        | FleetEventKind::Fail { job, reason } => {
            w.field("job", job).field("reason", reason);
        }
    }
    w.field("cost_ns", e.cost_ns);
}

/// The arrival-process descriptor embedded in the report: kind plus the
/// parameters that regenerate the offsets (a trace reports its length).
fn arrival_fields(w: &mut Json, a: &ArrivalProcess) {
    match a {
        ArrivalProcess::Immediate => {
            w.field("kind", "immediate");
        }
        ArrivalProcess::Poisson { mean_gap_ns, seed } => {
            w.field("kind", "poisson")
                .field("mean_gap_ns", mean_gap_ns)
                .field("seed", seed);
        }
        ArrivalProcess::Bursty {
            calm_gap_ns,
            burst_gap_ns,
            mean_phase_len,
            seed,
        } => {
            w.field("kind", "bursty")
                .field("calm_gap_ns", calm_gap_ns)
                .field("burst_gap_ns", burst_gap_ns)
                .field("mean_phase_len", mean_phase_len)
                .field("seed", seed);
        }
        ArrivalProcess::Sampled { unit_ns, seed, .. } => {
            w.field("kind", "sampled")
                .field("unit_ns", unit_ns)
                .field("seed", seed);
        }
        ArrivalProcess::Trace { offsets_ns } => {
            w.field("kind", "trace").field("len", offsets_ns.len());
        }
    }
}

/// The fault plan embedded in the report: the base per-iteration spec
/// plus every device-lifecycle fault, so a chaos run's evidence is
/// self-describing.
fn fault_plan_fields(w: &mut Json, plan: &FleetFaultPlan) {
    let b = plan.base();
    w.key("base").object(|w| {
        w.field("seed", b.seed)
            .field("estimator_bias", b.estimator_bias)
            .field("estimator_noise", b.estimator_noise)
            .key("capacity_shrink");
        match b.capacity_shrink {
            Some((at_iter, factor)) => w.object(|w| {
                w.field("at_iter", at_iter).field("factor", factor);
            }),
            None => w.null(),
        };
        w.field("alloc_failure_rate", b.alloc_failure_rate)
            .field("alloc_failures_per_iter", b.alloc_failures_per_iter)
            .field("alloc_failure_span", b.alloc_failure_span)
            .field("recompute_spike_rate", b.recompute_spike_rate)
            .field("recompute_spike_factor", b.recompute_spike_factor);
    });
    w.key("timed_faults").array(|w| {
        for (device, fault) in plan.timed_faults() {
            w.object(|w| {
                w.field("device", device);
                match *fault {
                    TimedDeviceFault::Down { at_ns, duration_ns } => {
                        w.field("kind", "down")
                            .field("at_ns", at_ns)
                            .field("duration_ns", duration_ns);
                    }
                    TimedDeviceFault::Lost { at_ns } => {
                        w.field("kind", "lost").field("at_ns", at_ns);
                    }
                    TimedDeviceFault::CapacityCollapse {
                        at_ns,
                        duration_ns,
                        factor,
                    } => {
                        w.field("kind", "capacity-collapse")
                            .field("at_ns", at_ns)
                            .field("duration_ns", duration_ns)
                            .field("factor", factor);
                    }
                }
            });
        }
    });
}

fn job_fields(w: &mut Json, j: &JobReport) {
    w.field("name", &j.name)
        .field("policy", &j.policy)
        .field("budget_bytes", j.budget_bytes)
        .field("device", j.device)
        .field("outcome", j.outcome.tag())
        .field("demoted", j.demoted)
        .field("iters", j.iters)
        .field("arrival_ns", j.arrival_ns)
        .field("queue_wait_ns", j.queue_wait_ns)
        .field("finish_ns", j.finish_ns)
        .field("total_ns", j.total_ns)
        .field("max_peak_bytes", j.max_peak_bytes)
        .field("oom_iters", j.oom_iters)
        .field("recovered_iters", j.recovered_iters)
        .field("recovery_events", j.recovery_events)
        .field("shuttle_iters", j.shuttle_iters)
        .field("migrations", j.migrations)
        .field("retries", j.retries)
        .field("fleet_overhead_ns", j.fleet_overhead_ns)
        .field("graph_raw_peak_bytes", j.graph_raw_peak_bytes)
        .field("graph_opt_peak_bytes", j.graph_opt_peak_bytes)
        .field("admission_reason", j.admission_reason.as_deref())
        .key("placements")
        .array(|w| {
            for p in &j.placements {
                w.object(|w| {
                    w.field("device", p.device)
                        .field("busy_ns", p.busy_ns)
                        .field("iters", p.iters);
                });
            }
        })
        .key("plan_tiers");
    match &j.plan_tiers {
        Some(t) => w.object(|w| {
            w.field("certified_hits", t.certified_hits)
                .field("cache_hits", t.cache_hits)
                .field("repaired_plans", t.repaired_plans)
                .field("cold_solves", t.cold_solves);
        }),
        None => w.null(),
    };
}

impl ClusterReport {
    /// Deterministic JSON encoding (see module docs).
    #[must_use]
    pub fn to_json(&self) -> String {
        let bytes = 1024 + 96 * self.events.len() + 768 * self.jobs.len();
        json::object(bytes, |w| {
            w.field("schedule", &self.schedule)
                .field("mode", &self.mode)
                .field("rounds", self.rounds)
                .field("makespan_ns", self.makespan_ns)
                .field("busy_ns", self.busy_ns)
                .field("utilization_pct", self.utilization_pct)
                .field("mean_queue_wait_ns", self.mean_queue_wait_ns)
                .field("max_queue_wait_ns", self.max_queue_wait_ns)
                .field("oom_iters", self.oom_iters)
                .field("recovered_iters", self.recovered_iters)
                .field("recovery_events", self.recovery_events);
            let a = &self.admission;
            w.key("admission").object(|w| {
                w.field("admitted", a.admitted)
                    .field("verified_admits", a.verified_admits)
                    .field("demoted", a.demoted)
                    .field("rejected", a.rejected)
                    .field("deferred_rounds", a.deferred_rounds)
                    .field("predictions", a.predictions)
                    .field("within_10pct", a.within_10pct)
                    .field("mean_abs_rel_err_pct", a.mean_abs_rel_err_pct());
            });
            let s = &self.slo;
            w.key("slo").object(|w| {
                w.field("queue_wait_p50_ns", s.queue_wait_p50_ns)
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
            });
            let f = &self.fleet;
            w.key("fleet").object(|w| {
                w.field("devices_lost", f.devices_lost)
                    .field("checkpoints", f.checkpoints)
                    .field("migrations", f.migrations)
                    .field("shed_jobs", f.shed_jobs)
                    .field("failed_jobs", f.failed_jobs)
                    .field("max_retries", f.max_retries)
                    .field("overhead_ns", f.overhead_ns);
            });
            w.key("arrivals")
                .object(|w| arrival_fields(w, &self.arrivals));
            w.key("fault_plan")
                .object(|w| fault_plan_fields(w, &self.fault_plan));
            w.key("events").array(|w| {
                for e in &self.events {
                    w.object(|w| event_fields(w, e));
                }
            });
            w.key("devices").array(|w| {
                for d in &self.devices {
                    w.object(|w| {
                        w.field("index", d.index)
                            .field("capacity_bytes", d.capacity_bytes)
                            .field("busy_ns", d.busy_ns)
                            .field("jobs_run", d.jobs_run)
                            .field("iters", d.iters)
                            .field("lost", d.lost);
                    });
                }
            });
            w.key("jobs").array(|w| {
                for j in &self.jobs {
                    w.object(|w| job_fields(w, j));
                }
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimose_chaos::FaultSpec;

    #[test]
    fn percentiles_use_nearest_rank() {
        assert_eq!(percentile(&[], 99.0), 0);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[7], 99.0), 7);
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&xs, 50.0), 50);
        assert_eq!(percentile(&xs, 95.0), 95);
        assert_eq!(percentile(&xs, 99.0), 99);
        // Unsorted input sorts internally.
        assert_eq!(percentile(&[30, 10, 20], 50.0), 20);
        assert_eq!(percentile(&[30, 10, 20], 99.0), 30);
    }

    fn row(name: &str, outcome: JobOutcome, device: Option<usize>, wait: u64) -> JobReport {
        JobReport {
            name: name.into(),
            policy: "Baseline".into(),
            budget_bytes: None,
            device,
            outcome,
            demoted: false,
            iters: 2,
            arrival_ns: 0,
            queue_wait_ns: wait,
            finish_ns: None,
            total_ns: 90,
            max_peak_bytes: 8,
            oom_iters: 0,
            recovered_iters: 0,
            recovery_events: 0,
            shuttle_iters: 0,
            plan_tiers: None,
            migrations: 0,
            retries: 0,
            fleet_overhead_ns: 0,
            graph_raw_peak_bytes: None,
            graph_opt_peak_bytes: None,
            admission_reason: None,
            placements: vec![],
        }
    }

    #[test]
    fn slo_fold_counts_only_what_it_should() {
        let jobs = vec![
            row("a", JobOutcome::Completed, Some(0), 10),
            row("b", JobOutcome::Migrated, Some(1), 30),
            row("c", JobOutcome::Rejected, None, 0),
            row("d", JobOutcome::Shed("full".into()), None, 0),
        ];
        let slo = SloRollup::fold(&jobs, &[5, 15, 25], 2_000_000_000);
        // Waits: only the two dispatched jobs.
        assert_eq!(slo.queue_wait_p50_ns, 10);
        assert_eq!(slo.queue_wait_p99_ns, 30);
        assert_eq!(slo.iter_latency_p50_ns, 15);
        // Goodput: the two finished jobs × 2 iters over 2 virtual seconds.
        assert_eq!(slo.goodput_iters, 4);
        assert!((slo.goodput_iters_per_s - 2.0).abs() < 1e-9);
        assert_eq!(slo.rejected_jobs, 1);
        assert_eq!(slo.shed_jobs, 1);
        assert_eq!(slo.failed_jobs, 0);
        assert!((slo.rejection_rate_pct - 25.0).abs() < 1e-9);
        assert!((slo.shed_rate_pct - 25.0).abs() < 1e-9);
    }

    #[test]
    fn json_is_stable_and_escapes_names() {
        let mut jobs = vec![JobReport {
            name: "job \"a\"".into(),
            policy: "Baseline".into(),
            budget_bytes: Some(1 << 30),
            device: Some(0),
            outcome: JobOutcome::Migrated,
            demoted: false,
            iters: 2,
            arrival_ns: 7,
            queue_wait_ns: 0,
            finish_ns: Some(97),
            total_ns: 90,
            max_peak_bytes: 8,
            oom_iters: 0,
            recovered_iters: 0,
            recovery_events: 0,
            shuttle_iters: 0,
            plan_tiers: Some(PlanTierStats {
                certified_hits: 3,
                cache_hits: 1,
                repaired_plans: 2,
                cold_solves: 1,
            }),
            migrations: 1,
            retries: 1,
            fleet_overhead_ns: 65_000,
            graph_raw_peak_bytes: Some(12),
            graph_opt_peak_bytes: Some(8),
            admission_reason: Some("fits under \"usable\"".into()),
            placements: vec![
                JobPlacement {
                    device: 1,
                    busy_ns: 40,
                    iters: 1,
                },
                JobPlacement {
                    device: 0,
                    busy_ns: 50,
                    iters: 1,
                },
            ],
        }];
        let slo = SloRollup::fold(&jobs, &[40, 50], 100);
        jobs.push(JobReport {
            name: "line\nbreak\u{1}".into(),
            admission_reason: Some("demoted:\n\u{1}over".into()),
            ..jobs[0].clone()
        });
        let report = ClusterReport {
            schedule: "fifo".into(),
            mode: "event-driven".into(),
            arrivals: ArrivalProcess::poisson(1_000, 7),
            rounds: 2,
            makespan_ns: 100,
            busy_ns: 90,
            utilization_pct: 45.0,
            mean_queue_wait_ns: 5,
            max_queue_wait_ns: 10,
            oom_iters: 0,
            recovered_iters: 0,
            recovery_events: 0,
            admission: AdmissionStats::default(),
            slo,
            fleet: FleetStats {
                devices_lost: 1,
                checkpoints: 1,
                migrations: 1,
                shed_jobs: 0,
                failed_jobs: 0,
                max_retries: 3,
                overhead_ns: 65_000,
            },
            fault_plan: FleetFaultPlan::none(0),
            events: vec![
                FleetEvent {
                    round: 0,
                    at_ns: 7,
                    kind: FleetEventKind::Arrive { job: 0 },
                    cost_ns: 0,
                },
                FleetEvent {
                    round: 0,
                    at_ns: 7,
                    kind: FleetEventKind::Dispatch {
                        job: 0,
                        device: 1,
                        seq: 0,
                    },
                    cost_ns: 0,
                },
                FleetEvent {
                    round: 1,
                    at_ns: 47,
                    kind: FleetEventKind::DeviceDown {
                        device: 1,
                        until_round: None,
                    },
                    cost_ns: 0,
                },
                FleetEvent {
                    round: 1,
                    at_ns: 47,
                    kind: FleetEventKind::Checkpoint {
                        job: 0,
                        device: 1,
                        cursor: 1,
                    },
                    cost_ns: 25_000,
                },
                FleetEvent {
                    round: 2,
                    at_ns: 47,
                    kind: FleetEventKind::Migrate {
                        job: 0,
                        from: 1,
                        to: 0,
                        cursor: 1,
                        seq: 2,
                    },
                    cost_ns: 40_000,
                },
                FleetEvent {
                    round: 3,
                    at_ns: 97,
                    kind: FleetEventKind::Complete { job: 0, device: 0 },
                    cost_ns: 0,
                },
            ],
            devices: vec![DeviceReport {
                index: 0,
                capacity_bytes: 16,
                busy_ns: 90,
                jobs_run: 1,
                iters: 2,
                lost: false,
            }],
            jobs,
        };
        let a = report.to_json();
        let b = report.to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"schedule\":\"fifo\",\"mode\":\"event-driven\""));
        assert!(a.contains("job \\\"a\\\""));
        assert!(a.contains("\"utilization_pct\":45.0000"));
        assert!(a.contains(
            "\"plan_tiers\":{\"certified_hits\":3,\"cache_hits\":1,\
             \"repaired_plans\":2,\"cold_solves\":1}"
        ));
        assert!(a.contains("\"fleet\":{\"devices_lost\":1,"));
        assert!(a.contains("\"arrivals\":{\"kind\":\"poisson\""));
        assert!(a.contains("\"fault_plan\":{\"base\":{"));
        assert!(a.contains("\"slo\":{\"queue_wait_p50_ns\":0,"));
        assert!(a.contains("\"iter_latency_p50_ns\":40,"));
        assert!(a.contains("\"goodput_iters\":2,"));
        assert!(a.contains("\"kind\":\"arrive\",\"job\":0,\"cost_ns\":0"));
        assert!(a.contains("\"kind\":\"dispatch\",\"job\":0,\"device\":1,\"seq\":0"));
        assert!(a.contains("\"kind\":\"complete\",\"job\":0,\"device\":0"));
        assert!(
            a.contains("\"at_ns\":47,\"kind\":\"device-down\",\"device\":1,\"until_round\":null")
        );
        assert!(a.contains(
            "\"kind\":\"migrate\",\"job\":0,\"from\":1,\"to\":0,\
             \"cursor\":1,\"seq\":2,\"cost_ns\":40000"
        ));
        assert!(a.contains("\"outcome\":\"migrated\""));
        assert!(a.contains("\"budget_bytes\":1073741824,"));
        assert!(a.contains("\"arrival_ns\":7,"));
        assert!(a.contains("\"finish_ns\":97,"));
        assert!(a.contains("\"admission_reason\":\"fits under \\\"usable\\\"\""));
        assert!(a.contains("\"graph_raw_peak_bytes\":12,\"graph_opt_peak_bytes\":8,"));
        assert!(a.contains(
            "\"placements\":[{\"device\":1,\"busy_ns\":40,\"iters\":1},\
             {\"device\":0,\"busy_ns\":50,\"iters\":1}]"
        ));
        assert!(a.contains("\"lost\":false"));
        assert!(a.contains("\"name\":\"line\\nbreak\\u0001\""));
        assert!(a.contains("\"admission_reason\":\"demoted:\\n\\u0001over\""));
        assert!(a.starts_with('{') && a.ends_with('}'));
    }

    #[test]
    fn arrival_descriptors_are_stable() {
        let arrivals = |a: ArrivalProcess| json::object(0, |w| arrival_fields(w, &a));
        assert_eq!(
            arrivals(ArrivalProcess::immediate()),
            "{\"kind\":\"immediate\"}"
        );
        assert_eq!(
            arrivals(ArrivalProcess::poisson(5, 1)),
            "{\"kind\":\"poisson\",\"mean_gap_ns\":5,\"seed\":1}"
        );
        assert!(arrivals(ArrivalProcess::bursty(10, 1, 4, 0)).contains("\"mean_phase_len\":4"));
    }

    #[test]
    fn fault_plan_json_is_stable_and_self_describing() {
        let plan = FleetFaultPlan::new(FaultSpec {
            capacity_shrink: Some((4, 0.75)),
            ..FaultSpec::none(7)
        })
        .with_timed_fault(1, TimedDeviceFault::Lost { at_ns: 2 })
        .with_timed_fault(
            0,
            TimedDeviceFault::Down {
                at_ns: 1_000,
                duration_ns: 500,
            },
        )
        .with_timed_fault(
            2,
            TimedDeviceFault::CapacityCollapse {
                at_ns: 100,
                duration_ns: 300,
                factor: 0.25,
            },
        );
        let a = json::object(0, |w| fault_plan_fields(w, &plan));
        assert_eq!(a, json::object(0, |w| fault_plan_fields(w, &plan)));
        assert!(a.contains("\"seed\":7"));
        assert!(a.contains("\"capacity_shrink\":{\"at_iter\":4,\"factor\":0.7500}"));
        assert!(a.contains("\"kind\":\"lost\",\"at_ns\":2"));
        assert!(a.contains("\"kind\":\"down\",\"at_ns\":1000,\"duration_ns\":500"));
        assert!(a.contains("\"factor\":0.2500"));
        assert!(a.starts_with('{') && a.ends_with('}'));
        // The no-op plan serializes too (evidence of "no faults" is still
        // evidence).
        let none = json::object(0, |w| fault_plan_fields(w, &FleetFaultPlan::none(0)));
        assert!(none.contains("\"timed_faults\":[]"));
    }

    #[test]
    fn outcome_finished_covers_both_success_paths() {
        assert!(JobOutcome::Completed.finished());
        assert!(JobOutcome::Migrated.finished());
        assert!(!JobOutcome::Rejected.finished());
        assert!(!JobOutcome::Shed("x".into()).finished());
        assert!(!JobOutcome::Failed("x".into()).finished());
    }
}
