//! Scheduling protocol: the parts of fleet scheduling that do not depend
//! on how virtual time advances — the submission-time
//! profiling/certification pass, the [`SchedulePolicy`] comparators that
//! pick pending work, and the report rollup — kept apart from the event
//! loop in [`crate::des`] so the driver reads as *when* decisions happen
//! and this module as *how*.

use crate::admission::AdmissionController;
use crate::events::FleetEvent;
use crate::job::JobSpec;
use crate::report::{
    ClusterReport, DeviceReport, FleetStats, JobOutcome, JobPlacement, JobReport, SloRollup,
};
use crate::spec::{ClusterOutcome, ClusterSpec, JobDetail, SchedulePolicy};
use mimose_exec::SessionCheckpoint;
use mimose_models::{ModelInput, ModelProfile, OptimizedGraph, PassReport};
use mimose_planner::memory_model::min_feasible_budget;
use mimose_planner::{CheckpointPlan, MemoryPolicy};
use mimose_simgpu::DeviceProfile;
use mimose_verify::{certify, SafetyCertificate, SizeBucket};
use std::collections::HashMap;
use std::sync::Arc;

/// What the scheduler precomputes about a job at submission: the facts
/// every dispatch decision gates on.
pub(crate) struct Submitted {
    /// Worst-case profile the static planners solved against, shared by
    /// every job over the same graph and worst-case input.
    pub worst: Arc<ModelProfile>,
    /// All-checkpoint floor over the worst case: submission rejects a job
    /// whose floor no device holds, dispatch offers only devices that hold
    /// it, and demotion aims for it.
    pub floor: usize,
    /// The policy's predicted peak for the job's first iteration.
    pub predicted_peak: usize,
    /// Static safety certificate over the job's worst case (sound no-plan
    /// peak bound), when it fits at least one device in the pool. Admits
    /// backed by it are scored as `verified_admits`.
    pub certificate: Option<SafetyCertificate>,
    /// One-line summary of the graph passes that shrank the job's
    /// predicted peak, appended to demotion reasons so the report names
    /// the evidence behind the number it gated on.
    pub graph_evidence: Option<String>,
}

/// How a waiting job enters its next session.
pub(crate) enum Start<'a> {
    /// First dispatch, under the policy built at submission.
    Fresh(Box<dyn MemoryPolicy>),
    /// Migration off device `from`, resuming the checkpoint parked there.
    Resume {
        checkpoint: SessionCheckpoint<'a>,
        from: usize,
    },
}

/// A job waiting for a device: queued since its arrival, or displaced and
/// backing off.
pub(crate) struct Waiting<'a> {
    pub job: usize,
    pub sub: Submitted,
    /// Iterations left to run.
    pub remaining: usize,
    /// First virtual instant the job may dispatch: its arrival, or the end
    /// of its backoff.
    pub ready_ns: u64,
    pub start: Start<'a>,
}

/// Everything the driver keeps about one job: its public evidence and the
/// counters its report row folds.
#[derive(Default)]
pub(crate) struct JobState {
    pub detail: JobDetail,
    /// Submission's facts and the policy built for the job, taken when the
    /// job arrives. `None` for a job submission settled.
    pub submission: Option<(Submitted, Box<dyn MemoryPolicy>)>,
    /// Virtual arrival instant.
    pub arrival_ns: u64,
    pub outcome: Option<JobOutcome>,
    /// Arrival to first dispatch (`None` if never dispatched).
    pub queue_wait_ns: Option<u64>,
    pub demoted: bool,
    pub placements: Vec<JobPlacement>,
    pub migrations: usize,
    pub retries: usize,
    /// Checkpoint and restore cost charged to the job.
    pub overhead_ns: u64,
    /// Virtual completion instant (`None` for jobs that never finished).
    pub finish_ns: Option<u64>,
}

impl JobState {
    /// Keep a session's evidence — folded summary, recorded streams and
    /// plan-tier counters — once the job will not run again.
    pub fn harvest(&mut self, parked: SessionCheckpoint) {
        let (summary, records, policy) = parked.into_evidence();
        self.detail.summary = summary;
        self.detail.records.extend(records);
        self.detail.plan_tiers = policy.plan_tier_stats();
    }
}

/// Headroom-discounted capacity admission gates against.
pub(crate) fn usable_bytes(dev: &DeviceProfile, headroom: f64) -> usize {
    (dev.total_mem_bytes as f64 * headroom) as usize
}

/// One line naming the optimization passes behind an admission number:
/// which passes touched the graph and how far they moved the predicted
/// peak. `None` when the raw graph could not be profiled, no pass did
/// anything, or the passes saved no bytes at this input size.
fn graph_evidence(
    reports: &[PassReport],
    raw_peak: Option<usize>,
    opt_peak: usize,
) -> Option<String> {
    let raw_peak = raw_peak?;
    let passes: Vec<String> = reports
        .iter()
        .filter(|r| !r.is_noop())
        .map(|r| {
            format!(
                "{} ({} nodes)",
                r.pass.name(),
                r.nodes_removed + r.nodes_rewired + r.nodes_annotated
            )
        })
        .collect();
    if passes.is_empty() || raw_peak <= opt_peak {
        return None;
    }
    Some(format!(
        "graph passes [{}] cut the predicted peak from {raw_peak} B (raw graph) to {opt_peak} B",
        passes.join(", ")
    ))
}

/// Submission facts that depend only on a job's graph and its dataset's
/// worst-case input, so every job sharing both shares them.
struct WorstCase {
    worst: Arc<ModelProfile>,
    floor: usize,
    certificate: Option<SafetyCertificate>,
}

/// The optimized and raw profiles of one graph at one first batch.
/// Reseeded jobs still repeat first batches often, since sequence lengths
/// and padded image sizes come from bounded ranges.
struct FirstBatch {
    opt: Result<ModelProfile, String>,
    raw: Option<ModelProfile>,
}

/// Submission memo key: the shared graph, by address, and an input.
type MemoKey = (*const OptimizedGraph, ModelInput);

/// Submission pass: profile each job,
/// build its policy (static planners solve once against the worst case,
/// costed on device 0), and settle jobs no device can ever hold. Jobs that
/// settle here get their outcome written directly; everyone else gets a
/// [`Submitted`] record and a policy, held until arrival.
///
/// Profiles depend only on the graph and the input, so they are memoised
/// per `(Arc::as_ptr(model), input)`: the worst case (with its floor and
/// certificate) per dataset worst case, the first-batch profiles per
/// first batch. The policy is built fresh per job, since it holds state.
pub(crate) fn submit_jobs(spec: &ClusterSpec, ctl: &mut AdmissionController) -> Vec<JobState> {
    let mut jobs: Vec<JobState> = spec
        .jobs
        .iter()
        .map(|job| JobState {
            detail: JobDetail {
                name: job.name.clone(),
                ..JobDetail::default()
            },
            ..JobState::default()
        })
        .collect();
    let max_usable = spec
        .devices
        .iter()
        .map(|d| usable_bytes(d, spec.headroom))
        .max()
        .unwrap_or(0);
    let mut worst_memo: HashMap<MemoKey, Result<WorstCase, String>> = HashMap::new();
    let mut first_memo: HashMap<MemoKey, FirstBatch> = HashMap::new();
    for (job, st) in spec.jobs.iter().zip(&mut jobs) {
        let model = Arc::as_ptr(&job.model);
        let worst_case = worst_memo
            .entry((model, job.dataset.worst_case()))
            .or_insert_with(|| {
                let worst = job.worst_profile().map_err(|e| e.to_string())?;
                // Statically verify the job where possible: the
                // no-checkpoint peak over the worst profile soundly bounds
                // every plan at every input size up to it, so a
                // certificate that fits a device makes the admit
                // unconditional for this job.
                let certificate = certify(
                    std::slice::from_ref(&worst),
                    &CheckpointPlan::none(worst.blocks.len()),
                    SizeBucket::new(1, worst.input_size),
                    max_usable,
                )
                .ok();
                Ok(WorstCase {
                    floor: min_feasible_budget(&worst),
                    worst: Arc::new(worst),
                    certificate,
                })
            });
        let WorstCase {
            worst,
            floor,
            certificate,
        } = match worst_case {
            Ok(w) => w,
            Err(e) => {
                st.outcome = Some(JobOutcome::Failed(e.clone()));
                continue;
            }
        };
        let floor = *floor;
        if floor > max_usable {
            ctl.stats.rejected += 1;
            st.outcome = Some(JobOutcome::Rejected);
            st.detail.admission_reason = Some(format!(
                "all-checkpoint floor {floor} B exceeds every device's usable \
                 capacity (max {max_usable} B)"
            ));
            continue;
        }
        let policy = job.policy.build(worst, &spec.devices[0]);
        let predict = |p: &ModelProfile| {
            policy
                .predicted_peak_bytes(p)
                .unwrap_or_else(|| p.peak_no_checkpoint())
        };
        // Predict the first iteration's peak: that is the iteration the
        // dispatch decision gates.
        let first = job.dataset.stream(job.seed).next_batch();
        let first_batch = first_memo
            .entry((model, first))
            .or_insert_with(|| FirstBatch {
                opt: job.model.profile(&first).map_err(|e| e.to_string()),
                raw: job.model.raw_profile(&first).ok(),
            });
        let predicted_peak = match &first_batch.opt {
            Ok(p) => predict(p),
            Err(e) => {
                st.outcome = Some(JobOutcome::Failed(e.clone()));
                continue;
            }
        };
        // Graph-pass evidence: run the same prediction over the raw
        // (pre-pass) graph. A strictly lower optimized prediction is the
        // byte credit the admission report attributes to the pipeline.
        let graph_raw_peak = first_batch.raw.as_ref().map(predict);
        st.detail.graph_raw_peak_bytes = graph_raw_peak;
        st.detail.graph_opt_peak_bytes = Some(predicted_peak);
        let graph_evidence = graph_evidence(job.model.reports(), graph_raw_peak, predicted_peak);
        let sub = Submitted {
            worst: Arc::clone(worst),
            floor,
            predicted_peak,
            certificate: *certificate,
            graph_evidence,
        };
        st.submission = Some((sub, policy));
    }
    jobs
}

/// The device a dispatch decision sees: the pool profile, shrunk by any
/// active capacity-collapse factor.
pub(crate) fn effective_device(spec: &ClusterSpec, d: usize, cap_factor: f64) -> DeviceProfile {
    if cap_factor < 1.0 {
        let mut dev = spec.devices[d].clone();
        dev.total_mem_bytes = (dev.total_mem_bytes as f64 * cap_factor) as usize;
        dev
    } else {
        spec.devices[d].clone()
    }
}

/// Pick a fresh pending job for an idle device under the dispatch policy.
/// Returns the *position* in `pending`. Admissibility is the all-
/// checkpoint floor against the device's usable capacity; comparator ties
/// resolve by queue position (first for FIFO/shortest, last for
/// best-fit).
pub(crate) fn pick_pending(
    schedule: SchedulePolicy,
    pending: &[Waiting],
    jobs: &[JobSpec],
    device: &DeviceProfile,
    usable: usize,
) -> Option<usize> {
    match schedule {
        SchedulePolicy::Fifo => pending.iter().position(|w| w.sub.floor <= usable),
        SchedulePolicy::ShortestPredicted => pending
            .iter()
            .enumerate()
            .filter_map(|(i, w)| {
                let s = &w.sub;
                (s.floor <= usable).then(|| (i, jobs[w.job].predicted_iter_ns(&s.worst, device)))
            })
            .min_by_key(|&(_, predicted)| predicted)
            .map(|(i, _)| i),
        SchedulePolicy::BestFitMemory => pending
            .iter()
            .enumerate()
            .filter_map(|(i, w)| {
                let s = &w.sub;
                // Jobs that only fit demoted fill the device to their
                // floor, not their prediction.
                let fill = if s.predicted_peak <= usable {
                    s.predicted_peak
                } else {
                    s.floor
                };
                (s.floor <= usable).then_some((i, fill))
            })
            .max_by_key(|&(_, fill)| fill)
            .map(|(i, _)| i),
    }
}

/// Per-device accumulator handed to the rollup.
#[derive(Default)]
pub(crate) struct DeviceAccum {
    /// Virtual nanoseconds spent executing iterations.
    pub busy_ns: u64,
    /// Jobs that ran to their end here.
    pub jobs_run: usize,
    /// Iterations executed here.
    pub iters: usize,
    /// Whether the device was permanently lost.
    pub lost: bool,
}

/// Fleet-wide state the driver accumulated, ready to fold into a
/// [`ClusterReport`].
pub(crate) struct RollupInputs {
    pub events: Vec<FleetEvent>,
    pub fleet: FleetStats,
    pub devices: Vec<DeviceAccum>,
    pub rounds: usize,
}

/// The shared rollup: fold driver state into the final [`ClusterReport`]
/// and hand back each job's [`JobDetail`]. Queue-wait means, utilization,
/// per-job rows, the SLO tail fold and the JSON-visible spec echoes (mode,
/// arrivals) all live here.
pub(crate) fn finish_report(
    spec: &ClusterSpec,
    ctl: AdmissionController,
    mut jobs: Vec<JobState>,
    inputs: RollupInputs,
) -> ClusterOutcome {
    let n_devs = spec.devices.len();
    let RollupInputs {
        events,
        mut fleet,
        devices,
        rounds,
    } = inputs;

    // Makespan is the last instant anything *happened* — the maximum event
    // timestamp — not the last instant the event queue held (stale backoff
    // wakeups past the end of useful work must not inflate it). Every job
    // end emits a terminal event, so coverage is guaranteed.
    let makespan_ns = events.iter().map(|e| e.at_ns).max().unwrap_or(0);
    let busy_ns: u64 = devices.iter().map(|s| s.busy_ns).sum();
    let utilization_pct = if makespan_ns > 0 {
        busy_ns as f64 / (makespan_ns as f64 * n_devs as f64) * 100.0
    } else {
        0.0
    };
    let waits: Vec<u64> = jobs.iter().filter_map(|j| j.queue_wait_ns).collect();
    let mean_queue_wait_ns = if waits.is_empty() {
        0
    } else {
        waits.iter().sum::<u64>() / waits.len() as u64
    };
    let max_queue_wait_ns = waits.iter().copied().max().unwrap_or(0);
    fleet.overhead_ns = jobs.iter().map(|j| j.overhead_ns).sum();

    let rows: Vec<JobReport> = spec
        .jobs
        .iter()
        .zip(&mut jobs)
        .map(|(job, st)| {
            let s = &st.detail.summary;
            JobReport {
                name: job.name.clone(),
                policy: job.policy.name().to_string(),
                budget_bytes: {
                    let b = job.policy.budget_bytes();
                    (b != usize::MAX).then_some(b)
                },
                device: st.detail.device,
                outcome: st.outcome.take().unwrap_or(JobOutcome::Rejected),
                demoted: st.demoted,
                iters: s.iters,
                arrival_ns: st.arrival_ns,
                queue_wait_ns: st.queue_wait_ns.unwrap_or(0),
                finish_ns: st.finish_ns,
                total_ns: s.total_ns,
                max_peak_bytes: s.max_peak_bytes,
                oom_iters: s.oom_iters,
                recovered_iters: s.recovered_iters,
                recovery_events: s.recovery_events,
                shuttle_iters: s.shuttle_iters,
                plan_tiers: st.detail.plan_tiers,
                migrations: st.migrations,
                retries: st.retries,
                fleet_overhead_ns: st.overhead_ns,
                graph_raw_peak_bytes: st.detail.graph_raw_peak_bytes,
                graph_opt_peak_bytes: st.detail.graph_opt_peak_bytes,
                admission_reason: st.detail.admission_reason.clone(),
                placements: std::mem::take(&mut st.placements),
            }
        })
        .collect();
    // Collected in place into the job states' buffer, so the fold never
    // holds two per-job buffers at once (peak RSS on large fleets).
    let details: Vec<JobDetail> = jobs.into_iter().map(|st| st.detail).collect();
    fleet.failed_jobs = rows
        .iter()
        .filter(|j| matches!(j.outcome, JobOutcome::Failed(_)))
        .count();
    let iter_latencies: Vec<u64> = details
        .iter()
        .flat_map(|d| d.reports.iter().map(|r| r.time.total_ns()))
        .collect();
    let slo = SloRollup::fold(&rows, &iter_latencies, makespan_ns);
    let report = ClusterReport {
        schedule: spec.schedule.name().to_string(),
        mode: "event-driven".to_string(),
        arrivals: spec.arrivals.clone(),
        rounds,
        makespan_ns,
        busy_ns,
        utilization_pct,
        mean_queue_wait_ns,
        max_queue_wait_ns,
        oom_iters: rows.iter().map(|j| j.oom_iters).sum(),
        recovered_iters: rows.iter().map(|j| j.recovered_iters).sum(),
        recovery_events: rows.iter().map(|j| j.recovery_events).sum(),
        admission: ctl.stats,
        slo,
        fleet,
        fault_plan: spec.faults.clone(),
        events,
        devices: devices
            .iter()
            .enumerate()
            .map(|(i, s)| DeviceReport {
                index: i,
                capacity_bytes: spec.devices[i].total_mem_bytes,
                busy_ns: s.busy_ns,
                jobs_run: s.jobs_run,
                iters: s.iters,
                lost: s.lost,
            })
            .collect(),
        jobs: rows,
    };
    ClusterOutcome { report, details }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, DevicePool, Workload};

    /// Run the submission pass alone over `jobs` on two V100s.
    fn submit(jobs: Vec<JobSpec>) -> Vec<JobState> {
        let spec = Cluster::builder()
            .devices(DevicePool::v100(2))
            .workload(Workload::custom(jobs))
            .build()
            .expect("well-formed spec");
        let mut ctl = AdmissionController::default();
        let jobs = submit_jobs(&spec, &mut ctl);
        for st in &jobs {
            assert!(st.outcome.is_none(), "{}: {:?}", st.detail.name, st.outcome);
        }
        jobs
    }

    fn submitted(st: &JobState) -> &Submitted {
        let (sub, _) = st.submission.as_ref().expect("job submits");
        sub
    }

    #[test]
    fn shared_graphs_submit_like_private_copies() {
        let shared = Workload::scaled(2, 24).into_jobs();
        let private: Vec<JobSpec> = shared
            .iter()
            .map(|job| JobSpec {
                model: Arc::new(OptimizedGraph::clone(&job.model)),
                ..job.clone()
            })
            .collect();
        let names: Vec<String> = shared.iter().map(|j| j.name.clone()).collect();
        let (a, b) = (submit(shared), submit(private));
        for (j, name) in names.iter().enumerate() {
            let (x, y) = (submitted(&a[j]), submitted(&b[j]));
            assert_eq!(x.floor, y.floor, "{name}");
            assert_eq!(x.predicted_peak, y.predicted_peak, "{name}");
            assert_eq!(x.certificate, y.certificate, "{name}");
            assert_eq!(x.graph_evidence, y.graph_evidence, "{name}");
            assert_eq!(format!("{:?}", x.worst), format!("{:?}", y.worst), "{name}");
            let (dx, dy) = (&a[j].detail, &b[j].detail);
            assert_eq!(dx.graph_raw_peak_bytes, dy.graph_raw_peak_bytes, "{name}");
            assert_eq!(dx.graph_opt_peak_bytes, dy.graph_opt_peak_bytes, "{name}");
        }
    }

    #[test]
    fn one_graph_under_two_datasets_keeps_two_worst_cases() {
        let jobs = Workload::mixed(2).into_jobs();
        let at = |name: &str| jobs.iter().position(|j| j.name == name).expect(name);
        let (dtr, mimose) = (at("resnet-coco-dtr"), at("resnet-coco-mimose"));
        assert!(Arc::ptr_eq(&jobs[dtr].model, &jobs[mimose].model));
        assert_ne!(
            jobs[dtr].dataset.worst_case(),
            jobs[mimose].dataset.worst_case()
        );
        let states = submit(jobs);
        let (x, y) = (submitted(&states[dtr]), submitted(&states[mimose]));
        assert!(!Arc::ptr_eq(&x.worst, &y.worst));
        assert_ne!(x.worst.input_size, y.worst.input_size);
        assert_ne!(x.floor, y.floor);
    }
}
