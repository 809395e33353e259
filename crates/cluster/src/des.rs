//! The fleet driver: a discrete-event loop over virtual time.
//!
//! `run_event` advances a virtual-nanosecond clock through a
//! seed-deterministic event queue: job **arrivals** (drawn from the
//! spec's [`ArrivalProcess`](mimose_data::ArrivalProcess)), per-iteration
//! **completions**, timed device **fault transitions** and displaced-job
//! **backoff expiries**. Dispatch happens only at event boundaries, under
//! the configured [`SchedulePolicy`](crate::SchedulePolicy). With every
//! arrival at `t = 0` ([`ArrivalProcess::Immediate`](mimose_data::ArrivalProcess),
//! the default) this is the batch world; with staggered arrivals,
//! queueing, SLO tails and overload behavior become visible.
//!
//! # Determinism
//!
//! The loop is serial by construction: events pop in `(time, class,
//! push-sequence)` order from a binary heap, every batch of same-instant
//! events is processed before one triage + dispatch pass runs, and all
//! randomness (arrival gaps, chaos injection) is seeded. Two runs of the
//! same spec produce byte-identical reports.
//!
//! # Failure protocol
//!
//! Timed faults ([`TimedDeviceFault`](mimose_chaos::TimedDeviceFault))
//! take devices down, lose them or collapse their capacity at
//! *transition events*, but a device that dies mid-iteration only
//! surrenders its job at the iteration's **completion boundary** — the
//! same place a real executor could first observe the loss and the only
//! boundary a [`SessionCheckpoint`] can capture
//! ([`Session::checkpoint`](mimose_exec::Session::checkpoint) keeps the
//! warmed policy — plan cache, certificates, adaptive-estimator state —
//! plus the data-stream cursor and accumulated summary). The displaced
//! job is then **requeued** under exponential backoff in virtual
//! nanoseconds and **migrated** to a surviving device through the same
//! admission controller that gated its first dispatch (so migration can
//! demote). When the degraded pool can never place a job (its
//! all-checkpoint floor exceeds every surviving device) or its retry
//! budget is exhausted, the job is **shed** or **failed** explicitly —
//! lowest priority first — never silently dropped or starved. Every step
//! is a timestamped, cost-attributed [`FleetEvent`](crate::FleetEvent).
//!
//! # One path per action
//!
//! Fresh arrivals and displaced jobs wait as the same entry type and start
//! through one dispatch function; they differ only in how the session is
//! seeded (the submitted policy and seed, or the parked checkpoint) and in
//! the event and counters a start writes (`Dispatch` or `Migrate`).
//! Dispatch never rejects: both waiting lines offer a job only to a device
//! whose usable capacity holds its all-checkpoint floor, so admission
//! chooses between admit and demote. A running job ends through one settle
//! path (completion, exec error, spent retry budget), a waiting job through
//! one shed path (full queue, triage, quiesce), and every event is stamped
//! with the current epoch and instant in one place.

use crate::admission::{AdmissionController, AdmissionDecision};
use crate::events::{
    FleetEvent, FleetEventKind, BACKOFF_BASE_NS, CHECKPOINT_COST_NS, RESTORE_COST_NS,
};
use crate::protocol::{self, DeviceAccum, JobState, RollupInputs, Start, Submitted, Waiting};
use crate::report::{FleetStats, JobOutcome, JobPlacement};
use crate::spec::{ClusterOutcome, ClusterSpec};
use mimose_chaos::DeviceCondition;
use mimose_exec::{ExecError, Session};
use mimose_runtime::IterationReport;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A queue entry's payload. The derived `Ord` is never reached in heap
/// comparisons (the push sequence number before it is unique) but keeps
/// the tuple totally ordered.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// The fault plan crosses a timed boundary: re-observe every device.
    Transition,
    /// The in-flight iteration on a device reaches its boundary.
    Finish { device: usize },
    /// A job enters the fleet.
    Arrive { job: usize },
    /// A displaced job's backoff window closes (pure wakeup; the dispatch
    /// pass re-checks eligibility by time).
    Ready,
}

impl Ev {
    /// Tie-break class for same-instant events: fault transitions are
    /// observed first (so a completion at the same instant already sees
    /// the device down), then completions free devices, then arrivals
    /// queue, then wakeups — and the batch's single dispatch pass sees the
    /// union.
    fn class(&self) -> u8 {
        match self {
            Ev::Transition => 0,
            Ev::Finish { .. } => 1,
            Ev::Arrive { .. } => 2,
            Ev::Ready => 3,
        }
    }
}

/// Min-heap of `(t_ns, class, push_seq, payload)` with a monotone push
/// sequence so ordering is total and insertion-stable.
#[derive(Default)]
struct EventQueue {
    heap: BinaryHeap<Reverse<(u64, u8, u64, Ev)>>,
    seq: u64,
}

impl EventQueue {
    fn push(&mut self, t_ns: u64, ev: Ev) {
        self.heap.push(Reverse((t_ns, ev.class(), self.seq, ev)));
        self.seq += 1;
    }

    /// Pop every event at the earliest pending instant, in class/sequence
    /// order. Events pushed *during* a batch — even at the same instant —
    /// form a later batch.
    fn pop_batch(&mut self) -> Option<(u64, Vec<Ev>)> {
        let Reverse((t, _, _, first)) = self.heap.pop()?;
        let mut batch = vec![first];
        while self.heap.peek().is_some_and(|Reverse((pt, ..))| *pt == t) {
            if let Some(Reverse((_, _, _, ev))) = self.heap.pop() {
                batch.push(ev);
            }
        }
        Some((t, batch))
    }
}

/// One job executing on a device.
struct Running<'a> {
    job: usize,
    sub: Submitted,
    session: Session<'a>,
    remaining: usize,
    reports: Vec<IterationReport>,
    seg_ns: u64,
    seg_iters: usize,
}

/// A device's in-flight iteration: the running job, the peak predicted
/// before its step, and the step's outcome. The step executes eagerly at
/// dispatch and is held until its completion event fires.
struct InFlight<'a> {
    run: Running<'a>,
    predicted: Option<usize>,
    outcome: Result<IterationReport, ExecError>,
}

struct DeviceState<'a> {
    stats: DeviceAccum,
    cond: DeviceCondition,
    inflight: Option<InFlight<'a>>,
}

/// The fleet between events: per-job and per-device state, the event
/// chain, and the two waiting lines.
struct Driver<'a> {
    spec: &'a ClusterSpec,
    ctl: AdmissionController,
    jobs: Vec<JobState>,
    devices: Vec<DeviceState<'a>>,
    events: Vec<FleetEvent>,
    fleet: FleetStats,
    q: EventQueue,
    /// Arrived jobs not yet dispatched.
    pending: Vec<Waiting<'a>>,
    /// Checkpointed jobs waiting to migrate.
    displaced: Vec<Waiting<'a>>,
    /// Index of the current same-instant batch (each event's `round`).
    epoch: usize,
    /// The current virtual instant.
    now: u64,
    dispatch_seq: usize,
}

/// Run a validated spec (see [`ClusterBuilder::build`](crate::ClusterBuilder::build))
/// to completion under the discrete-event clock. A run that starts always
/// yields a report, with every job settled by an explicit outcome and a
/// terminal event on the chain.
pub(crate) fn run_event(spec: &ClusterSpec) -> ClusterOutcome {
    let mut ctl = AdmissionController::default();
    // Submission runs up front: profiles, floors, certificates. Jobs it
    // settles (unprofilable, floor over every device) replay their
    // terminal event when their arrival fires, so the chain still accounts
    // for them at the right virtual instant.
    let jobs = protocol::submit_jobs(spec, &mut ctl);
    let mut fleet = Driver {
        spec,
        ctl,
        jobs,
        devices: (0..spec.devices.len())
            .map(|_| DeviceState {
                stats: DeviceAccum::default(),
                cond: DeviceCondition::Up,
                inflight: None,
            })
            .collect(),
        events: Vec::new(),
        fleet: FleetStats {
            max_retries: spec.max_retries,
            ..FleetStats::default()
        },
        q: EventQueue::default(),
        pending: Vec::new(),
        displaced: Vec::new(),
        epoch: 0,
        now: 0,
        dispatch_seq: 0,
    };
    let arrivals = spec.arrivals.arrival_ns(spec.jobs.len());
    for (j, (st, t)) in fleet.jobs.iter_mut().zip(arrivals).enumerate() {
        st.arrival_ns = t;
        fleet.q.push(t, Ev::Arrive { job: j });
    }
    // Seed the fault-transition chain; each transition schedules the next,
    // so the walk covers exactly the plan's timed boundaries.
    fleet.q.push(0, Ev::Transition);

    while let Some((t, batch)) = fleet.q.pop_batch() {
        fleet.now = t;
        for ev in batch {
            match ev {
                Ev::Transition => fleet.transition(),
                Ev::Finish { device } => fleet.finish(device),
                Ev::Arrive { job } => fleet.arrive(job),
                Ev::Ready => {} // pure wakeup; dispatch below re-checks
            }
        }
        fleet.triage();
        fleet.dispatch_pass();
        fleet.ctl.stats.deferred_rounds += fleet.pending.len() + fleet.displaced.len();
        fleet.epoch += 1;
    }

    // The queue drained with work still waiting: no running iteration, no
    // upcoming transition, no backoff wakeup — there is no event that
    // could ever place these jobs. Shed them explicitly, lowest priority
    // first, at the final instant.
    if !fleet.pending.is_empty() || !fleet.displaced.is_empty() {
        let mut stragglers = std::mem::take(&mut fleet.pending);
        stragglers.append(&mut fleet.displaced);
        fleet.shed_all(
            stragglers,
            "fleet quiesced with no placement path for this job",
        );
        fleet.epoch += 1;
    }

    protocol::finish_report(
        spec,
        fleet.ctl,
        fleet.jobs,
        RollupInputs {
            events: fleet.events,
            fleet: fleet.fleet,
            devices: fleet.devices.into_iter().map(|s| s.stats).collect(),
            rounds: fleet.epoch,
        },
    )
}

impl<'a> Driver<'a> {
    /// Append an event to the chain at the current batch and instant.
    fn emit(&mut self, kind: FleetEventKind, cost_ns: u64) {
        self.events.push(FleetEvent {
            round: self.epoch,
            at_ns: self.now,
            kind,
            cost_ns,
        });
    }

    /// The fault plan crossed a boundary: log every device whose condition
    /// changed and schedule the next boundary. A job in flight on a device
    /// that went down keeps running to its iteration boundary, where
    /// [`Self::finish`] displaces it.
    fn transition(&mut self) {
        let (faults, t) = (&self.spec.faults, self.now);
        for d in 0..self.devices.len() {
            let cond = faults.device_condition_at_ns(d, t);
            if cond == self.devices[d].cond {
                continue;
            }
            self.devices[d].cond = cond;
            let kind = match cond {
                DeviceCondition::Up => FleetEventKind::DeviceUp { device: d },
                DeviceCondition::Lost => {
                    self.devices[d].stats.lost = true;
                    self.fleet.devices_lost += 1;
                    FleetEventKind::DeviceDown {
                        device: d,
                        until_round: None,
                    }
                }
                DeviceCondition::Down => {
                    // Walk the timed boundaries to the instant this device
                    // returns.
                    let mut probe = t;
                    let mut until = None;
                    while let Some(b) = faults.next_transition_after_ns(probe) {
                        match faults.device_condition_at_ns(d, b) {
                            DeviceCondition::Up => {
                                until = Some(b as usize);
                                break;
                            }
                            DeviceCondition::Lost => break,
                            DeviceCondition::Down => probe = b,
                        }
                    }
                    FleetEventKind::DeviceDown {
                        device: d,
                        until_round: until,
                    }
                }
            };
            self.emit(kind, 0);
        }
        if let Some(next) = faults.next_transition_after_ns(t) {
            self.q.push(next, Ev::Transition);
        }
    }

    /// A job enters the fleet: it queues, is shed by a full queue, or —
    /// when submission settled it — replays that verdict on the chain.
    fn arrive(&mut self, j: usize) {
        self.emit(FleetEventKind::Arrive { job: j }, 0);
        let Some((sub, policy)) = self.jobs[j].submission.take() else {
            match &self.jobs[j].outcome {
                Some(JobOutcome::Rejected) => {
                    let reason = self.jobs[j]
                        .detail
                        .admission_reason
                        .clone()
                        .unwrap_or_else(|| "rejected at submission".to_string());
                    self.emit(FleetEventKind::Reject { job: j, reason }, 0);
                }
                Some(JobOutcome::Failed(reason)) => self.fail(j, reason.clone()),
                _ => {}
            }
            return;
        };
        let waiting = Waiting {
            job: j,
            sub,
            remaining: self.spec.jobs[j].iters,
            ready_ns: self.now,
            start: Start::Fresh(policy),
        };
        match self.spec.queue_limit {
            // The overload valve: bounded queue full, shed on arrival
            // rather than queue into an SLO-busting backlog.
            Some(limit) if self.pending.len() >= limit => {
                let reason = format!(
                    "queue full on arrival ({} jobs waiting, limit {limit})",
                    self.pending.len()
                );
                self.shed(waiting, reason);
            }
            _ => self.pending.push(waiting),
        }
    }

    /// The in-flight iteration on `d` reached its boundary: commit it, then
    /// settle the job, run its next iteration, or displace it off a device
    /// that died under it.
    fn finish(&mut self, d: usize) {
        let Some(InFlight {
            mut run,
            predicted,
            outcome,
        }) = self.devices[d].inflight.take()
        else {
            return; // stale wakeup; nothing in flight here
        };
        let report = match outcome {
            Ok(report) => report,
            Err(e) => return self.settle(d, run, Err(e.to_string())),
        };
        let dt = report.time.total_ns();
        let dev = &mut self.devices[d].stats;
        dev.busy_ns += dt;
        dev.iters += 1;
        run.seg_ns += dt;
        run.seg_iters += 1;
        if let Some(p) = predicted {
            self.ctl.stats.score(p, report.peak_bytes);
        }
        run.reports.push(report);
        run.remaining = run.remaining.saturating_sub(1);
        if run.remaining == 0 {
            return self.settle(d, run, Ok(()));
        }
        if self.spec.faults.device_condition_at_ns(d, self.now) == DeviceCondition::Up {
            return self.advance(d, run);
        }
        // The device died under the job: displace at this boundary.
        let retries = self.jobs[run.job].retries + 1;
        let max = self.spec.max_retries;
        if retries > max {
            let reason = format!("displaced {retries} times; retry budget {max} exhausted");
            return self.settle(d, run, Err(reason));
        }
        self.close_segment(d, &mut run);
        let j = run.job;
        let checkpoint = run.session.checkpoint();
        let st = &mut self.jobs[j];
        st.retries = retries;
        st.overhead_ns += CHECKPOINT_COST_NS;
        self.fleet.checkpoints += 1;
        let cursor = checkpoint.cursor();
        self.emit(
            FleetEventKind::Checkpoint {
                job: j,
                device: d,
                cursor,
            },
            CHECKPOINT_COST_NS,
        );
        self.emit(FleetEventKind::Requeue { job: j, retries }, 0);
        let ready_ns = self
            .now
            .saturating_add(BACKOFF_BASE_NS << (retries - 1).min(32));
        let until_round = ready_ns as usize;
        self.emit(
            FleetEventKind::Backoff {
                job: j,
                until_round,
            },
            0,
        );
        self.q.push(ready_ns, Ev::Ready);
        self.displaced.push(Waiting {
            job: j,
            sub: run.sub,
            remaining: run.remaining,
            ready_ns,
            start: Start::Resume {
                checkpoint,
                from: d,
            },
        });
    }

    /// Close a job's segment on device `d`: record the placement and move
    /// the segment's reports into the job's evidence.
    fn close_segment(&mut self, d: usize, run: &mut Running) {
        let st = &mut self.jobs[run.job];
        if run.seg_iters > 0 || run.seg_ns > 0 {
            st.placements.push(JobPlacement {
                device: d,
                busy_ns: run.seg_ns,
                iters: run.seg_iters,
            });
        }
        st.detail.reports.append(&mut run.reports);
    }

    /// End a running job for good: close its segment, keep its evidence and
    /// write its terminal outcome — `Ok` completes it, `Err` fails it with
    /// the reason. Either way it counts toward `d`'s `jobs_run`.
    fn settle(&mut self, d: usize, mut run: Running, end: Result<(), String>) {
        self.close_segment(d, &mut run);
        let j = run.job;
        self.jobs[j].harvest(run.session.checkpoint());
        self.devices[d].stats.jobs_run += 1;
        match end {
            Ok(()) => {
                self.emit(FleetEventKind::Complete { job: j, device: d }, 0);
                let st = &mut self.jobs[j];
                st.outcome = Some(if st.migrations > 0 {
                    JobOutcome::Migrated
                } else {
                    JobOutcome::Completed
                });
                st.finish_ns = Some(self.now);
            }
            Err(reason) => self.fail(j, reason),
        }
    }

    fn fail(&mut self, j: usize, reason: String) {
        let kind = FleetEventKind::Fail {
            job: j,
            reason: reason.clone(),
        };
        self.emit(kind, 0);
        self.jobs[j].outcome = Some(JobOutcome::Failed(reason));
    }

    /// Shed a waiting job, keeping its parked checkpoint's evidence when it
    /// has one.
    fn shed(&mut self, w: Waiting, reason: String) {
        let kind = FleetEventKind::Shed {
            job: w.job,
            reason: reason.clone(),
        };
        self.emit(kind, 0);
        self.fleet.shed_jobs += 1;
        let st = &mut self.jobs[w.job];
        st.outcome = Some(JobOutcome::Shed(reason));
        if let Start::Resume { checkpoint, .. } = w.start {
            st.harvest(checkpoint);
        }
    }

    /// Shed every job in `doomed`, lowest priority first.
    fn shed_all(&mut self, mut doomed: Vec<Waiting>, reason: &str) {
        let jobs = &self.spec.jobs;
        doomed.sort_by_key(|w| (jobs[w.job].priority, w.job));
        for w in doomed {
            self.shed(w, reason.to_string());
        }
    }

    /// Shed waiting work the degraded pool can never place. Down devices
    /// still count (they come back); only lost ones don't.
    fn triage(&mut self) {
        let (spec, t) = (self.spec, self.now);
        let alive_usable = (0..spec.devices.len())
            .filter(|&d| spec.faults.device_condition_at_ns(d, t) != DeviceCondition::Lost)
            .map(|d| protocol::usable_bytes(&spec.devices[d], spec.headroom))
            .max()
            .unwrap_or(0);
        let unplaceable = |w: &Waiting| w.sub.floor > alive_usable;
        if !self.pending.iter().chain(&self.displaced).any(unplaceable) {
            return;
        }
        let (mut doomed, kept): (Vec<_>, Vec<_>) = self.displaced.drain(..).partition(unplaceable);
        self.displaced = kept;
        let (queued, kept): (Vec<_>, Vec<_>) = self.pending.drain(..).partition(unplaceable);
        self.pending = kept;
        doomed.extend(queued);
        let reason = if alive_usable == 0 {
            "no surviving device in the pool".to_string()
        } else {
            format!(
                "all-checkpoint floor exceeds every surviving device's usable \
                 capacity ({alive_usable} B)"
            )
        };
        self.shed_all(doomed, &reason);
    }

    /// Idle, up devices pick work in index order. Displaced jobs (highest
    /// priority, then requeue order) outrank fresh arrivals — they hold
    /// warmed checkpoints, and deferring new admissions is the fleet's
    /// backpressure under degradation. Both lines offer a job only to a
    /// device whose usable capacity holds its all-checkpoint floor.
    fn dispatch_pass(&mut self) {
        let (spec, t) = (self.spec, self.now);
        for d in 0..spec.devices.len() {
            if self.devices[d].inflight.is_some()
                || spec.faults.device_condition_at_ns(d, t) != DeviceCondition::Up
            {
                continue;
            }
            let cap_factor = spec.faults.capacity_factor_at_ns(d, t);
            let usable = protocol::usable_bytes(
                &protocol::effective_device(spec, d, cap_factor),
                spec.headroom,
            );
            let resumable = self
                .displaced
                .iter()
                .enumerate()
                .filter(|(_, w)| w.ready_ns <= t && w.sub.floor <= usable)
                .min_by_key(|(pos, w)| (Reverse(spec.jobs[w.job].priority), *pos))
                .map(|(pos, _)| pos);
            let waiting = if let Some(pos) = resumable {
                self.displaced.remove(pos)
            } else if let Some(pos) = protocol::pick_pending(
                spec.schedule,
                &self.pending,
                &spec.jobs,
                &spec.devices[d],
                usable,
            ) {
                self.pending.remove(pos)
            } else {
                continue;
            };
            self.dispatch(d, usable, waiting);
        }
    }

    /// Start a waiting job on device `d`: decide admission, arm recovery
    /// on a demotion, build the session and run its first iteration. A
    /// fresh job starts under its submitted policy and seed; a displaced
    /// one migrates by resuming its checkpoint.
    fn dispatch(&mut self, d: usize, usable: usize, w: Waiting<'a>) {
        let spec = self.spec;
        let (j, job, sub) = (w.job, &spec.jobs[w.job], &w.sub);
        let decision = self.ctl.decide_certified(
            sub.predicted_peak,
            sub.floor,
            usable,
            sub.certificate.as_ref(),
        );
        let st = &mut self.jobs[j];
        if st.detail.admission_reason.is_none() {
            st.detail.admission_reason =
                decision
                    .reason(sub.predicted_peak, usable)
                    .map(|r| match &sub.graph_evidence {
                        Some(g) => format!("{r}; {g}"),
                        None => r,
                    });
        }
        let recovery = match decision {
            AdmissionDecision::Admit => job.recovery.clone(),
            AdmissionDecision::Demote { .. } => {
                st.demoted = true;
                Some(job.recovery.clone().unwrap_or_default())
            }
        };
        let builder = Session::builder(&job.model, &job.dataset)
            .device(spec.devices[d].clone())
            .record(spec.record);
        let (mut builder, migration) = match w.start {
            Start::Fresh(policy) => (builder.policy_boxed(policy).seed(job.seed), None),
            Start::Resume { checkpoint, from } => {
                let cursor = checkpoint.cursor();
                (builder.resume(checkpoint), Some((from, cursor)))
            }
        };
        if let Some(cfg) = recovery {
            builder = builder.recovery(cfg);
        }
        if let Some(inj) = spec.faults.injector_for(d) {
            builder = builder.chaos(inj);
        }
        let session = match builder.build() {
            Ok(session) => session,
            Err(e) => return self.fail(j, e.to_string()),
        };
        let seq = self.dispatch_seq;
        self.dispatch_seq += 1;
        let st = &mut self.jobs[j];
        st.detail.device = Some(d);
        if let Some((from, cursor)) = migration {
            st.overhead_ns += RESTORE_COST_NS;
            st.migrations += 1;
            self.fleet.migrations += 1;
            let kind = FleetEventKind::Migrate {
                job: j,
                from,
                to: d,
                cursor,
                seq,
            };
            self.emit(kind, RESTORE_COST_NS);
        } else {
            st.queue_wait_ns = Some(self.now.saturating_sub(st.arrival_ns));
            st.detail.dispatch_round = Some(self.epoch);
            st.detail.dispatch_seq = Some(seq);
            self.emit(
                FleetEventKind::Dispatch {
                    job: j,
                    device: d,
                    seq,
                },
                0,
            );
        }
        let run = Running {
            job: j,
            sub: w.sub,
            session,
            remaining: w.remaining,
            reports: Vec::with_capacity(w.remaining),
            seg_ns: 0,
            seg_iters: 0,
        };
        self.advance(d, run);
    }

    /// Eagerly execute the job's next iteration on `d` and schedule its
    /// completion event. An exec error schedules a zero-length completion
    /// so the failure settles through the same boundary path.
    fn advance(&mut self, d: usize, mut run: Running<'a>) {
        let predicted = run.session.predicted_peak_bytes().ok();
        let outcome = run.session.step();
        let dt = outcome.as_ref().map_or(0, |r| r.time.total_ns());
        self.q
            .push(self.now.saturating_add(dt), Ev::Finish { device: d });
        self.devices[d].inflight = Some(InFlight {
            run,
            predicted,
            outcome,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobPolicy, JobSpec};
    use crate::workload::{DevicePool, Workload};
    use crate::{Cluster, ClusterBuilder, SchedulePolicy};
    use mimose_chaos::{FaultSpec, FleetFaultPlan, TimedDeviceFault};
    use mimose_data::{presets, ArrivalProcess};
    use mimose_models::builders::{bert_base, BertHead};
    use mimose_planner::PolicyKind;

    fn small(devices: usize) -> ClusterBuilder {
        Cluster::builder()
            .devices(DevicePool::v100(devices))
            .workload(Workload::mixed(2))
    }

    fn serve(arrivals: ArrivalProcess) -> ClusterBuilder {
        small(2).arrivals(arrivals)
    }

    fn run(builder: ClusterBuilder) -> ClusterOutcome {
        builder.run().expect("spec is well-formed")
    }

    #[test]
    fn graph_pass_evidence_reaches_the_report() {
        let outcome = run(small(2));
        let mut strictly_lower = 0;
        for job in &outcome.report.jobs {
            let raw = job.graph_raw_peak_bytes.expect("raw peak recorded");
            let opt = job.graph_opt_peak_bytes.expect("opt peak recorded");
            assert!(
                opt <= raw,
                "{}: optimized predicted peak {opt} B above raw {raw} B",
                job.name
            );
            if opt < raw {
                strictly_lower += 1;
            }
        }
        // Budget-capped policies (DTR) predict their budget either way;
        // every planner-predicted job must show the pipeline's credit.
        assert!(strictly_lower > 0, "no job's predicted peak moved");
        let json = outcome.report.to_json();
        assert!(json.contains("\"graph_raw_peak_bytes\":"));
        assert!(json.contains("\"graph_opt_peak_bytes\":"));
    }

    #[test]
    fn every_schedule_policy_completes_the_workload() {
        for schedule in [
            SchedulePolicy::Fifo,
            SchedulePolicy::ShortestPredicted,
            SchedulePolicy::BestFitMemory,
        ] {
            let outcome = run(small(2).schedule(schedule));
            assert_eq!(outcome.report.schedule, schedule.name());
            assert_eq!(outcome.report.mode, "event-driven");
            for job in &outcome.report.jobs {
                assert_eq!(
                    job.outcome,
                    JobOutcome::Completed,
                    "{} under {}",
                    job.name,
                    schedule.name()
                );
            }
            assert!(outcome.report.makespan_ns > 0);
            assert!(outcome.report.utilization_pct > 0.0);
            // A clean run's chain is arrivals, dispatches and completions.
            for e in &outcome.report.events {
                assert!(
                    ["arrive", "dispatch", "complete"].contains(&e.kind.tag()),
                    "{:?}",
                    e.kind
                );
            }
            assert_eq!(outcome.report.fleet.migrations, 0);
        }
    }

    #[test]
    fn slo_rollup_is_folded_for_immediate_arrivals() {
        let outcome = run(small(2));
        let slo = &outcome.report.slo;
        assert!(slo.iter_latency_p50_ns > 0);
        assert!(slo.iter_latency_p50_ns <= slo.iter_latency_p99_ns);
        assert!(slo.queue_wait_p50_ns <= slo.queue_wait_p99_ns);
        assert_eq!(slo.goodput_iters, 8 * 2);
        assert!(slo.goodput_iters_per_s > 0.0);
        assert_eq!(slo.rejected_jobs, 0);
        let json = outcome.report.to_json();
        assert!(json.contains("\"slo\":{\"queue_wait_p50_ns\":"));
    }

    #[test]
    fn verified_admits_reach_the_fleet_report() {
        let outcome = run(small(2));
        let adm = &outcome.report.admission;
        assert!(adm.verified_admits <= adm.admitted);
        let json = outcome.report.to_json();
        assert!(json.contains(&format!("\"verified_admits\":{}", adm.verified_admits)));
    }

    #[test]
    fn impossible_job_is_rejected_not_hung() {
        let model = bert_base(BertHead::Classification { labels: 2 }).optimize();
        let job = JobSpec::new(
            "too-big",
            model,
            presets::glue_qqp(),
            JobPolicy::Planner(PolicyKind::Sublinear, 1 << 20),
            2,
            1,
        );
        let mut tiny = mimose_simgpu::DeviceProfile::v100();
        tiny.total_mem_bytes = 1 << 20; // 1 MiB: below any BERT floor
        let outcome = run(Cluster::builder()
            .devices(DevicePool::custom(vec![tiny]))
            .workload(Workload::custom(vec![job])));
        assert_eq!(outcome.report.jobs[0].outcome, JobOutcome::Rejected);
        assert_eq!(outcome.report.jobs[0].device, None);
        assert_eq!(outcome.report.admission.rejected, 1);
        assert_eq!(outcome.report.makespan_ns, 0);
        // The rejection explains itself.
        let reason = outcome.report.jobs[0].admission_reason.as_ref().unwrap();
        assert!(reason.contains("all-checkpoint floor"), "{reason}");
    }

    #[test]
    fn more_devices_never_lengthen_the_makespan() {
        let one = run(small(1)).report.makespan_ns;
        let two = run(small(2)).report.makespan_ns;
        assert!(two <= one, "two devices {two} > one device {one}");
    }

    #[test]
    fn fleet_faults_replay_byte_identically() {
        let faults = FleetFaultPlan::new(FaultSpec {
            alloc_failure_rate: 0.3,
            ..FaultSpec::none(99)
        });
        let mk = || small(2).faults(faults.clone()).record(true);
        let a = run(mk());
        let b = run(mk());
        assert_eq!(a.report.to_json(), b.report.to_json());
        // Recording captured event streams for every executed iteration.
        for (da, db) in a.details.iter().zip(&b.details) {
            assert_eq!(da.records.len(), da.reports.len());
            assert_eq!(format!("{:?}", da.reports), format!("{:?}", db.reports));
        }
    }

    #[test]
    fn event_mode_completes_and_replays_byte_identically() {
        let mk = || serve(ArrivalProcess::poisson(400_000, 42));
        let a = mk().run().expect("runs");
        let b = mk().run().expect("runs");
        assert_eq!(a.report.to_json(), b.report.to_json());
        assert_eq!(a.report.mode, "event-driven");
        for job in &a.report.jobs {
            assert_eq!(job.outcome, JobOutcome::Completed, "{}", job.name);
        }
        // The chain settles every job: arrive, dispatch, complete.
        let tags: Vec<_> = a.report.events.iter().map(|e| e.kind.tag()).collect();
        assert_eq!(tags.iter().filter(|t| **t == "arrive").count(), 8);
        assert_eq!(tags.iter().filter(|t| **t == "dispatch").count(), 8);
        assert_eq!(tags.iter().filter(|t| **t == "complete").count(), 8);
    }

    #[test]
    fn event_timestamps_and_makespan_are_consistent() {
        let outcome = serve(ArrivalProcess::poisson(400_000, 7))
            .run()
            .expect("runs");
        let r = &outcome.report;
        for w in r.events.windows(2) {
            assert!(w[0].at_ns <= w[1].at_ns, "event time ran backwards");
        }
        let max_at = r.events.iter().map(|e| e.at_ns).max().unwrap();
        assert_eq!(r.makespan_ns, max_at);
        // Queue waits re-derive from the chain.
        for job in &r.jobs {
            let arrive = r
                .events
                .iter()
                .find(|e| e.kind.tag() == "arrive" && e.kind.job() == Some(job_index(r, job)))
                .expect("every job arrives");
            let dispatch = r
                .events
                .iter()
                .find(|e| e.kind.tag() == "dispatch" && e.kind.job() == Some(job_index(r, job)));
            if let Some(dispatch) = dispatch {
                assert_eq!(dispatch.at_ns - arrive.at_ns, job.queue_wait_ns);
                assert_eq!(arrive.at_ns, job.arrival_ns);
            }
        }
    }

    fn job_index(r: &crate::ClusterReport, job: &crate::JobReport) -> usize {
        r.jobs.iter().position(|x| x.name == job.name).unwrap()
    }

    #[test]
    fn staggered_arrivals_shrink_early_queue_waits() {
        // Immediate arrivals pile all 8 jobs onto 2 devices at t=0: six of
        // them wait. Wide Poisson gaps let devices drain between arrivals.
        let packed = serve(ArrivalProcess::Immediate).run().expect("runs");
        let spread = serve(ArrivalProcess::poisson(50_000_000, 3))
            .run()
            .expect("runs");
        assert!(
            spread.report.slo.queue_wait_p95_ns <= packed.report.slo.queue_wait_p95_ns,
            "spread arrivals p95 wait {} > packed {}",
            spread.report.slo.queue_wait_p95_ns,
            packed.report.slo.queue_wait_p95_ns
        );
    }

    #[test]
    fn bounded_queue_sheds_on_arrival_under_overload() {
        let outcome = run(small(1).queue_limit(Some(2)));
        let r = &outcome.report;
        assert!(r.fleet.shed_jobs > 0, "no sheds under a full queue");
        assert!(r.slo.shed_rate_pct > 0.0);
        // Every job settled: no silent drops even under overload.
        for job in &r.jobs {
            assert!(
                job.outcome.finished()
                    || matches!(job.outcome, JobOutcome::Shed(_) | JobOutcome::Rejected),
                "{}: {:?}",
                job.name,
                job.outcome
            );
        }
        let shed_reason = r
            .events
            .iter()
            .find_map(|e| match &e.kind {
                FleetEventKind::Shed { reason, .. } => Some(reason.clone()),
                _ => None,
            })
            .expect("shed event recorded");
        assert!(shed_reason.contains("queue full"), "{shed_reason}");
    }

    #[test]
    fn lost_device_migrates_its_job_and_the_fleet_finishes() {
        // 4 devices, 8 jobs, 4 iterations each; device 1 dies permanently
        // mid-flight. Everything must still finish (the displaced job via
        // migration), with the full event chain, and replay identically.
        let mk = || {
            let faults = FleetFaultPlan::none(0).with_timed_fault(
                1,
                TimedDeviceFault::Lost {
                    at_ns: 1_618_617_222,
                },
            );
            Cluster::builder()
                .devices(DevicePool::v100(4))
                .workload(Workload::mixed(4))
                .faults(faults)
                .record(true)
        };
        let outcome = run(mk());
        let r = &outcome.report;
        assert_eq!(r.to_json(), run(mk()).report.to_json());
        assert!(
            r.jobs.iter().all(|j| j.outcome.finished()),
            "{:?}",
            r.jobs
                .iter()
                .map(|j| (j.name.clone(), j.outcome.clone()))
                .collect::<Vec<_>>()
        );
        assert_eq!(r.fleet.devices_lost, 1);
        assert!(r.fleet.migrations >= 1);
        assert_eq!(r.fleet.checkpoints, r.fleet.migrations);
        assert_eq!(r.fleet.shed_jobs, 0);
        assert!(r.devices[1].lost);
        // The migrated job's evidence: two placements, full iteration
        // count, chained events, attributed overhead.
        let moved: Vec<_> = r.jobs.iter().filter(|j| j.migrations > 0).collect();
        assert!(!moved.is_empty());
        for j in moved {
            assert_eq!(j.outcome, JobOutcome::Migrated);
            assert_eq!(j.iters, 4);
            assert!(j.placements.len() >= 2);
            assert_eq!(j.placements.iter().map(|p| p.iters).sum::<usize>(), 4);
            assert_eq!(
                j.fleet_overhead_ns,
                (CHECKPOINT_COST_NS + RESTORE_COST_NS) * j.migrations as u64
            );
            assert!(j.retries >= 1);
        }
        let kinds: Vec<_> = r.events.iter().map(|e| e.kind.tag()).collect();
        for k in ["device-down", "checkpoint", "requeue", "backoff", "migrate"] {
            assert!(kinds.contains(&k), "missing {k} in {kinds:?}");
        }
    }

    #[test]
    fn transient_outage_displaces_and_returns_the_device() {
        // Device 0 of 2 goes down across its first job's first iteration
        // boundary: the job is displaced, and the device serves again once
        // the outage ends.
        let faults = FleetFaultPlan::none(0).with_timed_fault(
            0,
            TimedDeviceFault::Down {
                at_ns: 100_000_000,
                duration_ns: 1_000_000_000,
            },
        );
        let outcome = run(Cluster::builder()
            .devices(DevicePool::v100(2))
            .workload(Workload::mixed(3))
            .faults(faults));
        let r = &outcome.report;
        assert!(r.jobs.iter().all(|j| j.outcome.finished()));
        assert_eq!(r.fleet.devices_lost, 0);
        assert!(r.fleet.migrations >= 1);
        assert!(!r.devices[0].lost);
        let kinds: Vec<_> = r.events.iter().map(|e| e.kind.tag()).collect();
        assert!(kinds.contains(&"device-down"));
        assert!(kinds.contains(&"device-up"));
        // The down event knows when the device returns.
        let down = r.events.iter().find_map(|e| match &e.kind {
            FleetEventKind::DeviceDown {
                device: 0,
                until_round,
            } => Some(*until_round),
            _ => None,
        });
        assert_eq!(down, Some(Some(1_100_000_000)));
        // Device 0 ran iterations after returning (it served again).
        let up_at = r
            .events
            .iter()
            .find(|e| e.kind.tag() == "device-up")
            .map(|e| e.at_ns)
            .expect("device returns");
        assert!(r
            .events
            .iter()
            .any(|e| e.at_ns >= up_at
                && matches!(e.kind, FleetEventKind::Complete { device: 0, .. })));
    }

    #[test]
    fn losing_every_device_sheds_the_backlog_explicitly() {
        let faults = FleetFaultPlan::none(0)
            .with_timed_fault(0, TimedDeviceFault::Lost { at_ns: 100_000_000 })
            .with_timed_fault(1, TimedDeviceFault::Lost { at_ns: 100_000_000 });
        let spec = Cluster::builder()
            .devices(DevicePool::v100(2))
            .workload(Workload::mixed(4))
            .faults(faults)
            .build()
            .expect("valid spec");
        let outcome = run_event(&spec);
        let r = &outcome.report;
        // No hangs, no silent drops: every job has an explicit outcome.
        for j in &r.jobs {
            assert!(
                matches!(j.outcome, JobOutcome::Shed(_)) || j.outcome.finished(),
                "{}: {:?}",
                j.name,
                j.outcome
            );
        }
        assert!(r.fleet.shed_jobs > 0);
        assert_eq!(r.fleet.devices_lost, 2);
        // Within an epoch, shedding drops the lowest-priority jobs first.
        let shed_events: Vec<(usize, usize)> = r
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                FleetEventKind::Shed { job, .. } => Some((e.round, *job)),
                _ => None,
            })
            .collect();
        assert!(shed_events.len() > 1);
        for w in shed_events.windows(2) {
            let ((ra, a), (rb, b)) = (w[0], w[1]);
            if ra == rb {
                assert!(
                    (spec.jobs[a].priority, a) <= (spec.jobs[b].priority, b),
                    "shed order not lowest-priority-first: {a} before {b}"
                );
            }
        }
    }

    #[test]
    fn retry_budget_bounds_repeated_displacement() {
        // One device that flaps down across successive iteration
        // boundaries forces repeated displacement of the same job; with a
        // 1-retry budget the job must fail explicitly, not loop forever.
        let flap = |at_ns| TimedDeviceFault::Down {
            at_ns,
            duration_ns: 1_000_000_000,
        };
        let faults = FleetFaultPlan::none(0)
            .with_timed_fault(0, flap(100_000_000))
            .with_timed_fault(0, flap(1_200_000_000))
            .with_timed_fault(0, flap(2_500_000_000));
        let jobs = vec![Workload::mixed(8).into_jobs().remove(0)];
        let outcome = run(Cluster::builder()
            .devices(DevicePool::v100(1))
            .workload(Workload::custom(jobs))
            .faults(faults)
            .max_retries(1));
        let job = &outcome.report.jobs[0];
        assert!(
            job.retries <= 2,
            "retries {} exceeded budget+1",
            job.retries
        );
        match &job.outcome {
            JobOutcome::Failed(reason) => assert!(reason.contains("retry budget"), "{reason}"),
            other => panic!("flapping device should exhaust the budget: {other:?}"),
        }
    }
}
