//! Fleet survivability acceptance tests: the failure protocol end to end,
//! over the canonical 8-job workload, through the public facade.
//!
//! The contract under test: when the fault plan takes devices away mid-run,
//! every job must end in an explicit outcome (finished, shed, or failed
//! with bounded retries) — no hangs, no panics, no silent drops — the
//! audit lint must re-derive the whole fleet rollup from the event chain,
//! and the degraded run must replay byte-identically across runs.

use mimose::prelude::*;
use mimose_audit::lint_cluster;
use mimose_cluster::{ClusterOutcome, JobOutcome};

/// Virtual instant device 1 of 4 dies: mid-run, partway through its
/// first job.
const LOSS_NS: u64 = 1_618_617_222;

fn lose_one_of_four() -> ClusterOutcome {
    let faults =
        FleetFaultPlan::none(0).with_timed_fault(1, TimedDeviceFault::Lost { at_ns: LOSS_NS });
    Cluster::builder()
        .devices(DevicePool::v100(4))
        .workload(Workload::mixed(4))
        .faults(faults)
        .record(true)
        .run()
        .expect("degraded canonical workload runs")
}

#[test]
fn losing_one_device_of_four_loses_no_jobs() {
    let outcome = lose_one_of_four();
    let r = &outcome.report;
    for job in &r.jobs {
        assert!(
            job.outcome.finished(),
            "{}: {:?} — capacity still fits, nothing may be shed or failed",
            job.name,
            job.outcome
        );
        // Every job ran to its full length, across however many devices.
        assert_eq!(job.iters, 4, "{}", job.name);
        assert_eq!(
            job.placements.iter().map(|p| p.iters).sum::<usize>(),
            4,
            "{}",
            job.name
        );
    }
    assert_eq!(r.fleet.devices_lost, 1);
    assert!(r.devices[1].lost);
    assert!(r.fleet.migrations >= 1);
    assert_eq!(r.fleet.shed_jobs, 0);
    assert_eq!(r.fleet.failed_jobs, 0);
    // The displaced jobs' overhead is attributed, not vanished.
    let overhead: u64 = r.jobs.iter().map(|j| j.fleet_overhead_ns).sum();
    assert_eq!(overhead, r.fleet.overhead_ns);
    assert!(overhead > 0);
}

#[test]
fn degraded_run_is_lint_clean_and_replays_byte_identically() {
    let a = lose_one_of_four();
    let diags = lint_cluster(&a);
    assert!(
        diags.is_empty(),
        "{:?}",
        diags.iter().map(|d| d.to_string()).collect::<Vec<_>>()
    );
    let b = lose_one_of_four();
    let c = lose_one_of_four();
    assert_eq!(a.report.to_json(), b.report.to_json());
    assert_eq!(b.report.to_json(), c.report.to_json());
}

#[test]
fn event_chain_tells_the_whole_displacement_story() {
    let outcome = lose_one_of_four();
    let r = &outcome.report;
    // Chronological protocol order for the displaced job: arrive →
    // dispatch → (device down) checkpoint → requeue → backoff → migrate →
    // complete.
    let displaced: Vec<usize> = r
        .jobs
        .iter()
        .enumerate()
        .filter(|(_, j)| j.migrations > 0)
        .map(|(i, _)| i)
        .collect();
    assert!(!displaced.is_empty());
    for j in displaced {
        let tags: Vec<&str> = r
            .events
            .iter()
            .filter(|e| e.kind.job() == Some(j))
            .map(|e| e.kind.tag())
            .collect();
        assert_eq!(
            tags,
            vec![
                "arrive",
                "dispatch",
                "checkpoint",
                "requeue",
                "backoff",
                "migrate",
                "complete"
            ],
            "job #{j}"
        );
        // The migration resumed exactly where the checkpoint parked.
        let cursors: Vec<(usize, usize)> = r
            .events
            .iter()
            .filter_map(|e| match e.kind {
                FleetEventKind::Checkpoint { job, cursor, .. } if job == j => Some((0, cursor)),
                FleetEventKind::Migrate { job, cursor, .. } if job == j => Some((1, cursor)),
                _ => None,
            })
            .collect();
        assert_eq!(cursors.len(), 2);
        assert_eq!(cursors[0].1, cursors[1].1, "job #{j} resumed elsewhere");
    }
    // The down event for the lost device is permanent (no return instant).
    assert!(r.events.iter().any(|e| matches!(
        e.kind,
        FleetEventKind::DeviceDown {
            device: 1,
            until_round: None
        }
    )));
}

#[test]
fn capacity_collapse_degrades_gracefully() {
    // Halve device 0's capacity for the whole run alongside losing
    // device 1: admission re-decides against the effective capacity, and
    // the fleet still finishes the canonical workload.
    let faults = FleetFaultPlan::none(0)
        .with_timed_fault(1, TimedDeviceFault::Lost { at_ns: LOSS_NS })
        .with_timed_fault(
            0,
            TimedDeviceFault::CapacityCollapse {
                at_ns: 0,
                duration_ns: u64::MAX,
                factor: 0.5,
            },
        );
    let outcome = Cluster::builder()
        .devices(DevicePool::v100(4))
        .workload(Workload::mixed(4))
        .faults(faults)
        .record(true)
        .run()
        .expect("collapsed canonical workload runs");
    for job in &outcome.report.jobs {
        assert!(
            !matches!(job.outcome, JobOutcome::Rejected),
            "{}: rejected under collapse",
            job.name
        );
        assert!(
            job.outcome.finished() || matches!(job.outcome, JobOutcome::Shed(_)),
            "{}: {:?}",
            job.name,
            job.outcome
        );
    }
    let diags = lint_cluster(&outcome);
    assert!(
        diags.is_empty(),
        "{:?}",
        diags.iter().map(|d| d.to_string()).collect::<Vec<_>>()
    );
}

#[test]
fn shed_jobs_are_reported_with_reasons_and_lint_clean() {
    // Kill every device: the whole backlog must shed with explicit
    // reasons, and the trace must still satisfy the audit.
    let faults = FleetFaultPlan::none(0)
        .with_timed_fault(0, TimedDeviceFault::Lost { at_ns: 100_000_000 })
        .with_timed_fault(1, TimedDeviceFault::Lost { at_ns: 100_000_000 });
    let outcome = Cluster::builder()
        .devices(DevicePool::v100(2))
        .workload(Workload::mixed(6))
        .faults(faults)
        .record(true)
        .run()
        .expect("dead-pool workload still settles");
    let r = &outcome.report;
    assert!(r.fleet.shed_jobs > 0);
    for job in &r.jobs {
        match &job.outcome {
            JobOutcome::Shed(reason) => assert!(!reason.is_empty(), "{}", job.name),
            other => assert!(other.finished(), "{}: {other:?}", job.name),
        }
    }
    let diags = lint_cluster(&outcome);
    assert!(
        diags.is_empty(),
        "{:?}",
        diags.iter().map(|d| d.to_string()).collect::<Vec<_>>()
    );
}
