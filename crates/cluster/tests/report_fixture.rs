//! Fixture pin: `ClusterReport::to_json()` on canonical specs hashes to
//! committed FNV-1a values, so any change to the fleet driver that moves a
//! single byte of a report — an event, a timestamp, a rollup digit — fails
//! here. The specs cover the batch world (every job present at `t = 0`),
//! the serving world (Poisson arrivals), the failure protocol (a timed
//! permanent device loss mid-run) and each remaining settle path: shedding
//! on a full queue, a job failed by its retry budget, triage after every
//! device is lost, and dispatch onto a collapsed device. Each case also
//! checks that its path fired, so a pin cannot pass on a run that skipped
//! it.

use mimose_chaos::{FleetFaultPlan, TimedDeviceFault};
use mimose_cluster::{
    ArrivalProcess, Cluster, ClusterBuilder, ClusterReport, DevicePool, FleetEventKind, JobOutcome,
    Workload,
};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Run the spec; return the report with its JSON's `(hash, length)`.
fn pinned(builder: ClusterBuilder) -> (ClusterReport, (u64, usize)) {
    let report = builder.run().expect("canonical spec runs").report;
    let json = report.to_json();
    let pin = (fnv1a(json.as_bytes()), json.len());
    (report, pin)
}

fn canonical(devices: usize, iters: usize) -> ClusterBuilder {
    Cluster::builder()
        .devices(DevicePool::v100(devices))
        .workload(Workload::mixed(iters))
}

#[test]
fn immediate_arrivals_8_jobs_on_2_devices() {
    let (r, pin) = pinned(canonical(2, 2).arrivals(ArrivalProcess::Immediate));
    assert_eq!(r.jobs.len(), 8);
    assert_eq!(pin, (0x8432_f84d_8ac9_0bf7, 7665));
}

#[test]
fn poisson_arrivals() {
    let (r, pin) = pinned(canonical(2, 2).arrivals(ArrivalProcess::poisson(400_000, 42)));
    assert!(r.jobs.iter().any(|j| j.arrival_ns > 0));
    assert_eq!(pin, (0x69e2_7186_ea8b_0b9c, 7804));
}

#[test]
fn timed_device_loss() {
    let faults = FleetFaultPlan::none(0).with_timed_fault(
        1,
        TimedDeviceFault::Lost {
            at_ns: 1_618_617_222,
        },
    );
    let (r, pin) = pinned(canonical(4, 4).faults(faults));
    assert_eq!(r.fleet.devices_lost, 1);
    assert!(r.fleet.migrations >= 1);
    assert_eq!(pin, (0x97de_bc39_f2a8_55bc, 8398));
}

#[test]
fn bounded_queue_overload() {
    let (r, pin) = pinned(canonical(1, 2).queue_limit(Some(2)));
    assert!(r.fleet.shed_jobs > 0);
    assert!(r.events.iter().any(|e| matches!(
        &e.kind,
        FleetEventKind::Shed { reason, .. } if reason.contains("queue full")
    )));
    assert_eq!(pin, (0x23c8_4f6a_574a_796d, 6713));
}

#[test]
fn flapping_device_exhausts_the_retry_budget() {
    let flap = |at_ns| TimedDeviceFault::Down {
        at_ns,
        duration_ns: 1_000_000_000,
    };
    let faults = FleetFaultPlan::none(0)
        .with_timed_fault(0, flap(100_000_000))
        .with_timed_fault(0, flap(1_200_000_000))
        .with_timed_fault(0, flap(2_500_000_000));
    let jobs = vec![Workload::mixed(8).into_jobs().remove(0)];
    let (r, pin) = pinned(
        Cluster::builder()
            .devices(DevicePool::v100(1))
            .workload(Workload::custom(jobs))
            .faults(faults)
            .max_retries(1),
    );
    assert!(
        matches!(&r.jobs[0].outcome, JobOutcome::Failed(reason) if reason.contains("retry budget")),
        "{:?}",
        r.jobs[0].outcome
    );
    // A job failed by its retry budget still ended on device 0.
    assert_eq!(r.devices[0].jobs_run, 1);
    assert_eq!(pin, (0x6d98_d6dc_0d08_9d6e, 3231));
}

#[test]
fn every_device_lost() {
    let faults = FleetFaultPlan::none(0)
        .with_timed_fault(0, TimedDeviceFault::Lost { at_ns: 100_000_000 })
        .with_timed_fault(1, TimedDeviceFault::Lost { at_ns: 100_000_000 });
    let (r, pin) = pinned(canonical(2, 4).faults(faults));
    assert_eq!(r.fleet.devices_lost, 2);
    assert_eq!(r.fleet.shed_jobs, r.jobs.len());
    // Queued jobs shed at the loss; jobs caught mid-run shed at their
    // boundary, carrying the evidence of the iterations they ran.
    assert!(r.jobs.iter().any(|j| j.iters == 0));
    assert!(r.jobs.iter().any(|j| j.iters > 0));
    assert_eq!(pin, (0x0a61_ab47_dfaf_27a2, 7560));
}

#[test]
fn capacity_collapse() {
    let faults = FleetFaultPlan::none(0).with_timed_fault(
        0,
        TimedDeviceFault::CapacityCollapse {
            at_ns: 0,
            duration_ns: 2_000_000_000,
            factor: 0.3,
        },
    );
    let (r, pin) = pinned(canonical(2, 2).faults(faults));
    assert!(r.jobs.iter().all(|j| j.outcome.finished()));
    assert!(r
        .jobs
        .iter()
        .any(|j| j.demoted && j.admission_reason.is_some()));
    assert_eq!(pin, (0xcad0_fc4b_a313_c310, 8066));
}
