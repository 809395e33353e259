//! Fixture pin: `ClusterReport::to_json()` on three canonical specs hashes
//! to committed FNV-1a values, so any change to the fleet driver that
//! moves a single byte of a report — an event, a timestamp, a rollup
//! digit — fails here. The specs cover the batch world (every job present
//! at `t = 0`), the serving world (Poisson arrivals) and the failure
//! protocol (a timed permanent device loss mid-run).

use mimose_chaos::{FleetFaultPlan, TimedDeviceFault};
use mimose_cluster::{
    ArrivalProcess, Cluster, ClusterBuilder, ClusterReport, DevicePool, Workload,
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
