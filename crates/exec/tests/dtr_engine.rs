//! Behavioural tests of the DTR tensor engine, driven through the public
//! API only.

use mimose_exec::DtrIteration;
use mimose_models::builders::{roberta_base, BertHead};
use mimose_models::{ModelInput, ModelProfile};
use mimose_runtime::fold_events;
use mimose_simgpu::DeviceProfile;

fn profile(seq: usize) -> ModelProfile {
    roberta_base(BertHead::Classification { labels: 1 })
        .profile(&ModelInput::tokens(64, seq))
        .unwrap()
}

#[test]
fn loose_budget_needs_no_evictions() {
    let p = profile(100);
    let r = DtrIteration::new(&p, 14 << 30).capacity(16 << 30).run();
    assert!(r.ok());
    assert_eq!(r.dropped_units, 0);
    assert_eq!(r.time.recompute_ns, 0);
}

#[test]
fn tight_budget_evicts_and_recomputes() {
    let p = profile(128);
    let loose = DtrIteration::new(&p, 14 << 30).capacity(16 << 30).run();
    let tight = DtrIteration::new(&p, 5 << 30).capacity(16 << 30).run();
    assert!(tight.ok(), "tight run OOMed: {:?}", tight.oom);
    assert!(tight.dropped_units > 0);
    assert!(tight.time.recompute_ns > 0);
    assert!(tight.time.total_ns() > loose.time.total_ns());
    // Logical usage respects the budget.
    assert!(tight.peak_bytes <= 5 << 30);
}

#[test]
fn bookkeeping_overhead_exists_even_without_evictions() {
    // §III-B: "such overhead exists even without any activation tensor
    // dropped".
    let p = profile(80);
    let r = DtrIteration::new(&p, 14 << 30).capacity(16 << 30).run();
    assert!(r.time.bookkeeping_ns > 0);
    let frac = r.time.bookkeeping_ns as f64 / r.time.total_ns() as f64;
    assert!(frac > 0.05, "bookkeeping fraction too small: {frac}");
}

#[test]
fn infeasible_budget_reports_oom() {
    let p = profile(128);
    let r = DtrIteration::new(&p, 1 << 30).capacity(16 << 30).run();
    assert!(!r.ok());
}

#[test]
fn metadata_charge_is_uniform_across_every_slot_touch() {
    // §III-B: DTR maintains per-tensor runtime metadata on *every* slot
    // touch — creation, access (hit or miss in the backward pass) and
    // eviction — not only on the touches that happen to hit a resident
    // tensor. This pins the charge accounting exactly: each slot is touched
    // once at creation and once by its backward materialisation, and every
    // eviction adds one more.
    let p = profile(128);
    let dev = DeviceProfile::v100();
    let meta = dev.dtr_meta_ns_per_tensor as u64;
    let total_slots: usize = p.blocks.iter().map(|b| b.tensors.len() + 1).sum();

    let loose = DtrIteration::new(&p, 14 << 30).capacity(16 << 30).run();
    assert_eq!(loose.dropped_units, 0);
    assert_eq!(
        loose.time.bookkeeping_ns,
        meta * 2 * total_slots as u64,
        "creation + backward access, uniformly charged"
    );

    let tight = DtrIteration::new(&p, 5 << 30).capacity(16 << 30).run();
    assert!(tight.dropped_units > 0);
    assert_eq!(
        tight.time.bookkeeping_ns,
        meta * (2 * total_slots + tight.dropped_units) as u64,
        "each eviction is one extra metadata touch"
    );
}

#[test]
fn recorded_stream_folds_back_to_the_report() {
    let p = profile(100);
    let capacity = 16usize << 30;
    let (report, events, stats) = DtrIteration::new(&p, 6 << 30)
        .capacity(capacity)
        .run_recorded();
    assert!(report.ok());
    let f = fold_events(capacity, &events);
    assert_eq!(f.time, report.time);
    assert_eq!(f.peak_used, report.peak_bytes);
    assert_eq!(f.report_extent(), report.peak_extent);
    assert_eq!(f.allocs, stats.allocs);
    assert_eq!(f.frees, stats.frees);
}
