//! Benchmark suites for the planning hot path, the arena and the recorded
//! iteration; `bench_report` writes them to `BENCH_planner.json`,
//! `BENCH_arena.json` and `BENCH_runtime.json`.
//!
//! Rows named `*_after` keep the suffix from when each had a frozen
//! pre-optimisation twin; those copies are deleted and their last medians
//! are recorded in `CHANGES.md`. The O(L) `*_reference` peak walks in
//! `mimose-planner` stay as the differential-test oracles.

use crate::harness::{BatchSize, BenchMeta, Criterion};
use crate::synthetic_profile;
use mimose_core::{repair_plan, GreedyBucketScheduler, KnapsackScheduler, RepairConfig, Scheduler};
use mimose_exec::BlockIteration;
use mimose_models::{BlockProfile, ModelInput, ModelProfile};
use mimose_planner::memory_model::peak_bytes;
use mimose_planner::{CheckmatePolicy, CheckpointPlan, MonetPolicy};
use mimose_runtime::{EventLog, NullRecorder, Recorder};
use mimose_simgpu::{AllocId, AllocPolicy, Arena, DeviceProfile};
use mimose_verify::{certify, plan_hash, SizeBucket};
use std::hint::black_box;

/// Pick a budget just above the all-checkpointed floor — Mimose's operating
/// regime (the paper evaluates near the minimum feasible budget). On the
/// spiked synthetic profile this makes the attention spike the binding
/// peak, so feasibility hinges on the small early blocks the greedy order
/// ranks last, and the planners' feasibility oracle becomes the hot path.
fn tight_budget(p: &ModelProfile) -> usize {
    let n = p.blocks.len();
    let hi = peak_bytes(p, &CheckpointPlan::none(n));
    let lo = peak_bytes(p, &CheckpointPlan::all(n));
    lo + (hi - lo) / 256
}

/// Planner hot-path suite at 512- and 1024-block synthetic profiles (the
/// scales where an O(L) walk per candidate would dominate).
pub fn planner_suite(c: &mut Criterion) {
    planner_group(c, 512);
    planner_group(c, 1024);
}

fn planner_group(c: &mut Criterion, l: usize) {
    let p = synthetic_profile(l);
    let budget = tight_budget(&p);
    let meta = BenchMeta {
        blocks: Some(l),
        ops_per_iter: None,
    };

    assert!(
        peak_bytes(&p, &GreedyBucketScheduler::new(0.10).schedule(&p, budget)) <= budget,
        "production greedy produced an infeasible plan"
    );

    let mut g = c.benchmark_group(&format!("planner_solve_synthetic_{l}"));
    g.bench_function_with("greedy_after", meta, |b| {
        let s = GreedyBucketScheduler::new(0.10);
        b.iter(|| black_box(s.schedule(black_box(&p), budget)))
    });
    g.bench_function_with("knapsack_after", meta, |b| {
        let s = KnapsackScheduler;
        b.iter(|| black_box(s.schedule(black_box(&p), budget)))
    });
    g.bench_function_with("monet_after", meta, |b| {
        b.iter(|| black_box(MonetPolicy::plan_offline(black_box(&p), budget)))
    });
    // The seed checkmate is O(L^3)-ish at these scales — minutes per solve —
    // so only the rewired planner is benched.
    g.bench_function_with("checkmate_after", meta, |b| {
        b.iter(|| black_box(CheckmatePolicy::plan_offline(black_box(&p), budget)))
    });
    // The certificate check a certified plan-cache bucket hit performs in
    // place of a planner re-solve: covers + fits + hash compare. Its cost
    // is the whole point of insert-time certification — it must sit orders
    // of magnitude under the greedy solve it replaces.
    let plan = GreedyBucketScheduler::new(0.10).schedule(&p, budget);
    let cert = certify(
        std::slice::from_ref(&p),
        &plan,
        SizeBucket::new(p.input_size, p.input_size),
        budget,
    )
    .expect("feasible plan certifies");
    let hash = plan_hash(&plan);
    g.bench_function_with("certificate_check_hit", meta, |b| {
        b.iter(|| {
            black_box(
                cert.covers(black_box(p.input_size))
                    && cert.fits(black_box(budget))
                    && cert.matches_hash(black_box(hash)),
            )
        })
    });
    // The ladder's middle rung on a bucket miss: repair the neighboring
    // bucket's cached plan (a handful of residency flips against the
    // incremental model) versus `cold_miss`, the bottom rung's full greedy
    // re-solve on the same profile. The acceptance criterion pins repair
    // ≥10× under cold at L = 1024. The scenario runs on the uniform-
    // intensity stack rather than the spiked profile: repair's quality
    // gate proves its result against the covering lower bound, and on the
    // adversarial spike that bound is ~20 % below what any integral plan
    // can reach, so the policy (correctly) refuses the rung there and
    // falls back cold. Uniform transformer stacks — the common case the
    // cache ladder exists for — are where the middle rung engages.
    let up = uniform_profile(l);
    let ubudget = near_floor_budget(&up, 1024);
    let donor_p = scaled_profile(&up, 100, 105); // ~5 % smaller neighbor bucket
    let donor =
        GreedyBucketScheduler::new(0.10).schedule(&donor_p, near_floor_budget(&donor_p, 1024));
    let repair_cfg = RepairConfig::default();
    assert!(
        repair_plan(&up, &donor, ubudget, &repair_cfg).is_some(),
        "repair bench scenario must actually take the repair rung"
    );
    g.bench_function_with("repair_hit", meta, |b| {
        b.iter(|| {
            black_box(repair_plan(
                black_box(&up),
                black_box(&donor),
                ubudget,
                &repair_cfg,
            ))
        })
    });
    g.bench_function_with("cold_miss", meta, |b| {
        let s = GreedyBucketScheduler::new(0.10);
        b.iter(|| black_box(s.schedule(black_box(&up), ubudget)))
    });
    g.finish();
}

/// A budget `1/denom` of the way up from the all-checkpointed floor — the
/// near-minimum operating regime, parameterized so the repair scenario can
/// leave the trim pass a realistic margin.
fn near_floor_budget(p: &ModelProfile, denom: usize) -> usize {
    let n = p.blocks.len();
    let hi = peak_bytes(p, &CheckpointPlan::none(n));
    let lo = peak_bytes(p, &CheckpointPlan::all(n));
    lo + (hi - lo) / denom
}

/// A uniform transformer stack: every block shares one arithmetic
/// intensity (flops per activation byte), as identical decoder layers do.
/// On this shape the covering lower bound is tight, so the repair quality
/// gate engages — the scenario the plan-cache ladder is built for.
fn uniform_profile(l: usize) -> ModelProfile {
    let blocks = (0..l)
        .map(|i| {
            let act = (8usize << 20) + (i % 7) * (1 << 20); // 8–14 MiB
            BlockProfile {
                name: format!("layer{i}"),
                stage: 0,
                index: i,
                act_bytes: act,
                out_bytes: 4 << 20,
                in_bytes: 4 << 20,
                fwd_flops: act as f64 * 128.0,
                bwd_flops: act as f64 * 256.0,
                fwd_bytes_moved: act + (8 << 20),
                tensors: Vec::new(),
            }
        })
        .collect();
    ModelProfile {
        model: "uniform".into(),
        input: ModelInput::tokens(8, 2048),
        input_size: 2048,
        blocks,
        const_bytes: 2 << 30,
        param_count: 0,
        input_bytes: 8 << 20,
    }
}

/// The neighbor-bucket profile a repair starts from: every size-dependent
/// tensor field scaled by `num/den`, the way the estimator's fitted
/// polynomials move between adjacent buckets.
fn scaled_profile(p: &ModelProfile, num: usize, den: usize) -> ModelProfile {
    let mut q = p.clone();
    for b in &mut q.blocks {
        b.act_bytes = b.act_bytes * num / den;
        b.out_bytes = b.out_bytes * num / den;
        b.in_bytes = b.in_bytes * num / den;
        b.fwd_flops = b.fwd_flops * num as f64 / den as f64;
        b.fwd_bytes_moved = b.fwd_bytes_moved * num / den;
    }
    q.input_size = p.input_size * num / den;
    q
}

/// Recorded-iteration suite: one block-engine iteration (TC-Bert, seq 200,
/// alternating plan) driven through [`BlockIteration::run_into`] with each
/// recorder, plus the isolated per-event record cost on the captured
/// stream. The simulated engine does only ~100 ns of bookkeeping per
/// event, so even `EventLog`'s raw push shows up at ~10 %; CI bounds the
/// event log at 1.5× null (see the recorder-overhead step in ci.yml), and
/// the `runtime_record_cost` group carries the exact per-event number.
///
/// # Panics
/// Panics only if the fixture plan indices fall out of range for the
/// profile (impossible for the pinned TC-Bert shape).
pub fn runtime_suite(c: &mut Criterion) {
    let p = crate::tc_bert_profile(200);
    let n = p.blocks.len();
    let plan = CheckpointPlan::from_indices(n, &[1, 3, 5, 7, 9]).expect("indices in range");
    let dev = DeviceProfile::v100();
    let cap = 64usize << 30;
    let meta = BenchMeta {
        blocks: Some(n),
        ops_per_iter: None,
    };
    let mut g = c.benchmark_group("runtime_recorded_iteration");
    g.bench_function_with("null", meta, |b| {
        let mut rec = NullRecorder;
        b.iter(|| {
            black_box(
                BlockIteration::plan(&p, &plan)
                    .device(&dev)
                    .capacity(cap)
                    .run_into(&mut rec),
            )
        })
    });
    g.bench_function_with("event_log", meta, |b| {
        let mut log = EventLog::new();
        b.iter(|| {
            log.events.clear();
            black_box(
                BlockIteration::plan(&p, &plan)
                    .device(&dev)
                    .capacity(cap)
                    .run_into(&mut log),
            )
        })
    });
    g.finish();

    // Pure record cost, isolated from the engine: replay the captured
    // per-iteration stream into each recorder. `ops_per_iter` makes the
    // JSON's per-event cost exact (the in-situ numbers above fold the
    // engine's own ~100 ns/event of bookkeeping into the denominator).
    let mut log = EventLog::new();
    let _ = BlockIteration::plan(&p, &plan)
        .device(&dev)
        .capacity(cap)
        .run_into(&mut log);
    let stream = log.events;
    let ops = BenchMeta {
        blocks: Some(n),
        ops_per_iter: Some(stream.len() as u64),
    };
    let mut g = c.benchmark_group("runtime_record_cost");
    g.bench_function_with("event_log", ops, |b| {
        let mut log = EventLog::new();
        b.iter(|| {
            log.events.clear();
            for ev in &stream {
                log.record(black_box(ev));
            }
            black_box(log.events.len())
        })
    });
    g.finish();
}

/// Number of allocator calls `frag_heavy` makes (for ops/sec reporting).
pub const FRAG_HEAVY_OPS: u64 = {
    // Phase 1: 768 allocs; phase 2: 384 frees; phase 3: 512 allocs;
    // phase 4: 384 + 512 frees.
    768 + 384 + 512 + 384 + 512
};

/// Fragmentation-heavy allocator workload: a broad carve phase, a hole-punching phase that leaves ~384 free ranges, a
/// small-object phase that must hunt through those holes, then a full
/// teardown. Deterministic sizes (index arithmetic, no RNG).
fn frag_heavy(a: &mut Arena) {
    let mut live: Vec<Option<AllocId>> = Vec::with_capacity(768);
    // Phase 1: 768 varied allocations (~4 KiB .. ~768 KiB).
    for i in 0..768usize {
        let sz = 4096 + (i * 7919) % (768 << 10);
        live.push(Some(a.alloc(sz).expect("phase 1 fits")));
    }
    // Phase 2: free every other one — ~384 non-adjacent holes.
    for slot in live.iter_mut().step_by(2) {
        a.free(slot.take().expect("live"));
    }
    // Phase 3: 512 small allocations that must search the hole field.
    let mut small: Vec<AllocId> = Vec::with_capacity(512);
    for i in 0..512usize {
        let sz = 1024 + (i * 104_729) % (12 << 10);
        small.push(a.alloc(sz).expect("phase 3 fits"));
    }
    // Phase 4: tear down everything still live.
    for slot in live.iter_mut() {
        if let Some(id) = slot.take() {
            a.free(id);
        }
    }
    for id in small {
        a.free(id);
    }
}

/// Arena suite: the size-indexed arena on the fragmentation-heavy
/// workload, both fit policies.
pub fn arena_suite(c: &mut Criterion) {
    const CAP: usize = 1 << 30;
    let meta = BenchMeta {
        blocks: None,
        ops_per_iter: Some(FRAG_HEAVY_OPS),
    };
    let mut g = c.benchmark_group("arena_frag_heavy");
    g.bench_function_with("first_fit_after", meta, |b| {
        b.iter_batched_ref(
            || Arena::with_policy(CAP, AllocPolicy::FirstFit),
            frag_heavy,
            BatchSize::SmallInput,
        )
    });
    g.bench_function_with("best_fit_after", meta, |b| {
        b.iter_batched_ref(
            || Arena::with_policy(CAP, AllocPolicy::BestFit),
            frag_heavy,
            BatchSize::SmallInput,
        )
    });
    g.finish();
}
