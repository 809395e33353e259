//! End-to-end integration: every planner runs every Table II task without
//! panicking, Mimose honours its budget and beats the static baseline on
//! dynamic workloads, and the whole simulation is deterministic.

use mimose::core::{MimoseConfig, MimosePolicy};
use mimose::exec::Session;
use mimose::planner::MemoryPolicy;
use mimose_exp::planners::{build_policy, PlannerKind};
use mimose_exp::tasks::Task;

/// A session over `task`'s model and dataset.
fn session<'a>(task: &'a Task, policy: impl MemoryPolicy + 'a, seed: u64) -> Session<'a> {
    Session::builder(&task.model, &task.dataset)
        .policy(policy)
        .seed(seed)
        .build()
        .unwrap()
}

#[test]
fn every_planner_runs_every_task() {
    for task in Task::all() {
        let budget = if task.abbr.starts_with("OD") {
            14usize << 30
        } else {
            6 << 30
        };
        for kind in PlannerKind::comparison_set() {
            let mut policy = build_policy(kind, &task, budget);
            let mut tr = session(&task, policy.as_mut(), 13);
            let s = tr.run_summary(25).unwrap();
            assert!(s.total_ns > 0, "{} / {}", task.abbr, kind.name());
            // Some planners legitimately OOM (static plans on OD); the run
            // itself must still complete and account its time.
            assert_eq!(s.iters, 25, "{} / {}", task.abbr, kind.name());
        }
    }
}

#[test]
fn mimose_honours_budget_on_all_nlp_tasks() {
    for task in Task::nlp() {
        let budget = 6usize << 30;
        let mut policy = MimosePolicy::new(MimoseConfig::with_budget(budget));
        let mut tr = session(&task, &mut policy, 29);
        for r in tr.run(80).unwrap() {
            assert!(r.ok(), "{}: OOM at iter {}", task.abbr, r.iter);
            assert!(
                r.peak_bytes <= budget,
                "{}: peak {} MiB over budget at iter {}",
                task.abbr,
                r.peak_bytes >> 20,
                r.iter
            );
        }
    }
}

#[test]
fn mimose_beats_sublinear_on_every_nlp_task() {
    // The headline claim (≈18 % over Sublinear) must at least hold in
    // direction on every dynamic-input task at a mid budget.
    for task in Task::nlp() {
        let budget = 6usize << 30;
        let iters = 150;
        let total = |kind: PlannerKind| {
            let mut policy = build_policy(kind, &task, budget);
            let mut tr = session(&task, policy.as_mut(), 55);
            tr.run_summary(iters).unwrap().total_ns
        };
        let mim = total(PlannerKind::Mimose);
        let sub = total(PlannerKind::Sublinear);
        assert!(
            mim < sub,
            "{}: mimose {} ms !< sublinear {} ms",
            task.abbr,
            mim / 1_000_000,
            sub / 1_000_000
        );
    }
}

#[test]
fn simulation_is_deterministic() {
    let task = Task::tc_bert();
    let run = || {
        let mut policy = build_policy(PlannerKind::Sublinear, &task, 5 << 30);
        let mut tr = session(&task, policy.as_mut(), 1234);
        let s = tr.run_summary(60).unwrap();
        (s.total_ns, s.max_peak_bytes, s.max_frag_bytes)
    };
    assert_eq!(run(), run(), "virtual-time simulation must be bit-stable");
}

#[test]
fn dtr_budget_violations_are_visible() {
    // Fig 5: DTR's nominal budget is respected logically but the reserved
    // footprint exceeds it.
    let task = Task::mc_roberta();
    let budget = (4.5 * (1u64 << 30) as f64) as usize;
    let mut policy = build_policy(PlannerKind::Dtr, &task, budget);
    let mut tr = session(&task, policy.as_mut(), 77);
    let s = tr.run_summary(60).unwrap();
    assert!(s.max_peak_bytes <= budget, "logical usage over budget");
    assert!(
        s.max_peak_extent > budget,
        "expected reserved footprint ({} MiB) above the nominal budget",
        s.max_peak_extent >> 20
    );
}

#[test]
fn knapsack_scheduler_is_a_working_alternative() {
    let task = Task::tc_bert();
    let budget = 5usize << 30;
    let mut policy = build_policy(PlannerKind::MimoseKnapsack, &task, budget);
    let mut tr = session(&task, policy.as_mut(), 21);
    let s = tr.run_summary(80).unwrap();
    assert_eq!(s.oom_iters, 0);
    assert!(s.max_peak_bytes <= budget);
}

#[test]
fn capuchin_hybrid_runs_within_budget() {
    use mimose::planner::{BlockAction, CapuchinPolicy};
    use mimose::simgpu::DeviceProfile;
    let task = Task::tc_bert();
    let budget = 5usize << 30;
    let worst = task.worst_profile();
    let mut policy = CapuchinPolicy::plan_offline(&worst, budget, &DeviceProfile::v100());
    assert!(policy.is_feasible());
    let actions = policy.plan().clone();
    let mut tr = session(&task, &mut policy, 41);
    let s = tr.run_summary(60).unwrap();
    assert_eq!(s.oom_iters, 0);
    assert!(s.max_peak_bytes <= budget);
    // At V100 PCIe bandwidth the plan should recompute, not swap (§I).
    assert!(actions.count(BlockAction::Recompute) >= actions.count(BlockAction::Swap));
}

#[test]
fn adaptive_mimose_matches_base_on_stationary_data() {
    use mimose::core::{MimoseConfig, MimosePolicy};
    // With a stationary, tightly-bounded input distribution (SWAG's clipped
    // normal) the adaptive extensions must not change behaviour: the first
    // ten draws cover the support, so no re-collection triggers.
    let task = Task::mc_roberta();
    let budget = 6usize << 30;
    let mut pol = MimosePolicy::new(MimoseConfig::with_budget_adaptive(budget));
    let s = session(&task, &mut pol, 19).run_summary(120).unwrap();
    assert_eq!(s.oom_iters, 0);
    assert!(s.max_peak_bytes <= budget);
    assert_eq!(pol.stats().recollections, 0, "stationary data re-collected");
}

#[test]
fn csv_export_round_trips_run_length() {
    use mimose_exp::csv::iterations_to_csv;
    let task = Task::qa_bert();
    let mut policy = build_policy(PlannerKind::Mimose, &task, 6 << 30);
    let mut tr = session(&task, policy.as_mut(), 5);
    let reports = tr.run(30).unwrap();
    let csv = iterations_to_csv(&reports);
    assert_eq!(csv.lines().count(), 31);
}
