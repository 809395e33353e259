//! A leg shared by the `cluster` and `serve` gates: the fleet driver adds
//! orchestration, never behavior.

use mimose_cluster::{Cluster, DevicePool, JobPolicy, JobSpec, Workload};
use mimose_data::presets;
use mimose_exec::Session;
use mimose_models::builders::{bert_base, BertHead};
use mimose_planner::PolicyKind;
use mimose_simgpu::DeviceProfile;

/// Run one BERT/QQP sublinear job for `iters` iterations both as a
/// 1-job/1-device fleet and directly through [`Session::run`]; true when
/// the per-iteration reports and the run summaries are identical.
///
/// # Panics
///
/// When the canonical job cannot be built or run at all.
#[must_use]
pub fn fleet_matches_session(iters: usize) -> bool {
    let model = bert_base(BertHead::Classification { labels: 2 }).optimize();
    let dataset = presets::glue_qqp();
    let device = DeviceProfile::v100();
    let kind = PolicyKind::Sublinear;
    let budget = 6usize << 30;
    let seed = 7;
    let job = JobSpec::new(
        "solo",
        model.clone(),
        dataset.clone(),
        JobPolicy::Planner(kind, budget),
        iters,
        seed,
    );
    let outcome = Cluster::builder()
        .devices(DevicePool::custom(vec![device.clone()]))
        .workload(Workload::custom(vec![job]))
        .run()
        .expect("1-job spec is well-formed");
    let worst = model.profile(&dataset.worst_case()).expect("profiles");
    let mut session = Session::builder(&model, &dataset)
        .policy_boxed(kind.build_on(&worst, budget, &device))
        .device(device)
        .seed(seed)
        .build()
        .expect("session builds");
    let reports = session.run(iters).expect("session runs");
    format!("{:?}", outcome.details[0].reports) == format!("{reports:?}")
        && format!("{:?}", outcome.details[0].summary) == format!("{:?}", session.summary())
}
