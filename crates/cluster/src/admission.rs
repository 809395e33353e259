//! Admission control: decide whether a job's next iteration fits a device
//! *before* dispatching it, using the policy's predicted peak and the
//! all-checkpoint floor submission derived from the residency engine's
//! what-if queries — the fleet-level analogue of the planner's
//! per-iteration budget check.

use mimose_verify::SafetyCertificate;

/// What the controller decided for one dispatch. Dispatch never rejects:
/// the dispatch pass only offers a device whose usable capacity holds the
/// job's all-checkpoint floor, and a job no device can hold is rejected at
/// submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// The predicted peak fits under the device's headroom-discounted
    /// capacity: dispatch as-is.
    Admit,
    /// The prediction exceeds capacity but checkpointing more can bring
    /// the peak under it (per the residency model): dispatch with the
    /// recovery ladder armed so in-place demotion enforces the fit.
    Demote {
        /// The analytic peak the all-checkpoint configuration needs —
        /// the floor demotion can reach.
        floor: usize,
    },
}

impl AdmissionDecision {
    /// Human-readable explanation of a demotion, for the fleet report:
    /// *why* a job was demoted, with the concrete numbers the controller
    /// compared. `None` for a plain admit. `predicted_peak` and `usable`
    /// are the values the decision was made against.
    #[must_use]
    pub fn reason(&self, predicted_peak: usize, usable: usize) -> Option<String> {
        match self {
            AdmissionDecision::Admit => None,
            AdmissionDecision::Demote { floor } => Some(format!(
                "predicted peak {predicted_peak} B exceeds usable capacity {usable} B; \
                 dispatched with the recovery ladder armed toward the \
                 {floor} B all-checkpoint floor"
            )),
        }
    }
}

/// Running tally of admission outcomes and prediction quality — the
/// "admission accuracy" block of the cluster report.
#[derive(Debug, Clone, Default)]
pub struct AdmissionStats {
    /// Dispatch decisions that admitted the job as-is: first dispatches
    /// plus migrations.
    pub admitted: usize,
    /// The subset of `admitted` backed by a static safety certificate: the
    /// verifier's sound peak bound (not just the policy's point prediction)
    /// fits the device, so the admit can never be contradicted by any input
    /// size the certificate's bucket covers.
    pub verified_admits: usize,
    /// Dispatch decisions that armed demotion: first dispatches plus
    /// migrations.
    pub demoted: usize,
    /// Jobs rejected at submission because their all-checkpoint floor
    /// exceeds every device in the pool.
    pub rejected: usize,
    /// Job-epochs spent waiting because no device was free or admissible:
    /// the queued and displaced jobs left over after each event-loop
    /// epoch's dispatch pass, summed over epochs.
    pub deferred_rounds: usize,
    /// Predictions scored against an executed peak.
    pub predictions: usize,
    /// Predictions within ±10 % of the executed peak.
    pub within_10pct: usize,
    /// Sum of |predicted − actual| / actual over scored predictions,
    /// in 1e-4 units (kept integral so reports serialize exactly).
    pub abs_rel_err_sum_e4: u64,
}

impl AdmissionStats {
    /// Mean absolute relative prediction error, percent.
    #[must_use]
    pub fn mean_abs_rel_err_pct(&self) -> f64 {
        if self.predictions == 0 {
            return 0.0;
        }
        (self.abs_rel_err_sum_e4 as f64 / self.predictions as f64) / 100.0
    }

    /// Score one executed iteration against its admission-time prediction.
    pub fn score(&mut self, predicted: usize, actual: usize) {
        if actual == 0 {
            return;
        }
        self.predictions += 1;
        let err = predicted.abs_diff(actual) as f64 / actual as f64;
        if err <= 0.10 {
            self.within_10pct += 1;
        }
        self.abs_rel_err_sum_e4 += (err * 10_000.0) as u64;
    }
}

/// The admission controller: stateless decision function plus the fleet's
/// accuracy tally.
#[derive(Debug, Clone, Default)]
pub struct AdmissionController {
    /// Outcome tally.
    pub stats: AdmissionStats,
}

impl AdmissionController {
    /// Decide whether an iteration predicted to peak at `predicted_peak`
    /// bytes fits a device offering `usable` bytes (its capacity less the
    /// fleet's headroom), given the job's all-checkpoint `floor`, which the
    /// caller has already checked fits `usable`.
    ///
    /// A static safety certificate is consulted first: when the verifier's
    /// sound peak bound fits the usable capacity, the admit is *statically
    /// verified* — it holds for every input size in the certificate's
    /// bucket, not just the predicted one — and is scored separately in
    /// `stats.verified_admits`. Otherwise a prediction over the usable
    /// capacity demotes toward the floor.
    pub fn decide_certified(
        &mut self,
        predicted_peak: usize,
        floor: usize,
        usable: usize,
        certificate: Option<&SafetyCertificate>,
    ) -> AdmissionDecision {
        if certificate.is_some_and(|cert| cert.fits(usable)) {
            self.stats.verified_admits += 1;
        } else if predicted_peak > usable {
            self.stats.demoted += 1;
            return AdmissionDecision::Demote { floor };
        }
        self.stats.admitted += 1;
        AdmissionDecision::Admit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimose_models::builders::{bert_base, BertHead};
    use mimose_models::ModelInput;
    use mimose_planner::memory_model::min_feasible_budget;
    use mimose_simgpu::DeviceProfile;

    /// A V100 under the fleet's default 0.95 headroom.
    fn usable_v100() -> usize {
        (DeviceProfile::v100().total_mem_bytes as f64 * 0.95) as usize
    }

    #[test]
    fn decisions_cover_admit_and_demote() {
        let m = bert_base(BertHead::Classification { labels: 2 });
        let p = m.profile(&ModelInput::tokens(32, 256)).unwrap();
        let floor = min_feasible_budget(&p);
        let usable = usable_v100();
        assert!(floor <= usable);
        let mut ctl = AdmissionController::default();

        // Small prediction → admit.
        assert_eq!(
            ctl.decide_certified(1 << 30, floor, usable, None),
            AdmissionDecision::Admit
        );
        // Over-capacity prediction but checkpointing can save it → demote.
        assert_eq!(
            ctl.decide_certified(usable + 1, floor, usable, None),
            AdmissionDecision::Demote { floor }
        );
        assert_eq!(ctl.stats.admitted, 1);
        assert_eq!(ctl.stats.demoted, 1);
        assert_eq!(ctl.stats.rejected, 0);
    }

    #[test]
    fn graph_passes_flip_demote_to_admit() {
        // A device sized between the raw graph's predicted peak and the
        // optimized graph's: without the pass pipeline the job demotes,
        // with it the identical job admits outright.
        let opt = bert_base(BertHead::Classification { labels: 2 }).optimize();
        let input = ModelInput::tokens(32, 256);
        let raw_peak = opt.raw_profile(&input).unwrap().peak_no_checkpoint();
        let opt_peak = opt.profile(&input).unwrap().peak_no_checkpoint();
        assert!(opt_peak < raw_peak, "passes saved nothing on BERT");

        let floor = min_feasible_budget(&opt.profile(&input).unwrap());
        let mid = (raw_peak + opt_peak) / 2;
        let mut ctl = AdmissionController::default();

        match ctl.decide_certified(raw_peak, floor, mid, None) {
            AdmissionDecision::Demote { .. } => {}
            other => panic!("raw peak should demote, got {other:?}"),
        }
        assert_eq!(
            ctl.decide_certified(opt_peak, floor, mid, None),
            AdmissionDecision::Admit
        );
    }

    #[test]
    fn certified_admits_are_scored_separately() {
        use mimose_verify::{certify, SizeBucket};
        let m = bert_base(BertHead::Classification { labels: 2 });
        let p = m.profile(&ModelInput::tokens(32, 256)).unwrap();
        let floor = min_feasible_budget(&p);
        let usable = usable_v100();
        let mut ctl = AdmissionController::default();

        // A sound none-plan certificate under the usable capacity turns an
        // over-predicted job into a verified admit: the bound, not the
        // prediction, is what counts.
        let none = mimose_planner::CheckpointPlan::none(p.blocks.len());
        let bucket = SizeBucket::new(1, p.input_size);
        let cert = certify(std::slice::from_ref(&p), &none, bucket, usable).unwrap();
        assert_eq!(
            ctl.decide_certified(usable + 1, floor, usable, Some(&cert)),
            AdmissionDecision::Admit
        );
        assert_eq!(ctl.stats.admitted, 1);
        assert_eq!(ctl.stats.verified_admits, 1);

        // A certificate whose bound exceeds capacity falls back to the
        // predicted-peak path: small prediction still admits, unverified.
        let mut big = cert;
        big.peak_upper_bound = usable + 1;
        assert_eq!(
            ctl.decide_certified(1 << 30, floor, usable, Some(&big)),
            AdmissionDecision::Admit
        );
        assert_eq!(ctl.stats.admitted, 2);
        assert_eq!(ctl.stats.verified_admits, 1);

        // No certificate at all: the predicted-peak path alone.
        assert_eq!(
            ctl.decide_certified(1 << 30, floor, usable, None),
            AdmissionDecision::Admit
        );
        assert_eq!(ctl.stats.verified_admits, 1);
    }

    #[test]
    fn reasons_explain_demotion_with_numbers() {
        assert_eq!(AdmissionDecision::Admit.reason(10, 20), None);
        let demote = AdmissionDecision::Demote { floor: 512 }
            .reason(2048, 1024)
            .unwrap();
        assert!(demote.contains("2048 B"), "{demote}");
        assert!(demote.contains("1024 B"), "{demote}");
        assert!(demote.contains("512 B"), "{demote}");
    }

    #[test]
    fn accuracy_scoring_tracks_relative_error() {
        let mut stats = AdmissionStats::default();
        stats.score(100, 100); // exact
        stats.score(109, 100); // within 10 %
        stats.score(150, 100); // off by 50 %
        assert_eq!(stats.predictions, 3);
        assert_eq!(stats.within_10pct, 2);
        let mean = stats.mean_abs_rel_err_pct();
        assert!((mean - (0.0 + 9.0 + 50.0) / 3.0).abs() < 0.1, "{mean}");
    }
}
