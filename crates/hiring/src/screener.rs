//! The screener: two implementations of the loop's AI-system block.
//!
//! * [`AdaptiveScreener`] — the retrained logistic screener: hire
//!   everyone for a warmup period, then refit a logistic model each round
//!   on `(track_record, credential)` over past placements and hire by
//!   cut-off — the hiring analog of the paper's scorecard lender. The
//!   learning is the shared [`RetrainedLogistic`], the same one the
//!   credit lender uses; this type adds the warmup and the cut-off;
//! * [`CredentialScreener`] — the "most equal treatment" baseline: hire
//!   exactly the credentialed, forever. Identical treatment of identical
//!   visible features, unequal impact across races because credential
//!   rates differ.
//!
//! The broadcast signal `π(k, i)` is `1.0` (offer) or `0.0` (reject).
//! Both screeners are [`ShardableAi`]: the per-row decision reads `&self`
//! only, so each round's screening sweep parallelizes over row shards
//! with bit-identical records.

use crate::applicants::VISIBLE_CREDENTIAL;
use eqimpact_core::checkpoint::ModelCheckpoint;
use eqimpact_core::closed_loop::{AiSystem, Feedback};
use eqimpact_core::features::FeatureMatrix;
use eqimpact_core::shard::{ColsView, ShardableAi};
use eqimpact_ml::logistic::LogisticModel;
use eqimpact_ml::RetrainedLogistic;

/// The default warmup: rounds during which everyone is hired before the
/// first model exists.
pub const WARMUP_ROUNDS: usize = 2;

/// The default decision cut-off on the linear score.
pub const CUTOFF: f64 = 0.5;

/// The retrained logistic screener.
pub struct AdaptiveScreener {
    warmup_rounds: usize,
    cutoff: f64,
    /// The model on `(track_record, credential)`; its memory is
    /// `track_record_i(k−1)` as known to the screener, `1.0` (clean
    /// record) for applicants never seen.
    learner: RetrainedLogistic,
}

impl AdaptiveScreener {
    /// Creates the screener with the default warmup and cut-off.
    pub fn default_config() -> Self {
        AdaptiveScreener::new(WARMUP_ROUNDS, CUTOFF)
    }

    /// Creates a screener with explicit warmup and cut-off.
    pub fn new(warmup_rounds: usize, cutoff: f64) -> Self {
        AdaptiveScreener {
            warmup_rounds,
            cutoff,
            learner: RetrainedLogistic::new(1.0),
        }
    }

    /// The current model, if any retraining has happened.
    pub fn model(&self) -> Option<&LogisticModel> {
        self.learner.model()
    }

    /// Number of refits performed.
    pub fn refits(&self) -> usize {
        self.learner.refits()
    }

    /// Accumulated training-set size.
    pub fn training_size(&self) -> usize {
        self.learner.training_size()
    }
}

impl AiSystem for AdaptiveScreener {
    fn signals_into(&mut self, k: usize, visible: &FeatureMatrix, out: &mut Vec<f64>) {
        // Sequential-path safety net only: a stateful shard-capable AI
        // block is a per-population block (see `ShardableAi`'s docs) —
        // reuse against a differently sized pool is out of contract, and
        // the `&self` sharded sweep cannot resize. This resize merely
        // keeps the sequential path from indexing another pool's records
        // until the first retrain, mirroring the credit lenders.
        self.learner.size_memory(visible.row_count());
        self.signals_full(k, visible, out);
    }

    fn retrain(&mut self, _k: usize, feedback: &Feedback) {
        self.learner.absorb(
            &feedback.signals,
            &feedback.actions,
            feedback.visible.col(VISIBLE_CREDENTIAL),
            &feedback.per_user,
        );
    }

    fn checkpoint_into(&self, out: &mut ModelCheckpoint) -> bool {
        self.learner
            .checkpoint_into("prev_track", |name, values| out.push_field(name, values));
        true
    }

    fn restore_checkpoint(&mut self, checkpoint: &ModelCheckpoint) -> bool {
        self.learner
            .restore("prev_track", |name| checkpoint.field(name))
    }
}

impl ShardableAi for AdaptiveScreener {
    fn signals_batch(&self, k: usize, visible: &ColsView<'_>, out: &mut [f64]) {
        // Warmup, or no model yet: keep hiring. A NaN score rejects.
        if k < self.warmup_rounds
            || !self
                .learner
                .scores_into(visible.rows(), visible.col(VISIBLE_CREDENTIAL), out)
        {
            out.fill(1.0);
            return;
        }
        for o in out.iter_mut() {
            *o = if *o >= self.cutoff { 1.0 } else { 0.0 };
        }
    }
}

/// The credential-gate baseline: hire exactly the credentialed.
#[derive(Debug, Clone, Default)]
pub struct CredentialScreener;

impl CredentialScreener {
    /// Creates the screener.
    pub fn new() -> Self {
        CredentialScreener
    }
}

impl AiSystem for CredentialScreener {
    fn signals_into(&mut self, k: usize, visible: &FeatureMatrix, out: &mut Vec<f64>) {
        self.signals_full(k, visible, out);
    }

    fn retrain(&mut self, _k: usize, _feedback: &Feedback) {}
}

impl ShardableAi for CredentialScreener {
    fn signals_batch(&self, _k: usize, visible: &ColsView<'_>, out: &mut [f64]) {
        out.copy_from_slice(visible.col(VISIBLE_CREDENTIAL));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn visible_matrix(rows: &[(f64, f64)]) -> FeatureMatrix {
        let nested: Vec<Vec<f64>> = rows.iter().map(|&(c, e)| vec![c, e]).collect();
        FeatureMatrix::from_nested(&nested)
    }

    #[test]
    fn adaptive_warmup_hires_everyone() {
        let mut s = AdaptiveScreener::default_config();
        let visible = visible_matrix(&[(0.0, 0.0), (1.0, 0.0)]);
        assert_eq!(s.signals(0, &visible), vec![1.0, 1.0]);
        assert_eq!(s.signals(1, &visible), vec![1.0, 1.0]);
        assert!(s.model().is_none());
    }

    #[test]
    fn adaptive_learns_and_rejects() {
        let mut s = AdaptiveScreener::default_config();
        // Synthetic history: uncredentialed placements fail, credentialed
        // succeed, with track-record contrast.
        let n = 400;
        let rows: Vec<(f64, f64)> = (0..n)
            .map(|i| (if i % 2 == 0 { 0.0 } else { 1.0 }, 0.0))
            .collect();
        let visible = visible_matrix(&rows);
        let signals = vec![1.0; n];
        let actions: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { 0.0 } else { 1.0 }).collect();
        let per_user = actions.clone();
        let feedback = Feedback {
            step: 0,
            per_user,
            aggregate: 0.5,
            visible: visible.clone(),
            signals,
            actions,
        };
        s.retrain(0, &feedback);
        assert_eq!(s.refits(), 1);
        assert_eq!(s.training_size(), n);
        let model = s.model().unwrap();
        assert!(
            model.coefficients[1] > 0.0,
            "credential coef = {}",
            model.coefficients[1]
        );
        // Past warmup, the failed uncredentialed applicant is rejected and
        // the successful credentialed one hired.
        let decisions = s.signals(2, &visible);
        assert_eq!(decisions[0], 0.0);
        assert_eq!(decisions[1], 1.0);
    }

    #[test]
    fn credential_screener_gates_on_the_code() {
        let mut s = CredentialScreener::new();
        let visible = visible_matrix(&[(1.0, 3.0), (0.0, 9.0)]);
        // Experience is visible but never consulted.
        assert_eq!(s.signals(0, &visible), vec![1.0, 0.0]);
        assert_eq!(s.signals(7, &visible), vec![1.0, 0.0]);
    }
}
