//! The retrained logistic learner behind both case studies.
//!
//! In the paper's closed loop the AI system learns one way: after each
//! step it adds the delayed, filtered feedback to its training data and
//! refits. The Sec. VII scorecard lender and its hiring analog learn the
//! same model on the same two features: the user's previous filter output
//! (the lender's memory of the default rate, or the screener's of the
//! track record) and one visible feature column (the income code, or the
//! credential), trained on the users who received a positive signal.
//! [`RetrainedLogistic`] is that learner. It owns the IRLS fitter, the
//! per-user memory with its clean value, an append-only [`Dataset`]
//! corpus, the current model and its fit counts; each lender keeps only
//! its warmup and decision rule.
//!
//! The learner reads plain slices and writes its checkpoint fields
//! through a closure, so this crate stays independent of the loop's
//! types.

use crate::dataset::Dataset;
use crate::logistic::{LogisticModel, LogisticRegression};
use std::ops::Range;

/// Checkpoint field of the model's intercept; the model exists exactly
/// when this field holds one value.
const INTERCEPT: &str = "model.intercept";
const COEFFICIENTS: &str = "model.coefficients";
const ITERATIONS: &str = "model.iterations";
const CONVERGED: &str = "model.converged";

/// A logistic model on `(memory, feature)`, refitted after every
/// absorbed feedback step on everything absorbed so far.
///
/// # Invalid rows
/// [`Self::absorb`] leaves out of the corpus any row that
/// [`Dataset::push_row`] rejects: a non-finite memory value or feature,
/// or a label other than 0 or 1. A live loop never produces one, since
/// its actions are 0 or 1 and its features finite; a trace read from
/// outside the program can hold one, and replaying it then learns from
/// the valid rows only.
#[derive(Debug)]
pub struct RetrainedLogistic {
    fitter: LogisticRegression,
    /// Each user's filter output from the last absorbed step.
    memory: Vec<f64>,
    /// The memory value of a user never seen.
    clean: f64,
    corpus: Dataset,
    model: Option<LogisticModel>,
    refits: usize,
    fit_errors: usize,
    unconverged_fits: usize,
}

impl RetrainedLogistic {
    /// A learner with no model yet, whose users start with memory `clean`.
    pub fn new(clean: f64) -> Self {
        RetrainedLogistic {
            fitter: LogisticRegression::default(),
            memory: Vec::new(),
            clean,
            corpus: Dataset::with_width(2),
            model: None,
            refits: 0,
            fit_errors: 0,
            unconverged_fits: 0,
        }
    }

    /// The current model, if any refit has happened or been restored.
    pub fn model(&self) -> Option<&LogisticModel> {
        self.model.as_ref()
    }

    /// Number of refits performed.
    pub fn refits(&self) -> usize {
        self.refits
    }

    /// Number of absorbed steps whose fit failed, keeping the previous
    /// model (or none).
    pub fn fit_errors(&self) -> usize {
        self.fit_errors
    }

    /// Number of refits that stopped at the iteration limit before
    /// converging; their model is still used.
    pub fn unconverged_fits(&self) -> usize {
        self.unconverged_fits
    }

    /// Rows in the accumulated corpus.
    pub fn training_size(&self) -> usize {
        self.corpus.len()
    }

    /// Resets the memory to `users` clean values when it holds another
    /// number of users, so a learner reused on a differently sized
    /// population never reads another population's memory.
    pub fn size_memory(&mut self, users: usize) {
        if self.memory.len() != users {
            self.memory = vec![self.clean; users];
        }
    }

    /// Absorbs one feedback step and refits.
    ///
    /// Every user `i` with `signals[i] > 0` adds the row
    /// `(memory[i], feature[i])` with label `actions[i]`, pairing what the
    /// learner knew before the step with the step's feature and outcome.
    /// The memory then becomes `per_user`, and the model is refitted on
    /// the whole corpus. A failed fit keeps the previous model and counts
    /// in [`Self::fit_errors`]; an unconverged one counts in
    /// [`Self::unconverged_fits`].
    pub fn absorb(&mut self, signals: &[f64], actions: &[f64], feature: &[f64], per_user: &[f64]) {
        self.size_memory(actions.len());
        let steps = signals.iter().zip(actions).zip(feature);
        for (i, ((&signal, &action), &x)) in steps.enumerate() {
            if signal > 0.0 {
                // An invalid row is left out; see the type's docs.
                let _ = self.corpus.push_row(&[self.memory[i], x], action);
            }
        }
        self.memory.clear();
        self.memory.extend_from_slice(per_user);
        match self.fitter.fit(&self.corpus) {
            Ok(model) => {
                self.unconverged_fits += usize::from(!model.converged);
                self.model = Some(model);
                self.refits += 1;
            }
            Err(_) => self.fit_errors += 1,
        }
    }

    /// Writes the linear scores of the users `rows` into `out` in one
    /// batched pass and returns `true`; returns `false`, leaving `out`
    /// untouched, while no model exists. `feature` holds one value per
    /// row. Users beyond the memory score with the clean value.
    pub fn scores_into(&self, rows: Range<usize>, feature: &[f64], out: &mut [f64]) -> bool {
        let Some(model) = &self.model else {
            return false;
        };
        let memory: Vec<f64> = rows
            .map(|i| self.memory.get(i).copied().unwrap_or(self.clean))
            .collect();
        model.linear_scores_into(&[&memory, feature], out);
        true
    }

    /// Writes the checkpoint fields through `push(name, values)`: the
    /// memory as `memory_field`, then, once a model exists, its
    /// intercept, coefficients, iteration count and convergence flag
    /// (1 or 0). A scalar is a field of one value.
    pub fn checkpoint_into(&self, memory_field: &str, mut push: impl FnMut(&str, &[f64])) {
        push(memory_field, &self.memory);
        if let Some(model) = &self.model {
            push(INTERCEPT, &[model.intercept]);
            push(COEFFICIENTS, &model.coefficients);
            push(ITERATIONS, &[model.iterations as f64]);
            push(CONVERGED, &[if model.converged { 1.0 } else { 0.0 }]);
        }
    }

    /// Restores what [`Self::checkpoint_into`] wrote, reading each field
    /// through `field(name)`. Returns `false`, changing nothing, when
    /// `memory_field` is missing.
    ///
    /// Missing model fields read as defaults: no coefficients, 0
    /// iterations, and converged only for a flag of exactly 1. The corpus
    /// and the refit count stay as they are, since decisions never read
    /// them.
    pub fn restore<'a>(
        &mut self,
        memory_field: &str,
        field: impl Fn(&str) -> Option<&'a [f64]>,
    ) -> bool {
        let Some(memory) = field(memory_field) else {
            return false;
        };
        self.memory.clear();
        self.memory.extend_from_slice(memory);
        let scalar = |name: &str| match field(name) {
            Some(&[v]) => Some(v),
            _ => None,
        };
        self.model = scalar(INTERCEPT).map(|intercept| LogisticModel {
            intercept,
            coefficients: field(COEFFICIENTS).unwrap_or(&[]).to_vec(),
            iterations: scalar(ITERATIONS).unwrap_or(0.0) as usize,
            converged: scalar(CONVERGED) == Some(1.0),
        });
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One step of 4 users, all offered: users 0 and 2 fail, 1 and 3
    /// succeed, and the feature separates them.
    fn trained(clean: f64) -> RetrainedLogistic {
        let mut learner = RetrainedLogistic::new(clean);
        let actions = [0.0, 1.0, 0.0, 1.0];
        learner.absorb(&[1.0; 4], &actions, &actions, &[0.5, 0.0, 0.5, 0.0]);
        learner
    }

    fn checkpoint(learner: &RetrainedLogistic) -> Vec<(String, Vec<f64>)> {
        let mut fields = Vec::new();
        learner.checkpoint_into("memory", |name, values| {
            fields.push((name.to_string(), values.to_vec()));
        });
        fields
    }

    fn field<'a>(fields: &'a [(String, Vec<f64>)], name: &str) -> Option<&'a [f64]> {
        fields
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_slice())
    }

    #[test]
    fn absorb_grows_the_corpus_and_refits() {
        let mut learner = RetrainedLogistic::new(1.0);
        let mut out = [7.0; 2];
        assert!(!learner.scores_into(0..2, &[0.0, 1.0], &mut out));
        assert_eq!(out, [7.0; 2], "no model: scores untouched");

        // Unoffered users (signal 0) add no row.
        learner.absorb(&[1.0, 0.0], &[0.0, 1.0], &[0.0, 1.0], &[0.25, 1.0]);
        assert_eq!((learner.training_size(), learner.refits()), (1, 1));
        learner.absorb(&[1.0, 1.0], &[0.0, 1.0], &[0.0, 1.0], &[0.5, 1.0]);
        assert_eq!((learner.training_size(), learner.refits()), (3, 2));
        assert!(learner.scores_into(0..2, &[0.0, 1.0], &mut out));
        assert!(out[1] > out[0]);
    }

    #[test]
    fn failed_and_unconverged_fits_are_counted() {
        // No user offered: the corpus stays empty and the fit fails.
        let mut learner = RetrainedLogistic::new(0.0);
        learner.absorb(&[0.0; 3], &[1.0, 0.0, 1.0], &[1.0; 3], &[0.0; 3]);
        assert_eq!((learner.fit_errors(), learner.refits()), (1, 0));
        assert!(learner.model().is_none());

        // A fit cut off after one iteration still refits, unconverged.
        learner.fitter.max_iter = 1;
        let actions = [0.0, 1.0, 0.0, 1.0];
        learner.absorb(&[1.0; 4], &actions, &actions, &[0.0; 4]);
        assert_eq!(learner.refits(), 1);
        assert_eq!(learner.unconverged_fits(), 1);
        assert!(!learner.model().unwrap().converged);
    }

    #[test]
    fn invalid_rows_stay_out_of_the_corpus() {
        let mut learner = RetrainedLogistic::new(0.0);
        learner.absorb(
            &[1.0; 4],
            &[0.0, 0.5, 1.0, 1.0],
            &[0.0, 1.0, f64::NAN, 1.0],
            &[0.0; 4],
        );
        assert_eq!(learner.training_size(), 2);
        assert_eq!(learner.refits(), 1);
    }

    #[test]
    fn restored_checkpoint_scores_bit_identically() {
        let learner = trained(0.0);
        let fields = checkpoint(&learner);
        let mut fresh = RetrainedLogistic::new(0.0);
        assert!(fresh.restore("memory", |name| field(&fields, name)));
        assert_eq!(fresh.model(), learner.model());
        assert_eq!(fresh.training_size(), 0, "the corpus is not restored");

        // Rows 3..6 reach past the memory into clean users.
        let feature = [1.0, 0.0, 1.0];
        let (mut a, mut b) = ([0.0; 3], [0.0; 3]);
        assert!(learner.scores_into(3..6, &feature, &mut a));
        assert!(fresh.scores_into(3..6, &feature, &mut b));
        assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits));
    }

    #[test]
    fn restore_needs_the_memory_and_defaults_the_model_fields() {
        let mut learner = trained(1.0);
        assert!(!learner.restore("memory", |_| None));
        assert!(
            learner.model().is_some(),
            "failed restore changed the model"
        );

        let fields = vec![
            ("memory".to_string(), vec![0.5]),
            (INTERCEPT.to_string(), vec![0.25]),
            (CONVERGED.to_string(), vec![0.5]),
        ];
        assert!(learner.restore("memory", |name| field(&fields, name)));
        let model = learner.model().unwrap();
        assert_eq!(model.intercept, 0.25);
        assert!(model.coefficients.is_empty());
        assert_eq!(model.iterations, 0);
        assert!(!model.converged);

        // Without an intercept there is no model.
        assert!(learner.restore("memory", |name| field(&fields[..1], name)));
        assert!(learner.model().is_none());
    }
}
