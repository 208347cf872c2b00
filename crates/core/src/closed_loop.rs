//! The closed loop of Fig. 1: AI system, user population, feedback filter
//! and delay, wired by the statically dispatched [`LoopRunner`].
//!
//! Each block is a trait with two entry points: an owned-return method
//! (`signals`, `observe`, `respond`, `apply`) that is convenient to
//! implement, and an in-place `*_into` twin that writes into a reusable
//! buffer. Each has a default in terms of the other, so an implementor
//! provides whichever is natural; the runner always calls the `*_into`
//! form, which makes the steady-state step **allocation-free** whenever
//! the blocks override it.
//!
//! [`LoopRunner<S, P, F>`] is generic over its blocks (static dispatch on
//! the hot path); the feedback half of each step (filter, record, delay
//! line, retrain) is the shared [`StepTail`].

use crate::checkpoint::ModelCheckpoint;
use crate::features::FeatureMatrix;
use crate::recorder::{LoopRecord, RecordPolicy, StepSink};
use crate::tail::{LiveHooks, StepTail};
use eqimpact_stats::SimRng;
use eqimpact_telemetry::metrics as tm;

/// The filtered feedback package delivered (after the delay) to the AI
/// system for retraining.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Feedback {
    /// Step at which the underlying actions were taken.
    pub step: usize,
    /// Filtered per-user values (e.g. running average default rates).
    pub per_user: Vec<f64>,
    /// Filtered aggregate of the actions.
    pub aggregate: f64,
    /// The per-user visible features at observation time (what the AI was
    /// allowed to see — e.g. income codes, never protected attributes).
    pub visible: FeatureMatrix,
    /// The raw actions `y_i` of that step.
    pub actions: Vec<f64>,
    /// The signals `π(k, i)` that were broadcast at that step.
    pub signals: Vec<f64>,
}

/// The AI system block: produces per-user signals, retrains on delayed
/// feedback.
///
/// Implement `signals` (owned return) **or** `signals_into` (in-place);
/// each defaults to the other, and the runner calls `signals_into`.
///
/// # Warning
/// Implementing **neither** compiles (both have defaults) but recurses
/// infinitely on first use — always override at least one.
pub trait AiSystem {
    /// Produces `π(k, i)` for every user given their visible features.
    fn signals(&mut self, k: usize, visible: &FeatureMatrix) -> Vec<f64> {
        let mut out = Vec::new();
        self.signals_into(k, visible, &mut out);
        out
    }

    /// Writes `π(k, i)` into `out` (cleared first), reusing its capacity.
    fn signals_into(&mut self, k: usize, visible: &FeatureMatrix, out: &mut Vec<f64>) {
        let signals = self.signals(k, visible);
        out.clear();
        out.extend_from_slice(&signals);
    }

    /// Absorbs one (delayed, filtered) feedback package — the retraining
    /// edge of Fig. 1.
    fn retrain(&mut self, k: usize, feedback: &Feedback);

    /// Captures this system's learned state (weights, per-user memory)
    /// into `out` and returns `true`, or returns `false` when the system
    /// does not support checkpointing (the default). `out` arrives
    /// already [`reset`](ModelCheckpoint::reset) for the current step —
    /// implementations only append fields.
    fn checkpoint_into(&self, out: &mut ModelCheckpoint) -> bool {
        let _ = out;
        false
    }

    /// Restores learned state previously captured by
    /// [`Self::checkpoint_into`], returning `true` on success. Returning
    /// `false` (the default, or on an unrecognized checkpoint) tells the
    /// caller to fall back to [`Self::retrain`].
    fn restore_checkpoint(&mut self, checkpoint: &ModelCheckpoint) -> bool {
        let _ = checkpoint;
        false
    }
}

/// The user population block: holds private states `x_i`, responds
/// stochastically to signals.
///
/// Implement the owned-return methods **or** their `*_into` twins; each
/// defaults to the other, and the runner calls the `*_into` forms.
///
/// # Warning
/// For each pair (`observe`/`observe_into`, `respond`/`respond_into`),
/// implementing **neither** compiles but recurses infinitely on first
/// use — always override at least one of each pair.
pub trait UserPopulation {
    /// Number of users `N`.
    fn user_count(&self) -> usize;

    /// Advances private states to step `k` (e.g. income resampling) and
    /// returns the per-user features visible to the AI system.
    fn observe(&mut self, k: usize, rng: &mut SimRng) -> FeatureMatrix {
        let mut out = FeatureMatrix::default();
        self.observe_into(k, rng, &mut out);
        out
    }

    /// Writes the visible features into `out`, reusing its allocation.
    fn observe_into(&mut self, k: usize, rng: &mut SimRng, out: &mut FeatureMatrix) {
        let visible = self.observe(k, rng);
        out.fill_from(&visible);
    }

    /// Responds to the broadcast signals with actions `y_i(k)`.
    fn respond(&mut self, k: usize, signals: &[f64], rng: &mut SimRng) -> Vec<f64> {
        let mut out = Vec::new();
        self.respond_into(k, signals, rng, &mut out);
        out
    }

    /// Writes the actions into `out` (cleared first), reusing its capacity.
    fn respond_into(&mut self, k: usize, signals: &[f64], rng: &mut SimRng, out: &mut Vec<f64>) {
        let actions = self.respond(k, signals, rng);
        out.clear();
        out.extend_from_slice(&actions);
    }
}

/// The filter block on the feedback path.
///
/// Implement `apply` (owned return) **or** `apply_into` (in-place); each
/// defaults to the other, and the runner calls `apply_into` with a
/// recycled [`Feedback`] package.
///
/// # Warning
/// Implementing **neither** compiles (both have defaults) but recurses
/// infinitely on first use — always override at least one.
pub trait FeedbackFilter {
    /// Produces the feedback package for step `k` from the raw
    /// observations.
    fn apply(
        &mut self,
        k: usize,
        visible: &FeatureMatrix,
        signals: &[f64],
        actions: &[f64],
    ) -> Feedback {
        let mut out = Feedback::default();
        self.apply_into(k, visible, signals, actions, &mut out);
        out
    }

    /// Writes the feedback package into `out`, reusing its buffers.
    ///
    /// `out` arrives holding a **previous step's contents** (the runner
    /// recycles packages through the delay line): an override must assign
    /// every field, not just the ones it computes, or stale
    /// `visible`/`signals`/`actions` leak into retraining.
    fn apply_into(
        &mut self,
        k: usize,
        visible: &FeatureMatrix,
        signals: &[f64],
        actions: &[f64],
        out: &mut Feedback,
    ) {
        *out = self.apply(k, visible, signals, actions);
    }

    /// Captures the filter's accumulated state into `out` (append-only;
    /// by convention filter fields are prefixed `filter.`) and returns
    /// `true`, or `false` when the filter does not support checkpointing
    /// (the default — correct for stateless filters).
    fn checkpoint_into(&self, out: &mut ModelCheckpoint) -> bool {
        let _ = out;
        false
    }

    /// Restores state captured by [`Self::checkpoint_into`], returning
    /// `true` on success; `false` means the caller must rebuild the
    /// filter state some other way (e.g. re-applying the trace).
    fn restore_checkpoint(&mut self, checkpoint: &ModelCheckpoint) -> bool {
        let _ = checkpoint;
        false
    }
}

// A boxed AI system is itself an AI system, so workloads that pick their
// AI at runtime (e.g. from a trace header) still drive the generic runners.

impl<T: AiSystem + ?Sized> AiSystem for Box<T> {
    fn signals(&mut self, k: usize, visible: &FeatureMatrix) -> Vec<f64> {
        (**self).signals(k, visible)
    }
    fn signals_into(&mut self, k: usize, visible: &FeatureMatrix, out: &mut Vec<f64>) {
        (**self).signals_into(k, visible, out)
    }
    fn retrain(&mut self, k: usize, feedback: &Feedback) {
        (**self).retrain(k, feedback)
    }
    fn checkpoint_into(&self, out: &mut ModelCheckpoint) -> bool {
        (**self).checkpoint_into(out)
    }
    fn restore_checkpoint(&mut self, checkpoint: &ModelCheckpoint) -> bool {
        (**self).restore_checkpoint(checkpoint)
    }
}

/// The default filter: running (accumulating) per-user means and the
/// aggregate mean — Fig. 1's "accumulating the training data".
#[derive(Debug, Clone, Default)]
pub struct MeanFilter {
    sums: Vec<f64>,
    counts: Vec<u64>,
}

impl FeedbackFilter for MeanFilter {
    fn apply_into(
        &mut self,
        k: usize,
        visible: &FeatureMatrix,
        signals: &[f64],
        actions: &[f64],
        out: &mut Feedback,
    ) {
        if self.sums.len() != actions.len() {
            self.sums = vec![0.0; actions.len()];
            self.counts = vec![0; actions.len()];
        }
        for (i, &a) in actions.iter().enumerate() {
            self.sums[i] += a;
            self.counts[i] += 1;
        }
        out.step = k;
        out.per_user.clear();
        // Every count was just incremented above, so c >= 1 here.
        out.per_user.extend(
            self.sums
                .iter()
                .zip(&self.counts)
                .map(|(&s, &c)| s / c as f64),
        );
        out.aggregate = if actions.is_empty() {
            f64::NAN
        } else {
            actions.iter().sum::<f64>() / actions.len() as f64
        };
        out.visible.fill_from(visible);
        out.signals.clear();
        out.signals.extend_from_slice(signals);
        out.actions.clear();
        out.actions.extend_from_slice(actions);
    }
}

/// The loop runner: wires AI system, population and the [`StepTail`]
/// (filter plus a delay line of `delay` steps between observation and
/// retraining). Generic over its blocks — the hot path is statically
/// dispatched and, when the blocks implement their `*_into` hooks,
/// allocation-free in steady state (observation, signal, action and
/// feedback buffers are all recycled).
///
/// Use [`LoopBuilder`] to construct one, or [`LoopRunner::new`] for the
/// positional form.
pub struct LoopRunner<S, P, F> {
    ai: S,
    population: P,
    tail: StepTail<F>,
    visible: FeatureMatrix,
    signals: Vec<f64>,
    actions: Vec<f64>,
}

impl<S: AiSystem, P: UserPopulation, F: FeedbackFilter> LoopRunner<S, P, F> {
    /// Creates a runner. `delay = 0` retrains on the same step's feedback;
    /// `delay = 1` reproduces the paper's "with some delay, their actions
    /// ... are utilized in retraining".
    pub fn new(ai: S, population: P, filter: F, delay: usize) -> Self {
        LoopRunner {
            ai,
            population,
            tail: StepTail::new(filter, delay, RecordPolicy::Full),
            visible: FeatureMatrix::default(),
            signals: Vec::new(),
            actions: Vec::new(),
        }
    }

    /// Runs `steps` passes of the loop, returning the telemetry selected
    /// by the record policy.
    pub fn run(&mut self, steps: usize, rng: &mut SimRng) -> LoopRecord {
        self.run_with_sink(steps, rng, &mut ())
    }

    /// [`Self::run`] with a [`StepSink`] observing every step's raw
    /// telemetry (visible features included) at the step barrier — the
    /// hook the trace store records through. The returned record is
    /// unaffected by the sink.
    pub fn run_with_sink<K: StepSink + ?Sized>(
        &mut self,
        steps: usize,
        rng: &mut SimRng,
        sink: &mut K,
    ) -> LoopRecord {
        let n = self.population.user_count();
        let mut record = LoopRecord::with_policy(n, self.tail.record_policy());
        record.reserve(steps);
        eqimpact_telemetry::progress::add_goal(steps as u64);

        for k in 0..steps {
            {
                let _phase = tm::LOOP_OBSERVE.enter();
                self.population.observe_into(k, rng, &mut self.visible);
            }
            debug_assert_eq!(
                self.visible.row_count(),
                n,
                "observe must return N feature rows"
            );
            {
                let _phase = tm::LOOP_SIGNAL.enter();
                self.ai.signals_into(k, &self.visible, &mut self.signals);
            }
            assert_eq!(
                self.signals.len(),
                n,
                "AiSystem must emit one signal per user"
            );
            {
                let _phase = tm::LOOP_RESPOND.enter();
                self.population
                    .respond_into(k, &self.signals, rng, &mut self.actions);
            }
            assert_eq!(
                self.actions.len(),
                n,
                "population must emit one action per user"
            );

            let Ok(()) = self.tail.step(
                k,
                &mut self.ai,
                &self.visible,
                &self.signals,
                &self.actions,
                &mut record,
                sink,
                &mut LiveHooks,
            );
        }
        record
    }

    /// Access to the AI system (e.g. to inspect the final model).
    pub fn ai(&self) -> &S {
        &self.ai
    }

    /// Mutable access to the AI system.
    pub fn ai_mut(&mut self) -> &mut S {
        &mut self.ai
    }

    /// Access to the population.
    pub fn population(&self) -> &P {
        &self.population
    }

    /// The feedback path: filter, delay and record policy.
    pub fn tail(&self) -> &StepTail<F> {
        &self.tail
    }

    /// Decomposes the runner back into its blocks.
    pub fn into_parts(self) -> (S, P, F) {
        (self.ai, self.population, self.tail.into_filter())
    }
}

/// Fluent constructor for [`LoopRunner`].
///
/// ```
/// use eqimpact_core::closed_loop::{LoopBuilder, MeanFilter};
/// use eqimpact_core::recorder::RecordPolicy;
/// # use eqimpact_core::closed_loop::{AiSystem, Feedback, UserPopulation};
/// # use eqimpact_core::features::FeatureMatrix;
/// # use eqimpact_stats::SimRng;
/// # struct Ai; impl AiSystem for Ai {
/// #     fn signals(&mut self, _k: usize, v: &FeatureMatrix) -> Vec<f64> { vec![0.0; v.row_count()] }
/// #     fn retrain(&mut self, _k: usize, _f: &Feedback) {}
/// # }
/// # struct Users; impl UserPopulation for Users {
/// #     fn user_count(&self) -> usize { 3 }
/// #     fn observe(&mut self, _k: usize, _rng: &mut SimRng) -> FeatureMatrix { FeatureMatrix::zeros(3, 0) }
/// #     fn respond(&mut self, _k: usize, s: &[f64], _rng: &mut SimRng) -> Vec<f64> { s.to_vec() }
/// # }
/// let mut runner = LoopBuilder::new(Ai, Users)
///     .filter(MeanFilter::default())
///     .delay(1)
///     .record(RecordPolicy::Full)
///     .build();
/// let record = runner.run(10, &mut SimRng::new(7));
/// assert_eq!(record.steps(), 10);
/// ```
pub struct LoopBuilder<S, P, F = MeanFilter> {
    ai: S,
    population: P,
    filter: F,
    delay: usize,
    policy: RecordPolicy,
    shards: Option<usize>,
    budget: Option<&'static crate::pool::ThreadBudget>,
}

impl<S: AiSystem, P: UserPopulation> LoopBuilder<S, P, MeanFilter> {
    /// Starts a builder from the two mandatory blocks. Defaults: a
    /// [`MeanFilter`], the paper's one-step delay, and full recording.
    pub fn new(ai: S, population: P) -> Self {
        LoopBuilder {
            ai,
            population,
            filter: MeanFilter::default(),
            delay: 1,
            policy: RecordPolicy::Full,
            shards: None,
            budget: None,
        }
    }
}

impl<S: AiSystem, P: UserPopulation, F: FeedbackFilter> LoopBuilder<S, P, F> {
    /// Replaces the feedback filter.
    pub fn filter<G: FeedbackFilter>(self, filter: G) -> LoopBuilder<S, P, G> {
        LoopBuilder {
            ai: self.ai,
            population: self.population,
            filter,
            delay: self.delay,
            policy: self.policy,
            shards: self.shards,
            budget: self.budget,
        }
    }

    /// Sets the shard count for [`Self::build_sharded`] (`0` means auto:
    /// resolve against the thread budget's available lanes,
    /// [`crate::shard::auto_shards`]; always clamped to the population
    /// size). Ignored by the sequential [`Self::build`].
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Sets the [`ThreadBudget`](crate::pool::ThreadBudget) the sharded
    /// runner leases its lanes from (default: the process-wide
    /// [`global`](crate::pool::ThreadBudget::global) budget). Ignored by
    /// the sequential [`Self::build`].
    pub fn thread_budget(mut self, budget: &'static crate::pool::ThreadBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Sets the feedback delay in steps.
    pub fn delay(mut self, delay: usize) -> Self {
        self.delay = delay;
        self
    }

    /// Sets the record policy ([`RecordPolicy::Full`] keeps every per-user
    /// series; [`RecordPolicy::Thin`] keeps per-step aggregates only).
    pub fn record(mut self, policy: RecordPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Builds the runner.
    pub fn build(self) -> LoopRunner<S, P, F> {
        let mut runner = LoopRunner::new(self.ai, self.population, self.filter, self.delay);
        runner.tail.set_record_policy(self.policy);
        runner
    }

    /// Builds the intra-trial parallel runner
    /// ([`crate::shard::ShardedRunner`]): the population is partitioned
    /// into the configured number of row shards ([`Self::shards`]; auto =
    /// the budget's available lanes when unset) and each step's user
    /// sweep runs on the parked workers of a budget-leased
    /// [`WorkerPool`](crate::pool::WorkerPool). The produced record is
    /// bit-identical to [`Self::build`]'s for blocks honouring the
    /// [`crate::shard::RowStreams`] contract.
    pub fn build_sharded(self) -> crate::shard::ShardedRunner<S, P, F>
    where
        S: crate::shard::ShardableAi,
        P: crate::shard::ShardablePopulation,
    {
        let budget = self
            .budget
            .unwrap_or_else(crate::pool::ThreadBudget::global);
        let mut runner = crate::shard::ShardedRunner::with_budget(
            self.ai,
            self.population,
            self.filter,
            self.delay,
            self.shards.unwrap_or(0),
            budget,
        );
        runner.tail_mut().set_record_policy(self.policy);
        runner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// AI that broadcasts its internal level and tracks feedback count.
    struct CountingAi {
        level: f64,
        retrain_steps: Vec<usize>,
    }

    impl AiSystem for CountingAi {
        fn signals(&mut self, _k: usize, visible: &FeatureMatrix) -> Vec<f64> {
            vec![self.level; visible.row_count()]
        }
        fn retrain(&mut self, _k: usize, feedback: &Feedback) {
            self.retrain_steps.push(feedback.step);
            self.level = feedback.aggregate;
        }
    }

    struct DeterministicUsers {
        n: usize,
    }

    impl UserPopulation for DeterministicUsers {
        fn user_count(&self) -> usize {
            self.n
        }
        fn observe_into(&mut self, k: usize, _rng: &mut SimRng, out: &mut FeatureMatrix) {
            out.reshape(self.n, 1);
            for (i, cell) in out.col_mut(0).iter_mut().enumerate() {
                *cell = (i + k) as f64;
            }
        }
        fn respond_into(
            &mut self,
            _k: usize,
            signals: &[f64],
            _rng: &mut SimRng,
            out: &mut Vec<f64>,
        ) {
            out.clear();
            out.extend(signals.iter().map(|&s| s + 1.0));
        }
    }

    fn runner_with_delay(delay: usize) -> LoopRunner<CountingAi, DeterministicUsers, MeanFilter> {
        LoopBuilder::new(
            CountingAi {
                level: 0.0,
                retrain_steps: Vec::new(),
            },
            DeterministicUsers { n: 3 },
        )
        .delay(delay)
        .build()
    }

    #[test]
    fn record_dimensions() {
        let mut runner = runner_with_delay(1);
        let mut rng = SimRng::new(1);
        let record = runner.run(10, &mut rng);
        assert_eq!(record.steps(), 10);
        assert_eq!(record.user_count(), 3);
        assert_eq!(record.signals(0).len(), 3);
        assert_eq!(record.actions(9).len(), 3);
    }

    #[test]
    fn delay_line_shifts_feedback() {
        // With delay d, the feedback absorbed at step k is from step k - d.
        for delay in [0usize, 1, 3] {
            let mut runner = runner_with_delay(delay);
            let mut rng = SimRng::new(2);
            runner.run(8, &mut rng);
            let expected: Vec<usize> = (0..(8 - delay)).collect();
            assert_eq!(runner.ai().retrain_steps, expected, "delay {delay}");
        }
    }

    #[test]
    fn mean_filter_accumulates_per_user() {
        let mut f = MeanFilter::default();
        let visible = FeatureMatrix::zeros(2, 0);
        let signals = vec![0.0, 0.0];
        let f1 = f.apply(0, &visible, &signals, &[1.0, 0.0]);
        assert_eq!(f1.per_user, vec![1.0, 0.0]);
        assert_eq!(f1.aggregate, 0.5);
        let f2 = f.apply(1, &visible, &signals, &[0.0, 0.0]);
        assert_eq!(f2.per_user, vec![0.5, 0.0]);
        assert_eq!(f2.aggregate, 0.0);
        assert_eq!(f2.step, 1);
        assert_eq!(f2.actions, vec![0.0, 0.0]);
    }

    #[test]
    fn loop_converges_to_fixed_point() {
        // Verify the recorded dynamics are consistent:
        // signal(k) = action(k) - 1 for every step (user responds s + 1).
        let mut runner = runner_with_delay(1);
        let mut rng = SimRng::new(3);
        let record = runner.run(20, &mut rng);
        for k in 0..20 {
            for i in 0..3 {
                assert!((record.actions(k)[i] - record.signals(k)[i] - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn thin_record_keeps_aggregates_only() {
        let mut runner = LoopBuilder::new(
            CountingAi {
                level: 0.25,
                retrain_steps: Vec::new(),
            },
            DeterministicUsers { n: 4 },
        )
        .record(RecordPolicy::Thin)
        .build();
        let record = runner.run(6, &mut SimRng::new(5));
        assert_eq!(record.steps(), 6);
        assert_eq!(record.mean_actions().len(), 6);
        // First step: signal 0.25 broadcast, users respond s + 1.
        assert!((record.mean_actions()[0] - 1.25).abs() < 1e-12);
    }

    #[test]
    fn builder_defaults_match_paper() {
        let runner = LoopBuilder::new(
            CountingAi {
                level: 0.0,
                retrain_steps: Vec::new(),
            },
            DeterministicUsers { n: 2 },
        )
        .build();
        assert_eq!(runner.tail().delay(), 1);
        assert_eq!(runner.tail().record_policy(), RecordPolicy::Full);
    }

    #[test]
    fn into_parts_returns_blocks() {
        let mut runner = runner_with_delay(0);
        runner.run(3, &mut SimRng::new(1));
        let (ai, population, _filter) = runner.into_parts();
        assert_eq!(ai.retrain_steps, vec![0, 1, 2]);
        assert_eq!(population.user_count(), 3);
    }

    #[test]
    #[should_panic(expected = "one signal per user")]
    fn mismatched_ai_is_caught() {
        struct BadAi;
        impl AiSystem for BadAi {
            fn signals(&mut self, _k: usize, _visible: &FeatureMatrix) -> Vec<f64> {
                vec![0.0] // wrong length
            }
            fn retrain(&mut self, _k: usize, _feedback: &Feedback) {}
        }
        let mut runner =
            LoopRunner::new(BadAi, DeterministicUsers { n: 3 }, MeanFilter::default(), 0);
        runner.run(1, &mut SimRng::new(0));
    }
}
