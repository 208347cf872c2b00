//! Benchmark-side adapters for the traced run. Each wraps one block of
//! the program and times every call into that block's public functions
//! as a span in the trial's [`SpanLog`]; every call is forwarded
//! unchanged, so a wrapped loop produces the same records, bit for bit,
//! as the unwrapped one (the run checks this through record digests).

use crate::spans::{now_ns, SpanLog, NO_STEP};
use eqimpact_core::checkpoint::ModelCheckpoint;
use eqimpact_core::closed_loop::{AiSystem, Feedback, FeedbackFilter, UserPopulation};
use eqimpact_core::features::FeatureMatrix;
use eqimpact_core::recorder::StepSink;
use eqimpact_core::shard::{
    shard_bounds, ColsMut, ColsView, PopulationShard, RowStreams, ShardableAi, ShardablePopulation,
};
use eqimpact_stats::SimRng;
use std::io::Read;
use std::ops::Range;
use std::sync::Arc;

fn step(k: usize) -> u32 {
    u32::try_from(k).unwrap_or(NO_STEP)
}

/// The retraining state the `loop.retrain.rows` counter reads.
pub trait Learner {
    /// Refits performed so far.
    fn refits(&self) -> usize;
    /// Rows in the accumulated training set.
    fn training_size(&self) -> usize;
}

impl Learner for eqimpact_credit::ScorecardLender {
    fn refits(&self) -> usize {
        self.refits()
    }
    fn training_size(&self) -> usize {
        self.training_size()
    }
}

impl Learner for eqimpact_hiring::AdaptiveScreener {
    fn refits(&self) -> usize {
        self.refits()
    }
    fn training_size(&self) -> usize {
        self.training_size()
    }
}

impl Learner for eqimpact_credit::IncomeMultipleLender {
    fn refits(&self) -> usize {
        0
    }
    fn training_size(&self) -> usize {
        0
    }
}

impl Learner for eqimpact_hiring::CredentialScreener {
    fn refits(&self) -> usize {
        0
    }
    fn training_size(&self) -> usize {
        0
    }
}

/// The AI-system block, timed: `loop.signal` and `loop.retrain` spans,
/// plus Σ `training_size()` over the refits.
pub struct TimedAi<S> {
    inner: S,
    log: Arc<SpanLog>,
    /// First row of every shard, to name the lane of a batched call.
    shard_starts: Vec<usize>,
    /// Σ training-set rows at each refit.
    pub rows: u64,
}

impl<S> TimedAi<S> {
    /// Wraps `inner` for a population of `users` split into `shards`.
    pub fn new(inner: S, log: Arc<SpanLog>, users: usize, shards: usize) -> Self {
        let shard_starts = shard_bounds(users, shards.max(1))
            .into_iter()
            .map(|r| r.start)
            .collect();
        TimedAi {
            inner,
            log,
            shard_starts,
            rows: 0,
        }
    }
}

impl<S: ShardableAi + Learner> AiSystem for TimedAi<S> {
    fn signals_into(&mut self, k: usize, visible: &FeatureMatrix, out: &mut Vec<f64>) {
        let inner = &mut self.inner;
        self.log.time("loop.signal", step(k), None, || {
            inner.signals_into(k, visible, out)
        });
    }

    fn retrain(&mut self, k: usize, feedback: &Feedback) {
        let before = self.inner.refits();
        let inner = &mut self.inner;
        self.log
            .time("loop.retrain", step(k), None, || inner.retrain(k, feedback));
        if self.inner.refits() > before {
            self.rows += self.inner.training_size() as u64;
        }
    }

    fn checkpoint_into(&self, out: &mut ModelCheckpoint) -> bool {
        self.inner.checkpoint_into(out)
    }

    fn restore_checkpoint(&mut self, checkpoint: &ModelCheckpoint) -> bool {
        self.inner.restore_checkpoint(checkpoint)
    }
}

impl<S: ShardableAi + Learner> ShardableAi for TimedAi<S> {
    fn signals_batch(&self, k: usize, visible: &ColsView<'_>, out: &mut [f64]) {
        let lane = self
            .shard_starts
            .iter()
            .position(|&s| s == visible.rows().start)
            .map(|i| i as u32);
        self.log.time("loop.signal", step(k), lane, || {
            self.inner.signals_batch(k, visible, out)
        });
    }
}

/// The population block, timed: `loop.observe` and `loop.respond` spans
/// (one per shard and step when sharded).
pub struct TimedPop<P> {
    inner: P,
    log: Arc<SpanLog>,
}

impl<P> TimedPop<P> {
    /// Wraps `inner`.
    pub fn new(inner: P, log: Arc<SpanLog>) -> Self {
        TimedPop { inner, log }
    }
}

impl<P: UserPopulation> UserPopulation for TimedPop<P> {
    fn user_count(&self) -> usize {
        self.inner.user_count()
    }

    fn observe_into(&mut self, k: usize, rng: &mut SimRng, out: &mut FeatureMatrix) {
        let inner = &mut self.inner;
        self.log.time("loop.observe", step(k), None, || {
            inner.observe_into(k, rng, out)
        });
    }

    fn respond_into(&mut self, k: usize, signals: &[f64], rng: &mut SimRng, out: &mut Vec<f64>) {
        let inner = &mut self.inner;
        self.log.time("loop.respond", step(k), None, || {
            inner.respond_into(k, signals, rng, out)
        });
    }
}

/// One timed shard of a [`TimedPop`].
pub struct TimedShard<Sh> {
    inner: Sh,
    lane: u32,
    log: Arc<SpanLog>,
}

impl<Sh: PopulationShard> PopulationShard for TimedShard<Sh> {
    fn rows(&self) -> Range<usize> {
        self.inner.rows()
    }

    fn observe_cols(&mut self, k: usize, streams: &RowStreams, out: &mut ColsMut<'_>) {
        let inner = &mut self.inner;
        self.log.time("loop.observe", step(k), Some(self.lane), || {
            inner.observe_cols(k, streams, out)
        });
    }

    fn respond_rows(&mut self, k: usize, signals: &[f64], streams: &RowStreams, out: &mut [f64]) {
        let inner = &mut self.inner;
        self.log.time("loop.respond", step(k), Some(self.lane), || {
            inner.respond_rows(k, signals, streams, out)
        });
    }
}

impl<P: ShardablePopulation> ShardablePopulation for TimedPop<P> {
    type Shard = TimedShard<P::Shard>;

    fn feature_width(&self) -> usize {
        self.inner.feature_width()
    }

    fn into_row_shards(self, parts: usize) -> Vec<Self::Shard> {
        let log = self.log;
        self.inner
            .into_row_shards(parts)
            .into_iter()
            .enumerate()
            .map(|(lane, inner)| TimedShard {
                inner,
                lane: lane as u32,
                log: Arc::clone(&log),
            })
            .collect()
    }

    fn from_row_shards(shards: Vec<Self::Shard>) -> Self {
        let log = Arc::clone(
            &shards
                .first()
                .expect("a population of at least one user has at least one shard")
                .log,
        );
        TimedPop {
            inner: P::from_row_shards(shards.into_iter().map(|s| s.inner).collect()),
            log,
        }
    }
}

/// The feedback filter, timed: `loop.filter` spans.
pub struct TimedFilter<F> {
    inner: F,
    log: Arc<SpanLog>,
}

impl<F> TimedFilter<F> {
    /// Wraps `inner`.
    pub fn new(inner: F, log: Arc<SpanLog>) -> Self {
        TimedFilter { inner, log }
    }
}

impl<F: FeedbackFilter> FeedbackFilter for TimedFilter<F> {
    fn apply_into(
        &mut self,
        k: usize,
        visible: &FeatureMatrix,
        signals: &[f64],
        actions: &[f64],
        out: &mut Feedback,
    ) {
        let inner = &mut self.inner;
        self.log.time("loop.filter", step(k), None, || {
            inner.apply_into(k, visible, signals, actions, out)
        });
    }

    fn checkpoint_into(&self, out: &mut ModelCheckpoint) -> bool {
        self.inner.checkpoint_into(out)
    }

    fn restore_checkpoint(&mut self, checkpoint: &ModelCheckpoint) -> bool {
        self.inner.restore_checkpoint(checkpoint)
    }
}

/// A trace sink, timed: every call into it is a `trace.write` span.
pub struct TimedSink<K> {
    inner: K,
    log: Arc<SpanLog>,
}

impl<K> TimedSink<K> {
    /// Wraps `inner`.
    pub fn new(inner: K, log: Arc<SpanLog>) -> Self {
        TimedSink { inner, log }
    }

    /// Finishes the stream (the sink writes its footer when dropped),
    /// timed as one more `trace.write` span.
    pub fn finish(self) {
        let TimedSink { inner, log } = self;
        log.time("trace.write", NO_STEP, None, || drop(inner));
    }
}

impl<K: StepSink> StepSink for TimedSink<K> {
    fn on_groups(&mut self, labels: &[&str], codes: &[u32]) {
        let inner = &mut self.inner;
        self.log.time("trace.write", NO_STEP, None, || {
            inner.on_groups(labels, codes)
        });
    }

    fn on_step(
        &mut self,
        k: usize,
        visible: &FeatureMatrix,
        signals: &[f64],
        actions: &[f64],
        filtered: &[f64],
    ) {
        let inner = &mut self.inner;
        self.log.time("trace.write", step(k), None, || {
            inner.on_step(k, visible, signals, actions, filtered)
        });
    }

    fn wants_checkpoints(&self) -> bool {
        self.inner.wants_checkpoints()
    }

    fn on_checkpoint(&mut self, k: usize, checkpoint: &ModelCheckpoint) {
        let inner = &mut self.inner;
        self.log.time("trace.write", step(k), None, || {
            inner.on_checkpoint(k, checkpoint)
        });
    }
}

/// Two sinks fed the same telemetry, in order.
pub struct Tee<'a, A: ?Sized, B: ?Sized>(pub &'a mut A, pub &'a mut B);

impl<A: StepSink + ?Sized, B: StepSink + ?Sized> StepSink for Tee<'_, A, B> {
    fn on_groups(&mut self, labels: &[&str], codes: &[u32]) {
        self.0.on_groups(labels, codes);
        self.1.on_groups(labels, codes);
    }

    fn on_step(
        &mut self,
        k: usize,
        visible: &FeatureMatrix,
        signals: &[f64],
        actions: &[f64],
        filtered: &[f64],
    ) {
        self.0.on_step(k, visible, signals, actions, filtered);
        self.1.on_step(k, visible, signals, actions, filtered);
    }

    fn wants_checkpoints(&self) -> bool {
        self.0.wants_checkpoints() || self.1.wants_checkpoints()
    }

    fn on_checkpoint(&mut self, k: usize, checkpoint: &ModelCheckpoint) {
        if self.0.wants_checkpoints() {
            self.0.on_checkpoint(k, checkpoint);
        }
        if self.1.wants_checkpoints() {
            self.1.on_checkpoint(k, checkpoint);
        }
    }
}

/// A byte source, timed: the time spent inside `read` calls (file I/O;
/// decoding is timed by the layer that decodes) accumulates in a
/// counter shared by every reader of one stage.
pub struct TimedRead<R> {
    inner: R,
    ns: Arc<std::sync::atomic::AtomicU64>,
}

impl<R> TimedRead<R> {
    /// Wraps `inner`, adding its read time to `ns`.
    pub fn new(inner: R, ns: Arc<std::sync::atomic::AtomicU64>) -> Self {
        TimedRead { inner, ns }
    }
}

impl<R: Read> Read for TimedRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let start = now_ns();
        let n = self.inner.read(buf);
        self.ns
            .fetch_add(now_ns() - start, std::sync::atomic::Ordering::Relaxed);
        n
    }
}

/// The loop parameters [`run_wrapped`] needs.
pub struct LoopShape {
    pub users: usize,
    pub steps: usize,
    pub delay: usize,
    pub policy: eqimpact_core::recorder::RecordPolicy,
    pub shards: usize,
}

/// Runs one loop with every block wrapped, on the sequential runner for
/// one shard and the sharded runner otherwise, as the workloads'
/// `run_trial_sunk` entry points do. Returns the record and Σ training
/// rows at the refits.
#[allow(clippy::too_many_arguments)]
pub fn run_wrapped<S, P, F, K>(
    ai: S,
    population: P,
    filter: F,
    shape: &LoopShape,
    log: &Arc<SpanLog>,
    rng: &mut SimRng,
    sink: &mut K,
) -> (eqimpact_core::recorder::LoopRecord, u64)
where
    S: ShardableAi + Learner,
    P: ShardablePopulation,
    F: FeedbackFilter,
    K: StepSink,
{
    let ai = TimedAi::new(ai, Arc::clone(log), shape.users, shape.shards);
    let builder = eqimpact_core::closed_loop::LoopBuilder::new(
        ai,
        TimedPop::new(population, Arc::clone(log)),
    )
    .filter(TimedFilter::new(filter, Arc::clone(log)))
    .delay(shape.delay)
    .record(shape.policy);
    if shape.shards == 1 {
        let mut runner = builder.build();
        let record = runner.run_with_sink(shape.steps, rng, sink);
        (record, runner.into_parts().0.rows)
    } else {
        let mut runner = builder.shards(shape.shards).build_sharded();
        let record = runner.run_with_sink(shape.steps, rng, sink);
        (record, runner.into_parts().0.rows)
    }
}
