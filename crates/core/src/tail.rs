//! The feedback path of one closed-loop step, written once for every
//! driver.
//!
//! After the observe → signal → respond sweep, every driver of the loop
//! runs the same tail: the [`FeedbackFilter`] digests the step, the step
//! is recorded, and the filtered package travels through a delay line of
//! `delay` steps into retraining — Fig. 1's lower edge, which is what
//! makes the closed loop's long-run average exist. [`StepTail`] owns
//! that path (filter, delay, record policy, the delay line and the
//! checkpoint scratch buffer) and [`StepTail::step`] runs it, in this
//! order:
//!
//! 1. **filter** — `filter.apply_into` on a recycled [`Feedback`]
//!    package;
//! 2. **check** — [`TailHooks::check_filtered`] sees the filter output
//!    before anything records it;
//! 3. **record** — [`LoopRecord::push_step`], then [`StepSink::on_step`];
//! 4. **delay** — the package joins the delay line; once more than
//!    `delay` packages wait, the oldest is due;
//! 5. **retrain or restore** — [`TailHooks::restore`] may replace the
//!    due retrain with a checkpoint restore; otherwise
//!    [`AiSystem::retrain`] absorbs the due package, whose buffers are
//!    then recycled;
//! 6. **checkpoint** — when the sink
//!    [wants checkpoints](StepSink::wants_checkpoints), the AI's (and
//!    filter's) state after the retrain is captured and handed to
//!    [`StepSink::on_checkpoint`].
//!
//! The drivers differ only in what they pass in:
//!
//! | driver | sink | hooks |
//! |---|---|---|
//! | `LoopRunner`, `ShardedRunner` | the caller's (checkpoints emitted) | always retrain, timed |
//! | `trace::ReplayRunner` | `()` | verifies filtered bits; restores AI **and** filter, counts restores |
//! | `trace::evaluate_off_policy` | `()` | restores the AI only, never the candidate filter |
//!
//! Only the live runners time the tail under the `loop.filter`,
//! `loop.record` and `loop.retrain` spans and count `loop.steps`
//! ([`TailHooks::TIMED`]): those counts sit in the deterministic
//! telemetry section, so replay and the sweep must not add to them.
//!
//! The tail is statically dispatched: [`StepTail::step`] is generic over
//! the AI, the sink and the hooks.

use crate::checkpoint::ModelCheckpoint;
use crate::closed_loop::{AiSystem, Feedback, FeedbackFilter};
use crate::features::FeatureMatrix;
use crate::recorder::{LoopRecord, RecordPolicy, StepSink};
use eqimpact_telemetry::metrics as tm;
use eqimpact_telemetry::{PhaseSpan, SpanGuard};
use std::collections::VecDeque;
use std::convert::Infallible;

/// What a driver changes about the shared tail (see the module docs).
/// The defaults check nothing, never restore and leave the tail untimed.
pub trait TailHooks {
    /// The driver's error type ([`Infallible`] for the live runners).
    type Error;

    /// Whether the tail enters the `loop.filter/record/retrain` spans and
    /// counts `loop.steps` (the live runners only).
    const TIMED: bool = false;

    /// Inspects step `k`'s filter output before it is recorded; an `Err`
    /// aborts the step.
    fn check_filtered(&mut self, k: usize, filtered: &[f64]) -> Result<(), Self::Error> {
        let _ = (k, filtered);
        Ok(())
    }

    /// Offers to replace the due retrain with a checkpoint restore into
    /// `ai` (and, if the driver wants, `filter`), using `scratch` as the
    /// decode buffer. `Ok(true)` means restored, so the tail skips
    /// [`AiSystem::retrain`]; `Ok(false)` falls back to it.
    fn restore<S: AiSystem + ?Sized, F: FeedbackFilter>(
        &mut self,
        ai: &mut S,
        filter: &mut F,
        scratch: &mut ModelCheckpoint,
    ) -> Result<bool, Self::Error> {
        let _ = (ai, filter, scratch);
        Ok(false)
    }
}

/// The hooks of the live runners: always retrain, time every phase.
pub(crate) struct LiveHooks;

impl TailHooks for LiveHooks {
    type Error = Infallible;
    const TIMED: bool = true;
}

/// The feedback path shared by every loop driver: filter, record, delay
/// line, retrain-or-restore and checkpoint emission (see the module
/// docs for the step order and the per-driver hooks).
///
/// The delay line persists across calls, so consecutive runs of one
/// driver continue each other's feedback. Packages are recycled through
/// it, which keeps a steady-state step allocation-free when the filter
/// implements [`FeedbackFilter::apply_into`].
pub struct StepTail<F> {
    filter: F,
    delay: usize,
    policy: RecordPolicy,
    pending: VecDeque<Feedback>,
    spare: Vec<Feedback>,
    checkpoint: ModelCheckpoint,
}

impl<F: FeedbackFilter> StepTail<F> {
    /// A tail retraining on feedback `delay` steps old (`0` retrains on
    /// the same step's feedback) and recording under `policy`.
    pub fn new(filter: F, delay: usize, policy: RecordPolicy) -> Self {
        StepTail {
            filter,
            delay,
            policy,
            pending: VecDeque::new(),
            spare: Vec::new(),
            checkpoint: ModelCheckpoint::new(),
        }
    }

    /// The configured delay.
    pub fn delay(&self) -> usize {
        self.delay
    }

    /// The configured record policy.
    pub fn record_policy(&self) -> RecordPolicy {
        self.policy
    }

    /// Sets the record policy (see [`RecordPolicy`]); takes effect for
    /// records created after the call.
    pub(crate) fn set_record_policy(&mut self, policy: RecordPolicy) {
        self.policy = policy;
    }

    /// Access to the filter.
    pub fn filter(&self) -> &F {
        &self.filter
    }

    /// Gives the filter back.
    pub fn into_filter(self) -> F {
        self.filter
    }

    /// Runs step `k`'s tail over the step's buffers (see the module docs
    /// for the order). `record` must have one row per user.
    ///
    /// # Panics
    /// Panics when a channel's length differs from the record's user
    /// count (see [`LoopRecord::push_step`]).
    #[allow(clippy::too_many_arguments)]
    pub fn step<S, K, H>(
        &mut self,
        k: usize,
        ai: &mut S,
        visible: &FeatureMatrix,
        signals: &[f64],
        actions: &[f64],
        record: &mut LoopRecord,
        sink: &mut K,
        hooks: &mut H,
    ) -> Result<(), H::Error>
    where
        S: AiSystem + ?Sized,
        K: StepSink + ?Sized,
        H: TailHooks,
    {
        let mut feedback = self.spare.pop().unwrap_or_default();
        {
            let _phase = timed::<H>(&tm::LOOP_FILTER);
            self.filter
                .apply_into(k, visible, signals, actions, &mut feedback);
        }
        hooks.check_filtered(k, &feedback.per_user)?;
        {
            let _phase = timed::<H>(&tm::LOOP_RECORD);
            record.push_step(signals, actions, &feedback.per_user);
            sink.on_step(k, visible, signals, actions, &feedback.per_user);
        }

        self.pending.push_back(feedback);
        if self.pending.len() > self.delay {
            let _phase = timed::<H>(&tm::LOOP_RETRAIN);
            let due = self.pending.pop_front().expect("non-empty by check");
            if !hooks.restore(ai, &mut self.filter, &mut self.checkpoint)? {
                ai.retrain(k, &due);
            }
            // Recycle the package: its buffers become a later step's.
            self.spare.push(due);
            if sink.wants_checkpoints() {
                self.checkpoint.reset(k);
                if ai.checkpoint_into(&mut self.checkpoint) {
                    let _ = self.filter.checkpoint_into(&mut self.checkpoint);
                    sink.on_checkpoint(k, &self.checkpoint);
                }
            }
        }
        if H::TIMED {
            tm::LOOP_STEPS.incr();
        }
        Ok(())
    }
}

/// Enters `span` when the hooks time the tail.
fn timed<H: TailHooks>(span: &'static PhaseSpan) -> Option<SpanGuard<'static>> {
    H::TIMED.then(|| span.enter())
}
