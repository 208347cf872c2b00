//! Deterministic replay: re-driving the closed loop from a recorded
//! trace instead of simulating the population.
//!
//! Two faces of the same idea:
//!
//! * [`ReplayRunner`] is the Result-based driver: observe (from the
//!   trace) → signal (from the replayed AI) → respond (from the trace),
//!   then the live runners' own [`StepTail`] (filter → record → delayed
//!   retrain). By default it **verifies** every recomputed signal and
//!   filter output against the recorded bits, so a successful replay is
//!   a proof of byte-identity, and a corrupt or foreign trace surfaces
//!   as a named [`TraceError`] instead of bad data.
//! * [`RecordedPopulation`] implements the core
//!   [`UserPopulation`] contract directly, so a trace can stand in for a
//!   live population anywhere a runner takes one (the cross-runner
//!   property tests drive a standard `LoopRunner` over it).

use crate::store::{StepFrame, TraceHeader, TraceReader};
use crate::TraceError;
use eqimpact_core::checkpoint::ModelCheckpoint;
use eqimpact_core::closed_loop::{AiSystem, FeedbackFilter, UserPopulation};
use eqimpact_core::features::FeatureMatrix;
use eqimpact_core::recorder::LoopRecord;
use eqimpact_core::tail::{StepTail, TailHooks};
use eqimpact_stats::SimRng;
use std::io::Read;

/// Bitwise equality over float slices (NaN == NaN, +0 != -0): replay
/// verification is about byte-identity, not numeric closeness.
fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Re-drives a recorded loop against a freshly built AI system and
/// feedback filter (see the module docs). The delay line and record
/// policy come from the trace header, so the produced [`LoopRecord`] is
/// byte-identical to the original run's.
pub struct ReplayRunner<S, F, R: Read> {
    reader: TraceReader<R>,
    ai: S,
    tail: StepTail<F>,
    verify: bool,
    use_checkpoints: bool,
    restored: usize,
    frame: StepFrame,
    signals: Vec<f64>,
}

impl<S: AiSystem, F: FeedbackFilter, R: Read> ReplayRunner<S, F, R> {
    /// Wraps an opened trace with the blocks to replay it against.
    /// Verification is on by default, and so is the checkpoint
    /// fast-path (a no-op on checkpoint-free traces).
    pub fn new(reader: TraceReader<R>, ai: S, filter: F) -> Self {
        let tail = StepTail::new(filter, reader.header().delay, reader.header().policy);
        ReplayRunner {
            reader,
            ai,
            tail,
            verify: true,
            use_checkpoints: true,
            restored: 0,
            frame: StepFrame::default(),
            signals: Vec::new(),
        }
    }

    /// Enables or disables per-step verification of the recomputed
    /// signals and filter outputs against the recorded ones.
    pub fn verify(mut self, on: bool) -> Self {
        self.verify = on;
        self
    }

    /// Enables or disables the checkpoint fast-path: when on (the
    /// default) a recorded model checkpoint replaces the corresponding
    /// `retrain` call wherever the AI system accepts it, skipping
    /// training entirely. Per-step verification still applies, so a
    /// restored model that diverges from the recorded signals surfaces
    /// as a [`TraceError::ReplayMismatch`].
    pub fn use_checkpoints(mut self, on: bool) -> Self {
        self.use_checkpoints = on;
        self
    }

    /// How many retrains were replaced by checkpoint restores so far.
    pub fn checkpoints_restored(&self) -> usize {
        self.restored
    }

    /// The trace's provenance header.
    pub fn header(&self) -> &TraceHeader {
        self.reader.header()
    }

    /// Replays the whole trace, returning the reconstructed record.
    pub fn run(&mut self) -> Result<LoopRecord, TraceError> {
        let policy = self.tail.record_policy();
        let mut record: Option<LoopRecord> = None;
        while self.reader.next_step(&mut self.frame)? {
            let k = self.frame.step;
            let record = record
                .get_or_insert_with(|| LoopRecord::with_policy(self.frame.signals.len(), policy));

            self.ai
                .signals_into(k, &self.frame.visible, &mut self.signals);
            if self.verify && !bits_equal(&self.signals, &self.frame.signals) {
                return Err(TraceError::ReplayMismatch {
                    step: k,
                    channel: "signals",
                });
            }
            let mut hooks = ReplayHooks {
                reader: &mut self.reader,
                recorded: self.verify.then_some(&self.frame.filtered[..]),
                use_checkpoints: self.use_checkpoints,
                restored: &mut self.restored,
            };
            self.tail.step(
                k,
                &mut self.ai,
                &self.frame.visible,
                &self.signals,
                &self.frame.actions,
                record,
                &mut (),
                &mut hooks,
            )?;
        }
        Ok(record.unwrap_or_else(|| {
            let users = self.reader.groups().map(|g| g.codes.len()).unwrap_or(0);
            LoopRecord::with_policy(users, policy)
        }))
    }

    /// Decomposes the runner back into its blocks (e.g. to inspect the
    /// replayed AI's final model).
    pub fn into_parts(self) -> (S, F) {
        (self.ai, self.tail.into_filter())
    }
}

/// Replay's side of the shared tail: verify the recomputed filter output
/// against the recorded bits, and restore each retrain from the
/// checkpoint recorded right after its step frame.
struct ReplayHooks<'a, R: Read> {
    reader: &'a mut TraceReader<R>,
    /// The recorded filter output, when verifying.
    recorded: Option<&'a [f64]>,
    use_checkpoints: bool,
    restored: &'a mut usize,
}

impl<R: Read> TailHooks for ReplayHooks<'_, R> {
    type Error = TraceError;

    fn check_filtered(&mut self, k: usize, filtered: &[f64]) -> Result<(), TraceError> {
        match self.recorded {
            Some(recorded) if !bits_equal(filtered, recorded) => Err(TraceError::ReplayMismatch {
                step: k,
                channel: "filtered",
            }),
            _ => Ok(()),
        }
    }

    /// A missing or rejected checkpoint falls back to the real retrain,
    /// so partial support degrades to correctness, not corruption. An
    /// accepted one restores the filter too and is counted.
    fn restore<S: AiSystem + ?Sized, F: FeedbackFilter>(
        &mut self,
        ai: &mut S,
        filter: &mut F,
        scratch: &mut ModelCheckpoint,
    ) -> Result<bool, TraceError> {
        if !(self.use_checkpoints && self.reader.next_checkpoint(scratch)?) {
            return Ok(false);
        }
        let restored = ai.restore_checkpoint(scratch);
        if restored {
            let _ = filter.restore_checkpoint(scratch);
            *self.restored += 1;
        }
        Ok(restored)
    }
}

/// A recorded trace as a drop-in [`UserPopulation`] block: `observe`
/// serves the recorded visible features, `respond` the recorded actions,
/// and the runner's RNG is ignored (the trace *is* the randomness).
///
/// This is the bridge into the infallible runner APIs, so trace errors
/// mid-run **panic** with the underlying [`TraceError`] message; use
/// [`ReplayRunner`] for Result-based replay of untrusted inputs.
pub struct RecordedPopulation<R: Read> {
    reader: TraceReader<R>,
    frame: StepFrame,
    users: usize,
    /// Whether `frame` holds a step not yet consumed by `observe`.
    primed: bool,
}

impl<R: Read> RecordedPopulation<R> {
    /// Opens a recorded population, priming the first step (so the user
    /// count is known up front). Zero-step traces yield an empty
    /// population.
    pub fn new(mut reader: TraceReader<R>) -> Result<Self, TraceError> {
        let mut frame = StepFrame::default();
        let primed = reader.next_step(&mut frame)?;
        let users = if primed {
            frame.signals.len()
        } else {
            reader.groups().map(|g| g.codes.len()).unwrap_or(0)
        };
        Ok(RecordedPopulation {
            reader,
            frame,
            users,
            primed,
        })
    }

    /// The trace's provenance header.
    pub fn header(&self) -> &TraceHeader {
        self.reader.header()
    }

    fn frame_for(&mut self, k: usize, what: &str) -> &StepFrame {
        while self.primed && self.frame.step < k {
            self.primed = self
                .reader
                .next_step(&mut self.frame)
                .unwrap_or_else(|e| panic!("RecordedPopulation: {e}"));
        }
        assert!(
            self.primed && self.frame.step == k,
            "RecordedPopulation: {what} asked for step {k} but the trace has no such step"
        );
        &self.frame
    }
}

impl<R: Read> UserPopulation for RecordedPopulation<R> {
    fn user_count(&self) -> usize {
        self.users
    }

    fn observe_into(&mut self, k: usize, _rng: &mut SimRng, out: &mut FeatureMatrix) {
        let frame = self.frame_for(k, "observe");
        out.fill_from(&frame.visible);
    }

    fn respond_into(&mut self, k: usize, _signals: &[f64], _rng: &mut SimRng, out: &mut Vec<f64>) {
        let frame = self.frame_for(k, "respond");
        out.clear();
        out.extend_from_slice(&frame.actions);
    }
}
