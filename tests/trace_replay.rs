//! The tentpole determinism property of the trace subsystem: a trace
//! recorded from a live run — **under any shard count** — replays
//! byte-identically, for both closed-loop workloads.
//!
//! Three independent reproductions are checked against each recorded
//! run:
//!
//! 1. the record the runner returned while recording (the sink must not
//!    perturb the loop);
//! 2. the verified [`ReplayRunner`] reconstruction (fresh AI + filter
//!    re-driven from the trace);
//! 3. a standard [`LoopRunner`] driven over a [`RecordedPopulation`]
//!    (the trace standing in for the population block).
//!
//! Equality is bit-level: the serialized JSON forms are compared too, so
//! NaN-safe byte identity is what is asserted, not mere `PartialEq`.
//!
//! The deterministic tests also evaluate a policy off-policy against
//! hand-written untrusted traces, which must report rather than panic.

use eqimpact::core::closed_loop::LoopBuilder;
use eqimpact::core::features::FeatureMatrix;
use eqimpact::core::recorder::{LoopRecord, RecordPolicy};
use eqimpact::core::scenario::Scale;
use eqimpact::credit::sim as credit_sim;
use eqimpact::credit::{AdrFilter, CreditTracer, ScorecardLender};
use eqimpact::hiring::sim as hiring_sim;
use eqimpact::hiring::{AdaptiveScreener, HiringTracer, TrackRecordFilter};
use eqimpact::stats::SimRng;
use eqimpact::trace::scenario::TraceReplayer;
use eqimpact::trace::{
    RecordedPopulation, TraceHeader, TraceReader, TraceStepSink, TraceWriter, FORMAT_VERSION,
};
use proptest::prelude::*;

/// The shard counts the acceptance criterion names.
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

fn credit_header(config: &credit_sim::CreditConfig, trial: usize) -> TraceHeader {
    TraceHeader {
        version: FORMAT_VERSION,
        scenario: "credit".to_string(),
        variant: "scorecard".to_string(),
        trial,
        scale: Scale::Quick,
        seed: config.seed,
        shards: config.shards,
        delay: config.delay,
        policy: config.policy,
        checkpoints: false,
    }
}

fn hiring_header(config: &hiring_sim::HiringConfig, trial: usize) -> TraceHeader {
    TraceHeader {
        version: FORMAT_VERSION,
        scenario: "hiring".to_string(),
        variant: "adaptive".to_string(),
        trial,
        scale: Scale::Quick,
        seed: config.seed,
        shards: config.shards,
        delay: config.delay,
        policy: config.policy,
        checkpoints: false,
    }
}

/// Asserts `replayed` is byte-identical to `original`, including the
/// serialized JSON form (bit-exact floats through the JSON layer).
fn assert_byte_identical(original: &LoopRecord, replayed: &LoopRecord, what: &str) {
    assert_eq!(original, replayed, "{what}: records differ");
    assert_eq!(
        original.to_json().render(),
        replayed.to_json().render(),
        "{what}: serialized forms differ"
    );
}

/// What an untrusted trace can hold for an offered user at step 1:
/// `(visible column 0, action)` — a NaN feature, or an action that is
/// neither 0 nor 1.
const UNTRUSTED: [(f64, f64); 2] = [(f64::NAN, 1.0), (1.0, 0.5)];

/// A CRC-valid trace of 4 users over 4 steps at delay 1, everyone
/// offered, with user 0's step-1 visible column 0 and action replaced by
/// `untrusted`.
fn untrusted_trace(scenario: &str, variant: &str, untrusted: (f64, f64)) -> Vec<u8> {
    let header = TraceHeader {
        version: FORMAT_VERSION,
        scenario: scenario.to_string(),
        variant: variant.to_string(),
        trial: 0,
        scale: Scale::Quick,
        seed: 0,
        shards: 1,
        delay: 1,
        policy: RecordPolicy::Full,
        checkpoints: false,
    };
    let mut writer = TraceWriter::new(Vec::new(), &header).unwrap();
    for k in 0..4 {
        let mut visible = FeatureMatrix::from_nested(&[
            vec![1.0, 60.0],
            vec![0.0, 10.0],
            vec![1.0, 40.0],
            vec![0.0, 12.0],
        ]);
        let mut actions = vec![1.0, 0.0, 1.0, 0.0];
        if k == 1 {
            visible.set(0, 0, untrusted.0);
            actions[0] = untrusted.1;
        }
        writer
            .write_step(&visible, &[1.0; 4], &actions, &[0.0, 1.0, 0.0, 1.0])
            .unwrap();
    }
    writer.finish().unwrap()
}

fn check_credit(users: usize, steps: usize, seed: u64, shards: usize) {
    let config = credit_sim::CreditConfig {
        users,
        steps,
        trials: 1,
        seed,
        lender: credit_sim::LenderKind::Scorecard,
        delay: 1,
        shards,
        policy: RecordPolicy::Full,
    };
    // Record under `shards`; the unsunk run must match the sunk one.
    let mut sink = TraceStepSink::new(Vec::new(), &credit_header(&config, 0)).unwrap();
    let recorded = credit_sim::run_trial_sunk(&config, 0, &mut sink);
    let bytes = sink.finish().unwrap();
    let plain = credit_sim::run_trial(&config, 0);
    assert_byte_identical(
        &plain.record,
        &recorded.record,
        "credit: sink perturbed the run",
    );

    // Verified replay (fresh lender + filter).
    let mut input: &[u8] = &bytes;
    let reader = TraceReader::new(&mut input as &mut dyn std::io::Read).unwrap();
    let summary = CreditTracer.replay(reader).unwrap();
    assert_byte_identical(
        &recorded.record,
        &summary.record,
        &format!("credit replay (shards {shards})"),
    );

    // The trace as a drop-in population block under the standard runner.
    let mut input: &[u8] = &bytes;
    let reader = TraceReader::new(&mut input).unwrap();
    let population = RecordedPopulation::new(reader).unwrap();
    let mut runner = LoopBuilder::new(ScorecardLender::paper_default(), population)
        .filter(AdrFilter::new())
        .delay(config.delay)
        .record(config.policy)
        .build();
    let rerun = runner.run(steps, &mut SimRng::new(0xDEAD));
    assert_byte_identical(
        &recorded.record,
        &rerun,
        &format!("credit RecordedPopulation (shards {shards})"),
    );
}

fn check_hiring(applicants: usize, rounds: usize, seed: u64, shards: usize) {
    let config = hiring_sim::HiringConfig {
        applicants,
        rounds,
        trials: 1,
        seed,
        screener: hiring_sim::ScreenerKind::Adaptive,
        delay: 1,
        shards,
        policy: RecordPolicy::Full,
    };
    let mut sink = TraceStepSink::new(Vec::new(), &hiring_header(&config, 0)).unwrap();
    let recorded = hiring_sim::run_trial_sunk(&config, 0, &mut sink);
    let bytes = sink.finish().unwrap();
    let plain = hiring_sim::run_trial(&config, 0);
    assert_byte_identical(
        &plain.record,
        &recorded.record,
        "hiring: sink perturbed the run",
    );

    let mut input: &[u8] = &bytes;
    let reader = TraceReader::new(&mut input as &mut dyn std::io::Read).unwrap();
    let summary = HiringTracer.replay(reader).unwrap();
    assert_byte_identical(
        &recorded.record,
        &summary.record,
        &format!("hiring replay (shards {shards})"),
    );

    let mut input: &[u8] = &bytes;
    let reader = TraceReader::new(&mut input).unwrap();
    let population = RecordedPopulation::new(reader).unwrap();
    let mut runner = LoopBuilder::new(AdaptiveScreener::default_config(), population)
        .filter(TrackRecordFilter::new())
        .delay(config.delay)
        .record(config.policy)
        .build();
    let rerun = runner.run(rounds, &mut SimRng::new(0xBEEF));
    assert_byte_identical(
        &recorded.record,
        &rerun,
        &format!("hiring RecordedPopulation (shards {shards})"),
    );
}

#[test]
fn credit_replay_is_byte_identical_across_shard_counts() {
    for shards in SHARD_COUNTS {
        check_credit(90, 8, 41, shards);
    }
    for untrusted in UNTRUSTED {
        let bytes = untrusted_trace("credit", "scorecard", untrusted);
        let mut input: &[u8] = &bytes;
        let reader = TraceReader::new(&mut input as &mut dyn std::io::Read).unwrap();
        let report = CreditTracer.evaluate(reader, "scorecard").unwrap();
        assert_eq!((report.steps, report.users), (4, 4));
    }
}

#[test]
fn hiring_replay_is_byte_identical_across_shard_counts() {
    for shards in SHARD_COUNTS {
        check_hiring(90, 8, 23, shards);
    }
    for untrusted in UNTRUSTED {
        let bytes = untrusted_trace("hiring", "adaptive", untrusted);
        let mut input: &[u8] = &bytes;
        let reader = TraceReader::new(&mut input as &mut dyn std::io::Read).unwrap();
        let report = HiringTracer.evaluate(reader, "adaptive").unwrap();
        assert_eq!((report.steps, report.users), (4, 4));
    }
}

proptest! {
    // Each case runs 4 full loops (sunk + plain + replay + rerun), so
    // the population stays small; the deterministic tests above cover
    // every shard count at a larger shape.
    #[test]
    fn credit_traces_replay_byte_identically(
        users in 20usize..50,
        steps in 2usize..6,
        seed in 0u64..=u64::MAX,
        shard_pick in 0usize..SHARD_COUNTS.len(),
    ) {
        check_credit(users, steps, seed, SHARD_COUNTS[shard_pick]);
    }

    #[test]
    fn hiring_traces_replay_byte_identically(
        applicants in 20usize..50,
        rounds in 2usize..6,
        seed in 0u64..=u64::MAX,
        shard_pick in 0usize..SHARD_COUNTS.len(),
    ) {
        check_hiring(applicants, rounds, seed, SHARD_COUNTS[shard_pick]);
    }
}
