//! The credit workloads.
//!
//! * `credit_paper` — the paper-scale loop: 1000 households x 19 yearly
//!   steps, the retrained scorecard lender, delay 1, the ADR filter and
//!   full records. One shard per trial; trials are striped over the
//!   lanes in batches, so retrain dominates and the shard barrier is
//!   bypassed.
//! * `credit_wide` — 20k households x 50 steps with the cheap
//!   income-multiple lender and thin records, each trial split into 2
//!   shards: respond (`std_normal_cdf` per row) dominates and retrain is
//!   negligible. The timed trials run as the multi-trial protocol runs
//!   them: striped over the lanes, so each trial's shards share its own
//!   lane. The traced run adds a few trials run one at a time with their
//!   shards on 2 lanes, where the shard pool's per-step barrier is on the
//!   critical path, for the shard metrics.

use crate::check::{compare, race_note, reference, CheckSink, CorruptFinalStep, Stat};
use crate::spans::{self, now_ns, Span, SpanLog, NO_STEP};
use crate::wrap::{run_wrapped, LoopShape};
use crate::{lane_usage, quantile, ratio, run_batch, Batch, Fault, Opts, Report, Timed, Workload};
use eqimpact_census::Race;
use eqimpact_core::pool::ThreadBudget;
use eqimpact_core::recorder::RecordPolicy;
use eqimpact_credit::sim::{run_trial_sunk, CreditConfig, LenderKind};
use eqimpact_credit::{AdrFilter, CreditPopulation, IncomeMultipleLender, ScorecardLender};
use eqimpact_stats::SimRng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The workload's loop configuration and batch size.
fn shape(opts: &Opts) -> (CreditConfig, usize) {
    let lanes = ThreadBudget::global().capacity();
    let paper = opts.workload == Workload::CreditPaper;
    let (users, steps) = match (paper, opts.tiny) {
        (true, false) => (1000, 19),
        (false, false) => (20_000, 50),
        (true, true) => (60, 8),
        (false, true) => (400, 6),
    };
    let config = CreditConfig {
        users,
        steps,
        trials: 1,
        seed: opts.seed,
        lender: if paper {
            LenderKind::Scorecard
        } else {
            LenderKind::IncomeMultiple
        },
        delay: 1,
        shards: if paper { 1 } else { 2 },
        policy: if paper {
            RecordPolicy::Full
        } else {
            RecordPolicy::Thin
        },
    };
    // Trials stripe over the lanes in batches. A wide trial's shards then
    // lease no extra lane and run in turn on the trial's own lane, as in
    // `run_trials_protocol`: one trial at a time with its shards on both
    // lanes makes every step wait for the slower lane, and on a shared
    // host that wait swings the figures by tens of percent.
    let batch = if paper { 8 * lanes } else { lanes };
    (config, batch)
}

fn reference_key(opts: &Opts) -> &'static str {
    match opts.workload {
        Workload::CreditPaper => "credit_paper",
        _ => "credit_wide",
    }
}

/// Trials the traced run re-runs one at a time for the shard metrics.
const SHARD_TRIALS: usize = 3;

/// One checked trial.
struct Trial {
    index: usize,
    lane: u64,
    start: u64,
    end: u64,
    digest: u64,
    race: [f64; 3],
    failures: Vec<String>,
    /// Traced runs only: the trial's spans and Σ training rows at refits.
    spans: Vec<Span>,
    rows: u64,
}

impl Timed for Trial {
    fn timing(&self) -> (u64, u64, u64) {
        (self.lane, self.start, self.end)
    }
}

impl Trial {
    fn ms(&self) -> f64 {
        (self.end - self.start) as f64 / 1e6
    }
}

/// One trial through the public entry point `run_trial_sunk`, with the
/// checker as its step sink.
fn run_public(config: &CreditConfig, index: usize, fault: bool) -> Trial {
    let mut check = CheckSink::new(config.steps, Stat::FinalFiltered);
    let lane = crate::lane_id();
    let start = now_ns();
    let outcome = if fault {
        run_trial_sunk(config, index, &mut CorruptFinalStep { inner: &mut check })
    } else {
        run_trial_sunk(config, index, &mut check)
    };
    let end = now_ns();
    check.finish(&outcome.record, config.users);
    Trial {
        index,
        lane,
        start,
        end,
        digest: check.digest(),
        race: check.race_stat(),
        failures: check.failures,
        spans: Vec::new(),
        rows: 0,
    }
}

/// One trial with every block wrapped in a timing adapter.
fn run_traced(config: &CreditConfig, index: usize) -> Trial {
    let lane = crate::lane_id();
    let log = Arc::new(SpanLog::open(index as u64));
    let start = now_ns();
    let rng = SimRng::new(config.seed.wrapping_add(index as u64));
    let mut pop_rng = rng.split(1);
    let mut loop_rng = rng.split(2);
    let population = log.time("census.generate", NO_STEP, None, || {
        CreditPopulation::generate(config.users, &mut pop_rng)
    });
    let labels: Vec<&str> = Race::ALL.iter().map(|r| r.label()).collect();
    let codes: Vec<u32> = population
        .races()
        .iter()
        .map(|r| r.index() as u32)
        .collect();
    let mut check = CheckSink::new(config.steps, Stat::FinalFiltered);
    eqimpact_core::recorder::StepSink::on_groups(&mut check, &labels, &codes);
    let shape = LoopShape {
        users: config.users,
        steps: config.steps,
        delay: config.delay,
        policy: config.policy,
        shards: config.shards,
    };
    let (record, rows) = match config.lender {
        LenderKind::Scorecard => run_wrapped(
            ScorecardLender::paper_default(),
            population,
            AdrFilter::new(),
            &shape,
            &log,
            &mut loop_rng,
            &mut check,
        ),
        _ => run_wrapped(
            IncomeMultipleLender::new(eqimpact_credit::model::INCOME_MULTIPLE),
            population,
            AdrFilter::new(),
            &shape,
            &log,
            &mut loop_rng,
            &mut check,
        ),
    };
    let end = now_ns();
    check.finish(&record, config.users);
    let log = Arc::try_unwrap(log).expect("every adapter of the trial has been dropped");
    Trial {
        index,
        lane,
        start,
        end,
        digest: check.digest(),
        race: check.race_stat(),
        failures: check.failures,
        spans: log.close("trial"),
        rows,
    }
}

/// One set-up pass: the census tables and one warm-up trial of the
/// workload's shape per lane, striped as the timed trials are.
pub fn setup(opts: &Opts) -> Vec<String> {
    let (config, _) = shape(opts);
    let mut problems = Vec::new();
    if let Err(e) = reference(reference_key(opts)) {
        problems.push(e);
    }
    drop(eqimpact_census::IncomeTable::embedded());
    let lanes = ThreadBudget::global().capacity();
    for trial in run_batch(lanes, |t| run_public(&config, t, false)).items {
        problems.extend(trial.failures);
    }
    problems
}

/// Runs batches of trials until `seconds` have passed.
fn measure(batch: usize, seconds: f64, run: impl Fn(usize) -> Trial + Sync) -> Vec<Batch<Trial>> {
    let start = now_ns();
    let mut batches = Vec::new();
    let mut next = 0;
    while batches.is_empty() || ((now_ns() - start) as f64) < seconds * 1e9 {
        let first = next;
        batches.push(run_batch(batch, |i| run(first + i)));
        next += batch;
    }
    batches
}

/// The trial of a one-trial batch, which then has every lane to itself.
fn single(batch: Batch<Trial>) -> Trial {
    let mut items = batch.items;
    items.swap_remove(0)
}

/// Re-runs exactly the trials of `batches`, batch for batch.
fn rerun(batches: &[Batch<Trial>], run: impl Fn(usize) -> Trial + Sync) -> Vec<Batch<Trial>> {
    batches
        .iter()
        .map(|b| {
            let first = b.items[0].index;
            run_batch(b.items.len(), |i| run(first + i))
        })
        .collect()
}

fn wall_ns(batches: &[Batch<Trial>]) -> f64 {
    let start = batches.first().map_or(0, |b| b.start);
    let end = batches.last().map_or(0, |b| b.end);
    end.saturating_sub(start) as f64
}

/// Tallies every trial's checks and the run's race-wise reference check.
fn tally(opts: &Opts, batches: &[Batch<Trial>], report: &mut Report) {
    let mut per_loop = Vec::new();
    for trial in batches.iter().flat_map(|b| &b.items) {
        report.tally(&format!("trial {}", trial.index), &trial.failures);
        per_loop.push(trial.race);
    }
    report
        .notes
        .push(race_note("race-wise final ADR", &per_loop));
    if !opts.tiny {
        let problems = match reference(reference_key(opts)) {
            Ok(r) => compare(&r, &per_loop),
            Err(e) => vec![e],
        };
        report.tally("race-wise reference", &problems);
    }
}

pub fn run(opts: &Opts, report: &mut Report) {
    let (config, batch) = shape(opts);
    let fault = opts.fault == Fault::Adr;
    let public = |t: usize| run_public(&config, t, fault && t == 0);
    let batches = measure(batch, opts.untraced_seconds(), public);
    tally(opts, &batches, report);
    let trials: Vec<&Trial> = batches.iter().flat_map(|b| &b.items).collect();
    let wall = wall_ns(&batches);
    let ms: Vec<f64> = trials.iter().map(|t| t.ms()).collect();
    report.notes.push(format!(
        "{} trials of {} users x {} steps in {:.3} s, {} per batch; rates are medians over batches",
        trials.len(),
        config.users,
        config.steps,
        wall / 1e9,
        batch
    ));
    if !opts.trace {
        // Rates are the median over batches, so a few seconds in which the
        // host is busy elsewhere move them less than a mean would.
        let per_batch = |per_trial: f64| -> Vec<f64> {
            batches
                .iter()
                .map(|b| {
                    ratio(
                        per_trial * b.items.len() as f64,
                        (b.end - b.start) as f64 / 1e9,
                    )
                })
                .collect()
        };
        let steps = (config.users * config.steps) as f64;
        report.metric(
            "user_steps_per_s",
            quantile(&per_batch(steps), 0.5),
            "user-steps/s",
        );
        report.metric("trial_ms_p50", quantile(&ms, 0.5), "ms");
        report.metric("trial_ms_p90", quantile(&ms, 0.9), "ms");
        report.metric("ops_per_s", quantile(&per_batch(1.0), 0.5), "ops/s");
        report.notes.push(format!(
            "trial_ms over {} samples; {} samples above p90",
            ms.len(),
            ms.len() - (0.9 * ms.len() as f64).ceil() as usize
        ));
        return;
    }
    traced(&config, &batches, report);
}

/// The traced run: the same trials again through the wrapped blocks,
/// their digests checked against the untraced ones, and the per-layer
/// metrics computed from their spans.
fn traced(config: &CreditConfig, untraced: &[Batch<Trial>], report: &mut Report) {
    let batches = rerun(untraced, |t| run_traced(config, t));
    let overhead = ratio(wall_ns(&batches), wall_ns(untraced));
    for (a, b) in untraced
        .iter()
        .flat_map(|b| &b.items)
        .zip(batches.iter().flat_map(|b| &b.items))
    {
        report.tally(&format!("traced trial {}", b.index), &b.failures);
        let problems = if a.digest == b.digest {
            Vec::new()
        } else {
            vec![format!(
                "wrapped-block digest {:016x} differs from run_trial's {:016x}",
                b.digest, a.digest
            )]
        };
        report.tally(&format!("digest of trial {}", a.index), &problems);
    }
    let first = &untraced[0].items[0];
    report.notes.push(format!(
        "digest trial {}: run_trial {:016x}, wrapped blocks {:016x}",
        first.index, first.digest, batches[0].items[0].digest
    ));

    // The shard layer: the first few trials again, one at a time with
    // their shards on every lane (untraced, then traced for the barrier
    // statistics), and on one lane without shards. All digests must equal
    // the striped run's.
    let mut speedup = 0.0;
    let mut shard = ShardStats::default();
    let mut shard_spans = Vec::new();
    if config.shards > 1 {
        let one_lane = CreditConfig {
            shards: 1,
            ..*config
        };
        let (mut two_ms, mut one_ms) = (Vec::new(), Vec::new());
        for striped in untraced.iter().flat_map(|b| &b.items).take(SHARD_TRIALS) {
            let t = striped.index;
            let two = single(run_batch(1, |_| run_public(config, t, false)));
            let wrapped = single(run_batch(1, |_| run_traced(config, t)));
            let one = run_public(&one_lane, t, false);
            report.tally(
                &format!("traced {}-lane trial {t}", config.shards),
                &wrapped.failures,
            );
            let mut problems = Vec::new();
            for (what, digest) in [
                (format!("{}-lane", config.shards), two.digest),
                (format!("traced {}-lane", config.shards), wrapped.digest),
                ("1-lane".to_string(), one.digest),
            ] {
                if digest != striped.digest {
                    problems.push(format!(
                        "{what} digest {digest:016x} differs from the striped run's {:016x}",
                        striped.digest
                    ));
                }
            }
            report.tally(&format!("lane digests of trial {t}"), &problems);
            report.notes.push(format!(
                "digest trial {t}: striped {:016x}, {} lanes {:016x}, traced {} lanes {:016x}, 1 lane {:016x}",
                striped.digest, config.shards, two.digest, config.shards, wrapped.digest, one.digest
            ));
            two_ms.push(two.ms());
            one_ms.push(one.ms());
            shard.add(&wrapped.spans);
            let mut spans = wrapped.spans;
            spans[0].name = "trial.sharded";
            shard_spans.extend(spans);
        }
        speedup = ratio(quantile(&one_ms, 0.5), quantile(&two_ms, 0.5));
    }

    let trials: Vec<&Trial> = batches.iter().flat_map(|b| &b.items).collect();
    let n = trials.len() as f64;
    let mut busy: BTreeMap<&str, f64> = BTreeMap::new();
    let mut calls: BTreeMap<&str, f64> = BTreeMap::new();
    let mut self_ms = 0.0;
    for t in &trials {
        for s in &t.spans[1..] {
            *busy.entry(s.name).or_insert(0.0) += s.ns() as f64 / 1e6;
            *calls.entry(s.name).or_insert(0.0) += 1.0;
        }
        self_ms += spans::self_times(&t.spans)
            .get("trial")
            .copied()
            .unwrap_or(0) as f64
            / 1e6;
    }
    let per = |m: &BTreeMap<&str, f64>, k: &str| ratio(m.get(k).copied().unwrap_or(0.0), n);
    let rows: f64 = trials.iter().map(|t| t.rows as f64).sum();
    let (lane_busy, tail_idle) = lane_usage(&batches);

    report.metric(
        "loop.retrain.busy_ms",
        per(&busy, "loop.retrain"),
        "ms/trial",
    );
    report.metric(
        "loop.retrain.calls",
        per(&calls, "loop.retrain"),
        "count/trial",
    );
    report.metric("loop.retrain.rows", ratio(rows, n), "count/trial");
    report.metric(
        "loop.respond.busy_ms",
        per(&busy, "loop.respond"),
        "ms/trial",
    );
    report.metric(
        "loop.observe.busy_ms",
        per(&busy, "loop.observe"),
        "ms/trial",
    );
    report.metric("loop.signal.busy_ms", per(&busy, "loop.signal"), "ms/trial");
    report.metric("loop.filter.busy_ms", per(&busy, "loop.filter"), "ms/trial");
    report.metric("loop.self_ms", ratio(self_ms, n), "ms/trial");
    report.metric(
        "census.generate_ms",
        per(&busy, "census.generate"),
        "ms/trial",
    );
    report.metric("stats.normal_cdf_ns", crate::normal_cdf_ns(), "ns/call");
    report.metric(
        "shard.lane_busy_ms",
        ratio(shard.busy_ms, shard.lane_trials),
        "ms/trial",
    );
    report.metric(
        "shard.barrier_wait_ms",
        ratio(shard.wait_ms, shard.lane_trials),
        "ms/trial",
    );
    report.metric(
        "shard.imbalance",
        ratio(shard.imbalance, shard.steps),
        "ratio",
    );
    report.metric("shard.speedup_2v1", speedup, "ratio");
    report.metric("trials.lane_busy_ms", lane_busy, "ms/batch");
    report.metric("trials.tail_idle_ms", tail_idle, "ms/batch");
    crate::hiring::absent_pipeline_metrics(report);
    report.metric("bench.trace_overhead", overhead, "ratio");

    layer_table(report, &busy, self_ms, &["census.generate"]);
    report.spans = batches
        .into_iter()
        .flat_map(|b| b.items)
        .flat_map(|t| t.spans)
        .chain(shard_spans)
        .collect();
}

/// Per-step shard statistics, summed over trials.
#[derive(Default)]
struct ShardStats {
    /// Σ over trials and lanes of the lane's busy time, ms.
    busy_ms: f64,
    /// Σ over trials, steps and lanes of the barrier wait, ms.
    wait_ms: f64,
    /// Σ over steps of max lane busy / mean lane busy.
    imbalance: f64,
    steps: f64,
    /// Σ over trials of the lane count.
    lane_trials: f64,
}

impl ShardStats {
    /// Adds one trial. A step's barrier wait on a lane is the phase span
    /// (first shard start to last shard end) minus that lane's busy time.
    fn add(&mut self, spans: &[Span]) {
        let mut steps: BTreeMap<u32, (u64, u64, BTreeMap<u32, u64>)> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.step != NO_STEP) {
            let Some(lane) = s.lane else { continue };
            let e = steps
                .entry(s.step)
                .or_insert((u64::MAX, 0, BTreeMap::new()));
            e.0 = e.0.min(s.start);
            e.1 = e.1.max(s.end);
            *e.2.entry(lane).or_insert(0) += s.ns();
        }
        let mut lanes = 0;
        for (start, end, busy) in steps.values() {
            let phase = end.saturating_sub(*start);
            let max = busy.values().copied().max().unwrap_or(0) as f64;
            let mean = busy.values().sum::<u64>() as f64 / busy.len() as f64;
            for &b in busy.values() {
                self.busy_ms += b as f64 / 1e6;
                self.wait_ms += phase.saturating_sub(b) as f64 / 1e6;
            }
            self.imbalance += ratio(max, mean);
            self.steps += 1.0;
            lanes = lanes.max(busy.len());
        }
        self.lane_trials += lanes as f64;
    }
}

/// Prints the layer table: each layer's busy time as a share of the
/// total, largest first.
pub fn layer_table(report: &mut Report, busy: &BTreeMap<&str, f64>, self_ms: f64, skip: &[&str]) {
    let mut rows: Vec<(&str, f64)> = busy
        .iter()
        .filter(|(k, _)| k.starts_with("loop.") && !skip.contains(k))
        .map(|(k, v)| (*k, *v))
        .collect();
    rows.push(("loop.self", self_ms));
    let total: f64 = rows.iter().map(|r| r.1).sum();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    report
        .notes
        .push("layer table (busy time, share of loop time):".to_string());
    for (name, ms) in rows {
        report.notes.push(format!(
            "  {name:<14} {ms:>12.3} ms  {:>6.2}%",
            100.0 * ratio(ms, total)
        ));
    }
}
