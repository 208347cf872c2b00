//! Building-block microbenchmarks (not paper artifacts) plus three
//! hardware-independent regression gates. End-to-end timing of real
//! closed loops, with repetitions, spread, per-layer tables and a host
//! fingerprint, lives in `perfbench/`; this bench only prints to stdout
//! and writes no files.
//!
//! Criterion arms: P0 `perf/loop_api` (generic in-place loop step
//! throughput on a synthetic loop), `perf/credit_loop`, `perf/irls`,
//! `perf/markov` and `perf/invariant`.
//!
//! Self-timed gates. Each takes its samples round-robin over its legs,
//! rotating the starting leg every round so neither a slow phase of a
//! shared host nor a fixed position within a round can bias one leg, and
//! prints the legs' medians:
//!
//! * P5 `perf/sharded_loop`: the pooled 1-shard `ShardedRunner` stays
//!   within 1.25x + 5 ms of the sequential `LoopRunner` (the pool's
//!   submit/barrier overhead is per step, not per thread spawn).
//! * P8 `perf/columnar`: batched column-kernel scoring stays within
//!   1.10x + 5 ms of a row-gathering baseline replicating the
//!   pre-redesign row-major hot path, after both are proven
//!   bit-identical.
//! * P10 `perf/observability`: the instrumented `LoopRunner` with the
//!   telemetry recorder disabled stays within 1.10x + 5 ms of a
//!   hand-rolled uninstrumented twin, after both are proven
//!   bit-identical; the enabled-recorder median is printed for
//!   information.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eqimpact_core::closed_loop::{AiSystem, Feedback, LoopBuilder, MeanFilter, UserPopulation};
use eqimpact_core::features::FeatureMatrix;
use eqimpact_core::recorder::RecordPolicy;
use eqimpact_core::shard::{
    shard_bounds, ColsMut, ColsView, PopulationShard, RowStreams, ShardableAi, ShardablePopulation,
};
use eqimpact_core::tail::{StepTail, TailHooks};
use eqimpact_credit::sim::{run_trial, CreditConfig, LenderKind};
use eqimpact_markov::ifs::{affine1d, Ifs};
use eqimpact_markov::invariant::estimate_invariant_measure;
use eqimpact_markov::operator::{markov_operator_apply, ParticleMeasure};
use eqimpact_ml::logistic::{sigmoid, LogisticModel, LogisticRegression};
use eqimpact_ml::Dataset;
use eqimpact_stats::SimRng;
use std::ops::Range;
use std::time::Instant;

/// Synthetic AI block implementing the in-place hook (zero allocation).
struct ThresholdAi;

impl AiSystem for ThresholdAi {
    fn signals_into(&mut self, _k: usize, visible: &FeatureMatrix, out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            visible
                .col(0)
                .iter()
                .map(|&v| if v > 0.5 { 1.0 } else { 0.3 }),
        );
    }
    fn retrain(&mut self, _k: usize, _feedback: &Feedback) {}
}

/// Synthetic width-2 population with in-place hooks.
struct SyntheticUsers {
    n: usize,
}

impl SyntheticUsers {
    fn feature(&self, k: usize, i: usize, j: usize) -> f64 {
        ((i * 31 + k * 17 + j * 7) % 100) as f64 / 100.0
    }
}

impl UserPopulation for SyntheticUsers {
    fn user_count(&self) -> usize {
        self.n
    }
    fn observe_into(&mut self, k: usize, _rng: &mut SimRng, out: &mut FeatureMatrix) {
        out.reshape(self.n, 2);
        let (c0, c1) = out.cols_pair_mut(0, 1);
        for i in 0..self.n {
            c0[i] = self.feature(k, i, 0);
            c1[i] = self.feature(k, i, 1);
        }
    }
    fn respond_into(&mut self, _k: usize, signals: &[f64], rng: &mut SimRng, out: &mut Vec<f64>) {
        out.clear();
        out.extend(signals.iter().map(|&s| {
            if rng.bernoulli(0.2 + 0.6 * s) {
                1.0
            } else {
                0.0
            }
        }));
    }
}

/// P0: loop step throughput of the generic in-place runner on a
/// synthetic loop.
fn bench_loop_api(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf/loop_api");
    group.sample_size(20);
    for &(users, steps) in &[(1_000usize, 200usize), (10_000, 50)] {
        let label = format!("{users}users_{steps}steps");
        group.bench_function(BenchmarkId::new("generic_inplace", &label), |b| {
            b.iter(|| {
                let mut runner = LoopBuilder::new(ThresholdAi, SyntheticUsers { n: users })
                    .filter(MeanFilter::default())
                    .delay(1)
                    .record(RecordPolicy::Thin)
                    .build();
                runner.run(steps, &mut SimRng::new(42))
            })
        });
    }
    group.finish();
}

/// Shard-invariant synthetic population for the sharding bench: the
/// per-user work (an index-keyed stream, a resample-like draw, a
/// Bernoulli response) mirrors the credit population's per-household
/// cost, so the measured scaling is representative.
struct ShardSynthUsers {
    n: usize,
}

struct ShardSynthShard {
    rows: Range<usize>,
}

fn synth_observe(k: usize, streams: &RowStreams, out: &mut ColsMut<'_>) {
    // Row-major draw order (all of row i's draws from row i's stream)
    // with columnar writes.
    let rows = out.rows();
    let (gate, income_col) = out.cols_pair_mut(0, 1);
    for (j, i) in rows.enumerate() {
        let mut rng = streams.for_row(i);
        let income = 10.0 + 40.0 * rng.uniform() + rng.standard_normal().abs();
        gate[j] = if income >= 15.0 { 1.0 } else { 0.0 };
        income_col[j] = income + 0.001 * k as f64;
    }
}

fn synth_respond(rows: Range<usize>, signals: &[f64], streams: &RowStreams, out: &mut [f64]) {
    for (j, i) in rows.enumerate() {
        let mut rng = streams.for_row(i);
        let p = (0.1 + 0.015 * signals[j]).clamp(0.0, 1.0);
        out[j] = if rng.bernoulli(p) { 1.0 } else { 0.0 };
    }
}

impl UserPopulation for ShardSynthUsers {
    fn user_count(&self) -> usize {
        self.n
    }
    fn observe_into(
        &mut self,
        k: usize,
        rng: &mut eqimpact_stats::SimRng,
        out: &mut FeatureMatrix,
    ) {
        out.reshape(self.n, 2);
        let streams = RowStreams::observe(rng, k);
        synth_observe(k, &streams, &mut ColsMut::full(out));
    }
    fn respond_into(
        &mut self,
        k: usize,
        signals: &[f64],
        rng: &mut eqimpact_stats::SimRng,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.resize(self.n, 0.0);
        let streams = RowStreams::respond(rng, k);
        synth_respond(0..self.n, signals, &streams, out);
    }
}

impl ShardablePopulation for ShardSynthUsers {
    type Shard = ShardSynthShard;
    fn feature_width(&self) -> usize {
        2
    }
    fn into_row_shards(self, parts: usize) -> Vec<ShardSynthShard> {
        shard_bounds(self.n, parts)
            .into_iter()
            .map(|rows| ShardSynthShard { rows })
            .collect()
    }
    fn from_row_shards(shards: Vec<ShardSynthShard>) -> Self {
        ShardSynthUsers {
            n: shards.last().map(|s| s.rows.end).unwrap_or(0),
        }
    }
}

impl PopulationShard for ShardSynthShard {
    fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }
    fn observe_cols(&mut self, k: usize, streams: &RowStreams, out: &mut ColsMut<'_>) {
        synth_observe(k, streams, out);
    }
    fn respond_rows(&mut self, _k: usize, signals: &[f64], streams: &RowStreams, out: &mut [f64]) {
        synth_respond(self.rows.clone(), signals, streams, out);
    }
}

/// Income-multiple-style lender with per-row signals (cheap retrain, so
/// the parallel sweep dominates, as in a production serving loop).
struct ShardThresholdAi;

impl AiSystem for ShardThresholdAi {
    fn signals_into(&mut self, k: usize, visible: &FeatureMatrix, out: &mut Vec<f64>) {
        self.signals_full(k, visible, out);
    }
    fn retrain(&mut self, _k: usize, _feedback: &Feedback) {}
}

impl ShardableAi for ShardThresholdAi {
    fn signals_batch(&self, _k: usize, visible: &ColsView<'_>, out: &mut [f64]) {
        let gate = visible.col(0);
        let income = visible.col(1);
        for (j, o) in out.iter_mut().enumerate() {
            *o = if gate[j] > 0.5 { 3.5 * income[j] } else { 0.0 };
        }
    }
}

/// One timed run of the sharding bench's loop: through the pooled
/// [`ShardedRunner`](eqimpact_core::shard::ShardedRunner) with a single shard when
/// `pooled`, else through the sequential
/// [`LoopRunner`](eqimpact_core::LoopRunner).
fn time_one_run(users: usize, steps: usize, pooled: bool) -> f64 {
    let builder = LoopBuilder::new(ShardThresholdAi, ShardSynthUsers { n: users })
        .filter(MeanFilter::default())
        .delay(1)
        .record(RecordPolicy::Thin);
    if pooled {
        let mut runner = builder.shards(1).build_sharded();
        let start = Instant::now();
        let record = runner.run(steps, &mut eqimpact_stats::SimRng::new(7));
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(record.steps(), steps);
        elapsed
    } else {
        let mut runner = builder.build();
        let start = Instant::now();
        let record = runner.run(steps, &mut eqimpact_stats::SimRng::new(7));
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(record.steps(), steps);
        elapsed
    }
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// P5: the worker pool's sequential-path invariant at the 100k-user
/// scale, self-timed (one full run per sample). Both legs do identical
/// work, so any ordered-measurement difference is pure drift — hence the
/// rotated round-robin sampling.
fn bench_sharded_loop(_c: &mut Criterion) {
    let quick = criterion::is_quick();
    let (users, steps) = (100_000usize, 50usize);
    let reps = if quick { 2 } else { 10 };

    println!("\n-- group: perf/sharded_loop ({users} users x {steps} steps) --");

    // Leg 0 is the sequential LoopRunner, leg 1 the pooled runner
    // driving a single shard.
    let mut samples: Vec<Vec<f64>> = (0..2).map(|_| Vec::with_capacity(reps)).collect();
    // One warm-up pass, then the recorded rotated round-robin passes.
    time_one_run(users, steps, false);
    for rep in 0..reps {
        for j in 0..2 {
            let c = (j + rep) % 2;
            samples[c].push(time_one_run(users, steps, c == 1));
        }
    }

    let baseline_ms = median(&mut samples[0]);
    let single_shard_ms = median(&mut samples[1]);
    println!("perf/sharded_loop/loop_runner_sequential           median {baseline_ms:>10.2} ms");
    println!(
        "perf/sharded_loop/shards=1                         median {single_shard_ms:>10.2} ms"
    );

    // The pool invariant (hardware-independent): driving 1 shard through
    // the pooled runner must stay within measurement noise of the plain
    // sequential LoopRunner. Before the worker pool, per-step thread
    // spawns made small shard counts a *slowdown* (8 shards ran at
    // 0.94x on 1 core); a pooled run leases zero workers there, so any
    // systematic gap is a regression.
    assert!(
        single_shard_ms <= baseline_ms * 1.25 + 5.0,
        "pooled 1-shard ShardedRunner ({single_shard_ms:.2} ms) regressed \
         vs the sequential LoopRunner ({baseline_ms:.2} ms)"
    );
}

/// Feature width of the columnar bench population: wide enough that the
/// per-column kernel passes dominate the fixed loop overhead.
const COLUMNAR_WIDTH: usize = 8;

/// Deterministic wide population for the columnar bench (no RNG in the
/// observe sweep, so the measured difference is pure scoring cost).
struct WideUsers {
    n: usize,
}

impl UserPopulation for WideUsers {
    fn user_count(&self) -> usize {
        self.n
    }
    fn observe_into(&mut self, k: usize, _rng: &mut SimRng, out: &mut FeatureMatrix) {
        out.reshape(self.n, COLUMNAR_WIDTH);
        for j in 0..COLUMNAR_WIDTH {
            for (i, cell) in out.col_mut(j).iter_mut().enumerate() {
                *cell = ((i * 31 + k * 17 + j * 7) % 100) as f64 / 100.0;
            }
        }
    }
    fn respond_into(&mut self, _k: usize, signals: &[f64], _rng: &mut SimRng, out: &mut Vec<f64>) {
        out.clear();
        out.extend(signals.iter().map(|&s| if s > 0.0 { 1.0 } else { 0.0 }));
    }
}

fn columnar_model() -> LogisticModel {
    LogisticModel {
        intercept: -0.25,
        coefficients: (0..COLUMNAR_WIDTH)
            .map(|j| 0.05 * (j + 1) as f64 * if j % 2 == 0 { 1.0 } else { -1.0 })
            .collect(),
        iterations: 0,
        converged: true,
    }
}

/// The pre-redesign row-major hot path: gather each row into a scratch
/// buffer, fold the dot product per row.
struct RowScoredAi {
    model: LogisticModel,
    buf: Vec<f64>,
}

impl AiSystem for RowScoredAi {
    fn signals_into(&mut self, _k: usize, visible: &FeatureMatrix, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(visible.row_count());
        for i in 0..visible.row_count() {
            visible.copy_row_into(i, &mut self.buf);
            out.push(self.model.linear_score(&self.buf));
        }
    }
    fn retrain(&mut self, _k: usize, _feedback: &Feedback) {}
}

/// The columnar hot path: one batched kernel sweep over the column
/// slices ([`LogisticModel::linear_scores_into`]).
struct BatchScoredAi {
    model: LogisticModel,
}

impl AiSystem for BatchScoredAi {
    fn signals_into(&mut self, _k: usize, visible: &FeatureMatrix, out: &mut Vec<f64>) {
        out.clear();
        out.resize(visible.row_count(), 0.0);
        self.model.linear_scores_into(&visible.col_slices(), out);
    }
    fn retrain(&mut self, _k: usize, _feedback: &Feedback) {}
}

/// One timed run of the columnar-vs-row loop (`columnar` picks the arm).
fn time_columnar_run(users: usize, steps: usize, columnar: bool) -> f64 {
    fn timed(mut runner: impl FnMut() -> usize, steps: usize) -> f64 {
        let start = Instant::now();
        let recorded = runner();
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(recorded, steps);
        elapsed
    }
    if columnar {
        let mut runner = LoopBuilder::new(
            BatchScoredAi {
                model: columnar_model(),
            },
            WideUsers { n: users },
        )
        .filter(MeanFilter::default())
        .delay(1)
        .record(RecordPolicy::Thin)
        .build();
        timed(|| runner.run(steps, &mut SimRng::new(11)).steps(), steps)
    } else {
        let mut runner = LoopBuilder::new(
            RowScoredAi {
                model: columnar_model(),
                buf: Vec::with_capacity(COLUMNAR_WIDTH),
            },
            WideUsers { n: users },
        )
        .filter(MeanFilter::default())
        .delay(1)
        .record(RecordPolicy::Thin)
        .build();
        timed(|| runner.run(steps, &mut SimRng::new(11)).steps(), steps)
    }
}

/// P8: the columnar feature plane. The same loop scored twice — once
/// through a row-gathering AI replicating the pre-redesign row-major hot
/// path, once through the batched column kernels — with the two paths
/// proven bit-identical on a small run before anything is timed.
/// Samples rotate round-robin as in P5.
fn bench_columnar(_c: &mut Criterion) {
    let quick = criterion::is_quick();
    let (users, steps) = (100_000usize, 50usize);
    let reps = if quick { 2 } else { 10 };

    println!(
        "\n-- group: perf/columnar ({users} users x {steps} steps, width {COLUMNAR_WIDTH}) --"
    );

    // The two arms are the same computation by the kernel bit-identity
    // contract — proven here, so the timing compares equal work.
    {
        let mut batched = LoopBuilder::new(
            BatchScoredAi {
                model: columnar_model(),
            },
            WideUsers { n: 1_000 },
        )
        .filter(MeanFilter::default())
        .delay(1)
        .build();
        let mut gathered = LoopBuilder::new(
            RowScoredAi {
                model: columnar_model(),
                buf: Vec::new(),
            },
            WideUsers { n: 1_000 },
        )
        .filter(MeanFilter::default())
        .delay(1)
        .build();
        assert_eq!(
            batched.run(5, &mut SimRng::new(11)),
            gathered.run(5, &mut SimRng::new(11)),
            "columnar and row-gathered scoring diverged"
        );
    }

    let mut samples: Vec<Vec<f64>> = (0..2).map(|_| Vec::with_capacity(reps)).collect();
    time_columnar_run(users, steps, true); // warm-up
    for rep in 0..reps {
        for j in 0..2 {
            let c = (j + rep) % 2;
            samples[c].push(time_columnar_run(users, steps, c == 1));
        }
    }

    let row_ms = median(&mut samples[0]);
    let col_ms = median(&mut samples[1]);
    let speedup = row_ms / col_ms;
    println!("perf/columnar/row_gather                           median {row_ms:>10.2} ms");
    println!(
        "perf/columnar/batch_kernels                        median {col_ms:>10.2} ms  speedup x{speedup:.2}"
    );

    // Hardware-independent invariant: the batched kernels must not lose
    // to the row gather they replaced — same math, strictly less work
    // per row (no gather, no per-row call) — modulo measurement noise.
    assert!(
        col_ms <= row_ms * 1.10 + 5.0,
        "columnar batch scoring ({col_ms:.2} ms) regressed vs the \
         row-gather baseline ({row_ms:.2} ms)"
    );
}

/// A hand-rolled uninstrumented twin of [`LoopRunner::run`](eqimpact_core::LoopRunner::run): the same
/// hooks in the same order with the same buffer recycling, but with no
/// telemetry statements compiled in at all — the baseline the
/// disabled-recorder overhead is measured against. Its tail is the
/// shared [`StepTail`] under untimed hooks, which compile its spans out.
/// Kept bit-identical to the real runner (asserted in
/// [`bench_observability`] before timing).
fn uninstrumented_twin(users: usize, steps: usize) -> eqimpact_core::recorder::LoopRecord {
    struct Untimed;
    impl TailHooks for Untimed {
        type Error = std::convert::Infallible;
    }

    let mut ai = ThresholdAi;
    let mut population = SyntheticUsers { n: users };
    let mut tail = StepTail::new(MeanFilter::default(), 1, RecordPolicy::Thin);
    let mut rng = SimRng::new(42);
    let n = population.user_count();
    let mut record = eqimpact_core::recorder::LoopRecord::with_policy(n, RecordPolicy::Thin);
    record.reserve(steps);
    let mut visible = FeatureMatrix::default();
    let mut signals = Vec::new();
    let mut actions = Vec::new();
    for k in 0..steps {
        population.observe_into(k, &mut rng, &mut visible);
        ai.signals_into(k, &visible, &mut signals);
        population.respond_into(k, &signals, &mut rng, &mut actions);
        let Ok(()) = tail.step(
            k,
            &mut ai,
            &visible,
            &signals,
            &actions,
            &mut record,
            &mut (),
            &mut Untimed,
        );
    }
    record
}

/// One timed run of the observability bench. Arm 0 is the uninstrumented
/// twin, arm 1 the instrumented [`LoopRunner`](eqimpact_core::LoopRunner) with no recorder
/// installed, arm 2 the same runner with the recorder enabled.
fn time_obs_run(users: usize, steps: usize, arm: usize) -> f64 {
    if arm == 0 {
        let start = Instant::now();
        let record = uninstrumented_twin(users, steps);
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(record.steps(), steps);
        return elapsed;
    }
    if arm == 2 {
        eqimpact_telemetry::Recorder::install();
    }
    let mut runner = LoopBuilder::new(ThresholdAi, SyntheticUsers { n: users })
        .filter(MeanFilter::default())
        .delay(1)
        .record(RecordPolicy::Thin)
        .build();
    let start = Instant::now();
    let record = runner.run(steps, &mut SimRng::new(42));
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    if arm == 2 {
        eqimpact_telemetry::Recorder::uninstall();
    }
    assert_eq!(record.steps(), steps);
    elapsed
}

/// P10: the telemetry plane's overhead contract. The instrumented loop
/// with the recorder **disabled** must stay within measurement noise of
/// a hand-rolled uninstrumented twin (the disabled path is one relaxed
/// atomic load per instrument site); the **enabled** cost is recorded
/// for information, not asserted. Samples rotate round-robin as in P5.
fn bench_observability(_c: &mut Criterion) {
    let quick = criterion::is_quick();
    let (users, steps) = (100_000usize, 50usize);
    let reps = if quick { 2 } else { 10 };

    println!("\n-- group: perf/observability ({users} users x {steps} steps) --");

    // The twin and the real runner are the same computation — proven
    // here (records compare bit-for-bit), so the timing compares equal
    // work and the twin cannot silently drift as the runner evolves.
    {
        let _t = eqimpact_telemetry::test_guard();
        let mut runner = LoopBuilder::new(ThresholdAi, SyntheticUsers { n: 1_000 })
            .filter(MeanFilter::default())
            .delay(1)
            .record(RecordPolicy::Thin)
            .build();
        assert_eq!(
            uninstrumented_twin(1_000, 20),
            runner.run(20, &mut SimRng::new(42)),
            "uninstrumented twin diverged from the instrumented LoopRunner"
        );
    }

    let _t = eqimpact_telemetry::test_guard();
    let mut samples: Vec<Vec<f64>> = (0..3).map(|_| Vec::with_capacity(reps)).collect();
    time_obs_run(users, steps, 1); // warm-up
    for rep in 0..reps {
        for j in 0..3 {
            let c = (j + rep) % 3;
            samples[c].push(time_obs_run(users, steps, c));
        }
    }

    let baseline_ms = median(&mut samples[0]);
    let disabled_ms = median(&mut samples[1]);
    let enabled_ms = median(&mut samples[2]);
    println!("perf/observability/uninstrumented_twin            median {baseline_ms:>10.2} ms");
    println!(
        "perf/observability/recorder_disabled               median {disabled_ms:>10.2} ms  overhead x{:.3}",
        disabled_ms / baseline_ms
    );
    println!(
        "perf/observability/recorder_enabled                median {enabled_ms:>10.2} ms  overhead x{:.3}",
        enabled_ms / baseline_ms
    );

    // The hardware-independent invariant the whole plane is built on:
    // while no recorder is installed the instruments are a guaranteed
    // no-op, so the instrumented runner must match the uninstrumented
    // twin modulo measurement noise.
    assert!(
        disabled_ms <= baseline_ms * 1.10 + 5.0,
        "disabled-recorder loop ({disabled_ms:.2} ms) regressed vs the \
         uninstrumented twin ({baseline_ms:.2} ms)"
    );
}

fn bench_loop_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf/credit_loop");
    group.sample_size(10);
    for &users in &[100usize, 500, 1000] {
        group.bench_with_input(
            BenchmarkId::new("full_run_19_steps", users),
            &users,
            |b, &n| {
                let config = CreditConfig {
                    users: n,
                    steps: 19,
                    trials: 1,
                    seed: 1,
                    lender: LenderKind::Scorecard,
                    ..Default::default()
                };
                b.iter(|| run_trial(&config, 0));
            },
        );
    }
    group.finish();
}

fn bench_irls(c: &mut Criterion) {
    // Shaped like the retrained learner's corpus late in a paper-scale
    // credit trial (1000 users × 19 steps): a memory in [0, 1] with few
    // distinct values, a 0/1 code, 19k rows.
    let mut rng = SimRng::new(3);
    let mut data = Dataset::with_width(2);
    for _ in 0..19_000 {
        let memory = rng.index(5) as f64 / 4.0;
        let code = if rng.bernoulli(0.7) { 1.0 } else { 0.0 };
        let y = if rng.bernoulli(sigmoid(1.0 - 4.0 * memory + 2.5 * code)) {
            1.0
        } else {
            0.0
        };
        data.push_row(&[memory, code], y).unwrap();
    }
    let mut group = c.benchmark_group("perf/irls");
    group.bench_with_input(BenchmarkId::new("fit", "learner_19k"), &data, |b, data| {
        let fitter = LogisticRegression::default();
        b.iter(|| fitter.fit(data).unwrap());
    });
    group.finish();
}

fn bench_markov_operator(c: &mut Criterion) {
    let ifs = Ifs::builder(1)
        .map_const(affine1d(0.5, 0.0), 0.5)
        .map_const(affine1d(0.5, 0.5), 0.5)
        .build()
        .unwrap();
    let ms = ifs.as_markov_system().clone();
    let mut group = c.benchmark_group("perf/markov");
    group.bench_function("operator_apply", |b| {
        b.iter(|| markov_operator_apply(&ms, |x| x[0] * x[0], &[0.37]))
    });
    group.bench_function("trajectory_10k_steps", |b| {
        b.iter(|| {
            let mut rng = SimRng::new(5);
            ms.trajectory(&[0.5], 10_000, &mut rng)
        })
    });
    group.finish();
}

fn bench_invariant_measure(c: &mut Criterion) {
    let ifs = Ifs::builder(1)
        .map_const(affine1d(0.5, 0.0), 0.5)
        .map_const(affine1d(0.5, 0.5), 0.5)
        .build()
        .unwrap();
    let ms = ifs.as_markov_system().clone();
    let mut group = c.benchmark_group("perf/invariant");
    group.sample_size(10);
    group.bench_function("particle_estimation_1k", |b| {
        b.iter(|| {
            let mut rng = SimRng::new(6);
            estimate_invariant_measure(
                &ms,
                &ParticleMeasure::dirac(&[0.9]),
                1_000,
                100,
                0.02,
                &mut rng,
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_loop_api,
    bench_sharded_loop,
    bench_columnar,
    bench_observability,
    bench_loop_step,
    bench_irls,
    bench_markov_operator,
    bench_invariant_measure
);
criterion_main!(benches);
