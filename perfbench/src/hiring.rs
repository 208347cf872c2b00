//! The `hiring_lab` workload: the record → replay → sweep → certify
//! pipeline over paper-scale hiring traces.
//!
//! One pass records 5 adaptive and 5 credential-gate hiring loops (800
//! applicants x 19 rounds, with model checkpoints) into a directory
//! inside the benchmark's build directory, replays each with
//! verification, sweeps the default 6-candidate grid over all of them
//! (60 cells) and certifies them. Pass `p` records trials `5p .. 5p + 5`,
//! so every pass sees fresh inputs. It is the only workload that writes
//! and reads the trace store and loads the hiring blocks, `lab` and
//! `certify`.

use crate::check::{
    bytes_digest, compare, race_note, record_digest, reference, CheckSink, CorruptFinalStep, Stat,
};
use crate::spans::{now_ns, Span, SpanLog, NO_STEP};
use crate::wrap::{run_wrapped, LoopShape, Tee, TimedRead, TimedSink};
use crate::{lane_usage, quantile, ratio, run_batch, Batch, Fault, Opts, Report, Timed};
use eqimpact_census::Race;
use eqimpact_certify::{certificate_of, extract, run_certification, CertifyConfig, CertifyTarget};
use eqimpact_core::closed_loop::AiSystem;
use eqimpact_core::pool::ThreadBudget;
use eqimpact_core::recorder::{RecordPolicy, StepSink};
use eqimpact_core::scenario::{Scale, TraceMeta, TraceSinkFactory};
use eqimpact_hiring::scenario::variant_name;
use eqimpact_hiring::sim::run_trial_sunk;
use eqimpact_hiring::{
    AdaptiveScreener, ApplicantPool, CredentialScreener, HiringCertify, HiringConfig, HiringSweep,
    HiringTracer, ScreenerKind, TrackRecordFilter,
};
use eqimpact_lab::{run_sweep, CandidateGrid, CandidateSpec, FileTrace, SweepConfig, SweepEval};
use eqimpact_lab::{SweepTarget, TraceSource};
use eqimpact_stats::{SimRng, ToJson};
use eqimpact_trace::{ReplayRunner, TraceDirFactory, TraceError, TraceReader, TraceReplayer};
use std::collections::BTreeMap;
use std::io::{BufReader, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Trials per pass (each recorded with both screeners).
fn trials_per_pass(opts: &Opts) -> usize {
    if opts.tiny {
        2
    } else {
        5
    }
}

fn config(opts: &Opts, screener: ScreenerKind) -> HiringConfig {
    HiringConfig {
        applicants: if opts.tiny { 60 } else { 800 },
        rounds: if opts.tiny { 6 } else { 19 },
        trials: trials_per_pass(opts),
        seed: opts.seed,
        screener,
        delay: 1,
        shards: 1,
        policy: RecordPolicy::Full,
    }
}

fn meta(opts: &Opts, config: &HiringConfig, trial: usize) -> TraceMeta {
    TraceMeta {
        scenario: "hiring".to_string(),
        variant: variant_name(config.screener).to_string(),
        trial,
        scale: if opts.tiny {
            Scale::Quick
        } else {
            Scale::Paper
        },
        seed: config.seed,
        shards: config.shards,
        delay: config.delay,
        policy: config.policy,
    }
}

/// One recorded loop.
struct Loop {
    trial: usize,
    screener: ScreenerKind,
    path: PathBuf,
    lane: u64,
    start: u64,
    end: u64,
    digest: u64,
    race: [f64; 3],
    failures: Vec<String>,
    spans: Vec<Span>,
    /// Traced loops only: Σ training rows at the refits.
    rows: u64,
}

impl Timed for Loop {
    fn timing(&self) -> (u64, u64, u64) {
        (self.lane, self.start, self.end)
    }
}

/// Records one loop through the public entry point `run_trial_sunk`,
/// into the sink `TraceDirFactory` hands out (as `experiments record`
/// does), teed into the checker.
fn record_public(
    opts: &Opts,
    factory: &TraceDirFactory,
    trial: usize,
    screener: ScreenerKind,
    fault: bool,
) -> Loop {
    let config = config(opts, screener);
    let meta = meta(opts, &config, trial);
    let path = factory.dir().join(TraceDirFactory::file_name(&meta));
    let mut check = CheckSink::new(config.rounds, Stat::PositiveSignalRate);
    let lane = crate::lane_id();
    let start = now_ns();
    let mut sink = factory.sink(&meta);
    let outcome = if fault {
        let mut corrupt = CorruptFinalStep { inner: &mut check };
        run_trial_sunk(&config, trial, &mut Tee(&mut sink, &mut corrupt))
    } else {
        run_trial_sunk(&config, trial, &mut Tee(&mut sink, &mut check))
    };
    drop(sink);
    let end = now_ns();
    check.finish(&outcome.record, config.applicants);
    Loop {
        trial,
        screener,
        path,
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

/// Records one loop with every block and the trace sink wrapped in
/// timing adapters, mirroring `run_trial_sunk` step for step.
fn record_traced(
    opts: &Opts,
    factory: &TraceDirFactory,
    trial: usize,
    screener: ScreenerKind,
    id: u64,
) -> Loop {
    let config = config(opts, screener);
    let meta = meta(opts, &config, trial);
    let path = factory.dir().join(TraceDirFactory::file_name(&meta));
    let lane = crate::lane_id();
    let log = Arc::new(SpanLog::open(id));
    let start = now_ns();
    let rng = SimRng::new(config.seed.wrapping_add(trial as u64));
    let mut pool_rng = rng.split(1);
    let mut loop_rng = rng.split(2);
    let pool = log.time("census.generate", NO_STEP, None, || {
        ApplicantPool::generate(config.applicants, &mut pool_rng)
    });
    let labels: Vec<&str> = Race::ALL.iter().map(|r| r.label()).collect();
    let codes: Vec<u32> = pool.races().iter().map(|r| r.index() as u32).collect();
    let mut sink = TimedSink::new(factory.sink(&meta), Arc::clone(&log));
    let mut check = CheckSink::new(config.rounds, Stat::PositiveSignalRate);
    let shape = LoopShape {
        users: config.applicants,
        steps: config.rounds,
        delay: config.delay,
        policy: config.policy,
        shards: config.shards,
    };
    let (record, rows) = {
        let mut tee = Tee(&mut sink, &mut check);
        tee.on_groups(&labels, &codes);
        match screener {
            ScreenerKind::Adaptive => run_wrapped(
                AdaptiveScreener::default_config(),
                pool,
                TrackRecordFilter::new(),
                &shape,
                &log,
                &mut loop_rng,
                &mut tee,
            ),
            ScreenerKind::Credential => run_wrapped(
                CredentialScreener::new(),
                pool,
                TrackRecordFilter::new(),
                &shape,
                &log,
                &mut loop_rng,
                &mut tee,
            ),
        }
    };
    sink.finish();
    let end = now_ns();
    check.finish(&record, config.applicants);
    let log = Arc::try_unwrap(log).expect("every adapter of the loop has been dropped");
    Loop {
        trial,
        screener,
        path,
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

/// One replayed trace.
struct Replay {
    lane: u64,
    start: u64,
    end: u64,
    result: Result<u64, TraceError>,
    restored: usize,
    spans: Vec<Span>,
}

impl Timed for Replay {
    fn timing(&self) -> (u64, u64, u64) {
        (self.lane, self.start, self.end)
    }
}

/// Verified replay through the public `HiringTracer::replay`, as
/// `experiments replay` does; returns the replayed record's digest.
fn replay_public(path: &Path) -> Replay {
    let lane = crate::lane_id();
    let start = now_ns();
    let result = std::fs::File::open(path)
        .map_err(TraceError::Io)
        .and_then(|file| {
            let mut input = BufReader::new(file);
            let reader = TraceReader::new(&mut input as &mut dyn Read)?;
            HiringTracer.replay(reader)
        })
        .map(|summary| record_digest(&summary.record));
    Replay {
        lane,
        start,
        end: now_ns(),
        result,
        restored: 0,
        spans: Vec::new(),
    }
}

/// Verified replay through `ReplayRunner` with the blocks
/// `HiringTracer` builds, reading through a timed reader.
fn replay_traced(path: &Path, read_ns: &Arc<AtomicU64>, id: u64) -> Replay {
    let lane = crate::lane_id();
    let log = SpanLog::open(id);
    let start = now_ns();
    let mut restored = 0;
    let result = std::fs::File::open(path)
        .map_err(TraceError::Io)
        .and_then(|file| {
            let mut input = BufReader::new(TimedRead::new(file, Arc::clone(read_ns)));
            let reader = TraceReader::new(&mut input as &mut dyn Read)?;
            let screener: Box<dyn AiSystem> = match reader.header().variant.as_str() {
                "adaptive" => Box::new(AdaptiveScreener::default_config()),
                _ => Box::new(CredentialScreener::new()),
            };
            let mut runner = ReplayRunner::new(reader, screener, TrackRecordFilter::new());
            let record = runner.run()?;
            restored = runner.checkpoints_restored();
            Ok(record_digest(&record))
        });
    let end = now_ns();
    Replay {
        lane,
        start,
        end,
        result,
        restored,
        spans: log.close("replay.run"),
    }
}

/// The hiring sweep target, each cell evaluation timed as a `lab.cell`
/// span.
struct TimedSweep {
    log: Arc<SpanLog>,
}

impl SweepTarget for TimedSweep {
    fn name(&self) -> &'static str {
        HiringSweep.name()
    }
    fn default_grid(&self) -> CandidateGrid {
        HiringSweep.default_grid()
    }
    fn known_policies(&self) -> &'static [&'static str] {
        HiringSweep.known_policies()
    }
    fn known_filters(&self) -> &'static [&'static str] {
        HiringSweep.known_filters()
    }
    fn evaluate(
        &self,
        input: &mut dyn Read,
        candidate: &CandidateSpec,
    ) -> Result<SweepEval, TraceError> {
        self.log.time("lab.cell", NO_STEP, None, || {
            HiringSweep.evaluate(input, candidate)
        })
    }
}

/// A trace file read through a timed reader; labelled like `FileTrace`.
struct TimedFile {
    path: PathBuf,
    label: String,
    ns: Arc<AtomicU64>,
    opens: AtomicU64,
}

impl TraceSource for TimedFile {
    fn label(&self) -> &str {
        &self.label
    }
    fn open(&self) -> std::io::Result<Box<dyn Read + '_>> {
        self.opens.fetch_add(1, Ordering::Relaxed);
        let file = std::fs::File::open(&self.path)?;
        Ok(Box::new(BufReader::new(TimedRead::new(
            file,
            Arc::clone(&self.ns),
        ))))
    }
}

/// Everything one pass produced.
struct Pass {
    loops: Batch<Loop>,
    /// Per loop, in loop order: the trace file's digest and size.
    files: Vec<(u64, u64)>,
    replays: Batch<Replay>,
    sweep_start: u64,
    sweep_end: u64,
    sweep_digest: u64,
    /// Per certified trace (sorted order): the certificate's digest.
    certificates: Vec<u64>,
    certify_start: u64,
    certify_end: u64,
    spans: Vec<Span>,
    restored: usize,
    read_ns: u64,
    opens: u64,
    /// Replays, cells and certifications that failed on a trace checksum.
    checksum_failures: usize,
    cell_errors: usize,
}

impl Pass {
    fn stage_ns(&self) -> [u64; 4] {
        [
            self.loops.end - self.loops.start,
            self.replays.end - self.replays.start,
            self.sweep_end - self.sweep_start,
            self.certify_end - self.certify_start,
        ]
    }
}

/// Runs one pass over the trials from `base`, untraced or traced, and
/// tallies its checks. Fails only when the trace directory cannot be
/// created.
fn pass(
    opts: &Opts,
    dir: &Path,
    base: usize,
    traced: bool,
    fault: Fault,
    report: &mut Report,
) -> Result<Pass, String> {
    let loops_n = 2 * trials_per_pass(opts);
    let _ = std::fs::remove_dir_all(dir);
    let factory = TraceDirFactory::create_with(dir, true)
        .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    // Span ids: every operation of every pass gets its own.
    let ids = (base / trials_per_pass(opts) * (3 * loops_n + 2)) as u64;
    // One job per trial recording both screeners in turn, as the hiring
    // scenario's trials do, striped over the lanes.
    let jobs = run_batch(trials_per_pass(opts), |i| {
        [ScreenerKind::Adaptive, ScreenerKind::Credential].map(|screener| {
            let trial = base + i;
            let first = i == 0 && screener == ScreenerKind::Adaptive;
            if traced {
                let id = ids + (2 * i) as u64 + u64::from(screener == ScreenerKind::Credential);
                record_traced(opts, &factory, trial, screener, id)
            } else {
                record_public(
                    opts,
                    &factory,
                    trial,
                    screener,
                    fault == Fault::Adr && first,
                )
            }
        })
    });
    let loops = Batch {
        items: jobs.items.into_iter().flatten().collect::<Vec<Loop>>(),
        start: jobs.start,
        end: jobs.end,
    };
    for l in &loops.items {
        report.tally(
            &format!(
                "recording of hiring {} trial {}",
                variant_name(l.screener),
                l.trial
            ),
            &l.failures,
        );
    }
    report.tally("trace writes", &factory.take_errors());

    let files: Vec<(u64, u64)> = loops
        .items
        .iter()
        .map(|l| {
            std::fs::read(&l.path)
                .map_or((0, 0), |bytes| (bytes_digest(&bytes), bytes.len() as u64))
        })
        .collect();
    let mut order: Vec<usize> = (0..loops_n).collect();
    order.sort_by(|&a, &b| loops.items[a].path.cmp(&loops.items[b].path));
    if fault == Fault::TraceByte {
        let path = &loops.items[order[0]].path;
        if let Ok(mut bytes) = std::fs::read(path) {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
            let _ = std::fs::write(path, bytes);
        }
    }

    let read_ns = Arc::new(AtomicU64::new(0));
    let replays = run_batch(loops_n, |i| {
        let path = &loops.items[order[i]].path;
        if traced {
            replay_traced(path, &read_ns, ids + (loops_n + i) as u64)
        } else {
            replay_public(path)
        }
    });
    let mut restored = 0;
    let mut checksum_failures = 0;
    for (i, r) in replays.items.iter().enumerate() {
        if let Err(TraceError::ChecksumMismatch { .. }) = &r.result {
            checksum_failures += 1;
        }
        let l = &loops.items[order[i]];
        let problems = match &r.result {
            Ok(d) if *d == l.digest => Vec::new(),
            Ok(d) => vec![format!(
                "replayed digest {d:016x}, recorded {:016x}",
                l.digest
            )],
            Err(e) => vec![e.to_string()],
        };
        report.tally(&format!("replay of {}", l.path.display()), &problems);
        restored += r.restored;
    }

    let files_sorted: Vec<FileTrace> = order
        .iter()
        .map(|&i| FileTrace::new(&loops.items[i].path))
        .collect();
    let timed_files: Vec<TimedFile> = order
        .iter()
        .zip(&files_sorted)
        .map(|(&i, plain)| TimedFile {
            label: plain.label().to_string(),
            path: loops.items[i].path.clone(),
            ns: Arc::clone(&read_ns),
            opens: AtomicU64::new(0),
        })
        .collect();
    let refs: Vec<&dyn TraceSource> = if traced {
        timed_files.iter().map(|s| s as &dyn TraceSource).collect()
    } else {
        files_sorted.iter().map(|s| s as &dyn TraceSource).collect()
    };
    let sweep_log = Arc::new(SpanLog::open(ids + 2 * loops_n as u64));
    let timed_target = TimedSweep {
        log: Arc::clone(&sweep_log),
    };
    let target: &dyn SweepTarget = if traced { &timed_target } else { &HiringSweep };
    let grid = HiringSweep.default_grid();
    let sweep_start = now_ns();
    let sweep = run_sweep(
        target,
        &refs,
        &grid,
        &SweepConfig::default(),
        ThreadBudget::global(),
    );
    let sweep_end = now_ns();
    drop(timed_target);
    let mut spans = Arc::try_unwrap(sweep_log)
        .expect("the sweep target has been dropped")
        .close("lab.sweep");
    let mut cell_errors = 0;
    let sweep_digest = match sweep {
        Ok(r) => {
            for c in &r.ranked {
                cell_errors += c.errors.len();
                checksum_failures += c.errors.iter().filter(|e| e.contains("checksum")).count();
                for _ in 0..c.traces {
                    report.tally("sweep cell", &[]);
                }
                for e in &c.errors {
                    report.tally(
                        &format!("sweep cell of {}", c.candidate.key()),
                        std::slice::from_ref(e),
                    );
                }
            }
            bytes_digest(r.to_json().render().as_bytes())
        }
        Err(e) => {
            report.tally("sweep", &[e.to_string()]);
            0
        }
    };

    let certify_config = CertifyConfig::default();
    let certify_start = now_ns();
    let mut certificates = Vec::new();
    if traced {
        let spec = HiringCertify.spec();
        for (i, source) in refs.iter().enumerate() {
            let log = SpanLog::open(ids + 2 * loops_n as u64 + 1 + i as u64);
            let rng = SimRng::new(certify_config.seed).split(i as u64);
            let cert = source
                .open()
                .map_err(|e| e.to_string())
                .and_then(|mut input| {
                    log.time("certify.extract", NO_STEP, None, || {
                        extract(&spec, input.as_mut())
                    })
                    .map_err(|e| e.to_string())
                })
                .map(|ex| {
                    log.time("certify.analyze", NO_STEP, None, || {
                        certificate_of(source.label(), &ex, &certify_config, &rng)
                    })
                });
            match cert {
                Ok(c) => {
                    report.tally("certified trace", &[]);
                    certificates.push(bytes_digest(c.to_json().render().as_bytes()));
                }
                Err(e) => {
                    checksum_failures += usize::from(e.contains("checksum"));
                    report.tally(&format!("certification of {}", source.label()), &[e]);
                }
            }
            spans.extend(log.close("certify.trace"));
        }
    } else {
        match run_certification(
            &HiringCertify,
            &refs,
            &certify_config,
            ThreadBudget::global(),
        ) {
            Ok(r) => {
                for c in &r.certificates {
                    report.tally("certified trace", &[]);
                    certificates.push(bytes_digest(c.to_json().render().as_bytes()));
                }
                for e in &r.errors {
                    checksum_failures += usize::from(e.contains("checksum"));
                    report.tally("certification", std::slice::from_ref(e));
                }
            }
            Err(e) => report.tally("certification", &[e.to_string()]),
        }
    }
    let certify_end = now_ns();

    let opens = timed_files
        .iter()
        .map(|s| s.opens.load(Ordering::Relaxed))
        .sum::<u64>()
        + replays.items.len() as u64;
    for r in &replays.items {
        spans.extend(r.spans.iter().cloned());
    }
    for l in &loops.items {
        spans.extend(l.spans.iter().cloned());
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok(Pass {
        loops,
        files,
        replays,
        sweep_start,
        sweep_end,
        sweep_digest,
        certificates,
        certify_start,
        certify_end,
        spans,
        restored,
        read_ns: read_ns.load(Ordering::Relaxed),
        opens,
        checksum_failures,
        cell_errors,
    })
}

fn scratch(opts: &Opts, what: &str) -> PathBuf {
    opts.out
        .join(format!("traces-{}-{what}", std::process::id()))
}

/// One set-up pass: the reference values, then the whole pipeline once
/// over the workload's first trial (both screeners), untimed.
pub fn setup(opts: &Opts) -> Vec<String> {
    let mut problems = Vec::new();
    for key in ["hiring_adaptive", "hiring_credential"] {
        if let Err(e) = reference(key) {
            problems.push(e);
        }
    }
    let dir = scratch(opts, "setup");
    let _ = std::fs::remove_dir_all(&dir);
    let factory = match TraceDirFactory::create_with(&dir, true) {
        Ok(f) => f,
        Err(e) => return vec![format!("cannot create {}: {e}", dir.display())],
    };
    let loops: Vec<Loop> = [ScreenerKind::Adaptive, ScreenerKind::Credential]
        .into_iter()
        .map(|s| record_public(opts, &factory, 0, s, false))
        .collect();
    problems.extend(factory.take_errors());
    let traces: Vec<FileTrace> = loops.iter().map(|l| FileTrace::new(&l.path)).collect();
    let refs: Vec<&dyn TraceSource> = traces.iter().map(|t| t as &dyn TraceSource).collect();
    for l in &loops {
        problems.extend(l.failures.iter().cloned());
        if let Err(e) = replay_public(&l.path).result {
            problems.push(e.to_string());
        }
    }
    let grid = HiringSweep.default_grid();
    match run_sweep(
        &HiringSweep,
        &refs,
        &grid,
        &SweepConfig::default(),
        ThreadBudget::global(),
    ) {
        Ok(r) => problems.extend(r.ranked.iter().flat_map(|c| c.errors.iter().cloned())),
        Err(e) => problems.push(e.to_string()),
    }
    match run_certification(
        &HiringCertify,
        &refs,
        &CertifyConfig::default(),
        ThreadBudget::global(),
    ) {
        Ok(r) => problems.extend(r.errors),
        Err(e) => problems.push(e.to_string()),
    }
    let _ = std::fs::remove_dir_all(&dir);
    problems
}

/// Per-stage totals over passes.
#[derive(Default)]
struct Totals {
    stage_ns: [u64; 4],
    loops: usize,
    replays: usize,
    cells: usize,
    certified: usize,
    trace_bytes: u64,
}

impl Totals {
    fn add(&mut self, p: &Pass, cells_per_pass: usize) {
        for (t, s) in self.stage_ns.iter_mut().zip(p.stage_ns()) {
            *t += s;
        }
        self.loops += p.loops.items.len();
        self.replays += p.replays.items.len();
        self.cells += cells_per_pass;
        self.certified += p.certificates.len();
        self.trace_bytes += p.files.iter().map(|f| f.1).sum::<u64>();
    }
    fn wall_s(&self) -> f64 {
        self.stage_ns.iter().sum::<u64>() as f64 / 1e9
    }
}

pub fn run(opts: &Opts, report: &mut Report) {
    let per = trials_per_pass(opts);
    let steps_per_loop = {
        let c = config(opts, ScreenerKind::Adaptive);
        (c.applicants * c.rounds) as f64
    };
    let cells_per_pass = HiringSweep.default_grid().len() * 2 * per;
    let start = now_ns();
    let mut passes = Vec::new();
    let mut totals = Totals::default();
    while passes.is_empty() || ((now_ns() - start) as f64) < opts.untraced_seconds() * 1e9 {
        let base = passes.len() * per;
        let fault = if passes.is_empty() {
            opts.fault
        } else {
            Fault::None
        };
        match pass(opts, &scratch(opts, "run"), base, false, fault, report) {
            Ok(p) => {
                totals.add(&p, cells_per_pass);
                passes.push(p);
            }
            Err(e) => {
                report.tally("trace directory", &[e]);
                return;
            }
        }
    }

    // Race-wise long-run hire rates against the reference, per screener.
    for (screener, key) in [
        (ScreenerKind::Adaptive, "hiring_adaptive"),
        (ScreenerKind::Credential, "hiring_credential"),
    ] {
        let per_loop: Vec<[f64; 3]> = passes
            .iter()
            .flat_map(|p| &p.loops.items)
            .filter(|l| l.screener == screener)
            .map(|l| l.race)
            .collect();
        report.notes.push(race_note(
            &format!(
                "race-wise long-run hire rate, {} screener,",
                variant_name(screener)
            ),
            &per_loop,
        ));
        if !opts.tiny {
            let problems = match reference(key) {
                Ok(r) => compare(&r, &per_loop),
                Err(e) => vec![e],
            };
            report.tally(&format!("race-wise reference, {key}"), &problems);
        }
    }

    let [record_ns, replay_ns, sweep_ns, certify_ns] = totals.stage_ns;
    let user_steps = totals.loops as f64 * steps_per_loop;
    let replay_rate = ratio(
        totals.replays as f64 * steps_per_loop,
        replay_ns as f64 / 1e9,
    );
    let sweep_rate = ratio(totals.cells as f64, sweep_ns as f64 / 1e9);
    let certify_rate = ratio(totals.certified as f64, certify_ns as f64 / 1e9);
    let bytes_per_step = ratio(totals.trace_bytes as f64, user_steps);
    report.notes.push(format!(
        "{} passes: {} loops of {steps_per_loop} user-steps recorded, {} replays, {} sweep cells, {} certified traces in {:.3} s",
        passes.len(),
        totals.loops,
        totals.replays,
        totals.cells,
        totals.certified,
        totals.wall_s()
    ));
    report.notes.push(format!(
        "stage time: record {:.1} ms, replay {:.1} ms, sweep {:.1} ms, certify {:.1} ms",
        record_ns as f64 / 1e6,
        replay_ns as f64 / 1e6,
        sweep_ns as f64 / 1e6,
        certify_ns as f64 / 1e6
    ));
    for (name, value, unit) in [
        ("replay_user_steps_per_s", replay_rate, "user-steps/s"),
        ("sweep_cells_per_s", sweep_rate, "cells/s"),
        ("certify_traces_per_s", certify_rate, "traces/s"),
        ("trace_bytes_per_user_step", bytes_per_step, "B"),
    ] {
        report.notes.push(format!("{name} = {value} {unit}"));
    }
    if !opts.trace {
        // A trial of this workload is one pass of the pipeline: what a
        // user waits for between a batch of new trials and its ranking and
        // certificates. A single recorded trial is too short to time
        // repeatably here: on a shared host a few of them in a run take
        // two or three times as long as the rest, so their p90 swings by
        // a third from run to run. Rates are the median over passes, so a
        // few seconds in which the host is busy elsewhere move them less
        // than a mean would.
        let ms: Vec<f64> = passes
            .iter()
            .map(|p| p.stage_ns().iter().sum::<u64>() as f64 / 1e6)
            .collect();
        let record_rates: Vec<f64> = passes
            .iter()
            .map(|p| {
                ratio(
                    p.loops.items.len() as f64 * steps_per_loop,
                    p.stage_ns()[0] as f64 / 1e9,
                )
            })
            .collect();
        let ops_rates: Vec<f64> = passes
            .iter()
            .map(|p| {
                let ops = p.loops.items.len()
                    + p.replays.items.len()
                    + cells_per_pass
                    + p.certificates.len();
                ratio(ops as f64, p.stage_ns().iter().sum::<u64>() as f64 / 1e9)
            })
            .collect();
        report.metric(
            "user_steps_per_s",
            quantile(&record_rates, 0.5),
            "user-steps/s",
        );
        report.metric("trial_ms_p50", quantile(&ms, 0.5), "ms");
        report.metric("trial_ms_p90", quantile(&ms, 0.9), "ms");
        report.metric("ops_per_s", quantile(&ops_rates, 0.5), "ops/s");
        report
            .notes
            .push(format!("trial_ms and rates over {} passes", passes.len()));
        return;
    }

    // The traced run: the same passes again, wrapped.
    let mut traced_totals = Totals::default();
    let mut traced = Vec::new();
    for (n, untraced) in passes.iter().enumerate() {
        let fault = if n == 0 { opts.fault } else { Fault::None };
        match pass(opts, &scratch(opts, "traced"), n * per, true, fault, report) {
            Ok(p) => {
                traced_totals.add(&p, cells_per_pass);
                cross_check(untraced, &p, report);
                traced.push(p);
            }
            Err(e) => {
                report.tally("trace directory", &[e]);
                return;
            }
        }
    }
    let first = &passes[0];
    report.notes.push(format!(
        "digest loop 0: run_trial {:016x}, wrapped blocks {:016x}; trace file {:016x}; sweep report {:016x}",
        first.loops.items[0].digest, traced[0].loops.items[0].digest, first.files[0].0, first.sweep_digest
    ));

    let loops: Vec<&Loop> = traced.iter().flat_map(|p| &p.loops.items).collect();
    let n_loops = loops.len() as f64;
    let mut busy: BTreeMap<&str, f64> = BTreeMap::new();
    let mut calls: BTreeMap<&str, f64> = BTreeMap::new();
    let mut self_ms = 0.0;
    for l in &loops {
        for s in &l.spans[1..] {
            *busy.entry(s.name).or_insert(0.0) += s.ns() as f64 / 1e6;
            *calls.entry(s.name).or_insert(0.0) += 1.0;
        }
        self_ms += crate::spans::self_times(&l.spans)
            .get("trial")
            .copied()
            .unwrap_or(0) as f64
            / 1e6;
    }
    let mut all: BTreeMap<&str, f64> = BTreeMap::new();
    let mut cells_ms = Vec::new();
    for s in traced.iter().flat_map(|p| &p.spans) {
        *all.entry(s.name).or_insert(0.0) += s.ns() as f64 / 1e6;
        if s.name == "lab.cell" {
            cells_ms.push(s.ns() as f64 / 1e6);
        }
    }
    let per_loop =
        |m: &BTreeMap<&str, f64>, k: &str| ratio(m.get(k).copied().unwrap_or(0.0), n_loops);
    let replays = traced_totals.replays as f64;
    let certified = traced_totals.certified as f64;
    let rows: f64 = loops.iter().map(|l| l.rows as f64).sum();
    let (lane_busy, tail_idle) = lane_usage(traced.iter().map(|p| &p.loops));
    let checksum_failures: usize = traced.iter().map(|p| p.checksum_failures).sum();

    report.metric(
        "loop.retrain.busy_ms",
        per_loop(&busy, "loop.retrain"),
        "ms/trial",
    );
    report.metric(
        "loop.retrain.calls",
        per_loop(&calls, "loop.retrain"),
        "count/trial",
    );
    report.metric("loop.retrain.rows", ratio(rows, n_loops), "count/trial");
    report.metric(
        "loop.respond.busy_ms",
        per_loop(&busy, "loop.respond"),
        "ms/trial",
    );
    report.metric(
        "loop.observe.busy_ms",
        per_loop(&busy, "loop.observe"),
        "ms/trial",
    );
    report.metric(
        "loop.signal.busy_ms",
        per_loop(&busy, "loop.signal"),
        "ms/trial",
    );
    report.metric(
        "loop.filter.busy_ms",
        per_loop(&busy, "loop.filter"),
        "ms/trial",
    );
    report.metric("loop.self_ms", ratio(self_ms, n_loops), "ms/trial");
    report.metric(
        "census.generate_ms",
        per_loop(&busy, "census.generate"),
        "ms/trial",
    );
    report.metric("stats.normal_cdf_ns", crate::normal_cdf_ns(), "ns/call");
    for (name, unit) in SHARD_METRICS {
        report.metric(name, 0.0, unit);
    }
    report.metric("trials.lane_busy_ms", lane_busy, "ms/batch");
    report.metric("trials.tail_idle_ms", tail_idle, "ms/batch");
    report.metric("trace.write_ms", per_loop(&busy, "trace.write"), "ms/trace");
    report.metric(
        "trace.bytes_written",
        ratio(traced_totals.trace_bytes as f64, n_loops),
        "B/trace",
    );
    let opens: u64 = traced.iter().map(|p| p.opens).sum();
    let read_ns: u64 = traced.iter().map(|p| p.read_ns).sum();
    report.metric(
        "trace.read_ms",
        ratio(read_ns as f64 / 1e6, opens as f64),
        "ms/open",
    );
    report.metric("trace.checksum_failures", checksum_failures as f64, "count");
    report.metric(
        "replay.busy_ms",
        ratio(all.get("replay.run").copied().unwrap_or(0.0), replays),
        "ms/trace",
    );
    report.metric(
        "replay.checkpoints_restored",
        ratio(
            traced.iter().map(|p| p.restored).sum::<usize>() as f64,
            replays,
        ),
        "count/trace",
    );
    report.metric(
        "lab.sweep_ms",
        ratio(
            all.get("lab.sweep").copied().unwrap_or(0.0),
            traced.len() as f64,
        ),
        "ms/sweep",
    );
    report.metric(
        "lab.cell_errors",
        traced.iter().map(|p| p.cell_errors).sum::<usize>() as f64,
        "count",
    );
    report.metric(
        "certify.extract_ms",
        ratio(
            all.get("certify.extract").copied().unwrap_or(0.0),
            certified,
        ),
        "ms/trace",
    );
    report.metric(
        "certify.analyze_ms",
        ratio(
            all.get("certify.analyze").copied().unwrap_or(0.0),
            certified,
        ),
        "ms/trace",
    );
    report.metric("replay_user_steps_per_s", replay_rate, "user-steps/s");
    report.metric("sweep_cells_per_s", sweep_rate, "cells/s");
    report.metric("certify_traces_per_s", certify_rate, "traces/s");
    report.metric("trace_bytes_per_user_step", bytes_per_step, "B");
    report.metric(
        "bench.trace_overhead",
        ratio(traced_totals.wall_s(), totals.wall_s()),
        "ratio",
    );

    report.notes.push(format!(
        "sweep cells: {} timed, p50 {:.2} ms, p90 {:.2} ms, max {:.2} ms",
        cells_ms.len(),
        quantile(&cells_ms, 0.5),
        quantile(&cells_ms, 0.9),
        quantile(&cells_ms, 1.0)
    ));
    crate::credit::layer_table(report, &busy, self_ms, &["census.generate", "trace.write"]);
    report.spans = traced.into_iter().flat_map(|p| p.spans).collect();
}

/// The traced pass must reproduce the untraced pass: loop records, trace
/// bytes, replays, the sweep report and every certificate.
fn cross_check(untraced: &Pass, traced: &Pass, report: &mut Report) {
    let mut problems = Vec::new();
    for (a, b) in untraced.loops.items.iter().zip(&traced.loops.items) {
        if a.digest != b.digest {
            problems.push(format!(
                "loop {} {}: wrapped-block digest {:016x} differs from run_trial's {:016x}",
                variant_name(a.screener),
                a.trial,
                b.digest,
                a.digest
            ));
        }
    }
    if untraced.files != traced.files {
        problems.push("the traced pass wrote different trace bytes".to_string());
    }
    for (a, b) in untraced.replays.items.iter().zip(&traced.replays.items) {
        if a.result.as_ref().ok() != b.result.as_ref().ok() {
            problems.push("a traced replay digest differs from HiringTracer::replay's".to_string());
        }
    }
    if untraced.sweep_digest != traced.sweep_digest {
        problems.push(format!(
            "traced sweep report {:016x} differs from run_sweep's {:016x}",
            traced.sweep_digest, untraced.sweep_digest
        ));
    }
    if untraced.certificates != traced.certificates {
        problems.push("a traced certificate differs from run_certification's".to_string());
    }
    report.tally("digest cross-check of a pass", &problems);
}

/// The per-layer metrics of the trace, replay, lab and certify layers,
/// which only `hiring_lab` loads: zero on the other workloads.
pub fn absent_pipeline_metrics(report: &mut Report) {
    for (name, unit) in [
        ("trace.write_ms", "ms/trace"),
        ("trace.bytes_written", "B/trace"),
        ("trace.read_ms", "ms/open"),
        ("trace.checksum_failures", "count"),
        ("replay.busy_ms", "ms/trace"),
        ("replay.checkpoints_restored", "count/trace"),
        ("lab.sweep_ms", "ms/sweep"),
        ("lab.cell_errors", "count"),
        ("certify.extract_ms", "ms/trace"),
        ("certify.analyze_ms", "ms/trace"),
        ("replay_user_steps_per_s", "user-steps/s"),
        ("sweep_cells_per_s", "cells/s"),
        ("certify_traces_per_s", "traces/s"),
        ("trace_bytes_per_user_step", "B"),
    ] {
        report.metric(name, 0.0, unit);
    }
}

/// The shard-pool metrics, which only `credit_wide` loads.
const SHARD_METRICS: [(&str, &str); 4] = [
    ("shard.lane_busy_ms", "ms/trial"),
    ("shard.barrier_wait_ms", "ms/trial"),
    ("shard.imbalance", "ratio"),
    ("shard.speedup_2v1", "ratio"),
];
