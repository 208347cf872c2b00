//! The closed-loop benchmark: runs one named workload for a fixed time
//! through the program's public entry points, checks its outputs, and
//! prints the end-to-end metrics (`--trace 0`) or, from a second run of
//! the same workload with every block wrapped in a timing adapter, the
//! per-layer metrics (`--trace 1`). The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//!
//! ```text
//! perfbench --workload <credit_paper|credit_wide|hiring_lab> --seed <n>
//!           --seconds <s> --trace <0|1>
//!           [--scale full|tiny] [--inject-fault none|adr|trace-byte]
//!           [--out <dir>] [--host <fingerprint>]
//! ```
//!
//! Every workload is a closed loop: independent trials are striped over
//! the lanes of the program's `ThreadBudget` (no more lanes than the host
//! has cores), and each loop step waits for the one before it, so the
//! figures are work per second at a stated size. Trial `t` uses seed
//! `seed + t`.

mod check;
mod credit;
mod hiring;
mod spans;
mod wrap;

use eqimpact_core::pool::ThreadBudget;
use eqimpact_core::trials::run_trials_with_budget;
use spans::{json_string, now_ns, Span};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

/// Set-up passes per run; `setup_s` is their median.
const SETUP_PASSES: usize = 5;

/// Share of `--seconds` the traced run spends on its untraced half.
const UNTRACED_SHARE: f64 = 0.4;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    CreditPaper,
    CreditWide,
    HiringLab,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    None,
    /// Feed the checker a final step whose first ADR is 1.5.
    Adr,
    /// Flip one byte in the middle of the first recorded trace.
    TraceByte,
}

/// The parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Self-test size: a few users and steps instead of the workload's.
    pub tiny: bool,
    pub fault: Fault,
    /// Where spans and temporary traces go.
    pub out: PathBuf,
    pub host: String,
}

impl Opts {
    /// Seconds the untraced half of a traced run measures.
    pub fn untraced_seconds(&self) -> f64 {
        if self.trace {
            self.seconds * UNTRACED_SHARE
        } else {
            self.seconds
        }
    }
}

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut fault = Fault::None;
    let mut out = PathBuf::from(".bench_build/perfbench");
    let mut host = String::from("unknown");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value()?.as_str() {
                    "credit_paper" => Workload::CreditPaper,
                    "credit_wide" => Workload::CreditWide,
                    "hiring_lab" => Workload::HiringLab,
                    other => {
                        return Err(format!(
                        "unknown workload `{other}` (known: credit_paper, credit_wide, hiring_lab)"
                    ))
                    }
                })
            }
            "--seed" => {
                let v = value()?;
                seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed needs a u64, got `{v}`"))?,
                );
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds needs a number, got `{v}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                })
            }
            "--scale" => {
                tiny = match value()?.as_str() {
                    "full" => false,
                    "tiny" => true,
                    other => return Err(format!("--scale takes full or tiny, got `{other}`")),
                }
            }
            "--inject-fault" => {
                fault = match value()?.as_str() {
                    "none" => Fault::None,
                    "adr" => Fault::Adr,
                    "trace-byte" => Fault::TraceByte,
                    other => {
                        return Err(format!(
                            "--inject-fault takes none, adr or trace-byte, got `{other}`"
                        ))
                    }
                }
            }
            "--out" => out = PathBuf::from(value()?),
            "--host" => host = value()?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
        fault,
        out,
        host,
    })
}

/// What one workload run produced.
#[derive(Default)]
pub struct Report {
    /// Operations and run-level checks attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Spans of the traced run.
    pub spans: Vec<Span>,
}

impl Report {
    /// Counts one operation or check, failed when `problems` is not empty.
    pub fn tally(&mut self, what: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                if self.failures.len() < 20 {
                    self.failures.push(format!("{what}: {p}"));
                }
            }
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }
}

/// A small dense id per OS thread, naming the lane a trial ran on.
pub fn lane_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local!(static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    ID.with(|id| *id)
}

/// One timed operation of a batch.
pub trait Timed {
    /// `(lane, start_ns, end_ns)`.
    fn timing(&self) -> (u64, u64, u64);
}

/// A batch of independent operations, striped over the budget's lanes by
/// the program's `run_trials_with_budget`.
pub struct Batch<T> {
    pub items: Vec<T>,
    pub start: u64,
    pub end: u64,
}

pub fn run_batch<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Batch<T> {
    let start = now_ns();
    let items = run_trials_with_budget(ThreadBudget::global(), n, f);
    Batch {
        items,
        start,
        end: now_ns(),
    }
}

/// Mean per-lane busy time and mean per-lane idle time (batch wall
/// minus that lane's busy time), in ms per batch, over `batches`.
pub fn lane_usage<'a, T: Timed + 'a>(
    batches: impl IntoIterator<Item = &'a Batch<T>>,
) -> (f64, f64) {
    let (mut busy_sum, mut idle_sum, mut lanes) = (0.0, 0.0, 0usize);
    for b in batches {
        let mut per_lane: std::collections::BTreeMap<u64, u64> = Default::default();
        for item in &b.items {
            let (lane, s, e) = item.timing();
            *per_lane.entry(lane).or_insert(0) += e.saturating_sub(s);
        }
        let wall = b.end.saturating_sub(b.start);
        for &busy in per_lane.values() {
            busy_sum += busy as f64;
            idle_sum += wall.saturating_sub(busy) as f64;
            lanes += 1;
        }
    }
    if lanes == 0 {
        return (0.0, 0.0);
    }
    let per = lanes as f64 * 1e6;
    (busy_sum / per, idle_sum / per)
}

/// The `q`-quantile (nearest rank) of `xs`; 0 for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Nanoseconds per call of the public `std_normal_cdf` over a fixed
/// grid of arguments (the respond layer's inner function).
pub fn normal_cdf_ns() -> f64 {
    let grid: Vec<f64> = (0..4096).map(|i| -8.0 + 16.0 * i as f64 / 4095.0).collect();
    let mut calls = 0u64;
    let mut acc = 0.0;
    let start = now_ns();
    while now_ns() - start < 50_000_000 {
        for &x in &grid {
            acc += eqimpact_stats::dist::std_normal_cdf(std::hint::black_box(x));
        }
        calls += grid.len() as u64;
    }
    let ns = (now_ns() - start) as f64;
    std::hint::black_box(acc);
    ns / calls as f64
}

/// The process's peak resident set, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let process_start = now_ns();
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let lanes = std::thread::available_parallelism().map_or(1, |n| n.get());
    if let Err(existing) = ThreadBudget::init_global(lanes) {
        eprintln!("perfbench: thread budget already fixed at {existing} lanes");
        return ExitCode::from(2);
    }
    let name = match opts.workload {
        Workload::CreditPaper => "credit_paper",
        Workload::CreditWide => "credit_wide",
        Workload::HiringLab => "hiring_lab",
    };
    println!("# host {}", opts.host);
    println!(
        "# workload {name} seed {} seconds {} trace {} scale {} lanes {lanes}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        if opts.tiny { "tiny" } else { "full" },
    );

    let mut report = Report::default();
    let mut setups = Vec::with_capacity(SETUP_PASSES);
    for _ in 0..SETUP_PASSES {
        let start = now_ns();
        let problems = match opts.workload {
            Workload::HiringLab => hiring::setup(&opts),
            _ => credit::setup(&opts),
        };
        setups.push((now_ns() - start) as f64 / 1e9);
        report.tally("set-up", &problems);
    }
    setups.sort_by(f64::total_cmp);
    let setup_s = setups[setups.len() / 2];
    println!(
        "# set-up: median {setup_s:.4} s of {SETUP_PASSES} passes; process start to first timed operation {:.4} s",
        (now_ns() - process_start) as f64 / 1e9
    );

    match opts.workload {
        Workload::HiringLab => hiring::run(&opts, &mut report),
        _ => credit::run(&opts, &mut report),
    }
    if !opts.trace {
        report.metrics.insert(0, ("setup_s", setup_s, "s"));
        report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    }

    for line in &report.notes {
        println!("{line}");
    }
    println!(
        "failed_ratio = {} failed / {} attempted = {}",
        report.failed,
        report.attempted,
        ratio(report.failed as f64, report.attempted as f64)
    );
    for f in &report.failures {
        println!("FAILED {f}");
    }
    if opts.trace {
        let path = opts
            .out
            .join(format!("spans-{name}-seed{}.jsonl", opts.seed));
        match spans::write_jsonl(&path, &opts.host, &report.spans) {
            Ok(()) => println!(
                "# {} spans written to {}",
                report.spans.len(),
                path.display()
            ),
            Err(e) => {
                report.tally("span write-out", &[format!("{}: {e}", path.display())]);
            }
        }
    }
    for (name, value, unit) in &report.metrics {
        println!("metric {name} = {value} {unit}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                json_string(name),
                json_string(unit)
            )
        })
        .collect();
    let correct = report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
