//! In-memory spans of the traced run, the self-time analysis over them,
//! and their write-out at the end of the run.
//!
//! A span is one call into a layer's public function, recorded by the
//! benchmark-side adapters in `wrap`. Spans of one trial share a trial id
//! and name the trial's root span as their parent, so a layer's self time
//! is its span duration minus the union of the intervals its children
//! cover (children may overlap when shards run concurrently).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the process-wide benchmark epoch.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The step field of spans that are not tied to one loop step.
pub const NO_STEP: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Id, unique within its trial (the trial root is id 0).
    pub id: u32,
    /// Parent span id within the same trial, `None` for the root.
    pub parent: Option<u32>,
    /// Layer function name, e.g. `loop.retrain`.
    pub name: &'static str,
    /// The trial (or pipeline operation) the span belongs to.
    pub trial: u64,
    /// Loop step, or [`NO_STEP`].
    pub step: u32,
    /// Shard index for calls made per shard, `None` otherwise.
    pub lane: Option<u32>,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The spans of one trial. Shared by every adapter of the trial; shard
/// adapters push from worker threads, hence the lock (held for one push).
#[derive(Debug)]
pub struct SpanLog {
    trial: u64,
    root_start: u64,
    spans: Mutex<Vec<Span>>,
}

/// Id of a trial's root span.
pub const ROOT: u32 = 0;

impl SpanLog {
    /// Opens the log of `trial`; its root span starts now.
    pub fn open(trial: u64) -> Self {
        SpanLog {
            trial,
            root_start: now_ns(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Records a child of the root span.
    pub fn push(&self, name: &'static str, step: u32, lane: Option<u32>, start: u64, end: u64) {
        let mut spans = self
            .spans
            .lock()
            .expect("span log lock: a recording thread panicked");
        let id = spans.len() as u32 + 1;
        spans.push(Span {
            id,
            parent: Some(ROOT),
            name,
            trial: self.trial,
            step,
            lane,
            start,
            end,
        });
    }

    /// Times `f` as a child span.
    pub fn time<T>(
        &self,
        name: &'static str,
        step: u32,
        lane: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = now_ns();
        let out = f();
        self.push(name, step, lane, start, now_ns());
        out
    }

    /// Closes the root span (named `root`) now and returns every span,
    /// root first.
    pub fn close(self, root: &'static str) -> Vec<Span> {
        let end = now_ns();
        let mut spans = self
            .spans
            .into_inner()
            .expect("span log lock: a recording thread panicked");
        spans.insert(
            0,
            Span {
                id: ROOT,
                parent: None,
                name: root,
                trial: self.trial,
                step: NO_STEP,
                lane: None,
                start: self.root_start,
                end,
            },
        );
        spans
    }
}

/// Total length of the union of `intervals` (sorted in place).
fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Self time per span name, in ns, over the spans of one trial: each
/// span's duration minus the union of its children's intervals clipped
/// to it.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let covered = match children.get_mut(&s.id) {
            Some(kids) => {
                let mut clipped: Vec<(u64, u64)> = kids
                    .iter()
                    .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                    .filter(|&(a, b)| a < b)
                    .collect();
                union_ns(&mut clipped)
            }
            None => 0,
        };
        *out.entry(s.name).or_insert(0) += s.ns().saturating_sub(covered);
    }
    out
}

/// Writes every span as one JSON object per line, after a header line
/// holding the run's host fingerprint.
pub fn write_jsonl(path: &Path, fingerprint: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"host\":{}}}", json_string(fingerprint))?;
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let lane = s.lane.map_or("null".to_string(), |l| l.to_string());
        let step = if s.step == NO_STEP {
            "null".to_string()
        } else {
            s.step.to_string()
        };
        writeln!(
            out,
            "{{\"trial\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"step\":{step},\"lane\":{lane},\"start_ns\":{},\"end_ns\":{}}}",
            s.trial, s.id, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            trial: 0,
            step: NO_STEP,
            lane: None,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(0, None, "trial", 0, 100),
            span(1, Some(0), "a", 10, 40),
            span(2, Some(0), "a", 30, 50),
            span(3, Some(0), "b", 90, 120),
        ];
        let times = self_times(&spans);
        // Children cover 10..50 and 90..100 of the root: 50 ns.
        assert_eq!(times["trial"], 50);
        assert_eq!(times["a"], 50);
        assert_eq!(times["b"], 30);
    }
}
