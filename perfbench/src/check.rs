//! Output checks: record digests, per-step range checks, and the
//! race-wise long-run statistics compared with `reference.json`.

use eqimpact_census::Race;
use eqimpact_core::features::FeatureMatrix;
use eqimpact_core::recorder::{LoopRecord, RecordPolicy, StepSink};
use eqimpact_stats::Json;

/// A 64-bit digest of `f64` bit patterns, hashed in four interleaved
/// lanes so it keeps up with the loop it checks.
#[derive(Debug, Clone, Copy)]
pub struct Digest([u64; 4]);

const K: u64 = 0x9E37_79B9_7F4A_7C15;

impl Default for Digest {
    fn default() -> Self {
        Digest([0xcbf2_9ce4_8422_2325, 1, 2, 3])
    }
}

impl Digest {
    /// Folds one slice of values.
    pub fn values(&mut self, xs: &[f64]) {
        let mut chunks = xs.chunks_exact(4);
        let h = &mut self.0;
        for c in &mut chunks {
            for lane in 0..4 {
                h[lane] = (h[lane].rotate_left(23) ^ c[lane].to_bits()).wrapping_mul(K);
            }
        }
        for &x in chunks.remainder() {
            h[0] = (h[0].rotate_left(23) ^ x.to_bits()).wrapping_mul(K);
        }
        self.word(xs.len() as u64);
    }

    /// Folds one integer.
    pub fn word(&mut self, w: u64) {
        self.0[0] = (self.0[0].rotate_left(23) ^ w).wrapping_mul(K);
    }

    /// Folds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("chunks of eight")));
        }
        for &b in chunks.remainder() {
            self.word(u64::from(b));
        }
        self.word(bytes.len() as u64);
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        let mut h = self.0[0];
        for &lane in &self.0[1..] {
            h = (h.rotate_left(23) ^ lane).wrapping_mul(K);
        }
        h ^ (h >> 29)
    }
}

/// Digest of one loop step, as both the check sink and
/// [`record_digest`] fold it.
fn fold_step(d: &mut Digest, signals: &[f64], actions: &[f64], filtered: &[f64]) {
    d.values(signals);
    d.values(actions);
    d.values(filtered);
}

/// Digest of a full record, equal to the [`CheckSink`] digest of the
/// run that produced it.
pub fn record_digest(record: &LoopRecord) -> u64 {
    let mut d = Digest::default();
    for k in 0..record.steps() {
        fold_step(
            &mut d,
            record.signals(k),
            record.actions(k),
            record.filtered(k),
        );
    }
    d.finish()
}

/// Digest of a byte string (trace files, rendered reports).
pub fn bytes_digest(bytes: &[u8]) -> u64 {
    let mut d = Digest::default();
    d.bytes(bytes);
    d.finish()
}

/// Which race-wise long-run statistic a workload is checked on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stat {
    /// Mean filter output of the race at the final step (credit: ADR).
    FinalFiltered,
    /// Share of the race's user-steps with a positive signal (hiring:
    /// the long-run hire rate).
    PositiveSignalRate,
}

/// A sink that checks every step of one loop as it runs and digests it:
/// one output per user, actions in {0, 1}, filter outputs in [0, 1].
/// It also accumulates the race-wise long-run statistic.
pub struct CheckSink {
    steps: usize,
    stat: Stat,
    codes: Vec<u32>,
    digest: Digest,
    seen: usize,
    race_sum: [f64; 3],
    race_users: [usize; 3],
    /// Problems found, one line each.
    pub failures: Vec<String>,
}

impl CheckSink {
    /// A checker for a loop of `steps` steps.
    pub fn new(steps: usize, stat: Stat) -> Self {
        CheckSink {
            steps,
            stat,
            codes: Vec::new(),
            digest: Digest::default(),
            seen: 0,
            race_sum: [0.0; 3],
            race_users: [0; 3],
            failures: Vec::new(),
        }
    }

    fn fail(&mut self, what: String) {
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// The digest of every step seen.
    pub fn digest(&self) -> u64 {
        self.digest.finish()
    }

    /// Checks the finished run: the step count, and the record's shape.
    pub fn finish(&mut self, record: &LoopRecord, users: usize) {
        if self.seen != self.steps {
            self.fail(format!("saw {} steps, expected {}", self.seen, self.steps));
        }
        if record.steps() != self.steps || record.user_count() != users {
            self.fail(format!(
                "record is {} steps x {} users, expected {} x {users}",
                record.steps(),
                record.user_count(),
                self.steps
            ));
        }
        if record.policy() == RecordPolicy::Full && record_digest(record) != self.digest() {
            self.fail("the record differs from the telemetry the loop emitted".to_string());
        }
    }

    /// The race-wise statistic, in [`Race::ALL`] order (NaN for a race
    /// with no users).
    pub fn race_stat(&self) -> [f64; 3] {
        let mut out = [f64::NAN; 3];
        for ((slot, &users), &sum) in out.iter_mut().zip(&self.race_users).zip(&self.race_sum) {
            if users > 0 {
                let per = match self.stat {
                    Stat::FinalFiltered => users as f64,
                    Stat::PositiveSignalRate => (users * self.steps) as f64,
                };
                *slot = sum / per;
            }
        }
        out
    }
}

impl StepSink for CheckSink {
    fn on_groups(&mut self, labels: &[&str], codes: &[u32]) {
        let expected: Vec<&str> = Race::ALL.iter().map(|r| r.label()).collect();
        if labels != expected.as_slice() {
            self.fail(format!("group labels {labels:?}, expected {expected:?}"));
        }
        self.codes = codes.to_vec();
        self.race_users = [0; 3];
        for &c in codes {
            match self.race_users.get_mut(c as usize) {
                Some(n) => *n += 1,
                None => self.fail(format!("group code {c} out of range")),
            }
        }
    }

    fn on_step(
        &mut self,
        k: usize,
        _visible: &FeatureMatrix,
        signals: &[f64],
        actions: &[f64],
        filtered: &[f64],
    ) {
        self.seen += 1;
        let n = self.codes.len();
        if signals.len() != n || actions.len() != n || filtered.len() != n {
            self.fail(format!(
                "step {k}: {} signals, {} actions, {} filter outputs for {n} users",
                signals.len(),
                actions.len(),
                filtered.len()
            ));
            return;
        }
        if let Some(i) = actions.iter().position(|&a| a != 0.0 && a != 1.0) {
            self.fail(format!(
                "step {k}: user {i} action {} is not 0 or 1",
                actions[i]
            ));
        }
        if let Some(i) = filtered.iter().position(|f| !(0.0..=1.0).contains(f)) {
            self.fail(format!(
                "step {k}: user {i} filter output {} outside [0, 1]",
                filtered[i]
            ));
        }
        match self.stat {
            Stat::FinalFiltered if k + 1 == self.steps => {
                for (&c, &f) in self.codes.iter().zip(filtered) {
                    self.race_sum[c as usize % 3] += f;
                }
            }
            Stat::FinalFiltered => {}
            Stat::PositiveSignalRate => {
                for (&c, &s) in self.codes.iter().zip(signals) {
                    if s > 0.0 {
                        self.race_sum[c as usize % 3] += 1.0;
                    }
                }
            }
        }
        fold_step(&mut self.digest, signals, actions, filtered);
    }
}

/// The red path of the self-test: hands the checker a copy of the final
/// step with the first user's filter output pushed out of range.
pub struct CorruptFinalStep<'a> {
    /// The checker being fed.
    pub inner: &'a mut CheckSink,
}

impl StepSink for CorruptFinalStep<'_> {
    fn on_groups(&mut self, labels: &[&str], codes: &[u32]) {
        self.inner.on_groups(labels, codes);
    }

    fn on_step(
        &mut self,
        k: usize,
        visible: &FeatureMatrix,
        signals: &[f64],
        actions: &[f64],
        filtered: &[f64],
    ) {
        if k + 1 == self.inner.steps && !filtered.is_empty() {
            let mut bad = filtered.to_vec();
            bad[0] = 1.5;
            self.inner.on_step(k, visible, signals, actions, &bad);
        } else {
            self.inner.on_step(k, visible, signals, actions, filtered);
        }
    }
}

/// Reference values of one workload's race-wise statistic, measured
/// at the workload's default seed.
pub struct Reference {
    /// Mean per race, in [`Race::ALL`] order.
    pub values: [f64; 3],
    /// Standard deviation of one loop's value per race.
    pub sd: [f64; 3],
    /// A run's mean may differ from the reference by `sigmas` standard
    /// errors of that mean, plus `floor`.
    pub sigmas: f64,
    pub floor: f64,
}

/// Loads the reference entry `key` from the benchmark's `reference.json`.
pub fn reference(key: &str) -> Result<Reference, String> {
    let doc = eqimpact_stats::json::parse(include_str!("../reference.json"))
        .map_err(|e| format!("reference.json: {e:?}"))?;
    let entry = doc
        .get(key)
        .ok_or_else(|| format!("reference.json has no entry `{key}`"))?;
    let number = |field: &str| {
        entry
            .get(field)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("reference.json: `{key}.{field}` is not a number"))
    };
    let per_race = |field: &str| -> Result<[f64; 3], String> {
        let mut out = [0.0; 3];
        for (slot, race) in out.iter_mut().zip(Race::ALL) {
            *slot = entry
                .get(field)
                .and_then(|v| v.get(race.label()))
                .and_then(Json::as_f64)
                .ok_or_else(|| {
                    format!("reference.json: `{key}.{field}` lacks `{}`", race.label())
                })?;
        }
        Ok(out)
    };
    Ok(Reference {
        values: per_race("mean")?,
        sd: per_race("sd")?,
        sigmas: number("sigmas")?,
        floor: number("floor")?,
    })
}

/// Mean and standard deviation per race over loops.
pub fn race_moments(per_loop: &[[f64; 3]]) -> ([f64; 3], [f64; 3]) {
    let n = per_loop.len() as f64;
    let mut mean = [0.0; 3];
    let mut sd = [0.0; 3];
    for r in 0..3 {
        mean[r] = per_loop.iter().map(|x| x[r]).sum::<f64>() / n;
        let ss: f64 = per_loop.iter().map(|x| (x[r] - mean[r]).powi(2)).sum();
        sd[r] = if n > 1.0 {
            (ss / (n - 1.0)).sqrt()
        } else {
            0.0
        };
    }
    (mean, sd)
}

/// A note line with the per-race mean and standard deviation.
pub fn race_note(what: &str, per_loop: &[[f64; 3]]) -> String {
    let (mean, sd) = race_moments(per_loop);
    let cells: Vec<String> = Race::ALL
        .iter()
        .enumerate()
        .map(|(r, race)| format!("{} {:.5} (sd {:.5})", race.label(), mean[r], sd[r]))
        .collect();
    format!("{what} over {} loops: {}", per_loop.len(), cells.join(", "))
}

/// Compares the mean race-wise statistic of a run's loops with the
/// reference; returns one failure line per race out of tolerance.
pub fn compare(reference: &Reference, per_loop: &[[f64; 3]]) -> Vec<String> {
    let (mean, _) = race_moments(per_loop);
    let n = per_loop.len() as f64;
    let mut failures = Vec::new();
    for (r, race) in Race::ALL.iter().enumerate() {
        let want = reference.values[r];
        let tolerance = reference.sigmas * reference.sd[r] / n.sqrt() + reference.floor;
        // Written so that a NaN mean fails too.
        let within = (mean[r] - want).abs() <= tolerance;
        if !within {
            failures.push(format!(
                "race {}: long-run statistic {:.5} over {n} loops is not within {tolerance:.5} of the reference {want:.5}",
                race.label(),
                mean[r]
            ));
        }
    }
    failures
}
