//! What every workload shares: correctness tallies, the output digest,
//! and the two reports a run produces.

use std::collections::BTreeMap;
use std::time::Instant;

use mcs_obs::{Counter, Snapshot};

use crate::hist::Histogram;
use crate::spans::Tracer;

/// Correctness checks run outside the timed windows.
#[derive(Clone, Copy, Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Checks {
    /// Count one check; a failure is reported on stderr as `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// FNV-1a over the folded results of a fixed input prefix: the untraced
/// and the traced run print it, and it must agree between them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold in one word.
    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Fold in a float by its bits.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// Fold in a string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.u64(u64::from(b));
        }
    }
}

/// Whole nanoseconds since `t`, saturating.
pub fn since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Sizes: the full benchmark, or a tiny run for smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark's numbers are defined at.
    Full,
    /// Tiny inputs, for a quick end-to-end check of the plumbing.
    Quick,
}

impl Size {
    /// How many times a run sets up; `setup_s` is their median.
    pub fn setup_reps(self) -> usize {
        match self {
            Size::Full => 5,
            Size::Quick => 2,
        }
    }

    /// `full` at full size, else `quick`.
    pub fn pick<T>(self, full: T, quick: T) -> T {
        match self {
            Size::Full => full,
            Size::Quick => quick,
        }
    }
}

/// Windows the timed run is split into.
const WINDOWS: u64 = 40;
/// A window also holds at least this many requests.
const MIN_WINDOW_REQUESTS: u64 = 8;

/// The timed run, split into consecutive windows of about 1/40 of it.
///
/// On a shared 2-vCPU host (Intel Xeon, 2.1 GHz), other tenants slow every
/// process by up to 40% in phases lasting seconds, so the reported
/// throughput is that of the fastest quarter of the windows, where the
/// program ran least disturbed. The whole run's throughput is printed
/// beside it.
pub struct Meter {
    budget_ns: u64,
    measured_ns: u64,
    items: u64,
    setups_due: u64,
    /// Items, nanoseconds and requests of the open window.
    open: (u64, u64, u64),
    /// Items and nanoseconds of each closed window.
    closed: Vec<(u64, u64)>,
    latency: Histogram,
}

/// What a [`Meter`] measured.
pub struct Measured {
    /// Items completed over the whole run.
    pub items: u64,
    /// Timed nanoseconds over the whole run.
    pub ns: u64,
    /// Latency of every request.
    pub latency: Histogram,
    /// Windows, and those in the fastest quarter.
    pub windows: usize,
    /// See [`Measured::windows`].
    pub best_windows: usize,
    /// Items and nanoseconds of the fastest quarter.
    pub best_items: u64,
    /// See [`Measured::best_items`].
    pub best_ns: u64,
    /// Peak resident set when the timed run ended, before the correctness
    /// checks that follow it, in MB.
    pub peak_rss_mb: Result<f64, String>,
}

impl Meter {
    /// A meter for a timed run of `seconds`.
    pub fn new(seconds: f64) -> Self {
        Self {
            budget_ns: (seconds * 1e9) as u64,
            measured_ns: 0,
            items: 0,
            setups_due: 0,
            open: (0, 0, 0),
            closed: Vec::new(),
            latency: Histogram::default(),
        }
    }

    /// Whether the timed run is over.
    pub fn done(&self) -> bool {
        self.measured_ns >= self.budget_ns
    }

    /// Whether another of `reps` set-ups is due: they are spread evenly
    /// over the run, after the one before it, so one slow phase of the
    /// host moves few of them.
    pub fn setup_due(&mut self, reps: usize) -> bool {
        let reached = self.measured_ns * reps as u64 / self.budget_ns.max(1);
        if self.setups_due + 1 < reps as u64 && reached > self.setups_due {
            self.setups_due += 1;
            return true;
        }
        false
    }

    /// Record one request's latency.
    pub fn request(&mut self, ns: u64) {
        self.latency.record(ns);
        self.open.2 += 1;
    }

    /// Record `items` completed in `ns` of timed run.
    pub fn work(&mut self, items: u64, ns: u64) {
        self.open.0 += items;
        self.open.1 += ns;
        self.items += items;
        self.measured_ns += ns;
        if self.open.1 >= self.budget_ns / WINDOWS && self.open.2 >= MIN_WINDOW_REQUESTS {
            self.closed.push((self.open.0, self.open.1));
            self.open = (0, 0, 0);
        }
    }

    /// Close the run.
    pub fn finish(mut self) -> Measured {
        if self.open.2 > 0 {
            self.closed.push((self.open.0, self.open.1));
        }
        let rate = |&(items, ns): &(u64, u64)| items as f64 / ns.max(1) as f64;
        self.closed.sort_by(|a, b| rate(b).total_cmp(&rate(a)));
        let best = &self.closed[..self.closed.len().div_ceil(4)];
        Measured {
            items: self.items,
            ns: self.measured_ns,
            latency: self.latency,
            windows: self.closed.len(),
            best_windows: best.len(),
            best_items: best.iter().map(|w| w.0).sum(),
            best_ns: best.iter().map(|w| w.1).sum(),
            peak_rss_mb: peak_rss_mb(),
        }
    }
}

/// `mcs_obs` counter totals over the traced requests only, so the
/// untraced passes that run between them do not count.
pub struct Counts([u64; Counter::COUNT]);

impl Default for Counts {
    fn default() -> Self {
        Self([0; Counter::COUNT])
    }
}

impl Counts {
    /// Run `f`, adding the counter deltas across it.
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let before = Snapshot::capture();
        let out = f();
        for (c, v) in Snapshot::capture().delta_since(&before).counters() {
            self.0[c as usize] += v;
        }
        out
    }

    /// One counter's total.
    pub fn get(&self, c: Counter) -> u64 {
        self.0[c as usize]
    }
}

/// What the untraced run measured.
pub struct RunReport {
    /// Duration of each set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// The timed run.
    pub measured: Measured,
    /// What an item is (trials, or lifecycle calls).
    pub item: &'static str,
    /// What a request is.
    pub request: &'static str,
    /// Correctness checks.
    pub checks: Checks,
    /// Digest of the set-up's warm-up results.
    pub digest: Digest,
}

/// What the traced run measured.
pub struct TraceReport {
    /// The spans.
    pub tracer: Tracer,
    /// Counter totals over the traced requests.
    pub counts: Counts,
    /// Untraced and traced time of the same work, in nanoseconds.
    pub untraced_ns: u64,
    /// See [`TraceReport::untraced_ns`].
    pub traced_ns: u64,
    /// Per-layer metrics only this workload can compute.
    pub extra: BTreeMap<&'static str, f64>,
    /// Correctness checks.
    pub checks: Checks,
    /// Digest of the traced replay's results on the warm-up prefix.
    pub digest: Digest,
}

impl TraceReport {
    /// An empty report for the spans in `tracer`.
    pub fn new(tracer: Tracer, counts: Counts) -> Self {
        Self {
            tracer,
            counts,
            untraced_ns: 0,
            traced_ns: 0,
            extra: BTreeMap::new(),
            checks: Checks::default(),
            digest: Digest::default(),
        }
    }
}
