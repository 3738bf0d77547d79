//! # mcs-obs
//!
//! Near-zero-overhead telemetry for the partitioner, harness, and
//! simulator: a static registry of relaxed atomic counters and log₂
//! latency histograms, RAII span timing for named phases, and a sink that
//! writes a JSONL sidecar plus a human-readable summary — strictly to
//! stderr or a `--telemetry <path>` file, never stdout.
//!
//! Every event is declared once, in the registry's event table: a row
//! carries its [`Counter`], its flight-recorder [`EventKind`], or both,
//! and [`event!`] emits both halves of a row from one call site.
//!
//! Three cost tiers:
//!
//! 1. **Compiled out** (`telemetry-off`, the one kill switch): every
//!    probe and record point folds to nothing ([`COMPILED`] is `false`
//!    and all instrumentation, the flight recorder included, is behind
//!    `if COMPILED`).
//! 2. **Counters** (default): one relaxed `fetch_add` on a thread-sharded
//!    slot per event; hot loops batch increments so the probe kernel pays
//!    a register add per probe and one atomic per batch.
//! 3. **Timing** (runtime, via [`set_timing`]): span sites additionally
//!    take two `Instant` readings and feed a histogram. Off by default;
//!    `--telemetry` and `mcs-exp profile` turn it on.
//!
//! Telemetry is write-only for the instrumented code — no decision ever
//! reads a counter — so enabling or disabling it cannot change published
//! outputs (the determinism contract; see DESIGN.md).
//!
//! ```
//! use mcs_obs::{Counter, Phase, Snapshot};
//!
//! let before = Snapshot::capture();
//! mcs_obs::counter!(Counter::EngineCommits);
//! mcs_obs::event!(Counter::SimIdleResets, 42, 0, 0, 0); // recorded only when tracing is on
//! {
//!     let _timer = mcs_obs::span(Phase::ProbeBatch); // inert unless timing is on
//! }
//! let delta = Snapshot::capture().delta_since(&before);
//! assert!(delta.counter(Counter::EngineCommits) <= 1);
//! ```

#![forbid(unsafe_code)]

pub mod hist;
pub mod registry;
pub mod sink;
pub mod span;
pub mod trace;

pub use registry::{
    add, now_if_timing, record_phase, set_timing, set_tracing, timing_enabled, tracing_enabled,
    worker_block, worker_busy_ns, worker_trials, worker_wall_ns, Counter, EventKind, Phase,
    PhaseStat, Snapshot, WorkerStat, COMPILED, MAX_WORKERS,
};
pub use sink::{fmt_ns, git_describe, render_summary, write_jsonl, Provenance, SCHEMA};
pub use span::{span, PhaseSpan};
pub use trace::{TraceEvent, TraceLog, RING_CAP};

/// Serializes this crate's tests that toggle the global tracing or timing
/// gates, or that need exact counter deltas.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Whether telemetry is compiled into this build — `const`, so callers can
/// use it to skip even the cheapest local bookkeeping.
#[inline]
#[must_use]
pub const fn compiled() -> bool {
    COMPILED
}

/// Increment a [`Counter`] by 1 (or by `n` with a second argument). One
/// relaxed atomic add when telemetry is compiled in; nothing otherwise.
#[macro_export]
macro_rules! counter {
    ($counter:expr) => {
        $crate::add($counter, 1)
    };
    ($counter:expr, $n:expr) => {
        $crate::add($counter, $n)
    };
}

/// Emit one registered event: bump its [`Counter`] by 1 and, when the
/// tracing gate is on and the counter's registry row declares an
/// [`EventKind`], record that kind with payload `(tick, a, b, c)` (see
/// [`trace::emit`]). Nothing at all under `telemetry-off`.
#[macro_export]
macro_rules! event {
    ($counter:expr, $tick:expr, $a:expr, $b:expr, $c:expr) => {
        $crate::trace::emit($counter, $tick, $a, $b, $c)
    };
}
