//! `--telemetry` plumbing for the `mcs-exp` binary: provenance capture,
//! sidecar emission, the `profile` report tables, and the quiescent
//! counter-algebra check that backs `mcs-exp audit`.
//!
//! Telemetry output goes strictly to stderr or the `--telemetry <path>`
//! file — never stdout, which carries the published experiment tables and
//! must stay byte-identical with telemetry on or off.

use std::io::Write as _;

use mcs_audit::{check_counters, check_trace_counts, Diagnostic, TelemetryCounters, TraceCounts};
use mcs_obs::{fmt_ns, Counter, EventKind, Provenance, Snapshot, TraceLog};

use crate::report::Table;
use crate::sweep::SweepConfig;

/// Provenance for the current `mcs-exp` invocation: command list, sweep
/// knobs, the standard scheme line-up, and build/environment facts.
#[must_use]
pub fn provenance(command: &str, config: &SweepConfig, params: &str) -> Provenance {
    let schemes = mcs_harness::SchemeRegistry::standard()
        .entries()
        .iter()
        .map(|info| info.name.to_string())
        .collect();
    Provenance::capture(
        command.to_string(),
        config.seed,
        config.trials as u64,
        config.threads as u64,
        schemes,
        params.to_string(),
    )
}

/// Write the JSONL sidecar to `path` (`-` = stderr) and the human summary
/// to stderr.
pub fn write_sidecar(path: &str, prov: &Provenance, snap: &Snapshot) -> Result<(), String> {
    if path == "-" {
        let stderr = std::io::stderr();
        let mut lock = stderr.lock();
        mcs_obs::write_jsonl(&mut lock, prov, snap)
            .map_err(|e| format!("cannot write telemetry to stderr: {e}"))?;
    } else {
        let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
        let mut w = std::io::BufWriter::new(file);
        mcs_obs::write_jsonl(&mut w, prov, snap)
            .and_then(|()| w.flush())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("[mcs-exp] wrote telemetry sidecar to {path}");
    }
    eprint!("{}", mcs_obs::render_summary(snap));
    Ok(())
}

/// Map a telemetry snapshot delta onto the audit crate's plain-integer
/// counter view. `expected_trials` enables the computed+resumed coverage
/// check; pass `None` when telemetry is compiled out (all counters read
/// zero) or when the window spans an unknown number of trials.
#[must_use]
pub fn counters_from_delta(delta: &Snapshot, expected_trials: Option<u64>) -> TelemetryCounters {
    TelemetryCounters {
        probes_issued: delta.counter(Counter::EngineProbesIssued),
        probes_rejected: delta.counter(Counter::EngineProbesRejected),
        probes_feasible: delta.counter(Counter::EngineProbesFeasible),
        commits: delta.counter(Counter::EngineCommits),
        placements_untracked: delta.counter(Counter::EnginePlacementsUntracked),
        placement_attempts: delta.counter(Counter::PlacementAttempts),
        alpha_fallbacks: delta.counter(Counter::AlphaFallbacks),
        worker_trials_sum: delta.worker_trials_sum(),
        trials_computed: delta.counter(Counter::HarnessTrialsComputed),
        trials_resumed: delta.counter(Counter::HarnessTrialsResumed),
        expected_trials,
    }
}

/// Run the `telemetry-consistency` counter algebra over a quiescent delta
/// (all workers joined). Used by `mcs-exp audit` after its sweep; the
/// per-scheme rule table holds the partition-level rules only, so this
/// check reports through stderr and the exit code without perturbing the
/// published stdout.
#[must_use]
pub fn quiescent_check(delta: &Snapshot, expected_trials: Option<u64>) -> Vec<Diagnostic> {
    check_counters(&counters_from_delta(delta, expected_trials))
}

/// Map a merged flight-recorder stream and the counter delta of the same
/// quiescent window onto the audit crate's plain-integer
/// [`TraceCounts`] view (the `trace-consistency` check's input).
#[must_use]
pub fn trace_counts_from(log: &TraceLog, delta: &Snapshot) -> TraceCounts {
    let ev = log.counts();
    let e = |k: EventKind| ev[k as usize];
    TraceCounts {
        probe_sweep_begins: e(EventKind::ProbeSweepBegin),
        probe_sweep_ends: e(EventKind::ProbeSweepEnd),
        trial_begins: e(EventKind::TrialBegin),
        trial_ends: e(EventKind::TrialEnd),
        checkpoint_writes: e(EventKind::CheckpointWrite),
        dropped: log.dropped,
        trials_computed: delta.counter(Counter::HarnessTrialsComputed),
        checkpoint_flushes: delta.counter(Counter::CheckpointFlushes),
    }
}

/// Run the `trace-consistency` stream algebra over a quiescent window
/// (all workers joined, every ring drained into `log`). Like
/// [`quiescent_check`], this backs `mcs-exp audit` and reports through
/// stderr and the exit code only.
#[must_use]
pub fn quiescent_trace_check(log: &TraceLog, delta: &Snapshot) -> Vec<Diagnostic> {
    check_trace_counts(&trace_counts_from(log, delta))
}

/// `profile` table: one row per phase that recorded at least one span.
///
/// The `p50`/`p90`/`p99` columns are **bucket-midpoint estimates** (the
/// geometric mean of the realizing log₂ bucket's bounds — see
/// `mcs_obs::hist::quantile_estimate`), which track typical samples to
/// within √2 where the conservative bucket upper bound is off by up to
/// 2×. Gates and machine consumers should keep using the exact
/// `p*_ns` bounds from the JSONL sidecar.
#[must_use]
pub fn phase_table(snap: &Snapshot) -> Table {
    let mut t = Table::new(["phase", "count", "total", "mean", "p50", "p90", "p99", "max"]);
    for stat in snap.phases().iter().filter(|p| p.count > 0) {
        t.push_row([
            stat.phase.name().to_string(),
            stat.count.to_string(),
            fmt_ns(stat.total_ns),
            fmt_ns(stat.mean_ns() as u64),
            fmt_ns(stat.quantile_estimate_ns(0.50).round() as u64),
            fmt_ns(stat.quantile_estimate_ns(0.90).round() as u64),
            fmt_ns(stat.quantile_estimate_ns(0.99).round() as u64),
            fmt_ns(stat.max_ns),
        ]);
    }
    if snap.phases().iter().all(|p| p.count == 0) {
        t.push_row([
            "(no spans — timing off or telemetry compiled out)".to_string(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
        ]);
    }
    t
}

/// `profile` table: the `top` largest non-zero counters, descending.
#[must_use]
pub fn counter_table(snap: &Snapshot, top: usize) -> Table {
    let mut rows: Vec<(Counter, u64)> = snap.counters().filter(|&(_, v)| v > 0).collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.name().cmp(b.0.name())));
    let mut t = Table::new(["counter", "value"]);
    for (counter, value) in rows.into_iter().take(top) {
        t.push_row([counter.name().to_string(), value.to_string()]);
    }
    if t.rows.is_empty() {
        t.push_row(["(no counts — telemetry compiled out)".to_string(), String::new()]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provenance_lists_the_standard_schemes() {
        let prov = provenance("sweep", &SweepConfig::default(), "growth=Fixed");
        assert!(prov.schemes.iter().any(|s| s == "CA-TPA"), "{:?}", prov.schemes);
        assert_eq!(prov.command, "sweep");
    }

    /// An earlier-minus-later delta saturates to all-zero regardless of
    /// concurrent test activity, giving a deterministic empty snapshot.
    fn zero_delta() -> Snapshot {
        let earlier = Snapshot::capture();
        earlier.delta_since(&Snapshot::capture())
    }

    #[test]
    fn zero_delta_is_consistent_without_expectations() {
        let snap = zero_delta();
        assert_eq!(snap.counter(Counter::EngineProbesIssued), 0);
        // No expected-trials claim: an all-zero window trivially satisfies
        // the algebra (0 == 0 + 0 everywhere).
        assert!(quiescent_check(&snap, None).is_empty());
    }

    #[test]
    fn trace_algebra_over_an_empty_window_is_consistent() {
        let snap = zero_delta();
        assert!(quiescent_trace_check(&TraceLog::default(), &snap).is_empty());
        // An event with no matching counter delta in the window is the
        // drift the check exists to catch.
        let mut log = TraceLog::default();
        log.events.push(mcs_obs::TraceEvent {
            kind: EventKind::CheckpointWrite,
            trial: 0,
            seq: 0,
            tick: 0,
            a: 7,
            b: 0,
            c: 0,
            wall_ns: 0,
        });
        assert_eq!(quiescent_trace_check(&log, &snap).len(), 1);
    }

    #[test]
    fn tables_render_without_activity() {
        let snap = zero_delta();
        let phases = phase_table(&snap);
        let counters = counter_table(&snap, 10);
        assert!(!phases.rows.is_empty());
        assert!(!counters.rows.is_empty());
    }

    #[test]
    fn sidecar_path_errors_are_reported() {
        let snap = Snapshot::capture();
        let prov = provenance("sweep", &SweepConfig::default(), "p");
        let err = write_sidecar("/nonexistent-dir/t.jsonl", &prov, &snap);
        assert!(err.is_err());
    }
}
