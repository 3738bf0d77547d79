//! `telemetry-consistency` — counter algebra over a quiescent telemetry
//! snapshot.
//!
//! The `mcs-obs` instrumentation discipline implies exact arithmetic
//! relations between counters: every probe that is issued is decided
//! exactly one way (`issued == rejected + feasible`), every commit or
//! untracked placement was preceded by a counted feasible probe, the
//! α-fallback can fire at most once per placement attempt, and the
//! per-worker trial counts must sum to the trials the harness computed.
//! A broken relation means an instrumentation point was dropped, doubled,
//! or moved — exactly the silent drift this audit layer exists to catch.
//!
//! Counters must be read at a quiescent point — all workers joined —
//! which only the caller can know, so the check is a function over a
//! caller-supplied [`TelemetryCounters`] observation rather than a
//! per-partition rule. `mcs-exp audit` snapshots the global registry
//! around its sweep and feeds the delta in; this crate itself stays free
//! of the `mcs-obs` dependency, receiving plain integers.

use crate::diagnostic::{Diagnostic, Subject};

/// Rule id of the [`check_counters`] findings.
pub const TELEMETRY_ID: &str = "telemetry-consistency";

/// A quiescent reading of the telemetry counters relevant to the algebra,
/// supplied by the caller (typically a before/after snapshot delta over
/// one audited sweep).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TelemetryCounters {
    /// Probes issued by the probe engine.
    pub probes_issued: u64,
    /// Probes decided infeasible.
    pub probes_rejected: u64,
    /// Probes decided feasible.
    pub probes_feasible: u64,
    /// Tracked commits.
    pub commits: u64,
    /// Untracked (bin-packing) placements.
    pub placements_untracked: u64,
    /// Placement attempts (one per task a scheme tried to place).
    pub placement_attempts: u64,
    /// α-threshold fallback activations.
    pub alpha_fallbacks: u64,
    /// Sum of per-worker trial counts.
    pub worker_trials_sum: u64,
    /// Trials the harness computed this window.
    pub trials_computed: u64,
    /// Trials reloaded from checkpoints this window.
    pub trials_resumed: u64,
    /// Trials the window was expected to produce (computed + resumed),
    /// when the caller knows it; `None` skips that check.
    pub expected_trials: Option<u64>,
}

/// Check the counter algebra over one quiescent observation.
#[must_use]
pub fn check_counters(t: &TelemetryCounters) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut err = |msg: String| out.push(Diagnostic::error(TELEMETRY_ID, Subject::System, msg));

    if t.probes_issued != t.probes_rejected + t.probes_feasible {
        err(format!(
            "probe decisions do not cover issuance: issued {} != rejected {} + feasible {}",
            t.probes_issued, t.probes_rejected, t.probes_feasible
        ));
    }
    if t.commits + t.placements_untracked > t.probes_feasible {
        err(format!(
            "more placements than feasible probes: commits {} + untracked {} > feasible {}",
            t.commits, t.placements_untracked, t.probes_feasible
        ));
    }
    if t.alpha_fallbacks > t.placement_attempts {
        err(format!(
            "α fallback fired more often than placement was attempted: {} > {}",
            t.alpha_fallbacks, t.placement_attempts
        ));
    }
    if t.worker_trials_sum != t.trials_computed {
        err(format!(
            "per-worker trial counts sum to {} but the harness computed {}",
            t.worker_trials_sum, t.trials_computed
        ));
    }
    if let Some(expected) = t.expected_trials {
        if t.trials_computed + t.trials_resumed != expected {
            err(format!(
                "trials computed {} + resumed {} != expected {}",
                t.trials_computed, t.trials_resumed, expected
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn consistent() -> TelemetryCounters {
        TelemetryCounters {
            probes_issued: 100,
            probes_rejected: 40,
            probes_feasible: 60,
            commits: 30,
            placements_untracked: 10,
            placement_attempts: 45,
            alpha_fallbacks: 5,
            worker_trials_sum: 500,
            trials_computed: 500,
            trials_resumed: 20,
            expected_trials: Some(520),
        }
    }

    #[test]
    fn consistent_counters_pass() {
        assert!(check_counters(&consistent()).is_empty());
    }

    #[test]
    fn each_broken_relation_is_reported() {
        let breaks: [(&str, fn(&mut TelemetryCounters)); 5] = [
            ("issuance", |t| t.probes_issued += 1),
            ("placements", |t| t.commits = t.probes_feasible + 1),
            ("alpha", |t| t.alpha_fallbacks = t.placement_attempts + 1),
            ("workers", |t| t.worker_trials_sum += 1),
            ("expected", |t| t.expected_trials = Some(1)),
        ];
        for (label, tweak) in breaks {
            let mut t = consistent();
            tweak(&mut t);
            let findings = check_counters(&t);
            assert!(!findings.is_empty(), "{label}: violation not caught");
            assert!(findings.iter().all(|d| d.rule_id == TELEMETRY_ID));
        }
    }

    #[test]
    fn expected_trials_none_skips_that_check() {
        let mut t = consistent();
        t.expected_trials = None;
        t.trials_resumed = 999; // would fail the expected check if it ran
        assert!(check_counters(&t).is_empty());
    }
}
