//! `trace-consistency` — the flight-recorder stream algebra at a quiescent
//! point.
//!
//! A counted event that is also recorded is emitted by one `mcs_obs::event!`
//! call, so its counter and its recorded kind agree by construction. What
//! is left to check is what no single call site guarantees: the recorder's
//! `B`/`E` span pairs (repair probe sweeps, harness trials) must balance,
//! and the two harness kinds recorded apart from their counters must match
//! them — one `trial_begin` per computed trial, one `checkpoint_write` per
//! flushed checkpoint line. A mismatch means a drain was skipped or a
//! recording site drifted from the work it describes.
//!
//! When the ring overflowed (`dropped > 0`) the oldest events are gone by
//! design, so the exact equalities relax to lower bounds (an event count
//! can never *exceed* its counter) and span balance is not required.
//!
//! The check runs once over a quiescent window (all workers joined, every
//! ring drained), which only the caller can supply, so it is a function
//! rather than a per-partition rule; this crate keeps receiving plain
//! integers so it stays free of the `mcs-obs` dependency.

use crate::diagnostic::{Diagnostic, Subject};

/// Rule id of the [`check_trace_counts`] findings.
pub const TRACE_ID: &str = "trace-consistency";

/// A quiescent observation of the recorder-only event counts next to the
/// counter deltas they must match, supplied by the caller (typically
/// `TraceLog::counts` over one audited sweep next to a `Snapshot` delta of
/// the same window).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCounts {
    /// `probe_sweep_begin` events in the stream.
    pub probe_sweep_begins: u64,
    /// `probe_sweep_end` events.
    pub probe_sweep_ends: u64,
    /// `trial_begin` events.
    pub trial_begins: u64,
    /// `trial_end` events.
    pub trial_ends: u64,
    /// `checkpoint_write` events.
    pub checkpoint_writes: u64,
    /// Ring-overflow drops accounted across the stream.
    pub dropped: u64,
    /// `harness_trials_computed` counter delta over the same window.
    pub trials_computed: u64,
    /// `checkpoint_flushes` counter delta.
    pub checkpoint_flushes: u64,
}

/// Check the stream algebra over one quiescent observation.
#[must_use]
pub fn check_trace_counts(t: &TraceCounts) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut err = |msg: String| out.push(Diagnostic::error(TRACE_ID, Subject::System, msg));
    let pairs = [
        ("trial_begin", t.trial_begins, "harness_trials_computed", t.trials_computed),
        ("checkpoint_write", t.checkpoint_writes, "checkpoint_flushes", t.checkpoint_flushes),
    ];

    if t.dropped == 0 {
        for (ev_name, ev, ctr_name, ctr) in pairs {
            if ev != ctr {
                err(format!(
                    "event count drifted from its counter: {ev} `{ev_name}` events != \
                     {ctr} `{ctr_name}`"
                ));
            }
        }
        if t.probe_sweep_begins != t.probe_sweep_ends {
            err(format!(
                "unbalanced probe-sweep spans: {} begins != {} ends",
                t.probe_sweep_begins, t.probe_sweep_ends
            ));
        }
        if t.trial_begins != t.trial_ends {
            err(format!(
                "unbalanced trial spans: {} begins != {} ends",
                t.trial_begins, t.trial_ends
            ));
        }
    } else {
        // Oldest events were dropped at ring overflow: exactness is gone,
        // but an event count exceeding its counter is still impossible.
        for (ev_name, ev, ctr_name, ctr) in pairs {
            if ev > ctr {
                err(format!(
                    "event count exceeds its counter despite {} drops: {ev} `{ev_name}` \
                     events > {ctr} `{ctr_name}`",
                    t.dropped
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn consistent() -> TraceCounts {
        TraceCounts {
            probe_sweep_begins: 12,
            probe_sweep_ends: 12,
            trial_begins: 16,
            trial_ends: 16,
            checkpoint_writes: 16,
            dropped: 0,
            trials_computed: 16,
            checkpoint_flushes: 16,
        }
    }

    #[test]
    fn consistent_stream_passes() {
        assert!(check_trace_counts(&consistent()).is_empty());
    }

    #[test]
    fn each_drifted_pair_is_reported() {
        type Tweak = fn(&mut TraceCounts);
        let breaks: [(&str, Tweak); 4] = [
            ("trials", |t| t.trials_computed += 1),
            ("checkpoint", |t| t.checkpoint_writes += 1),
            ("probe spans", |t| t.probe_sweep_ends += 1),
            ("trial spans", |t| t.trial_ends += 1),
        ];
        for (label, tweak) in breaks {
            let mut t = consistent();
            tweak(&mut t);
            let findings = check_trace_counts(&t);
            assert_eq!(findings.len(), 1, "{label}: {findings:?}");
            assert!(findings.iter().all(|d| d.rule_id == TRACE_ID));
        }
    }

    #[test]
    fn drops_relax_exactness_to_lower_bounds() {
        let mut t = consistent();
        t.dropped = 5;
        t.trial_begins -= 1; // lost to the ring, and a span imbalance: fine
        t.probe_sweep_begins -= 2;
        assert!(check_trace_counts(&t).is_empty());
        t.checkpoint_writes = t.checkpoint_flushes + 1; // still impossible
        assert_eq!(check_trace_counts(&t).len(), 1);
    }
}
