//! # mcs-audit
//!
//! Static-analysis audit pass over partitioning results.
//!
//! The partitioning heuristics and the schedulability analysis each carry
//! internal invariants that are easy to violate silently — a task dropped
//! from the assignment vector, a cached utilization sum drifting from the
//! tasks it summarizes, an `f64` verdict that the exact rational oracle
//! contradicts. This crate re-derives those invariants *from scratch* and
//! reports violations as structured [`Diagnostic`]s, so regressions surface
//! as audit findings instead of subtly wrong experiment numbers.
//!
//! * [`invariant`] — the [`Invariant`] rule trait, the [`AuditContext`]
//!   carrying everything a rule may inspect, and the [`Registry`] that runs
//!   a rule set;
//! * [`rules`] — the standard rules: partition well-formedness, per-core
//!   Theorem-1 re-verification, `f64`-vs-exact verdict agreement,
//!   [`mcs_model::UtilTable`] cache consistency, probe-engine-vs-scratch
//!   bit equality, batch-kernel lane agreement, admission-lifecycle state
//!   reconstruction (`admission-state-consistency`), contribution-order
//!   and α-domain checks, re-run placement determinism
//!   (`harness-determinism`), and the tick-vs-event simulator differential
//!   (`sim-event-consistency`); plus two quiescent-window checks run once
//!   per sweep rather than per partition — the telemetry counter algebra
//!   ([`check_counters`]) and the flight-recorder stream algebra
//!   ([`check_trace_counts`]);
//! * [`diagnostic`] — severities, subjects, and text/JSON rendering.
//!
//! The crate deliberately depends only on `mcs-model` and `mcs-analysis`:
//! scheme-specific facts (whether the scheme claims Theorem-1 feasibility,
//! the contribution ordering it used, its α threshold) are *inputs* to the
//! audit, supplied by the caller through the [`AuditContext`], and the rules
//! recompute every reference value independently of the code under audit.

#![forbid(unsafe_code)]

pub mod diagnostic;
pub mod invariant;
pub mod rules;

pub use diagnostic::{AuditReport, Diagnostic, Severity, Subject};
pub use invariant::{AuditContext, ContributionOrdering, Invariant, Registry, Repartition};
pub use rules::telemetry::{check_counters, TelemetryCounters, TELEMETRY_ID};
pub use rules::theorem1::EXACT_BAND;
pub use rules::trace::{check_trace_counts, TraceCounts, TRACE_ID};

use mcs_model::{Partition, TaskSet};

/// Run the standard rule set over one partitioning result.
#[must_use]
pub fn audit_partition(ctx: &AuditContext<'_>) -> AuditReport {
    Registry::standard().run(ctx)
}

/// Debug-build self-check for partitioner success paths.
///
/// In builds with `debug_assertions` this runs the standard audit and
/// panics on any `Error`-severity finding, so fuzzing and the test suite
/// catch invariant violations at the point of production. In release
/// builds it compiles to nothing.
///
/// # Panics
/// Panics (debug builds only) when the audit reports an error.
#[inline]
pub fn debug_audit(
    ts: &TaskSet,
    partition: &Partition,
    scheme: &str,
    claims_theorem1: bool,
    alpha: Option<f64>,
) {
    #[cfg(debug_assertions)]
    {
        let mut ctx = AuditContext::new(ts, partition, scheme).with_theorem1_claim(claims_theorem1);
        if let Some(a) = alpha {
            ctx = ctx.with_alpha(a);
        }
        let report = audit_partition(&ctx);
        assert!(
            report.is_clean(),
            "partitioner `{scheme}` produced a partition that fails its own audit:\n{}",
            report.render_text()
        );
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = (ts, partition, scheme, claims_theorem1, alpha);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_model::{CoreId, Partition, TaskBuilder, TaskId, TaskSet};

    fn ts2() -> TaskSet {
        let t = |id: u32, p: u64, l: u8, w: &[u64]| {
            TaskBuilder::new(TaskId(id)).period(p).level(l).wcet(w).build().unwrap()
        };
        TaskSet::new(2, vec![t(0, 100, 1, &[20]), t(1, 100, 2, &[10, 30])]).unwrap()
    }

    #[test]
    fn clean_partition_audits_clean() {
        let ts = ts2();
        let mut p = Partition::empty(2, 2);
        p.assign(TaskId(0), CoreId(0));
        p.assign(TaskId(1), CoreId(1));
        let report = audit_partition(&AuditContext::new(&ts, &p, "test"));
        assert!(report.is_clean(), "{}", report.render_text());
        assert_eq!(report.diagnostics.len(), 0);
    }

    #[test]
    fn incomplete_partition_is_flagged() {
        let ts = ts2();
        let mut p = Partition::empty(2, 2);
        p.assign(TaskId(0), CoreId(0));
        let report = audit_partition(&AuditContext::new(&ts, &p, "test"));
        assert!(!report.is_clean());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.rule_id == "partition-well-formed" && d.severity == Severity::Error));
    }

    #[test]
    fn debug_audit_accepts_clean_partition() {
        let ts = ts2();
        let mut p = Partition::empty(2, 2);
        p.assign(TaskId(0), CoreId(0));
        p.assign(TaskId(1), CoreId(1));
        debug_audit(&ts, &p, "test", true, Some(0.7));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "fails its own audit")]
    fn debug_audit_panics_on_violation() {
        let ts = ts2();
        let p = Partition::empty(2, 2);
        debug_audit(&ts, &p, "test", true, None);
    }
}
