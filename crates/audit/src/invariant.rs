//! The [`Invariant`] rule trait, the audit context, and the rule registry.

use mcs_model::{Partition, TaskId, TaskSet};

use crate::diagnostic::{AuditReport, Diagnostic};
use crate::rules;

/// The contribution ordering a scheme used (CA-TPA's Eq. (12)–(13) sort),
/// supplied by the caller so the `contribution-order` rule can re-derive
/// and cross-check it. `keys[i]` is the contribution `C` of `order[i]`.
#[derive(Clone, Debug, PartialEq)]
pub struct ContributionOrdering {
    /// Task ids in placement order (must be a permutation of the task set).
    pub order: Vec<TaskId>,
    /// Contribution key of each ordered task (non-increasing).
    pub keys: Vec<f64>,
}

/// Deterministic re-run of the scheme under audit: given the task set and
/// core count, produce the scheme's partition (`None` = the scheme reports
/// the instance infeasible). Supplied by the caller as a closure so this
/// crate stays independent of `mcs-partition` (which depends on us).
pub type Repartition<'a> = dyn Fn(&TaskSet, usize) -> Option<Partition> + 'a;

/// Everything a rule may inspect: the task set, the partition under audit,
/// and scheme-supplied facts. Rules must treat the scheme-supplied parts as
/// claims to verify, never as ground truth.
#[derive(Clone, Copy)]
pub struct AuditContext<'a> {
    /// The task set that was partitioned.
    pub ts: &'a TaskSet,
    /// The partition under audit.
    pub partition: &'a Partition,
    /// Display name of the scheme that produced the partition.
    pub scheme: &'a str,
    /// Whether the scheme claims every core passes the EDF-VD Theorem-1
    /// test (true for CA-TPA and the bin-packing baselines; false for
    /// DBF- and AMC-based schemes, whose admission tests differ).
    pub claims_theorem1: bool,
    /// The contribution ordering the scheme used, if it used one.
    pub ordering: Option<&'a ContributionOrdering>,
    /// The imbalance threshold α the scheme used, if it used one.
    pub alpha: Option<f64>,
    /// Closure re-running the scheme on the same inputs, if the caller can
    /// provide one; enables the `harness-determinism` rule.
    pub repartition: Option<&'a Repartition<'a>>,
}

impl<'a> AuditContext<'a> {
    /// Context with default claims: Theorem-1 feasibility claimed, no
    /// ordering, no α.
    #[must_use]
    pub fn new(ts: &'a TaskSet, partition: &'a Partition, scheme: &'a str) -> Self {
        Self {
            ts,
            partition,
            scheme,
            claims_theorem1: true,
            ordering: None,
            alpha: None,
            repartition: None,
        }
    }

    /// Set whether the scheme claims per-core Theorem-1 feasibility.
    #[must_use]
    pub fn with_theorem1_claim(mut self, claims: bool) -> Self {
        self.claims_theorem1 = claims;
        self
    }

    /// Attach the contribution ordering the scheme used.
    #[must_use]
    pub fn with_ordering(mut self, ordering: &'a ContributionOrdering) -> Self {
        self.ordering = Some(ordering);
        self
    }

    /// Attach the α threshold the scheme used.
    #[must_use]
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = Some(alpha);
        self
    }

    /// Attach a closure re-running the scheme on the same inputs, enabling
    /// the `harness-determinism` rule.
    #[must_use]
    pub fn with_repartition(mut self, repartition: &'a Repartition<'a>) -> Self {
        self.repartition = Some(repartition);
        self
    }
}

/// One audit rule: re-derives an invariant from scratch and reports
/// violations.
pub trait Invariant {
    /// Stable kebab-case identifier (used in reports and rule tallies).
    fn id(&self) -> &'static str;

    /// One-line description of what the rule checks.
    fn description(&self) -> &'static str;

    /// Run the rule, appending findings to `out`.
    fn check(&self, ctx: &AuditContext<'_>, out: &mut Vec<Diagnostic>);
}

/// An ordered collection of rules.
#[derive(Default)]
pub struct Registry {
    rules: Vec<Box<dyn Invariant>>,
}

impl Registry {
    /// Empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The standard rule set, in evaluation order.
    #[must_use]
    pub fn standard() -> Self {
        let mut r = Self::new();
        r.push(Box::new(rules::well_formed::PartitionWellFormed));
        r.push(Box::new(rules::theorem1::ClaimFeasible));
        r.push(Box::new(rules::theorem1::ExactAgreement));
        r.push(Box::new(rules::util_cache::UtilCacheConsistency));
        r.push(Box::new(rules::probe_cache::ProbeEngineConsistency));
        r.push(Box::new(rules::batch_kernel::BatchKernelConsistency));
        r.push(Box::new(rules::admission::AdmissionStateConsistency));
        r.push(Box::new(rules::ordering::ContributionOrderRule));
        r.push(Box::new(rules::ordering::AlphaDomain));
        r.push(Box::new(rules::harness::HarnessDeterminism));
        r.push(Box::new(rules::sim_event::SimEventConsistency));
        r
    }

    /// Append a rule.
    pub fn push(&mut self, rule: Box<dyn Invariant>) {
        self.rules.push(rule);
    }

    /// Iterate over the registered rules.
    pub fn rules(&self) -> impl Iterator<Item = &dyn Invariant> {
        self.rules.iter().map(Box::as_ref)
    }

    /// Run every rule over one context.
    #[must_use]
    pub fn run(&self, ctx: &AuditContext<'_>) -> AuditReport {
        let mut report = AuditReport::new(ctx.scheme);
        for rule in &self.rules {
            rule.check(ctx, &mut report.diagnostics);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostic::{Severity, Subject};
    use mcs_model::{CoreId, TaskBuilder};

    #[test]
    fn standard_registry_has_unique_ids() {
        let r = Registry::standard();
        let ids: Vec<&str> = r.rules().map(Invariant::id).collect();
        assert_eq!(ids.len(), 11, "expected eleven standard rules, got {ids:?}");
        assert!(ids.contains(&"harness-determinism"), "missing harness rule in {ids:?}");
        assert!(ids.contains(&"batch-kernel-consistency"), "missing batch rule in {ids:?}");
        // The two quiescent-window checks are functions, not rules.
        assert!(!ids.contains(&crate::TELEMETRY_ID), "{ids:?}");
        assert!(!ids.contains(&crate::TRACE_ID), "{ids:?}");
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "duplicate rule ids in {ids:?}");
        for (id, desc) in r.rules().map(|rule| (rule.id(), rule.description())) {
            assert!(!desc.is_empty(), "rule {id} has no description");
        }
    }

    #[test]
    fn custom_registry_runs_in_order() {
        struct Stamp(&'static str);
        impl Invariant for Stamp {
            fn id(&self) -> &'static str {
                self.0
            }
            fn description(&self) -> &'static str {
                "test stamp"
            }
            fn check(&self, _ctx: &AuditContext<'_>, out: &mut Vec<Diagnostic>) {
                out.push(Diagnostic::info(self.0, Subject::System, "ran"));
            }
        }
        let t = TaskBuilder::new(TaskId(0)).period(10).level(1).wcet(&[1]).build().unwrap();
        let ts = TaskSet::new(1, vec![t]).unwrap();
        let mut p = Partition::empty(1, 1);
        p.assign(TaskId(0), CoreId(0));
        let mut reg = Registry::new();
        reg.push(Box::new(Stamp("first")));
        reg.push(Box::new(Stamp("second")));
        let report = reg.run(&AuditContext::new(&ts, &p, "X"));
        let ids: Vec<&str> = report.diagnostics.iter().map(|d| d.rule_id).collect();
        assert_eq!(ids, vec!["first", "second"]);
        assert_eq!(report.count(Severity::Info), 2);
    }
}
