//! The lint rule registry.
//!
//! Each rule mirrors `mcs-audit`'s `Invariant` shape: a stable kebab-case
//! id, a one-line description, and a check that appends [`Diagnostic`]s.
//! Unlike audit rules, lint rules run over source files and may carry
//! cross-file state (`finish` runs after every file has been checked —
//! the counter-discipline rule reports unused registry entries there).

use mcs_audit::Diagnostic;

use crate::context::LintContext;
use crate::source::SourceFile;

pub mod counters;
pub mod determinism;
pub mod doc_anchor;
pub mod exactfloat;
pub mod hotpath;
pub mod panics;
pub mod stdout;

/// One source-level rule.
pub trait LintRule {
    /// Stable kebab-case identifier (used in reports, suppressions, and
    /// baselines).
    fn id(&self) -> &'static str;

    /// One-line description of the invariant the rule enforces.
    fn description(&self) -> &'static str;

    /// Check one file, appending findings to `out`.
    fn check(&mut self, file: &SourceFile, ctx: &LintContext, out: &mut Vec<Diagnostic>);

    /// Called once after every file was checked; cross-file findings go
    /// here.
    fn finish(&mut self, _ctx: &LintContext, _out: &mut Vec<Diagnostic>) {}
}

/// The standard rule set, in evaluation order.
#[must_use]
pub fn standard() -> Vec<Box<dyn LintRule>> {
    vec![
        Box::new(stdout::StdoutPurity),
        Box::new(exactfloat::ExactFloat),
        Box::new(hotpath::HotPathAlloc),
        Box::new(determinism::Determinism),
        Box::new(counters::CounterRegistry::default()),
        Box::new(panics::PanicPolicy),
        Box::new(doc_anchor::DocAnchor),
    ]
}

/// Every standard rule id, for directive validation. Includes the
/// runner's own `lint-directive` pseudo-rule so malformed-directive
/// findings can themselves be discussed in allows (they cannot be
/// suppressed — see the runner — but the id must parse).
#[must_use]
pub fn standard_ids() -> std::collections::BTreeSet<&'static str> {
    let mut ids: std::collections::BTreeSet<&'static str> =
        standard().iter().map(|r| r.id()).collect();
    ids.insert(crate::runner::DIRECTIVE_RULE);
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_rules_have_unique_ids_and_descriptions() {
        let rules = standard();
        assert!(rules.len() >= 6, "tentpole promises at least six rules");
        let ids: Vec<&str> = rules.iter().map(|r| r.id()).collect();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "duplicate ids in {ids:?}");
        for r in &rules {
            assert!(!r.description().is_empty(), "rule {} has no description", r.id());
            assert!(
                r.id().chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "rule id {} is not kebab-case",
                r.id()
            );
        }
    }
}
