//! Fixture-based rule tests: each known-bad snippet under
//! `tests/fixtures/` is linted as if it were a library source file, and
//! the findings are asserted rule-by-rule. The fixtures live outside
//! `src/`, so the workspace walker never lints them for real.

use mcs_audit::Severity;
use mcs_lint::rules::standard_ids;
use mcs_lint::runner::{self, Outcome, DIRECTIVE_RULE};
use mcs_lint::{Baseline, Workspace};

/// Lint one fixture as `crates/fake/src/lib.rs` (a plain library file).
fn lint_fixture(src: &str) -> Outcome {
    let ws = Workspace::from_sources(&[("crates/fake/src/lib.rs", src)], &standard_ids());
    runner::run(&ws, &Baseline::default())
}

/// The error-severity rule ids of an outcome, sorted.
fn error_rules(out: &Outcome) -> Vec<&str> {
    let mut v: Vec<&str> = out
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.rule_id)
        .collect();
    v.sort_unstable();
    v
}

#[test]
fn stdout_fixture_flags_each_stdout_write() {
    let out = lint_fixture(include_str!("fixtures/stdout_bad.rs"));
    assert_eq!(
        error_rules(&out),
        vec!["stdout-purity"; 3],
        "println!, print!, io::stdout() — {}",
        out.render_text()
    );
}

#[test]
fn exact_fixture_flags_types_and_literals_but_not_tests() {
    let out = lint_fixture(include_str!("fixtures/exact_bad.rs"));
    assert_eq!(
        error_rules(&out),
        vec!["exact-float"; 3],
        "two f64 mentions and one float literal; the test module is exempt — {}",
        out.render_text()
    );
}

#[test]
fn hot_alloc_fixture_flags_tagged_region_only() {
    let out = lint_fixture(include_str!("fixtures/hot_alloc_bad.rs"));
    assert_eq!(
        error_rules(&out),
        vec!["hot-path-alloc"; 4],
        "vec!, .to_vec(), Vec::new, format! inside the tag; cold() is free — {}",
        out.render_text()
    );
}

#[test]
fn determinism_fixture_flags_hashmap_and_wall_clock() {
    let out = lint_fixture(include_str!("fixtures/determinism_bad.rs"));
    assert_eq!(
        error_rules(&out),
        vec!["determinism"; 4],
        "three HashMap mentions and one Instant::now — {}",
        out.render_text()
    );
}

#[test]
fn panics_fixture_flags_unwrap_empty_expect_and_macros() {
    let out = lint_fixture(include_str!("fixtures/panics_bad.rs"));
    assert_eq!(
        error_rules(&out),
        vec!["panic-policy"; 4],
        "unwrap, expect(\"\"), panic!, todo!; messaged expect and test unwrap pass — {}",
        out.render_text()
    );
}

#[test]
fn suppressed_fixture_is_clean_with_no_unused_allows() {
    let out = lint_fixture(include_str!("fixtures/suppressed_ok.rs"));
    assert!(out.is_clean(), "{}", out.render_text());
    assert_eq!(out.count(Severity::Warning), 0, "{}", out.render_text());
    assert_eq!(out.suppressed, 2);
}

#[test]
fn malformed_directives_error_and_do_not_suppress() {
    let out = lint_fixture(include_str!("fixtures/directive_bad.rs"));
    assert_eq!(
        error_rules(&out),
        vec![DIRECTIVE_RULE, DIRECTIVE_RULE, "stdout-purity"],
        "reasonless allow + typoed keyword, and the println still fires — {}",
        out.render_text()
    );
}

#[test]
fn binary_entry_points_are_exempt_from_panic_policy() {
    let src = include_str!("fixtures/panics_bad.rs");
    let ws = Workspace::from_sources(&[("crates/fake/src/main.rs", src)], &standard_ids());
    let out = runner::run(&ws, &Baseline::default());
    assert!(
        !out.diagnostics.iter().any(|d| d.rule_id == "panic-policy"),
        "main.rs may abort freely — {}",
        out.render_text()
    );
}

#[test]
fn counter_registry_cross_checks_usage_against_the_source() {
    let registry = "\
events! {
    Used => \"used\";
    NeverHit => \"never_hit\";
    Emitted => \"emitted\", record EmittedKind => \"emitted_kind\";
    record Recorded => \"recorded\";
    record NeverRecorded => \"never_recorded\";
}
phases! {
    ProbeBatch => \"probe_batch\",
}
";
    let user = "\
pub fn instrumented() {
    counter!(Counter::Used);
    counter!(Counter::Missing);
    event!(Counter::Emitted, 0, 1, 2, 3);
    record(EventKind::Recorded, 0, 1, 2, 3);
    record(EventKind::ProbeSweepBegin, 4, 0, 0, 0);
    let _t = span(Phase::ProbeBatch);
}
";
    let ws = Workspace::from_sources(
        &[("crates/obs/src/registry.rs", registry), ("crates/fake/src/lib.rs", user)],
        &standard_ids(),
    );
    let out = runner::run(&ws, &Baseline::default());
    let messages = |severity: Severity| -> Vec<&str> {
        out.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .map(|d| {
                assert_eq!(d.rule_id, "counter-registry", "{}", out.render_text());
                d.message.as_str()
            })
            .collect()
    };
    let errors = messages(Severity::Error);
    assert_eq!(errors.len(), 2, "{}", out.render_text());
    assert!(errors[0].contains("Counter::Missing"), "{}", out.render_text());
    assert!(errors[1].contains("EventKind::ProbeSweepBegin"), "{}", out.render_text());
    // `EmittedKind` is live through its row's counter; the two entries no
    // code references are dead.
    let warnings = messages(Severity::Warning);
    assert_eq!(warnings.len(), 2, "{}", out.render_text());
    assert!(warnings[0].contains("NeverHit"), "{}", out.render_text());
    assert!(warnings[1].contains("NeverRecorded"), "{}", out.render_text());
}

#[test]
fn baseline_accepts_fixture_findings_end_to_end() {
    let src = include_str!("fixtures/stdout_bad.rs");
    let ws = Workspace::from_sources(&[("crates/fake/src/lib.rs", src)], &standard_ids());
    let unfiltered = runner::run(&ws, &Baseline::default());
    assert_eq!(unfiltered.count(Severity::Error), 3);

    let baseline = Baseline::parse(&Baseline::render(&unfiltered.diagnostics))
        .expect("rendered baselines always parse");
    let filtered = runner::run(&ws, &baseline);
    assert!(filtered.is_clean(), "{}", filtered.render_text());
    assert_eq!(filtered.baselined, 3);
    assert_eq!(filtered.count(Severity::Warning), 0, "no stale entries");
}
