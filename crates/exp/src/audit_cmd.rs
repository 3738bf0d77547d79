//! The `mcs-exp audit` subcommand: sweep generated task sets through every
//! partitioning scheme and run the `mcs-audit` invariant rules over each
//! successful partition.
//!
//! Two generator points are swept: the default multi-level parameters for
//! the Theorem-1 family (CA-TPA, FFD/BFD/WFD/NFD, Hybrid, CA-TPA+LS, SA)
//! and a dual-criticality point that additionally exercises the DBF and
//! FP-AMC baselines (their analyses are K = 2 only). The roster comes from
//! [`SchemeRegistry::audit_roster`]; each scheme's context facts (Theorem-1
//! claim, contribution ordering, α, and a re-run closure for the
//! `harness-determinism` rule) are attached from its [`SchemeInfo`]
//! metadata. Every audit `Error` makes the command exit non-zero. The
//! `telemetry-consistency` and `trace-consistency` checks are not part of
//! the per-partition pass: they need a quiescent global observation (a
//! counter snapshot, a drained flight-recorder stream), so the binary runs
//! them once after the sweep (reporting via stderr and the exit code only).

use mcs_audit::{AuditContext, ContributionOrdering, Invariant, Registry, Severity};
use mcs_gen::{generate_task_set, GenParams};
use mcs_harness::{JsonValue, RunSession, SchemeFlags, SchemeInfo, SchemeRegistry, TrialRecord};
use mcs_partition::contribution::{contribution, system_totals};
use mcs_partition::Partitioner;

use crate::report::{render_table, Table};
use crate::sweep::SweepConfig;

/// Per-rule finding counts for one scheme.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RuleTally {
    /// Stable rule id.
    pub rule_id: &'static str,
    /// `Info`-severity findings.
    pub info: usize,
    /// `Warning`-severity findings.
    pub warning: usize,
    /// `Error`-severity findings.
    pub error: usize,
}

/// Audit aggregate for one scheme.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchemeAudit {
    /// Scheme display name.
    pub scheme: &'static str,
    /// Task sets attempted.
    pub trials: usize,
    /// Task sets the scheme partitioned (and that were therefore audited).
    pub partitioned: usize,
    /// One tally per standard rule, in registry order.
    pub rules: Vec<RuleTally>,
}

/// Result of the whole audit sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditOutcome {
    /// Task sets generated per scheme.
    pub trials: usize,
    /// Per-scheme aggregates.
    pub schemes: Vec<SchemeAudit>,
}

impl AuditOutcome {
    /// Total `Error`-severity findings across all schemes and rules.
    #[must_use]
    pub fn errors(&self) -> usize {
        self.schemes.iter().flat_map(|s| &s.rules).map(|r| r.error).sum()
    }

    /// Total `Warning`-severity findings.
    #[must_use]
    pub fn warnings(&self) -> usize {
        self.schemes.iter().flat_map(|s| &s.rules).map(|r| r.warning).sum()
    }

    /// Per-scheme × per-rule table of violation counts.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::new(["scheme", "partitioned", "rule", "info", "warning", "error"]);
        for s in &self.schemes {
            for r in &s.rules {
                t.push_row([
                    s.scheme.to_string(),
                    format!("{}/{}", s.partitioned, s.trials),
                    r.rule_id.to_string(),
                    r.info.to_string(),
                    r.warning.to_string(),
                    r.error.to_string(),
                ]);
            }
        }
        t
    }

    /// JSON rendering of the sweep aggregate.
    #[must_use]
    pub fn to_json(&self) -> String {
        let schemes: Vec<String> = self
            .schemes
            .iter()
            .map(|s| {
                let rules: Vec<String> = s
                    .rules
                    .iter()
                    .map(|r| {
                        format!(
                            r#"{{"rule":"{}","info":{},"warning":{},"error":{}}}"#,
                            r.rule_id, r.info, r.warning, r.error
                        )
                    })
                    .collect();
                format!(
                    r#"{{"scheme":"{}","trials":{},"partitioned":{},"rules":[{}]}}"#,
                    mcs_audit::diagnostic::json_escape(s.scheme),
                    s.trials,
                    s.partitioned,
                    rules.join(",")
                )
            })
            .collect();
        format!(
            r#"{{"trials":{},"errors":{},"warnings":{},"schemes":[{}]}}"#,
            self.trials,
            self.errors(),
            self.warnings(),
            schemes.join(",")
        )
    }
}

/// The contribution ordering CA-TPA uses, recomputed for the audit context
/// (the `contribution-order` rule re-derives it again, independently).
fn contribution_ordering(ts: &mcs_model::TaskSet) -> ContributionOrdering {
    let totals = system_totals(ts);
    let order = mcs_partition::order_by_contribution(ts);
    let keys = order.iter().map(|&id| contribution(ts.task(id), &totals).max).collect();
    ContributionOrdering { order, keys }
}

/// Per-trial record: for each roster scheme, `None` when it could not
/// partition its task set, otherwise `[info, warning, error]` finding
/// counts per rule, in registry rule order.
#[derive(Clone, Debug, PartialEq, Eq)]
struct AuditTrial {
    per_scheme: Vec<Option<Vec<[usize; 3]>>>,
}

impl TrialRecord for AuditTrial {
    fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("\"res\":[");
        for (i, s) in self.per_scheme.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match s {
                None => out.push_str("null"),
                Some(tallies) => {
                    out.push('[');
                    for (j, t) in tallies.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "[{},{},{}]", t[0], t[1], t[2]);
                    }
                    out.push(']');
                }
            }
        }
        out.push(']');
        out
    }

    fn from_json(v: &JsonValue) -> Option<Self> {
        let arr = v.get("res")?.as_arr()?;
        let mut per_scheme = Vec::with_capacity(arr.len());
        for s in arr {
            if *s == JsonValue::Null {
                per_scheme.push(None);
                continue;
            }
            let tallies = s
                .as_arr()?
                .iter()
                .map(|t| {
                    let t = t.as_arr()?;
                    if t.len() != 3 {
                        return None;
                    }
                    Some([t[0].as_usize()?, t[1].as_usize()?, t[2].as_usize()?])
                })
                .collect::<Option<Vec<_>>>()?;
            per_scheme.push(Some(tallies));
        }
        Some(Self { per_scheme })
    }
}

/// Audit one partitioning result under every standard rule; returns the
/// per-rule `[info, warning, error]` counts.
fn audit_one(
    registry: &Registry,
    rule_ids: &[&'static str],
    info: &SchemeInfo,
    scheme: &(dyn Partitioner + Send + Sync),
    ts: &mcs_model::TaskSet,
    partition: &mcs_model::Partition,
    flags: &SchemeFlags,
) -> Vec<[usize; 3]> {
    let ordering;
    let rerun = |ts: &mcs_model::TaskSet, cores: usize| scheme.partition(ts, cores).ok();
    let mut ctx = AuditContext::new(ts, partition, info.name)
        .with_theorem1_claim(scheme.certifies_theorem1())
        .with_repartition(&rerun);
    if info.uses_contribution_order {
        ordering = contribution_ordering(ts);
        ctx = ctx.with_ordering(&ordering);
    }
    if let Some(a) = info.effective_alpha(flags) {
        ctx = ctx.with_alpha(a);
    }
    let report = registry.run(&ctx);
    let mut tallies = vec![[0usize; 3]; rule_ids.len()];
    for d in &report.diagnostics {
        let slot = rule_ids
            .iter()
            .position(|&id| id == d.rule_id)
            .expect("diagnostic from an unregistered rule");
        match d.severity {
            Severity::Info => tallies[slot][0] += 1,
            Severity::Warning => tallies[slot][1] += 1,
            Severity::Error => tallies[slot][2] += 1,
        }
    }
    tallies
}

/// Run the audit sweep: `config.trials` task sets per generator point, all
/// schemes, all standard rules, on the harness trial runner (the audit
/// `Registry` is not `Sync`, so each worker builds its own).
#[must_use]
pub fn run(config: &SweepConfig) -> AuditOutcome {
    run_session(&mut RunSession::new(config.clone()))
}

/// The audit sweep on an existing session (enables `--jsonl`/`--resume`).
#[must_use]
pub fn run_session(session: &mut RunSession) -> AuditOutcome {
    let rule_ids: Vec<&'static str> = Registry::standard().rules().map(Invariant::id).collect();
    let multi = GenParams::default();
    let dual = GenParams::default().with_levels(2);
    let flags = SchemeFlags::default();
    let scheme_registry = SchemeRegistry::standard();
    let roster = scheme_registry.audit_roster(&flags);

    let records = session.point("audit").run(Registry::standard, |registry, trial| {
        let ts_multi = generate_task_set(&multi, trial.seed);
        let ts_dual = generate_task_set(&dual, trial.seed);
        let per_scheme = roster
            .iter()
            .map(|(info, scheme)| {
                let (ts, params) =
                    if info.dual_only { (&ts_dual, &dual) } else { (&ts_multi, &multi) };
                let partition = scheme.partition(ts, params.cores).ok()?;
                Some(audit_one(registry, &rule_ids, info, scheme.as_ref(), ts, &partition, &flags))
            })
            .collect();
        AuditTrial { per_scheme }
    });

    let trials = records.len();
    let mut partitioned = vec![0usize; roster.len()];
    let mut tallies: Vec<Vec<RuleTally>> = roster
        .iter()
        .map(|_| {
            rule_ids.iter().map(|&rule_id| RuleTally { rule_id, ..Default::default() }).collect()
        })
        .collect();
    for rec in &records {
        assert_eq!(rec.per_scheme.len(), roster.len(), "checkpoint shape mismatch");
        for ((counts, scheme_tallies), done) in
            rec.per_scheme.iter().zip(tallies.iter_mut()).zip(partitioned.iter_mut())
        {
            let Some(counts) = counts else { continue };
            *done += 1;
            assert_eq!(counts.len(), scheme_tallies.len(), "checkpoint rule-count mismatch");
            for (t, c) in scheme_tallies.iter_mut().zip(counts) {
                t.info += c[0];
                t.warning += c[1];
                t.error += c[2];
            }
        }
    }

    let schemes = roster
        .iter()
        .zip(tallies)
        .zip(partitioned)
        .map(|(((info, _), rules), partitioned)| SchemeAudit {
            scheme: info.name,
            trials,
            partitioned,
            rules,
        })
        .collect();
    AuditOutcome { trials, schemes }
}

/// Render the outcome (text or JSON) and report whether any rule errored.
#[must_use]
pub fn render(outcome: &AuditOutcome, json: bool) -> String {
    if json {
        return outcome.to_json();
    }
    let mut out = render_table(&outcome.table());
    out.push_str(&format!(
        "audited {} schemes x {} task sets: {} error(s), {} warning(s)\n",
        outcome.schemes.len(),
        outcome.trials,
        outcome.errors(),
        outcome.warnings()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_is_clean_and_covers_all_schemes() {
        let outcome = run(&SweepConfig { trials: 12, threads: 1, seed: 0xA0D17 });
        assert_eq!(outcome.schemes.len(), 10);
        assert_eq!(outcome.errors(), 0, "{}", render(&outcome, false));
        // Every scheme partitioned at least one set at these defaults.
        for s in &outcome.schemes {
            assert!(s.partitioned > 0, "{} never partitioned", s.scheme);
            assert_eq!(s.rules.len(), 11);
            assert!(s.rules.iter().any(|r| r.rule_id == "harness-determinism"));
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let outcome = run(&SweepConfig { trials: 2, threads: 1, seed: 1 });
        let j = outcome.to_json();
        assert!(j.starts_with(r#"{"trials":2,"errors":"#), "{j}");
        assert!(j.contains(r#""scheme":"CA-TPA""#), "{j}");
        assert!(j.contains(r#""rule":"partition-well-formed""#), "{j}");
        assert!(j.ends_with("]}"), "{j}");
    }

    #[test]
    fn table_lists_every_scheme_rule_pair() {
        let outcome = run(&SweepConfig { trials: 1, threads: 1, seed: 2 });
        let table = outcome.table();
        let text = render_table(&table);
        for name in ["CA-TPA", "FFD", "NFD", "Hybrid", "SA", "DBF-FFD"] {
            assert!(text.contains(name), "missing {name} in\n{text}");
        }
    }

    #[test]
    fn audit_trial_record_round_trips() {
        let rec = AuditTrial {
            per_scheme: vec![Some(vec![[0, 0, 0], [1, 2, 3]]), None, Some(vec![[0, 1, 0]])],
        };
        let line = format!("{{{}}}", rec.to_json());
        let back = AuditTrial::from_json(&mcs_harness::json::parse(&line).unwrap()).unwrap();
        assert_eq!(rec, back);
    }
}
