//! Property-based tests of the schedulability analysis, across crates.

mod common;

use common::{arb_task, arb_task_set};
use proptest::prelude::*;

use mcs::analysis::exact_arith::{simple_condition_exact, theorem1_feasible_exact};
use mcs::analysis::{dual_condition, simple_condition, Theorem1, VdAssignment, EPS};
use mcs::model::{
    CritLevel, LevelUtils, McTask, TaskBuilder, TaskId, TaskSet, UtilTable, WithTask,
};

proptest! {
    /// Eq. (4) is strictly stronger than Theorem 1 in exact arithmetic:
    /// whenever it holds, Theorem 1 holds too (the paper's baselines rely
    /// on this). The f64 tests do not keep the implication within an ulp
    /// of the bound; `f64_eq4_accepts_a_set_exact_eq4_and_f64_theorem1_reject`
    /// pins a set where it breaks.
    #[test]
    fn eq4_implies_theorem1(ts in arb_task_set(8, 4)) {
        let tasks: Vec<&McTask> = ts.tasks().iter().collect();
        if simple_condition_exact(&tasks, ts.num_levels()) == Some(true) {
            prop_assert_eq!(theorem1_feasible_exact(&tasks, ts.num_levels()), Some(true));
        }
    }

    /// For K = 2 the closed-form Eq. (7) and Theorem 1 agree exactly, and
    /// the core utilization equals θ(1).
    #[test]
    fn dual_closed_form_agrees(ts in arb_task_set(8, 2)) {
        let table = ts.util_table();
        let d = dual_condition(&table);
        let a = Theorem1::compute(&table);
        prop_assert_eq!(d.schedulable, a.feasible());
        if d.schedulable {
            let u = a.core_utilization().unwrap();
            prop_assert!((u - (d.u_lo_lo + d.minterm)).abs() < 1e-9);
        }
    }

    /// Core utilization (both readings) is monotone under task addition —
    /// the property CA-TPA's increment objective depends on.
    #[test]
    fn slack_utilization_is_monotone(
        ts in arb_task_set(6, 4),
        extra in arb_task(1000, 4),
    ) {
        let table = ts.util_table();
        let before = Theorem1::compute(&table);
        let view = WithTask::new(&table, &extra);
        let after = Theorem1::compute(&view);
        if let (Some(b), Some(a)) = (before.core_utilization_slack(), after.core_utilization_slack()) {
            prop_assert!(a >= b - 1e-9, "slack utilization decreased: {b} -> {a}");
        }
        // Feasibility is monotone the other way: adding a task never makes
        // an infeasible core feasible.
        if !before.feasible() {
            prop_assert!(!after.feasible());
        }
    }

    /// The probe view `WithTask` computes exactly the same analysis as a
    /// mutated table.
    #[test]
    fn probe_view_equals_mutation(
        ts in arb_task_set(6, 4),
        extra in arb_task(1000, 4),
    ) {
        let table = ts.util_table();
        let view_result = Theorem1::compute(&WithTask::new(&table, &extra));
        let mut mutated = table.clone();
        mutated.add(&extra);
        let mut_result = Theorem1::compute(&mutated);
        prop_assert_eq!(view_result.feasible(), mut_result.feasible());
        match (view_result.core_utilization(), mut_result.core_utilization()) {
            (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9),
            (None, None) => {}
            other => prop_assert!(false, "mismatch: {other:?}"),
        }
    }

    /// λ factors are proper reduction factors whenever reported.
    #[test]
    fn lambdas_are_reduction_factors(ts in arb_task_set(8, 5)) {
        let a = Theorem1::compute(&ts.util_table());
        for j in 1..=ts.num_levels() {
            if let Some(l) = a.lambda(j) {
                prop_assert!((0.0..1.0).contains(&l), "λ_{j} = {l}");
            }
        }
        prop_assert_eq!(a.lambda(1), Some(0.0));
    }

    /// Whenever Theorem 1 accepts, a virtual-deadline assignment exists and
    /// all its factors lie in (0, 1].
    #[test]
    fn feasible_implies_vd_assignment(ts in arb_task_set(8, 4)) {
        let table = ts.util_table();
        let a = Theorem1::compute(&table);
        if a.feasible() {
            let vd = VdAssignment::compute(&table, &a).expect("feasible needs a protocol");
            for mode in CritLevel::up_to(ts.num_levels()) {
                for level in CritLevel::up_to(ts.num_levels()).filter(|l| *l >= mode) {
                    let f = vd.factor(mode, level);
                    prop_assert!(f > 0.0 && f <= 1.0 + EPS, "factor {f} at ({mode}, {level})");
                }
            }
        }
    }

    /// Core utilization, when finite, is consistent with feasibility and
    /// bounded sensibly.
    #[test]
    fn core_utilization_bounds(ts in arb_task_set(8, 4)) {
        let a = Theorem1::compute(&ts.util_table());
        match a.core_utilization() {
            Some(u) => {
                prop_assert!(a.feasible());
                prop_assert!((-EPS..=1.0 + 1e-9).contains(&u), "U = {u}");
            }
            None => prop_assert!(!a.feasible()),
        }
    }
}

#[test]
fn empty_table_edge_cases() {
    for k in 1..=6u8 {
        let table = UtilTable::new(k);
        let a = Theorem1::compute(&table);
        assert!(a.feasible(), "empty core must be feasible at K={k}");
        assert_eq!(a.core_utilization(), Some(0.0));
        assert_eq!(a.core_utilization_slack(), Some(0.0));
        assert!(table.own_level_total().abs() < EPS);
    }
}

/// The one-core K = 4 set whose own-level utilizations sum to 1 + 10⁻¹²
/// (period 10¹²): f64 Eq. (4) accepts it within its EPS band, f64
/// Theorem 1 rounds just past its bound, and exact Eq. (4) rejects it —
/// so "f64 Eq. (4) ⇒ f64 Theorem 1" does not hold, while the exact
/// implication `eq4_implies_theorem1` checks is untouched.
#[test]
fn f64_eq4_accepts_a_set_exact_eq4_and_f64_theorem1_reject() {
    const P: u64 = 1_000_000_000_000;
    let wcets = [77_752_400_679u64, 135_900_389, 150_397_660_469, 771_714_038_464];
    let tasks = (1u8..=4)
        .zip(wcets)
        .map(|(l, c)| {
            TaskBuilder::new(TaskId(u32::from(l) - 1))
                .period(P)
                .level(l)
                .wcet(&vec![c; usize::from(l)])
                .build()
                .unwrap()
        })
        .collect();
    let ts = TaskSet::new(4, tasks).unwrap();
    let table = ts.util_table();
    assert!(simple_condition(&table), "f64 Eq. (4) accepts");
    assert!(!Theorem1::compute(&table).feasible(), "f64 Theorem 1 rejects");
    let refs: Vec<&McTask> = ts.tasks().iter().collect();
    assert_eq!(simple_condition_exact(&refs, 4), Some(false), "exact Eq. (4) rejects");
}
