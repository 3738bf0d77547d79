//! Feasibility predicates shared by the partitioning heuristics.

use mcs_analysis::{simple_condition, Theorem1, Verdict};
use mcs_model::LevelUtils;

/// Which schedulability test a heuristic uses to decide whether a core can
/// accommodate a candidate subset.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FitTest {
    /// Only the pessimistic Eq. (4).
    Simple,
    /// Only Theorem 1 (Inequality (5) for some k).
    Improved,
    /// The paper's baseline procedure: Eq. (4) first, then Theorem 1 when
    /// the simple test fails. Logically equivalent to `Improved` (Eq. (4)
    /// implies condition k = 1) but cheaper on the common path; in floating
    /// point a set within an ulp of the Eq. (4) bound can pass only here.
    #[default]
    SimpleThenImproved,
}

impl FitTest {
    /// Whether a utilization view passes this test.
    #[must_use]
    pub fn feasible<U: LevelUtils>(self, view: &U) -> bool {
        match self {
            FitTest::Simple => simple_condition(view),
            FitTest::Improved => Theorem1::compute(view).feasible(),
            FitTest::SimpleThenImproved => {
                simple_condition(view) || Theorem1::compute(view).feasible()
            }
        }
    }

    /// Whether a probe verdict passes this test: Eq. (4) is its own-level
    /// total (the scalar Eq. (4) probe's fold), Theorem 1 its feasibility.
    // lint: no_alloc
    #[inline]
    #[must_use]
    pub fn passes(self, v: &Verdict) -> bool {
        match self {
            FitTest::Simple => v.plain_edf_sufficient(),
            FitTest::Improved => v.feasible(),
            FitTest::SimpleThenImproved => v.plain_edf_sufficient() || v.feasible(),
        }
    }

    /// Short label for ablation tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FitTest::Simple => "eq4",
            FitTest::Improved => "thm1",
            FitTest::SimpleThenImproved => "eq4+thm1",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_model::{McTask, TaskBuilder, TaskId, UtilTable};

    fn task(id: u32, period: u64, level: u8, wcet: &[u64]) -> McTask {
        TaskBuilder::new(TaskId(id)).period(period).level(level).wcet(wcet).build().unwrap()
    }

    #[test]
    fn improved_accepts_more_than_simple() {
        // U_1(1)=0.5, U_2(1)=0.1, U_2(2)=0.6: Eq. (4) = 1.1 fails, Thm 1 ok.
        let t = UtilTable::from_tasks(2, [&task(0, 10, 1, &[5]), &task(1, 100, 2, &[10, 60])]);
        assert!(!FitTest::Simple.feasible(&t));
        assert!(FitTest::Improved.feasible(&t));
        assert!(FitTest::SimpleThenImproved.feasible(&t));
    }

    #[test]
    fn two_stage_equals_improved_on_samples() {
        let sets = [
            vec![task(0, 10, 1, &[5]), task(1, 100, 2, &[10, 60])],
            vec![task(0, 10, 1, &[9]), task(1, 10, 2, &[5, 9])],
            vec![task(0, 10, 2, &[2, 6])],
        ];
        for s in &sets {
            let t = UtilTable::from_tasks(2, s.iter());
            assert_eq!(FitTest::Improved.feasible(&t), FitTest::SimpleThenImproved.feasible(&t));
        }
    }

    #[test]
    fn labels_are_distinct() {
        assert_ne!(FitTest::Simple.label(), FitTest::Improved.label());
        assert_ne!(FitTest::Improved.label(), FitTest::SimpleThenImproved.label());
    }
}
