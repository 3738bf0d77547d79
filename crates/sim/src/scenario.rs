//! Execution scenarios: how much work each job actually demands.
//!
//! A scenario assigns every job a *behaviour level* `b ≤ l_i`; the job then
//! executes for exactly `c_i(b)` before signalling completion. A job whose
//! behaviour exceeds the core's current mode budget triggers the AMC mode
//! switch on its way there.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use mcs_model::{CritLevel, McTask, TaskId, Tick};

/// Decides each job's actual execution demand.
pub trait Scenario {
    /// Demand (in ticks) of the `job_index`-th job of `task`
    /// (0-based per task). Must be within `[1, c_i(l_i)]`.
    fn demand(&mut self, task: &McTask, job_index: u64) -> Tick;

    /// The highest behaviour level any job of this scenario may exhibit —
    /// the `b` of the MC guarantee ("tasks of criticality ≥ b meet their
    /// deadlines"). Used by validators to decide which misses are
    /// violations.
    fn behaviour_level(&self) -> CritLevel;
}

/// Every job behaves at level `min(l_i, cap)` — the deterministic worst case
/// for that behaviour level. `LevelCap::lo()` is the all-nominal scenario,
/// `LevelCap::new(K)` the global worst case.
#[derive(Clone, Copy, Debug)]
pub struct LevelCap {
    cap: CritLevel,
}

impl LevelCap {
    /// Worst-case behaviour at level `cap`.
    #[must_use]
    pub fn new(cap: u8) -> Self {
        Self { cap: CritLevel::new(cap) }
    }

    /// All jobs stay within their level-1 estimates.
    #[must_use]
    pub fn lo() -> Self {
        Self::new(1)
    }
}

impl Scenario for LevelCap {
    #[inline]
    fn demand(&mut self, task: &McTask, _job_index: u64) -> Tick {
        task.wcet(task.level().min(self.cap))
    }

    fn behaviour_level(&self) -> CritLevel {
        self.cap
    }
}

/// Each job of a task with criticality above 1 *escalates* one level with
/// probability `p` per level (independently), modelling sporadic overruns.
#[derive(Clone, Debug)]
pub struct Probabilistic {
    p: f64,
    rng: SmallRng,
    max_level: CritLevel,
}

impl Probabilistic {
    /// Overrun probability `p ∈ [0, 1]` per level step; deterministic for a
    /// given seed. `max_level` caps the escalation (the guarantee level).
    #[must_use]
    pub fn new(p: f64, max_level: u8, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        Self { p, rng: SmallRng::seed_from_u64(seed), max_level: CritLevel::new(max_level) }
    }
}

impl Scenario for Probabilistic {
    fn demand(&mut self, task: &McTask, _job_index: u64) -> Tick {
        let mut level = CritLevel::LO;
        let cap = task.level().min(self.max_level);
        while level < cap && self.rng.gen_bool(self.p) {
            level = level.next().expect("bounded by cap");
        }
        task.wcet(level)
    }

    fn behaviour_level(&self) -> CritLevel {
        self.max_level
    }
}

/// Exactly one designated job overruns to its task's own level; everything
/// else stays nominal. Useful for tracing a single mode switch.
#[derive(Clone, Copy, Debug)]
pub struct SingleOverrun {
    task: TaskId,
    job_index: u64,
    level: CritLevel,
}

impl SingleOverrun {
    /// The `job_index`-th job of `task` behaves at `level`.
    #[must_use]
    pub fn new(task: TaskId, job_index: u64, level: u8) -> Self {
        Self { task, job_index, level: CritLevel::new(level) }
    }
}

impl Scenario for SingleOverrun {
    fn demand(&mut self, task: &McTask, job_index: u64) -> Tick {
        if task.id() == self.task && job_index == self.job_index {
            task.wcet(task.level().min(self.level))
        } else {
            task.wcet(CritLevel::LO)
        }
    }

    fn behaviour_level(&self) -> CritLevel {
        self.level
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_model::TaskBuilder;

    fn task(id: u32, period: u64, level: u8, wcet: &[u64]) -> McTask {
        TaskBuilder::new(TaskId(id)).period(period).level(level).wcet(wcet).build().unwrap()
    }

    #[test]
    fn level_cap_caps_at_task_level() {
        let t = task(0, 100, 2, &[10, 30]);
        assert_eq!(LevelCap::lo().demand(&t, 0), 10);
        assert_eq!(LevelCap::new(2).demand(&t, 0), 30);
        // Cap above the task's own level clamps to the task level.
        assert_eq!(LevelCap::new(4).demand(&t, 0), 30);
    }

    #[test]
    fn single_overrun_hits_one_job_only() {
        let t = task(0, 100, 3, &[10, 20, 30]);
        let other = task(1, 100, 3, &[5, 6, 7]);
        let mut s = SingleOverrun::new(TaskId(0), 2, 3);
        assert_eq!(s.demand(&t, 0), 10);
        assert_eq!(s.demand(&t, 2), 30);
        assert_eq!(s.demand(&t, 3), 10);
        assert_eq!(s.demand(&other, 2), 5);
        assert_eq!(s.behaviour_level().get(), 3);
    }

    #[test]
    fn probabilistic_zero_p_is_nominal() {
        let t = task(0, 100, 3, &[10, 20, 30]);
        let mut s = Probabilistic::new(0.0, 3, 1);
        for j in 0..50 {
            assert_eq!(s.demand(&t, j), 10);
        }
    }

    #[test]
    fn probabilistic_one_p_is_worst_case() {
        let t = task(0, 100, 3, &[10, 20, 30]);
        let mut s = Probabilistic::new(1.0, 3, 1);
        assert_eq!(s.demand(&t, 0), 30);
        // Capped by max_level.
        let mut s2 = Probabilistic::new(1.0, 2, 1);
        assert_eq!(s2.demand(&t, 0), 20);
    }

    #[test]
    fn probabilistic_is_seed_deterministic() {
        let t = task(0, 100, 4, &[10, 20, 30, 40]);
        let mut a = Probabilistic::new(0.5, 4, 99);
        let mut b = Probabilistic::new(0.5, 4, 99);
        for j in 0..100 {
            assert_eq!(a.demand(&t, j), b.demand(&t, j));
        }
    }

    #[test]
    fn demands_always_within_bounds() {
        let t = task(0, 100, 4, &[10, 20, 30, 40]);
        let mut s = Probabilistic::new(0.7, 4, 5);
        for j in 0..200 {
            let d = s.demand(&t, j);
            assert!((10..=40).contains(&d));
        }
    }
}

/// A correlated *burst*: within a time-indexed window of job indices, every
/// job of every task behaves at the burst level; outside it, nominal. This
/// models the common-cause overruns (cache storms, interrupt floods) that
/// independent per-job models miss — AMC must survive many tasks
/// escalating in the same window.
#[derive(Clone, Copy, Debug)]
pub struct BurstOverrun {
    /// First affected job index (per task).
    pub from_index: u64,
    /// Last affected job index (inclusive, per task).
    pub to_index: u64,
    /// Behaviour level inside the burst.
    pub level: CritLevel,
}

impl BurstOverrun {
    /// Jobs `from..=to` (per task) behave at `level`.
    #[must_use]
    pub fn new(from_index: u64, to_index: u64, level: u8) -> Self {
        assert!(from_index <= to_index, "empty burst window");
        Self { from_index, to_index, level: CritLevel::new(level) }
    }
}

impl Scenario for BurstOverrun {
    fn demand(&mut self, task: &McTask, job_index: u64) -> Tick {
        if (self.from_index..=self.to_index).contains(&job_index) {
            task.wcet(task.level().min(self.level))
        } else {
            task.wcet(CritLevel::LO)
        }
    }

    fn behaviour_level(&self) -> CritLevel {
        self.level
    }
}

/// A fully scripted scenario: explicit `(task, job_index) → level`
/// overrides with a nominal default — lets tests pin down exact interleaved
/// behaviours.
#[derive(Clone, Debug, Default)]
pub struct Scripted {
    overrides: Vec<(TaskId, u64, CritLevel)>,
}

impl Scripted {
    /// Empty script (all nominal).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an override: the `job`-th job of `task` behaves at `level`.
    #[must_use]
    pub fn with(mut self, task: TaskId, job: u64, level: u8) -> Self {
        self.overrides.push((task, job, CritLevel::new(level)));
        self
    }
}

impl Scenario for Scripted {
    fn demand(&mut self, task: &McTask, job_index: u64) -> Tick {
        let level = self
            .overrides
            .iter()
            .find(|(t, j, _)| *t == task.id() && *j == job_index)
            .map_or(CritLevel::LO, |(_, _, l)| *l);
        task.wcet(task.level().min(level))
    }

    fn behaviour_level(&self) -> CritLevel {
        self.overrides.iter().map(|(_, _, l)| *l).max().unwrap_or(CritLevel::LO)
    }
}

#[cfg(test)]
mod extra_scenario_tests {
    use super::*;
    use mcs_model::TaskBuilder;

    fn task(id: u32, period: u64, level: u8, wcet: &[u64]) -> McTask {
        TaskBuilder::new(TaskId(id)).period(period).level(level).wcet(wcet).build().unwrap()
    }

    #[test]
    fn burst_affects_only_its_window() {
        let t = task(0, 100, 3, &[10, 20, 30]);
        let mut s = BurstOverrun::new(2, 4, 3);
        assert_eq!(s.demand(&t, 1), 10);
        assert_eq!(s.demand(&t, 2), 30);
        assert_eq!(s.demand(&t, 4), 30);
        assert_eq!(s.demand(&t, 5), 10);
        assert_eq!(s.behaviour_level().get(), 3);
    }

    #[test]
    #[should_panic(expected = "empty burst window")]
    fn burst_rejects_inverted_window() {
        let _ = BurstOverrun::new(5, 2, 2);
    }

    #[test]
    fn scripted_overrides_specific_jobs() {
        let a = task(0, 100, 2, &[10, 25]);
        let b = task(1, 100, 2, &[5, 9]);
        let mut s = Scripted::new().with(TaskId(0), 1, 2).with(TaskId(1), 3, 2);
        assert_eq!(s.demand(&a, 0), 10);
        assert_eq!(s.demand(&a, 1), 25);
        assert_eq!(s.demand(&b, 1), 5);
        assert_eq!(s.demand(&b, 3), 9);
        assert_eq!(s.behaviour_level().get(), 2);
        assert_eq!(Scripted::new().behaviour_level(), CritLevel::LO);
    }

    #[test]
    fn burst_guarantee_holds_on_feasible_core() {
        use crate::core::{CoreSim, SchedulerKind};
        use crate::trace::Trace;
        use mcs_analysis::{Theorem1, VdAssignment};
        use mcs_model::UtilTable;
        let lo = task(0, 10, 1, &[5]);
        let hi = task(1, 100, 2, &[10, 60]);
        let tasks = vec![&lo, &hi];
        let table = UtilTable::from_tasks(2, tasks.iter().copied());
        let analysis = Theorem1::compute(&table);
        let vd = VdAssignment::compute(&table, &analysis).unwrap();
        let sim = CoreSim::new(tasks, SchedulerKind::EdfVd(vd));
        let mut burst = BurstOverrun::new(3, 8, 2);
        let r = sim.run(&mut burst, 3_000, &mut Trace::disabled());
        assert_eq!(r.mandatory_misses(CritLevel::new(2)), 0, "{r:?}");
        assert!(r.mode_switches >= 1);
    }
}
