//! Simulation statistics: the per-core [`CoreReport`] and the aggregated
//! [`SimReport`].
//!
//! Reports are plain event tallies (releases, completions, drops, mode
//! switches, deadline misses) plus per-task response maxima — the numbers
//! the soundness experiment gates on (analysis-accepted ⇒
//! `deadline_misses == 0`). They derive `PartialEq` deliberately: report
//! equality is half of the tick-vs-event differential contract
//! (DESIGN.md#tick-oracle-differential-contract); the other half is
//! bit-identical traces.

use mcs_model::{CritLevel, TaskId, Tick, MAX_LEVELS};

/// Statistics of one core's simulation run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CoreReport {
    /// Jobs released.
    pub released: u64,
    /// Jobs that signalled completion (on time or late).
    pub completed: u64,
    /// Jobs discarded by mode switches.
    pub dropped: u64,
    /// Mode switches that occurred.
    pub mode_switches: u64,
    /// Idle resets back to level-1 operation.
    pub idle_resets: u64,
    /// Deadline misses per criticality level of the missing task
    /// (`misses_by_level[l-1]`). Dropped jobs never count as misses.
    pub misses_by_level: [u64; MAX_LEVELS as usize],
    /// Highest operation mode reached.
    pub max_mode: u8,
    /// Worst observed response time per task (`(task, ticks)`), over
    /// completed jobs only.
    pub worst_response: Vec<(TaskId, Tick)>,
}

impl CoreReport {
    /// Record a completed job's response time, keeping the per-task worst.
    /// A linear search by task; the simulators' run loops keep a slot →
    /// entry map instead, and reach the same report.
    pub fn record_response(&mut self, task: TaskId, response: Tick) {
        match self.worst_response.iter_mut().find(|(t, _)| *t == task) {
            Some((_, worst)) => *worst = (*worst).max(response),
            None => self.worst_response.push((task, response)),
        }
    }

    /// Worst observed response time of one task, if it completed any job.
    #[must_use]
    pub fn worst_response_of(&self, task: TaskId) -> Option<Tick> {
        self.worst_response.iter().find(|(t, _)| *t == task).map(|(_, r)| *r)
    }

    /// Total deadline misses across all levels.
    #[must_use]
    pub fn total_misses(&self) -> u64 {
        self.misses_by_level.iter().sum()
    }

    /// Misses by tasks of criticality ≥ `level` — under a behaviour of
    /// level `b`, `mandatory_misses(b) > 0` is a violation of the MC
    /// guarantee.
    #[must_use]
    pub fn mandatory_misses(&self, level: CritLevel) -> u64 {
        self.misses_by_level[level.index()..].iter().sum()
    }

    /// Merge another core's statistics into this one.
    pub fn merge(&mut self, other: &CoreReport) {
        self.released += other.released;
        self.completed += other.completed;
        self.dropped += other.dropped;
        self.mode_switches += other.mode_switches;
        self.idle_resets += other.idle_resets;
        for (a, b) in self.misses_by_level.iter_mut().zip(&other.misses_by_level) {
            *a += b;
        }
        self.max_mode = self.max_mode.max(other.max_mode);
        for (task, r) in &other.worst_response {
            self.record_response(*task, *r);
        }
    }
}

/// A run's map from task slot to its entry in the report's
/// `worst_response`, so recording a completion costs O(1) instead of a
/// search. Recording through it leaves the report exactly as
/// [`CoreReport::record_response`] would: entries keep first-completion
/// order, and slots that share a task id share its entry.
pub(crate) struct ResponseSlots(Vec<Option<usize>>);

impl ResponseSlots {
    pub(crate) fn new(slots: usize) -> Self {
        Self(vec![None; slots])
    }

    /// Record a completed job of the task `task` at `slot` in `report`,
    /// the one report this run records into.
    #[inline]
    pub(crate) fn record(
        &mut self,
        report: &mut CoreReport,
        slot: usize,
        task: TaskId,
        response: Tick,
    ) {
        let entries = &mut report.worst_response;
        let at = *self.0[slot].get_or_insert_with(|| {
            entries.iter().position(|(t, _)| *t == task).unwrap_or_else(|| {
                entries.push((task, 0));
                entries.len() - 1
            })
        });
        let worst = &mut entries[at].1;
        *worst = (*worst).max(response);
    }
}

/// Statistics of a full multicore simulation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimReport {
    /// Per-core statistics.
    pub cores: Vec<CoreReport>,
}

impl SimReport {
    /// Aggregate over all cores.
    #[must_use]
    pub fn total(&self) -> CoreReport {
        let mut acc = CoreReport::default();
        for c in &self.cores {
            acc.merge(c);
        }
        acc
    }

    /// Whether the MC guarantee held for a behaviour of level `b`: no task
    /// of criticality ≥ `b` missed a deadline on any core.
    #[must_use]
    pub fn guarantee_held(&self, behaviour: CritLevel) -> bool {
        self.cores.iter().all(|c| c.mandatory_misses(behaviour) == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mandatory_misses_filters_by_level() {
        let mut r = CoreReport::default();
        r.misses_by_level[0] = 3; // level-1 tasks missed 3 deadlines
        r.misses_by_level[2] = 1; // level-3 task missed once
        assert_eq!(r.total_misses(), 4);
        assert_eq!(r.mandatory_misses(CritLevel::new(1)), 4);
        assert_eq!(r.mandatory_misses(CritLevel::new(2)), 1);
        assert_eq!(r.mandatory_misses(CritLevel::new(3)), 1);
        assert_eq!(r.mandatory_misses(CritLevel::new(4)), 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CoreReport { released: 10, completed: 8, max_mode: 2, ..Default::default() };
        let b = CoreReport { released: 5, dropped: 2, max_mode: 3, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.released, 15);
        assert_eq!(a.completed, 8);
        assert_eq!(a.dropped, 2);
        assert_eq!(a.max_mode, 3);
    }

    #[test]
    fn response_slots_record_like_a_search() {
        // Slots 0 and 2 share task 5 (a duplicate-id core); slot 1 is
        // task 3 and completes first.
        let ids = [TaskId(5), TaskId(3), TaskId(5)];
        let completions = [(1, 4), (0, 7), (2, 9), (1, 2), (0, 3), (2, 1)];
        let mut searched = CoreReport::default();
        let mut indexed = CoreReport::default();
        let mut slots = ResponseSlots::new(ids.len());
        for (slot, response) in completions {
            searched.record_response(ids[slot], response);
            slots.record(&mut indexed, slot, ids[slot], response);
        }
        assert_eq!(indexed, searched);
        assert_eq!(indexed.worst_response, [(TaskId(3), 4), (TaskId(5), 9)]);
    }

    #[test]
    fn guarantee_checks_all_cores() {
        let mut bad = CoreReport::default();
        bad.misses_by_level[1] = 1;
        let report = SimReport { cores: vec![CoreReport::default(), bad] };
        assert!(!report.guarantee_held(CritLevel::new(1)));
        assert!(!report.guarantee_held(CritLevel::new(2)));
        assert!(report.guarantee_held(CritLevel::new(3)));
    }
}
