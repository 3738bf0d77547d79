//! The Hybrid partitioning scheme of Rodriguez et al. \[28\]: allocate
//! high-criticality tasks with WFD (spreading the critical workload), then
//! low-criticality tasks with FFD (packing the rest tightly).
//!
//! The original scheme is dual-criticality. For `K > 2` we treat every task
//! with `l_i ≥ split` as high-criticality; the split defaults to 2, the
//! natural reading of "high-criticality tasks using WFD and low-criticality
//! tasks using FFD". The split is configurable for sensitivity studies.

use mcs_model::{CoreId, Partition, TaskSet};

use crate::binpack::{choose_core, BinPacker, Placement};
use crate::engine::with_scratch;
use crate::fit::FitTest;
use crate::{PartitionFailure, Partitioner};

/// The Hybrid WFD/FFD partitioner.
#[derive(Clone, Debug)]
pub struct Hybrid {
    /// Tasks with level ≥ `split` go through the WFD phase.
    split: u8,
    fit: FitTest,
}

impl Default for Hybrid {
    fn default() -> Self {
        Self { split: 2, fit: FitTest::default() }
    }
}

impl Hybrid {
    /// Hybrid with a custom high/low criticality split level.
    #[must_use]
    pub fn with_split(split: u8) -> Self {
        assert!(split >= 1, "split level must be >= 1");
        Self { split, ..Self::default() }
    }

    /// Override the fit test (used by ablations).
    #[must_use]
    pub fn with_fit(mut self, fit: FitTest) -> Self {
        self.fit = fit;
        self
    }
}

impl Partitioner for Hybrid {
    fn name(&self) -> &'static str {
        "Hybrid"
    }

    fn partition(&self, ts: &TaskSet, cores: usize) -> Result<Partition, PartitionFailure> {
        assert!(cores >= 1, "need at least one core");
        with_scratch(|scratch| {
            BinPacker::decreasing_max_util_order_into(ts, &mut scratch.order);
            let engine = &mut scratch.engine;
            engine.reset(ts, cores);
            let loads = &mut scratch.loads;
            loads.clear();
            loads.resize(cores, 0.0);
            let mut partition = Partition::empty(cores, ts.len());
            let mut placed = 0usize;
            let mut cursor = 0usize;

            // Two filtered passes over the same decreasing order: WFD for
            // the high-criticality tasks, then FFD for the rest — the same
            // sequences the old high/low `Vec::partition` produced, without
            // materializing them.
            for (phase_placement, want_high) in
                [(Placement::WorstFit, true), (Placement::FirstFit, false)]
            {
                for &id in scratch
                    .order
                    .iter()
                    .filter(|&&id| (ts.task(id).level().get() >= self.split) == want_high)
                {
                    match choose_core(phase_placement, self.fit, engine, loads, id, &mut cursor) {
                        Some(m) => {
                            loads[m] += engine.util_own(id);
                            engine.place_untracked(id, m);
                            partition.assign(id, CoreId(u16::try_from(m).expect("core fits u16")));
                            placed += 1;
                        }
                        None => return Err(PartitionFailure { task: id, placed }),
                    }
                }
            }
            mcs_audit::debug_audit(ts, &partition, self.name(), true, None);
            Ok(partition)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_model::{McTask, TaskBuilder, TaskId};

    fn task(id: u32, period: u64, level: u8, wcet: &[u64]) -> McTask {
        TaskBuilder::new(TaskId(id)).period(period).level(level).wcet(wcet).build().unwrap()
    }

    fn set(tasks: Vec<McTask>, k: u8) -> TaskSet {
        TaskSet::new(k, tasks).unwrap()
    }

    #[test]
    fn high_tasks_are_spread_low_tasks_packed() {
        // Two HI tasks of 0.4 each spread over two cores (WFD), then two LO
        // tasks of 0.2 pack first-fit onto core 0.
        let ts = set(
            vec![
                task(0, 10, 2, &[2, 4]),
                task(1, 10, 2, &[2, 4]),
                task(2, 10, 1, &[2]),
                task(3, 10, 1, &[2]),
            ],
            2,
        );
        let p = Hybrid::default().partition(&ts, 2).unwrap();
        assert_ne!(p.core_of(TaskId(0)), p.core_of(TaskId(1)), "HI tasks must spread");
        assert_eq!(p.core_of(TaskId(2)), Some(CoreId(0)));
        assert_eq!(p.core_of(TaskId(3)), Some(CoreId(0)));
    }

    #[test]
    fn split_level_controls_phases() {
        // With split = 3, level-2 tasks are "low" and go FFD.
        let ts = set(vec![task(0, 10, 2, &[2, 4]), task(1, 10, 2, &[2, 4])], 3);
        let p = Hybrid::with_split(3).partition(&ts, 2).unwrap();
        // FFD packs both on core 0 (0.8 ≤ 1).
        assert_eq!(p.core_of(TaskId(0)), Some(CoreId(0)));
        assert_eq!(p.core_of(TaskId(1)), Some(CoreId(0)));
    }

    #[test]
    fn reports_failure_on_overload() {
        let ts = set((0..3).map(|i| task(i, 10, 2, &[6, 6])).collect(), 2);
        assert!(Hybrid::default().partition(&ts, 2).is_err());
    }

    #[test]
    fn all_low_set_degenerates_to_ffd() {
        let ts = set((0..4).map(|i| task(i, 10, 1, &[5])).collect(), 2);
        let h = Hybrid::default().partition(&ts, 2).unwrap();
        let f = BinPacker::ffd().partition(&ts, 2).unwrap();
        for i in 0..4 {
            assert_eq!(h.core_of(TaskId(i)), f.core_of(TaskId(i)));
        }
    }

    #[test]
    fn all_high_set_degenerates_to_wfd() {
        let ts = set((0..4).map(|i| task(i, 10, 2, &[2, 5])).collect(), 2);
        let h = Hybrid::default().partition(&ts, 2).unwrap();
        let w = BinPacker::wfd().partition(&ts, 2).unwrap();
        for i in 0..4 {
            assert_eq!(h.core_of(TaskId(i)), w.core_of(TaskId(i)));
        }
    }
}
