//! Classical decreasing bin-packing heuristics: FFD, BFD, WFD, NFD.
//!
//! As in the paper's baselines, tasks are sorted in decreasing order of
//! their *maximum* utilization `u_i(l_i)` and placed one by one; feasibility
//! of a core is assessed with Eq. (4) first and Theorem 1 second
//! ([`FitTest::SimpleThenImproved`]). The per-core "load" that best/worst
//! fit compare is the classical own-level utilization sum `Σ u_i(l_i)`.

use mcs_analysis::Verdict;
use mcs_model::{CoreId, McTask, Partition, TaskId, TaskSet};

use crate::engine::{with_scratch, ProbeEngine};
use crate::fit::FitTest;
use crate::{PartitionFailure, Partitioner};

/// Placement policy of a decreasing bin-packer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// First feasible core in index order.
    FirstFit,
    /// Feasible core with the highest load (tightest fit); ties → smaller
    /// index.
    BestFit,
    /// Feasible core with the lowest load; ties → smaller index.
    WorstFit,
    /// The most recently used core, advancing (cyclically, one full lap)
    /// when it no longer fits.
    NextFit,
}

/// A classical bin-packing partitioner.
#[derive(Clone, Debug)]
pub struct BinPacker {
    placement: Placement,
    fit: FitTest,
    name: &'static str,
}

impl BinPacker {
    /// First-Fit Decreasing with the paper's two-stage fit test.
    #[must_use]
    pub fn ffd() -> Self {
        Self { placement: Placement::FirstFit, fit: FitTest::default(), name: "FFD" }
    }

    /// Best-Fit Decreasing.
    #[must_use]
    pub fn bfd() -> Self {
        Self { placement: Placement::BestFit, fit: FitTest::default(), name: "BFD" }
    }

    /// Worst-Fit Decreasing.
    #[must_use]
    pub fn wfd() -> Self {
        Self { placement: Placement::WorstFit, fit: FitTest::default(), name: "WFD" }
    }

    /// Next-Fit Decreasing (extra baseline, not in the paper's plots).
    #[must_use]
    pub fn nfd() -> Self {
        Self { placement: Placement::NextFit, fit: FitTest::default(), name: "NFD" }
    }

    /// Override the fit test (used by ablations).
    #[must_use]
    pub fn with_fit(mut self, fit: FitTest) -> Self {
        self.fit = fit;
        self
    }

    /// Sort task ids by decreasing maximum utilization `u_i(l_i)` (ties →
    /// smaller index) — the classical "decreasing" order.
    #[must_use]
    pub fn decreasing_max_util_order(ts: &TaskSet) -> Vec<&McTask> {
        let mut tasks: Vec<&McTask> = ts.tasks().iter().collect();
        tasks.sort_by(|a, b| {
            b.util_own()
                .partial_cmp(&a.util_own())
                .expect("utilizations are finite")
                .then_with(|| a.id().cmp(&b.id()))
        });
        tasks
    }

    /// [`Self::decreasing_max_util_order`] as ids into a reused buffer —
    /// same keys, same stable sort, so the same order.
    pub(crate) fn decreasing_max_util_order_into(ts: &TaskSet, out: &mut Vec<TaskId>) {
        out.clear();
        out.extend(ts.tasks().iter().map(McTask::id));
        out.sort_by(|a, b| {
            ts.task(*b)
                .util_own()
                .partial_cmp(&ts.task(*a).util_own())
                .expect("utilizations are finite")
                .then_with(|| a.cmp(b))
        });
    }
}

impl Placement {
    /// The candidate core this placement prefers: the first for first and
    /// next fit, else the highest (best fit) or lowest (worst fit) key.
    /// Candidates come in index order and the compare is strict, so ties
    /// keep the smaller index.
    fn pick(self, keys: &[f64], mut candidates: impl Iterator<Item = usize>) -> Option<usize> {
        let prefers = match self {
            Placement::BestFit => |a: f64, b: f64| a > b,
            Placement::WorstFit => |a: f64, b: f64| a < b,
            Placement::FirstFit | Placement::NextFit => return candidates.next(),
        };
        candidates.reduce(|best, m| if prefers(keys[m], keys[best]) { m } else { best })
    }
}

/// The selection rule over one sweep's verdicts, shared by the bin-packers
/// and the admission engine's fit policies: [`Placement::pick`] among the
/// cores whose verdict passes.
// lint: no_alloc
pub(crate) fn pick_core(
    placement: Placement,
    verdicts: &[Verdict],
    keys: &[f64],
    pass: impl Fn(&Verdict) -> bool,
) -> Option<usize> {
    placement.pick(keys, verdicts.iter().enumerate().filter(|(_, v)| pass(v)).map(|(m, _)| m))
}

/// Place one task according to a placement policy, or `None`. `loads` are
/// the classical per-core `Σ u_i(l_i)` sums best/worst fit compare;
/// `cursor` is next-fit's. First fit sweeps the batch kernel until the
/// first lane chunk with a fitting core. Best/worst fit probe the
/// extremal-load core alone (it almost always fits: WFD stays near one
/// probe per task) and only on a reject sweep every core. Next fit probes
/// from its cursor. Verdicts equal the scalar [`ProbeEngine::fits`] bit
/// for bit, so each choice is the probe-every-core reference loop's.
pub(crate) fn choose_core(
    placement: Placement,
    fit: FitTest,
    engine: &mut ProbeEngine,
    loads: &[f64],
    id: TaskId,
    cursor: &mut usize,
) -> Option<usize> {
    engine.note_attempt();
    let pass = |v: &Verdict| fit.passes(v);
    match placement {
        Placement::FirstFit => {
            pick_core(placement, engine.probe_cores_until(id, pass), loads, pass)
        }
        Placement::BestFit | Placement::WorstFit => {
            let first = placement.pick(loads, 0..loads.len())?;
            if engine.fits(first, id, fit) {
                return Some(first);
            }
            pick_core(placement, engine.probe_all_cores(id).0, loads, pass)
        }
        Placement::NextFit => {
            for step in 0..loads.len() {
                let m = (*cursor + step) % loads.len();
                if engine.fits(m, id, fit) {
                    *cursor = m;
                    return Some(m);
                }
            }
            None
        }
    }
}

impl Partitioner for BinPacker {
    fn name(&self) -> &'static str {
        self.name
    }

    fn partition(&self, ts: &TaskSet, cores: usize) -> Result<Partition, PartitionFailure> {
        assert!(cores >= 1, "need at least one core");
        with_scratch(|scratch| {
            Self::decreasing_max_util_order_into(ts, &mut scratch.order);
            let engine = &mut scratch.engine;
            engine.reset(ts, cores);
            let loads = &mut scratch.loads;
            loads.clear();
            loads.resize(cores, 0.0);
            let mut partition = Partition::empty(cores, ts.len());
            let mut cursor = 0usize;
            for (placed, &id) in scratch.order.iter().enumerate() {
                match choose_core(self.placement, self.fit, engine, loads, id, &mut cursor) {
                    Some(m) => {
                        loads[m] += engine.util_own(id);
                        engine.place_untracked(id, m);
                        partition.assign(id, CoreId(u16::try_from(m).expect("core fits u16")));
                    }
                    None => return Err(PartitionFailure { task: id, placed }),
                }
            }
            mcs_audit::debug_audit(ts, &partition, self.name, true, None);
            Ok(partition)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_model::{TaskBuilder, TaskId};

    fn task(id: u32, period: u64, level: u8, wcet: &[u64]) -> McTask {
        TaskBuilder::new(TaskId(id)).period(period).level(level).wcet(wcet).build().unwrap()
    }

    fn set(tasks: Vec<McTask>, k: u8) -> TaskSet {
        TaskSet::new(k, tasks).unwrap()
    }

    /// Four half-utilization tasks on two cores: every decreasing scheme
    /// must pack two per core.
    fn four_halves() -> TaskSet {
        set((0..4).map(|i| task(i, 10, 1, &[5])).collect(), 1)
    }

    #[test]
    fn ffd_packs_greedily() {
        let ts = four_halves();
        let p = BinPacker::ffd().partition(&ts, 2).unwrap();
        assert_eq!(p.load_counts(), vec![2, 2]);
        // First-fit keeps filling core 0 first.
        assert_eq!(p.core_of(TaskId(0)), Some(CoreId(0)));
        assert_eq!(p.core_of(TaskId(1)), Some(CoreId(0)));
        assert_eq!(p.core_of(TaskId(2)), Some(CoreId(1)));
    }

    #[test]
    fn wfd_spreads_load() {
        let ts = set(vec![task(0, 10, 1, &[4]), task(1, 10, 1, &[3]), task(2, 10, 1, &[2])], 1);
        let p = BinPacker::wfd().partition(&ts, 2).unwrap();
        // τ0 → P1 (empty), τ1 → P2 (load 0 < 0.4), τ2 → P2 (0.3 < 0.4).
        assert_eq!(p.core_of(TaskId(0)), Some(CoreId(0)));
        assert_eq!(p.core_of(TaskId(1)), Some(CoreId(1)));
        assert_eq!(p.core_of(TaskId(2)), Some(CoreId(1)));
    }

    #[test]
    fn bfd_prefers_fullest_feasible_core() {
        // τ0=0.6 → P1; τ1=0.3 → best-fit picks P1 (0.6 load, still fits);
        // τ2=0.3 no longer fits P1 (0.9+0.3 > 1) → P2.
        let ts = set(vec![task(0, 10, 1, &[6]), task(1, 10, 1, &[3]), task(2, 10, 1, &[3])], 1);
        let p = BinPacker::bfd().partition(&ts, 2).unwrap();
        assert_eq!(p.core_of(TaskId(0)), Some(CoreId(0)));
        assert_eq!(p.core_of(TaskId(1)), Some(CoreId(0)));
        assert_eq!(p.core_of(TaskId(2)), Some(CoreId(1)));
    }

    #[test]
    fn nfd_advances_cyclically() {
        let ts = four_halves();
        let p = BinPacker::nfd().partition(&ts, 2).unwrap();
        assert!(p.is_complete());
        assert_eq!(p.load_counts().iter().sum::<usize>(), 4);
    }

    #[test]
    fn failure_reports_unplaceable_task() {
        // Three 0.6 tasks on two cores: third cannot fit anywhere.
        let ts = set((0..3).map(|i| task(i, 10, 1, &[6])).collect(), 1);
        let err = BinPacker::ffd().partition(&ts, 2).unwrap_err();
        assert_eq!(err.placed, 2);
    }

    #[test]
    fn improved_fit_rescues_mc_sets() {
        // Per-core: U_1(1)=0.5 + HI(0.1, 0.6) passes Thm 1 but not Eq. (4).
        let ts = set(vec![task(0, 10, 1, &[5]), task(1, 100, 2, &[10, 60])], 2);
        assert!(BinPacker::ffd().with_fit(FitTest::Simple).partition(&ts, 1).is_err());
        assert!(BinPacker::ffd().partition(&ts, 1).is_ok());
    }

    #[test]
    fn order_is_by_max_utilization() {
        let ts = set(
            vec![
                task(0, 10, 1, &[2]),    // 0.2
                task(1, 10, 2, &[1, 8]), // 0.8
                task(2, 10, 1, &[5]),    // 0.5
            ],
            2,
        );
        let order: Vec<u32> =
            BinPacker::decreasing_max_util_order(&ts).iter().map(|t| t.id().0).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn empty_task_set_yields_empty_partition() {
        let ts = set(vec![], 2);
        let p = BinPacker::ffd().partition(&ts, 4).unwrap();
        assert!(p.is_complete());
        assert_eq!(p.num_tasks(), 0);
    }

    #[test]
    fn single_core_acts_as_pure_schedulability_test() {
        let ts = set(vec![task(0, 10, 2, &[3, 9]), task(1, 100, 1, &[10])], 2);
        // θ(1) = 0.1 + min{0.9, 0.3/0.1=3} = 1.0 ⇒ feasible on one core.
        assert!(BinPacker::ffd().partition(&ts, 1).is_ok());
    }
}
