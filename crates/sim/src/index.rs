//! Pending-release indexes for the one per-core run loop
//! ([`crate::CoreSim`]).
//!
//! The loop keeps every slot's next release instant in one packed vector
//! and asks its index three questions about it: when the earliest pending
//! release is (over all slots), which slots are due once time reaches it,
//! and when the earliest *active* release is. It asks the first after each
//! drain, the second only when time has reached the first's answer, and
//! the third only after a drain or a mode change (at level 1 every slot is
//! active, so it reuses the first answer there). A stop with nothing due
//! and no mode change asks nothing. The loop tells the index once per
//! drained slot where that slot's next release lies. Everything else
//! (drain, miss sweep, dispatch, budgets, mode switches, idle resets) is
//! the loop's own, so two indexes that answer the questions identically
//! produce bit-identical traces
//! (DESIGN.md#tick-oracle-differential-contract):
//!
//! * [`ScanIndex`] answers with branch-free passes over all slots —
//!   `O(N)` per drain or mode change, the differential oracle;
//! * [`HeapIndex`] keeps one binary min-heap per criticality level —
//!   `O(due · log N)` per drain, at most `K` peeks for either minimum;
//! * [`CheckedIndex`] pairs an oracle with a candidate: the oracle's
//!   answers drive the loop, the candidate is asked every question too,
//!   and the first answer on which they differ is kept. One checked run
//!   is therefore as strict a differential as two runs compared trace
//!   against trace — the loop depends on nothing but the answers.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mcs_model::{CritLevel, McTask, Tick};
use mcs_obs::{Counter, Phase};

/// Where a run loop finds its due and next active releases.
/// `releases[slot]` is the slot's next release instant; a slot at or past
/// the horizon is retired.
pub(crate) trait ReleaseIndex {
    /// Put every slot with `releases[slot] ≤ time` (below-mode slots
    /// included) into `out`, ascending by slot — the order the drain
    /// visits them in. `time` is below the horizon.
    fn pop_due(&mut self, time: Tick, releases: &[Tick], out: &mut Vec<usize>);
    /// Re-file `slot` after its drain, at its new `next_release`.
    fn reinsert(&mut self, slot: usize, next_release: Tick);
    /// Earliest pending release below the horizon over all slots: the
    /// first instant [`ReleaseIndex::pop_due`] has anything to return.
    fn next_due(&self, releases: &[Tick]) -> Option<Tick>;
    /// Earliest pending release below the horizon over slots whose task
    /// level is ≥ `mode`.
    fn next_active(&self, mode: CritLevel, releases: &[Tick]) -> Option<Tick>;
}

/// The oracle index: every question is a pass over all slots.
pub(crate) struct ScanIndex {
    levels: Vec<CritLevel>,
    horizon: Tick,
}

impl ScanIndex {
    pub(crate) fn new(tasks: &[&McTask], horizon: Tick) -> Self {
        Self { levels: tasks.iter().map(|t| t.level()).collect(), horizon }
    }

    /// The least of `releases`, if it lies below the horizon (a retired
    /// slot's release is at or past it, so it never hides a pending one).
    fn pending(&self, least: Tick) -> Option<Tick> {
        (least < self.horizon).then_some(least)
    }
}

impl ReleaseIndex for ScanIndex {
    fn pop_due(&mut self, time: Tick, releases: &[Tick], out: &mut Vec<usize>) {
        debug_assert!(time < self.horizon, "a drain past the horizon");
        // Compare-and-count: write every slot, keep it by counting it.
        out.clear();
        out.resize(releases.len(), 0);
        let mut kept = 0;
        for (slot, &release) in releases.iter().enumerate() {
            out[kept] = slot;
            kept += usize::from(release <= time);
        }
        out.truncate(kept);
    }

    fn reinsert(&mut self, _slot: usize, _next_release: Tick) {}

    fn next_due(&self, releases: &[Tick]) -> Option<Tick> {
        self.pending(releases.iter().copied().fold(Tick::MAX, Tick::min))
    }

    fn next_active(&self, mode: CritLevel, releases: &[Tick]) -> Option<Tick> {
        let least = self
            .levels
            .iter()
            .zip(releases)
            .map(|(&level, &release)| if level >= mode { release } else { Tick::MAX })
            .fold(Tick::MAX, Tick::min);
        self.pending(least)
    }
}

/// One binary min-heap of `(next_release, slot)` per criticality level.
///
/// Every slot with `next_release < horizon` that is not being drained has
/// exactly one entry, in the heap of its own task's level. A slot's level
/// never changes, so a mode switch or an idle reset moves nothing: the
/// active minimum is the least top over the heaps at or above the mode,
/// and the due minimum the least top over all of them.
pub(crate) struct HeapIndex {
    heaps: Vec<BinaryHeap<Reverse<(Tick, usize)>>>,
    heap_of: Vec<usize>,
    horizon: Tick,
    popped: u64,
    pushes: u64,
}

impl HeapIndex {
    pub(crate) fn new(tasks: &[&McTask], horizon: Tick) -> Self {
        let heap_of: Vec<usize> = tasks.iter().map(|t| t.level().index()).collect();
        let levels = heap_of.iter().max().map_or(0, |&top| top + 1);
        let mut index =
            Self { heaps: vec![BinaryHeap::new(); levels], heap_of, horizon, popped: 0, pushes: 0 };
        for slot in 0..tasks.len() {
            index.reinsert(slot, 0); // synchronous first releases
        }
        index
    }

    /// The least top over the heaps from level index `from` up.
    fn least_top(&self, from: usize) -> Option<Tick> {
        self.heaps.iter().skip(from).filter_map(|h| h.peek().map(|e| e.0 .0)).min()
    }
}

impl ReleaseIndex for HeapIndex {
    fn pop_due(&mut self, time: Tick, _releases: &[Tick], out: &mut Vec<usize>) {
        // Timed by hand: an `mcs_obs::span` guard here measured about a
        // fifth slower on the untimed `perf` simulator set.
        let start = mcs_obs::now_if_timing();
        out.clear();
        for heap in &mut self.heaps {
            while heap.peek().is_some_and(|&Reverse((release, _))| release <= time) {
                let Reverse((_, slot)) = heap.pop().expect("peeked");
                out.push(slot);
            }
        }
        self.popped += out.len() as u64;
        out.sort_unstable();
        if let Some(start) = start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            mcs_obs::record_phase(Phase::SimEventPop, ns);
        }
    }

    fn reinsert(&mut self, slot: usize, next_release: Tick) {
        if next_release < self.horizon {
            self.pushes += 1;
            self.heaps[self.heap_of[slot]].push(Reverse((next_release, slot)));
        }
    }

    fn next_due(&self, _releases: &[Tick]) -> Option<Tick> {
        self.least_top(0)
    }

    fn next_active(&self, mode: CritLevel, _releases: &[Tick]) -> Option<Tick> {
        self.least_top(mode.index())
    }
}

impl Drop for HeapIndex {
    /// One counter bump per run rather than per heap operation.
    fn drop(&mut self) {
        mcs_obs::counter!(Counter::SimEventsPopped, self.popped);
        mcs_obs::counter!(Counter::SimHeapPushes, self.pushes);
    }
}

/// The question on which a [`CheckedIndex`]'s two indexes first gave
/// different answers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Disagreement {
    /// [`ReleaseIndex::pop_due`] at this time returned different slots.
    PopDue(Tick),
    /// [`ReleaseIndex::next_due`] answered differently.
    NextDue,
    /// [`ReleaseIndex::next_active`] at this mode answered differently.
    NextActive(CritLevel),
}

/// Answers every question with `oracle`'s answer, after asking
/// `candidate` the same question and comparing; every re-file goes to
/// both. The first disagreement is latched in the index itself.
pub(crate) struct CheckedIndex<O, C> {
    oracle: O,
    candidate: C,
    /// The candidate's due slots, compared with the oracle's.
    spare: Vec<usize>,
    disagreement: Cell<Option<Disagreement>>,
}

impl<O: ReleaseIndex, C: ReleaseIndex> CheckedIndex<O, C> {
    pub(crate) fn new(oracle: O, candidate: C) -> Self {
        Self { oracle, candidate, spare: Vec::new(), disagreement: Cell::new(None) }
    }

    /// The first question the two indexes answered differently, if any.
    pub(crate) fn disagreement(&self) -> Option<Disagreement> {
        self.disagreement.get()
    }

    fn check(&self, agree: bool, question: Disagreement) {
        if !agree && self.disagreement.get().is_none() {
            self.disagreement.set(Some(question));
        }
    }
}

impl<O: ReleaseIndex, C: ReleaseIndex> ReleaseIndex for CheckedIndex<O, C> {
    fn pop_due(&mut self, time: Tick, releases: &[Tick], out: &mut Vec<usize>) {
        self.oracle.pop_due(time, releases, out);
        self.candidate.pop_due(time, releases, &mut self.spare);
        self.check(*out == self.spare, Disagreement::PopDue(time));
    }

    fn reinsert(&mut self, slot: usize, next_release: Tick) {
        self.oracle.reinsert(slot, next_release);
        self.candidate.reinsert(slot, next_release);
    }

    fn next_due(&self, releases: &[Tick]) -> Option<Tick> {
        let answer = self.oracle.next_due(releases);
        self.check(answer == self.candidate.next_due(releases), Disagreement::NextDue);
        answer
    }

    fn next_active(&self, mode: CritLevel, releases: &[Tick]) -> Option<Tick> {
        let answer = self.oracle.next_active(mode, releases);
        let agree = answer == self.candidate.next_active(mode, releases);
        self.check(agree, Disagreement::NextActive(mode));
        answer
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use crate::core::{
        ArrivalModel, CoreSim, DegradationPolicy, Overheads, SchedulerKind, SimEngine,
    };
    use crate::report::CoreReport;
    use crate::scenario::{LevelCap, Probabilistic, Scenario, SingleOverrun};
    use crate::trace::Trace;
    use mcs_analysis::{Theorem1, VdAssignment};
    use mcs_model::{TaskBuilder, TaskId, UtilTable};

    fn task(id: u32, period: u64, level: u8, wcet: &[u64]) -> McTask {
        TaskBuilder::new(TaskId(id)).period(period).level(level).wcet(wcet).build().unwrap()
    }

    fn vd_for(tasks: &[&McTask], k: u8) -> VdAssignment {
        let table = UtilTable::from_tasks(k, tasks.iter().copied());
        let a = Theorem1::compute(&table);
        VdAssignment::compute(&table, &a).expect("subset must be feasible")
    }

    /// Run the loop on both indexes with identical inputs and assert
    /// report + trace equality.
    fn assert_engines_agree<S: Scenario + Clone>(
        tasks: &[&McTask],
        scheduler: &SchedulerKind,
        scenario: &S,
        arrivals: &ArrivalModel,
        overheads: Overheads,
        degradation: &DegradationPolicy,
        horizon: Tick,
    ) {
        let mut tick_trace = Trace::enabled(1 << 20);
        let mut event_trace = Trace::enabled(1 << 20);
        let sim = CoreSim::new(tasks.to_vec(), scheduler.clone())
            .with_arrivals(arrivals.clone())
            .with_overheads(overheads)
            .with_degradation(degradation.clone());
        let tick = sim.run(&mut scenario.clone(), horizon, &mut tick_trace);
        let sim = sim.with_engine(SimEngine::Event);
        let event = sim.run(&mut scenario.clone(), horizon, &mut event_trace);
        assert_eq!(tick, event, "reports diverged");
        assert_eq!(tick_trace.events(), event_trace.events(), "traces diverged");
    }

    #[test]
    fn single_task_matches_oracle() {
        let t = task(0, 10, 1, &[3]);
        assert_engines_agree(
            &[&t],
            &SchedulerKind::PlainEdf,
            &LevelCap::lo(),
            &ArrivalModel::Periodic,
            Overheads::default(),
            &DegradationPolicy::Drop,
            100,
        );
    }

    #[test]
    fn mode_switch_and_idle_reset_match_oracle() {
        let lo = task(0, 10, 1, &[3]);
        let hi = task(1, 10, 2, &[2, 6]);
        let tasks = vec![&lo, &hi];
        let vd = vd_for(&tasks, 2);
        assert_engines_agree(
            &tasks,
            &SchedulerKind::EdfVd(vd),
            &SingleOverrun::new(TaskId(1), 1, 2),
            &ArrivalModel::Periodic,
            Overheads::default(),
            &DegradationPolicy::Drop,
            400,
        );
    }

    #[test]
    fn worst_case_behaviour_matches_oracle() {
        let lo = task(0, 10, 1, &[5]);
        let hi = task(1, 100, 2, &[10, 60]);
        let tasks = vec![&lo, &hi];
        let vd = vd_for(&tasks, 2);
        assert_engines_agree(
            &tasks,
            &SchedulerKind::EdfVd(vd),
            &LevelCap::new(2),
            &ArrivalModel::Periodic,
            Overheads::default(),
            &DegradationPolicy::Drop,
            5_000,
        );
    }

    #[test]
    fn sporadic_arrivals_match_oracle() {
        let a = task(0, 10, 1, &[2]);
        let b = task(1, 25, 1, &[6]);
        for seed in 0..8 {
            assert_engines_agree(
                &[&a, &b],
                &SchedulerKind::PlainEdf,
                &LevelCap::lo(),
                &ArrivalModel::Sporadic { slack: 0.4, seed },
                Overheads::default(),
                &DegradationPolicy::Drop,
                2_000,
            );
        }
    }

    #[test]
    fn overheads_match_oracle() {
        let a = task(0, 4, 1, &[2]);
        let b = task(1, 8, 1, &[4]);
        assert_engines_agree(
            &[&a, &b],
            &SchedulerKind::PlainEdf,
            &LevelCap::lo(),
            &ArrivalModel::Periodic,
            Overheads { context_switch: 1, mode_switch: 3 },
            &DegradationPolicy::Drop,
            500,
        );
    }

    #[test]
    fn elastic_degradation_matches_oracle() {
        let tasks = [task(0, 10_000, 1, &[3_000]), task(1, 100_000, 2, &[10_000, 45_000])];
        let table = UtilTable::from_tasks(2, tasks.iter());
        let analysis = Theorem1::compute(&table);
        let vd = VdAssignment::compute(&table, &analysis).expect("feasible");
        let factors = mcs_analysis::elastic_stretch_factors(&table, &analysis).expect("feasible");
        let refs: Vec<&McTask> = tasks.iter().collect();
        assert_engines_agree(
            &refs,
            &SchedulerKind::EdfVd(vd),
            &LevelCap::new(2),
            &ArrivalModel::Periodic,
            Overheads::default(),
            &DegradationPolicy::Elastic { factors },
            1_000_000,
        );
    }

    #[test]
    fn fixed_priority_matches_oracle() {
        let a = task(0, 20, 1, &[10]);
        let b = task(1, 30, 1, &[10]);
        let tasks = vec![&a, &b];
        let sched = SchedulerKind::deadline_monotonic(&tasks);
        assert_engines_agree(
            &tasks,
            &sched,
            &LevelCap::lo(),
            &ArrivalModel::Periodic,
            Overheads::default(),
            &DegradationPolicy::Drop,
            600,
        );
    }

    #[test]
    fn probabilistic_scenario_rng_stream_matches_oracle() {
        // Probabilistic shares one RNG across demand() calls, so the call
        // *order* must match for the streams to align — the strongest
        // single check of the drain-order contract.
        let a = task(0, 10, 1, &[3]);
        let b = task(1, 20, 2, &[4, 8]);
        let c = task(2, 15, 1, &[5]);
        let tasks = vec![&a, &b, &c];
        let vd = vd_for(&tasks, 2);
        for seed in 0..8 {
            assert_engines_agree(
                &tasks,
                &SchedulerKind::EdfVd(vd.clone()),
                &Probabilistic::new(0.3, 2, seed),
                &ArrivalModel::Periodic,
                Overheads::default(),
                &DegradationPolicy::Drop,
                3_000,
            );
        }
    }

    #[test]
    fn empty_and_zero_horizon_match_oracle() {
        let empty = CoreSim::new(vec![], SchedulerKind::PlainEdf)
            .with_engine(SimEngine::Event)
            .run(&mut LevelCap::lo(), 100, &mut Trace::disabled());
        assert_eq!(empty, CoreReport { max_mode: 1, ..Default::default() });
        let t = task(0, 10, 1, &[3]);
        let zero = CoreSim::new(vec![&t], SchedulerKind::PlainEdf)
            .with_engine(SimEngine::Event)
            .run(&mut LevelCap::lo(), 0, &mut Trace::disabled());
        assert_eq!(zero.released, 0);
    }
    /// A heap index over one task per entry of `levels`, all due at 0.
    fn heap_over(levels: &[u8], horizon: Tick) -> HeapIndex {
        let tasks: Vec<McTask> = (0u32..)
            .zip(levels)
            .map(|(id, &l)| task(id, 10, l, &(1..=u64::from(l)).collect::<Vec<_>>()))
            .collect();
        HeapIndex::new(&tasks.iter().collect::<Vec<_>>(), horizon)
    }

    /// The slots a heap index hands out as due at `time`.
    fn pop(index: &mut HeapIndex, time: Tick) -> Vec<usize> {
        let mut out = Vec::new();
        index.pop_due(time, &[], &mut out);
        out
    }

    #[test]
    fn heap_pops_come_back_in_ascending_slot_order_across_levels() {
        let mut index = heap_over(&[3, 1, 2, 1, 3], 100);
        assert_eq!(pop(&mut index, 0), [0, 1, 2, 3, 4]);
        for (slot, release) in [(4, 5), (0, 5), (2, 3), (1, 5), (3, 9)] {
            index.reinsert(slot, release);
        }
        assert_eq!(pop(&mut index, 2), Vec::<usize>::new());
        assert_eq!(pop(&mut index, 5), [0, 1, 2, 4]);
        assert_eq!(pop(&mut index, 100), [3]);
        assert_eq!(index.popped, 10);
    }

    #[test]
    fn heap_next_active_ignores_heaps_below_the_mode() {
        let mut index = heap_over(&[1, 2, 3], 100);
        pop(&mut index, 0);
        assert_eq!(index.next_active(CritLevel::LO, &[]), None);
        for (slot, release) in [(0, 1), (1, 5), (2, 9)] {
            index.reinsert(slot, release);
        }
        let at = |index: &HeapIndex, mode: u8| index.next_active(CritLevel::new(mode), &[]);
        assert_eq!([1, 2, 3].map(|m| at(&index, m)), [Some(1), Some(5), Some(9)]);
        // A release at or past the horizon is retired, not filed.
        pop(&mut index, 9);
        index.reinsert(2, 100);
        assert_eq!(at(&index, 3), None);
    }

    /// Passes a run's index calls through to another index, counting the
    /// pops (and those that came back empty), the drained slots, the
    /// reinserts that stay below the horizon and the `next_active` calls.
    struct Recording<I> {
        inner: I,
        horizon: Tick,
        pops: u64,
        empty_pops: u64,
        drained: u64,
        refiled: u64,
        active_calls: Cell<u64>,
    }

    impl<I: ReleaseIndex> ReleaseIndex for Recording<I> {
        fn pop_due(&mut self, time: Tick, releases: &[Tick], out: &mut Vec<usize>) {
            self.inner.pop_due(time, releases, out);
            self.pops += 1;
            self.empty_pops += u64::from(out.is_empty());
            self.drained += out.len() as u64;
        }

        fn reinsert(&mut self, slot: usize, next_release: Tick) {
            self.refiled += u64::from(next_release < self.horizon);
            self.inner.reinsert(slot, next_release);
        }

        fn next_due(&self, releases: &[Tick]) -> Option<Tick> {
            self.inner.next_due(releases)
        }

        fn next_active(&self, mode: CritLevel, releases: &[Tick]) -> Option<Tick> {
            self.active_calls.set(self.active_calls.get() + 1);
            self.inner.next_active(mode, releases)
        }
    }

    const RECORDED_HORIZON: Tick = 4_000;

    /// Run a three-level core that mode-switches, drops and idle-resets
    /// under worst-case behaviour on `index`, recording its calls.
    fn recorded_run<I: ReleaseIndex>(
        index: impl FnOnce(&[&McTask], Tick) -> I,
    ) -> (Recording<I>, CoreReport, Trace) {
        let lo = task(0, 10, 1, &[3]);
        let mid = task(1, 20, 2, &[2, 5]);
        let hi = task(2, 40, 3, &[2, 4, 9]);
        let tasks = vec![&lo, &mid, &hi];
        let sim = CoreSim::new(tasks.clone(), SchedulerKind::EdfVd(vd_for(&tasks, 3)));
        let mut rec = Recording {
            inner: index(&tasks, RECORDED_HORIZON),
            horizon: RECORDED_HORIZON,
            pops: 0,
            empty_pops: 0,
            drained: 0,
            refiled: 0,
            active_calls: Cell::new(0),
        };
        let mut trace = Trace::enabled(1 << 16);
        let report = sim.run_on(&mut rec, &mut LevelCap::new(3), RECORDED_HORIZON, &mut trace);
        assert!(report.mode_switches > 0 && report.idle_resets > 0, "{report:?}");
        (rec, report, trace)
    }

    #[test]
    fn heap_pushes_are_seeds_plus_refiled_drains_and_nothing_at_mode_changes() {
        let (rec, ..) = recorded_run(HeapIndex::new);
        assert!(rec.refiled <= rec.drained);
        assert_eq!(rec.inner.popped, rec.drained);
        assert_eq!(rec.inner.pushes, 3 + rec.refiled);
    }

    #[test]
    fn the_loop_asks_only_at_release_instants_and_mode_changes() {
        let (scan, scan_report, scan_trace) = recorded_run(ScanIndex::new);
        let (heap, heap_report, heap_trace) = recorded_run(HeapIndex::new);
        assert_eq!(scan_report, heap_report);
        assert_eq!(scan_trace.events(), heap_trace.events());
        let changes = scan_report.mode_switches + scan_report.idle_resets;
        for (pops, empty_pops, active_calls) in [
            (scan.pops, scan.empty_pops, scan.active_calls.get()),
            (heap.pops, heap.empty_pops, heap.active_calls.get()),
        ] {
            // Every pop the loop makes finds a due slot.
            assert_eq!(empty_pops, 0);
            // At most one active-release question per drain or mode
            // change, plus one for the first stop; the run spends time
            // above level 1, so it asks some.
            assert!(active_calls > 0);
            assert!(active_calls <= pops + changes + 1, "{active_calls} > {pops} + {changes} + 1");
        }
        assert_eq!((scan.pops, scan.drained), (heap.pops, heap.drained));
    }

    /// The heaps, with `next_active` reading every heap — below-mode
    /// slots included — as if the mode were level 1.
    struct AllHeapsActive(HeapIndex);

    /// The heaps, with `pop_due` losing the highest due slot whenever
    /// two or more are due.
    struct LosesADueSlot(HeapIndex);

    impl ReleaseIndex for AllHeapsActive {
        fn pop_due(&mut self, time: Tick, releases: &[Tick], out: &mut Vec<usize>) {
            self.0.pop_due(time, releases, out);
        }

        fn reinsert(&mut self, slot: usize, next_release: Tick) {
            self.0.reinsert(slot, next_release);
        }

        fn next_due(&self, releases: &[Tick]) -> Option<Tick> {
            self.0.next_due(releases)
        }

        fn next_active(&self, _mode: CritLevel, _releases: &[Tick]) -> Option<Tick> {
            self.0.least_top(0)
        }
    }

    impl ReleaseIndex for LosesADueSlot {
        fn pop_due(&mut self, time: Tick, releases: &[Tick], out: &mut Vec<usize>) {
            self.0.pop_due(time, releases, out);
            if out.len() > 1 {
                out.pop();
            }
        }

        fn reinsert(&mut self, slot: usize, next_release: Tick) {
            self.0.reinsert(slot, next_release);
        }

        fn next_due(&self, releases: &[Tick]) -> Option<Tick> {
            self.0.next_due(releases)
        }

        fn next_active(&self, mode: CritLevel, releases: &[Tick]) -> Option<Tick> {
            self.0.next_active(mode, releases)
        }
    }

    #[test]
    fn checked_index_agrees_when_both_indexes_are_sound() {
        let (checked, report, trace) = recorded_run(|tasks, horizon| {
            CheckedIndex::new(ScanIndex::new(tasks, horizon), HeapIndex::new(tasks, horizon))
        });
        assert_eq!(checked.inner.disagreement(), None);
        let (_, scan_report, scan_trace) = recorded_run(ScanIndex::new);
        assert_eq!(report, scan_report);
        assert_eq!(trace.events(), scan_trace.events());
    }

    #[test]
    fn checked_index_reports_an_active_release_read_below_the_mode() {
        let (checked, report, trace) = recorded_run(|tasks, horizon| {
            CheckedIndex::new(
                ScanIndex::new(tasks, horizon),
                AllHeapsActive(HeapIndex::new(tasks, horizon)),
            )
        });
        assert!(
            matches!(checked.inner.disagreement(), Some(Disagreement::NextActive(mode)) if mode > CritLevel::LO),
            "{:?}",
            checked.inner.disagreement()
        );
        // The oracle drove the run: its report and trace are the scan's.
        let (_, scan_report, scan_trace) = recorded_run(ScanIndex::new);
        assert_eq!(report, scan_report);
        assert_eq!(trace.events(), scan_trace.events());
        // The faulty index alone only adds stops, so comparing its trace
        // with the oracle's would not have caught it.
        let (_, faulty_report, faulty_trace) =
            recorded_run(|tasks, horizon| AllHeapsActive(HeapIndex::new(tasks, horizon)));
        assert_eq!(faulty_report, scan_report);
        assert_eq!(faulty_trace.events(), scan_trace.events());
    }

    #[test]
    fn checked_index_reports_a_lost_due_slot() {
        let (checked, ..) = recorded_run(|tasks, horizon| {
            CheckedIndex::new(
                ScanIndex::new(tasks, horizon),
                LosesADueSlot(HeapIndex::new(tasks, horizon)),
            )
        });
        // All three slots are due at the first stop.
        assert_eq!(checked.inner.disagreement(), Some(Disagreement::PopDue(0)));
    }
}

#[cfg(test)]
mod properties {
    use crate::core::{
        ArrivalModel, CoreSim, DegradationPolicy, Overheads, SchedulerKind, SimEngine,
    };
    use crate::report::CoreReport;
    use crate::scenario::{LevelCap, Probabilistic, Scenario};
    use crate::trace::Trace;
    use mcs_model::{CritLevel, McTask, TaskBuilder, TaskId, Tick};
    use proptest::prelude::*;

    #[derive(Clone, Debug)]
    struct TaskSpec {
        period: u64,
        level: u8,
        lo_frac: f64,
        hi_frac: f64,
    }

    /// Closed sum over the scenario types the proptest draws from (the
    /// `Scenario` trait is not dyn-dispatched in the engine API).
    #[derive(Clone, Debug)]
    enum AnyScenario {
        Cap(LevelCap),
        Prob(Probabilistic),
        Single(crate::scenario::SingleOverrun),
    }

    impl Scenario for AnyScenario {
        fn demand(&mut self, task: &McTask, job_index: u64) -> Tick {
            match self {
                AnyScenario::Cap(s) => s.demand(task, job_index),
                AnyScenario::Prob(s) => s.demand(task, job_index),
                AnyScenario::Single(s) => s.demand(task, job_index),
            }
        }

        fn behaviour_level(&self) -> CritLevel {
            match self {
                AnyScenario::Cap(s) => s.behaviour_level(),
                AnyScenario::Prob(s) => s.behaviour_level(),
                AnyScenario::Single(s) => s.behaviour_level(),
            }
        }
    }

    fn task_spec() -> impl Strategy<Value = TaskSpec> {
        (2u64..200, 1u8..=8, 0.05f64..0.9, 0.05f64..0.9).prop_map(
            |(period, level, lo_frac, hi_frac)| TaskSpec { period, level, lo_frac, hi_frac },
        )
    }

    /// Build the tasks, scaling every WCET fraction by `load / N` so that
    /// light sets idle (and idle-reset from high modes) while heavy ones
    /// stay overloaded.
    fn build(specs: &[TaskSpec], load: f64) -> Vec<McTask> {
        let scale = load / specs.len() as f64;
        specs
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let lo = ((s.period as f64 * s.lo_frac * scale) as u64).clamp(1, s.period);
                let step = ((s.period as f64 * s.hi_frac * scale) as u64).max(1);
                let mut wcet = vec![lo];
                let mut prev = lo;
                for _ in 1..s.level {
                    prev = (prev + step).min(s.period);
                    wcet.push(prev);
                }
                TaskBuilder::new(TaskId(i as u32))
                    .period(s.period)
                    .level(s.level)
                    .wcet(&wcet)
                    .build()
                    .unwrap()
            })
            .collect()
    }

    /// One drawn differential case: a task set and every other input a
    /// run takes.
    struct Case {
        tasks: Vec<McTask>,
        scheduler_pick: u8,
        scenario_pick: u8,
        arrivals: ArrivalModel,
        overheads: Overheads,
        seed: u64,
        horizon: Tick,
    }

    /// Random task sets of up to 16 tasks over up to 8 levels (so mode
    /// cascades and idle resets from high modes reach every heap), with
    /// schedulers, scenarios, arrival models, overheads and degradation
    /// policies.
    fn case() -> impl Strategy<Value = Case> {
        (
            (
                prop::collection::vec(task_spec(), 1..=16),
                0u8..3,
                0u8..3,
                (any::<bool>(), 0.0f64..1.0, any::<u64>()),
            ),
            (0u64..3, 0u64..5, any::<u64>(), 1u64..6_000, 0.2f64..4.0),
        )
            .prop_map(
                |(
                    (specs, scheduler_pick, scenario_pick, sporadic),
                    (cs, ms, seed, horizon, load),
                )| {
                    Case {
                        tasks: build(&specs, load),
                        scheduler_pick,
                        scenario_pick,
                        arrivals: match sporadic {
                            (false, _, _) => ArrivalModel::Periodic,
                            (true, slack, s) => ArrivalModel::Sporadic { slack, seed: s },
                        },
                        overheads: Overheads { context_switch: cs, mode_switch: ms },
                        seed,
                        horizon,
                    }
                },
            )
    }

    impl Case {
        fn levels(&self) -> u8 {
            self.tasks.iter().map(|t| t.level().get()).max().unwrap()
        }

        fn sim(&self) -> CoreSim<'_> {
            let refs: Vec<&McTask> = self.tasks.iter().collect();
            let table = mcs_model::UtilTable::from_tasks(self.levels(), refs.iter().copied());
            let analysis = mcs_analysis::Theorem1::compute(&table);
            let scheduler = match self.scheduler_pick {
                0 => SchedulerKind::PlainEdf,
                1 => SchedulerKind::deadline_monotonic(&refs),
                _ => match mcs_analysis::VdAssignment::compute(&table, &analysis) {
                    Some(vd) => SchedulerKind::EdfVd(vd),
                    None => SchedulerKind::PlainEdf, // infeasible subset: fall back
                },
            };
            let degradation = if self.seed.is_multiple_of(2) {
                DegradationPolicy::Drop
            } else {
                match mcs_analysis::elastic_stretch_factors(&table, &analysis) {
                    Some(factors) => DegradationPolicy::Elastic { factors },
                    None => DegradationPolicy::Drop,
                }
            };
            CoreSim::new(refs, scheduler)
                .with_arrivals(self.arrivals.clone())
                .with_overheads(self.overheads)
                .with_degradation(degradation)
        }

        fn scenario(&self) -> AnyScenario {
            let (seed, levels) = (self.seed, self.levels());
            match self.scenario_pick {
                0 => AnyScenario::Cap(LevelCap::new(1 + (seed % u64::from(levels)) as u8)),
                1 => AnyScenario::Prob(Probabilistic::new(0.2, levels, seed)),
                _ => AnyScenario::Single(crate::scenario::SingleOverrun::new(
                    TaskId((seed % self.tasks.len() as u64) as u32),
                    seed % 4,
                    levels,
                )),
            }
        }

        fn run(&self, engine: SimEngine) -> (CoreReport, Trace) {
            let mut trace = Trace::enabled(1 << 18);
            let report =
                self.sim().with_engine(engine).run(&mut self.scenario(), self.horizon, &mut trace);
            (report, trace)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The differential contract: the run loop on the per-level heaps
        /// is bit-identical to the loop on the scan oracle — same report,
        /// same trace.
        #[test]
        fn event_engine_is_bit_identical_to_tick_oracle(case in case()) {
            let (tick_report, tick_trace) = case.run(SimEngine::Tick);
            let (event_report, event_trace) = case.run(SimEngine::Event);
            prop_assert_eq!(tick_report, event_report);
            prop_assert_eq!(tick_trace.events(), event_trace.events());
        }

        /// One checked run gives the report and trace of a run on either
        /// index alone, and reports that the two indexes agreed.
        #[test]
        fn checked_run_equals_both_single_index_runs(case in case()) {
            let mut trace = Trace::enabled(1 << 18);
            let (report, agreed) =
                case.sim().run_checked(&mut case.scenario(), case.horizon, &mut trace);
            prop_assert!(agreed);
            for engine in [SimEngine::Tick, SimEngine::Event] {
                let (single_report, single_trace) = case.run(engine);
                prop_assert_eq!(&report, &single_report);
                prop_assert_eq!(trace.events(), single_trace.events());
            }
        }
    }
}
