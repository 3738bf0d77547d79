//! The incremental [`ProbeEngine`] — shared placement state for every
//! probe-style partitioner, built on the zero-allocation Theorem-1 kernel
//! of [`mcs_analysis::probe`].
//!
//! Responsibilities:
//!
//! * precompute every task's utilization row once per task set into the
//!   struct-of-arrays [`TaskTable`] (the `c/p` divisions are never
//!   repeated inside the placement loop);
//! * maintain all cores' running sums in one [`CoreBank`] — contiguous
//!   per-`(j, k)` planes, updated incrementally on commit/evict with the
//!   exact `UtilTable` operation sequence;
//! * cache the committed per-core utilization `U^{Ψ_m}` and its running
//!   min/max so the imbalance factor `Λ` (Eq. (16)) is O(1) per placement
//!   instead of an O(M) scan;
//! * expose the batch-probe API [`ProbeEngine::probe_all_cores`] — a thin
//!   wrapper over the lane-parallel [`batch_probe_verdicts`] kernel that
//!   evaluates all `M` cores in one sweep over the contiguous planes into
//!   a reusable scratch buffer (zero allocation after warm-up).
//!
//! Everything the engine reports is **bit-identical** to the generic
//! `Theorem1::compute`-over-`WithTask` path the partitioners used before
//! (see the equivalence contract in [`mcs_analysis::probe`]); the
//! `probe-engine-consistency` audit rule re-checks this claim on every
//! audited partition.
//!
//! [`PlacementScratch`] bundles the engine with the ordering buffers the
//! partitioners need and lives in a thread-local, so a sweep worker running
//! hundreds of thousands of placements reuses one warm allocation set.

use std::cell::{Cell, RefCell};

use mcs_analysis::{
    batch_probe_verdicts, batch_probe_verdicts_until, CoreBank, CoreSums, CoreView, Probe, TaskRow,
    TaskTable, Verdict, EPS, LANES,
};
use mcs_model::{CritLevel, TaskId, TaskSet};
use mcs_obs::{Counter, Phase};

use crate::fit::FitTest;

/// Local telemetry tally. The probe kernel runs in tens of nanoseconds, so
/// per-probe atomic traffic would dominate it; instead the engine counts
/// into plain [`Cell`]s (a register add each — `&self` probe methods can
/// still count) and [`with_scratch`] flushes the whole tally to the global
/// [`mcs_obs`] registry once per partitioning run.
#[derive(Debug, Default)]
struct EngineTally {
    issued: Cell<u64>,
    rejected: Cell<u64>,
    feasible: Cell<u64>,
    commits: Cell<u64>,
    untracked: Cell<u64>,
    evictions: Cell<u64>,
    resets: Cell<u64>,
    attempts: Cell<u64>,
    alpha_fallbacks: Cell<u64>,
    repair_moves: Cell<u64>,
    batch_calls: Cell<u64>,
    batch_lanes: Cell<u64>,
}

#[inline]
fn bump(cell: &Cell<u64>, n: u64) {
    cell.set(cell.get() + n);
}

fn flush(counter: Counter, cell: &Cell<u64>) {
    let n = cell.take();
    if n > 0 {
        mcs_obs::add(counter, n);
    }
}

/// Incremental probe state: per-task utilization rows, per-core running
/// sums, cached core utilizations and their min/max.
#[derive(Debug, Default)]
pub struct ProbeEngine {
    /// Per-level utilization planes of the loaded task set (SoA).
    tasks: TaskTable,
    /// All cores' triangular sums as contiguous per-entry planes (SoA).
    bank: CoreBank,
    /// Committed metric value per core (the Theorem-1 core utilization for
    /// CA-TPA; variants may commit the slack or Eq. (4) readings). Always
    /// finite: only probed-feasible placements are committed.
    utils: Vec<f64>,
    /// Running `max_m utils[m]` / `min_m utils[m]`, maintained on every
    /// commit/evict so [`Self::imbalance`] is O(1).
    max_util: f64,
    min_util: f64,
    /// Reusable output buffer of [`Self::probe_all_cores`].
    probes: Vec<Verdict>,
    /// Repair search scratch ([`Self::find_repair_move`]): one core's
    /// resident candidates in search order, the removal bank holding one
    /// lane per candidate, and the verdict buffers of its swap-stage and
    /// relocation-stage sweeps.
    repair_cands: Vec<TaskId>,
    removals: CoreBank,
    swap_verdicts: Vec<Verdict>,
    reloc_verdicts: Vec<Verdict>,
    /// Feasible-core bitmask of the most recent full sweep, maintained
    /// only while the flight recorder is on (cores ≥ 64 fold out of the
    /// mask). Admission decision events carry it as their verdict payload.
    last_sweep_mask: u64,
    /// Telemetry cells, flushed by [`with_scratch`].
    tally: EngineTally,
}

impl ProbeEngine {
    /// Fresh, empty engine (no task set loaded).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Load a task set and reset all per-core state for `cores` empty
    /// cores, reusing every buffer from previous runs.
    pub fn reset(&mut self, ts: &TaskSet, cores: usize) {
        assert!(cores >= 1, "need at least one core");
        if mcs_obs::compiled() {
            bump(&self.tally.resets, 1);
        }
        self.tasks.reset(ts);
        self.bank.reset(ts.num_levels(), cores);
        self.utils.clear();
        self.utils.resize(cores, 0.0);
        self.max_util = 0.0;
        self.min_util = 0.0;
    }

    /// Number of cores of the current run.
    #[must_use]
    pub fn num_cores(&self) -> usize {
        self.bank.num_cores()
    }

    /// The precomputed row of a task, materialized from the planes (the
    /// cached divisions are verbatim copies — see [`TaskTable::row`]).
    #[must_use]
    pub fn row(&self, id: TaskId) -> TaskRow {
        self.tasks.row(id.index())
    }

    /// A task's own-level utilization `u_i(l_i)` — O(1) plane read, no row
    /// gather (the bin-packing family's load key).
    // lint: no_alloc
    #[inline]
    #[must_use]
    pub fn util_own(&self, id: TaskId) -> f64 {
        self.tasks.util_own(id.index())
    }

    /// Committed per-core utilizations.
    #[must_use]
    pub fn utils(&self) -> &[f64] {
        &self.utils
    }

    /// Scalar view of one core's running sums (used by tests and
    /// diagnostics).
    #[must_use]
    pub fn core(&self, m: usize) -> CoreView<'_> {
        self.bank.view(m)
    }

    /// Materialize one core's running sums as a standalone [`CoreSums`]
    /// (bit-exact copies — the admission-state audit compares these
    /// against a fresh rebuild of the surviving member list).
    #[must_use]
    pub fn core_sums(&self, m: usize) -> CoreSums {
        self.bank.to_core_sums(m)
    }

    /// Probe one core: Theorem 1 on `Ψ_m ∪ {task}`, full `A(k)` vector
    /// (the audit layer and tests read it; placement loops use
    /// [`Self::probe_verdict`]). Reference path, not telemetry-counted.
    #[must_use]
    pub fn probe(&self, m: usize, id: TaskId) -> Probe {
        self.bank.view(m).probe(&self.tasks.row(id.index()))
    }

    /// Count one decided probe into the local tally.
    #[inline]
    pub(crate) fn note_probe(&self, feasible: bool) {
        if mcs_obs::compiled() {
            bump(&self.tally.issued, 1);
            bump(if feasible { &self.tally.feasible } else { &self.tally.rejected }, 1);
        }
    }

    /// Count one batch sweep: one call, the lane slots of the chunks it
    /// evaluated (all of them unless a stop predicate ended it early), and
    /// one decided probe per emitted verdict.
    #[inline]
    fn note_sweep(&self, verdicts: &[Verdict]) {
        if mcs_obs::compiled() {
            let issued = verdicts.len() as u64;
            let feasible = verdicts.iter().filter(|v| v.feasible()).count() as u64;
            bump(&self.tally.batch_calls, 1);
            bump(&self.tally.batch_lanes, (verdicts.len().div_ceil(LANES) * LANES) as u64);
            bump(&self.tally.issued, issued);
            bump(&self.tally.feasible, feasible);
            bump(&self.tally.rejected, issued - feasible);
        }
    }

    /// Count one placement attempt (one task a scheme tried to place).
    #[inline]
    pub(crate) fn note_attempt(&self) {
        if mcs_obs::compiled() {
            bump(&self.tally.attempts, 1);
        }
    }

    /// Count one α-threshold (imbalance fallback) activation.
    #[inline]
    pub(crate) fn note_alpha_fallback(&self) {
        if mcs_obs::compiled() {
            bump(&self.tally.alpha_fallbacks, 1);
        }
    }

    /// Count one applied repair (local-search) move.
    #[inline]
    pub(crate) fn note_repair_move(&self) {
        if mcs_obs::compiled() {
            bump(&self.tally.repair_moves, 1);
        }
    }

    /// Flush the local tally to the global registry (called by
    /// [`with_scratch`] once per partitioning run).
    pub(crate) fn flush_telemetry(&self) {
        if mcs_obs::compiled() {
            let t = &self.tally;
            flush(Counter::EngineProbesIssued, &t.issued);
            flush(Counter::EngineProbesRejected, &t.rejected);
            flush(Counter::EngineProbesFeasible, &t.feasible);
            flush(Counter::EngineCommits, &t.commits);
            flush(Counter::EnginePlacementsUntracked, &t.untracked);
            flush(Counter::EngineEvictions, &t.evictions);
            flush(Counter::EngineResets, &t.resets);
            flush(Counter::PlacementAttempts, &t.attempts);
            flush(Counter::AlphaFallbacks, &t.alpha_fallbacks);
            flush(Counter::RepairMoves, &t.repair_moves);
            flush(Counter::EngineBatchCalls, &t.batch_calls);
            flush(Counter::EngineBatchLaneSlots, &t.batch_lanes);
        }
    }

    /// Fused probe of one core — the placement hot path: one kernel sweep
    /// yields feasibility, Eq. (9) utilization and the slack reading,
    /// bit-identical to the [`Self::probe`] accessors.
    // lint: no_alloc
    #[must_use]
    pub fn probe_verdict(&self, m: usize, id: TaskId) -> Verdict {
        let row = self.tasks.row(id.index());
        let v = self.bank.view(m).probe_verdict(&row);
        self.note_probe(v.feasible());
        v
    }

    /// Batch probe: evaluate `Ψ_m ∪ {task}` for every core `m` in one
    /// lane-parallel sweep over the bank's contiguous planes (the
    /// [`batch_probe_verdicts`] kernel) into the reusable scratch buffer.
    /// Returns the verdicts alongside the committed utilizations (the
    /// selection keys need both). Each verdict is bit-identical to the
    /// scalar [`Self::probe_verdict`] of the same core.
    // lint: no_alloc
    pub fn probe_all_cores(&mut self, id: TaskId) -> (&[Verdict], &[f64]) {
        self.sweep(id, batch_probe_verdicts);
        (&self.probes, &self.utils)
    }

    /// [`Self::probe_all_cores`] ending after the first lane chunk with a
    /// verdict `stop` accepts ([`batch_probe_verdicts_until`]): a prefix
    /// of the full sweep's verdicts, from which first fit reads its core.
    // lint: no_alloc
    pub fn probe_cores_until(&mut self, id: TaskId, stop: impl Fn(&Verdict) -> bool) -> &[Verdict] {
        self.sweep(id, |bank, row, out| batch_probe_verdicts_until(bank, row, out, stop));
        &self.probes
    }

    /// One timed, counted kernel sweep for `id` into the scratch buffer
    /// (full sweeps pass [`batch_probe_verdicts`], the one compiled copy).
    // lint: no_alloc
    #[inline]
    fn sweep(&mut self, id: TaskId, kernel: impl FnOnce(&CoreBank, &TaskRow, &mut Vec<Verdict>)) {
        let _timer = mcs_obs::span(Phase::ProbeBatch);
        let row = self.tasks.row(id.index());
        {
            let _kernel = mcs_obs::span(Phase::BatchKernel);
            kernel(&self.bank, &row, &mut self.probes);
        }
        self.note_sweep(&self.probes);
        if mcs_obs::tracing_enabled() {
            let mut mask = 0u64;
            for (m, v) in self.probes.iter().enumerate().take(64) {
                if v.feasible() {
                    mask |= 1 << m;
                }
            }
            self.last_sweep_mask = mask;
        }
    }

    /// Feasible-core bitmask of the most recent [`Self::probe_all_cores`]
    /// or [`Self::probe_cores_until`] sweep (stale unless the flight
    /// recorder is on; diagnostic only — no placement decision may read
    /// it).
    #[must_use]
    pub fn last_sweep_mask(&self) -> u64 {
        self.last_sweep_mask
    }

    /// Scalar repair-move probe: Theorem 1 on `Ψ_m ∖ {minus} ∪ {plus}`.
    /// The oracle the swap stage of [`Self::find_repair_move`] is tested
    /// against; no placement path calls it.
    // lint: no_alloc
    #[must_use]
    pub fn probe_swap_verdict(&self, m: usize, minus: TaskId, plus: TaskId) -> Verdict {
        let minus = self.tasks.row(minus.index());
        let plus = self.tasks.row(plus.index());
        let v = self.bank.view(m).probe_swap_verdict(&minus, &plus);
        self.note_probe(v.feasible());
        v
    }

    /// The repair move search shared by the admission engine and
    /// [`crate::CatpaLs`]: the first relocation `(m, cand, m2)` that makes
    /// room for `stuck`, or `None`. Cores `m` are tried in index order and
    /// the residents `members[m]` of each smallest own-level utilization
    /// first (a stable sort, so ties keep list order); a move needs
    /// `stuck` to fit on `m` without `cand` and `cand` to fit on a core
    /// `m2 ≠ m`, the lowest-index one being taken. The search only probes:
    /// the caller applies the move.
    ///
    /// Both stages run on the batch kernel. The swap stage fills the
    /// removal bank with one lane per candidate of core `m` (core `m`'s
    /// sums minus that candidate, [`CoreBank::fill_removals`]) and sweeps
    /// it once with `stuck`'s row — lane for lane the scalar
    /// [`Self::probe_swap_verdict`]. The relocation stage sweeps all cores
    /// once per swap-feasible candidate, in order, into a private buffer:
    /// [`Self::last_sweep_mask`] keeps the select sweep's mask. Every
    /// sweep is counted like a [`Self::probe_all_cores`] call.
    // lint: no_alloc
    pub fn find_repair_move(
        &mut self,
        stuck: TaskId,
        members: &[Vec<TaskId>],
    ) -> Option<(usize, TaskId, usize)> {
        debug_assert_eq!(members.len(), self.num_cores());
        let stuck = self.tasks.row(stuck.index());
        for (m, residents) in members.iter().enumerate() {
            if residents.is_empty() {
                continue;
            }
            let tasks = &self.tasks;
            self.repair_cands.clear();
            self.repair_cands.extend_from_slice(residents);
            self.repair_cands.sort_by(|a, b| {
                tasks
                    .util_own(a.index())
                    .partial_cmp(&tasks.util_own(b.index()))
                    .expect("utilizations are finite")
            });
            self.removals.fill_removals(
                &self.bank,
                m,
                self.repair_cands.iter().map(|id| tasks.row(id.index())),
            );
            batch_probe_verdicts(&self.removals, &stuck, &mut self.swap_verdicts);
            self.note_sweep(&self.swap_verdicts);
            for (&cand, swap) in self.repair_cands.iter().zip(&self.swap_verdicts) {
                if !swap.feasible() {
                    continue;
                }
                batch_probe_verdicts(
                    &self.bank,
                    &tasks.row(cand.index()),
                    &mut self.reloc_verdicts,
                );
                self.note_sweep(&self.reloc_verdicts);
                let target = self
                    .reloc_verdicts
                    .iter()
                    .enumerate()
                    .position(|(m2, v)| m2 != m && v.feasible());
                if let Some(m2) = target {
                    return Some((m, cand, m2));
                }
            }
        }
        None
    }

    /// The Eq. (4) own-level total of `Ψ_m ∪ {task}` — the cheap first
    /// stage of the two-stage fit test, O(K) instead of O(K²).
    // lint: no_alloc
    #[must_use]
    pub fn own_level_total_probe(&self, m: usize, id: TaskId) -> f64 {
        let row = self.tasks.row(id.index());
        self.bank.view(m).own_level_total_probe(&row)
    }

    /// Whether `task` fits on core `m` under `fit` — the bin-packing
    /// admission test, short-circuiting exactly like
    /// [`FitTest::feasible`] over a `WithTask` view.
    // lint: no_alloc
    #[must_use]
    pub fn fits(&self, m: usize, id: TaskId, fit: FitTest) -> bool {
        match fit {
            FitTest::Simple => {
                let ok = self.own_level_total_probe(m, id) <= 1.0 + EPS;
                self.note_probe(ok);
                ok
            }
            FitTest::Improved => self.probe_verdict(m, id).feasible(),
            FitTest::SimpleThenImproved => {
                let simple = self.own_level_total_probe(m, id) <= 1.0 + EPS;
                self.note_probe(simple);
                simple || self.probe_verdict(m, id).feasible()
            }
        }
    }

    /// Commit `task` to core `m`, reusing the already probed metric value
    /// `util` (bit-identical to a post-add recomputation — that is the
    /// probe kernel's equivalence contract, so the old "probe, add,
    /// recompute" double evaluation is gone).
    // lint: no_alloc
    pub fn commit(&mut self, id: TaskId, m: usize, util: f64) {
        let _timer = mcs_obs::span(Phase::Commit);
        if mcs_obs::compiled() {
            bump(&self.tally.commits, 1);
        }
        let row = self.tasks.row(id.index());
        self.bank.add(m, &row);
        let old = self.utils[m];
        self.utils[m] = util;
        self.note_util_change(old, util);
    }

    /// Add `task` to core `m` without utilization tracking — for the
    /// bin-packing family, which keys on the classical load, not on the
    /// Theorem-1 utilization.
    pub fn place_untracked(&mut self, id: TaskId, m: usize) {
        if mcs_obs::compiled() {
            bump(&self.tally.untracked, 1);
        }
        let row = self.tasks.row(id.index());
        self.bank.add(m, &row);
    }

    /// Remove `task` from core `m` (repair moves), re-deriving the core's
    /// committed utilization from the shrunk sums.
    pub fn evict(&mut self, id: TaskId, m: usize) {
        if mcs_obs::compiled() {
            bump(&self.tally.evictions, 1);
        }
        let row = self.tasks.row(id.index());
        self.bank.remove(m, &row);
        let old = self.utils[m];
        let new = {
            let _timer = mcs_obs::span(Phase::Theorem1Eval);
            self.bank
                .view(m)
                .evaluate_verdict()
                .core_utilization
                .expect("a subset of a feasible core stays feasible")
        };
        self.utils[m] = new;
        self.note_util_change(old, new);
    }

    /// Remove `task` from core `m` without utilization tracking — the
    /// eviction counterpart of [`Self::place_untracked`]. [`Self::evict`]
    /// re-derives the committed Theorem-1 utilization, which is wrong for
    /// cores the bin-packing family loaded untracked (their `utils[m]`
    /// stays 0.0 by contract); this variant only shrinks the running sums,
    /// keeping [`Self::probe_all_cores`] valid after the removal.
    // lint: no_alloc
    pub fn evict_untracked(&mut self, id: TaskId, m: usize) {
        if mcs_obs::compiled() {
            bump(&self.tally.evictions, 1);
        }
        let row = self.tasks.row(id.index());
        self.bank.remove(m, &row);
    }

    /// Commit a migration in one O(K) delta: replace `minus` by `plus` on
    /// core `m` and record the new metric value `util`. The committed sums
    /// are bit-identical to the [`Self::probe_swap_verdict`] view that
    /// justified the move (clamp-then-accumulate per entry — the
    /// [`CoreBank::swap`] contract), i.e. to a sequential evict + commit,
    /// without the intermediate utilization re-derivation [`Self::evict`]
    /// performs.
    // lint: no_alloc
    pub fn swap_committed(&mut self, minus: TaskId, plus: TaskId, m: usize, util: f64) {
        if mcs_obs::compiled() {
            bump(&self.tally.evictions, 1);
            bump(&self.tally.commits, 1);
        }
        let minus = self.tasks.row(minus.index());
        let plus = self.tasks.row(plus.index());
        self.bank.swap(m, &minus, &plus);
        let old = self.utils[m];
        self.utils[m] = util;
        self.note_util_change(old, util);
    }

    /// Refold core `m` from scratch: clear its sums and re-accumulate
    /// `survivors` in the given order, re-deriving the committed
    /// utilization from the refolded sums (0.0 for an emptied core). This
    /// is the departure path of the admission engine: a refold is by
    /// construction bit-identical to a fresh rebuild of the surviving
    /// subset — the clamped O(K) remove delta is not (floating-point
    /// subtraction does not exactly undo addition), so departures pay
    /// O(|Ψ_m| · K) to keep the engine's live state equal to a
    /// from-scratch repartition of the survivors (the
    /// `admission-state-consistency` audit contract).
    // lint: no_alloc
    pub fn refold_core(&mut self, m: usize, survivors: &[TaskId]) {
        if mcs_obs::compiled() {
            bump(&self.tally.evictions, 1);
        }
        self.bank.clear_core(m);
        for id in survivors {
            let row = self.tasks.row(id.index());
            self.bank.add(m, &row);
        }
        let old = self.utils[m];
        let new = if survivors.is_empty() {
            0.0
        } else {
            let _timer = mcs_obs::span(Phase::Theorem1Eval);
            self.bank
                .view(m)
                .evaluate_verdict()
                .core_utilization
                .expect("a subset of a feasible core stays feasible")
        };
        self.utils[m] = new;
        self.note_util_change(old, new);
    }

    /// Maintain the running min/max after `utils[m]` changed `old → new`.
    /// When the changed core *was* the extremum and moved inward, the
    /// extremum is rescanned (rare: utilization usually grows on commit).
    fn note_util_change(&mut self, old: f64, new: f64) {
        if new >= self.max_util {
            self.max_util = new;
        } else if old >= self.max_util {
            self.max_util = self.utils.iter().copied().fold(0.0f64, f64::max);
        }
        if new <= self.min_util {
            self.min_util = new;
        } else if old <= self.min_util {
            self.min_util = self.utils.iter().copied().fold(f64::INFINITY, f64::min);
        }
    }

    /// Current workload imbalance factor `Λ` (Eq. (16)) over the committed
    /// utilizations — O(1), bit-identical to [`crate::catpa::imbalance`]
    /// on the utils slice (min/max are order-independent folds).
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        let u_sys = self.max_util;
        if u_sys <= 0.0 {
            return 0.0;
        }
        (u_sys - self.min_util) / u_sys
    }
}

/// Reusable per-thread placement state: the probe engine plus the ordering
/// and load buffers the partitioners fill each run. One warm
/// `PlacementScratch` serves every partitioner invocation on its thread.
#[derive(Debug, Default)]
pub struct PlacementScratch {
    /// The incremental probe engine.
    pub engine: ProbeEngine,
    /// Placement order of the current run.
    pub order: Vec<TaskId>,
    /// Sort-key buffer for the ordering rules.
    pub keyed: Vec<(TaskId, f64, CritLevel)>,
    /// System-wide level totals `U(1)..U(K)` (contribution ordering).
    pub totals: Vec<f64>,
    /// Classical per-core loads `Σ u_i(l_i)` (bin-packing family).
    pub loads: Vec<f64>,
    /// Per-core resident lists in placement order (CA-TPA+LS repair).
    pub members: Vec<Vec<TaskId>>,
}

impl PlacementScratch {
    /// Fresh scratch with empty buffers.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

thread_local! {
    static SCRATCH: RefCell<PlacementScratch> = RefCell::new(PlacementScratch::new());
}

/// Run `f` with this thread's warm [`PlacementScratch`]. Re-entrant calls
/// (a partitioner invoking another partitioner, e.g. annealing seeding from
/// CA-TPA) fall back to a fresh scratch rather than aliasing the borrow.
// lint: no_alloc
pub fn with_scratch<R>(f: impl FnOnce(&mut PlacementScratch) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => {
            mcs_obs::counter!(Counter::ScratchReuseHits);
            let result = f(&mut scratch);
            scratch.engine.flush_telemetry();
            result
        }
        Err(_) => {
            mcs_obs::counter!(Counter::ScratchFallbacks);
            let mut scratch = PlacementScratch::new();
            let result = f(&mut scratch);
            scratch.engine.flush_telemetry();
            result
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_analysis::Theorem1;
    use mcs_model::{McTask, TaskBuilder, UtilTable, WithTask};

    fn task(id: u32, period: u64, level: u8, wcet: &[u64]) -> McTask {
        TaskBuilder::new(TaskId(id)).period(period).level(level).wcet(wcet).build().unwrap()
    }

    fn mixed_set() -> TaskSet {
        TaskSet::new(
            2,
            vec![
                task(0, 1000, 2, &[339, 633]),
                task(1, 1000, 2, &[175, 326]),
                task(2, 500, 1, &[200]),
                task(3, 200, 2, &[30, 70]),
                task(4, 100, 1, &[25]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn batch_probe_matches_reference_per_core() {
        let ts = mixed_set();
        let mut engine = ProbeEngine::new();
        engine.reset(&ts, 3);
        engine.commit(TaskId(0), 0, engine.probe(0, TaskId(0)).core_utilization().unwrap());
        engine.commit(TaskId(2), 1, engine.probe(1, TaskId(2)).core_utilization().unwrap());

        let mut tables = [UtilTable::new(2), UtilTable::new(2), UtilTable::new(2)];
        tables[0].add(ts.task(TaskId(0)));
        tables[1].add(ts.task(TaskId(2)));

        let (probes, _) = engine.probe_all_cores(TaskId(1));
        for (m, p) in probes.iter().enumerate() {
            let reference = Theorem1::compute(&WithTask::new(&tables[m], ts.task(TaskId(1))));
            assert_eq!(
                p.core_utilization.map(f64::to_bits),
                reference.core_utilization().map(f64::to_bits),
                "core {m}"
            );
        }
    }

    #[test]
    fn imbalance_is_bit_identical_to_the_slice_fold() {
        let ts = mixed_set();
        let mut engine = ProbeEngine::new();
        engine.reset(&ts, 3);
        for (id, m) in [(0u32, 0usize), (1, 1), (2, 1), (3, 2), (4, 0)] {
            let u = engine.probe(m, TaskId(id)).core_utilization().unwrap();
            engine.commit(TaskId(id), m, u);
            assert_eq!(
                engine.imbalance().to_bits(),
                crate::catpa::imbalance(engine.utils()).to_bits()
            );
        }
        // Evictions walk the extrema back down.
        for (id, m) in [(0u32, 0usize), (3, 2)] {
            engine.evict(TaskId(id), m);
            assert_eq!(
                engine.imbalance().to_bits(),
                crate::catpa::imbalance(engine.utils()).to_bits()
            );
        }
    }

    #[test]
    fn fits_matches_fit_test_on_views() {
        let ts = mixed_set();
        let mut engine = ProbeEngine::new();
        engine.reset(&ts, 2);
        engine.place_untracked(TaskId(0), 0);
        let mut table = UtilTable::new(2);
        table.add(ts.task(TaskId(0)));
        for fit in [FitTest::Simple, FitTest::Improved, FitTest::SimpleThenImproved] {
            for id in [1u32, 2, 3, 4] {
                let view = WithTask::new(&table, ts.task(TaskId(id)));
                assert_eq!(
                    engine.fits(0, TaskId(id), fit),
                    fit.feasible(&view),
                    "fit {fit:?} task {id}"
                );
            }
        }
    }

    #[test]
    fn probe_all_cores_stays_valid_after_evictions() {
        // Regression: the batch probe must see the shrunk sums after every
        // eviction flavour (tracked, untracked, refold), bit-identical to
        // reference tables fed the same add/remove sequence.
        let ts = mixed_set();
        let mut engine = ProbeEngine::new();
        engine.reset(&ts, 3);
        let mut tables = vec![UtilTable::new(2), UtilTable::new(2), UtilTable::new(2)];
        for (id, m) in [(0u32, 0usize), (1, 1), (2, 1), (3, 2), (4, 0)] {
            let u = engine.probe(m, TaskId(id)).core_utilization().unwrap();
            engine.commit(TaskId(id), m, u);
            tables[m].add(ts.task(TaskId(id)));
        }
        let check = |engine: &mut ProbeEngine, tables: &[UtilTable]| {
            let (probes, _) = engine.probe_all_cores(TaskId(3));
            for (m, p) in probes.iter().enumerate() {
                let reference = Theorem1::compute(&WithTask::new(&tables[m], ts.task(TaskId(3))));
                assert_eq!(
                    p.core_utilization.map(f64::to_bits),
                    reference.core_utilization().map(f64::to_bits),
                    "core {m}"
                );
            }
        };
        // Tracked eviction.
        engine.evict(TaskId(2), 1);
        tables[1].remove(ts.task(TaskId(2)));
        check(&mut engine, &tables);
        // Untracked eviction (no utilization re-derivation).
        engine.evict_untracked(TaskId(4), 0);
        tables[0].remove(ts.task(TaskId(4)));
        check(&mut engine, &tables);
        // Refold (departure path): survivors re-accumulated from scratch.
        engine.refold_core(2, &[]);
        tables[2].remove(ts.task(TaskId(3)));
        check(&mut engine, &tables);
        assert_eq!(engine.utils()[2], 0.0);
    }

    #[test]
    fn swap_committed_lands_on_the_probed_view() {
        let ts = mixed_set();
        let mut engine = ProbeEngine::new();
        engine.reset(&ts, 2);
        engine.commit(TaskId(1), 0, engine.probe(0, TaskId(1)).core_utilization().unwrap());
        engine.commit(TaskId(2), 0, engine.probe(0, TaskId(2)).core_utilization().unwrap());
        // Migrate: replace task 2 by task 3 on core 0 in one delta.
        let v = engine.probe_swap_verdict(0, TaskId(2), TaskId(3));
        let util = v.core_utilization.unwrap();
        engine.swap_committed(TaskId(2), TaskId(3), 0, util);
        assert_eq!(engine.utils()[0].to_bits(), util.to_bits());
        // The committed sums evaluate exactly to the probed swap verdict.
        let resident = engine.core(0).evaluate_verdict();
        assert_eq!(resident.core_utilization.map(f64::to_bits), Some(util.to_bits()));
        assert_eq!(resident.own_level_total.to_bits(), v.own_level_total.to_bits());
        assert_eq!(engine.core(0).task_count(), 2);
    }

    #[test]
    fn refold_matches_fresh_rebuild_bitwise() {
        let ts = mixed_set();
        let survivors = [TaskId(1), TaskId(4)];
        let mut engine = ProbeEngine::new();
        engine.reset(&ts, 2);
        for id in [1u32, 3, 4] {
            let u = engine.probe(0, TaskId(id)).core_utilization().unwrap();
            engine.commit(TaskId(id), 0, u);
        }
        engine.refold_core(0, &survivors);
        let mut fresh = ProbeEngine::new();
        fresh.reset(&ts, 2);
        for id in survivors {
            let u = fresh.probe(0, id).core_utilization().unwrap();
            fresh.commit(id, 0, u);
        }
        let a = engine.core(0).evaluate_verdict();
        let b = fresh.core(0).evaluate_verdict();
        assert_eq!(a.own_level_total.to_bits(), b.own_level_total.to_bits());
        assert_eq!(a.core_utilization.map(f64::to_bits), b.core_utilization.map(f64::to_bits));
        assert_eq!(engine.utils()[0].to_bits(), fresh.utils()[0].to_bits());
    }

    #[test]
    fn reset_reuses_buffers_across_shapes() {
        let ts = mixed_set();
        let mut engine = ProbeEngine::new();
        engine.reset(&ts, 4);
        engine.commit(TaskId(0), 3, engine.probe(3, TaskId(0)).core_utilization().unwrap());
        engine.reset(&ts, 2);
        assert_eq!(engine.num_cores(), 2);
        assert_eq!(engine.utils(), &[0.0, 0.0]);
        assert_eq!(engine.imbalance(), 0.0);
        assert_eq!(engine.core(0).task_count(), 0);
    }

    #[test]
    fn first_fit_sweep_counts_only_the_chunks_it_evaluated() {
        // Cores 0..8 (the first lane chunk) each hold a 0.9 task, so a 0.5
        // task fits nowhere there; cores 8..20 are empty. First fit stops
        // after the second chunk: 16 verdicts in 16 lane slots, not 20 in
        // the 24 of a full sweep.
        let mut tasks: Vec<McTask> = (0..8).map(|i| task(i, 10, 1, &[9])).collect();
        tasks.push(task(8, 10, 1, &[5]));
        let ts = TaskSet::new(1, tasks).unwrap();
        let mut engine = ProbeEngine::new();
        engine.reset(&ts, 20);
        for m in 0..8 {
            engine.place_untracked(TaskId(u32::try_from(m).unwrap()), m);
        }
        let loads = [0.0; 20];
        let chosen = crate::binpack::choose_core(
            crate::binpack::Placement::FirstFit,
            FitTest::default(),
            &mut engine,
            &loads,
            TaskId(8),
            &mut 0,
        );
        assert_eq!(chosen, Some(8));
        // Every count is 0 with telemetry compiled out.
        let on = u64::from(mcs_obs::compiled());
        let t = &engine.tally;
        assert_eq!(t.attempts.get(), on);
        assert_eq!(t.batch_calls.get(), on);
        assert_eq!(t.issued.get(), 16 * on);
        assert_eq!(t.feasible.get(), 8 * on);
        assert_eq!(t.rejected.get(), 8 * on);
        assert_eq!(t.issued.get(), t.feasible.get() + t.rejected.get());
        assert_eq!(t.batch_lanes.get(), 16 * on);
    }

    #[test]
    fn scratch_is_reentrancy_safe() {
        let answer = with_scratch(|outer| {
            outer.order.push(TaskId(7));
            with_scratch(|inner| inner.order.len())
        });
        assert_eq!(answer, 0, "nested call must see a fresh scratch");
        with_scratch(|s| s.order.clear());
    }
}
