//! Struct-of-arrays probe storage and the batch Theorem-1 kernel.
//!
//! [`CoreSums`] keeps one core's triangular `U_j(k)` sums in a fixed-size
//! array — ideal for probing one core, but probing *all M cores* for one
//! candidate task (the shape of every min-increment placement heuristic)
//! walks M disjoint 300-byte structs and re-runs the scalar kernel M times
//! with all its per-call branch and bounds overhead.
//!
//! This module transposes the layout:
//!
//! * [`TaskTable`] — per-*level* utilization planes `utils[k][task]` plus a
//!   level column, the struct-of-arrays twin of a `Vec<TaskRow>`;
//! * [`CoreBank`] — per-`(j, k)` triangle planes `U_j(k)[core]`, each plane
//!   a contiguous run of M (lane-padded) `f64`s, maintained with the exact
//!   `+=`/clamped `-=` op order of [`CoreSums::add`]/`remove`;
//! * [`CoreView`] — a zero-cost strided view of one core inside the bank,
//!   running the *same* monomorphized scalar kernels as [`CoreSums`]
//!   (generic over `SumsRead`), hence bit-identical by construction;
//! * [`batch_probe_verdicts`] — the batch kernel: one sweep over the
//!   contiguous planes evaluates all M cores in fixed-width lanes of
//!   [`LANES`] with branch-free inner loops, a fused λ-recursion/µ-product
//!   pass shared across cores, and the early-exit conditions folded as
//!   per-lane masks instead of per-core control flow;
//! * [`batch_probe_verdicts_until`] — the same sweep with a stop
//!   predicate: it ends after the first chunk holding a verdict the
//!   predicate accepts, so a first-fit search evaluates only the chunks up
//!   to its core. Both entry points run one `batch_sweep::<K>`; the full
//!   sweep passes a constant-false predicate that compiles away.
//!
//! # Bit-identity of the batch kernel
//!
//! Every lane `l` of the batch kernel performs **exactly the floating-point
//! operations of the scalar [`kernel_verdict`] on core `base + l`, in the
//! same order** — lanes never mix (no cross-core reassociation), and the
//! scalar control flow maps onto masks as follows:
//!
//! * the λ-break (`λ_kk` invalid ⇒ stop) becomes a per-lane `alive` flag:
//!   once false, the lane's µ product freezes and its Eq. (9) folds are
//!   skipped — the same suffix of operations the scalar `break` skips;
//! * the `Option` accumulators of the Eq. (9) max-folds become
//!   value+`has` flag pairs with the same `old.max(new)` operand order;
//! * dead and padding lanes still *execute* arithmetic, but those results
//!   are never written to an emitted verdict, so garbage in, nothing out.
//!
//! The audit rule `batch-kernel-consistency` re-checks batch-vs-scalar bit
//! equality on live partitions, and `tests/probe_engine_differential.rs`
//! fuzzes it across K ∈ {2..8} and M ∈ {2, 8, 128}.

use mcs_model::{CritLevel, TaskSet, MAX_LEVELS};

use crate::probe::{
    kernel, kernel_verdict, tri, Added, ProbeView as _, Resident, SumsRead, Swapped, TRI_LEN,
};
use crate::{CoreSums, Probe, TaskRow, Verdict, EPS};

/// `MAX_LEVELS` as a `usize` (array bound of the per-level scratch).
const ML: usize = MAX_LEVELS as usize;

/// Fixed lane width of the batch kernel: 8 × `f64` = one AVX-512 register,
/// two AVX2 registers, four SSE2 registers — wide enough that LLVM
/// autovectorizes the unrolled inner loops at any of those ISA levels.
pub const LANES: usize = 8;

/// Per-level utilization planes of a task set — the struct-of-arrays twin
/// of a `Vec<TaskRow>`. Plane `k` holds `u_i(k+1)` for every task `i`
/// (0.0 above the task's own level), so [`Self::row`] materializes a
/// [`TaskRow`] whose cached divisions are verbatim copies of
/// [`mcs_model::McTask::util`] — substituting the table for per-task rows
/// cannot change any probe result.
#[derive(Clone, Debug, Default)]
pub struct TaskTable {
    n: usize,
    /// `levels[i]` = own criticality level of task `i`.
    levels: Vec<u8>,
    /// `planes[k * n + i]` = `u_i(k+1)`, 0.0 for `k+1 > l_i`.
    planes: Vec<f64>,
}

impl TaskTable {
    /// Empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild the planes for a task set, reusing the buffers.
    pub fn reset(&mut self, ts: &TaskSet) {
        let tasks = ts.tasks();
        self.n = tasks.len();
        self.levels.clear();
        self.levels.extend(tasks.iter().map(|t| t.level().get()));
        self.planes.clear();
        self.planes.resize(ML * self.n, 0.0);
        for (i, t) in tasks.iter().enumerate() {
            for k in CritLevel::up_to(t.level().get()) {
                self.planes[k.index() * self.n + i] = t.util(k);
            }
        }
    }

    /// Number of tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the table holds no tasks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Own criticality level of task `i`.
    #[inline]
    #[must_use]
    pub fn level(&self, i: usize) -> CritLevel {
        CritLevel::new(self.levels[i])
    }

    /// Cached own-level utilization `u_i(l_i)` — O(1), no row gather.
    // lint: no_alloc
    #[inline]
    #[must_use]
    pub fn util_own(&self, i: usize) -> f64 {
        self.planes[usize::from(self.levels[i] - 1) * self.n + i]
    }

    /// Materialize the [`TaskRow`] of task `i` (a gather of at most
    /// `MAX_LEVELS` plane reads; the values are the exact `f64`s a
    /// `TaskRow::new` of the same task caches).
    // lint: no_alloc
    #[inline]
    #[must_use]
    pub fn row(&self, i: usize) -> TaskRow {
        let level = self.levels[i];
        let mut utils = [0.0; ML];
        for (k, u) in utils.iter_mut().enumerate().take(usize::from(level)) {
            *u = self.planes[k * self.n + i];
        }
        TaskRow { level, utils }
    }
}

/// All cores' triangular `U_j(k)` sums as contiguous per-entry planes:
/// `planes[tri(j, k) * stride + m]` is core `m`'s `U_j(k)`. `stride` is the
/// core count rounded up to [`LANES`] and the padding lanes stay 0.0, so
/// the batch kernel reads whole lanes without tail handling.
///
/// `add`/`remove` apply the same per-entry `+=` / clamped `-=` in the same
/// ascending-`k` order as [`CoreSums::add`]/`remove`, so a bank fed the
/// same per-core row sequences holds bit-identical sums.
#[derive(Clone, Debug, Default)]
pub struct CoreBank {
    k: u8,
    cores: usize,
    stride: usize,
    /// `TRI_LEN` planes of `stride` entries each.
    planes: Vec<f64>,
    /// Per-core accumulated row count.
    tasks: Vec<u32>,
}

impl CoreBank {
    /// Empty bank (no cores).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset to `cores` empty cores for a `k`-level system, reusing the
    /// plane buffer.
    pub fn reset(&mut self, k: u8, cores: usize) {
        assert!((1..=MAX_LEVELS).contains(&k), "system level count {k} out of 1..={MAX_LEVELS}");
        self.k = k;
        self.cores = cores;
        self.stride = cores.div_ceil(LANES) * LANES;
        self.planes.clear();
        self.planes.resize(TRI_LEN * self.stride, 0.0);
        self.tasks.clear();
        self.tasks.resize(cores, 0);
    }

    /// System criticality level count `K`.
    #[inline]
    #[must_use]
    pub fn num_levels(&self) -> u8 {
        self.k
    }

    /// Number of (real, unpadded) cores.
    #[inline]
    #[must_use]
    pub fn num_cores(&self) -> usize {
        self.cores
    }

    /// Accumulate a task row on core `m` (mirrors [`CoreSums::add`]).
    // lint: no_alloc
    pub fn add(&mut self, m: usize, row: &TaskRow) {
        assert!(row.level <= self.k, "task level {} exceeds system K={}", row.level, self.k);
        assert!(m < self.cores);
        for kk in 1..=row.level {
            self.planes[tri(row.level, kk) * self.stride + m] += row.utils[usize::from(kk - 1)];
        }
        self.tasks[m] += 1;
    }

    /// Remove a previously added row from core `m` (mirrors
    /// [`CoreSums::remove`], including the clamp of negative residue).
    // lint: no_alloc
    pub fn remove(&mut self, m: usize, row: &TaskRow) {
        assert!(row.level <= self.k, "task level {} exceeds system K={}", row.level, self.k);
        assert!(m < self.cores);
        assert!(self.tasks[m] > 0, "removing a task from an empty core");
        for kk in 1..=row.level {
            let e = &mut self.planes[tri(row.level, kk) * self.stride + m];
            *e = (*e - row.utils[usize::from(kk - 1)]).max(0.0);
        }
        self.tasks[m] -= 1;
    }

    /// Replace `minus` by `plus` on core `m` in one O(K) delta — the same
    /// clamp-then-accumulate per-entry order as [`CoreSums::swap`] (and the
    /// `Swapped` probe view), so a committed migration lands bit-identical
    /// to the swap probe that justified it.
    // lint: no_alloc
    pub fn swap(&mut self, m: usize, minus: &TaskRow, plus: &TaskRow) {
        assert!(minus.level <= self.k, "task level {} exceeds system K={}", minus.level, self.k);
        assert!(plus.level <= self.k, "task level {} exceeds system K={}", plus.level, self.k);
        assert!(m < self.cores);
        assert!(self.tasks[m] > 0, "swapping a task out of an empty core");
        for kk in 1..=minus.level {
            let e = &mut self.planes[tri(minus.level, kk) * self.stride + m];
            *e = (*e - minus.utils[usize::from(kk - 1)]).max(0.0);
        }
        for kk in 1..=plus.level {
            self.planes[tri(plus.level, kk) * self.stride + m] += plus.utils[usize::from(kk - 1)];
        }
    }

    /// Refill this bank with one lane per row of `minus`: lane `l` holds
    /// core `m` of `src` with `minus[l]` taken out by the clamped
    /// [`Self::remove`]. A [`batch_probe_verdicts`] sweep of the result
    /// with `plus` is then, lane for lane, the scalar
    /// `src.view(m).probe_swap_verdict(minus[l], plus)`: the `Swapped`
    /// probe view clamps the removal first and adds `plus` on top, the
    /// same operations in the same order. Padding lanes hold core `m`'s
    /// unmodified sums (emitted verdicts never read them). Reuses the
    /// plane buffer.
    // lint: no_alloc
    pub fn fill_removals(
        &mut self,
        src: &CoreBank,
        m: usize,
        minus: impl ExactSizeIterator<Item = TaskRow>,
    ) {
        assert!(m < src.cores);
        let n = minus.len();
        self.k = src.k;
        self.cores = n;
        self.stride = n.div_ceil(LANES) * LANES;
        // Every plane a `k`-level kernel reads is overwritten below, the
        // padding lanes included, so the buffer needs no zeroing.
        self.planes.resize(TRI_LEN * self.stride, 0.0);
        for j in 1..=src.k {
            for kk in 1..=j {
                let t = tri(j, kk);
                let v = src.planes[t * src.stride + m];
                self.planes[t * self.stride..][..self.stride].fill(v);
            }
        }
        self.tasks.clear();
        self.tasks.resize(n, src.tasks[m]);
        for (l, row) in minus.enumerate() {
            self.remove(l, &row);
        }
    }

    /// Zero core `m`'s triangle entries and row count — the per-core reset
    /// a departure refold starts from. Only core `m`'s strided slots are
    /// touched, so every other core's sums keep their exact bits.
    // lint: no_alloc
    pub fn clear_core(&mut self, m: usize) {
        assert!(m < self.cores);
        for j in 1..=self.k {
            for kk in 1..=j {
                self.planes[tri(j, kk) * self.stride + m] = 0.0;
            }
        }
        self.tasks[m] = 0;
    }

    /// Number of rows accumulated on core `m`.
    #[inline]
    #[must_use]
    pub fn task_count(&self, m: usize) -> usize {
        self.tasks[m] as usize
    }

    /// Scalar view of core `m` — runs the exact [`CoreSums`] kernels over
    /// the strided storage.
    #[inline]
    #[must_use]
    pub fn view(&self, m: usize) -> CoreView<'_> {
        assert!(m < self.cores);
        CoreView { bank: self, m }
    }

    /// Materialize core `m` as a standalone [`CoreSums`] (diagnostics and
    /// audit paths; the copied entries are bit-exact).
    #[must_use]
    pub fn to_core_sums(&self, m: usize) -> CoreSums {
        let mut sums = CoreSums::new(self.k);
        for j in 1..=self.k {
            for kk in 1..=j {
                sums.sums[tri(j, kk)] = self.planes[tri(j, kk) * self.stride + m];
            }
        }
        sums.tasks = self.tasks[m];
        sums
    }
}

/// One core of a [`CoreBank`]: implements the kernels' storage abstraction
/// with strided plane reads, so every probe below is the same monomorphized
/// code path as the [`CoreSums`] methods — bit-identical by construction,
/// not by re-derivation.
#[derive(Clone, Copy, Debug)]
pub struct CoreView<'a> {
    bank: &'a CoreBank,
    m: usize,
}

impl SumsRead for CoreView<'_> {
    #[inline]
    fn num_levels(&self) -> u8 {
        self.bank.k
    }

    #[inline]
    fn raw(&self, j: u8, kk: u8) -> f64 {
        self.bank.planes[tri(j, kk) * self.bank.stride + self.m]
    }
}

impl CoreView<'_> {
    /// System criticality level count `K`.
    #[inline]
    #[must_use]
    pub fn num_levels(&self) -> u8 {
        self.bank.k
    }

    /// Number of rows accumulated on this core.
    #[inline]
    #[must_use]
    pub fn task_count(&self) -> usize {
        self.bank.task_count(self.m)
    }

    /// Theorem 1 on the resident subset — mirrors [`CoreSums::evaluate`].
    #[must_use]
    pub fn evaluate(&self) -> Probe {
        kernel(self, &Resident)
    }

    /// Theorem 1 with `plus` hypothetically added — mirrors
    /// [`CoreSums::probe`].
    #[must_use]
    pub fn probe(&self, plus: &TaskRow) -> Probe {
        assert!(plus.level <= self.bank.k);
        kernel(self, &Added(plus))
    }

    /// Fused verdict of [`Self::evaluate`] — mirrors
    /// [`CoreSums::evaluate_verdict`].
    // lint: no_alloc
    #[must_use]
    pub fn evaluate_verdict(&self) -> Verdict {
        kernel_verdict(self, &Resident)
    }

    /// Fused verdict of [`Self::probe`] — mirrors
    /// [`CoreSums::probe_verdict`].
    // lint: no_alloc
    #[must_use]
    pub fn probe_verdict(&self, plus: &TaskRow) -> Verdict {
        assert!(plus.level <= self.bank.k);
        kernel_verdict(self, &Added(plus))
    }

    /// Repair-move verdict: Theorem 1 on the core minus `minus` plus
    /// `plus` — mirrors [`CoreSums::probe_swap_verdict`].
    // lint: no_alloc
    #[must_use]
    pub fn probe_swap_verdict(&self, minus: &TaskRow, plus: &TaskRow) -> Verdict {
        assert!(minus.level <= self.bank.k && plus.level <= self.bank.k);
        kernel_verdict(self, &Swapped(minus, plus))
    }

    /// Eq. (4) own-level total with `plus` added — mirrors
    /// [`CoreSums::own_level_total_probe`].
    // lint: no_alloc
    #[must_use]
    pub fn own_level_total_probe(&self, plus: &TaskRow) -> f64 {
        let view = Added(plus);
        let mut s = 0.0;
        for kk in 1..=self.bank.k {
            s += view.at(self, kk, kk);
        }
        s
    }
}

/// One lane-chunk's worth of `U_j(k) (+ u(k))` — the batch counterpart of
/// `Added::at`, applied to [`LANES`] consecutive cores at once. The
/// `j == level` test is hoisted outside the lane loop (it depends only on
/// `(j, plus)`), so the inner loops are branch-free; the taken branch adds
/// the identical `v + u` the scalar view computes, the other copies the
/// plane verbatim (never `v + 0.0`, which would rewrite a `-0.0` sum).
// lint: no_alloc
#[inline(always)]
fn lane_at(bank: &CoreBank, base: usize, j: u8, kk: u8, plus: &TaskRow) -> [f64; LANES] {
    let seg = &bank.planes[tri(j, kk) * bank.stride + base..][..LANES];
    let mut out = [0.0; LANES];
    if j == plus.level {
        let u = plus.utils[usize::from(kk - 1)];
        for (o, s) in out.iter_mut().zip(seg) {
            *o = s + u;
        }
    } else {
        out.copy_from_slice(seg);
    }
    out
}

/// All-ones / all-zeros lane mask of a predicate — comparisons lower to
/// `vcmppd`-style full-width masks, keeping the lane loops in pure 64-bit
/// vector lanes (`bool` lanes would mix i8 into the f64 pipeline and
/// defeat the vectorizer).
// lint: no_alloc
#[inline(always)]
fn lane_mask(c: bool) -> u64 {
    (c as u64).wrapping_neg()
}

/// Bitwise lane select: `a` where `mask` is all-ones, else `b` — an exact
/// bit copy of the chosen operand, so selects cannot perturb values.
// lint: no_alloc
#[inline(always)]
fn lane_sel(mask: u64, a: f64, b: f64) -> f64 {
    f64::from_bits((a.to_bits() & mask) | (b.to_bits() & !mask))
}

/// The batch Theorem-1 kernel: verdicts of `Ψ_m ∪ {plus}` for **every**
/// core `m` of the bank, in one sweep over the contiguous planes.
/// `out` is a reusable scratch buffer (cleared, then one [`Verdict`] per
/// core in core order); each emitted verdict is bit-identical to
/// `bank.view(m).probe_verdict(plus)` — see the module docs for why the
/// masked control flow preserves the scalar operation sequence.
// lint: no_alloc
pub fn batch_probe_verdicts(bank: &CoreBank, plus: &TaskRow, out: &mut Vec<Verdict>) {
    // A constant-false stop folds away: the full sweep compiles to the
    // plain chunk loop.
    batch_probe_verdicts_until(bank, plus, out, |_| false);
}

/// [`batch_probe_verdicts`] with a stop predicate: the cores are swept in
/// [`LANES`]-wide chunks in core order, and the sweep ends after the first
/// chunk holding a verdict for which `stop` is true. `out` then holds the
/// verdicts of every evaluated chunk (a prefix of the full sweep's, bit
/// for bit), so a first-fit search reads its core as the first verdict
/// that passes and pays only for the chunks up to it.
// lint: no_alloc
pub fn batch_probe_verdicts_until(
    bank: &CoreBank,
    plus: &TaskRow,
    out: &mut Vec<Verdict>,
    stop: impl Fn(&Verdict) -> bool,
) {
    assert!(plus.level <= bank.k, "task level {} exceeds system K={}", plus.level, bank.k);
    out.clear();
    // Monomorphize the sweep per system level count: with `K` const, every
    // level loop below fully unrolls, so the per-lane state arrays live in
    // vector registers across the whole chunk instead of bouncing through
    // the stack between loops (a ~2× throughput difference at K ≥ 4).
    match bank.k {
        1 => batch_sweep::<1>(bank, plus, out, stop),
        2 => batch_sweep::<2>(bank, plus, out, stop),
        3 => batch_sweep::<3>(bank, plus, out, stop),
        4 => batch_sweep::<4>(bank, plus, out, stop),
        5 => batch_sweep::<5>(bank, plus, out, stop),
        6 => batch_sweep::<6>(bank, plus, out, stop),
        7 => batch_sweep::<7>(bank, plus, out, stop),
        8 => batch_sweep::<8>(bank, plus, out, stop),
        _ => unreachable!("CoreBank::reset bounds K to 1..=MAX_LEVELS"), // lint: allow(panic-policy, K > MAX_LEVELS is rejected at CoreBank::reset; this arm is dead by construction)
    }
}

/// One λ-recursion step (`kk = KK ≥ 2`) of the fused pass: computes λ_KK
/// for all lanes, folds it into the µ products of the still-live lanes,
/// and reports whether any lane survived. Bit-for-bit the scalar step —
/// the divisions run unconditionally (IEEE ∞/NaN, no traps) and the
/// validity guard is an AND of full-width compare masks, so the lane loop
/// is straight-line vector code.
// lint: no_alloc
#[inline(always)]
fn lambda_step<const KK: u8, const K: u8>(
    bank: &CoreBank,
    base: usize,
    plus: &TaskRow,
    muprod: &mut [f64; LANES],
    alive: &mut [u64; LANES],
) -> bool {
    let prev = KK - 1;
    let mut num = [0.0f64; LANES];
    for x in KK..=K {
        let a = lane_at(bank, base, x, prev, plus);
        for (n, a) in num.iter_mut().zip(&a) {
            *n += a;
        }
    }
    let pd = lane_at(bank, base, prev, prev, plus);
    for l in 0..LANES {
        let n = num[l] / muprod[l];
        let den = 1.0 - pd[l] / muprod[l];
        let q = n / den;
        // λ valid ⇔ den > EPS ∧ q ∈ [0, 1) — the scalar guard as an AND
        // of full-width compare masks. The scalar kernel also tests
        // `is_finite`, but q ∈ [0, 1) already implies finite (NaN fails
        // both range compares), so the predicate value is identical.
        let ok = lane_mask(den > EPS) & lane_mask(q >= 0.0) & lane_mask(q < 1.0);
        let live = alive[l] & ok;
        // Dead lanes freeze their µ — the operations the scalar `break`
        // never runs.
        muprod[l] = lane_sel(live, muprod[l] * (1.0 - q), muprod[l]);
        alive[l] = live;
    }
    !alive.iter().all(|&a| a == 0)
}

/// One Eq. (9) fold step of the fused pass: on every live lane whose θ is
/// finite and whose availability `a = µ − θ` clears `-EPS`, fold `1 − a`
/// and `a` into the value+flag accumulators with the scalar kernel's
/// `old.max(new)` operand order. The scalar folds both accumulators under
/// one shared condition, so a single `has` flag serves both.
// lint: no_alloc
#[inline(always)]
fn fold_step(
    th: &[f64; LANES],
    muprod: &[f64; LANES],
    alive: &[u64; LANES],
    best: &mut [f64; LANES],
    best_slack: &mut [f64; LANES],
    has: &mut [u64; LANES],
) {
    for l in 0..LANES {
        let a = muprod[l] - th[l];
        // θ is a sum of non-negative utilizations plus a min-term in
        // [0, +∞] — never NaN, never -∞ — so the scalar `is_finite` guard
        // is exactly `θ < ∞`, a plain FP compare the lane loop keeps in
        // the vector domain (`is_finite`'s bit-level form drags LLVM into
        // scalar integer code).
        let take = alive[l] & lane_mask(th[l] < f64::INFINITY) & lane_mask(a >= -EPS);
        let util = 1.0 - a;
        best[l] = lane_sel(take, lane_sel(has[l], best[l].max(util), util), best[l]);
        best_slack[l] = lane_sel(take, lane_sel(has[l], best_slack[l].max(a), a), best_slack[l]);
        has[l] |= take;
    }
}

/// One sweep of the batch kernel for a compile-time level count `K`
/// (equal to the bank's runtime `k`, enforced by the dispatcher above):
/// chunk after chunk in core order until `stop` holds for a verdict of
/// the chunk just emitted, or the cores run out.
// lint: no_alloc
fn batch_sweep<const K: u8>(
    bank: &CoreBank,
    plus: &TaskRow,
    out: &mut Vec<Verdict>,
    stop: impl Fn(&Verdict) -> bool,
) {
    debug_assert_eq!(bank.k, K);
    let mut base = 0;
    while base < bank.cores {
        let start = out.len();
        batch_chunk::<K>(bank, base, plus, out);
        if out[start..].iter().any(&stop) {
            return;
        }
        base += LANES;
    }
}

/// The verdicts of the [`LANES`] cores from `base` on (fewer in the last
/// chunk), appended to `out` in core order.
// lint: no_alloc
#[inline(always)]
fn batch_chunk<const K: u8>(bank: &CoreBank, base: usize, plus: &TaskRow, out: &mut Vec<Verdict>) {
    let k = K;
    // own_level_total: ascending-k fold per lane.
    let mut olt = [0.0f64; LANES];
    for kk in 1..=k {
        let a = lane_at(bank, base, kk, kk, plus);
        for (o, a) in olt.iter_mut().zip(&a) {
            *o += a;
        }
    }
    if k == 1 {
        for &olt in olt.iter().take(bank.cores - base) {
            let u = (olt <= 1.0 + EPS).then_some(olt);
            out.push(Verdict {
                own_level_total: olt,
                core_utilization: u,
                core_utilization_slack: u,
            });
        }
        return;
    }

    // min-term: min{ U_K(K), U_K(K-1)/(1-U_K(K)) } per lane. The
    // division runs unconditionally (IEEE ∞/NaN, no traps) and the
    // guard becomes a select, so the loop is a straight vector lane.
    let ukk = lane_at(bank, base, k, k, plus);
    let ukk1 = lane_at(bank, base, k, k - 1, plus);
    let mut minterm = [0.0f64; LANES];
    for l in 0..LANES {
        let q = ukk1[l] / (1.0 - ukk[l]);
        let fraction = if 1.0 - ukk[l] > EPS { q } else { f64::INFINITY };
        minterm[l] = ukk[l].min(fraction);
    }

    // θ(k) suffix sums, built descending as the scalar kernel does.
    let mut suffix = [0.0f64; LANES];
    let mut thetas = [[0.0f64; LANES]; ML];
    for i in (1..=k - 1).rev() {
        let a = lane_at(bank, base, i, i, plus);
        let th = &mut thetas[usize::from(i - 1)];
        for l in 0..LANES {
            suffix[l] += a[l];
            th[l] = suffix[l] + minterm[l];
        }
    }

    // Fused λ recursion / µ product / Eq. (9) folds. `alive[l]` is the
    // mask form of the scalar λ-break; the Option accumulators become
    // value+flag pairs with the same max operand order. Every lane
    // computes unconditionally and commits through selects — divisions
    // on dead or guarded lanes produce IEEE ∞/NaN that the selects
    // discard, never a trap — so each loop body is straight-line
    // vector code. The scalar kernel folds `best` and `best_slack`
    // under one shared condition, so a single `has` flag serves both.
    let mut alive = [u64::MAX; LANES];
    let mut muprod = [1.0f64; LANES];
    let mut best = [0.0f64; LANES];
    let mut best_slack = [0.0f64; LANES];
    let mut has = [0u64; LANES];
    // The scalar `for kk in 1..=K-1` recursion, unrolled by hand into
    // const-generic steps: LLVM refuses to unroll the rolled loop (the
    // body is past its size threshold), which forces every lane array
    // through the stack on each iteration. Spelled out per `kk`, the
    // whole fused section keeps its state in vector registers. `K ≥ n`
    // gates are compile-time, so each monomorphization carries exactly
    // its own steps; the λ-break becomes `break 'fused`.
    'fused: {
        fold_step(&thetas[0], &muprod, &alive, &mut best, &mut best_slack, &mut has);
        macro_rules! step {
            ($kk:literal) => {
                if K > $kk {
                    if !lambda_step::<$kk, K>(bank, base, plus, &mut muprod, &mut alive) {
                        // Every lane broke — nothing further can fold
                        // (the scalar kernels have all returned too).
                        break 'fused;
                    }
                    fold_step(
                        &thetas[$kk - 1],
                        &muprod,
                        &alive,
                        &mut best,
                        &mut best_slack,
                        &mut has,
                    );
                }
            };
        }
        step!(2);
        step!(3);
        step!(4);
        step!(5);
        step!(6);
        step!(7);
    }

    for l in 0..LANES.min(bank.cores - base) {
        // `then_some` (not if/else) so the Some/None tag is a data move,
        // not a per-lane data-dependent branch: with hundreds of task
        // sets cycling through the predictor, 16 such branches per chunk
        // were the dominant misprediction source.
        let found = has[l] != 0;
        out.push(Verdict {
            own_level_total: olt[l],
            core_utilization: found.then_some(best[l]),
            core_utilization_slack: found.then_some(1.0 - best_slack[l]),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_model::{LevelUtils, McTask, TaskBuilder, TaskId, TaskSet};

    fn task(id: u32, period: u64, level: u8, wcet: &[u64]) -> McTask {
        TaskBuilder::new(TaskId(id)).period(period).level(level).wcet(wcet).build().unwrap()
    }

    fn mixed_set(k: u8) -> TaskSet {
        let mut tasks = Vec::new();
        for i in 0..12u32 {
            let level = 1 + (i as u8 % k);
            let wcet: Vec<u64> =
                (1..=level).map(|j| 20 + 13 * u64::from(j) + 7 * u64::from(i)).collect();
            tasks.push(task(i, 400 + 37 * u64::from(i), level, &wcet));
        }
        TaskSet::new(k, tasks).unwrap()
    }

    fn opt_bits(a: Option<f64>, b: Option<f64>) -> bool {
        match (a, b) {
            (Some(x), Some(y)) => x.to_bits() == y.to_bits(),
            (None, None) => true,
            _ => false,
        }
    }

    fn assert_verdicts_bit_equal(a: &Verdict, b: &Verdict) {
        assert_eq!(a.own_level_total.to_bits(), b.own_level_total.to_bits());
        assert!(opt_bits(a.core_utilization, b.core_utilization));
        assert!(opt_bits(a.core_utilization_slack, b.core_utilization_slack));
    }

    /// Round-robin deal of the set into `cores`, mirrored into a bank and
    /// a `Vec<CoreSums>` oracle.
    fn dealt(ts: &TaskSet, cores: usize) -> (TaskTable, CoreBank, Vec<CoreSums>) {
        let mut table = TaskTable::new();
        table.reset(ts);
        let mut bank = CoreBank::new();
        bank.reset(ts.num_levels(), cores);
        let mut oracle = vec![CoreSums::new(ts.num_levels()); cores];
        for i in 0..table.len() {
            let m = i % cores;
            let row = table.row(i);
            bank.add(m, &row);
            oracle[m].add(&row);
        }
        (table, bank, oracle)
    }

    #[test]
    fn task_table_rows_are_verbatim_task_rows() {
        let ts = mixed_set(4);
        let mut table = TaskTable::new();
        table.reset(&ts);
        assert_eq!(table.len(), ts.tasks().len());
        for (i, t) in ts.tasks().iter().enumerate() {
            let row = table.row(i);
            let direct = TaskRow::new(t);
            assert_eq!(row, direct);
            assert_eq!(table.util_own(i).to_bits(), direct.util_own().to_bits());
            assert_eq!(table.level(i), t.level());
        }
    }

    #[test]
    fn bank_views_match_core_sums_bitwise() {
        for k in [1u8, 2, 3, 4, 6, 8] {
            let ts = mixed_set(k);
            for cores in [1usize, 2, 3, 8, 9, 17] {
                let (table, bank, oracle) = dealt(&ts, cores);
                let probe_row = table.row(0);
                for (m, core) in oracle.iter().enumerate() {
                    let view = bank.view(m);
                    assert_eq!(view.task_count(), core.task_count());
                    assert_verdicts_bit_equal(&view.evaluate_verdict(), &core.evaluate_verdict());
                    assert_verdicts_bit_equal(
                        &view.probe_verdict(&probe_row),
                        &core.probe_verdict(&probe_row),
                    );
                    assert_eq!(
                        view.own_level_total_probe(&probe_row).to_bits(),
                        core.own_level_total_probe(&probe_row).to_bits()
                    );
                    // The full-Probe paths too.
                    let a = view.probe(&probe_row);
                    let b = core.probe(&probe_row);
                    assert!(opt_bits(a.core_utilization(), b.core_utilization()));
                    assert_eq!(a.feasible(), b.feasible());
                }
            }
        }
    }

    #[test]
    fn batch_kernel_matches_scalar_views_bitwise() {
        for k in [1u8, 2, 3, 4, 5, 8] {
            let ts = mixed_set(k);
            for cores in [1usize, 2, 7, 8, 9, 16, 31] {
                let (table, bank, oracle) = dealt(&ts, cores);
                let mut out = Vec::new();
                for i in 0..table.len() {
                    let row = table.row(i);
                    batch_probe_verdicts(&bank, &row, &mut out);
                    assert_eq!(out.len(), cores);
                    for (m, v) in out.iter().enumerate() {
                        assert_verdicts_bit_equal(v, &bank.view(m).probe_verdict(&row));
                        assert_verdicts_bit_equal(v, &oracle[m].probe_verdict(&row));
                    }
                }
            }
        }
    }

    #[test]
    fn batch_kernel_tracks_removal_and_overload() {
        let ts = mixed_set(4);
        let cores = 5;
        let (table, mut bank, mut oracle) = dealt(&ts, cores);
        // Remove a few rows (exercising the clamp), then overload core 0
        // so some verdicts go infeasible through the λ-break path.
        for i in [0usize, 3, 7] {
            let m = i % cores;
            let row = table.row(i);
            bank.remove(m, &row);
            oracle[m].remove(&row);
        }
        for _ in 0..6 {
            let row = table.row(1);
            bank.add(0, &row);
            oracle[0].add(&row);
        }
        let mut out = Vec::new();
        let probe_row = table.row(2);
        batch_probe_verdicts(&bank, &probe_row, &mut out);
        assert!(!out[0].feasible(), "core 0 should be overloaded");
        for (m, v) in out.iter().enumerate() {
            assert_verdicts_bit_equal(v, &oracle[m].probe_verdict(&probe_row));
        }
    }

    #[test]
    fn to_core_sums_is_bit_exact() {
        let ts = mixed_set(3);
        let (_, bank, oracle) = dealt(&ts, 4);
        for (m, sums) in oracle.iter().enumerate() {
            let copy = bank.to_core_sums(m);
            assert_eq!(copy.task_count(), sums.task_count());
            for j in 1..=3u8 {
                for kk in 1..=j {
                    assert_eq!(
                        copy.util_jk(mcs_model::CritLevel::new(j), mcs_model::CritLevel::new(kk))
                            .to_bits(),
                        sums.util_jk(mcs_model::CritLevel::new(j), mcs_model::CritLevel::new(kk))
                            .to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn bank_swap_matches_core_sums_swap_and_remove_add() {
        let ts = mixed_set(4);
        let cores = 3;
        let (table, bank, oracle) = dealt(&ts, cores);
        let plus = table.row(1);
        for i in 0..table.len() {
            let minus = table.row(i);
            let m = i % cores;
            // Bank swap vs CoreSums swap fed the identical op sequence.
            let mut b = bank.clone();
            b.swap(m, &minus, &plus);
            let mut o = oracle[m].clone();
            o.swap(&minus, &plus);
            assert_eq!(b.task_count(m), o.task_count());
            assert_verdicts_bit_equal(&b.view(m).evaluate_verdict(), &o.evaluate_verdict());
            // …and vs the sequential remove-then-add composition.
            let mut seq = bank.clone();
            seq.remove(m, &minus);
            seq.add(m, &plus);
            assert_verdicts_bit_equal(
                &b.view(m).evaluate_verdict(),
                &seq.view(m).evaluate_verdict(),
            );
            // …and vs the Swapped probe view of the untouched bank.
            let probed = bank.view(m).probe_swap_verdict(&minus, &plus);
            assert_verdicts_bit_equal(&b.view(m).evaluate_verdict(), &probed);
        }
    }

    #[test]
    fn clear_core_resets_one_core_and_keeps_the_rest_bit_exact() {
        let ts = mixed_set(5);
        let cores = 4;
        let (table, mut bank, oracle) = dealt(&ts, cores);
        bank.clear_core(2);
        assert_eq!(bank.task_count(2), 0);
        let empty = CoreSums::new(ts.num_levels());
        assert_verdicts_bit_equal(&bank.view(2).evaluate_verdict(), &empty.evaluate_verdict());
        for m in [0usize, 1, 3] {
            assert_verdicts_bit_equal(
                &bank.view(m).evaluate_verdict(),
                &oracle[m].evaluate_verdict(),
            );
        }
        // A refold of the surviving rows on the cleared core reproduces a
        // fresh fold bit-for-bit (the departure path's contract).
        let mut fresh = CoreSums::new(ts.num_levels());
        for i in 0..table.len() {
            if i % cores == 2 && i != 2 {
                let row = table.row(i);
                bank.add(2, &row);
                fresh.add(&row);
            }
        }
        assert_verdicts_bit_equal(&bank.view(2).evaluate_verdict(), &fresh.evaluate_verdict());
    }

    #[test]
    fn swap_verdicts_match_through_views() {
        let ts = mixed_set(4);
        let (table, bank, oracle) = dealt(&ts, 3);
        let plus = table.row(1);
        for i in 0..table.len() {
            let minus = table.row(i);
            let m = i % 3;
            assert_verdicts_bit_equal(
                &bank.view(m).probe_swap_verdict(&minus, &plus),
                &oracle[m].probe_swap_verdict(&minus, &plus),
            );
        }
    }

    #[test]
    fn removal_bank_lanes_match_scalar_swap_probes_bitwise() {
        const CORE: usize = 1;
        for k in 1..=MAX_LEVELS {
            // Tasks 0..18 sit on core 1, the medium tasks 18..23 on cores 0
            // and 2. Task 23 is never placed: its utilization is 1.0 at
            // every level, so taking it out of core 1 clamps every entry
            // of its level at 0.
            let mut tasks = Vec::new();
            for i in 0..18u32 {
                let level = 1 + (i as u8 % k);
                let wcet: Vec<u64> =
                    (1..=level).map(|j| 10 + 6 * u64::from(j) + u64::from(i)).collect();
                tasks.push(task(i, 1000 + 37 * u64::from(i), level, &wcet));
            }
            for i in 18..23u32 {
                let level = k - (i as u8 % k);
                let wcet: Vec<u64> = (1..=level).map(|j| 60 + 40 * u64::from(j)).collect();
                tasks.push(task(i, 400 + 13 * u64::from(i), level, &wcet));
            }
            tasks.push(task(23, 100, k, &vec![100; usize::from(k)]));
            let ts = TaskSet::new(k, tasks).unwrap();
            let mut table = TaskTable::new();
            table.reset(&ts);
            let mut bank = CoreBank::new();
            bank.reset(k, 3);
            let mut oracle = CoreSums::new(k);
            for i in 0..18 {
                bank.add(CORE, &table.row(i));
                oracle.add(&table.row(i));
            }
            for i in 18..23 {
                bank.add(2 * (i % 2), &table.row(i));
            }
            let heavy = table.row(23);
            let top = CritLevel::new(k);
            assert!(oracle.util_jk(top, top) < heavy.utils[usize::from(k - 1)], "clamp must fire");

            let mut removals = CoreBank::new();
            let mut out = Vec::new();
            let mut seen = [false; 2];
            for n in [1usize, 7, 8, 9, 17] {
                let resident: Vec<TaskRow> = (0..n).map(|i| table.row(i)).collect();
                let mut clamped = resident.clone();
                clamped[n / 2] = heavy;
                for minus in [&resident, &clamped] {
                    removals.fill_removals(&bank, CORE, minus.iter().copied());
                    assert_eq!(removals.num_cores(), n);
                    for p in 0..table.len() {
                        let plus = table.row(p);
                        batch_probe_verdicts(&removals, &plus, &mut out);
                        assert_eq!(out.len(), n);
                        for (v, minus) in out.iter().zip(minus) {
                            assert_verdicts_bit_equal(
                                v,
                                &bank.view(CORE).probe_swap_verdict(minus, &plus),
                            );
                            assert_verdicts_bit_equal(v, &oracle.probe_swap_verdict(minus, &plus));
                            seen[usize::from(v.feasible())] = true;
                        }
                    }
                }
            }
            assert_eq!(seen, [true, true], "K={k}: lanes must cover both verdicts");
        }
    }
}
