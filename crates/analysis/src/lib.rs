//! # mcs-analysis
//!
//! Uniprocessor schedulability analysis for mixed-criticality task systems
//! under the **EDF-VD** scheduler, as used by the ICPP'16 CA-TPA paper.
//!
//! Provided tests, from cheapest/most pessimistic to most precise:
//!
//! * [`edf`] — classic Liu & Layland utilization bound for single-level
//!   (K = 1) EDF, the degenerate case of the MC model;
//! * [`simple`] — the simple sufficient condition Eq. (4):
//!   `Σ_k U_k^Ψ(k) ≤ 1` (every task counted at its own level — EDF-VD
//!   degenerates to plain EDF);
//! * [`theorem1`] — the improved condition of Baruah et al. (ESA'11),
//!   Theorem 1 / Inequality (5) of the paper, with the λ-factor recursion
//!   Eq. (6), available utilization `A(k)` Eq. (8), and the *core
//!   utilization* Eq. (9) that CA-TPA minimizes;
//! * [`dual`] — the closed-form dual-criticality (K = 2) special case
//!   Eq. (7), plus the canonical virtual-deadline factor
//!   `x = U_2(1)/(1 − U_1(1))`;
//! * [`vd`] — virtual-deadline assignment for the runtime simulator
//!   (per-mode shrink factors derived from the λ's);
//! * [`dbf`] — a demand-bound-function analysis for dual-criticality EDF-VD
//!   in the style of Ekberg & Yi, the higher-precision (and much more
//!   expensive) test the paper cites as the approach of \[20\];
//! * [`amc`] — fixed-priority AMC response-time analysis (AMC-rtb, Baruah,
//!   Burns & Davis RTSS'11) with deadline-monotonic and Audsley priority
//!   assignment, for partitioned-FP comparisons (\[22\]);
//! * [`sensitivity`] — critical scaling factors (uniform load headroom of a
//!   subset under Theorem 1);
//! * [`probe`] — the zero-allocation Theorem-1 probe kernel used by the
//!   partitioners' hot path ([`TaskRow`] / [`CoreSums`] / [`Probe`]),
//!   bit-identical to [`theorem1`] by construction;
//! * [`soa`] — struct-of-arrays probe storage ([`TaskTable`] /
//!   [`CoreBank`]) and the lane-parallel batch kernel
//!   [`batch_probe_verdicts`] that evaluates all M cores of one candidate
//!   probe in a single sweep, bit-identical to the scalar kernels per lane
//!   (and [`batch_probe_verdicts_until`], the same sweep stopping after
//!   the first lane chunk a predicate accepts).

#![forbid(unsafe_code)]

pub mod amc;
pub mod dbf;
pub mod dual;
pub mod edf;
pub mod elastic;
pub mod exact_arith;
pub mod probe;
pub mod sensitivity;
pub mod simple;
pub mod soa;
pub mod theorem1;
pub mod vd;

pub use amc::{amc_rtb_dm, amc_rtb_schedulable, smc_dm};
pub use dual::{dual_condition, dual_vd_factor, DualReport};
pub use edf::edf_utilization_test;
pub use elastic::elastic_stretch_factors;
pub use probe::{CoreSums, Probe, TaskRow, Verdict};
pub use sensitivity::{critical_scaling, ScaledView};
pub use simple::simple_condition;
pub use soa::{
    batch_probe_verdicts, batch_probe_verdicts_until, CoreBank, CoreView, TaskTable, LANES,
};
pub use theorem1::{core_utilization, is_feasible, Theorem1};
pub use vd::VdAssignment;

/// Tolerance used in `≤` comparisons of utilization sums to absorb
/// floating-point accumulation noise (utilizations are ratios of integer
/// ticks, so true values are exact rationals; sums carry ~1e-16 error each).
pub const EPS: f64 = 1e-12;
