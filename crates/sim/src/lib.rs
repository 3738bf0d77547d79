//! # mcs-sim
//!
//! Discrete-event simulator for *partitioned EDF-VD with AMC mode switching*
//! — the runtime substrate the paper assumes ("the system provides run-time
//! support to monitor the execution of individual jobs", §II-A).
//!
//! Each core runs independently (partitioned scheduling has no migration):
//!
//! * jobs are released synchronously at multiples of their period;
//! * the ready job with the earliest *effective* deadline runs (EDF), where
//!   effective deadlines apply the per-mode virtual-deadline factors of
//!   [`mcs_analysis::VdAssignment`];
//! * if a job executes for its level-`m` WCET `c_i(m)` at operation mode `m`
//!   without signalling completion, the core switches to mode `m + 1`,
//!   *drops* every job (and future release) of tasks with criticality ≤ `m`,
//!   and re-evaluates the effective deadlines of the surviving jobs;
//! * when the core idles, it resets to level-1 operation and resumes
//!   releasing all tasks (the AMC idle-reset rule).
//!
//! What each job actually demands is decided by an [`scenario`] — worst-case
//! at a chosen behaviour level, probabilistic overruns, etc. The central
//! soundness property (exercised by the validation tests and the
//! `mcs-exp soundness` experiment): *if a core's subset passes Theorem 1,
//! then under any behaviour of level `b` every task with criticality ≥ `b`
//! meets all deadlines*; and under level-1 behaviour, **all** tasks do.
//!
//! ## One run loop, two release indexes
//!
//! [`CoreSim::run`] is the crate's one per-core run loop. The only thing
//! it delegates is release bookkeeping — when the earliest pending
//! release is, which slots are due, and when the next active release is —
//! to a crate-private release index chosen by [`SimEngine`]
//! (DESIGN.md#simulation-layer). The loop asks only at release instants
//! and mode changes; a stop with nothing due asks nothing.
//!
//! * [`SimEngine::Tick`] answers with a pass over every task slot — the
//!   default, kept as the *differential oracle*;
//! * [`SimEngine::Event`] keeps one binary min-heap per criticality level,
//!   making 10⁶-tick horizons with thousands of tasks cheap (see
//!   `sim_events_per_sec` in `BENCH_partition.json`).
//!
//! Their contract is *bit-identical event traces* on shared scenarios —
//! enforced by a proptest (`index::properties`), the
//! `sim-event-consistency` audit rule, and the `mcs-exp perf` gate. Golden
//! digests of reports and traces (`tests/golden.rs`) pin the loop itself
//! on both indexes.
//! [`system::simulate_partition_with`] and [`CoreSim::with_engine`]
//! select the index; everything else defaults to the oracle.
//! [`CoreSim::run_checked`] and [`system::simulate_partition_checked`]
//! run the loop once with both indexes answering every question — the
//! oracle's answers drive it — and report whether they always agreed,
//! which `mcs-exp simulate` uses as its identity gate.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod core;
pub mod global;
mod index;
pub mod report;
pub mod scenario;
pub mod system;
pub mod trace;

pub use crate::analyze::{ResponseStats, TraceAnalysis, WeaklyHardAnalysis, WeaklyHardStats};
pub use crate::core::{
    ArrivalModel, CoreSim, DegradationPolicy, Overheads, SchedulerKind, SimEngine,
};
pub use crate::global::GlobalSim;
pub use report::{CoreReport, SimReport};
pub use scenario::{BurstOverrun, LevelCap, Probabilistic, Scenario, Scripted, SingleOverrun};
pub use system::{
    simulate_partition, simulate_partition_checked, simulate_partition_parallel,
    simulate_partition_parallel_with, simulate_partition_with, SimConfig, SimSetupError,
    SystemScheduler,
};
pub use trace::{Trace, TraceEvent};
