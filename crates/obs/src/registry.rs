//! The static telemetry registry: named atomic counters (sharded to keep
//! concurrent sweep workers off each other's cache lines), per-phase
//! latency histograms, per-worker harness slots, and the [`Snapshot`] that
//! reads them all out.
//!
//! Everything here is a process-global static — there is no registration
//! step and no allocation on the hot path. A counter increment is one
//! relaxed `fetch_add` on a thread-sharded slot; when the crate is built
//! with the `telemetry-off` feature every probe point compiles to nothing
//! (the [`COMPILED`] constant folds the branch away).
//!
//! **Determinism contract.** Telemetry is strictly write-only from the
//! instrumented code's perspective: nothing in the partitioner, harness, or
//! simulator ever reads a counter to make a decision, so enabling,
//! disabling, or compiling out telemetry cannot change any published
//! output. Counter *totals* are deterministic for a deterministic workload
//! (same trials ⇒ same increments, in any interleaving); per-worker slots
//! and block-claim counts depend on scheduling and are reported for
//! diagnosis only.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use crate::hist;

/// Whether telemetry — counters, span timing, and the flight recorder — is
/// compiled into this build (the `telemetry-off` kill switch is not set).
/// When false, every probe and record point is a no-op the optimizer
/// removes.
pub const COMPILED: bool = cfg!(not(feature = "telemetry-off"));

/// The event declaration table: each row declares one event, and a row
/// may carry a [`Counter`], an [`EventKind`], or both (`Counter =>
/// "counter_name", record Kind => "kind_name";`). A counted event that is
/// also recorded is one row, so [`crate::event!`] can bump the counter and
/// record the kind from a single call site and the two can never drift.
/// Rows are munched one at a time into the two enum lists, then emitted.
macro_rules! events {
    (@rows [$($c:tt)*] [$($k:tt)*]
        $(#[$doc:meta])* $cv:ident => $cn:literal, record $kv:ident => $kn:literal; $($rest:tt)*) => {
        events!(@rows
            [$($c)* $(#[$doc])* $cv => $cn => Some(EventKind::$kv);]
            [$($k)* $(#[$doc])* $kv => $kn;]
            $($rest)*);
    };
    (@rows [$($c:tt)*] [$($k:tt)*]
        $(#[$doc:meta])* $cv:ident => $cn:literal; $($rest:tt)*) => {
        events!(@rows [$($c)* $(#[$doc])* $cv => $cn => None;] [$($k)*] $($rest)*);
    };
    (@rows [$($c:tt)*] [$($k:tt)*]
        $(#[$doc:meta])* record $kv:ident => $kn:literal; $($rest:tt)*) => {
        events!(@rows [$($c)*] [$($k)* $(#[$doc])* $kv => $kn;] $($rest)*);
    };
    (@rows [$($(#[$cdoc:meta])* $cv:ident => $cn:literal => $ck:expr;)+]
           [$($(#[$kdoc:meta])* $kv:ident => $kn:literal;)+]) => {
        /// A registered event counter. Each variant is one process-global
        /// monotone counter; the wire name (JSONL `name` field) is
        /// [`Counter::name`].
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum Counter {
            $($(#[$cdoc])* $cv,)+
        }

        impl Counter {
            /// Number of registered counters.
            pub const COUNT: usize = [$(Counter::$cv),+].len();
            /// Every counter, in registry (and JSONL emission) order.
            pub const ALL: [Counter; Self::COUNT] = [$(Counter::$cv),+];

            /// Stable wire name of this counter.
            #[must_use]
            pub fn name(self) -> &'static str {
                match self { $(Counter::$cv => $cn,)+ }
            }

            /// Inverse of [`Counter::name`].
            #[must_use]
            pub fn from_name(name: &str) -> Option<Self> {
                match name { $($cn => Some(Counter::$cv),)+ _ => None }
            }

            /// The flight-recorder kind declared on this counter's row, if
            /// its events are also recorded.
            #[inline]
            #[must_use]
            pub const fn kind(self) -> Option<EventKind> {
                match self { $(Counter::$cv => $ck,)+ }
            }
        }

        /// A registered flight-recorder event kind. Each variant is one
        /// row of the event taxonomy (DESIGN.md#flight-recorder); the wire
        /// name (Chrome-trace `name` field) is [`EventKind::name`].
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum EventKind {
            $($(#[$kdoc])* $kv,)+
        }

        impl EventKind {
            /// Number of registered event kinds.
            pub const COUNT: usize = [$(EventKind::$kv),+].len();
            /// Every kind, in registry order.
            pub const ALL: [EventKind; Self::COUNT] = [$(EventKind::$kv),+];

            /// Stable wire name of this event kind.
            #[must_use]
            pub fn name(self) -> &'static str {
                match self { $(EventKind::$kv => $kn,)+ }
            }

            /// Inverse of [`EventKind::name`].
            #[must_use]
            pub fn from_name(name: &str) -> Option<Self> {
                match name { $($kn => Some(EventKind::$kv),)+ _ => None }
            }
        }
    };
    ($($rows:tt)+) => {
        events!(@rows [] [] $($rows)+);
    };
}

events! {
    /// Theorem-1 probes issued by the probe engine (batch, single, swap,
    /// and own-level fit probes alike).
    EngineProbesIssued => "engine_probes_issued";
    /// Probes whose verdict was infeasible (the task was rejected on that
    /// core).
    EngineProbesRejected => "engine_probes_rejected";
    /// Probes whose verdict was feasible.
    EngineProbesFeasible => "engine_probes_feasible";
    /// Tracked commits (`ProbeEngine::commit`).
    EngineCommits => "engine_commits";
    /// Untracked placements (`ProbeEngine::place_untracked`, the
    /// bin-packing family).
    EnginePlacementsUntracked => "engine_placements_untracked";
    /// Evictions (repair moves removing a task from a core).
    EngineEvictions => "engine_evictions";
    /// Engine resets (one per partitioning run).
    EngineResets => "engine_resets";
    /// Placement attempts: one per task the scheme tried to place.
    PlacementAttempts => "placement_attempts";
    /// CA-TPA α-threshold activations (imbalance fallback placements).
    AlphaFallbacks => "alpha_fallbacks";
    /// Repair (local-search) relocation moves applied.
    RepairMoves => "repair_moves";
    /// Batch-kernel invocations (`probe_all_cores` lane-parallel sweeps).
    EngineBatchCalls => "engine_batch_calls";
    /// SIMD lane slots evaluated by batch-kernel sweeps (core count
    /// rounded up to the lane width; the excess over
    /// `engine_probes_issued` from batch calls is padding overhead).
    EngineBatchLaneSlots => "engine_batch_lane_slots";
    /// `with_scratch` calls served by the warm thread-local scratch.
    ScratchReuseHits => "scratch_reuse_hits";
    /// `with_scratch` calls that fell back to a fresh scratch (re-entrant
    /// partitioner invocations).
    ScratchFallbacks => "scratch_fallbacks";
    /// Trials computed by the harness this process (excludes resumed).
    HarnessTrialsComputed => "harness_trials_computed";
    /// Trials skipped by checkpoint resume.
    HarnessTrialsResumed => "harness_trials_resumed";
    /// Successful worker block claims in the parallel trial loop.
    HarnessBlockClaims => "harness_block_claims";
    /// A harness trial closure started (`a` trial seed).
    record TrialBegin => "trial_begin";
    /// A harness trial closure returned.
    record TrialEnd => "trial_end";
    /// Checkpoint JSONL lines flushed.
    CheckpointFlushes => "checkpoint_flushes";
    /// Checkpoint bytes written (data lines, including the newline).
    CheckpointBytes => "checkpoint_bytes";
    /// A checkpoint data line was flushed (`a` bytes written, including
    /// the newline).
    record CheckpointWrite => "checkpoint_write";
    /// Simulator job releases (`tick` time, `a` task, `b` job, `c`
    /// absolute deadline).
    SimReleases => "sim_releases", record SimRelease => "sim_release";
    /// Simulator job completions (`tick` time, `a` task, `b` job, `c` = 1
    /// when late).
    SimCompletions => "sim_completions", record SimComplete => "sim_complete";
    /// Simulator mode switches: a virtual-deadline budget overrun (`tick`
    /// time, `a` overrunning task, `b` from-level, `c` to-level).
    SimModeSwitches => "sim_mode_switches", record SimModeSwitch => "sim_mode_switch";
    /// Simulator job drops at mode switches (`tick` time, `a` task, `b`
    /// job).
    SimDrops => "sim_drops", record SimDrop => "sim_drop";
    /// Simulator idle resets back to level-1 operation (`tick` time).
    SimIdleResets => "sim_idle_resets", record SimIdleReset => "sim_idle_reset";
    /// Simulator deadline misses (`tick` time, `a` task, `b` job).
    SimDeadlineMisses => "sim_deadline_misses", record SimDeadlineMiss => "sim_deadline_miss";
    /// Release-queue entries popped by the event-driven engine (due
    /// releases gathered per stop, both heaps).
    SimEventsPopped => "sim_events_popped";
    /// Release-queue entries pushed by the event-driven engine (re-keys
    /// after a drain plus mode-change migrations).
    SimHeapPushes => "sim_heap_pushes";
    /// Admission requests accepted: a placement was found (`a` task, `b`
    /// core, `c` feasible-core bitmask of the direct-placement probe
    /// sweep).
    AdmissionAdmits => "admission_admits", record AdmissionAdmit => "admission_admit";
    /// Admission requests rejected: no core could absorb the task (`a`
    /// task, `c` feasible-core bitmask — zero unless repair found late
    /// feasibility).
    AdmissionRejects => "admission_rejects", record AdmissionReject => "admission_reject";
    /// Departures processed by the admission engine (`a` task, `b` core
    /// it vacated).
    AdmissionDeparts => "admission_departs", record AdmissionDepart => "admission_depart";
    /// A repair relocation move was applied (`a` stuck task, `b` moved
    /// task, `c` = from-core << 32 | to-core).
    record AdmissionRepair => "admission_repair";
    /// A repair-candidate probe sweep started (`a` stuck task, `b` cores).
    record ProbeSweepBegin => "probe_sweep_begin";
    /// A repair-candidate probe sweep finished (`a` stuck task, `b` = 1
    /// when a relocation was found).
    record ProbeSweepEnd => "probe_sweep_end";
}

macro_rules! phases {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)+) => {
        /// A named timed phase. Each variant owns one latency histogram;
        /// spans only record when the runtime timing gate is on
        /// ([`set_timing`]).
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum Phase {
            $($(#[$doc])* $variant,)+
        }

        impl Phase {
            /// Number of registered phases.
            pub const COUNT: usize = [$(Phase::$variant),+].len();
            /// Every phase, in registry (and JSONL emission) order.
            pub const ALL: [Phase; Self::COUNT] = [$(Phase::$variant),+];

            /// Stable wire name of this phase.
            #[must_use]
            pub fn name(self) -> &'static str {
                match self { $(Phase::$variant => $name,)+ }
            }

            /// Inverse of [`Phase::name`].
            #[must_use]
            pub fn from_name(name: &str) -> Option<Self> {
                match name { $($name => Some(Phase::$variant),)+ _ => None }
            }
        }
    };
}

phases! {
    /// Contribution ordering (Eq. (12)–(13) sort) per partitioning run.
    ContributionSort => "contribution_sort",
    /// One batch probe over all cores (`probe_all_cores`).
    ProbeBatch => "probe_batch",
    /// One lane-parallel batch-kernel sweep (inside `probe_batch`,
    /// excluding row materialization and telemetry counting).
    BatchKernel => "batch_kernel",
    /// One tracked commit.
    Commit => "commit",
    /// One α-fallback placement (probe + min-utilization selection).
    AlphaFallback => "alpha_fallback",
    /// One full Theorem-1 re-evaluation (`evaluate_verdict` after evict).
    Theorem1Eval => "theorem1_eval",
    /// One checkpoint line format + write + flush.
    CheckpointFlush => "checkpoint_flush",
    /// One worker block claim (fetch_add on the shared cursor).
    WorkerBlockClaim => "worker_block_claim",
    /// One admission decision (`AdmissionEngine::admit`): probe, policy
    /// selection, and commit — the placement-decision latency histogram.
    AdmissionDecision => "admission_decision",
    /// One repair move search on an admission reject (the relocation
    /// attempt seeded from the engine's live sums).
    AdmissionRepair => "admission_repair",
    /// One due-release gather in the event-driven simulator (pop from
    /// both release heaps + the slot-order drain).
    SimEventPop => "sim_event_pop",
    /// One release-heap re-seat pass after a simulator mode change
    /// (active ↔ inactive migrations via epoch invalidation).
    SimHeapMaint => "sim_heap_maint",
}

/// Counter shards: concurrent writers are spread over this many copies of
/// the counter array so sweep workers do not serialize on one cache line.
const SHARDS: usize = 16;

/// Harness worker slots tracked individually; workers beyond this fold
/// onto slot `index % MAX_WORKERS`.
pub const MAX_WORKERS: usize = 64;

#[repr(align(128))]
struct Shard {
    counters: [AtomicU64; Counter::COUNT],
}

struct PhaseSlot {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
    buckets: [AtomicU64; hist::BUCKETS],
}

struct WorkerSlot {
    trials: AtomicU64,
    blocks: AtomicU64,
    busy_ns: AtomicU64,
    wall_ns: AtomicU64,
}

static COUNTERS: [Shard; SHARDS] =
    [const { Shard { counters: [const { AtomicU64::new(0) }; Counter::COUNT] } }; SHARDS];

static PHASES: [PhaseSlot; Phase::COUNT] = [const {
    PhaseSlot {
        count: AtomicU64::new(0),
        total_ns: AtomicU64::new(0),
        max_ns: AtomicU64::new(0),
        buckets: [const { AtomicU64::new(0) }; hist::BUCKETS],
    }
}; Phase::COUNT];

static WORKERS: [WorkerSlot; MAX_WORKERS] = [const {
    WorkerSlot {
        trials: AtomicU64::new(0),
        blocks: AtomicU64::new(0),
        busy_ns: AtomicU64::new(0),
        wall_ns: AtomicU64::new(0),
    }
}; MAX_WORKERS];

/// Runtime gate for span timing: `Instant::now()` is only taken when this
/// is set, so plain runs pay one relaxed load per span site.
static TIMING: AtomicBool = AtomicBool::new(false);

/// Runtime gate for the flight recorder: [`crate::trace::record`] is a
/// no-op (one relaxed load) until this is set, so plain runs pay one
/// branch per event site.
static TRACING: AtomicBool = AtomicBool::new(false);

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn shard_index() -> usize {
    SHARD.with(|cell| {
        let s = cell.get();
        if s != usize::MAX {
            return s;
        }
        let s = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
        cell.set(s);
        s
    })
}

/// Add `n` to a counter: one relaxed `fetch_add` on this thread's shard
/// (nothing when telemetry is compiled out).
#[inline]
pub fn add(counter: Counter, n: u64) {
    if COMPILED {
        COUNTERS[shard_index()].counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Record one phase sample of `ns` nanoseconds (count, total, max, and the
/// log₂ histogram bucket).
#[inline]
pub fn record_phase(phase: Phase, ns: u64) {
    if COMPILED {
        let slot = &PHASES[phase as usize];
        slot.count.fetch_add(1, Ordering::Relaxed);
        slot.total_ns.fetch_add(ns, Ordering::Relaxed);
        slot.max_ns.fetch_max(ns, Ordering::Relaxed);
        slot.buckets[hist::bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
    }
}

/// Turn span timing on or off (the `--telemetry` flag and `mcs-exp
/// profile` turn it on). No-op when telemetry is compiled out.
pub fn set_timing(on: bool) {
    if COMPILED {
        TIMING.store(on, Ordering::Release);
    }
}

/// Whether span timing is currently on.
#[inline]
#[must_use]
pub fn timing_enabled() -> bool {
    COMPILED && TIMING.load(Ordering::Relaxed)
}

/// Turn the flight recorder on or off (the `--trace` flag and `mcs-exp
/// trace` turn it on). No-op when telemetry is compiled out.
pub fn set_tracing(on: bool) {
    if COMPILED {
        TRACING.store(on, Ordering::Release);
    }
}

/// Whether the flight recorder is currently on.
#[inline]
#[must_use]
pub fn tracing_enabled() -> bool {
    COMPILED && TRACING.load(Ordering::Relaxed)
}

/// `Some(Instant::now())` when timing is on — the cheap way to time a
/// region without the RAII span.
#[inline]
#[must_use]
pub fn now_if_timing() -> Option<Instant> {
    timing_enabled().then(Instant::now) // lint: allow(determinism, telemetry timing is stderr/sidecar-only by contract)
}

/// Count `n` trials computed by harness worker `w`.
#[inline]
pub fn worker_trials(w: usize, n: u64) {
    if COMPILED {
        WORKERS[w % MAX_WORKERS].trials.fetch_add(n, Ordering::Relaxed);
    }
}

/// Count one block claim by harness worker `w`.
#[inline]
pub fn worker_block(w: usize) {
    if COMPILED {
        WORKERS[w % MAX_WORKERS].blocks.fetch_add(1, Ordering::Relaxed);
    }
}

/// Add busy (in-trial) nanoseconds to harness worker `w`.
#[inline]
pub fn worker_busy_ns(w: usize, ns: u64) {
    if COMPILED {
        WORKERS[w % MAX_WORKERS].busy_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

/// Add wall-clock (spawn-to-exit) nanoseconds to harness worker `w`.
#[inline]
pub fn worker_wall_ns(w: usize, ns: u64) {
    if COMPILED {
        WORKERS[w % MAX_WORKERS].wall_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

/// Point-in-time reading of one phase histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseStat {
    /// The phase this stat describes.
    pub phase: Phase,
    /// Recorded spans.
    pub count: u64,
    /// Sum of span durations, nanoseconds.
    pub total_ns: u64,
    /// Largest span, nanoseconds. In a [`Snapshot::delta_since`] this is
    /// the lifetime maximum, not the window maximum.
    pub max_ns: u64,
    /// Log₂ histogram buckets ([`hist::BUCKETS`] entries).
    pub buckets: Vec<u64>,
}

impl PhaseStat {
    /// Mean span duration in nanoseconds (0 when no spans recorded).
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Approximate `q`-quantile (bucket upper bound) in nanoseconds.
    #[must_use]
    pub fn quantile_ns(&self, q: f64) -> u64 {
        hist::quantile(&self.buckets, q)
    }

    /// Bucket-midpoint `q`-quantile estimate in nanoseconds (the
    /// geometric mean of the realizing bucket's bounds — see
    /// [`hist::quantile_estimate`] for the estimator's rationale).
    #[must_use]
    pub fn quantile_estimate_ns(&self, q: f64) -> f64 {
        hist::quantile_estimate(&self.buckets, q)
    }
}

/// Point-in-time reading of one harness worker slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerStat {
    /// Worker index (slot number).
    pub index: usize,
    /// Trials this worker computed.
    pub trials: u64,
    /// Blocks this worker claimed.
    pub blocks: u64,
    /// Nanoseconds spent inside trial closures (timing-gated).
    pub busy_ns: u64,
    /// Worker wall-clock nanoseconds, spawn to exit (timing-gated).
    pub wall_ns: u64,
}

impl WorkerStat {
    /// Idle time: wall minus busy (0 when timing was off).
    #[must_use]
    pub fn idle_ns(&self) -> u64 {
        self.wall_ns.saturating_sub(self.busy_ns)
    }

    /// Whether this slot recorded nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.trials == 0 && self.blocks == 0 && self.busy_ns == 0 && self.wall_ns == 0
    }
}

/// A consistent-at-quiescence reading of the whole registry. Capture one
/// before and one after a region (with all workers joined) and take
/// [`Snapshot::delta_since`] to attribute activity to that region.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    counters: Vec<u64>,
    phases: Vec<PhaseStat>,
    workers: Vec<WorkerStat>,
}

impl Snapshot {
    /// Read every counter, phase, and worker slot. Reads are relaxed:
    /// capture at quiescent points (no concurrent instrumented work) for
    /// exact algebra.
    #[must_use]
    pub fn capture() -> Self {
        let counters = Counter::ALL
            .iter()
            .map(|c| COUNTERS.iter().map(|s| s.counters[*c as usize].load(Ordering::Relaxed)).sum())
            .collect();
        let phases = Phase::ALL
            .iter()
            .map(|p| {
                let slot = &PHASES[*p as usize];
                PhaseStat {
                    phase: *p,
                    count: slot.count.load(Ordering::Relaxed),
                    total_ns: slot.total_ns.load(Ordering::Relaxed),
                    max_ns: slot.max_ns.load(Ordering::Relaxed),
                    buckets: slot.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
                }
            })
            .collect();
        let workers = WORKERS
            .iter()
            .enumerate()
            .map(|(index, slot)| WorkerStat {
                index,
                trials: slot.trials.load(Ordering::Relaxed),
                blocks: slot.blocks.load(Ordering::Relaxed),
                busy_ns: slot.busy_ns.load(Ordering::Relaxed),
                wall_ns: slot.wall_ns.load(Ordering::Relaxed),
            })
            .collect();
        Self { counters, phases, workers }
    }

    /// Activity between `earlier` and `self` (saturating per field;
    /// `max_ns` is carried from `self`, see [`PhaseStat::max_ns`]).
    #[must_use]
    pub fn delta_since(&self, earlier: &Self) -> Self {
        let counters = self
            .counters
            .iter()
            .zip(&earlier.counters)
            .map(|(now, then)| now.saturating_sub(*then))
            .collect();
        let phases = self
            .phases
            .iter()
            .zip(&earlier.phases)
            .map(|(now, then)| PhaseStat {
                phase: now.phase,
                count: now.count.saturating_sub(then.count),
                total_ns: now.total_ns.saturating_sub(then.total_ns),
                max_ns: now.max_ns,
                buckets: now
                    .buckets
                    .iter()
                    .zip(&then.buckets)
                    .map(|(a, b)| a.saturating_sub(*b))
                    .collect(),
            })
            .collect();
        let workers = self
            .workers
            .iter()
            .zip(&earlier.workers)
            .map(|(now, then)| WorkerStat {
                index: now.index,
                trials: now.trials.saturating_sub(then.trials),
                blocks: now.blocks.saturating_sub(then.blocks),
                busy_ns: now.busy_ns.saturating_sub(then.busy_ns),
                wall_ns: now.wall_ns.saturating_sub(then.wall_ns),
            })
            .collect();
        Self { counters, phases, workers }
    }

    /// Value of one counter.
    #[must_use]
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// Every `(counter, value)` pair in registry order.
    pub fn counters(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL.iter().map(|c| (*c, self.counters[*c as usize]))
    }

    /// One phase's stats.
    #[must_use]
    pub fn phase(&self, phase: Phase) -> &PhaseStat {
        &self.phases[phase as usize]
    }

    /// Every phase's stats in registry order.
    #[must_use]
    pub fn phases(&self) -> &[PhaseStat] {
        &self.phases
    }

    /// Every worker slot (including empty ones).
    #[must_use]
    pub fn workers(&self) -> &[WorkerStat] {
        &self.workers
    }

    /// Sum of per-worker trial counts (should equal
    /// [`Counter::HarnessTrialsComputed`] at quiescence — the
    /// `telemetry-consistency` check, `mcs_audit::check_counters`, tests
    /// exactly this).
    #[must_use]
    pub fn worker_trials_sum(&self) -> u64 {
        self.workers.iter().map(|w| w.trials).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for c in Counter::ALL {
            assert_eq!(Counter::from_name(c.name()), Some(c));
        }
        for p in Phase::ALL {
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
        for k in EventKind::ALL {
            assert_eq!(EventKind::from_name(k.name()), Some(k));
        }
        assert_eq!(Counter::from_name("no_such_counter"), None);
        assert_eq!(EventKind::from_name("no_such_kind"), None);
    }

    #[test]
    fn event_table_rows_are_consistent() {
        // Wire names are unique across the whole table, counters and
        // kinds alike.
        let names: Vec<&str> = Counter::ALL
            .iter()
            .map(|c| c.name())
            .chain(EventKind::ALL.iter().map(|k| k.name()))
            .collect();
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "duplicate wire names in {names:?}");
        // Each counted kind sits on exactly one counter's row, and the
        // recorder-only kinds on none.
        let counted: Vec<EventKind> = Counter::ALL.iter().filter_map(|c| c.kind()).collect();
        let recorder_only = [
            EventKind::TrialBegin,
            EventKind::TrialEnd,
            EventKind::ProbeSweepBegin,
            EventKind::ProbeSweepEnd,
            EventKind::AdmissionRepair,
            EventKind::CheckpointWrite,
        ];
        for k in EventKind::ALL {
            let rows = counted.iter().filter(|&&c| c == k).count();
            assert_eq!(rows, usize::from(!recorder_only.contains(&k)), "{}", k.name());
        }
    }

    #[test]
    fn event_counts_and_records_each_counted_row() {
        const N: u64 = 5;
        let _lock = crate::test_lock();
        let rows: Vec<(Counter, EventKind)> =
            Counter::ALL.iter().filter_map(|&c| Some((c, c.kind()?))).collect();
        assert_eq!(rows.len(), 9, "three admission and six simulator rows");
        for tracing in [true, false] {
            drop(crate::trace::drain_thread(0));
            set_tracing(tracing);
            let before = Snapshot::capture();
            for &(c, _) in &rows {
                for i in 0..N {
                    crate::event!(c, i, 1, 2, 3);
                }
            }
            let delta = Snapshot::capture().delta_since(&before);
            set_tracing(false);
            let log = crate::trace::drain_thread(0);
            let counts = log.counts();
            for &(c, k) in &rows {
                let (counted, recorded) = match (COMPILED, tracing) {
                    (false, _) => (0, 0),
                    (true, true) => (N, N),
                    (true, false) => (N, 0),
                };
                assert_eq!(delta.counter(c), counted, "{} (tracing {tracing})", c.name());
                assert_eq!(counts[k as usize], recorded, "{} (tracing {tracing})", k.name());
            }
            if COMPILED && tracing {
                let ev = log.events.iter().find(|e| e.kind == rows[0].1).expect("recorded");
                assert_eq!((ev.tick, ev.a, ev.b, ev.c), (0, 1, 2, 3));
            }
        }
    }

    #[test]
    fn add_is_visible_in_snapshots() {
        let _lock = crate::test_lock();
        let before = Snapshot::capture();
        add(Counter::SimIdleResets, 3);
        let after = Snapshot::capture();
        let delta = after.delta_since(&before);
        if COMPILED {
            // Other tests in this binary may also bump counters
            // concurrently, so the delta is a lower bound.
            assert!(delta.counter(Counter::SimIdleResets) >= 3);
        } else {
            assert_eq!(delta.counter(Counter::SimIdleResets), 0);
        }
    }

    #[test]
    fn record_phase_fills_the_histogram() {
        let before = Snapshot::capture();
        record_phase(Phase::CheckpointFlush, 1000);
        record_phase(Phase::CheckpointFlush, 0);
        let delta = Snapshot::capture().delta_since(&before);
        let stat = delta.phase(Phase::CheckpointFlush);
        if COMPILED {
            assert!(stat.count >= 2);
            assert!(stat.total_ns >= 1000);
            assert!(stat.buckets[crate::hist::bucket_index(1000)] >= 1);
            assert!(stat.buckets[0] >= 1);
        } else {
            assert_eq!(stat.count, 0);
        }
    }

    #[test]
    fn worker_slots_accumulate_and_fold() {
        let before = Snapshot::capture();
        worker_trials(2, 5);
        worker_trials(2 + MAX_WORKERS, 1); // folds onto slot 2
        worker_block(2);
        worker_busy_ns(2, 100);
        worker_wall_ns(2, 150);
        let delta = Snapshot::capture().delta_since(&before);
        if COMPILED {
            assert!(delta.workers()[2].trials >= 6);
            assert!(delta.worker_trials_sum() >= 6);
            assert_eq!(delta.workers()[2].idle_ns(), 50);
        } else {
            assert!(delta.workers()[2].is_empty());
        }
    }

    #[test]
    fn timing_gate_controls_now_if_timing() {
        let _lock = crate::test_lock();
        set_timing(false);
        assert!(now_if_timing().is_none());
        set_timing(true);
        assert_eq!(now_if_timing().is_some(), COMPILED);
        set_timing(false);
    }
}
