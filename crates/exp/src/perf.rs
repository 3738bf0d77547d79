//! `mcs-exp perf` — probe-path throughput benchmark.
//!
//! Times the *reference* placement loops (fresh `WithTask` composite per
//! probe, full `Theorem1::compute` recomputation at commit — see
//! `mcs_partition::reference`) against the optimized `ProbeEngine` path on
//! the same batch of generated task sets, in the same process, in the same
//! run. Before timing, every pair is checked to produce the *identical*
//! outcome (same core per task, or the same failing task), so the speedup
//! number is for bit-equal work.
//!
//! The headline `probe_path_*` rows time the raw admission probe — the
//! operation placement loops perform `N·M` times per run — on identical
//! mid-placement core states: reference composite vs the fused verdict
//! kernel. The per-scheme rows time whole `partition()` calls, where the
//! cheap Eq. (4) pre-test caps how often the bin-packing family reaches the
//! probe at all (so their end-to-end speedups are structurally smaller
//! than CA-TPA's). Further rows time the end-to-end sweep, the harness
//! dispatch cost, the `mcs-obs` telemetry and flight-recorder costs, the
//! online admission engine and the two simulator engines.
//!
//! Every number is one [`Metric`] row — a key, a value and a [`Gate`] —
//! declared once, in [`run`]. The JSON (`BENCH_partition.json`), the
//! table, the `BENCH_history.jsonl` line and every pass/fail decision are
//! each one loop over that list:
//!
//! * [`Gate::Floor`] — a throughput `perf --check` holds to
//!   [`CHECK_TOLERANCE`] of the recorded baseline;
//! * [`Gate::Exact`] — an identity bit the fresh run must report `true`;
//! * [`Gate::Ceiling`] — an overhead budget the fresh run must stay under;
//! * [`Gate::RecordOnly`] — recorded, never enforced.
//!
//! `Exact` and `Ceiling` rows are enforced when recording and when
//! checking; a recording run that fails one writes nothing, so a diverged
//! run never becomes the baseline.

// lint: allow-file(determinism, wall-clock benchmark module; timings go to stderr and BENCH sidecars, never into published stdout records)

use std::fmt::{self, Write as _};
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use mcs_analysis::{batch_probe_verdicts, CoreBank, CoreSums, TaskRow, Theorem1, Verdict};
use mcs_gen::{generate_task_set, generate_trace, trial_seed, GenParams, TraceOp, TraceParams};
use mcs_harness::{JsonValue, RunSession};
use mcs_model::{McTask, TaskBuilder, TaskId, TaskSet, Tick, UtilTable, WithTask};
use mcs_partition::{
    paper_schemes, reference_paper_schemes, AdmissionEngine, AdmissionPolicy, PartitionFailure,
    PartitionQuality, Partitioner, ProbeEngine, QualityScratch,
};
use mcs_sim::{CoreSim, LevelCap, SchedulerKind, SimEngine, Trace};

use crate::report::Table;
use crate::sweep::{run_point, SweepConfig};

/// Minimum wall-clock spent per timed side (reference and engine each):
/// whole passes over the batch are repeated until this elapses, so the
/// rates are averaged over at least this long.
const MIN_TIMED: Duration = Duration::from_millis(300);

/// Fraction of a baseline throughput a fresh measurement must retain: a
/// [`Gate::Floor`] row fails `perf --check` when it regresses by more than
/// 25%.
pub const CHECK_TOLERANCE: f64 = 0.75;

/// Flight-recorder overhead budget on the admission hot path, in percent.
const RECORDER_BUDGET_PCT: f64 = 2.0;

const FLOOR: Gate = Gate::Floor(CHECK_TOLERANCE);

/// How `mcs-exp perf` enforces one metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Gate {
    /// Throughput: `perf --check` fails when the fresh value falls below
    /// this fraction of the baseline's.
    Floor(f64),
    /// Overhead budget in percent: the fresh value must stay below it.
    Ceiling(f64),
    /// Identity bit: the fresh value must be `true`.
    Exact,
    /// Recorded, never enforced.
    RecordOnly,
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Floor(ratio) => write!(f, "floor {:.0}% of baseline", ratio * 100.0),
            Self::Ceiling(pct) => write!(f, "ceiling {pct}%"),
            Self::Exact => f.write_str("exact"),
            Self::RecordOnly => f.write_str("record only"),
        }
    }
}

/// One recorded value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A measurement and the decimals it is recorded with.
    Num(f64, usize),
    /// A count or a size.
    Count(u64),
    /// A yes/no outcome.
    Bool(bool),
    /// A label.
    Text(&'static str),
    /// No measurement: the quantity was below resolution.
    Null,
}

impl Value {
    /// The value as a JSON token.
    fn json(&self) -> String {
        match self {
            Self::Num(x, decimals) => format!("{x:.decimals$}"),
            Self::Count(n) => n.to_string(),
            Self::Bool(b) => b.to_string(),
            Self::Text(s) => format!("\"{}\"", mcs_harness::json::escape(s)),
            Self::Null => "null".into(),
        }
    }
}

/// One row of the report.
#[derive(Clone, Debug)]
pub struct Metric {
    /// JSON key, unique within the report.
    pub key: String,
    /// The recorded value.
    pub value: Value,
    /// How the value is enforced.
    pub gate: Gate,
}

/// Full benchmark report: every recorded number, in output order.
#[derive(Clone, Debug, Default)]
pub struct PerfReport {
    /// The rows, in the order [`run`] declares them.
    pub metrics: Vec<Metric>,
}

impl PerfReport {
    fn push(&mut self, key: impl Into<String>, value: Value, gate: Gate) {
        self.metrics.push(Metric { key: key.into(), value, gate });
    }

    /// Render as a report table: one line per row, with its gate.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::new(["metric", "value", "gate"]);
        for m in &self.metrics {
            t.push_row([m.key.clone(), m.value.json(), m.gate.to_string()]);
        }
        t
    }

    /// JSON encoding: one top-level field per row (the workspace has no
    /// serde).
    #[must_use]
    pub fn to_json(&self) -> String {
        let rows: Vec<String> =
            self.metrics.iter().map(|m| format!("  \"{}\": {}", m.key, m.value.json())).collect();
        format!("{{\n{}\n}}\n", rows.join(",\n"))
    }

    /// Evaluate every gate. `Floor` rows are compared only when a
    /// `baseline` is given; `Exact` and `Ceiling` rows depend on the fresh
    /// run alone. `compared` counts the `Floor` and `Exact` rows.
    fn evaluate(&self, baseline: Option<&JsonValue>) -> Result<CheckOutcome, BaselineError> {
        let mut outcome = CheckOutcome { compared: 0, failures: Vec::new() };
        for Metric { key, value, gate } in &self.metrics {
            let failure = match (*gate, value) {
                (Gate::RecordOnly, _) => None,
                (Gate::Floor(ratio), &Value::Num(f, _)) => match baseline {
                    None => None,
                    Some(base) => {
                        let b = base
                            .get(key)
                            .and_then(JsonValue::as_f64)
                            .filter(|b| b.is_finite() && *b > 0.0)
                            .ok_or_else(|| BaselineError::Unusable(key.clone()))?;
                        outcome.compared += 1;
                        (f < b * ratio).then(|| {
                            format!(
                                "{key}: {f:.1}/s is {:.1}% below the baseline {b:.1}/s \
                                 (tolerance {:.0}%)",
                                (1.0 - f / b) * 100.0,
                                (1.0 - ratio) * 100.0
                            )
                        })
                    }
                },
                (Gate::Exact, &Value::Bool(holds)) => {
                    outcome.compared += 1;
                    (!holds).then(|| format!("{key}: identity gate is false in this run"))
                }
                (Gate::Ceiling(budget), &Value::Num(pct, _)) => (pct >= budget)
                    .then(|| format!("{key}: {pct:.2}% breaches the {budget}% budget")),
                (gate, value) => panic!("{key}: gate {gate:?} cannot hold value {value:?}"),
            };
            outcome.failures.extend(failure);
        }
        Ok(outcome)
    }
}

/// Same placement decision? Both scheme families certify Theorem 1, so
/// equality of the assignment map (or of the first stuck task) is the whole
/// observable outcome.
fn same_outcome(
    ts: &TaskSet,
    a: &Result<mcs_model::Partition, PartitionFailure>,
    b: &Result<mcs_model::Partition, PartitionFailure>,
) -> bool {
    match (a, b) {
        (Ok(pa), Ok(pb)) => ts.tasks().iter().all(|t| pa.core_of(t.id()) == pb.core_of(t.id())),
        (Err(ea), Err(eb)) => ea == eb,
        _ => false,
    }
}

/// Repeat `pass` — `per_pass` operations each — until `window` has
/// elapsed; returns operations per second. Callers run their own warm-up.
fn per_second(window: Duration, per_pass: u64, mut pass: impl FnMut()) -> f64 {
    let mut done = 0u64;
    let start = Instant::now();
    loop {
        pass();
        done += per_pass;
        if start.elapsed() >= window {
            break;
        }
    }
    done as f64 / start.elapsed().as_secs_f64()
}

/// Percent slowdown of `slowed` against `base`, both in operations per
/// second (clamped at 0).
fn slowdown_pct(base_per_sec: f64, slowed_per_sec: f64) -> f64 {
    (base_per_sec / slowed_per_sec - 1.0).max(0.0) * 100.0
}

/// Time one partitioner over the whole batch, repeating full passes until
/// [`MIN_TIMED`] elapses. Returns partition calls per second.
fn rate(scheme: &dyn Partitioner, sets: &[TaskSet], cores: usize) -> f64 {
    let pass = || {
        for ts in sets {
            black_box(scheme.partition(ts, cores).is_ok());
        }
    };
    // One untimed warm-up pass (fills the thread-local scratch, faults in
    // the batch).
    pass();
    per_second(MIN_TIMED, sets.len() as u64, pass)
}

/// Bitwise equality of two fused verdicts on every observable the
/// placement loops consume.
fn verdict_bits_match(a: &Verdict, b: &Verdict) -> bool {
    let ob = |v: Option<f64>| v.map(f64::to_bits);
    a.feasible() == b.feasible()
        && a.own_level_total.to_bits() == b.own_level_total.to_bits()
        && ob(a.core_utilization) == ob(b.core_utilization)
        && ob(a.core_utilization_slack) == ob(b.core_utilization_slack)
}

/// Raw probe-path rates, single Theorem-1 admission probes per second.
struct ProbeRates {
    /// Fresh `WithTask` composite + full `Theorem1::compute` + the Eq. (9)
    /// accessor, per probe.
    reference: f64,
    /// Precomputed `TaskRow` + the fused verdict kernel, one core per call.
    scalar: f64,
    /// One SoA sweep ([`batch_probe_verdicts`]) answers all `M` cores per
    /// call — the headline probe rate.
    batch: f64,
    /// Every batch lane verdict was bit-identical to the scalar verdict for
    /// the same (candidate, core) pair across the whole batch.
    batch_matches_scalar: bool,
}

/// Time the raw probe path — reference vs scalar engine vs the SoA batch
/// kernel — over mid-placement core states: each set's tasks are dealt
/// round-robin across `cores` cores, then every task is probed against
/// every core — the admission question the placement loops ask `N·M` times
/// per run. All three sides are timed over at least [`MIN_TIMED`] on the
/// identical states; before timing, every batch lane is checked bit-equal
/// to the scalar verdict for the same (candidate, core) pair.
fn probe_rates(sets: &[TaskSet], cores: usize) -> ProbeRates {
    let mut tables: Vec<Vec<UtilTable>> = Vec::with_capacity(sets.len());
    let mut sums: Vec<Vec<CoreSums>> = Vec::with_capacity(sets.len());
    let mut banks: Vec<CoreBank> = Vec::with_capacity(sets.len());
    let mut rows: Vec<Vec<TaskRow>> = Vec::with_capacity(sets.len());
    for ts in sets {
        let k = ts.num_levels();
        let mut t = vec![UtilTable::new(k); cores];
        let mut s = vec![CoreSums::new(k); cores];
        let mut bank = CoreBank::new();
        bank.reset(k, cores);
        for (i, task) in ts.tasks().iter().enumerate() {
            t[i % cores].add(task);
            let row = TaskRow::new(task);
            s[i % cores].add(&row);
            bank.add(i % cores, &row);
        }
        rows.push(ts.tasks().iter().map(TaskRow::new).collect());
        tables.push(t);
        sums.push(s);
        banks.push(bank);
    }
    let per_pass: u64 = sets.iter().map(|ts| (ts.len() * cores) as u64).sum();

    // Reference: fresh `WithTask` composite + full `Theorem1::compute` per
    // probe (one untimed warm-up pass first, as in `rate`).
    let reference_pass = || {
        for (ts, t) in sets.iter().zip(&tables) {
            for task in ts.tasks() {
                for table in t {
                    black_box(Theorem1::compute(&WithTask::new(table, task)).core_utilization());
                }
            }
        }
    };
    reference_pass();
    let reference = per_second(MIN_TIMED, per_pass, reference_pass);

    // Scalar engine: precomputed rows + the fused verdict kernel, one core
    // per call.
    let scalar_pass = || {
        for (r, s) in rows.iter().zip(&sums) {
            for row in r {
                for core in s {
                    black_box(core.probe_verdict(row).core_utilization);
                }
            }
        }
    };
    scalar_pass();
    let scalar = per_second(MIN_TIMED, per_pass, scalar_pass);

    // Batch: one SoA sweep answers every core. The bit-equality pass
    // doubles as the warm-up.
    let mut out: Vec<Verdict> = Vec::new();
    let mut batch_matches_scalar = true;
    for ((r, s), bank) in rows.iter().zip(&sums).zip(&banks) {
        for row in r {
            batch_probe_verdicts(bank, row, &mut out);
            for (core, lane) in s.iter().zip(&out) {
                if !verdict_bits_match(lane, &core.probe_verdict(row)) {
                    batch_matches_scalar = false;
                }
            }
        }
    }
    let batch = per_second(MIN_TIMED, per_pass, || {
        for (r, bank) in rows.iter().zip(&banks) {
            for row in r {
                batch_probe_verdicts(bank, row, &mut out);
                black_box(out.len());
            }
        }
    });

    ProbeRates { reference, scalar, batch, batch_matches_scalar }
}

/// Minimum wall-clock per scaling-table cell: large machines finish a
/// whole pass in this budget; small ones repeat passes.
const MIN_SCALED: Duration = Duration::from_millis(60);

/// Batch-kernel throughput across (cores, K) cells up to 1024 cores, as
/// `(cores, levels, batch probes per second)`. Task sets are sized at 16
/// tasks per core — per-core load stays at the default NSU while the
/// 1024-core cells probe sets in the tens of thousands of tasks — and
/// dealt round-robin, as in [`probe_rates`].
fn scaling_rates(seed: u64) -> Vec<(usize, u8, f64)> {
    const GRID: &[(usize, u8)] =
        &[(8, 2), (8, 4), (8, 8), (128, 2), (128, 4), (128, 8), (1024, 2), (1024, 4), (1024, 8)];
    let mut points = Vec::with_capacity(GRID.len());
    for &(cores, levels) in GRID {
        let n = 16 * cores;
        let params = GenParams::default().with_cores(cores).with_levels(levels).with_n_range(n, n);
        let ts = generate_task_set(&params, seed);
        let rows: Vec<TaskRow> = ts.tasks().iter().map(TaskRow::new).collect();
        let mut bank = CoreBank::new();
        bank.reset(ts.num_levels(), cores);
        for (i, row) in rows.iter().enumerate() {
            bank.add(i % cores, row);
        }
        let mut out: Vec<Verdict> = Vec::new();
        let rate = per_second(MIN_SCALED, (ts.len() * cores) as u64, || {
            for row in &rows {
                batch_probe_verdicts(&bank, row, &mut out);
                black_box(out.len());
            }
        });
        points.push((cores, levels, rate));
    }
    points
}

/// Time the telemetry cost on the batch probe path: identical
/// mid-placement core states probed through the raw batch kernel (no
/// instrumentation, the `telemetry-off` proxy) and through
/// [`ProbeEngine::probe_all_cores`] (tally cells + the span-timing gate).
/// Each set's tasks are dealt round-robin and kept only where the engine
/// admits them, so both sides hold the same state. Returns
/// `(raw, instrumented)` batch probes per second.
fn telemetry_rates(sets: &[TaskSet], cores: usize) -> (f64, f64) {
    let mut engines: Vec<ProbeEngine> = Vec::with_capacity(sets.len());
    let mut banks: Vec<CoreBank> = Vec::with_capacity(sets.len());
    let mut rows: Vec<Vec<TaskRow>> = Vec::with_capacity(sets.len());
    for ts in sets {
        let mut engine = ProbeEngine::new();
        engine.reset(ts, cores);
        let mut bank = CoreBank::new();
        bank.reset(ts.num_levels(), cores);
        for (i, task) in ts.tasks().iter().enumerate() {
            let m = i % cores;
            let v = engine.probe_verdict(m, task.id());
            if let (true, Some(util)) = (v.feasible(), v.core_utilization) {
                engine.commit(task.id(), m, util);
                bank.add(m, &TaskRow::new(task));
            }
        }
        rows.push(ts.tasks().iter().map(TaskRow::new).collect());
        engines.push(engine);
        banks.push(bank);
    }
    let per_pass: u64 = sets.iter().map(|ts| (ts.len() * cores) as u64).sum();

    // Raw batch-kernel loop — what `probe_all_cores` runs inside its spans
    // (one warm-up pass first).
    let mut out: Vec<Verdict> = Vec::new();
    let mut raw_pass = || {
        for (r, bank) in rows.iter().zip(&banks) {
            for row in r {
                batch_probe_verdicts(bank, row, &mut out);
                black_box(out.len());
            }
        }
    };
    raw_pass();
    let raw = per_second(MIN_TIMED, per_pass, raw_pass);

    // Instrumented batch path (counters on, timing off by default).
    let mut engine_pass = || {
        for (engine, ts) in engines.iter_mut().zip(sets) {
            for task in ts.tasks() {
                let (verdicts, _) = engine.probe_all_cores(task.id());
                black_box(verdicts.len());
            }
        }
    };
    engine_pass();
    (raw, per_second(MIN_TIMED, per_pass, engine_pass))
}

/// Trials per no-op dispatch pass: large enough that the per-trial
/// dispatch cost (well under a microsecond) accumulates measurably.
const DISPATCH_TRIALS: usize = 1 << 16;

/// Marker record for the dispatch measurement — no payload, but the
/// runner still builds, slots, and returns one per trial.
#[derive(Clone)]
struct NoopTrial;

impl mcs_harness::TrialRecord for NoopTrial {
    fn to_json(&self) -> String {
        "\"noop\":true".into()
    }
    fn from_json(_v: &mcs_harness::JsonValue) -> Option<Self> {
        Some(Self)
    }
}

/// Measure the runner's *pure* dispatch cost in nanoseconds per trial: a
/// no-op trial body over [`DISPATCH_TRIALS`] single-threaded trials vs the
/// same loop inline, where real per-trial work can't drown it. Returns
/// `None` when the difference is below measurement resolution.
fn dispatch_overhead_ns(seed: u64) -> Option<f64> {
    let inline_pass = || {
        for i in 0..DISPATCH_TRIALS {
            black_box(trial_seed(seed, i));
        }
    };
    inline_pass();
    let inline_per_sec = per_second(MIN_TIMED, DISPATCH_TRIALS as u64, inline_pass);

    let config = SweepConfig { trials: DISPATCH_TRIALS, threads: 1, seed };
    let runner_pass = || {
        let mut session = RunSession::new(config.clone());
        let records = session.point("dispatch").run(
            || (),
            |_, trial| {
                black_box(trial.seed);
                NoopTrial
            },
        );
        black_box(records.len());
    };
    runner_pass();
    let runner_per_sec = per_second(MIN_TIMED, DISPATCH_TRIALS as u64, runner_pass);

    let overhead = 1e9 / runner_per_sec - 1e9 / inline_per_sec;
    (overhead > 0.0).then_some(overhead)
}

/// Time the harness dispatch overhead: the exact per-trial sweep work
/// (deterministic seed derivation, task-set generation, every scheme
/// partitioning, quality summaries) as a bare inline loop — the shape every
/// command used before the harness — against [`run_point`] at one thread.
/// Both sides repeat full `trials`-sized passes until [`MIN_TIMED`]
/// elapses; the difference of per-trial times is the runner's scheduling,
/// record-building, and fold cost. Returns `(inline, runner)` trials per
/// second.
fn runner_rates(
    params: &GenParams,
    schemes: &[Box<dyn Partitioner + Send + Sync>],
    trials: usize,
    seed: u64,
) -> (f64, f64) {
    let mut quality = QualityScratch::new();
    let mut inline_pass = || {
        for i in 0..trials {
            let ts = generate_task_set(params, trial_seed(seed, i));
            for scheme in schemes {
                if let Ok(partition) = scheme.partition(&ts, params.cores) {
                    black_box(PartitionQuality::summarize(&ts, &partition, &mut quality).is_some());
                }
            }
        }
    };
    inline_pass();
    let inline = per_second(MIN_TIMED, trials as u64, inline_pass);

    let config = SweepConfig { trials, threads: 1, seed };
    let runner_pass = || {
        black_box(run_point(params, schemes, &config));
    };
    runner_pass();
    (inline, per_second(MIN_TIMED, trials as u64, runner_pass))
}

/// Lifecycle traces of the overloaded admission replay: four times the
/// default length and fewer departures, so the resident set fills the
/// cores and arrivals strand (the `admit_overload` shape of `mcs-bench`).
const OVERLOAD_TRACE: TraceParams = TraceParams { ops: 1024, depart_ratio: 0.25 };

/// Task sets in the overloaded admission replay (each trace is four times
/// as long and its rejects cost a repair search each).
const OVERLOAD_SETS: usize = 32;

/// Online admission throughput under the CA-TPA policy.
struct AdmissionRates {
    /// Arrival decisions per second. A decision is one `admit()` call —
    /// probe every core, select, commit (or repair/reject); departures
    /// ride along in the same stream but are not counted.
    per_sec: f64,
    /// Admitted fraction of all arrival decisions.
    accept_ratio: f64,
    /// The churned live state was bit-identical to a fresh rebuild of the
    /// surviving set after every replayed trace.
    state_identical: bool,
}

/// Time the online admission hot path: one CA-TPA [`AdmissionEngine`]
/// replays a deterministic `trace`-shaped lifecycle trace per task set
/// (with the default shape, the exact `mcs-exp admit` per-trial work),
/// repeated until [`MIN_TIMED`] elapses. The warm-up pass also evaluates
/// the rebuild-identity gate and the accept ratio, so both are measured on
/// the same streams the rate is.
fn admission_rates(
    sets: &[TaskSet],
    cores: usize,
    trace: &TraceParams,
    seed: u64,
) -> AdmissionRates {
    let traces = lifecycle_traces(sets, trace, seed);
    let mut engine = AdmissionEngine::new(AdmissionPolicy::catpa());
    let (mut admits, mut rejects) = (0u64, 0u64);
    let mut state_identical = true;
    for (ts, ops) in sets.iter().zip(&traces) {
        replay_set(&mut engine, ts, ops, cores, false);
        let stats = engine.stats();
        admits += stats.admits;
        rejects += stats.rejects;
        state_identical &= engine.state_identical_to_rebuild();
    }
    let per_sec = per_second(MIN_TIMED, arrivals(&traces), || {
        replay_in(&mut engine, sets, &traces, cores, false);
    });
    AdmissionRates {
        per_sec,
        accept_ratio: admits as f64 / (admits + rejects) as f64,
        state_identical,
    }
}

/// One deterministic lifecycle trace per set.
fn lifecycle_traces(sets: &[TaskSet], trace: &TraceParams, seed: u64) -> Vec<Vec<TraceOp>> {
    sets.iter()
        .enumerate()
        .map(|(i, ts)| generate_trace(ts.len(), trace, trial_seed(seed, i)))
        .collect()
}

/// Arrival decisions in one replay pass of `traces`.
fn arrivals(traces: &[Vec<TraceOp>]) -> u64 {
    traces
        .iter()
        .map(|ops| ops.iter().filter(|op| matches!(op, TraceOp::Arrive(_))).count() as u64)
        .sum()
}

/// Independent measurement rounds for the recorder overhead; the round
/// with the smallest measured overhead is reported. More, shorter rounds
/// beat fewer long ones: a noise burst has to land on the on-side of
/// *every* round to survive the minimum.
const RECORDER_ROUNDS: usize = 16;
/// Wall-clock floor of one recorder measurement round.
const RECORDER_ROUND_WINDOW: Duration = Duration::from_millis(40);

/// Measure the flight-recorder overhead on the admission hot path: the
/// same lifecycle replay as [`admission_rates`], gate-off and gate-on
/// interleaved **per set**. One admission decision records one or two
/// `TraceEvent`s (span begin/end plus lifecycle instants), so the ratio is
/// the recorder's end-to-end hot-path overhead. Each set is replayed
/// twice back to back — once per gate state, order alternating so cache
/// warmth cancels — and each side accumulates its own wall time, so a
/// co-tenant noise transient lands on both sides of the ratio instead of
/// poisoning one 75 ms window (the coarse-window shape this replaces
/// swung ±10% run to run on shared hosts). On top of the interleaving,
/// the measurement runs [`RECORDER_ROUNDS`] independent rounds and keeps
/// the round with the *smallest* overhead — the standard min-estimator:
/// external disturbance only ever adds time, so the least-disturbed round
/// is the closest to the true cost. The on-side drains the ring after
/// every set — the harness runner's per-trial cadence, which keeps the
/// ring cache-resident in production — but outside the timed leg: the
/// drain is fold-side harness work amortized over the whole trial, not
/// admission-path cost, and the discarded batches never leak into a
/// later `--trace` stream. The global tracing gate is restored to its
/// prior state on return. Returns `(off, on)` decisions per second.
fn recorder_rates(sets: &[TaskSet], cores: usize, seed: u64) -> (f64, f64) {
    let traces = lifecycle_traces(sets, &TraceParams::default(), seed);
    let decisions_per_pass = arrivals(&traces);

    let mut engine = AdmissionEngine::new(AdmissionPolicy::catpa());
    let was = mcs_obs::tracing_enabled();
    mcs_obs::set_tracing(false);
    replay_in(&mut engine, sets, &traces, cores, true); // warm-up

    let mut best: Option<(f64, f64)> = None;
    let mut on_first = false;
    // Reused drain target: after the first few sets its capacity is the
    // high-water mark, so the untimed per-set drains allocate nothing and
    // leave the allocator state identical across legs.
    let mut scratch = mcs_obs::TraceLog::default();
    for _ in 0..RECORDER_ROUNDS {
        let (mut off_secs, mut on_secs) = (0.0f64, 0.0f64);
        let mut decisions_per_side = 0u64;
        let start = Instant::now();
        loop {
            for (ts, ops) in sets.iter().zip(&traces) {
                for leg in 0..2 {
                    let on = (leg == 0) == on_first;
                    mcs_obs::set_tracing(on);
                    let t = Instant::now();
                    replay_set(&mut engine, ts, ops, cores, false);
                    let elapsed = t.elapsed().as_secs_f64();
                    if on {
                        on_secs += elapsed;
                        // Drain outside the timed leg: the per-trial drain
                        // is fold-side harness work (amortized over
                        // generation, audit and checkpointing in
                        // production), not admission-path cost — but doing
                        // it per set keeps the ring in its production
                        // regime: one trial's events, cache-resident,
                        // never wrapping.
                        scratch.events.clear();
                        mcs_obs::trace::drain_thread_into(0, &mut scratch);
                    } else {
                        off_secs += elapsed;
                    }
                }
                on_first = !on_first;
            }
            decisions_per_side += decisions_per_pass;
            if start.elapsed() >= RECORDER_ROUND_WINDOW {
                break;
            }
        }
        mcs_obs::set_tracing(false);
        let round = (decisions_per_side as f64 / off_secs, decisions_per_side as f64 / on_secs);
        if best.is_none_or(|(off, on)| slowdown_pct(round.0, round.1) < slowdown_pct(off, on)) {
            best = Some(round);
        }
    }
    // Belt-and-braces: the per-set drains discard as they go, but a final
    // drain guarantees nothing leaks into a later `--trace` stream.
    drop(mcs_obs::trace::drain_thread(0));
    mcs_obs::set_tracing(was);
    best.expect("RECORDER_ROUNDS > 0 ⇒ at least one measured round")
}

/// One full replay pass of every lifecycle trace. When `drain`
/// is set, the thread ring is drained and discarded after every set —
/// the production cadence: the harness runner drains each worker's ring
/// at every trial closure, so the ring never grows past one trial's
/// events and stays cache-resident. Timing the wrap regime instead
/// charges the recorder for a steady state it never runs in (and the
/// drain side charges it for the per-trial drain it does run in).
fn replay_in(
    engine: &mut AdmissionEngine,
    sets: &[TaskSet],
    traces: &[Vec<TraceOp>],
    cores: usize,
    drain: bool,
) {
    for (ts, ops) in sets.iter().zip(traces) {
        replay_set(engine, ts, ops, cores, drain);
    }
}

/// Replay one set's lifecycle trace (one "trial" of admission work); with
/// `drain`, close it the way the harness runner closes a trial — drain
/// the thread ring and discard the batch.
fn replay_set(
    engine: &mut AdmissionEngine,
    ts: &TaskSet,
    ops: &[TraceOp],
    cores: usize,
    drain: bool,
) {
    engine.reset(ts, cores);
    for op in ops {
        match *op {
            TraceOp::Arrive(id) => {
                black_box(engine.admit(id).admitted());
            }
            TraceOp::Depart(id) => {
                black_box(engine.depart(id));
            }
        }
    }
    if drain {
        black_box(mcs_obs::trace::drain_thread(0).events.len());
    }
}

/// Tasks in the synthetic simulator workload.
const SIM_TASKS: usize = 2048;
/// Simulated horizon of each timed simulator run, in ticks.
const SIM_HORIZON: Tick = 1_000_000;

/// Simulator-engine throughput on one synthetic single-core workload.
struct SimRates {
    /// Trace events one run produces (identical for both engines).
    events_per_run: u64,
    /// [`CoreSim`] on the scan index ([`SimEngine::Tick`]) trace events
    /// per second.
    tick: f64,
    /// [`CoreSim`] on the per-level heaps ([`SimEngine::Event`]) trace
    /// events per second.
    event: f64,
    /// The traced reports and event sequences were bit-identical.
    trace_identical: bool,
}

/// Time the simulator on both release indexes on [`SIM_TASKS`] tasks at
/// ~0.5 utilization to a [`SIM_HORIZON`]-tick horizon. The periods are
/// spread (`50 000 + 31·i`) so releases rarely coincide — the regime where
/// the scan oracle's per-stop O(n) passes dominate and the per-level heaps
/// pay off. One traced run per engine first establishes bit-identity
/// (report + event sequence), so events/second is the same work on both
/// sides; the timed loops then run untraced, and the common event count
/// converts wall-clock to events/s. Each side reports its *fastest* run
/// (of at least three): the tick oracle is slow enough that a
/// [`MIN_TIMED`] window holds only a couple of runs, so an averaged rate
/// hands one co-tenant noise burst the whole gate — the minimum is the
/// stable estimator of the true cost.
fn sim_rates() -> SimRates {
    let tasks: Vec<McTask> = (0..SIM_TASKS)
        .map(|i| {
            let period = 50_000 + 31 * i as u64;
            // ~0.5 total utilization spread over the set.
            let wcet = (period / (2 * SIM_TASKS as u64)).max(1);
            TaskBuilder::new(TaskId(u32::try_from(i).expect("few tasks")))
                .period(period)
                .level(1)
                .wcet(&[wcet])
                .build()
                .expect("valid synthetic task")
        })
        .collect();
    let sim =
        |engine| CoreSim::new(tasks.iter().collect(), SchedulerKind::PlainEdf).with_engine(engine);

    let mut tick_trace = Trace::enabled(1 << 20);
    let tick_report = sim(SimEngine::Tick).run(&mut LevelCap::lo(), SIM_HORIZON, &mut tick_trace);
    let mut event_trace = Trace::enabled(1 << 20);
    let event_report =
        sim(SimEngine::Event).run(&mut LevelCap::lo(), SIM_HORIZON, &mut event_trace);
    let trace_identical =
        tick_report == event_report && tick_trace.events() == event_trace.events();
    let events_per_run = tick_trace.events().len() as u64;

    let timed = |engine: SimEngine| {
        let mut best = f64::INFINITY;
        let mut runs = 0u32;
        let start = Instant::now();
        loop {
            let mut trace = Trace::disabled();
            let t = Instant::now();
            let report = sim(engine).run(&mut LevelCap::lo(), SIM_HORIZON, &mut trace);
            let secs = t.elapsed().as_secs_f64();
            black_box(&report);
            best = best.min(secs);
            runs += 1;
            if runs >= 3 && start.elapsed() >= MIN_TIMED {
                break;
            }
        }
        events_per_run as f64 / best
    };
    SimRates {
        events_per_run,
        tick: timed(SimEngine::Tick),
        event: timed(SimEngine::Event),
        trace_identical,
    }
}

/// Run the benchmark and declare every metric row, with its gate.
///
/// `config.trials` sizes both the timed batch (capped at 256 sets — the
/// per-call rates converge long before that) and the sweep timing.
#[must_use]
pub fn run(config: &SweepConfig) -> PerfReport {
    use Gate::{Exact, RecordOnly};
    use Value::{Bool, Count, Null, Num, Text};

    let params = GenParams::default();
    let cores = params.cores;
    let batch = config.trials.clamp(1, 256);
    let sets: Vec<TaskSet> =
        (0..batch).map(|i| generate_task_set(&params, config.seed + i as u64)).collect();
    let reference = reference_paper_schemes();
    let engine = paper_schemes();
    assert_eq!(reference.len(), engine.len(), "scheme families must pair up");
    let identical = sets.iter().all(|ts| {
        reference
            .iter()
            .zip(&engine)
            .all(|(r, e)| same_outcome(ts, &r.partition(ts, cores), &e.partition(ts, cores)))
    });

    let mut r = PerfReport::default();
    r.push("benchmark", Text("mcs-exp perf"), RecordOnly);
    r.push("task_sets", Count(batch as u64), RecordOnly);
    r.push("cores", Count(cores as u64), RecordOnly);
    r.push("tasks_total", Count(sets.iter().map(|ts| ts.len() as u64).sum()), RecordOnly);
    r.push("partitions_identical", Bool(identical), Exact);

    let probe = probe_rates(&sets, cores);
    r.push("probe_path_reference_per_sec", Num(probe.reference, 1), FLOOR);
    r.push("probe_path_engine_per_sec", Num(probe.batch, 1), FLOOR);
    r.push("probe_path_scalar_per_sec", Num(probe.scalar, 1), FLOOR);
    r.push("probe_path_speedup", Num(probe.batch / probe.reference, 3), RecordOnly);
    r.push("probe_path_scalar_speedup", Num(probe.scalar / probe.reference, 3), RecordOnly);
    r.push("probe_path_batch_matches_scalar", Bool(probe.batch_matches_scalar), Exact);
    for (m, k, rate) in scaling_rates(config.seed) {
        // A 60 ms window on one resident set is too short to hold a floor.
        r.push(format!("probe_scaling_m{m}_k{k}_per_sec"), Num(rate, 1), RecordOnly);
    }

    let (raw, instrumented) = telemetry_rates(&sets, cores);
    r.push("telemetry_compiled", Bool(mcs_obs::COMPILED), RecordOnly);
    r.push("telemetry_probe_raw_per_sec", Num(raw, 1), FLOOR);
    r.push("telemetry_probe_engine_per_sec", Num(instrumented, 1), FLOOR);
    // An upper bound only: the engine side also does its own batch
    // bookkeeping, so this is not the telemetry cost alone.
    r.push("telemetry_probe_overhead_pct", Num(slowdown_pct(raw, instrumented), 2), RecordOnly);

    // The per-scheme rows are gated through their harmonic totals: the
    // rate of running every scheme once is n / Σ (1/rate_i).
    let (mut ref_secs, mut eng_secs) = (0.0f64, 0.0f64);
    for (re, en) in reference.iter().zip(&engine) {
        let scheme: String = en
            .name()
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
            .collect();
        let ref_rate = rate(re.as_ref(), &sets, cores);
        let eng_rate = rate(en.as_ref(), &sets, cores);
        ref_secs += ref_rate.recip();
        eng_secs += eng_rate.recip();
        r.push(format!("scheme_{scheme}_reference_per_sec"), Num(ref_rate, 1), RecordOnly);
        r.push(format!("scheme_{scheme}_engine_per_sec"), Num(eng_rate, 1), RecordOnly);
        r.push(format!("scheme_{scheme}_speedup"), Num(eng_rate / ref_rate, 3), RecordOnly);
    }
    let n = engine.len() as f64;
    let (ref_all, eng_all) = (n / ref_secs, n / eng_secs);
    r.push("reference_partitions_per_sec", Num(ref_all, 1), FLOOR);
    r.push("engine_partitions_per_sec", Num(eng_all, 1), FLOOR);
    r.push("speedup", Num(eng_all / ref_all, 3), RecordOnly);

    let (inline, runner) = runner_rates(&params, &engine, batch, config.seed);
    let dispatch_ns = dispatch_overhead_ns(config.seed);
    r.push("inline_loop_trials_per_sec", Num(inline, 1), FLOOR);
    r.push("runner_trials_per_sec", Num(runner, 1), FLOOR);
    // A difference of two rates: often below resolution, then `null`.
    r.push("runner_overhead_ns_per_trial", dispatch_ns.map_or(Null, |ns| Num(ns, 1)), RecordOnly);
    r.push("runner_overhead_below_resolution", Bool(dispatch_ns.is_none()), RecordOnly);

    let admission = admission_rates(&sets, cores, &TraceParams::default(), config.seed);
    r.push("admissions_per_sec", Num(admission.per_sec, 1), FLOOR);
    r.push("admission_accept_ratio", Num(admission.accept_ratio, 4), RecordOnly);
    r.push("admission_state_identical", Bool(admission.state_identical), Exact);
    let overload_params = params.clone().with_nsu(1.0);
    let overload_sets: Vec<TaskSet> = (0..batch.min(OVERLOAD_SETS))
        .map(|i| generate_task_set(&overload_params, config.seed + i as u64))
        .collect();
    let overload = admission_rates(&overload_sets, cores, &OVERLOAD_TRACE, config.seed);
    r.push("admission_overload_per_sec", Num(overload.per_sec, 1), FLOOR);
    r.push("admission_overload_accept_ratio", Num(overload.accept_ratio, 4), RecordOnly);
    r.push("admission_overload_state_identical", Bool(overload.state_identical), Exact);

    let (off, on) = recorder_rates(&sets, cores, config.seed);
    r.push("recorder_compiled", Bool(mcs_obs::COMPILED), RecordOnly);
    r.push("recorder_admission_off_per_sec", Num(off, 1), FLOOR);
    r.push("recorder_admission_on_per_sec", Num(on, 1), FLOOR);
    // Compiled out, both legs run the same code: nothing to budget.
    let budget = if mcs_obs::COMPILED { Gate::Ceiling(RECORDER_BUDGET_PCT) } else { RecordOnly };
    r.push("recorder_admission_overhead_pct", Num(slowdown_pct(off, on), 2), budget);

    let sim = sim_rates();
    r.push("sim_tasks", Count(SIM_TASKS as u64), RecordOnly);
    r.push("sim_horizon_ticks", Count(SIM_HORIZON), RecordOnly);
    r.push("sim_events_per_run", Count(sim.events_per_run), RecordOnly);
    r.push("sim_tick_events_per_sec", Num(sim.tick, 1), FLOOR);
    r.push("sim_events_per_sec", Num(sim.event, 1), FLOOR);
    r.push("sim_event_speedup", Num(sim.event / sim.tick, 3), RecordOnly);
    r.push("sim_trace_identical", Bool(sim.trace_identical), Exact);

    let sweep_start = Instant::now();
    let point = run_point(&params, &engine, config);
    black_box(&point);
    let sweep_per_sec = config.trials as f64 / sweep_start.elapsed().as_secs_f64();
    r.push("sweep_trials", Count(config.trials as u64), RecordOnly);
    r.push("sweep_threads", Count(config.effective_threads() as u64), RecordOnly);
    r.push("sweep_trials_per_sec", Num(sweep_per_sec, 1), FLOOR);
    r
}

/// Outcome of evaluating the gates: how many `Floor` and `Exact` rows
/// were compared, and the failures, if any.
#[derive(Clone, Debug)]
pub struct CheckOutcome {
    /// `Floor` rows compared against the baseline plus `Exact` rows.
    pub compared: usize,
    /// Human-readable failure lines; empty means every gate holds.
    pub failures: Vec<String>,
}

/// A baseline `perf --check` cannot gate against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BaselineError {
    /// The baseline is not valid JSON.
    Parse(String),
    /// A `Floor` row's baseline value is missing, not a number, or not a
    /// positive finite number, so its gate could never trip.
    Unusable(String),
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Parse(e) => write!(f, "baseline does not parse: {e}"),
            Self::Unusable(key) => write!(
                f,
                "baseline value of gated key `{key}` is missing, not a number, or not \
                 positive; record a new baseline"
            ),
        }
    }
}

impl std::error::Error for BaselineError {}

/// `perf --check`: evaluate every gate of a fresh [`PerfReport`] against a
/// checked-in baseline JSON (`BENCH_partition.json`). Each `Floor` row
/// must retain [`CHECK_TOLERANCE`] of the baseline's value; each `Exact`
/// row must be `true` and each `Ceiling` row under its budget in the fresh
/// run, whatever the baseline recorded. The baseline goes through the same
/// `mcs_harness::json` parser the rest of the workspace uses.
///
/// # Errors
/// When the baseline does not parse, or a `Floor` row's baseline value is
/// unusable (see [`BaselineError`]).
pub fn check_against_baseline(
    baseline: &str,
    fresh: &PerfReport,
) -> Result<CheckOutcome, BaselineError> {
    let base = mcs_harness::json::parse(baseline).map_err(BaselineError::Parse)?;
    fresh.evaluate(Some(&base))
}

/// Record `report` into `dir`: overwrite `BENCH_partition.json` and append
/// its [`history_line`] to `BENCH_history.jsonl` — but only when every
/// `Exact` and `Ceiling` row holds, so a failing run never becomes the
/// baseline. Returns the gate outcome either way.
///
/// # Errors
/// When a file cannot be written.
pub fn record(report: &PerfReport, dir: &Path) -> Result<CheckOutcome, String> {
    let outcome = report.evaluate(None).expect("without a baseline no value is read from one");
    if outcome.failures.is_empty() {
        std::fs::write(dir.join("BENCH_partition.json"), report.to_json())
            .map_err(|e| format!("cannot write BENCH_partition.json: {e}"))?;
        let mut history = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("BENCH_history.jsonl"))
            .map_err(|e| format!("cannot open BENCH_history.jsonl: {e}"))?;
        writeln!(history, "{}", history_line(report))
            .map_err(|e| format!("cannot append BENCH_history.jsonl: {e}"))?;
    }
    Ok(outcome)
}

/// One compact line for the bench trajectory history
/// (`BENCH_history.jsonl`): provenance plus every gated row, appended by
/// every recording `perf` run so regressions can be traced to a commit
/// rather than only caught by the `--check` tolerance.
#[must_use]
pub fn history_line(r: &PerfReport) -> String {
    let mut line = format!(
        "{{\"git\":\"{}\",\"build_profile\":\"{}\"",
        mcs_harness::json::escape(&mcs_obs::git_describe()),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    );
    for m in r.metrics.iter().filter(|m| m.gate != Gate::RecordOnly) {
        let _ = write!(line, ",\"{}\":{}", m.key, m.value.json());
    }
    line.push('}');
    line
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::sync::OnceLock;

    use proptest::prelude::*;

    use super::*;

    const FLOORS: [&str; 16] = [
        "probe_path_reference_per_sec",
        "probe_path_engine_per_sec",
        "probe_path_scalar_per_sec",
        "telemetry_probe_raw_per_sec",
        "telemetry_probe_engine_per_sec",
        "reference_partitions_per_sec",
        "engine_partitions_per_sec",
        "inline_loop_trials_per_sec",
        "runner_trials_per_sec",
        "admissions_per_sec",
        "admission_overload_per_sec",
        "recorder_admission_off_per_sec",
        "recorder_admission_on_per_sec",
        "sim_tick_events_per_sec",
        "sim_events_per_sec",
        "sweep_trials_per_sec",
    ];
    const EXACT: [&str; 5] = [
        "partitions_identical",
        "probe_path_batch_matches_scalar",
        "admission_state_identical",
        "admission_overload_state_identical",
        "sim_trace_identical",
    ];
    const CEILING: &str = "recorder_admission_overhead_pct";

    /// One small run shared by every test here (a run takes seconds),
    /// with the recorder overhead pinned to 0%: the measured value swings
    /// with host noise, and the gate logic under test must not.
    fn report() -> &'static PerfReport {
        static REPORT: OnceLock<PerfReport> = OnceLock::new();
        REPORT.get_or_init(|| {
            let r = run(&SweepConfig { trials: 6, threads: 1, seed: 11 });
            let pct = num(&r, CEILING);
            assert!(pct.is_finite() && pct >= 0.0, "recorder overhead {pct}");
            with(&r, CEILING, Value::Num(0.0, 2))
        })
    }

    fn value<'a>(r: &'a PerfReport, key: &str) -> &'a Value {
        &r.metrics.iter().find(|m| m.key == key).unwrap_or_else(|| panic!("no row {key}")).value
    }

    fn num(r: &PerfReport, key: &str) -> f64 {
        match value(r, key) {
            Value::Num(x, _) => *x,
            v => panic!("{key} is not a number: {v:?}"),
        }
    }

    /// A copy of `r` with row `key` set to `v`.
    fn with(r: &PerfReport, key: &str, v: Value) -> PerfReport {
        let mut out = r.clone();
        out.metrics.iter_mut().find(|m| m.key == key).expect("known key").value = v;
        out
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mcs-exp-perf-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn report_runs_and_agrees_on_a_small_batch() {
        let r = report();
        assert_eq!(value(r, "task_sets"), &Value::Count(6));
        for key in EXACT {
            assert_eq!(value(r, key), &Value::Bool(true), "{key} failed");
        }
        for m in r.metrics.iter().filter(|m| m.key.ends_with("_per_sec")) {
            assert!(num(r, &m.key) > 0.0, "{} is not a positive rate", m.key);
        }
        let cells = r.metrics.iter().filter(|m| m.key.starts_with("probe_scaling_")).count();
        assert_eq!(cells, 9);
        match value(r, "runner_overhead_ns_per_trial") {
            Value::Num(ns, _) => assert!(ns.is_finite() && *ns > 0.0, "dispatch overhead {ns}"),
            v => assert_eq!(v, &Value::Null),
        }
        let accept = num(r, "admission_accept_ratio");
        assert!(accept > 0.0 && accept <= 1.0);
        assert!(num(r, "admission_overload_accept_ratio") < accept, "overload must reject more");
        assert!(num(r, "telemetry_probe_overhead_pct").is_finite());
        assert!(matches!(value(r, "sim_events_per_run"), Value::Count(n) if *n > 0));

        // Every key is unique, and the JSON parses back to the list's
        // values, in order.
        let keys: BTreeSet<&str> = r.metrics.iter().map(|m| m.key.as_str()).collect();
        assert_eq!(keys.len(), r.metrics.len(), "duplicate metric key");
        let json = r.to_json();
        assert!(json.ends_with("}\n"));
        let Ok(JsonValue::Obj(fields)) = mcs_harness::json::parse(&json) else {
            panic!("report JSON does not parse to an object:\n{json}");
        };
        assert_eq!(fields.len(), r.metrics.len());
        for (m, (key, v)) in r.metrics.iter().zip(&fields) {
            assert_eq!(&m.key, key);
            let same = match &m.value {
                Value::Num(x, d) => v.as_f64() == format!("{x:.d$}").parse().ok(),
                Value::Count(n) => v.as_u64() == Some(*n),
                Value::Bool(b) => v.as_bool() == Some(*b),
                Value::Text(s) => v.as_str() == Some(*s),
                Value::Null => *v == JsonValue::Null,
            };
            assert!(same, "{key}: JSON {v:?} vs row {:?}", m.value);
        }

        // The history line holds provenance plus exactly the gated rows.
        let line = history_line(r);
        let Ok(JsonValue::Obj(fields)) = mcs_harness::json::parse(&line) else {
            panic!("history line does not parse: {line}");
        };
        let gated = r.metrics.iter().filter(|m| m.gate != Gate::RecordOnly).map(|m| &m.key);
        let expected: Vec<&str> =
            ["git", "build_profile"].into_iter().chain(gated.map(String::as_str)).collect();
        let got: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(got, expected);

        // `--check` on the same report: a run passes against its own
        // snapshot with 16 floors + 5 identity bits compared, and fails
        // against an inflated baseline (injected regression).
        let check = check_against_baseline(&json, r).expect("own snapshot is a valid baseline");
        assert!(check.failures.is_empty(), "self-check failed: {:?}", check.failures);
        assert_eq!(check.compared, FLOORS.len() + EXACT.len());
        let rate = num(r, "admissions_per_sec");
        let inflated = with(r, "admissions_per_sec", Value::Num(10.0 * rate, 1)).to_json();
        let failed = check_against_baseline(&inflated, r).expect("inflated baseline is usable");
        assert_eq!(failed.failures.len(), 1, "{:?}", failed.failures);
        assert!(failed.failures[0].starts_with("admissions_per_sec:"), "{:?}", failed.failures);
        assert!(matches!(check_against_baseline("not json", r), Err(BaselineError::Parse(_))));
        assert!(matches!(check_against_baseline("{}", r), Err(BaselineError::Unusable(_))));
        // The recorder budget holds in check mode too, whenever compiled in.
        let over = with(r, CEILING, Value::Num(RECORDER_BUDGET_PCT, 2));
        let failed = check_against_baseline(&json, &over).expect("usable");
        assert_eq!(failed.failures.len(), usize::from(mcs_obs::COMPILED), "{failed:?}");
    }

    /// Freeze the gate inventory: dropping or downgrading a gate must fail
    /// here, not go unnoticed.
    #[test]
    fn gate_inventory_is_frozen() {
        let mut expected: BTreeSet<(&str, String)> = BTreeSet::new();
        expected.extend(FLOORS.map(|k| (k, FLOOR.to_string())));
        expected.extend(EXACT.map(|k| (k, Gate::Exact.to_string())));
        if mcs_obs::COMPILED {
            expected.insert((CEILING, Gate::Ceiling(RECORDER_BUDGET_PCT).to_string()));
        }
        let gated: BTreeSet<(&str, String)> = report()
            .metrics
            .iter()
            .filter(|m| m.gate != Gate::RecordOnly)
            .map(|m| (m.key.as_str(), m.gate.to_string()))
            .collect();
        assert_eq!(gated, expected);
    }

    #[test]
    fn a_false_identity_bit_is_never_recorded_and_never_disarms_the_check() {
        let diverged = with(report(), "admission_state_identical", Value::Bool(false));
        let dir = temp_dir("record");
        let outcome = record(&diverged, &dir).expect("nothing to write");
        assert_eq!(outcome.failures.len(), 1, "{:?}", outcome.failures);
        assert!(outcome.failures[0].starts_with("admission_state_identical:"));
        let written = std::fs::read_dir(&dir).expect("temp dir").count();
        assert_eq!(written, 0, "a refused run wrote files");

        // A baseline that recorded `false` still gates the bit.
        let check = check_against_baseline(&diverged.to_json(), &diverged).expect("usable");
        assert_eq!(check.compared, FLOORS.len() + EXACT.len());
        assert_eq!(check.failures, outcome.failures);

        // A passing run writes both files.
        assert!(record(report(), &dir).expect("writable").failures.is_empty());
        let baseline = std::fs::read_to_string(dir.join("BENCH_partition.json")).expect("written");
        assert_eq!(baseline, report().to_json());
        let history = std::fs::read_to_string(dir.join("BENCH_history.jsonl")).expect("written");
        assert_eq!(history, format!("{}\n", history_line(report())));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Values a baseline row can be corrupted to.
    const CORRUPT: [&str; 12] =
        ["\"fast\"", "true", "null", "[]", "{}", "0", "0.0", "-0", "-1.5", "1e300", "1e400", "NaN"];

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// A self-recorded baseline with one row dropped or corrupted, or
        /// its text truncated: `check_against_baseline` never panics, and
        /// returns `Err` exactly when the text does not parse or a `Floor`
        /// row's value is unusable — naming that row.
        #[test]
        fn malformed_baselines_are_refused_by_key(
            line in any::<usize>(),
            mutation in 0..=CORRUPT.len() + 1,
            cut in any::<usize>(),
        ) {
            let json = report().to_json();
            let lines: Vec<&str> = json.lines().collect();
            let i = 1 + line % (lines.len() - 2);
            let text = match mutation {
                0 => [&lines[..i], &lines[i + 1..]].concat().join("\n"),
                1 => json[..cut % json.len()].to_string(),
                m => {
                    let (key, rest) = lines[i].split_once(": ").expect("`key: value` row");
                    let comma = if rest.ends_with(',') { "," } else { "" };
                    let mut out = lines.clone();
                    let corrupted = format!("{key}: {}{comma}", CORRUPT[m - 2]);
                    out[i] = &corrupted;
                    out.join("\n")
                }
            };
            let usable = |base: &JsonValue, key: &str| {
                base.get(key).and_then(JsonValue::as_f64).is_some_and(|b| b.is_finite() && b > 0.0)
            };
            let result = check_against_baseline(&text, report());
            match mcs_harness::json::parse(&text) {
                Err(_) => prop_assert!(matches!(result, Err(BaselineError::Parse(_)))),
                Ok(base) => match result {
                    Err(BaselineError::Unusable(key)) => {
                        prop_assert!(FLOORS.contains(&key.as_str()) && !usable(&base, &key));
                    }
                    Err(e) => prop_assert!(false, "unexpected {e}"),
                    Ok(_) => prop_assert!(FLOORS.iter().all(|k| usable(&base, k))),
                },
            }
        }
    }
}
