//! Multicore simulation over a partition.
//!
//! Partitioned scheduling means the cores are fully independent: the system
//! simulation runs each core's subset through [`CoreSim`], on the release
//! index [`SimEngine`] selects, and aggregates the reports. Scenarios are
//! instantiated per core (seeded independently) so overrun randomness does
//! not correlate across cores.

use mcs_analysis::{Theorem1, VdAssignment};
use mcs_model::{CoreId, McTask, Partition, TaskSet, Tick, UtilTable};

use crate::core::{CoreSim, SchedulerKind, SimEngine};
use crate::report::{CoreReport, SimReport};
use crate::scenario::Scenario;
use crate::trace::Trace;

/// Configuration for a multicore simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Explicit horizon in ticks, or `None` to derive one.
    pub horizon: Option<Tick>,
    /// When deriving: simulate `min(hyperperiod, horizon_periods ×
    /// max_period)` per core.
    pub horizon_periods: u32,
    /// Capture per-core traces with this capacity (0 = tracing off).
    pub trace_cap: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self { horizon: None, horizon_periods: 20, trace_cap: 0 }
    }
}

impl SimConfig {
    /// The horizon used for a given subset.
    #[must_use]
    pub fn horizon_for(&self, tasks: &[&McTask]) -> Tick {
        if let Some(h) = self.horizon {
            return h;
        }
        let hyper = mcs_model::hyperperiod(tasks.iter().map(|t| t.period()));
        let max_p = tasks.iter().map(|t| t.period()).max().unwrap_or(0);
        hyper.min(max_p.saturating_mul(Tick::from(self.horizon_periods)))
    }
}

/// Errors from setting up a partitioned simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimSetupError {
    /// The partition does not place every task.
    IncompletePartition,
    /// EDF-VD was requested but core `core` fails Theorem 1, so no
    /// virtual-deadline protocol exists for it.
    InfeasibleCore {
        /// The offending core.
        core: CoreId,
    },
}

impl std::fmt::Display for SimSetupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimSetupError::IncompletePartition => write!(f, "partition is incomplete"),
            SimSetupError::InfeasibleCore { core } => {
                write!(f, "core {core} fails the EDF-VD schedulability test")
            }
        }
    }
}

impl std::error::Error for SimSetupError {}

/// Which scheduler the cores run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SystemScheduler {
    /// EDF-VD with per-core analysis-derived virtual deadlines. Fails setup
    /// if any core is infeasible.
    EdfVd,
    /// Plain EDF everywhere (baseline; offers no MC guarantee).
    PlainEdf,
    /// Preemptive fixed priority with deadline-monotonic priorities + AMC
    /// (for partitions produced by `mcs_partition::FpAmc`). No setup-time
    /// feasibility gate: the FP analyses live in `mcs_analysis::amc` and
    /// the caller is expected to have applied them.
    FixedPriorityDm,
}

/// Simulate a partitioned system.
///
/// `make_scenario(core_index)` builds each core's scenario instance.
/// Returns the aggregated report and, when `config.trace_cap > 0`, per-core
/// traces.
pub fn simulate_partition<S, F>(
    ts: &TaskSet,
    partition: &Partition,
    scheduler: SystemScheduler,
    config: &SimConfig,
    make_scenario: F,
) -> Result<(SimReport, Vec<Trace>), SimSetupError>
where
    S: Scenario,
    F: FnMut(usize) -> S,
{
    simulate_partition_with(ts, partition, scheduler, config, SimEngine::Tick, make_scenario)
}

/// [`simulate_partition`] with an explicit per-core [`SimEngine`] choice.
pub fn simulate_partition_with<S, F>(
    ts: &TaskSet,
    partition: &Partition,
    scheduler: SystemScheduler,
    config: &SimConfig,
    engine: SimEngine,
    make_scenario: F,
) -> Result<(SimReport, Vec<Trace>), SimSetupError>
where
    S: Scenario,
    F: FnMut(usize) -> S,
{
    simulate_cores(ts, partition, scheduler, config, make_scenario, |sim, s, h, t| {
        sim.with_engine(engine).run(s, h, t)
    })
}

/// [`simulate_partition`] with every core run once by
/// [`CoreSim::run_checked`]: both release indexes answer every question.
/// The report and traces are those of the scan oracle, and the flag says
/// whether the per-level heaps agreed with it at every question on every
/// core — when it is `true`, [`simulate_partition_with`] returns this same
/// result on either [`SimEngine`].
pub fn simulate_partition_checked<S, F>(
    ts: &TaskSet,
    partition: &Partition,
    scheduler: SystemScheduler,
    config: &SimConfig,
    make_scenario: F,
) -> Result<(SimReport, Vec<Trace>, bool), SimSetupError>
where
    S: Scenario,
    F: FnMut(usize) -> S,
{
    let mut agreed = true;
    let (report, traces) = simulate_cores(
        ts,
        partition,
        scheduler,
        config,
        make_scenario,
        |sim, scenario, horizon, trace| {
            let (report, core_agreed) = sim.run_checked(scenario, horizon, trace);
            agreed &= core_agreed;
            report
        },
    )?;
    Ok((report, traces, agreed))
}

/// Set up and `run` every core in turn, collecting reports and traces.
fn simulate_cores<S, F, R>(
    ts: &TaskSet,
    partition: &Partition,
    scheduler: SystemScheduler,
    config: &SimConfig,
    mut make_scenario: F,
    mut run: R,
) -> Result<(SimReport, Vec<Trace>), SimSetupError>
where
    S: Scenario,
    F: FnMut(usize) -> S,
    R: FnMut(CoreSim<'_>, &mut S, Tick, &mut Trace) -> CoreReport,
{
    if partition.require_complete(ts).is_err() {
        return Err(SimSetupError::IncompletePartition);
    }

    let mut reports = Vec::with_capacity(partition.num_cores());
    let mut traces = Vec::with_capacity(partition.num_cores());

    for core in CoreId::all(partition.num_cores()) {
        let (sim, horizon) = core_setup(ts, partition, scheduler, config, core)?;
        let mut trace = new_trace(config.trace_cap);
        let mut scenario = make_scenario(core.index());
        reports.push(run(sim, &mut scenario, horizon, &mut trace));
        traces.push(trace);
    }
    Ok((SimReport { cores: reports }, traces))
}

/// One core's simulator and derived horizon, or the setup error that
/// core raises.
fn core_setup<'a>(
    ts: &'a TaskSet,
    partition: &Partition,
    scheduler: SystemScheduler,
    config: &SimConfig,
    core: CoreId,
) -> Result<(CoreSim<'a>, Tick), SimSetupError> {
    let tasks: Vec<&McTask> = partition.tasks_on(core).map(|id| ts.task(id)).collect();
    let kind = match scheduler {
        SystemScheduler::PlainEdf => SchedulerKind::PlainEdf,
        SystemScheduler::FixedPriorityDm => SchedulerKind::deadline_monotonic(&tasks),
        SystemScheduler::EdfVd => {
            let table = UtilTable::from_tasks(ts.num_levels(), tasks.iter().copied());
            let analysis = Theorem1::compute(&table);
            let vd = VdAssignment::compute(&table, &analysis)
                .ok_or(SimSetupError::InfeasibleCore { core })?;
            SchedulerKind::EdfVd(vd)
        }
    };
    let horizon = config.horizon_for(&tasks);
    Ok((CoreSim::new(tasks, kind), horizon))
}

fn new_trace(cap: usize) -> Trace {
    if cap > 0 {
        Trace::enabled(cap)
    } else {
        Trace::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::LevelCap;
    use mcs_model::{CritLevel, TaskBuilder, TaskId};

    fn task(id: u32, period: u64, level: u8, wcet: &[u64]) -> McTask {
        TaskBuilder::new(TaskId(id)).period(period).level(level).wcet(wcet).build().unwrap()
    }

    fn demo() -> (TaskSet, Partition) {
        let ts = TaskSet::new(
            2,
            vec![
                task(0, 10, 1, &[4]),
                task(1, 20, 2, &[4, 8]),
                task(2, 10, 1, &[4]),
                task(3, 40, 2, &[8, 16]),
            ],
        )
        .unwrap();
        let mut p = Partition::empty(2, 4);
        p.assign(TaskId(0), CoreId(0));
        p.assign(TaskId(1), CoreId(0));
        p.assign(TaskId(2), CoreId(1));
        p.assign(TaskId(3), CoreId(1));
        (ts, p)
    }

    #[test]
    fn nominal_behaviour_has_no_misses() {
        let (ts, p) = demo();
        let (report, _) =
            simulate_partition(&ts, &p, SystemScheduler::EdfVd, &SimConfig::default(), |_| {
                LevelCap::lo()
            })
            .unwrap();
        assert_eq!(report.total().total_misses(), 0);
        assert!(report.guarantee_held(CritLevel::new(1)));
    }

    #[test]
    fn worst_case_behaviour_protects_hi_tasks() {
        let (ts, p) = demo();
        let (report, _) =
            simulate_partition(&ts, &p, SystemScheduler::EdfVd, &SimConfig::default(), |_| {
                LevelCap::new(2)
            })
            .unwrap();
        assert!(report.guarantee_held(CritLevel::new(2)), "{report:?}");
    }

    #[test]
    fn incomplete_partition_is_rejected() {
        let (ts, _) = demo();
        let p = Partition::empty(2, 4);
        let err =
            simulate_partition(&ts, &p, SystemScheduler::EdfVd, &SimConfig::default(), |_| {
                LevelCap::lo()
            })
            .unwrap_err();
        assert_eq!(err, SimSetupError::IncompletePartition);
    }

    #[test]
    fn infeasible_core_is_rejected_for_edfvd() {
        let ts = TaskSet::new(2, vec![task(0, 10, 2, &[6, 9]), task(1, 10, 2, &[6, 9])]).unwrap();
        let mut p = Partition::empty(1, 2);
        p.assign(TaskId(0), CoreId(0));
        p.assign(TaskId(1), CoreId(0));
        let err =
            simulate_partition(&ts, &p, SystemScheduler::EdfVd, &SimConfig::default(), |_| {
                LevelCap::lo()
            })
            .unwrap_err();
        assert_eq!(err, SimSetupError::InfeasibleCore { core: CoreId(0) });
        // Plain EDF runs anyway (and will miss under load).
        let r =
            simulate_partition(&ts, &p, SystemScheduler::PlainEdf, &SimConfig::default(), |_| {
                LevelCap::new(2)
            });
        assert!(r.is_ok());
    }

    #[test]
    fn traces_are_captured_when_enabled() {
        let (ts, p) = demo();
        let cfg = SimConfig { trace_cap: 64, ..Default::default() };
        let (_, traces) =
            simulate_partition(&ts, &p, SystemScheduler::EdfVd, &cfg, |_| LevelCap::lo()).unwrap();
        assert_eq!(traces.len(), 2);
        assert!(traces.iter().all(|t| !t.events().is_empty()));
    }

    #[test]
    fn horizon_defaults_to_hyperperiod_when_small() {
        let t0 = task(0, 10, 1, &[1]);
        let t1 = task(1, 15, 1, &[1]);
        let cfg = SimConfig::default();
        assert_eq!(cfg.horizon_for(&[&t0, &t1]), 30);
        let cfg = SimConfig { horizon: Some(7), ..Default::default() };
        assert_eq!(cfg.horizon_for(&[&t0, &t1]), 7);
    }
}

#[cfg(test)]
mod fp_system_tests {
    use super::*;
    use crate::scenario::LevelCap;
    use mcs_model::{CritLevel, TaskBuilder, TaskId};

    fn task(id: u32, period: u64, level: u8, wcet: &[u64]) -> McTask {
        TaskBuilder::new(TaskId(id)).period(period).level(level).wcet(wcet).build().unwrap()
    }

    #[test]
    fn fp_system_runs_partitions_end_to_end() {
        let ts = TaskSet::new(
            2,
            vec![
                task(0, 10, 1, &[2]),
                task(1, 40, 2, &[6, 12]),
                task(2, 20, 1, &[5]),
                task(3, 80, 2, &[10, 20]),
            ],
        )
        .unwrap();
        let mut p = Partition::empty(2, 4);
        p.assign(TaskId(0), CoreId(0));
        p.assign(TaskId(1), CoreId(0));
        p.assign(TaskId(2), CoreId(1));
        p.assign(TaskId(3), CoreId(1));
        for b in 1..=2u8 {
            let (report, _) = simulate_partition(
                &ts,
                &p,
                SystemScheduler::FixedPriorityDm,
                &SimConfig::default(),
                |_| LevelCap::new(b),
            )
            .unwrap();
            assert!(
                report.guarantee_held(CritLevel::new(b)),
                "FP-DM missed at behaviour {b}: {report:?}"
            );
        }
    }
}

/// Parallel variant of [`simulate_partition`]: cores are simulated on
/// crossbeam scoped threads (partitioned scheduling makes them fully
/// independent, so this is an embarrassingly parallel fan-out). Produces
/// bit-identical reports to the sequential version — scenarios are
/// constructed per core index up front, so thread scheduling cannot leak
/// into the results.
pub fn simulate_partition_parallel<S, F>(
    ts: &TaskSet,
    partition: &Partition,
    scheduler: SystemScheduler,
    config: &SimConfig,
    make_scenario: F,
) -> Result<(SimReport, Vec<Trace>), SimSetupError>
where
    S: Scenario + Send,
    F: FnMut(usize) -> S,
{
    simulate_partition_parallel_with(
        ts,
        partition,
        scheduler,
        config,
        SimEngine::Tick,
        make_scenario,
    )
}

/// [`simulate_partition_parallel`] with an explicit per-core
/// [`SimEngine`] choice.
pub fn simulate_partition_parallel_with<S, F>(
    ts: &TaskSet,
    partition: &Partition,
    scheduler: SystemScheduler,
    config: &SimConfig,
    engine: SimEngine,
    mut make_scenario: F,
) -> Result<(SimReport, Vec<Trace>), SimSetupError>
where
    S: Scenario + Send,
    F: FnMut(usize) -> S,
{
    if partition.require_complete(ts).is_err() {
        return Err(SimSetupError::IncompletePartition);
    }

    // Per-core setup happens serially (cheap); only the runs fan out.
    let mut jobs = Vec::with_capacity(partition.num_cores());
    for core in CoreId::all(partition.num_cores()) {
        let (sim, horizon) = core_setup(ts, partition, scheduler, config, core)?;
        jobs.push((sim.with_engine(engine), horizon, make_scenario(core.index())));
    }

    let results: Vec<(CoreReport, Trace)> = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .into_iter()
            .map(|(sim, horizon, mut scenario)| {
                s.spawn(move |_| {
                    let mut trace = new_trace(config.trace_cap);
                    let report = sim.run(&mut scenario, horizon, &mut trace);
                    (report, trace)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("core simulation panicked")).collect()
    })
    .expect("simulation scope panicked");

    let (reports, traces): (Vec<_>, Vec<_>) = results.into_iter().unzip();
    Ok((SimReport { cores: reports }, traces))
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use crate::scenario::Probabilistic;

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        use mcs_model::{TaskBuilder, TaskId};
        let mk = |id: u32, p: u64, l: u8, w: &[u64]| {
            TaskBuilder::new(TaskId(id)).period(p).level(l).wcet(w).build().unwrap()
        };
        let ts = TaskSet::new(
            2,
            vec![
                mk(0, 10, 1, &[3]),
                mk(1, 20, 2, &[4, 8]),
                mk(2, 15, 1, &[5]),
                mk(3, 60, 2, &[10, 20]),
            ],
        )
        .unwrap();
        let mut p = Partition::empty(2, 4);
        p.assign(TaskId(0), CoreId(0));
        p.assign(TaskId(1), CoreId(0));
        p.assign(TaskId(2), CoreId(1));
        p.assign(TaskId(3), CoreId(1));
        let cfg = SimConfig { trace_cap: 32, ..Default::default() };
        let scenario = |c: usize| Probabilistic::new(0.3, 2, c as u64);
        let (seq, seq_traces) =
            simulate_partition(&ts, &p, SystemScheduler::EdfVd, &cfg, scenario).unwrap();
        let (par, par_traces) =
            simulate_partition_parallel(&ts, &p, SystemScheduler::EdfVd, &cfg, scenario).unwrap();
        assert_eq!(seq, par);
        for (a, b) in seq_traces.iter().zip(&par_traces) {
            assert_eq!(a.events(), b.events());
        }
    }

    #[test]
    fn event_engine_matches_tick_engine_at_system_level() {
        use mcs_model::{TaskBuilder, TaskId};
        let mk = |id: u32, p: u64, l: u8, w: &[u64]| {
            TaskBuilder::new(TaskId(id)).period(p).level(l).wcet(w).build().unwrap()
        };
        let ts = TaskSet::new(
            2,
            vec![
                mk(0, 10, 1, &[3]),
                mk(1, 20, 2, &[4, 8]),
                mk(2, 15, 1, &[5]),
                mk(3, 60, 2, &[10, 20]),
            ],
        )
        .unwrap();
        let mut p = Partition::empty(2, 4);
        p.assign(TaskId(0), CoreId(0));
        p.assign(TaskId(1), CoreId(0));
        p.assign(TaskId(2), CoreId(1));
        p.assign(TaskId(3), CoreId(1));
        let cfg = SimConfig { trace_cap: 1 << 16, ..Default::default() };
        let scenario = |c: usize| Probabilistic::new(0.3, 2, c as u64);
        for scheduler in
            [SystemScheduler::EdfVd, SystemScheduler::PlainEdf, SystemScheduler::FixedPriorityDm]
        {
            let (tick, tick_traces) =
                simulate_partition_with(&ts, &p, scheduler, &cfg, SimEngine::Tick, scenario)
                    .unwrap();
            let (event, event_traces) =
                simulate_partition_with(&ts, &p, scheduler, &cfg, SimEngine::Event, scenario)
                    .unwrap();
            assert_eq!(tick, event);
            for (a, b) in tick_traces.iter().zip(&event_traces) {
                assert_eq!(a.events(), b.events());
            }
            // The parallel event variant agrees too.
            let (par, par_traces) = simulate_partition_parallel_with(
                &ts,
                &p,
                scheduler,
                &cfg,
                SimEngine::Event,
                scenario,
            )
            .unwrap();
            assert_eq!(par, event);
            for (a, b) in par_traces.iter().zip(&event_traces) {
                assert_eq!(a.events(), b.events());
            }
        }
    }

    #[test]
    fn parallel_propagates_setup_errors() {
        use mcs_model::{TaskBuilder, TaskId};
        let t = |id: u32| {
            TaskBuilder::new(TaskId(id)).period(10).level(2).wcet(&[6, 9]).build().unwrap()
        };
        let ts = TaskSet::new(2, vec![t(0), t(1)]).unwrap();
        let mut p = Partition::empty(1, 2);
        p.assign(TaskId(0), CoreId(0));
        p.assign(TaskId(1), CoreId(0));
        let err = simulate_partition_parallel(
            &ts,
            &p,
            SystemScheduler::EdfVd,
            &SimConfig::default(),
            |_| crate::scenario::LevelCap::lo(),
        )
        .unwrap_err();
        assert_eq!(err, SimSetupError::InfeasibleCore { core: CoreId(0) });
    }
}
