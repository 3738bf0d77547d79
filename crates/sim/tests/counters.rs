//! Simulator event counters against the traces of the same runs.
//!
//! A run tallies its events in its [`Trace`] and adds the tallies to the
//! process-wide counters once, before it returns, so the counter delta
//! taken around a call covers exactly that call's events. This binary
//! holds one test, so no other simulator run moves the counters while it
//! measures.

use mcs_analysis::{Theorem1, VdAssignment};
use mcs_gen::{generate_task_set, GenParams};
use mcs_model::{McTask, TaskBuilder, TaskId, UtilTable};
use mcs_obs::{Counter, Snapshot};
use mcs_partition::{Catpa, Partitioner};
use mcs_sim::{
    simulate_partition_checked, simulate_partition_with, GlobalSim, LevelCap, SchedulerKind,
    SimConfig, SimEngine, SystemScheduler, Trace, TraceEvent,
};

fn releases(traces: &[Trace]) -> u64 {
    let n = traces
        .iter()
        .flat_map(Trace::events)
        .filter(|e| matches!(e, TraceEvent::Release { .. }))
        .count();
    n as u64
}

/// The `SimReleases` delta around `run`, and the traces it returns.
fn measured(run: impl FnOnce() -> Vec<Trace>) -> (u64, Vec<Trace>) {
    let before = Snapshot::capture();
    let traces = run();
    (Snapshot::capture().delta_since(&before).counter(Counter::SimReleases), traces)
}

fn task(id: u32, period: u64, level: u8, wcet: &[u64]) -> McTask {
    TaskBuilder::new(TaskId(id)).period(period).level(level).wcet(wcet).build().unwrap()
}

#[test]
fn release_counter_delta_equals_traced_releases_on_every_entry_point() {
    let params = GenParams::default();
    let ts = (0..16)
        .map(|seed| generate_task_set(&params, seed))
        .find(|ts| Catpa::default().partition(ts, params.cores).is_ok())
        .expect("a default set partitions");
    let partition = Catpa::default().partition(&ts, params.cores).unwrap();
    let config = SimConfig { horizon_periods: 8, trace_cap: 1 << 20, ..Default::default() };
    let scenario = |_| LevelCap::new(2);
    let expected = |traces: &[Trace]| if mcs_obs::COMPILED { releases(traces) } else { 0 };

    for engine in [SimEngine::Tick, SimEngine::Event] {
        let (delta, traces) = measured(|| {
            let run = simulate_partition_with(
                &ts,
                &partition,
                SystemScheduler::EdfVd,
                &config,
                engine,
                scenario,
            );
            run.unwrap().1
        });
        assert!(releases(&traces) > 0);
        assert_eq!(delta, expected(&traces), "{engine:?}");
    }

    let (delta, traces) = measured(|| {
        let run =
            simulate_partition_checked(&ts, &partition, SystemScheduler::EdfVd, &config, scenario);
        let (_, traces, agreed) = run.unwrap();
        assert!(agreed);
        traces
    });
    assert!(releases(&traces) > 0);
    assert_eq!(delta, expected(&traces), "checked run");

    let tasks = [task(0, 10, 1, &[3]), task(1, 20, 2, &[4, 8]), task(2, 15, 1, &[5])];
    let refs: Vec<&McTask> = tasks.iter().collect();
    let table = UtilTable::from_tasks(2, refs.iter().copied());
    let vd = VdAssignment::compute(&table, &Theorem1::compute(&table)).expect("feasible");
    let (delta, traces) = measured(|| {
        let mut trace = Trace::enabled(1 << 16);
        GlobalSim::new(refs.clone(), 2, SchedulerKind::EdfVd(vd)).run(
            &mut LevelCap::new(2),
            600,
            &mut trace,
        );
        vec![trace]
    });
    assert!(releases(&traces) > 0);
    assert_eq!(delta, expected(&traces), "global");
}
