//! Golden digests of the per-core run loop.
//!
//! Both release indexes run the same loop, so the tick-vs-event
//! differential cannot see a change to the loop itself. This test pins
//! the loop's output instead: an FNV-1a hash of every `CoreReport` and of
//! the full event sequence, per case, recorded once and checked on both
//! engines, and for the paper sets on the checked run too. A change that
//! alters any report field, any event, or the order of either changes a
//! digest.
//!
//! The cases cover the paths the loop has: 16 default-`GenParams` sets
//! partitioned by CA-TPA at every behaviour level on EDF-VD (mode
//! switches, drops, idle resets), and hand-built cores for plain EDF,
//! deadline-monotonic fixed priority, elastic degradation, sporadic
//! arrivals, non-zero overheads and the probabilistic scenario.

use mcs_analysis::{elastic_stretch_factors, Theorem1, VdAssignment};
use mcs_gen::{generate_task_set, GenParams};
use mcs_model::{McTask, TaskBuilder, TaskId, Tick, UtilTable};
use mcs_partition::{Catpa, Partitioner};
use mcs_sim::{
    simulate_partition_checked, simulate_partition_with, ArrivalModel, CoreReport, CoreSim,
    DegradationPolicy, LevelCap, Overheads, Probabilistic, Scenario, SchedulerKind, SimConfig,
    SimEngine, SystemScheduler, Trace, TraceEvent,
};

const ENGINES: [SimEngine; 2] = [SimEngine::Tick, SimEngine::Event];

/// 64-bit FNV-1a over the `Debug` renderings of reports and events.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn core(&mut self, report: &CoreReport, events: &[TraceEvent]) {
        self.write(format!("{report:?}").as_bytes());
        for e in events {
            self.write(format!("{e:?}").as_bytes());
        }
    }
}

/// Tallies that show a case reached the loop's mode-change paths.
#[derive(Default)]
struct Reached {
    mode_switches: u64,
    idle_resets: u64,
    dropped: u64,
}

impl Reached {
    fn add(&mut self, r: &CoreReport) {
        self.mode_switches += r.mode_switches;
        self.idle_resets += r.idle_resets;
        self.dropped += r.dropped;
    }
}

const TRACE_CAP: usize = 1 << 24;

/// How a test runs a partitioned set: on one engine, or checked.
#[derive(Clone, Copy, Debug)]
enum Runner {
    Engine(SimEngine),
    Checked,
}

/// The CA-TPA-partitioned default sets at behaviour level `b`, as the
/// `soundness` command simulates them (horizon 8 periods).
fn paper_digest(runner: Runner, b: u8, reached: &mut Reached) -> u64 {
    let params = GenParams::default();
    let config = SimConfig { horizon_periods: 8, trace_cap: TRACE_CAP, ..Default::default() };
    let mut fnv = Fnv::new();
    let mut partitioned = 0;
    for seed in 0..16 {
        let ts = generate_task_set(&params, seed);
        let Ok(partition) = Catpa::default().partition(&ts, params.cores) else { continue };
        partitioned += 1;
        let scheduler = SystemScheduler::EdfVd;
        let scenario = |_| LevelCap::new(b);
        let (report, traces) = match runner {
            Runner::Engine(engine) => {
                simulate_partition_with(&ts, &partition, scheduler, &config, engine, scenario)
            }
            Runner::Checked => simulate_partition_checked(
                &ts, &partition, scheduler, &config, scenario,
            )
            .map(|(report, traces, agreed)| {
                assert!(agreed, "the release indexes disagreed");
                (report, traces)
            }),
        }
        .expect("CA-TPA partitions are feasible on every core");
        for (core, trace) in report.cores.iter().zip(&traces) {
            assert!(trace.events().len() < TRACE_CAP, "trace cap reached");
            fnv.core(core, trace.events());
            reached.add(core);
        }
    }
    assert!(partitioned >= 12, "only {partitioned} of 16 sets partitioned");
    fnv.0
}

fn task(id: u32, period: u64, level: u8, wcet: &[u64]) -> McTask {
    TaskBuilder::new(TaskId(id)).period(period).level(level).wcet(wcet).build().unwrap()
}

/// A three-level core that overruns, drops and idles: its EDF-VD
/// assignment and elastic factors exist.
fn three_level_core() -> Vec<McTask> {
    vec![
        task(0, 40, 1, &[6]),
        task(1, 60, 2, &[5, 12]),
        task(2, 100, 3, &[6, 12, 22]),
        task(3, 25, 1, &[3]),
        task(4, 150, 2, &[8, 20]),
        task(5, 90, 3, &[4, 9, 15]),
    ]
}

fn digest_run<S: Scenario>(
    sim: &CoreSim<'_>,
    mut scenario: S,
    horizon: Tick,
    reached: &mut Reached,
) -> u64 {
    let mut trace = Trace::enabled(TRACE_CAP);
    let report = sim.run(&mut scenario, horizon, &mut trace);
    assert!(trace.events().len() < TRACE_CAP, "trace cap reached");
    reached.add(&report);
    let mut fnv = Fnv::new();
    fnv.core(&report, trace.events());
    fnv.0
}

/// Every hand-built case's digest on `engine`, by name.
fn hand_built_digests(engine: SimEngine) -> Vec<(&'static str, u64, Reached)> {
    let tasks = three_level_core();
    let refs: Vec<&McTask> = tasks.iter().collect();
    let table = UtilTable::from_tasks(3, refs.iter().copied());
    let analysis = Theorem1::compute(&table);
    let vd = VdAssignment::compute(&table, &analysis).expect("fixture is feasible");
    let factors = elastic_stretch_factors(&table, &analysis).expect("fixture is feasible");
    let horizon = 30_000;
    let edf_vd =
        || CoreSim::new(refs.clone(), SchedulerKind::EdfVd(vd.clone())).with_engine(engine);

    let mut out = Vec::new();
    let mut case = |name, run: &dyn Fn(&mut Reached) -> u64| {
        let mut reached = Reached::default();
        let digest = run(&mut reached);
        out.push((name, digest, reached));
    };
    case("plain-edf", &|r| {
        let sim = CoreSim::new(refs.clone(), SchedulerKind::PlainEdf).with_engine(engine);
        digest_run(&sim, LevelCap::new(3), horizon, r)
    });
    case("deadline-monotonic", &|r| {
        let sim = CoreSim::new(refs.clone(), SchedulerKind::deadline_monotonic(&refs))
            .with_engine(engine);
        digest_run(&sim, LevelCap::new(2), horizon, r)
    });
    case("elastic", &|r| {
        let sim =
            edf_vd().with_degradation(DegradationPolicy::Elastic { factors: factors.clone() });
        digest_run(&sim, LevelCap::new(3), horizon, r)
    });
    case("sporadic", &|r| {
        let sim = edf_vd().with_arrivals(ArrivalModel::Sporadic { slack: 0.3, seed: 11 });
        digest_run(&sim, LevelCap::new(3), horizon, r)
    });
    case("overheads", &|r| {
        let sim = edf_vd().with_overheads(Overheads { context_switch: 1, mode_switch: 2 });
        digest_run(&sim, LevelCap::new(2), horizon, r)
    });
    case("probabilistic", &|r| digest_run(&edf_vd(), Probabilistic::new(0.2, 3, 5), horizon, r));
    out
}

/// Recorded on the run loop as it stood before the release-gate
/// rewrite; both engines must reproduce every value.
const PAPER_GOLDEN: [u64; 4] = [
    3_218_494_327_439_094_431,
    15_724_638_649_290_379_456,
    18_258_137_762_609_297_601,
    12_881_651_644_069_308_519,
];
const HAND_GOLDEN: [(&str, u64); 6] = [
    ("plain-edf", 2_433_747_131_800_121_173),
    ("deadline-monotonic", 6_578_736_223_869_205_865),
    ("elastic", 15_968_845_661_208_512_039),
    ("sporadic", 5_037_566_437_279_811_560),
    ("overheads", 7_029_427_239_661_441_236),
    ("probabilistic", 17_172_177_661_209_883_643),
];

#[test]
fn paper_sets_match_golden_digests_on_both_engines_and_the_checked_run() {
    let runners = ENGINES.map(Runner::Engine);
    for runner in runners.into_iter().chain([Runner::Checked]) {
        let mut reached = Reached::default();
        let got: Vec<u64> = (1..=4).map(|b| paper_digest(runner, b, &mut reached)).collect();
        assert_eq!(got, PAPER_GOLDEN, "{runner:?}: paper-set digests moved");
        assert!(reached.mode_switches > 0 && reached.idle_resets > 0 && reached.dropped > 0);
    }
}

#[test]
fn hand_built_cores_match_golden_digests_on_both_engines() {
    for engine in ENGINES {
        let got = hand_built_digests(engine);
        let names: Vec<(&str, u64)> = got.iter().map(|&(n, d, _)| (n, d)).collect();
        assert_eq!(names, HAND_GOLDEN, "{engine:?}: hand-built digests moved");
        for (name, _, reached) in &got {
            if *name != "plain-edf" {
                assert!(reached.mode_switches > 0, "{name} never switched modes");
                assert!(reached.idle_resets > 0, "{name} never idle-reset");
            }
        }
    }
}
