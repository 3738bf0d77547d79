//! `simulate_paper` and `soundness_paper`: the two runtime-validation
//! commands, `mcs_exp::simulate::simulate_session` (both engines in
//! lock-step plus the weakly-hard analysis) and
//! `mcs_exp::soundness::soundness_session` (the engine `soundness` runs),
//! on the paper's default task sets.
//!
//! A request is one session call over one trial, trial `i` seeded
//! `trial_seed(seed, i)`; the set-up's warm-up call runs the first
//! `warmup` trials. The traced replay re-runs each
//! command's trial body with a span around each layer call and folds it
//! as the command does, so its digest must match.

use std::hint::black_box;
use std::time::Instant;

use mcs_exp::simulate::{simulate_session, LevelAggregate, SimulateResult, WINDOW_K};
use mcs_exp::soundness::{soundness_session, SoundnessResult};
use mcs_gen::{generate_task_set, trial_seed, GenParams};
use mcs_harness::{RunConfig, RunSession};
use mcs_model::{CritLevel, McTask, TaskSet, Tick};
use mcs_obs::{Counter, Snapshot};
use mcs_partition::{Catpa, Partitioner};
use mcs_sim::{
    simulate_partition, simulate_partition_with, LevelCap, SimConfig, SimEngine, SystemScheduler,
    WeaklyHardAnalysis,
};

use crate::common::{ratio, since, Checks, Counts, Digest, Meter, RunReport, Size, TraceReport};
use crate::spans::{Span, Tracer};

/// Per-core trace capacity `simulate` uses.
const TRACE_CAP: usize = 200_000;

/// Which command the workload runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Command {
    Simulate,
    Soundness,
}

/// One simulation workload.
pub struct Spec {
    command: Command,
    params: GenParams,
    horizon_periods: u32,
    /// Trials the set-up runs.
    warmup: usize,
}

impl Spec {
    /// `simulate` at the command's default horizon of 8 periods.
    pub fn simulate(size: Size) -> Self {
        Self {
            command: Command::Simulate,
            params: GenParams::default(),
            horizon_periods: 8,
            warmup: size.pick(16, 2),
        }
    }

    /// `soundness` at the command's default horizon of 8 periods.
    pub fn soundness(size: Size) -> Self {
        Self {
            command: Command::Soundness,
            params: GenParams::default(),
            horizon_periods: 8,
            warmup: size.pick(32, 2),
        }
    }
}

/// What one request's result says.
struct Outcome {
    digest: Digest,
    /// `identical` for `simulate`, `sound()` for `soundness`.
    ok: bool,
    partitioned: usize,
}

fn simulate_outcome(r: &SimulateResult) -> Outcome {
    let mut d = Digest::default();
    for x in [r.trials, r.partitioned, usize::from(r.identical), r.cores] {
        d.u64(x as u64);
    }
    for l in &r.per_level {
        for x in [l.runs as u64, l.jobs, l.misses, u64::from(l.worst_m), l.outages]
            .into_iter()
            .chain([l.outage_total, l.outage_max, l.mode_switches])
        {
            d.u64(x);
        }
        d.u64(l.core_ticks as u64);
        d.u64((l.core_ticks >> 64) as u64);
    }
    Outcome { digest: d, ok: r.identical, partitioned: r.partitioned }
}

fn soundness_outcome(r: &SoundnessResult) -> Outcome {
    let mut d = Digest::default();
    for x in [r.trials, r.partitioned] {
        d.u64(x as u64);
    }
    for &(runs, violations) in &r.per_level {
        d.u64(runs as u64);
        d.u64(violations as u64);
    }
    d.u64(r.mode_switches);
    Outcome { digest: d, ok: r.sound(), partitioned: r.partitioned }
}

/// Run the command over `trials` trials from trial `first`.
fn request(spec: &Spec, seed: u64, first: usize, trials: usize) -> Outcome {
    let config = RunConfig { trials, threads: 1, seed: trial_seed(seed, first) };
    let mut session = RunSession::new(config);
    match spec.command {
        Command::Simulate => simulate_outcome(&simulate_session(
            &spec.params,
            &mut session,
            None,
            spec.horizon_periods,
        )),
        Command::Soundness => {
            soundness_outcome(&soundness_session(&spec.params, &mut session, spec.horizon_periods))
        }
    }
}

fn check(checks: &mut Checks, spec: &Spec, first: usize, o: &Outcome) {
    checks.check(o.ok, || match spec.command {
        Command::Simulate => format!("trials from {first}: tick and event traces differ"),
        Command::Soundness => format!("trials from {first}: a guarantee was violated"),
    });
}

/// Set up once: run the warm-up trials; returns the seconds taken and
/// their outcome.
fn setup(spec: &Spec, seed: u64) -> (f64, Outcome) {
    let start = Instant::now();
    let o = request(spec, seed, 0, spec.warmup);
    (since(start) as f64 / 1e9, o)
}

/// The untraced run.
pub fn run(spec: &Spec, seed: u64, seconds: f64, setup_reps: usize) -> RunReport {
    let mut checks = Checks::default();
    let (secs, warm) = setup(spec, seed);
    check(&mut checks, spec, 0, &warm);
    let mut setup_s = vec![secs];
    let mut meter = Meter::new(seconds);
    let (mut next, mut partitioned) = (spec.warmup, warm.partitioned);
    while !meter.done() {
        let start = Instant::now();
        let o = black_box(request(spec, seed, next, 1));
        let dt = since(start);
        meter.request(dt);
        meter.work(1, dt);
        check(&mut checks, spec, next, &o);
        partitioned += o.partitioned;
        next += 1;
        while meter.setup_due(setup_reps) {
            let (secs, o) = setup(spec, seed);
            setup_s.push(secs);
            checks.check(o.digest == warm.digest, || "set-ups disagree".into());
        }
    }
    checks.check(partitioned > 0, || "no trial was partitioned: the run simulated nothing".into());
    RunReport {
        setup_s,
        measured: meter.finish(),
        item: "trials",
        request: match spec.command {
            Command::Simulate => "simulate_session call",
            Command::Soundness => "soundness_session call",
        },
        checks,
        digest: warm.digest,
    }
}

/// `simulate`'s horizon: `min(hyperperiod, periods × max period)`.
fn horizon(ts: &TaskSet, periods: u32) -> Tick {
    let hyper = mcs_model::hyperperiod(ts.tasks().iter().map(McTask::period));
    let max_p = ts.tasks().iter().map(McTask::period).max().unwrap_or(0);
    hyper.min(max_p.saturating_mul(Tick::from(periods))).max(1)
}

/// Counter totals the per-release metrics divide by.
#[derive(Default)]
struct SimCounts {
    tick_releases: u64,
    event_releases: u64,
    soundness_releases: u64,
    events_popped: u64,
    heap_pushes: u64,
}

/// Run `f` in `span` and return its result with the counter deltas.
fn counted<T>(tracer: &mut Tracer, span: Span, id: u64, f: impl FnOnce() -> T) -> (T, Snapshot) {
    let before = Snapshot::capture();
    let out = tracer.span(span, id, f);
    (out, Snapshot::capture().delta_since(&before))
}

/// What one simulated behaviour level observed, summed over cores.
#[derive(Default)]
struct LevelObs {
    jobs: u64,
    misses: u64,
    worst_m: u32,
    outages: u64,
    outage_total: u64,
    outage_max: u64,
    mode_switches: u64,
}

/// One trial of `simulate_session`'s body, folded straight into `acc`.
fn traced_simulate(
    tracer: &mut Tracer,
    spec: &Spec,
    catpa: &Catpa,
    seed: u64,
    i: usize,
    counts: &mut SimCounts,
    acc: &mut SimulateResult,
) {
    let (id, params) = (i as u64, &spec.params);
    acc.trials += 1;
    let ts = tracer.span(Span::GenTaskSet, id, || generate_task_set(params, trial_seed(seed, i)));
    let Ok(partition) = tracer.span(Span::Catpa, id, || catpa.partition(&ts, params.cores)) else {
        return;
    };
    acc.partitioned += 1;
    let h = horizon(&ts, spec.horizon_periods);
    let config =
        SimConfig { horizon: Some(h), horizon_periods: spec.horizon_periods, trace_cap: TRACE_CAP };
    for (b, agg) in (1..=params.levels).zip(acc.per_level.iter_mut()) {
        let run = |engine| {
            simulate_partition_with(
                &ts,
                &partition,
                SystemScheduler::EdfVd,
                &config,
                engine,
                |_| LevelCap::new(b),
            )
            .expect("CA-TPA partitions are feasible on every core")
        };
        let ((tick_report, tick_traces), tick) =
            counted(tracer, Span::SimTick, id, || run(SimEngine::Tick));
        let ((event_report, event_traces), event) =
            counted(tracer, Span::SimEvent, id, || run(SimEngine::Event));
        counts.tick_releases += tick.counter(Counter::SimReleases);
        counts.event_releases += event.counter(Counter::SimReleases);
        counts.events_popped += event.counter(Counter::SimEventsPopped);
        counts.heap_pushes += event.counter(Counter::SimHeapPushes);
        acc.identical &= tick_report == event_report
            && tick_traces.len() == event_traces.len()
            && tick_traces.iter().zip(&event_traces).all(|(a, b)| a.events() == b.events());

        let obs = tracer.span(Span::WeaklyHard, id, || {
            let mut obs = LevelObs {
                mode_switches: event_report.total().mode_switches,
                ..LevelObs::default()
            };
            for trace in &event_traces {
                let wh = WeaklyHardAnalysis::from_trace(trace, WINDOW_K, h);
                for stats in wh.per_task.values() {
                    obs.jobs += stats.jobs;
                    obs.misses += stats.misses;
                    obs.worst_m = obs.worst_m.max(stats.worst_m);
                }
                obs.outages += wh.outages;
                obs.outage_total += wh.outage_total;
                obs.outage_max = obs.outage_max.max(wh.outage_max);
            }
            obs
        });
        agg.runs += 1;
        agg.jobs += obs.jobs;
        agg.misses += obs.misses;
        agg.worst_m = agg.worst_m.max(obs.worst_m);
        agg.outages += obs.outages;
        agg.outage_total += obs.outage_total;
        agg.outage_max = agg.outage_max.max(obs.outage_max);
        agg.mode_switches += obs.mode_switches;
        agg.core_ticks += u128::from(h) * params.cores as u128;
    }
}

/// One trial of `soundness_session`'s body, folded straight into `acc`.
fn traced_soundness(
    tracer: &mut Tracer,
    spec: &Spec,
    catpa: &Catpa,
    seed: u64,
    i: usize,
    counts: &mut SimCounts,
    acc: &mut SoundnessResult,
) {
    let (id, params) = (i as u64, &spec.params);
    acc.trials += 1;
    let ts = tracer.span(Span::GenTaskSet, id, || generate_task_set(params, trial_seed(seed, i)));
    let Ok(partition) = tracer.span(Span::Catpa, id, || catpa.partition(&ts, params.cores)) else {
        return;
    };
    acc.partitioned += 1;
    let config = SimConfig { horizon_periods: spec.horizon_periods, ..SimConfig::default() };
    for (b, entry) in (1..=params.levels).zip(acc.per_level.iter_mut()) {
        let ((report, _), delta) = counted(tracer, Span::Soundness, id, || {
            simulate_partition(&ts, &partition, SystemScheduler::EdfVd, &config, |_| {
                LevelCap::new(b)
            })
            .expect("CA-TPA partitions are feasible on every core")
        });
        counts.soundness_releases += delta.counter(Counter::SimReleases);
        acc.mode_switches += report.total().mode_switches;
        entry.0 += 1;
        entry.1 += usize::from(!report.guarantee_held(CritLevel::new(b)));
    }
}

/// The traced replay of trials `[first, first + trials)`, folded as the
/// command folds them.
fn traced_request(
    tracer: &mut Tracer,
    spec: &Spec,
    seed: u64,
    (first, trials): (usize, usize),
    counts: &mut SimCounts,
) -> Outcome {
    let catpa = Catpa::default();
    let levels = usize::from(spec.params.levels);
    match spec.command {
        Command::Simulate => {
            let mut acc = SimulateResult {
                identical: true,
                cores: spec.params.cores,
                per_level: vec![LevelAggregate::default(); levels],
                ..SimulateResult::default()
            };
            for i in first..first + trials {
                tracer.begin();
                traced_simulate(tracer, spec, &catpa, seed, i, counts, &mut acc);
                tracer.end(Span::Trial, i as u64);
            }
            simulate_outcome(&acc)
        }
        Command::Soundness => {
            let mut acc =
                SoundnessResult { per_level: vec![(0, 0); levels], ..SoundnessResult::default() };
            for i in first..first + trials {
                tracer.begin();
                traced_soundness(tracer, spec, &catpa, seed, i, counts, &mut acc);
                tracer.end(Span::Trial, i as u64);
            }
            soundness_outcome(&acc)
        }
    }
}

/// The traced run: for each request, the untraced session call and the
/// traced replay in alternating order.
pub fn trace(spec: &Spec, seed: u64, seconds: f64) -> TraceReport {
    let mut checks = Checks::default();
    check(&mut checks, spec, 0, &setup(spec, seed).1);
    let mut tracer = Tracer::default();
    let mut counts = Counts::default();
    let mut sim_counts = SimCounts::default();
    let (mut untraced_ns, mut traced_ns) = (0, 0);
    let mut first_digest = None;
    let mut bounds = (0, spec.warmup);
    let start = Instant::now();
    for k in 0.. {
        if k > 0 && since(start) as f64 >= seconds * 1e9 {
            break;
        }
        let untraced = || {
            let start = Instant::now();
            let o = request(spec, seed, bounds.0, bounds.1);
            (o, since(start))
        };
        let mut traced = || {
            counts.around(|| {
                tracer.begin();
                let o = traced_request(&mut tracer, spec, seed, bounds, &mut sim_counts);
                (o, tracer.end(Span::Request, bounds.0 as u64))
            })
        };
        let (u, t) = if k % 2 == 0 {
            let u = untraced();
            (u, traced())
        } else {
            let t = traced();
            (untraced(), t)
        };
        check(&mut checks, spec, bounds.0, &u.0);
        checks.check(u.0.digest == t.0.digest, || {
            format!("trials from {}: traced replay differs", bounds.0)
        });
        first_digest.get_or_insert(t.0.digest);
        untraced_ns += u.1;
        traced_ns += t.1;
        bounds = (bounds.0 + bounds.1, 1);
    }

    let per_release =
        |span, releases: u64| ratio(tracer.stat(span).total_ns as f64, releases as f64);
    let c = &sim_counts;
    let extra = [
        ("sim.tick_ns_per_release", per_release(Span::SimTick, c.tick_releases)),
        ("sim.event_ns_per_release", per_release(Span::SimEvent, c.event_releases)),
        ("sim.soundness_ns_per_release", per_release(Span::Soundness, c.soundness_releases)),
        ("sim.events_popped_per_release", ratio(c.events_popped as f64, c.event_releases as f64)),
        ("sim.heap_pushes_per_release", ratio(c.heap_pushes as f64, c.event_releases as f64)),
    ];
    let mut report = TraceReport::new(tracer, counts);
    report.extra.extend(extra);
    report.untraced_ns = untraced_ns;
    report.traced_ns = traced_ns;
    report.checks = checks;
    report.digest = first_digest.expect("at least one request");
    report
}
