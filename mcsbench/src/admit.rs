//! `admit_churn` and `admit_overload`: one CA-TPA `AdmissionEngine`
//! serving generated arrival/departure traces in a closed loop — one
//! client, no think time, the next call issued when the last returns.
//!
//! Trace `t` draws its task universe and its ops from
//! `trial_seed(seed, t)`, as `mcs-exp admit` does. A request is one
//! `admit` call; throughput counts every lifecycle call (admits and
//! departs), with the per-trace `reset` inside the timed window.

use std::hint::black_box;
use std::time::Instant;

use mcs_exp::admit::PolicyTrial;
use mcs_gen::{generate_task_set, generate_trace, trial_seed, GenParams, TraceOp, TraceParams};
use mcs_model::TaskSet;
use mcs_partition::{AdmissionEngine, AdmissionPolicy};

use crate::common::{since, Checks, Counts, Digest, Meter, RunReport, Size, TraceReport};
use crate::spans::{Span, Tracer};

/// One admission workload.
pub struct Spec {
    params: GenParams,
    trace: TraceParams,
    /// Distinct traces; the timed loop cycles through them.
    traces: usize,
    /// Traces the set-up replays to warm up.
    warmup: usize,
}

impl Spec {
    /// The default generator and traces: almost every arrival fits.
    pub fn churn(size: Size) -> Self {
        Self {
            params: GenParams::default(),
            trace: TraceParams::default(),
            traces: size.pick(4096, 32),
            warmup: size.pick(256, 4),
        }
    }

    /// NSU 1.0 and longer, fuller traces: about a quarter of arrivals are
    /// rejected after the repair move search.
    pub fn overload(size: Size) -> Self {
        Self {
            params: GenParams::default().with_nsu(1.0),
            trace: TraceParams { ops: 1024, depart_ratio: 0.25 },
            traces: size.pick(2048, 16),
            warmup: size.pick(16, 2),
        }
    }
}

/// One trace and the universe it draws from.
struct Input {
    ts: TaskSet,
    ops: Vec<TraceOp>,
}

fn input(spec: &Spec, seed: u64, t: usize) -> Input {
    let ts = generate_task_set(&spec.params, trial_seed(seed, t));
    let ops = generate_trace(ts.len(), &spec.trace, trial_seed(seed, t));
    Input { ts, ops }
}

/// The engine's account of a replayed trace.
fn outcome(engine: &AdmissionEngine) -> PolicyTrial {
    let stats = engine.stats();
    PolicyTrial {
        admits: stats.admits,
        rejects: stats.rejects,
        departs: stats.departs,
        repair_moves: stats.repair_moves,
        resident: engine.resident_count() as u64,
        state_ok: engine.state_identical_to_rebuild(),
    }
}

fn fold(d: &mut Digest, p: &PolicyTrial) {
    for x in [p.admits, p.rejects, p.departs, p.repair_moves, p.resident, u64::from(p.state_ok)] {
        d.u64(x);
    }
}

/// Check the engine after trace `t`: live state equals a rebuild, and
/// every admitted task has departed or is still resident.
fn check(checks: &mut Checks, t: usize, p: &PolicyTrial) {
    checks.check(p.state_ok, || format!("trace {t}: live state differs from a rebuild"));
    checks.check(p.admits == p.departs + p.resident, || {
        format!("trace {t}: {} admits != {} departs + {} resident", p.admits, p.departs, p.resident)
    });
}

/// Replay one trace into `meter`, timing each `admit`; returns the
/// nanoseconds from reset to the last op.
fn replay(engine: &mut AdmissionEngine, input: &Input, cores: usize, meter: &mut Meter) -> u64 {
    let start = Instant::now();
    engine.reset(&input.ts, cores);
    for op in &input.ops {
        match *op {
            TraceOp::Arrive(id) => {
                let t = Instant::now();
                black_box(engine.admit(id));
                meter.request(since(t));
            }
            TraceOp::Depart(id) => {
                black_box(engine.depart(id));
            }
        }
    }
    engine.flush_telemetry();
    let ns = since(start);
    meter.work(input.ops.len() as u64, ns);
    ns
}

/// Set up once: generate every trace, build the engine, and replay the
/// warm-up traces; returns the inputs and the engine with the seconds
/// taken and the warm-up digest.
fn setup(
    spec: &Spec,
    seed: u64,
    checks: &mut Checks,
) -> (Vec<Input>, AdmissionEngine, f64, Digest) {
    let start = Instant::now();
    let inputs: Vec<Input> = (0..spec.traces).map(|t| input(spec, seed, t)).collect();
    let mut engine = AdmissionEngine::new(AdmissionPolicy::catpa());
    let mut digest = Digest::default();
    let mut meter = Meter::new(1.0);
    for (t, inp) in inputs.iter().enumerate().take(spec.warmup) {
        replay(&mut engine, inp, spec.params.cores, &mut meter);
        let p = outcome(&engine);
        check(checks, t, &p);
        fold(&mut digest, &p);
    }
    (inputs, engine, since(start) as f64 / 1e9, digest)
}

/// The untraced run.
pub fn run(spec: &Spec, seed: u64, seconds: f64, setup_reps: usize) -> RunReport {
    let mut checks = Checks::default();
    let (inputs, mut engine, secs, digest) = setup(spec, seed, &mut checks);
    let mut setup_s = vec![secs];
    let mut meter = Meter::new(seconds);
    let mut t = 0;
    while !meter.done() {
        replay(&mut engine, &inputs[t % inputs.len()], spec.params.cores, &mut meter);
        check(&mut checks, t % inputs.len(), &outcome(&engine));
        t += 1;
        while meter.setup_due(setup_reps) {
            let (_, _, secs, d) = setup(spec, seed, &mut checks);
            setup_s.push(secs);
            checks.check(d == digest, || "set-ups disagree".into());
        }
    }
    RunReport {
        setup_s,
        measured: meter.finish(),
        item: "lifecycle calls",
        request: "admit call",
        checks,
        digest,
    }
}

/// Replay one trace with a span around each engine call. The calls run
/// back to back, so each span ends where the next begins; admits are
/// classified by the engine's statistics across the call. Returns the
/// nanoseconds from reset to the last op.
fn traced_replay(
    tracer: &mut Tracer,
    engine: &mut AdmissionEngine,
    input: &Input,
    cores: usize,
    t: u64,
) -> u64 {
    let start = Instant::now();
    tracer.begin();
    engine.reset(&input.ts, cores);
    let mut last = Span::Reset;
    for op in &input.ops {
        tracer.next(last, t);
        last = match *op {
            TraceOp::Arrive(id) => {
                let before = engine.stats().repair_moves;
                if !engine.admit(id).admitted() {
                    Span::AdmitRejected
                } else if engine.stats().repair_moves > before {
                    Span::AdmitRepaired
                } else {
                    Span::AdmitDirect
                }
            }
            TraceOp::Depart(id) => {
                engine.depart(id);
                Span::Depart
            }
        };
    }
    tracer.end(last, t);
    engine.flush_telemetry();
    since(start)
}

/// The traced replay of trace `t`, generation included; returns the
/// outcome and the replay's nanoseconds.
fn traced_request(
    tracer: &mut Tracer,
    engine: &mut AdmissionEngine,
    spec: &Spec,
    seed: u64,
    t: usize,
) -> (PolicyTrial, u64) {
    let id = t as u64;
    tracer.begin();
    tracer.begin();
    let ts =
        tracer.span(Span::GenTaskSet, id, || generate_task_set(&spec.params, trial_seed(seed, t)));
    let ops = tracer
        .span(Span::GenTrace, id, || generate_trace(ts.len(), &spec.trace, trial_seed(seed, t)));
    let ns = traced_replay(tracer, engine, &Input { ts, ops }, spec.params.cores, id);
    let p = tracer.span(Span::RebuildCheck, id, || outcome(engine));
    tracer.end(Span::Trial, id);
    tracer.end(Span::Request, id);
    (p, ns)
}

/// The traced run: for each trace, the untraced replay and the traced
/// replay in alternating order.
pub fn trace(spec: &Spec, seed: u64, seconds: f64) -> TraceReport {
    let mut checks = Checks::default();
    let (_, mut engine, _, _) = setup(spec, seed, &mut checks);
    let mut tracer = Tracer::default();
    let mut counts = Counts::default();
    let (mut untraced_ns, mut traced_ns) = (0, 0);
    let mut digest = Digest::default();
    let mut scratch = Meter::new(seconds);
    let start = Instant::now();
    for t in 0.. {
        if t >= spec.warmup && since(start) as f64 >= seconds * 1e9 {
            break;
        }
        let inp = input(spec, seed, t);
        let mut untraced = |engine: &mut AdmissionEngine| {
            let ns = replay(engine, &inp, spec.params.cores, &mut scratch);
            (outcome(engine), ns)
        };
        let (u, tr) = if t % 2 == 0 {
            let u = untraced(&mut engine);
            (u, counts.around(|| traced_request(&mut tracer, &mut engine, spec, seed, t)))
        } else {
            let tr = counts.around(|| traced_request(&mut tracer, &mut engine, spec, seed, t));
            (untraced(&mut engine), tr)
        };
        check(&mut checks, t, &tr.0);
        checks.check(u.0 == tr.0, || format!("trace {t}: traced replay differs"));
        if t < spec.warmup {
            fold(&mut digest, &tr.0);
        }
        untraced_ns += u.1;
        traced_ns += tr.1;
    }

    let mut report = TraceReport::new(tracer, counts);
    report.untraced_ns = untraced_ns;
    report.traced_ns = traced_ns;
    report.checks = checks;
    report.digest = digest;
    report
}
