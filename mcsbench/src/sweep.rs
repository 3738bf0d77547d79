//! `sweep_paper` and `sweep_wide`: the `sweep` command's point runner,
//! `mcs_exp::sweep::run_point_in`, over the paper's five schemes.
//!
//! A request is one call over a small point of consecutive trials; trial
//! `i` of the run is seeded `trial_seed(seed, i)` whichever call runs it.
//! The set-up runs the first `warmup` trials. The traced replay runs the
//! same trial body on one thread with a span around each layer call and
//! folds it exactly as `run_point_in` does, so its digest must match.

use std::hint::black_box;
use std::time::Instant;

use mcs_exp::sweep::{run_point_in, PointResult, SchemeTrial, SweepTrial};
use mcs_gen::{generate_task_set, trial_seed, GenParams};
use mcs_harness::{RunConfig, RunSession};
use mcs_partition::{
    paper_schemes, reference_paper_schemes, PartitionQuality, Partitioner, QualityScratch,
};

use crate::common::{since, Checks, Counts, Digest, Meter, RunReport, Size, TraceReport};
use crate::spans::{Span, Tracer};

type Schemes = Vec<Box<dyn Partitioner + Send + Sync>>;

/// Every this many trials, the engine schemes are checked against the
/// reference implementations.
const CHECK_STRIDE: usize = 64;

/// One sweep workload.
pub struct Spec {
    params: GenParams,
    /// Trials per request.
    chunk: usize,
    /// Trials of the set-up's warm-up point.
    warmup: usize,
}

impl Spec {
    /// The paper's default point: many small trials on one thread.
    pub fn paper(size: Size) -> Self {
        Self { params: GenParams::default(), chunk: size.pick(16, 2), warmup: size.pick(256, 2) }
    }

    /// 128 cores and 2048 tasks: the probe loops across many cores
    /// dominate.
    pub fn wide(size: Size) -> Self {
        let (cores, tasks) = size.pick((128, 2048), (16, 256));
        Self {
            params: GenParams::default().with_cores(cores).with_n_range(tasks, tasks),
            chunk: 2,
            warmup: size.pick(4, 2),
        }
    }
}

fn point(
    spec: &Spec,
    schemes: &Schemes,
    seed: u64,
    first: usize,
    trials: usize,
    threads: usize,
) -> Vec<PointResult> {
    let config = RunConfig { trials, threads, seed: trial_seed(seed, first) };
    run_point_in(&mut RunSession::new(config), "bench", &spec.params, schemes)
}

fn digest(results: &[PointResult]) -> Digest {
    let mut d = Digest::default();
    for r in results {
        d.str(r.scheme);
        d.u64(r.trials as u64);
        d.u64(r.schedulable as u64);
        d.f64(r.u_sys);
        d.f64(r.u_avg);
        d.f64(r.imbalance);
    }
    d
}

/// The span of one of the paper's schemes.
fn scheme_span(name: &str) -> Span {
    match name {
        "WFD" => Span::Wfd,
        "FFD" => Span::Ffd,
        "BFD" => Span::Bfd,
        "Hybrid" => Span::Hybrid,
        "CA-TPA" => Span::Catpa,
        other => panic!("no span for scheme {other}"),
    }
}

/// Check the engine schemes against the reference implementations on
/// every [`CHECK_STRIDE`]-th trial below `end`.
fn check_against_reference(
    spec: &Spec,
    schemes: &Schemes,
    seed: u64,
    end: usize,
    checks: &mut Checks,
) {
    let references = reference_paper_schemes();
    let cores = spec.params.cores;
    for i in (0..end).step_by(CHECK_STRIDE) {
        let ts = generate_task_set(&spec.params, trial_seed(seed, i));
        for (scheme, reference) in schemes.iter().zip(&references) {
            let same = match (scheme.partition(&ts, cores), reference.partition(&ts, cores)) {
                (Ok(a), Ok(b)) => a == b,
                (Err(_), Err(_)) => true,
                _ => false,
            };
            checks
                .check(same, || format!("trial {i}: {} differs from its reference", scheme.name()));
        }
    }
}

/// Set up once: build the schemes and run the warm-up point; returns them
/// with the seconds taken and the warm-up digest.
fn setup(spec: &Spec, seed: u64) -> (Schemes, f64, Digest) {
    let start = Instant::now();
    let schemes = paper_schemes();
    let warm = point(spec, &schemes, seed, 0, spec.warmup, 1);
    let secs = since(start) as f64 / 1e9;
    (schemes, secs, digest(&warm))
}

/// The untraced run.
pub fn run(spec: &Spec, seed: u64, seconds: f64, setup_reps: usize) -> RunReport {
    let mut checks = Checks::default();
    let (schemes, secs, digest) = setup(spec, seed);
    let mut setup_s = vec![secs];
    let mut meter = Meter::new(seconds);
    let mut next = spec.warmup;
    while !meter.done() {
        let start = Instant::now();
        black_box(point(spec, &schemes, seed, next, spec.chunk, 1));
        let dt = since(start);
        meter.request(dt);
        meter.work(spec.chunk as u64, dt);
        next += spec.chunk;
        while meter.setup_due(setup_reps) {
            let (_, secs, d) = setup(spec, seed);
            setup_s.push(secs);
            checks.check(d == digest, || "set-ups disagree".into());
        }
    }
    let measured = meter.finish();
    check_against_reference(spec, &schemes, seed, next, &mut checks);
    RunReport { setup_s, measured, item: "trials", request: "run_point_in call", checks, digest }
}

/// One trial of `run_point_in`'s body, with a span around each layer call.
fn traced_trial(
    tracer: &mut Tracer,
    spec: &Spec,
    schemes: &Schemes,
    quality: &mut QualityScratch,
    seed: u64,
    i: usize,
) -> SweepTrial {
    let id = i as u64;
    tracer.begin();
    let ts =
        tracer.span(Span::GenTaskSet, id, || generate_task_set(&spec.params, trial_seed(seed, i)));
    let outcomes = schemes
        .iter()
        .map(|scheme| {
            let span = scheme_span(scheme.name());
            match tracer.span(span, id, || scheme.partition(&ts, spec.params.cores)) {
                Ok(partition) => {
                    let quality = tracer.span(Span::Quality, id, || {
                        PartitionQuality::summarize(&ts, &partition, quality)
                    });
                    SchemeTrial {
                        schedulable: true,
                        quality: quality.map(|q| (q.u_sys, q.u_avg, q.imbalance)),
                    }
                }
                Err(_) => SchemeTrial { schedulable: false, quality: None },
            }
        })
        .collect();
    tracer.end(Span::Trial, id);
    SweepTrial { schemes: outcomes }
}

/// `run_point_in`'s fold: per scheme, the schedulable count and the
/// quality means over the trials that have a quality report, summed in
/// trial order.
fn fold(schemes: &Schemes, records: &[SweepTrial]) -> Vec<PointResult> {
    schemes
        .iter()
        .enumerate()
        .map(|(k, scheme)| {
            let (mut schedulable, mut n, mut u_sys, mut u_avg, mut imbalance) =
                (0, 0usize, 0.0, 0.0, 0.0);
            for rec in records {
                let s = &rec.schemes[k];
                schedulable += usize::from(s.schedulable);
                if let Some((a, b, c)) = s.quality {
                    n += 1;
                    u_sys += a;
                    u_avg += b;
                    imbalance += c;
                }
            }
            let n = n as f64;
            PointResult {
                scheme: scheme.name(),
                trials: records.len(),
                schedulable,
                u_sys: u_sys / n,
                u_avg: u_avg / n,
                imbalance: imbalance / n,
            }
        })
        .collect()
}

/// `run_point_in` over one request's trials; returns the digest and the
/// nanoseconds taken.
fn untraced_request(
    spec: &Spec,
    schemes: &Schemes,
    seed: u64,
    (first, trials): (usize, usize),
    threads: usize,
) -> (Digest, u64) {
    let start = Instant::now();
    let d = digest(&point(spec, schemes, seed, first, trials, threads));
    (d, since(start))
}

/// The traced replay of one request's trials, folded as `run_point_in`
/// folds them; returns the digest and the request span's duration.
fn traced_request(
    tracer: &mut Tracer,
    quality: &mut QualityScratch,
    spec: &Spec,
    schemes: &Schemes,
    seed: u64,
    (first, trials): (usize, usize),
) -> (Digest, u64) {
    tracer.begin();
    let records: Vec<SweepTrial> = (first..first + trials)
        .map(|i| traced_trial(tracer, spec, schemes, quality, seed, i))
        .collect();
    let d = digest(&fold(schemes, &records));
    (d, tracer.end(Span::Request, first as u64))
}

/// The traced run: for each request, the untraced single-thread call and
/// the traced replay in alternating order, then the untraced two-thread
/// call for the harness's scaling.
pub fn trace(spec: &Spec, seed: u64, seconds: f64) -> TraceReport {
    let mut checks = Checks::default();
    let (schemes, _, _) = setup(spec, seed);
    let mut tracer = Tracer::default();
    let mut counts = Counts::default();
    let mut quality = QualityScratch::new();
    let (mut one_thread_ns, mut two_thread_ns, mut traced_ns) = (0, 0, 0);
    let mut first_digest = None;
    // Requests cover [0, warmup) first, then `chunk` trials each.
    let mut request = (0, spec.warmup);
    let start = Instant::now();
    for k in 0.. {
        if k > 0 && since(start) as f64 >= seconds * 1e9 {
            break;
        }
        let mut traced = || {
            counts
                .around(|| traced_request(&mut tracer, &mut quality, spec, &schemes, seed, request))
        };
        let (untraced, traced) = if k % 2 == 0 {
            let u = untraced_request(spec, &schemes, seed, request, 1);
            (u, traced())
        } else {
            let t = traced();
            (untraced_request(spec, &schemes, seed, request, 1), t)
        };
        checks.check(untraced.0 == traced.0, || {
            format!("trials from {}: traced replay differs from run_point_in", request.0)
        });
        first_digest.get_or_insert(traced.0);
        one_thread_ns += untraced.1;
        traced_ns += traced.1;
        two_thread_ns += untraced_request(spec, &schemes, seed, request, 2).1;
        request = (request.0 + request.1, spec.chunk);
    }
    check_against_reference(spec, &schemes, seed, request.0, &mut checks);

    let layer_ns = tracer.layer_ns();
    let mut report = TraceReport::new(tracer, counts);
    report.untraced_ns = one_thread_ns;
    report.traced_ns = traced_ns;
    report.extra.insert("harness.self_share", 1.0 - layer_ns as f64 / one_thread_ns as f64);
    report.extra.insert(
        "harness.scaling_efficiency",
        one_thread_ns as f64 / (2.0 * two_thread_ns.max(1) as f64),
    );
    report.checks = checks;
    report.digest = first_digest.expect("at least one request");
    report
}
