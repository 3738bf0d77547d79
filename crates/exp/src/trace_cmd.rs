//! The `mcs-exp trace` command: a deterministic trial replay whose whole
//! purpose is the flight-recorder stream it produces.
//!
//! Each trial generates a task universe, replays its lifecycle trace
//! through a CA-TPA [`AdmissionEngine`] (admission decisions, repair
//! probe sweeps), then — when CA-TPA partitions the full set — executes
//! the partition at the top behaviour level on the discrete-event
//! simulator (release/completion/mode-switch/drop events). Everything
//! runs on the harness trial runner, so the stream also carries the
//! trial-begin/end spans and checkpoint-write events, and the merged
//! [`TraceLog`] is byte-identical at any `--threads` setting
//! (`DESIGN.md#flight-recorder`).
//!
//! The caller owns the global tracing gate: enable it before
//! [`run_session`], or the replay runs identically but the log comes back
//! empty. Output rendering (per-trial span tree on stdout, Chrome
//! trace-event JSON via `--json` or `--trace PATH`) lives in the binary.

use mcs_gen::{generate_task_set, generate_trace, GenParams, TraceOp, TraceParams};
use mcs_harness::{JsonValue, RunSession, TrialRecord};
use mcs_model::Tick;
use mcs_obs::TraceLog;
use mcs_partition::{AdmissionEngine, AdmissionPolicy, Catpa, Partitioner};
use mcs_sim::{simulate_partition_with, LevelCap, SimConfig, SimEngine, SystemScheduler};

/// Trace capacity per simulated core (as in the `simulate` command; both
/// the cap and any truncation are deterministic).
const TRACE_CAP: usize = 200_000;

/// Per-trial record: the replay's observable outcome (the event stream
/// itself rides the session's trace channel, not the checkpoint).
#[derive(Clone, Debug, PartialEq, Eq)]
struct TraceTrial {
    /// Arrivals the admission engine accepted.
    admits: u64,
    /// Arrivals it rejected.
    rejects: u64,
    /// Whether CA-TPA partitioned the full set (enabling the sim leg).
    partitioned: bool,
    /// Simulated horizon in ticks (0 when not partitioned).
    horizon: Tick,
}

impl TrialRecord for TraceTrial {
    fn to_json(&self) -> String {
        format!(
            "\"a\":{},\"r\":{},\"p\":{},\"h\":{}",
            self.admits, self.rejects, self.partitioned, self.horizon
        )
    }

    fn from_json(v: &JsonValue) -> Option<Self> {
        Some(Self {
            admits: v.get("a")?.as_u64()?,
            rejects: v.get("r")?.as_u64()?,
            partitioned: v.get("p")?.as_bool()?,
            horizon: v.get("h")?.as_u64()?,
        })
    }
}

/// Aggregate of one `trace` replay, with the merged event stream.
#[derive(Clone, Debug)]
pub struct TraceCmdResult {
    /// Trials replayed.
    pub trials: usize,
    /// Trials whose full set CA-TPA partitioned (and that were simulated).
    pub partitioned: usize,
    /// Total admitted arrivals.
    pub admits: u64,
    /// Total rejected arrivals.
    pub rejects: u64,
    /// The merged flight-recorder stream (empty when tracing was off).
    pub log: TraceLog,
}

/// Run the trace replay on an existing session (enables
/// `--jsonl`/`--resume`); the session's drained trace is moved into the
/// result. `horizon`/`horizon_periods` parameterize the sim leg as in
/// `simulate`.
#[must_use]
pub fn run_session(
    session: &mut RunSession,
    params: &GenParams,
    horizon: Option<Tick>,
    horizon_periods: u32,
) -> TraceCmdResult {
    let trace_params = TraceParams::default();
    let records = session.point("trace").run(
        || AdmissionEngine::new(AdmissionPolicy::catpa()),
        |engine, trial| {
            let ts = generate_task_set(params, trial.seed);
            let ops = generate_trace(ts.len(), &trace_params, trial.seed);
            engine.reset(&ts, params.cores);
            let (mut admits, mut rejects) = (0u64, 0u64);
            for op in &ops {
                match *op {
                    TraceOp::Arrive(id) => {
                        if engine.admit(id).admitted() {
                            admits += 1;
                        } else {
                            rejects += 1;
                        }
                    }
                    TraceOp::Depart(id) => {
                        let _ = engine.depart(id);
                    }
                }
            }
            engine.flush_telemetry();
            let sim = Catpa::default().partition(&ts, params.cores).ok().map(|partition| {
                let h = crate::simulate::trial_horizon(&ts, horizon, horizon_periods);
                let config = SimConfig { horizon: Some(h), horizon_periods, trace_cap: TRACE_CAP };
                let _ = simulate_partition_with(
                    &ts,
                    &partition,
                    SystemScheduler::EdfVd,
                    &config,
                    SimEngine::Event,
                    |_| LevelCap::new(params.levels),
                )
                .expect("CA-TPA partitions are feasible on every core");
                h
            });
            TraceTrial { admits, rejects, partitioned: sim.is_some(), horizon: sim.unwrap_or(0) }
        },
    );

    let mut result = TraceCmdResult {
        trials: records.len(),
        partitioned: 0,
        admits: 0,
        rejects: 0,
        log: TraceLog::default(),
    };
    for rec in &records {
        result.admits += rec.admits;
        result.rejects += rec.rejects;
        result.partitioned += usize::from(rec.partitioned);
    }
    result.log = session.take_trace();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepConfig;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Serialize tests that toggle the process-global tracing gate.
    fn trace_lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(Mutex::default).lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn small_params() -> GenParams {
        GenParams::default().with_n_range(8, 12).with_cores(4)
    }

    fn traced_run(trials: usize, threads: usize) -> TraceCmdResult {
        let config = SweepConfig { trials, threads, seed: 0x7ACE };
        let mut session = RunSession::new(config);
        run_session(&mut session, &small_params(), Some(2_000), 4)
    }

    #[test]
    fn replay_stream_is_thread_count_invariant() {
        if !mcs_obs::COMPILED {
            return;
        }
        let _guard = trace_lock();
        mcs_obs::set_tracing(true);
        let a = traced_run(13, 1);
        let b = traced_run(13, 8);
        mcs_obs::set_tracing(false);
        assert_eq!(a.log, b.log, "merged stream must not depend on the worker schedule");
        assert_eq!(a.log.to_chrome_json(), b.log.to_chrome_json());
        assert_eq!(a.log.span_tree(), b.log.span_tree());
        assert!(!a.log.is_empty(), "a traced replay must record events");
        assert_eq!((a.admits, a.rejects), (b.admits, b.rejects));
        let counts = a.log.counts();
        assert_eq!(counts[mcs_obs::EventKind::TrialBegin as usize], 13);
        assert_eq!(counts[mcs_obs::EventKind::TrialEnd as usize], 13);
        assert!(counts[mcs_obs::EventKind::AdmissionAdmit as usize] > 0);
        if a.partitioned > 0 {
            assert!(counts[mcs_obs::EventKind::SimRelease as usize] > 0);
        }
    }

    #[test]
    fn untraced_replay_yields_an_empty_log_but_full_aggregates() {
        let _guard = trace_lock();
        mcs_obs::set_tracing(false);
        let r = traced_run(5, 2);
        assert!(r.log.is_empty(), "gate off must record nothing");
        assert_eq!(r.trials, 5);
        assert!(r.admits > 0);
    }

    #[test]
    fn chrome_export_round_trips_through_the_harness_parser() {
        if !mcs_obs::COMPILED {
            return;
        }
        let _guard = trace_lock();
        mcs_obs::set_tracing(true);
        let r = traced_run(3, 2);
        mcs_obs::set_tracing(false);
        let json = r.log.to_chrome_json();
        let v = mcs_harness::json::parse(&json).expect("Chrome export must be valid JSON");
        let events = v.get("traceEvents").and_then(JsonValue::as_arr).expect("traceEvents array");
        assert_eq!(events.len(), r.log.events.len());
        for ev in events {
            assert!(ev.get("name").and_then(JsonValue::as_str).is_some());
            assert!(ev.get("ts").and_then(JsonValue::as_u64).is_some());
            assert!(ev.get("tid").and_then(JsonValue::as_u64).is_some());
            assert_eq!(ev.get("pid").and_then(JsonValue::as_u64), Some(1));
            assert!(ev.get("args").is_some());
        }
        assert_eq!(
            v.get("otherData").and_then(|o| o.get("dropped_events")).and_then(JsonValue::as_u64),
            Some(r.log.dropped)
        );
    }

    #[test]
    fn trial_record_round_trips() {
        let rec = TraceTrial { admits: 9, rejects: 2, partitioned: true, horizon: 4_096 };
        let line = format!("{{{}}}", rec.to_json());
        let back = TraceTrial::from_json(&mcs_harness::json::parse(&line).unwrap()).unwrap();
        assert_eq!(rec, back);
    }
}
