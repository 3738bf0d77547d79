//! The deterministic parallel trial executor.
//!
//! Every experiment command reduces to the same shape: *N* independent
//! trials, trial `i` seeded with [`mcs_gen::trial_seed`]`(seed, i)`, folded
//! into an aggregate. [`TrialRunner::run`] executes the trials across worker
//! threads and returns the per-trial records **indexed by trial**, so the
//! caller's fold runs sequentially in trial order — the output is therefore
//! bit-identical at any `--threads`, and exactly equal to the historical
//! single-threaded loops (same per-trial seeds, same fold order).
//!
//! Work distribution is dynamic (atomic block claiming), which is safe
//! precisely because ordering is restored afterwards: a slow trial never
//! perturbs the result, only the wall clock.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use crossbeam::thread;

use mcs_obs::{Counter, EventKind, Phase, TraceEvent, TraceLog};

use crate::checkpoint::Checkpoint;
use crate::config::RunConfig;
use crate::json::JsonValue;

/// Saturating nanosecond reading of an elapsed interval.
fn elapsed_ns(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A high-water mark of a [`TraceLog`] taken just before a trial's drain,
/// so the fold-side checkpoint event can continue that *trial's* sequence
/// numbering even when draining straight into the shared session log.
#[derive(Clone, Copy, Debug, Default)]
struct TraceMark {
    events: u64,
    dropped: u64,
}

impl TraceMark {
    fn of(log: &TraceLog) -> Self {
        TraceMark { events: log.events.len() as u64, dropped: log.dropped }
    }
}

/// Append the fold-side `checkpoint_write` event to a trial's drained
/// batch, continuing its per-trial sequence numbering from `base` (the
/// batch holds `dropped + events.len() - base` events of this trial).
fn push_checkpoint_event(batch: &mut TraceLog, base: TraceMark, trial: u64, bytes: u64) {
    let seq = (batch.dropped - base.dropped) + (batch.events.len() as u64 - base.events);
    batch.events.push(TraceEvent {
        kind: EventKind::CheckpointWrite,
        trial,
        seq,
        tick: 0,
        a: bytes,
        b: 0,
        c: 0,
        wall_ns: 0,
    });
}

/// One unit of work handed to the trial closure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Trial {
    /// Trial index within the point, `0..trials`.
    pub index: usize,
    /// The trial's RNG seed: [`mcs_gen::trial_seed`]`(config.seed, index)`.
    pub seed: u64,
}

/// A per-trial result that can stream to (and reload from) a JSONL
/// checkpoint line.
pub trait TrialRecord: Sized + Send {
    /// Encode as a JSON object *fragment* — the record's own fields without
    /// braces, e.g. `"sched":true,"usys":0.91` (empty string for no fields).
    /// The runner wraps it with the `point` and `trial` keys.
    fn to_json(&self) -> String;

    /// Decode from a parsed checkpoint line. `None` rejects the record (the
    /// runner recomputes it and everything after it).
    fn from_json(v: &JsonValue) -> Option<Self>;
}

/// Records that never stream (commands run without `--jsonl` still go
/// through the runner; an in-memory-only record type can use this).
impl TrialRecord for () {
    fn to_json(&self) -> String {
        String::new()
    }
    fn from_json(_: &JsonValue) -> Option<Self> {
        Some(())
    }
}

/// One experiment run: execution knobs plus the optional streaming-results
/// checkpoint shared by every point of the run.
#[derive(Debug)]
pub struct RunSession {
    config: RunConfig,
    checkpoint: Option<Checkpoint>,
    /// Flight-recorder events drained from the workers, folded in trial
    /// order (empty unless tracing was on while the session ran).
    trace: TraceLog,
}

impl RunSession {
    /// A session without streaming results.
    #[must_use]
    pub fn new(config: RunConfig) -> Self {
        Self { config, checkpoint: None, trace: TraceLog::default() }
    }

    /// A session streaming every trial to a JSONL checkpoint at `path`.
    ///
    /// With `resume`, an existing compatible file is continued (recorded
    /// trials are reloaded instead of recomputed); without it the file is
    /// truncated. `command` and `params` go into the header and must match
    /// on resume — they fingerprint the trial stream.
    ///
    /// # Errors
    /// I/O failure, or (on resume) a header from a different run.
    pub fn with_checkpoint(
        config: RunConfig,
        path: &Path,
        resume: bool,
        command: &str,
        params: &str,
    ) -> Result<Self, String> {
        let checkpoint = if resume {
            Checkpoint::resume(path, command, config.seed, params)?
        } else {
            Checkpoint::create(path, command, config.seed, params)?
        };
        Ok(Self { config, checkpoint: Some(checkpoint), trace: TraceLog::default() })
    }

    /// The session's execution knobs.
    #[must_use]
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// The flight-recorder stream this session has folded so far: every
    /// point's events in trial order (resumed trials contribute nothing).
    /// Empty unless [`mcs_obs::set_tracing`] was on during the run.
    #[must_use]
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Take the folded flight-recorder stream, leaving the session's log
    /// empty (the `--trace` exporter moves per-command streams out).
    pub fn take_trace(&mut self) -> TraceLog {
        std::mem::take(&mut self.trace)
    }

    /// Start one data point; `label` names it in the JSONL stream (each
    /// point's label must be unique within a run).
    pub fn point(&mut self, label: &str) -> TrialRunner<'_> {
        TrialRunner { session: self, label: label.to_string() }
    }
}

/// Executor for the trials of one data point; see the module docs for the
/// determinism contract.
#[derive(Debug)]
pub struct TrialRunner<'a> {
    session: &'a mut RunSession,
    label: String,
}

impl TrialRunner<'_> {
    /// Run `config.trials` trials and return their records indexed by trial.
    ///
    /// `init` builds one per-worker state (scratch buffers, a scheme set, an
    /// audit registry — anything reused across that worker's trials); `f`
    /// executes one trial against it. Trials already present in a resumed
    /// checkpoint are decoded instead of recomputed; newly computed trials
    /// stream to the checkpoint in trial order.
    ///
    /// # Panics
    /// Propagates worker panics; panics on checkpoint I/O failure.
    pub fn run<S, T, I, F>(self, init: I, f: F) -> Vec<T>
    where
        T: TrialRecord,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, Trial) -> T + Sync,
    {
        let trials = self.session.config.trials;
        let base_seed = self.session.config.seed;

        // Reload the contiguous prefix a resumed checkpoint already holds.
        let mut results: Vec<T> = Vec::with_capacity(trials);
        if let Some(ck) = self.session.checkpoint.as_mut() {
            for v in ck.take_loaded(&self.label) {
                if results.len() == trials {
                    break;
                }
                match T::from_json(&v) {
                    Some(rec) => results.push(rec),
                    None => break, // undecodable tail: recompute from here
                }
            }
        }
        let done = results.len();
        if done > 0 {
            mcs_obs::counter!(Counter::HarnessTrialsResumed, done as u64);
        }
        if done >= trials {
            return results;
        }
        let remaining = trials - done;
        let trial = |i: usize| Trial { index: i, seed: mcs_gen::trial_seed(base_seed, i) };

        // Captured once per point: workers bracket each trial closure with
        // trial_begin/trial_end and drain their thread-local ring after it,
        // so every recorded event carries its trial index and a seq that
        // restarts at 0 per trial — the merge below is then deterministic
        // by construction at any thread count.
        let tracing = mcs_obs::tracing_enabled();

        let threads = self.session.config.effective_threads().max(1).min(remaining);
        if threads == 1 {
            let worker_start = mcs_obs::now_if_timing();
            let mut state = init();
            for i in done..trials {
                let t = trial(i);
                let trial_start = mcs_obs::now_if_timing();
                if tracing {
                    mcs_obs::trace::record(EventKind::TrialBegin, 0, t.seed, 0, 0);
                }
                let rec = f(&mut state, t);
                if tracing {
                    mcs_obs::trace::record(EventKind::TrialEnd, 0, 0, 0, 0);
                }
                if let Some(start) = trial_start {
                    mcs_obs::worker_busy_ns(0, elapsed_ns(start));
                }
                mcs_obs::worker_trials(0, 1);
                mcs_obs::counter!(Counter::HarnessTrialsComputed);
                let mark = TraceMark::of(&self.session.trace);
                if tracing {
                    // Drain straight into the session log — no per-trial
                    // batch allocation on the single-threaded fold path.
                    mcs_obs::trace::drain_thread_into(i as u64, &mut self.session.trace);
                }
                if let Some(ck) = self.session.checkpoint.as_mut() {
                    let appended = ck.append(&self.label, i, &rec.to_json());
                    // lint: allow(panic-policy, checkpoint IO failure mid-run has no recovery path; abort with the IO error)
                    let bytes = appended.unwrap_or_else(|e| panic!("{e}"));
                    if tracing {
                        push_checkpoint_event(
                            &mut self.session.trace,
                            mark,
                            i as u64,
                            bytes as u64,
                        );
                    }
                }
                results.push(rec);
            }
            if let Some(start) = worker_start {
                mcs_obs::worker_wall_ns(0, elapsed_ns(start));
            }
            return results;
        }

        // Dynamic block claiming: workers race for blocks of consecutive
        // trials and send each record home tagged with its index; the main
        // thread slots records by trial and streams them to the checkpoint
        // in trial order. Scheduling nondeterminism cannot reach the output.
        let block = (remaining / (threads * 4)).clamp(1, 64);
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<T>> = Vec::new();
        slots.resize_with(remaining, || None);
        // Per-trial drained trace batches, slotted like the records and
        // folded into the session log in trial order at write time.
        let mut traces: Vec<Option<TraceLog>> = Vec::new();
        traces.resize_with(remaining, || None);
        let (tx, rx) = mpsc::channel::<(usize, T, TraceLog)>();

        thread::scope(|s| {
            let mut handles = Vec::new();
            for w in 0..threads {
                let tx = tx.clone();
                let next = &next;
                let init = &init;
                let f = &f;
                handles.push(s.spawn(move |_| {
                    let worker_start = mcs_obs::now_if_timing();
                    let mut state = init();
                    loop {
                        let lo = {
                            let _timer = mcs_obs::span(Phase::WorkerBlockClaim);
                            next.fetch_add(block, Ordering::Relaxed)
                        };
                        if lo >= remaining {
                            break;
                        }
                        mcs_obs::counter!(Counter::HarnessBlockClaims);
                        mcs_obs::worker_block(w);
                        let hi = (lo + block).min(remaining);
                        for off in lo..hi {
                            let i = done + off;
                            let t = trial(i);
                            let trial_start = mcs_obs::now_if_timing();
                            if tracing {
                                mcs_obs::trace::record(EventKind::TrialBegin, 0, t.seed, 0, 0);
                            }
                            let rec = f(&mut state, t);
                            if tracing {
                                mcs_obs::trace::record(EventKind::TrialEnd, 0, 0, 0, 0);
                            }
                            if let Some(start) = trial_start {
                                mcs_obs::worker_busy_ns(w, elapsed_ns(start));
                            }
                            mcs_obs::worker_trials(w, 1);
                            let batch = if tracing {
                                mcs_obs::trace::drain_thread(i as u64)
                            } else {
                                TraceLog::default()
                            };
                            if tx.send((off, rec, batch)).is_err() {
                                return; // receiver gone: run is unwinding
                            }
                        }
                    }
                    if let Some(start) = worker_start {
                        mcs_obs::worker_wall_ns(w, elapsed_ns(start));
                    }
                }));
            }
            drop(tx);
            let mut next_write = 0usize;
            while let Ok((off, rec, batch)) = rx.recv() {
                mcs_obs::counter!(Counter::HarnessTrialsComputed);
                slots[off] = Some(rec);
                traces[off] = Some(batch);
                while let Some(Some(rec)) = slots.get(next_write) {
                    let mut batch = traces[next_write].take().unwrap_or_default();
                    if let Some(ck) = self.session.checkpoint.as_mut() {
                        let bytes = ck
                            .append(&self.label, done + next_write, &rec.to_json())
                            .unwrap_or_else(|e| panic!("{e}")); // lint: allow(panic-policy, checkpoint IO failure mid-run has no recovery path; abort with the IO error)
                        if tracing {
                            push_checkpoint_event(
                                &mut batch,
                                TraceMark::default(),
                                (done + next_write) as u64,
                                bytes as u64,
                            );
                        }
                    }
                    self.session.trace.absorb(batch);
                    next_write += 1;
                }
            }
            for h in handles {
                h.join().expect("trial worker panicked");
            }
        })
        .expect("trial scope panicked");

        results.extend(slots.into_iter().map(|s| s.expect("all trials completed")));
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A record carrying the trial seed, so reorderings are detectable.
    struct Rec {
        seed: u64,
        metric: f64,
    }

    impl TrialRecord for Rec {
        fn to_json(&self) -> String {
            format!("\"seed\":{},\"metric\":{}", self.seed, crate::json::fmt_f64(self.metric))
        }
        fn from_json(v: &JsonValue) -> Option<Self> {
            Some(Self {
                seed: v.get("seed").and_then(JsonValue::as_u64)?,
                metric: v.get("metric").and_then(JsonValue::as_f64)?,
            })
        }
    }

    fn compute(t: Trial) -> Rec {
        // A seed-dependent irrational-ish metric: any fold-order change
        // would flip output bits.
        Rec { seed: t.seed, metric: (t.seed as f64).sqrt() / 3.0 }
    }

    fn run_with(threads: usize) -> Vec<Rec> {
        let mut session = RunSession::new(RunConfig { trials: 97, threads, seed: 41 });
        session.point("p").run(|| (), |(), t| compute(t))
    }

    /// Serializes the tests that toggle the global tracing gate, so a
    /// concurrent test cannot turn the recorder off mid-run.
    fn trace_lock() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A trial closure that records a seed-dependent number of events, so
    /// per-trial batches have distinct shapes.
    fn traced_compute(t: Trial) -> Rec {
        for j in 0..(t.seed % 5) {
            mcs_obs::trace::record(mcs_obs::EventKind::SimRelease, j, t.seed, j, 0);
        }
        compute(t)
    }

    fn trace_run(trials: usize, threads: usize, seed: u64) -> TraceLog {
        let mut session = RunSession::new(RunConfig { trials, threads, seed });
        let _ = session.point("p").run(|| (), |(), t| traced_compute(t));
        session.take_trace()
    }

    #[test]
    fn trace_stream_is_identical_across_thread_counts() {
        let _g = trace_lock();
        mcs_obs::set_tracing(true);
        let one = trace_run(31, 1, 11);
        let eight = trace_run(31, 8, 11);
        mcs_obs::set_tracing(false);
        if !mcs_obs::COMPILED {
            assert!(one.is_empty());
            return;
        }
        assert_eq!(one, eight);
        assert_eq!(one.to_chrome_json(), eight.to_chrome_json());
        let counts = one.counts();
        assert_eq!(counts[mcs_obs::EventKind::TrialBegin as usize], 31);
        assert_eq!(counts[mcs_obs::EventKind::TrialEnd as usize], 31);
    }

    #[test]
    fn checkpoint_writes_are_recorded_with_contiguous_seqs() {
        let _g = trace_lock();
        let mut path = std::env::temp_dir();
        path.push(format!("mcs-harness-trace-ck-{}.jsonl", std::process::id()));
        let config = RunConfig { trials: 9, threads: 4, seed: 3 };
        mcs_obs::set_tracing(true);
        let mut session = RunSession::with_checkpoint(config, &path, false, "t", "").unwrap();
        let _ = session.point("p").run(|| (), |(), t| traced_compute(t));
        mcs_obs::set_tracing(false);
        let log = session.take_trace();
        std::fs::remove_file(&path).ok();
        if !mcs_obs::COMPILED {
            return;
        }
        assert_eq!(log.counts()[mcs_obs::EventKind::CheckpointWrite as usize], 9);
        // Within each trial, seqs are contiguous from 0 and the
        // checkpoint_write event is last.
        let mut expected_seq = 0u64;
        let mut current_trial = u64::MAX;
        for ev in &log.events {
            if ev.trial != current_trial {
                current_trial = ev.trial;
                expected_seq = 0;
            }
            assert_eq!(ev.seq, expected_seq, "trial {current_trial}");
            expected_seq += 1;
            if ev.kind == mcs_obs::EventKind::CheckpointWrite {
                assert!(ev.a > 0, "checkpoint_write carries the line bytes");
            }
        }
    }

    #[test]
    fn output_is_bit_identical_across_thread_counts() {
        let one = run_with(1);
        for threads in [2, 4, 8] {
            let many = run_with(threads);
            assert_eq!(one.len(), many.len());
            for (a, b) in one.iter().zip(&many) {
                assert_eq!(a.seed, b.seed);
                assert_eq!(a.metric.to_bits(), b.metric.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn trial_seeds_follow_the_published_derivation() {
        let recs = run_with(3);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.seed, 41 + i as u64);
        }
    }

    #[test]
    fn resume_skips_recorded_trials() {
        let mut path = std::env::temp_dir();
        path.push(format!("mcs-harness-runner-{}.jsonl", std::process::id()));
        let config = RunConfig { trials: 20, threads: 2, seed: 9 };
        let calls = AtomicUsize::new(0);
        let full = {
            let mut session =
                RunSession::with_checkpoint(config.clone(), &path, false, "t", "").unwrap();
            session.point("p").run(
                || (),
                |(), t| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    compute(t)
                },
            )
        };
        assert_eq!(calls.swap(0, Ordering::Relaxed), 20);

        // Resume with more trials: only the extra 10 are computed, and the
        // reloaded prefix is bit-identical to the original run.
        let config = RunConfig { trials: 30, ..config };
        let mut session = RunSession::with_checkpoint(config, &path, true, "t", "").unwrap();
        let resumed = session.point("p").run(
            || (),
            |(), t| {
                calls.fetch_add(1, Ordering::Relaxed);
                compute(t)
            },
        );
        assert_eq!(calls.load(Ordering::Relaxed), 10);
        assert_eq!(resumed.len(), 30);
        for (a, b) in full.iter().zip(&resumed) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.metric.to_bits(), b.metric.to_bits());
        }
        std::fs::remove_file(&path).ok();
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Bit-identical output at any worker count, for arbitrary
            /// base seeds and trial counts (including counts far from
            /// multiples of the claiming block size).
            #[test]
            fn runner_output_is_thread_count_invariant(
                seed in any::<u64>(),
                trials in 1usize..80,
                threads in 2usize..9,
            ) {
                let run = |threads: usize| {
                    let mut session =
                        RunSession::new(RunConfig { trials, threads, seed });
                    session.point("p").run(|| (), |(), t| compute(t))
                };
                let one = run(1);
                let many = run(threads);
                prop_assert_eq!(one.len(), many.len());
                for (a, b) in one.iter().zip(&many) {
                    prop_assert_eq!(a.seed, b.seed);
                    prop_assert_eq!(a.metric.to_bits(), b.metric.to_bits());
                }
            }

            /// The folded flight-recorder stream (and its Chrome JSON
            /// serialization) is byte-identical at any worker count.
            #[test]
            fn trace_stream_is_thread_count_invariant(
                seed in any::<u64>(),
                trials in 1usize..40,
                threads in 2usize..9,
            ) {
                let _g = trace_lock();
                mcs_obs::set_tracing(true);
                let one = trace_run(trials, 1, seed);
                let many = trace_run(trials, threads, seed);
                mcs_obs::set_tracing(false);
                if mcs_obs::COMPILED {
                    prop_assert_eq!(&one, &many);
                    prop_assert_eq!(one.to_chrome_json(), many.to_chrome_json());
                }
            }
        }
    }
}
