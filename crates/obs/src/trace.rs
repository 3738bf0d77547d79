//! The flight recorder: a per-thread ring buffer of fixed-size structured
//! [`TraceEvent`] records answering *causal* questions (which admit call
//! triggered repair, which cores did it probe, why was τ rejected) that
//! the aggregate counters and histograms cannot.
//!
//! **Logical clocks, never wall clocks.** Events are ordered by the
//! triple `(trial, seq)` plus the simulator's own `tick`: `trial` is the
//! harness trial index stamped at drain time, `seq` is a per-thread
//! monotone sequence number that resets at every drain, and `tick` is the
//! simulated-time instant for simulator events (0 elsewhere). Nothing on
//! the hot path reads a wall clock, so a recorded stream is byte-identical
//! at any `--threads` (DESIGN.md#flight-recorder). The one exception is
//! diagnostic: when the runtime *timing* gate is also on
//! ([`crate::registry::timing_enabled`]), each event carries a wall-clock
//! annotation in [`TraceEvent::wall_ns`] — and the stream stops being
//! byte-comparable, by design.
//!
//! **Ring discipline.** Each thread owns a private ring of [`RING_CAP`]
//! slots. Overflow drops the *oldest* event and bumps the ring's drop
//! counter, so after a drain the surviving sequence numbers always form
//! the contiguous tail `[dropped, recorded)` — an invariant the
//! `trace-consistency` check and the ring-wrap tests below rely on.
//! The harness runner drains each worker's ring after every trial closure
//! ([`drain_thread`]) and folds the batches into the session's [`TraceLog`]
//! in trial order, which is what makes the merged stream deterministic.

use std::cell::{Cell, OnceCell};
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

use crate::registry::{Counter, EventKind};

/// Ring capacity per thread, in events. A trial that records more than
/// this between drains loses its oldest events (accounted, never silent).
///
/// Sized for cache friendliness, not completeness: 2¹² slots × 48 bytes
/// is a 192 KiB working set, small enough that steady-state drop-oldest
/// recording does not evict the admission engine's own hot data (the <2%
/// overhead gate in `mcs-exp perf` is what holds this constant in place —
/// the 2¹⁴ ring it replaced measured >5% from cache pollution alone).
pub const RING_CAP: usize = 1 << 12;

/// One fixed-size (64-byte) flight-recorder record.
///
/// The payload words `a`, `b`, `c` are interpreted per [`EventKind`] —
/// the taxonomy table in DESIGN.md#flight-recorder and the doc comment on
/// each registry variant give the meaning. `wall_ns` is `0` unless the
/// timing gate was on at record time, in which case it is 1 + nanoseconds
/// since the process trace epoch (the `+1` keeps `0` unambiguous).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: EventKind,
    /// Harness trial index (stamped at drain; `u64::MAX` until then).
    pub trial: u64,
    /// Per-thread monotone sequence number, reset at each drain.
    pub seq: u64,
    /// Simulated-time instant for simulator events; 0 elsewhere.
    pub tick: u64,
    /// First payload word (see [`EventKind`]).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
    /// Third payload word.
    pub c: u64,
    /// Optional wall-clock annotation (0 = absent; timing-gated).
    pub wall_ns: u64,
}

/// Compact stored form of one event — what the hot path actually writes.
/// `trial` and `seq` are *reconstructed at drain time* (the trial index
/// from the caller, the sequence number from the ring's total-recorded
/// counter and the slot position), which keeps the per-record store at 48
/// bytes and drops two of the three bookkeeping writes the 64-byte
/// [`TraceEvent`] layout would need.
#[derive(Clone, Copy, Debug)]
struct Slot {
    kind: EventKind,
    tick: u64,
    a: u64,
    b: u64,
    c: u64,
    wall_ns: u64,
}

impl Slot {
    /// Filler for never-written slots (any valid kind works — drain only
    /// reads slots the recorded counter covers).
    const EMPTY: Slot = Slot { kind: EventKind::TrialBegin, tick: 0, a: 0, b: 0, c: 0, wall_ns: 0 };
}

/// A drop-oldest ring of trace events. The process-global recorder keeps
/// one per thread; the struct itself is plain so the wrap behaviour is
/// unit-testable without touching the global gate.
///
/// The hot path is `Cell`-based rather than `RefCell`-based on purpose:
/// a push is one masked slot store plus one counter bump, with no borrow
/// flag to maintain — the `< 2%` recorder-overhead gate in `mcs-exp
/// perf` is what this layout buys. Overflow needs no branch at all: the
/// write index is `recorded & (RING_CAP - 1)`, so the newest event
/// silently overwrites the oldest and the drop count falls out of the
/// counter at drain time.
#[derive(Debug, Default)]
struct Ring {
    /// Fixed slot array, allocated on this thread's first record (192 KiB;
    /// a const initializer cannot heap-allocate).
    buf: OnceCell<Box<[Cell<Slot>; RING_CAP]>>,
    /// Events recorded since the last drain (drops = excess over
    /// [`RING_CAP`]).
    recorded: Cell<u64>,
}

impl Ring {
    /// Const-evaluable empty ring (the thread-local initializer; a
    /// `const`-initialized TLS slot skips the lazy-init check on every
    /// `record` call).
    const fn new() -> Self {
        Ring { buf: OnceCell::new(), recorded: Cell::new(0) }
    }

    #[inline]
    fn push(&self, slot: Slot) {
        let buf = match self.buf.get() {
            Some(buf) => buf,
            None => self.init_buf(),
        };
        let n = self.recorded.get();
        buf[(n as usize) & (RING_CAP - 1)].set(slot);
        self.recorded.set(n + 1);
    }

    /// One-time slot-array allocation, kept out of the inlined push.
    #[cold]
    fn init_buf(&self) -> &[Cell<Slot>; RING_CAP] {
        self.buf.get_or_init(|| {
            let slots: Box<[Cell<Slot>]> = vec![Cell::new(Slot::EMPTY); RING_CAP].into();
            let arr: Result<Box<[Cell<Slot>; RING_CAP]>, _> = slots.try_into();
            arr.unwrap_or_else(|_| unreachable!()) // lint: allow(panic-policy, length is RING_CAP by construction)
        })
    }

    /// Take everything recorded since the last drain, stamping `trial` and
    /// reconstructing contiguous sequence numbers `[dropped, recorded)`,
    /// and reset the window (seq restarts at 0).
    fn drain(&self, trial: u64) -> TraceLog {
        let mut log = TraceLog::default();
        self.drain_into(trial, &mut log);
        log
    }

    /// Allocation-free form of [`Ring::drain`]: append this window's
    /// events onto `log` (reusing its capacity) and fold the drop count
    /// in. The harness fold loop drains every trial this way, so steady
    /// state allocates nothing per trial once the session log has grown
    /// to its working size.
    fn drain_into(&self, trial: u64, log: &mut TraceLog) {
        let recorded = self.recorded.get();
        self.recorded.set(0);
        let Some(buf) = self.buf.get() else {
            return;
        };
        let len = recorded.min(RING_CAP as u64) as usize;
        let dropped = recorded - len as u64;
        // Once wrapped, the oldest surviving event sits exactly at the
        // next write position (`recorded & mask`); before that, at 0.
        let start = if dropped > 0 { (recorded as usize) & (RING_CAP - 1) } else { 0 };
        log.events.reserve(len);
        for i in 0..len {
            let slot = buf[(start + i) & (RING_CAP - 1)].get();
            log.events.push(TraceEvent {
                kind: slot.kind,
                trial,
                seq: dropped + i as u64,
                tick: slot.tick,
                a: slot.a,
                b: slot.b,
                c: slot.c,
                wall_ns: slot.wall_ns,
            });
        }
        log.dropped += dropped;
    }
}

thread_local! {
    static RING: Ring = const { Ring::new() };
}

/// Record one event on this thread's ring. One relaxed load and a branch
/// when the recorder gate is off ([`crate::registry::set_tracing`]);
/// nothing at all under `telemetry-off`. Counted events go through
/// [`emit`] instead, which bumps the counter too.
#[inline]
pub fn record(kind: EventKind, tick: u64, a: u64, b: u64, c: u64) {
    if crate::registry::tracing_enabled() {
        record_on(kind, tick, a, b, c);
    }
}

/// Emit one registered event (the [`crate::event!`] macro): bump
/// `counter` by one and, when the recorder gate is on and the counter's
/// registry row also declares a kind, record that kind with the payload.
/// The gate is tested before the kind lookup, so a disarmed recorder
/// costs the same one load and branch as [`record`], and with a constant
/// `counter` the lookup folds away entirely.
#[inline]
pub fn emit(counter: Counter, tick: u64, a: u64, b: u64, c: u64) {
    crate::registry::add(counter, 1);
    if crate::registry::tracing_enabled() {
        if let Some(kind) = counter.kind() {
            record_on(kind, tick, a, b, c);
        }
    }
}

#[inline]
fn record_on(kind: EventKind, tick: u64, a: u64, b: u64, c: u64) {
    let slot = Slot { kind, tick, a, b, c, wall_ns: wall_annotation() };
    RING.with(|ring| ring.push(slot));
}

/// 1 + nanoseconds since the process trace epoch when the timing gate is
/// on, else 0. Rides the existing `// lint: allow`-ed timing gate so the
/// determinism rule's "no wall clock on the hot path" contract holds: a
/// byte-comparable trace is one recorded with timing off.
#[inline]
fn wall_annotation() -> u64 {
    match crate::registry::now_if_timing() {
        Some(now) => annotate(now),
        None => 0,
    }
}

/// The timing-on slow path of [`wall_annotation`], kept out of line so the
/// deterministic common case stays branch-plus-zero.
#[cold]
fn annotate(now: Instant) -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(|| now);
    (now.duration_since(epoch).as_nanos() as u64).saturating_add(1)
}

/// Drain this thread's ring, stamping `trial` on every event. The harness
/// runner calls this after each trial closure; direct (non-runner)
/// instrumented work must drain explicitly or its events stay pending.
#[must_use]
pub fn drain_thread(trial: u64) -> TraceLog {
    RING.with(|ring| ring.drain(trial))
}

/// Drain this thread's ring directly into `log` — [`drain_thread`]
/// without the per-drain batch allocation. Equivalent to
/// `log.absorb(drain_thread(trial))`; the per-trial fold path uses this
/// so steady-state recording allocates nothing once `log` has reached
/// its working capacity.
pub fn drain_thread_into(trial: u64, log: &mut TraceLog) {
    RING.with(|ring| ring.drain_into(trial, log));
}

/// A merged, stably-sorted stream of drained events: the fold side of the
/// recorder. Batches arrive in trial order (the harness fold loop), so
/// `events` is ordered by `(append order, trial, seq)` and serializing it
/// is deterministic at any thread count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceLog {
    /// Events in merge order.
    pub events: Vec<TraceEvent>,
    /// Total ring-overflow drops accounted across all merged batches.
    pub dropped: u64,
}

impl TraceLog {
    /// Fold another drained batch onto this log.
    pub fn absorb(&mut self, mut batch: TraceLog) {
        self.events.append(&mut batch.events);
        self.dropped += batch.dropped;
    }

    /// Whether nothing was recorded (and nothing dropped).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.dropped == 0
    }

    /// Per-kind event counts, in registry order.
    #[must_use]
    pub fn counts(&self) -> [u64; EventKind::COUNT] {
        let mut out = [0u64; EventKind::COUNT];
        for ev in &self.events {
            out[ev.kind as usize] += 1;
        }
        out
    }

    /// Serialize as Chrome trace-event / Perfetto JSON (the "JSON Array
    /// Format" with a `traceEvents` wrapper object).
    ///
    /// Mapping: `tid` is the trial, `ts` is the logical sequence number
    /// (so the per-trial timeline is the drain order, not wall time),
    /// `pid` is always 1. Trial and probe-sweep events become duration
    /// (`B`/`E`) spans; everything else is a thread-scoped instant (`i`).
    /// Payload words ride in `args` verbatim; `wall_ns` is included only
    /// when the event carries an annotation.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (name, ph) = chrome_name_ph(ev.kind);
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"cat\":\"mcs\",\"ph\":\"{ph}\",\"ts\":{},\"pid\":1,\
                 \"tid\":{}",
                ev.seq, ev.trial
            );
            if ph == 'i' {
                out.push_str(",\"s\":\"t\"");
            }
            let _ = write!(
                out,
                ",\"args\":{{\"tick\":{},\"a\":{},\"b\":{},\"c\":{}",
                ev.tick, ev.a, ev.b, ev.c
            );
            if ev.wall_ns != 0 {
                let _ = write!(out, ",\"wall_ns\":{}", ev.wall_ns);
            }
            out.push_str("}}");
        }
        let _ = write!(
            out,
            "],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"dropped_events\":{}}}}}",
            self.dropped
        );
        out
    }

    /// Render the human-readable per-trial span tree: one block per
    /// trial, `B`/`E` pairs indenting their children.
    #[must_use]
    pub fn span_tree(&self) -> String {
        let mut out = String::new();
        let mut current_trial = None;
        let mut depth = 0usize;
        for ev in &self.events {
            if current_trial != Some(ev.trial) {
                current_trial = Some(ev.trial);
                depth = 0;
                let _ = writeln!(out, "trial {}", ev.trial);
            }
            let (_, ph) = chrome_name_ph(ev.kind);
            if ph == 'E' {
                depth = depth.saturating_sub(1);
            }
            let _ = writeln!(
                out,
                "{:indent$}[{:>4}] {}",
                "",
                ev.seq,
                describe(ev),
                indent = 2 + 2 * depth
            );
            if ph == 'B' {
                depth += 1;
            }
        }
        if self.dropped > 0 {
            let _ = writeln!(out, "({} events dropped at ring overflow)", self.dropped);
        }
        out
    }
}

/// Chrome trace-event `name` and `ph` for an event kind: the two `B`/`E`
/// pairs share a span name, everything else is an instant.
fn chrome_name_ph(kind: EventKind) -> (&'static str, char) {
    match kind {
        EventKind::ProbeSweepBegin => ("probe_sweep", 'B'),
        EventKind::ProbeSweepEnd => ("probe_sweep", 'E'),
        EventKind::TrialBegin => ("trial", 'B'),
        EventKind::TrialEnd => ("trial", 'E'),
        k => (k.name(), 'i'),
    }
}

/// One-line human rendering of an event's payload per the taxonomy.
fn describe(ev: &TraceEvent) -> String {
    match ev.kind {
        EventKind::AdmissionAdmit => {
            format!("admit τ{} → core {} (feasible mask {:#b})", ev.a, ev.b, ev.c)
        }
        EventKind::AdmissionReject => {
            format!("reject τ{} (feasible mask {:#b})", ev.a, ev.c)
        }
        EventKind::AdmissionDepart => format!("depart τ{} from core {}", ev.a, ev.b),
        EventKind::AdmissionRepair => format!(
            "repair for τ{}: moved τ{} core {} → {}",
            ev.a,
            ev.b,
            ev.c >> 32,
            ev.c & 0xffff_ffff
        ),
        EventKind::ProbeSweepBegin => format!("probe sweep for τ{} over {} cores", ev.a, ev.b),
        EventKind::ProbeSweepEnd => format!(
            "probe sweep for τ{} done ({})",
            ev.a,
            if ev.b == 1 { "move found" } else { "no move" }
        ),
        EventKind::SimRelease => {
            format!("@{} release τ{}#{} (deadline {})", ev.tick, ev.a, ev.b, ev.c)
        }
        EventKind::SimComplete => format!(
            "@{} complete τ{}#{}{}",
            ev.tick,
            ev.a,
            ev.b,
            if ev.c == 1 { " LATE" } else { "" }
        ),
        EventKind::SimModeSwitch => {
            format!("@{} mode switch {}→{} (τ{})", ev.tick, ev.b, ev.c, ev.a)
        }
        EventKind::SimDrop => format!("@{} drop τ{}#{}", ev.tick, ev.a, ev.b),
        EventKind::SimIdleReset => format!("@{} idle reset", ev.tick),
        EventKind::SimDeadlineMiss => format!("@{} MISS τ{}#{}", ev.tick, ev.a, ev.b),
        EventKind::TrialBegin => format!("trial begin (seed {})", ev.a),
        EventKind::TrialEnd => "trial end".to_string(),
        EventKind::CheckpointWrite => format!("checkpoint write ({} bytes)", ev.a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, a: u64) -> Slot {
        Slot { kind, tick: 0, a, b: 0, c: 0, wall_ns: 0 }
    }

    #[test]
    fn ring_assigns_contiguous_sequence_numbers() {
        let ring = Ring::default();
        for i in 0..10 {
            ring.push(ev(EventKind::SimRelease, i));
        }
        let log = ring.drain(3);
        assert_eq!(log.dropped, 0);
        assert_eq!(log.events.len(), 10);
        for (i, e) in log.events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.trial, 3);
            assert_eq!(e.a, i as u64);
        }
    }

    #[test]
    fn ring_wrap_drops_oldest_and_accounts_for_it() {
        let ring = Ring::default();
        let extra = 37u64;
        for i in 0..(RING_CAP as u64 + extra) {
            ring.push(ev(EventKind::SimRelease, i));
        }
        let log = ring.drain(0);
        assert_eq!(log.dropped, extra);
        assert_eq!(log.events.len(), RING_CAP);
        // Survivors are the contiguous tail [dropped, recorded), in order.
        for (i, e) in log.events.iter().enumerate() {
            assert_eq!(e.seq, extra + i as u64);
            assert_eq!(e.a, extra + i as u64);
        }
    }

    #[test]
    fn drain_resets_the_window() {
        let ring = Ring::default();
        ring.push(ev(EventKind::TrialBegin, 0));
        let first = ring.drain(0);
        ring.push(ev(EventKind::TrialBegin, 0));
        let second = ring.drain(1);
        assert_eq!(first.events[0].seq, 0);
        assert_eq!(second.events[0].seq, 0, "seq restarts after a drain");
        assert_eq!(second.events[0].trial, 1);
        assert!(ring.drain(2).is_empty());
    }

    #[test]
    fn record_is_gated_by_the_runtime_flag() {
        let _lock = crate::test_lock();
        crate::registry::set_tracing(false);
        record(EventKind::SimIdleReset, 1, 0, 0, 0);
        assert!(drain_thread(0).is_empty());
        crate::registry::set_tracing(true);
        record(EventKind::SimIdleReset, 2, 0, 0, 0);
        crate::registry::set_tracing(false);
        let log = drain_thread(0);
        if crate::COMPILED {
            assert_eq!(log.events.len(), 1);
            assert_eq!(log.events[0].tick, 2);
            assert_eq!(log.events[0].wall_ns, 0, "timing off ⇒ no wall annotation");
        } else {
            assert!(log.is_empty());
        }
    }

    #[test]
    fn absorb_merges_batches_and_counts_per_kind() {
        let mut log = TraceLog::default();
        let ring = Ring::default();
        ring.push(ev(EventKind::AdmissionAdmit, 1));
        ring.push(ev(EventKind::AdmissionAdmit, 2));
        ring.push(ev(EventKind::AdmissionReject, 3));
        log.absorb(ring.drain(0));
        ring.push(ev(EventKind::AdmissionDepart, 1));
        log.absorb(ring.drain(1));
        let counts = log.counts();
        assert_eq!(counts[EventKind::AdmissionAdmit as usize], 2);
        assert_eq!(counts[EventKind::AdmissionReject as usize], 1);
        assert_eq!(counts[EventKind::AdmissionDepart as usize], 1);
        assert_eq!(counts[EventKind::SimRelease as usize], 0);
    }

    #[test]
    fn chrome_json_shape_is_stable() {
        let ring = Ring::default();
        ring.push(ev(EventKind::TrialBegin, 7));
        ring.push(ev(EventKind::AdmissionAdmit, 1));
        ring.push(ev(EventKind::TrialEnd, 0));
        let log = ring.drain(0);
        let json = log.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"trial\",\"cat\":\"mcs\",\"ph\":\"B\""));
        assert!(json.contains("\"name\":\"admission_admit\",\"cat\":\"mcs\",\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"dropped_events\":0"));
    }

    #[test]
    fn span_tree_indents_span_children() {
        let ring = Ring::default();
        ring.push(ev(EventKind::TrialBegin, 7));
        ring.push(ev(EventKind::AdmissionAdmit, 1));
        ring.push(ev(EventKind::TrialEnd, 0));
        let tree = ring.drain(4).span_tree();
        assert!(tree.starts_with("trial 4\n"));
        let lines: Vec<&str> = tree.lines().collect();
        assert!(lines[1].contains("trial begin (seed 7)"));
        assert!(lines[2].starts_with("    "), "child indented: {:?}", lines[2]);
        assert!(lines[2].contains("admit τ1"));
    }
}
