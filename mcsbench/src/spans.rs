//! The span recorder of the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public function, nested under a `trial` span per unit of work and a
//! `request` span per traced request. Every span's duration feeds a
//! per-kind total, self time (duration minus the time its children
//! cover) and latency histogram. The first [`KEEP`] spans are also kept
//! in memory, with their parent, and written out as Chrome trace-event
//! JSON when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

use crate::hist::Histogram;

/// Spans kept for the Chrome export; later ones only feed the totals.
const KEEP: usize = 200_000;

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    /// The traced replay of one untraced request.
    Request,
    /// One unit of work: a sweep trial, an admission trace, a sim trial.
    Trial,
    /// `mcs_gen::generate_task_set`.
    GenTaskSet,
    /// `mcs_gen::generate_trace`.
    GenTrace,
    /// `Partitioner::partition` of one scheme of the paper's line-up.
    Wfd,
    /// See [`Span::Wfd`].
    Ffd,
    /// See [`Span::Wfd`].
    Bfd,
    /// See [`Span::Wfd`].
    Hybrid,
    /// See [`Span::Wfd`].
    Catpa,
    /// `PartitionQuality::summarize`.
    Quality,
    /// `AdmissionEngine::reset`.
    Reset,
    /// `AdmissionEngine::admit` that placed the task without repair.
    AdmitDirect,
    /// `AdmissionEngine::admit` that placed the task after a repair move.
    AdmitRepaired,
    /// `AdmissionEngine::admit` that rejected the task.
    AdmitRejected,
    /// `AdmissionEngine::depart`.
    Depart,
    /// `AdmissionEngine::state_identical_to_rebuild`, after each trace.
    RebuildCheck,
    /// `simulate_partition_with` on the tick engine.
    SimTick,
    /// `simulate_partition_with` on the event engine.
    SimEvent,
    /// `WeaklyHardAnalysis::from_trace`.
    WeaklyHard,
    /// `simulate_partition`, the engine `soundness` runs.
    Soundness,
}

const KINDS: usize = Span::Soundness as usize + 1;

impl Span {
    /// Every kind, in declaration order.
    pub const ALL: [Span; KINDS] = [
        Span::Request,
        Span::Trial,
        Span::GenTaskSet,
        Span::GenTrace,
        Span::Wfd,
        Span::Ffd,
        Span::Bfd,
        Span::Hybrid,
        Span::Catpa,
        Span::Quality,
        Span::Reset,
        Span::AdmitDirect,
        Span::AdmitRepaired,
        Span::AdmitRejected,
        Span::Depart,
        Span::RebuildCheck,
        Span::SimTick,
        Span::SimEvent,
        Span::WeaklyHard,
        Span::Soundness,
    ];

    /// Export name.
    pub fn name(self) -> &'static str {
        match self {
            Span::Request => "request",
            Span::Trial => "trial",
            Span::GenTaskSet => "gen.task_set",
            Span::GenTrace => "gen.trace",
            Span::Wfd => "partition.wfd",
            Span::Ffd => "partition.ffd",
            Span::Bfd => "partition.bfd",
            Span::Hybrid => "partition.hybrid",
            Span::Catpa => "partition.catpa",
            Span::Quality => "partition.quality",
            Span::Reset => "admission.reset",
            Span::AdmitDirect => "admission.admit_direct",
            Span::AdmitRepaired => "admission.admit_repaired",
            Span::AdmitRejected => "admission.admit_rejected",
            Span::Depart => "admission.depart",
            Span::RebuildCheck => "admission.rebuild_check",
            Span::SimTick => "sim.tick",
            Span::SimEvent => "sim.event",
            Span::WeaklyHard => "sim.weaklyhard",
            Span::Soundness => "sim.soundness",
        }
    }

    /// Whether the span wraps a call into a layer (rather than the
    /// benchmark's own loop).
    pub fn is_layer(self) -> bool {
        !matches!(self, Span::Request | Span::Trial)
    }
}

/// Totals of one span kind.
#[derive(Clone, Default)]
pub struct SpanStat {
    /// Spans closed.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time.
    pub self_ns: u64,
    /// Durations.
    pub hist: Histogram,
}

struct Open {
    start_ns: u64,
    child_ns: u64,
    /// Index into `kept`, when this span is kept.
    slot: Option<u32>,
}

struct Kept {
    span: Span,
    parent: Option<u32>,
    id: u64,
    start_ns: u64,
    dur_ns: u64,
}

/// Records nested spans on one thread.
pub struct Tracer {
    epoch: Instant,
    open: Vec<Open>,
    stats: Vec<SpanStat>,
    kept: Vec<Kept>,
    dropped: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            open: Vec::new(),
            stats: vec![SpanStat::default(); KINDS],
            kept: Vec::new(),
            dropped: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; its kind is given when it closes.
    pub fn begin(&mut self) {
        let now = self.now_ns();
        self.open_at(now);
    }

    /// Close the innermost open span as `span` for unit `id`; returns its
    /// duration.
    pub fn end(&mut self, span: Span, id: u64) -> u64 {
        let now = self.now_ns();
        self.close_at(now, span, id)
    }

    /// Close the innermost open span as `span` and open its next sibling
    /// at the same instant: one clock read for back-to-back calls, and no
    /// gap between them that no span covers.
    pub fn next(&mut self, span: Span, id: u64) {
        let now = self.now_ns();
        self.close_at(now, span, id);
        self.open_at(now);
    }

    fn open_at(&mut self, start_ns: u64) {
        let parent = self.open.last().and_then(|o| o.slot);
        let slot = (self.kept.len() < KEEP).then(|| {
            self.kept.push(Kept { span: Span::Request, parent, id: 0, start_ns: 0, dur_ns: 0 });
            (self.kept.len() - 1) as u32
        });
        self.open.push(Open { start_ns, child_ns: 0, slot });
    }

    fn close_at(&mut self, end_ns: u64, span: Span, id: u64) -> u64 {
        let open = self.open.pop().expect("every close matches an open");
        let dur_ns = end_ns.saturating_sub(open.start_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur_ns;
        }
        let stat = &mut self.stats[span as usize];
        stat.count += 1;
        stat.total_ns += dur_ns;
        stat.self_ns += dur_ns.saturating_sub(open.child_ns);
        stat.hist.record(dur_ns);
        match open.slot {
            Some(slot) => {
                let k = &mut self.kept[slot as usize];
                k.span = span;
                k.id = id;
                k.start_ns = open.start_ns;
                k.dur_ns = dur_ns;
            }
            None => self.dropped += 1,
        }
        dur_ns
    }

    /// Run `f` inside a `span` for unit `id`.
    pub fn span<T>(&mut self, span: Span, id: u64, f: impl FnOnce() -> T) -> T {
        self.begin();
        let out = f();
        self.end(span, id);
        out
    }

    /// Totals of one span kind.
    pub fn stat(&self, span: Span) -> &SpanStat {
        &self.stats[span as usize]
    }

    /// Summed duration of every layer span.
    pub fn layer_ns(&self) -> u64 {
        Span::ALL.iter().filter(|s| s.is_layer()).map(|&s| self.stat(s).total_ns).sum()
    }

    /// The kept spans as Chrome trace-event JSON (`ph: "X"`, microsecond
    /// timestamps), with `args.parent` naming the enclosing span's index.
    pub fn to_chrome_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, k) in self.kept.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = k.parent.map_or(-1, i64::from);
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"index\":{i},\"parent\":{parent},\"id\":{}}}}}",
                k.span.name(),
                if k.span.is_layer() { "layer" } else { "bench" },
                k.start_ns as f64 / 1e3,
                k.dur_ns as f64 / 1e3,
                k.id
            );
        }
        let _ = write!(
            out,
            "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"workload\":\"{workload}\",\
             \"seed\":{seed},\"kept_spans\":{},\"dropped_spans\":{}}}}}\n",
            self.kept.len(),
            self.dropped
        );
        out
    }

    /// One line per span kind that occurred: count, total and self time,
    /// and self time as a share of all traced requests.
    pub fn summary(&self) -> String {
        let traced_ns = self.stat(Span::Request).total_ns.max(1) as f64;
        let mut out = String::new();
        for s in Span::ALL {
            let st = self.stat(s);
            if st.count > 0 {
                let _ = writeln!(
                    out,
                    "span {:<26} count {:>10}  total {:>10.3} ms  self {:>10.3} ms  ({:5.1}% self)",
                    s.name(),
                    st.count,
                    st.total_ns as f64 / 1e6,
                    st.self_ns as f64 / 1e6,
                    100.0 * st.self_ns as f64 / traced_ns
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        let mut t = Tracer::default();
        t.begin();
        t.span(Span::Trial, 0, || {
            std::hint::black_box((0..10_000u64).sum::<u64>());
        });
        t.begin();
        t.next(Span::GenTaskSet, 1);
        t.end(Span::Depart, 1);
        let request = t.end(Span::Request, 0);
        let trial = t.stat(Span::Trial).total_ns;
        let layers = t.stat(Span::GenTaskSet).total_ns + t.stat(Span::Depart).total_ns;
        assert_eq!(t.stat(Span::Request).self_ns, request - trial - layers);
        assert_eq!(t.layer_ns(), layers);
        let spans: Vec<_> = t.kept.iter().map(|k| (k.span, k.parent)).collect();
        assert_eq!(
            spans,
            [
                (Span::Request, None),
                (Span::Trial, Some(0)),
                (Span::GenTaskSet, Some(0)),
                (Span::Depart, Some(0))
            ]
        );
        assert_eq!(
            t.kept[2].start_ns + t.kept[2].dur_ns,
            t.kept[3].start_ns,
            "siblings share an instant"
        );
        let json = mcs_harness::json::parse(&t.to_chrome_json("w", 1)).expect("valid JSON");
        assert_eq!(json.get("traceEvents").and_then(|e| e.as_arr()).map(<[_]>::len), Some(4));
    }
}
