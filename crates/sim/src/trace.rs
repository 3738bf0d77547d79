//! Optional event tracing for the simulator — used by examples to show the
//! runtime behaviour (mode switches, drops, completions), by tests to
//! assert event ordering, and by [`crate::WeaklyHardAnalysis`] to derive
//! the weakly-hard (m,k) metrics `mcs-exp simulate` reports.
//!
//! The six [`TraceEvent`] variants are the simulator's full event taxonomy
//! (DESIGN.md#event-taxonomy); push order is simulated-time order. A trace
//! is also the unit of the tick-vs-event differential contract: the two
//! engines must emit *bit-identical* event sequences
//! (DESIGN.md#tick-oracle-differential-contract), which is why equality
//! checks compare [`Trace::events`] slices directly.

use std::fmt;

use mcs_model::{CritLevel, TaskId, Tick};

/// One simulator event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A job arrived.
    Release {
        /// Release instant.
        time: Tick,
        /// Releasing task.
        task: TaskId,
        /// Job index within the task (0-based).
        job: u64,
        /// The job's absolute deadline.
        deadline: Tick,
    },
    /// A job signalled completion.
    Complete {
        /// Completion instant.
        time: Tick,
        /// Completing task.
        task: TaskId,
        /// Job index within the task (0-based).
        job: u64,
        /// Whether completion happened after the deadline.
        late: bool,
    },
    /// A job of `task` exhausted its level-`from` budget: the core switched
    /// modes.
    ModeSwitch {
        /// Switch instant.
        time: Tick,
        /// The task whose budget overran.
        task: TaskId,
        /// Mode before the switch.
        from: CritLevel,
        /// Mode after the switch.
        to: CritLevel,
    },
    /// A live job was discarded by a mode switch.
    Drop {
        /// Drop instant.
        time: Tick,
        /// Task whose job was discarded.
        task: TaskId,
        /// Job index within the task (0-based).
        job: u64,
    },
    /// The core idled and reset to level-1 operation.
    IdleReset {
        /// Reset instant.
        time: Tick,
    },
    /// A (non-dropped) job's deadline passed before completion.
    DeadlineMiss {
        /// The missed deadline instant.
        time: Tick,
        /// Task that missed.
        task: TaskId,
        /// Job index within the task (0-based).
        job: u64,
    },
}

impl TraceEvent {
    /// Event timestamp.
    #[must_use]
    pub fn time(&self) -> Tick {
        match self {
            TraceEvent::Release { time, .. }
            | TraceEvent::Complete { time, .. }
            | TraceEvent::ModeSwitch { time, .. }
            | TraceEvent::Drop { time, .. }
            | TraceEvent::IdleReset { time }
            | TraceEvent::DeadlineMiss { time, .. } => *time,
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Release { time, task, job, deadline } => {
                write!(f, "[{time:>8}] release  τ{task}#{job} (deadline {deadline})")
            }
            TraceEvent::Complete { time, task, job, late } => {
                let mark = if *late { " LATE" } else { "" };
                write!(f, "[{time:>8}] complete τ{task}#{job}{mark}")
            }
            TraceEvent::ModeSwitch { time, task, from, to } => {
                write!(f, "[{time:>8}] MODE {from}→{to} (τ{task} exceeded its level-{from} budget)")
            }
            TraceEvent::Drop { time, task, job } => {
                write!(f, "[{time:>8}] drop     τ{task}#{job}")
            }
            TraceEvent::IdleReset { time } => write!(f, "[{time:>8}] idle — reset to level 1"),
            TraceEvent::DeadlineMiss { time, task, job } => {
                write!(f, "[{time:>8}] MISS     τ{task}#{job}")
            }
        }
    }
}

/// A bounded event log. Disabled traces cost one branch per event.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    enabled: bool,
    cap: usize,
}

impl Trace {
    /// An enabled trace holding at most `cap` events (older events are kept;
    /// excess events are discarded).
    #[must_use]
    pub fn enabled(cap: usize) -> Self {
        Self { events: Vec::new(), enabled: true, cap }
    }

    /// A disabled trace (records nothing).
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Record an event (no-op when disabled or full).
    ///
    /// Every simulator event flows through here whether or not the trace
    /// is enabled, so this is also the observability bridge: each event
    /// is one [`mcs_obs::event!`] — its counter bump plus, when the flight
    /// recorder is on, one structured [`mcs_obs::TraceEvent`] — before the
    /// enabled check. Both engines share this single point, which is what
    /// makes their recorded streams identical whenever their [`Trace`]s
    /// are (DESIGN.md#tick-oracle-differential-contract).
    pub fn push(&mut self, event: TraceEvent) {
        use mcs_obs::Counter;
        let (counter, time, a, b, c) = match event {
            TraceEvent::Release { time, task, job, deadline } => {
                (Counter::SimReleases, time, task.0 as u64, job, deadline)
            }
            TraceEvent::Complete { time, task, job, late } => {
                (Counter::SimCompletions, time, task.0 as u64, job, u64::from(late))
            }
            TraceEvent::ModeSwitch { time, task, from, to } => (
                Counter::SimModeSwitches,
                time,
                task.0 as u64,
                u64::from(from.get()),
                u64::from(to.get()),
            ),
            TraceEvent::Drop { time, task, job } => {
                (Counter::SimDrops, time, task.0 as u64, job, 0)
            }
            TraceEvent::IdleReset { time } => (Counter::SimIdleResets, time, 0, 0, 0),
            TraceEvent::DeadlineMiss { time, task, job } => {
                (Counter::SimDeadlineMisses, time, task.0 as u64, job, 0)
            }
        };
        mcs_obs::event!(counter, time, a, b, c);
        if self.enabled && self.events.len() < self.cap {
            self.events.push(event);
        }
    }

    /// Recorded events, in order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Whether this trace records events.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.push(TraceEvent::IdleReset { time: 5 });
        assert!(t.events().is_empty());
    }

    #[test]
    fn enabled_trace_caps_events() {
        let mut t = Trace::enabled(2);
        for i in 0..5 {
            t.push(TraceEvent::IdleReset { time: i });
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.events()[0].time(), 0);
        assert_eq!(t.events()[1].time(), 1);
    }

    #[test]
    fn display_formats_are_stable() {
        let e = TraceEvent::ModeSwitch {
            time: 42,
            task: TaskId(3),
            from: CritLevel::new(1),
            to: CritLevel::new(2),
        };
        let s = e.to_string();
        assert!(s.contains("MODE 1→2"), "{s}");
        assert!(s.contains("τ3"), "{s}");
    }
}
