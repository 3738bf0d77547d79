//! RAII phase timing. [`span`] returns a guard that records the elapsed
//! nanoseconds into the phase's histogram when dropped — but only takes an
//! `Instant` at all when the runtime timing gate is on, so plain runs pay
//! one relaxed load per span site.

use std::time::Instant;

use crate::registry::{self, Phase};

/// Guard returned by [`span`]; records its lifetime on drop.
#[must_use = "a span records on drop — bind it to a variable for the region's lifetime"]
#[derive(Debug)]
pub struct PhaseSpan {
    phase: Phase,
    start: Option<Instant>,
}

impl Drop for PhaseSpan {
    /// Inlined, so an inert guard costs its span site one branch and no
    /// call; only a timed guard leaves the line, into [`record`].
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            record(self.phase, start);
        }
    }
}

/// The timed half of [`PhaseSpan`]'s drop, kept out of line.
#[cold]
#[inline(never)]
fn record(phase: Phase, start: Instant) {
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    registry::record_phase(phase, ns);
}

/// Start timing `phase`. When timing is off (or telemetry is compiled
/// out) the guard is inert.
#[inline]
pub fn span(phase: Phase) -> PhaseSpan {
    PhaseSpan { phase, start: registry::now_if_timing() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{set_timing, Snapshot, COMPILED};

    #[test]
    fn span_records_only_under_the_gate() {
        set_timing(false);
        let before = Snapshot::capture();
        drop(span(Phase::ContributionSort));
        let mid = Snapshot::capture();
        assert_eq!(mid.delta_since(&before).phase(Phase::ContributionSort).count, 0);

        set_timing(true);
        drop(span(Phase::ContributionSort));
        set_timing(false);
        let after = Snapshot::capture();
        let recorded = after.delta_since(&mid).phase(Phase::ContributionSort).count;
        assert_eq!(recorded, u64::from(COMPILED));
    }
}
