//! Per-machine memory-footprint profiles.
//!
//! A single hot machine wants every reservation made up front: the
//! event slab, the skipped-deadline heap, and the DP rx rings are all
//! sized for their worst case at construction so the steady-state loop
//! never allocates (the [`crate::alloc`] audit pins that down). A
//! fleet driver standing up thousands of mostly-idle machines wants
//! the opposite: start every per-machine structure small and let it
//! grow to that machine's actual working set, because eager worst-case
//! reservations multiplied by 4096 machines dominate the run's
//! resident memory.
//!
//! [`FootprintProfile`] names the two policies. It only moves *where
//! growth starts*, never what the simulation computes: every structure
//! behind it grows on demand to the same logical state, so traces,
//! stats, and CSVs are byte-identical across profiles — the fleet
//! identity matrix asserts exactly that.

use crate::event::INITIAL_SLOTS;

/// How aggressively one simulated machine pre-reserves memory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FootprintProfile {
    /// Reserve for the worst case at construction (single hot machine;
    /// the historical behaviour and the default).
    #[default]
    Hot,
    /// Start small and grow on demand (thousands of mostly-idle
    /// machines; the fleet drivers' default).
    Fleet,
}

impl FootprintProfile {
    /// Initial event-slab reservation ([`crate::event::EventQueue`]).
    pub fn initial_event_slots(self) -> usize {
        match self {
            FootprintProfile::Hot => INITIAL_SLOTS,
            FootprintProfile::Fleet => 32,
        }
    }

    /// Initial skipped-deadline heap reservation (machine skip layer).
    pub fn skipped_deadline_capacity(self) -> usize {
        match self {
            FootprintProfile::Hot => 1024,
            FootprintProfile::Fleet => 16,
        }
    }

    /// Whether rx rings (DP services, per-tenant staging) reserve their
    /// full logical capacity up front. The capacity *bound* is
    /// identical either way — only the backing storage is lazy — so
    /// drop/reject accounting cannot differ.
    pub fn eager_rings(self) -> bool {
        matches!(self, FootprintProfile::Hot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_matches_historical_reservations() {
        let p = FootprintProfile::default();
        assert_eq!(p, FootprintProfile::Hot);
        assert_eq!(p.initial_event_slots(), INITIAL_SLOTS);
        assert_eq!(p.skipped_deadline_capacity(), 1024);
        assert!(p.eager_rings());
    }

    #[test]
    fn fleet_starts_small() {
        let p = FootprintProfile::Fleet;
        assert!(p.initial_event_slots() < INITIAL_SLOTS / 8);
        assert!(p.skipped_deadline_capacity() < 1024);
        assert!(!p.eager_rings());
    }
}
