//! LACNIC's IPv4 exhaustion-phase policy machine.
//!
//! §4 notes that the 2014–2017 stall in CANTV's and Telefónica's address
//! space "aligns temporally with the implementation of phases 1 and 2 of
//! LACNIC IPv4 exhaustion policies". The published timeline:
//!
//! * **Phase 0** — ordinary allocations until the free pool hit a /9
//!   equivalent (2014-06-10);
//! * **Phase 1** — gradual exhaustion: allocations capped between a /24
//!   and a /22, at most one every 6 months (2014-06-10 → 2017-02-15);
//! * **Phase 2** — reserved /11 for gradual exhaustion: caps between /24
//!   and /22, one every 6 months (2017-02-15 → 2020-08-19);
//! * **Phase 3** — reserved /11 for *new members only*: a single /24–/22
//!   block per member (2020-08-19 onward).
//!
//! The generator consults [`ExhaustionPhase::max_allocation`] when growing
//! each country's address space, which is what produces the visible
//! flattening of Fig. 2 after 2014 without hand-drawing it.

use lacnet_types::Date;

/// The registry's allocation-policy phase at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExhaustionPhase {
    /// Pre-exhaustion: needs-based allocations.
    Phase0,
    /// Gradual exhaustion of the remaining free pool.
    Phase1,
    /// Allocations from the first reserved /11.
    Phase2,
    /// New-entrant-only allocations from the final reserve.
    Phase3,
}

/// Phase-1 start: the free pool reached its final /9 equivalent.
pub fn phase1_start() -> Date {
    Date::ymd(2014, 6, 10)
}

/// Phase-2 start.
pub fn phase2_start() -> Date {
    Date::ymd(2017, 2, 15)
}

/// Phase-3 start: final exhaustion announced by LACNIC.
pub fn phase3_start() -> Date {
    Date::ymd(2020, 8, 19)
}

impl ExhaustionPhase {
    /// The phase in force on `date`.
    pub fn at(date: Date) -> Self {
        if date < phase1_start() {
            ExhaustionPhase::Phase0
        } else if date < phase2_start() {
            ExhaustionPhase::Phase1
        } else if date < phase3_start() {
            ExhaustionPhase::Phase2
        } else {
            ExhaustionPhase::Phase3
        }
    }

    /// Maximum addresses one allocation may convey under this phase.
    /// `None` means needs-based (no fixed cap).
    pub fn max_allocation(self) -> Option<u64> {
        match self {
            ExhaustionPhase::Phase0 => None,
            // Phases 1–3 cap at a /22.
            _ => Some(1 << 10),
        }
    }

    /// Whether established members (as opposed to new entrants) may still
    /// receive space.
    pub fn open_to_existing_members(self) -> bool {
        !matches!(self, ExhaustionPhase::Phase3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_boundaries() {
        assert_eq!(
            ExhaustionPhase::at(Date::ymd(2010, 1, 1)),
            ExhaustionPhase::Phase0
        );
        assert_eq!(
            ExhaustionPhase::at(Date::ymd(2014, 6, 9)),
            ExhaustionPhase::Phase0
        );
        assert_eq!(
            ExhaustionPhase::at(Date::ymd(2014, 6, 10)),
            ExhaustionPhase::Phase1
        );
        assert_eq!(
            ExhaustionPhase::at(Date::ymd(2017, 2, 14)),
            ExhaustionPhase::Phase1
        );
        assert_eq!(
            ExhaustionPhase::at(Date::ymd(2017, 2, 15)),
            ExhaustionPhase::Phase2
        );
        assert_eq!(
            ExhaustionPhase::at(Date::ymd(2020, 8, 18)),
            ExhaustionPhase::Phase2
        );
        assert_eq!(
            ExhaustionPhase::at(Date::ymd(2020, 8, 19)),
            ExhaustionPhase::Phase3
        );
        assert_eq!(
            ExhaustionPhase::at(Date::ymd(2024, 1, 1)),
            ExhaustionPhase::Phase3
        );
    }

    #[test]
    fn caps() {
        assert_eq!(ExhaustionPhase::Phase0.max_allocation(), None);
        assert_eq!(ExhaustionPhase::Phase1.max_allocation(), Some(1024));
        assert_eq!(ExhaustionPhase::Phase3.max_allocation(), Some(1024));
    }

    #[test]
    fn membership() {
        assert!(ExhaustionPhase::Phase2.open_to_existing_members());
        assert!(!ExhaustionPhase::Phase3.open_to_existing_members());
    }
}
