//! Timer-tag multiplexing: several logical timers per process over the
//! single `Context::set_timer` tag word.
//!
//! The convention throughout the workspace is `tag = (epoch << 8) |
//! kind`: the low byte names *which* timer it is, the high 56 bits
//! carry a disambiguating epoch (a ballot sequence, an attempt counter,
//! a request id) so a stale timer from a superseded round is
//! recognizable. Before this module each process hand-rolled the shifts
//! plus a pile of `*_armed` booleans; [`TimerMux`] owns both: it mints
//! tags and tracks which `(kind, epoch)` pairs are live, so a fired tag
//! that was never armed — or was disarmed, or belongs to an abandoned
//! epoch — is rejected uniformly.
//!
//! Sans-io: the mux never touches a `Context`. Arm with the tag it
//! mints (`ctx.set_timer(after, mux.arm(KIND, epoch))`) and offer every
//! fired tag back through [`TimerMux::fired`].

/// Bits of the tag word reserved for the kind.
const KIND_BITS: u32 = 8;

/// Allocator and liveness tracker for `(kind, epoch)` timer tags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimerMux {
    /// Live timers. Small (a handful per process), so a sorted Vec
    /// beats a map.
    armed: Vec<(u8, u64)>,
}

marp_wire::wire_struct!(TimerMux { armed });

impl TimerMux {
    /// No timers armed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compose the tag for `(kind, epoch)`. Epochs wider than 56 bits
    /// are truncated (they are counters in practice).
    pub fn tag(kind: u8, epoch: u64) -> u64 {
        (epoch << KIND_BITS) | u64::from(kind)
    }

    /// Split a tag into `(kind, epoch)`.
    pub fn split(tag: u64) -> (u8, u64) {
        (tag as u8, tag >> KIND_BITS)
    }

    /// Mark `(kind, epoch)` live and mint its tag; pass the tag to
    /// `set_timer`. Arming an already-live pair is a no-op (the pair
    /// stays live; both pending fires will match, exactly like two
    /// `set_timer` calls with the same hand-built tag).
    pub fn arm(&mut self, kind: u8, epoch: u64) -> u64 {
        let pair = (kind, epoch);
        if let Err(slot) = self.armed.binary_search(&pair) {
            self.armed.insert(slot, pair);
        }
        Self::tag(kind, epoch)
    }

    /// Offer a fired tag. Returns `(kind, epoch)` and disarms the pair
    /// if it was live; `None` for anything stale — never armed,
    /// already fired, disarmed, or superseded.
    pub fn fired(&mut self, tag: u64) -> Option<(u8, u64)> {
        let pair = Self::split(tag);
        match self.armed.binary_search(&pair) {
            Ok(slot) => {
                self.armed.remove(slot);
                Some(pair)
            }
            Err(_) => None,
        }
    }

    /// Forget `(kind, epoch)`: a pending fire for it will be rejected.
    /// Returns whether it was live.
    pub fn disarm(&mut self, kind: u8, epoch: u64) -> bool {
        match self.armed.binary_search(&(kind, epoch)) {
            Ok(slot) => {
                self.armed.remove(slot);
                true
            }
            Err(_) => false,
        }
    }

    /// Forget every epoch of `kind`.
    pub fn disarm_kind(&mut self, kind: u8) {
        self.armed.retain(|&(k, _)| k != kind);
    }

    /// Whether any epoch of `kind` is live (the old `retry_armed`
    /// boolean).
    pub fn is_kind_armed(&self, kind: u8) -> bool {
        self.armed.iter().any(|&(k, _)| k == kind)
    }

    /// Whether exactly `(kind, epoch)` is live.
    pub fn is_armed(&self, kind: u8, epoch: u64) -> bool {
        self.armed.binary_search(&(kind, epoch)).is_ok()
    }

    /// Forget everything (crash recovery).
    pub fn clear(&mut self) {
        self.armed.clear();
    }

    /// Number of live timers.
    pub fn live(&self) -> usize {
        self.armed.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RETRY: u8 = 2;
    const ROUND: u8 = 1;

    #[test]
    fn tag_layout_matches_the_legacy_convention() {
        assert_eq!(TimerMux::tag(ROUND, 7), (7 << 8) | 1);
        assert_eq!(TimerMux::split((9 << 8) | 2), (2, 9));
    }

    #[test]
    fn fired_accepts_only_live_pairs() {
        let mut mux = TimerMux::new();
        let tag = mux.arm(ROUND, 3);
        assert!(mux.is_armed(ROUND, 3));
        assert_eq!(mux.fired(tag), Some((ROUND, 3)));
        // Second fire of the same tag is stale.
        assert_eq!(mux.fired(tag), None);
        // A tag that was never armed is stale.
        assert_eq!(mux.fired(TimerMux::tag(ROUND, 4)), None);
    }

    #[test]
    fn disarm_suppresses_a_pending_fire() {
        let mut mux = TimerMux::new();
        let tag = mux.arm(RETRY, 0);
        assert!(mux.is_kind_armed(RETRY));
        assert!(mux.disarm(RETRY, 0));
        assert!(!mux.is_kind_armed(RETRY));
        assert_eq!(mux.fired(tag), None);
        assert!(!mux.disarm(RETRY, 0));
    }

    #[test]
    fn kinds_are_independent_and_epochs_coexist() {
        let mut mux = TimerMux::new();
        mux.arm(ROUND, 1);
        mux.arm(ROUND, 2);
        mux.arm(RETRY, 0);
        assert_eq!(mux.live(), 3);
        assert_eq!(mux.fired(TimerMux::tag(ROUND, 1)), Some((ROUND, 1)));
        assert!(mux.is_armed(ROUND, 2));
        mux.disarm_kind(ROUND);
        assert!(!mux.is_kind_armed(ROUND));
        assert!(mux.is_kind_armed(RETRY));
        mux.clear();
        assert_eq!(mux.live(), 0);
    }

    #[test]
    fn wire_roundtrip() {
        let mut mux = TimerMux::new();
        mux.arm(ROUND, 5);
        mux.arm(RETRY, 0);
        let bytes = marp_wire::to_bytes(&mux);
        let back: TimerMux = marp_wire::from_bytes(&bytes).unwrap();
        assert_eq!(back, mux);
    }
}
