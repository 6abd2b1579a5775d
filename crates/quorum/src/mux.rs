//! Timer-tag multiplexing: several logical timers per process over the
//! single `Context::set_timer` tag word.
//!
//! The convention throughout the workspace is `tag = (epoch << 8) |
//! kind`: the low byte names *which* timer it is, the high 56 bits
//! carry a disambiguating epoch (a ballot sequence, an attempt counter,
//! a request id) so a stale timer from a superseded round is
//! recognizable. A process declares its kinds once, as one enum
//! ([`timer_kinds!`]), so two kinds cannot share a byte and a handler
//! that `match`es the kind cannot forget one — the compiler checks
//! both. [`TimerMux`] mints and splits tags for that enum and tracks
//! which `(kind, epoch)` pairs are live, so a fired tag that was never
//! armed — or was disarmed, or belongs to an abandoned epoch — is
//! rejected uniformly.
//!
//! Sans-io: the mux never touches a `Context`. Arm with the tag it
//! mints (`ctx.set_timer(after, mux.arm(kind, epoch))`) and offer every
//! fired tag back through [`TimerMux::fired`]. A process that keeps the
//! epoch's liveness elsewhere uses the stateless [`TimerMux::tag`] /
//! [`TimerMux::split`] pair alone.

/// Bits of the tag word reserved for the kind.
const KIND_BITS: u32 = 8;

/// One process's timer kinds: a fieldless enum whose discriminant is
/// the low byte of the tag. Implemented by [`timer_kinds!`](crate::timer_kinds).
pub trait TimerKind: Copy + Ord {
    /// The byte this kind puts in the tag.
    fn byte(self) -> u8;
    /// The kind a tag's low byte names; `None` for a byte no kind has.
    fn from_byte(byte: u8) -> Option<Self>;
}

/// Declare a process's timer kinds: an enum with an explicit byte per
/// kind, plus its [`TimerKind`] round trip.
///
/// ```
/// marp_quorum::timer_kinds! {
///     /// What this process waits for.
///     enum Timer { Round = 1, Retry = 2 }
/// }
/// use marp_quorum::TimerMux;
///
/// let tag = TimerMux::tag(Timer::Retry, 7);
/// assert_eq!(tag, (7 << 8) | 2);
/// assert_eq!(TimerMux::split(tag), Some((Timer::Retry, 7)));
/// // A byte no kind has is nobody's timer.
/// assert_eq!(TimerMux::<Timer>::split(3), None);
/// ```
///
/// Two kinds with one byte do not compile (rustc E0081), which is what
/// keeps the kinds of one process distinct:
///
/// ```compile_fail,E0081
/// marp_quorum::timer_kinds! {
///     enum Timer { Round = 1, Retry = 1 }
/// }
/// ```
#[macro_export]
macro_rules! timer_kinds {
    ($(#[$meta:meta])* $vis:vis enum $name:ident {
        $($(#[$kind_meta:meta])* $kind:ident = $byte:literal),+ $(,)?
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        #[repr(u8)]
        $vis enum $name {
            $($(#[$kind_meta])* $kind = $byte),+
        }

        impl $crate::TimerKind for $name {
            fn byte(self) -> u8 {
                self as u8
            }
            fn from_byte(byte: u8) -> ::core::option::Option<Self> {
                match byte {
                    $($byte => ::core::option::Option::Some($name::$kind),)+
                    _ => ::core::option::Option::None,
                }
            }
        }
    };
}

/// Allocator and liveness tracker for `(kind, epoch)` timer tags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimerMux<K> {
    /// Live timers. Small (a handful per process), so a sorted Vec
    /// beats a map.
    armed: Vec<(K, u64)>,
}

impl<K> Default for TimerMux<K> {
    fn default() -> Self {
        TimerMux { armed: Vec::new() }
    }
}

impl<K: TimerKind> TimerMux<K> {
    /// No timers armed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compose the tag for `(kind, epoch)`. Epochs wider than 56 bits
    /// are truncated (they are counters in practice).
    pub fn tag(kind: K, epoch: u64) -> u64 {
        (epoch << KIND_BITS) | u64::from(kind.byte())
    }

    /// Split a tag into `(kind, epoch)`; `None` when its low byte is
    /// none of `K`'s kinds.
    pub fn split(tag: u64) -> Option<(K, u64)> {
        Some((K::from_byte(tag as u8)?, tag >> KIND_BITS))
    }

    /// Mark `(kind, epoch)` live and mint its tag; pass the tag to
    /// `set_timer`. Arming an already-live pair is a no-op (the pair
    /// stays live; both pending fires will match, exactly like two
    /// `set_timer` calls with the same hand-built tag).
    pub fn arm(&mut self, kind: K, epoch: u64) -> u64 {
        let pair = (kind, epoch);
        if let Err(slot) = self.armed.binary_search(&pair) {
            self.armed.insert(slot, pair);
        }
        Self::tag(kind, epoch)
    }

    /// Offer a fired tag. Returns `(kind, epoch)` and disarms the pair
    /// if it was live; `None` for anything stale — never armed,
    /// already fired, disarmed, or superseded.
    pub fn fired(&mut self, tag: u64) -> Option<(K, u64)> {
        let (kind, epoch) = Self::split(tag)?;
        self.disarm(kind, epoch).then_some((kind, epoch))
    }

    /// Forget `(kind, epoch)`: a pending fire for it will be rejected.
    /// Returns whether it was live.
    pub fn disarm(&mut self, kind: K, epoch: u64) -> bool {
        let found = self.armed.binary_search(&(kind, epoch));
        found.map(|slot| self.armed.remove(slot)).is_ok()
    }

    /// Whether any epoch of `kind` is live (the old `retry_armed`
    /// boolean).
    pub fn is_kind_armed(&self, kind: K) -> bool {
        self.armed.iter().any(|&(k, _)| k == kind)
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

    crate::timer_kinds! {
        enum Timer { Round = 1, Retry = 2 }
    }
    use Timer::{Retry, Round};

    #[test]
    fn tag_layout_matches_the_legacy_convention() {
        assert_eq!(TimerMux::tag(Round, 7), (7 << 8) | 1);
        assert_eq!(TimerMux::split((9 << 8) | 2), Some((Retry, 9)));
        assert_eq!(TimerMux::<Timer>::split((9 << 8) | 3), None);
    }

    #[test]
    fn fired_accepts_only_live_pairs() {
        let mut mux = TimerMux::new();
        let tag = mux.arm(Round, 3);
        assert_eq!(mux.live(), 1);
        assert_eq!(mux.fired(tag), Some((Round, 3)));
        // Second fire of the same tag is stale.
        assert_eq!(mux.fired(tag), None);
        // A tag that was never armed is stale.
        assert_eq!(mux.fired(TimerMux::tag(Round, 4)), None);
        // So is one whose byte names no kind.
        assert_eq!(mux.fired(0), None);
    }

    #[test]
    fn disarm_suppresses_a_pending_fire() {
        let mut mux = TimerMux::new();
        let tag = mux.arm(Retry, 0);
        assert!(mux.is_kind_armed(Retry));
        assert!(mux.disarm(Retry, 0));
        assert!(!mux.is_kind_armed(Retry));
        assert_eq!(mux.fired(tag), None);
        assert!(!mux.disarm(Retry, 0));
    }

    #[test]
    fn kinds_are_independent_and_epochs_coexist() {
        let mut mux = TimerMux::new();
        mux.arm(Round, 1);
        mux.arm(Round, 2);
        mux.arm(Retry, 0);
        assert_eq!(mux.live(), 3);
        assert_eq!(mux.fired(TimerMux::tag(Round, 1)), Some((Round, 1)));
        // The other epoch of the kind is still live.
        assert!(mux.is_kind_armed(Round));
        assert!(mux.disarm(Round, 2));
        assert!(!mux.is_kind_armed(Round));
        assert!(mux.is_kind_armed(Retry));
        mux.clear();
        assert_eq!(mux.live(), 0);
    }
}
