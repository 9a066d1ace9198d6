//! FNV-1a (64-bit), the one digest behind every "same bytes" check in
//! the workspace: delivery-order packet fingerprints, explored-schedule
//! fingerprints, wire-surface fingerprints and the test suite's pinned
//! run digests (event streams included, through [`Fnv1a::event`]) all
//! fold their bytes through [`Fnv1a`].
//!
//! Not a general-purpose hash: it is weak against adversarial input, but
//! fast and stable across builds and platforms (integers fold as their
//! little-endian bytes), which is what a pinned digest needs.

use crate::event::{Event, TimedEvent};

/// A streaming FNV-1a 64 hasher.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The FNV-1a 64 offset basis.
    pub const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// The digest of `bytes` alone.
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.bytes(bytes);
        h.finish()
    }

    /// Folds `bytes` in order.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds `x` as its eight little-endian bytes.
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// Folds an event: its rank, time bits, sequence number, variant tag
    /// and payload, each as a `u64` (times and `f64` fields by their bits),
    /// with no text in between.
    pub fn event(&mut self, e: &TimedEvent) {
        use Event::*;
        let fields = match e.event {
            RoundStart { round } => [0, round.into(), 0, 0, 0],
            RoundEnd {
                round,
                active_ranks,
            } => [1, round.into(), active_ranks.into(), 0, 0],
            Phase { name, start, dur } => [2, name as u64, start.to_bits(), dur.to_bits(), 0],
            PacketSent {
                dst,
                bytes,
                logical,
            } => [3, dst.into(), bytes, logical.into(), 0],
            PacketRecv {
                src,
                bytes,
                logical,
            } => [4, src.into(), bytes, logical.into(), 0],
            MatchRound {
                round,
                requests,
                succeeded,
                failed,
            } => [5, round.into(), requests, succeeded, failed],
            ColoringRound {
                phase,
                conflicts,
                colors_used,
            } => [6, phase.into(), conflicts, colors_used, 0],
        };
        let head = [e.rank.into(), e.time.to_bits(), e.seq];
        head.into_iter().chain(fields).for_each(|x| self.u64(x));
    }

    /// The digest of everything folded so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

#[cfg(test)]
mod tests {
    use super::Fnv1a;

    #[test]
    fn matches_the_reference_vectors() {
        assert_eq!(Fnv1a::hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::hash(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv1a::new();
        h.u64(0x0102);
        assert_eq!(h.finish(), Fnv1a::hash(&[2, 1, 0, 0, 0, 0, 0, 0]));
    }

    /// The encoding the sweep's pinned digests depend on: rank, time bits,
    /// sequence number, variant tag, then the payload padded to four words.
    #[test]
    fn events_fold_as_their_fields() {
        use crate::event::{Event, TimedEvent};
        let event = Event::PacketRecv {
            src: 1,
            bytes: 9,
            logical: 3,
        };
        let mut h = Fnv1a::new();
        h.event(&TimedEvent {
            rank: 2,
            time: 1.5,
            seq: 7,
            event,
        });
        let mut by_hand = Fnv1a::new();
        for x in [2, 1.5f64.to_bits(), 7, 4, 1, 9, 3, 0] {
            by_hand.u64(x);
        }
        assert_eq!(h.finish(), by_hand.finish());
    }
}
