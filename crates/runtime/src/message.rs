//! Wire encoding of messages.
//!
//! In-process engines pass a round's messages as typed vectors (see
//! `bundle.rs`); what a bundle *would* weigh on a wire is still its
//! encoded size, Σ [`WireMessage::encoded_len`], so every engine accounts
//! communication volume in *bytes* — the unit the cost model (and the
//! real machine) cares about. Bytes are produced only where they leave
//! the process: `cmg-net`'s frames, snapshots, and `cmg-serve`'s socket.

use bytes::{Buf, BufMut};

/// A message that can be packed into / unpacked from a wire bundle.
///
/// Implementations must be self-delimiting: `decode` consumes exactly the
/// bytes `encode` produced, so messages concatenate into bundles without
/// separators.
pub trait WireMessage: Clone + Send + Sized + 'static {
    /// Appends this message's encoding to `buf`.
    fn encode(&self, buf: &mut impl BufMut);

    /// Decodes one message from the front of `buf`, or `None` if the bytes
    /// are malformed/truncated.
    fn decode(buf: &mut impl Buf) -> Option<Self>;

    /// Exact number of bytes [`Self::encode`] writes.
    fn encoded_len(&self) -> usize;
}

/// Decodes a whole bundle into its constituent messages, or `None` if
/// the bytes are not a whole number of messages.
///
/// The expected message count is estimated up front from the payload size
/// and the first message's [`WireMessage::encoded_len`], so a bundle of
/// `n` uniform messages costs one allocation instead of `log n` doublings.
pub fn decode_all<M: WireMessage>(mut buf: impl Buf) -> Option<Vec<M>> {
    if !buf.has_remaining() {
        return Some(Vec::new());
    }
    let total = buf.remaining();
    let first = M::decode(&mut buf)?;
    // Capacity hint: uniform-size messages are the overwhelmingly common
    // case, so size for exactly that; mixed sizes merely over- or
    // under-reserve, never break correctness.
    let mut out = Vec::with_capacity(total / first.encoded_len().max(1));
    out.push(first);
    while buf.has_remaining() {
        out.push(M::decode(&mut buf)?);
    }
    Some(out)
}

impl WireMessage for u32 {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u32_le(*self);
    }

    fn decode(buf: &mut impl Buf) -> Option<Self> {
        (buf.remaining() >= 4).then(|| buf.get_u32_le())
    }

    fn encoded_len(&self) -> usize {
        4
    }
}

impl WireMessage for u64 {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u64_le(*self);
    }

    fn decode(buf: &mut impl Buf) -> Option<Self> {
        (buf.remaining() >= 8).then(|| buf.get_u64_le())
    }

    fn encoded_len(&self) -> usize {
        8
    }
}

impl WireMessage for (u32, u32) {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u32_le(self.0);
        buf.put_u32_le(self.1);
    }

    fn decode(buf: &mut impl Buf) -> Option<Self> {
        (buf.remaining() >= 8).then(|| (buf.get_u32_le(), buf.get_u32_le()))
    }

    fn encoded_len(&self) -> usize {
        8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{Bytes, BytesMut};

    #[test]
    fn u32_round_trip() {
        let mut buf = BytesMut::new();
        42u32.encode(&mut buf);
        7u32.encode(&mut buf);
        let msgs: Vec<u32> = decode_all(buf.freeze()).unwrap();
        assert_eq!(msgs, vec![42, 7]);
    }

    #[test]
    fn pair_round_trip() {
        let mut buf = BytesMut::new();
        (1u32, 2u32).encode(&mut buf);
        (3u32, 4u32).encode(&mut buf);
        assert_eq!(buf.len(), 16);
        let msgs: Vec<(u32, u32)> = decode_all(buf.freeze()).unwrap();
        assert_eq!(msgs, vec![(1, 2), (3, 4)]);
    }

    #[test]
    fn decode_all_sizes_uniform_bundles_once() {
        let mut buf = BytesMut::new();
        for v in 0..100u32 {
            v.encode(&mut buf);
        }
        let out: Vec<u32> = decode_all(buf.freeze()).unwrap();
        assert_eq!(out.len(), 100);
        assert_eq!(out[99], 99);
        // The capacity hint sized the buffer in one reservation.
        assert_eq!(out.capacity(), 100);
        assert_eq!(decode_all::<u32>(Bytes::new()), Some(Vec::new()));
    }

    #[test]
    fn truncated_bundle_is_rejected() {
        let mut buf = BytesMut::new();
        42u32.encode(&mut buf);
        let bytes = buf.freeze();
        let truncated = bytes.slice(0..3);
        assert!(decode_all::<u32>(truncated).is_none());
    }

    #[test]
    fn encoded_len_matches_encode() {
        let mut buf = BytesMut::new();
        (9u32, 9u32).encode(&mut buf);
        assert_eq!(buf.len(), (9u32, 9u32).encoded_len());
    }
}
