//! Wire encoding of messages.
//!
//! Bundles are byte buffers, so the engines account communication volume in
//! *bytes* — the unit the cost model (and the real machine) cares about.

use bytes::{Buf, BufMut};

/// A message that can be packed into / unpacked from a wire bundle.
///
/// Implementations must be self-delimiting: `decode` consumes exactly the
/// bytes `encode` produced, so messages concatenate into bundles without
/// separators.
pub trait WireMessage: Send + Sized + 'static {
    /// Appends this message's encoding to `buf`.
    fn encode(&self, buf: &mut impl BufMut);

    /// Decodes one message from the front of `buf`, or `None` if the bytes
    /// are malformed/truncated.
    fn decode(buf: &mut impl Buf) -> Option<Self>;

    /// Exact number of bytes [`Self::encode`] writes.
    fn encoded_len(&self) -> usize;
}

/// Decodes a whole bundle into its constituent messages.
pub fn decode_all<M: WireMessage>(buf: impl Buf) -> Option<Vec<M>> {
    let mut out = Vec::new();
    decode_all_into(buf, &mut out)?;
    Some(out)
}

/// Decodes a whole bundle, appending the messages to `out`, and returns
/// how many were appended (`None` on malformed bytes, like
/// [`decode_all`]).
///
/// This is the allocation-aware variant the engine delivery loops use:
/// `out` can be a recycled buffer, and the expected message count is
/// estimated up front from the payload size and the first message's
/// [`WireMessage::encoded_len`], so a bundle of `n` uniform messages
/// costs at most one `reserve` instead of `log n` doublings.
pub(crate) fn decode_all_into<M: WireMessage>(
    mut buf: impl Buf,
    out: &mut Vec<M>,
) -> Option<usize> {
    if !buf.has_remaining() {
        return Some(0);
    }
    // One up-front reserve, no per-message allocation.
    let total = buf.remaining();
    let first = M::decode(&mut buf)?;
    // Capacity hint: uniform-size messages are the overwhelmingly common
    // case, so size for exactly that; mixed sizes merely over- or
    // under-reserve, never break correctness.
    out.reserve(total / first.encoded_len().max(1));
    out.push(first);
    let mut n = 1;
    while buf.has_remaining() {
        out.push(M::decode(&mut buf)?);
        n += 1;
    }
    Some(n)
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
    fn decode_all_into_appends_and_reserves() {
        let mut buf = BytesMut::new();
        for v in 0..100u32 {
            v.encode(&mut buf);
        }
        let mut out: Vec<u32> = vec![999];
        let n = decode_all_into(buf.freeze(), &mut out).unwrap();
        assert_eq!(n, 100);
        assert_eq!(out.len(), 101);
        assert_eq!(out[0], 999);
        assert_eq!(out[100], 99);
        // The capacity hint sized the buffer in one reservation.
        assert!(out.capacity() >= 101);

        let mut empty_out: Vec<u32> = Vec::new();
        assert_eq!(decode_all_into(Bytes::new(), &mut empty_out), Some(0));
        assert!(empty_out.is_empty());
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
