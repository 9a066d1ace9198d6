//! Declarative wire codecs: the `WireCodec` layer of the distributed
//! substrate.
//!
//! Every algorithm message enum in the workspace shares one wire shape —
//! a one-byte tag followed by fixed-width little-endian fields — and
//! before this module each crate hand-wrote the three [`WireMessage`]
//! methods for it, four times over. [`wire_codec!`] collapses those
//! impls into a declarative field list: the macro derives `encode`,
//! `decode`, and `encoded_len` from the `tag => Variant { field: type }`
//! table, so a message's wire format is stated exactly once and cannot
//! drift between the three methods.
//!
//! Field types implement [`WireField`] (fixed-width scalars); variants
//! may be unit (`1 => Empty`) or struct-like. The generated format is
//! byte-identical to the previous hand-written impls: tag byte, then
//! each field in declaration order.
//!
//! [`WireMessage`]: crate::message::WireMessage

// Re-exported for the macro expansion (callers need not depend on
// `bytes` themselves).
pub use bytes::{Buf, BufMut};

/// A fixed-width scalar that can appear as a field in a [`wire_codec!`]
/// message: it knows its exact wire size and how to read/write itself
/// in little-endian order.
///
/// [`wire_codec!`]: crate::wire_codec
pub trait WireField: Sized {
    /// Exact number of bytes [`WireField::put`] writes.
    const WIRE_LEN: usize;

    /// Writes this field's encoding over the first `WIRE_LEN` bytes of
    /// `rec` and returns the rest of it.
    fn put<'a>(&self, rec: &'a mut [u8]) -> &'a mut [u8];

    /// Reads one field from the front of `buf`, or `None` if truncated.
    fn get(buf: &mut impl Buf) -> Option<Self>;
}

#[inline]
fn put_le<const N: usize>(bytes: [u8; N], rec: &mut [u8]) -> &mut [u8] {
    let (head, rest) = rec.split_at_mut(N);
    head.copy_from_slice(&bytes);
    rest
}

impl WireField for u8 {
    const WIRE_LEN: usize = 1;

    #[inline]
    fn put<'a>(&self, rec: &'a mut [u8]) -> &'a mut [u8] {
        put_le(self.to_le_bytes(), rec)
    }

    #[inline]
    fn get(buf: &mut impl Buf) -> Option<Self> {
        buf.has_remaining().then(|| buf.get_u8())
    }
}

impl WireField for u32 {
    const WIRE_LEN: usize = 4;

    #[inline]
    fn put<'a>(&self, rec: &'a mut [u8]) -> &'a mut [u8] {
        put_le(self.to_le_bytes(), rec)
    }

    #[inline]
    fn get(buf: &mut impl Buf) -> Option<Self> {
        (buf.remaining() >= 4).then(|| buf.get_u32_le())
    }
}

impl WireField for u64 {
    const WIRE_LEN: usize = 8;

    #[inline]
    fn put<'a>(&self, rec: &'a mut [u8]) -> &'a mut [u8] {
        put_le(self.to_le_bytes(), rec)
    }

    #[inline]
    fn get(buf: &mut impl Buf) -> Option<Self> {
        (buf.remaining() >= 8).then(|| buf.get_u64_le())
    }
}

impl WireField for f64 {
    const WIRE_LEN: usize = 8;

    #[inline]
    fn put<'a>(&self, rec: &'a mut [u8]) -> &'a mut [u8] {
        put_le(self.to_le_bytes(), rec)
    }

    #[inline]
    fn get(buf: &mut impl Buf) -> Option<Self> {
        (buf.remaining() >= 8).then(|| buf.get_f64_le())
    }
}

/// Declares a message enum together with its [`WireMessage`] impl from a
/// `tag => Variant { field: type }` table.
///
/// ```
/// cmg_runtime::wire_codec! {
///     /// Example protocol.
///     #[derive(Clone, Copy, Debug, PartialEq, Eq)]
///     pub enum DemoMsg {
///         /// A payload-bearing variant.
///         0 => Put {
///             /// Key field.
///             key: u32,
///             /// Value field.
///             value: u64,
///         },
///         /// A unit variant.
///         1 => Flush,
///     }
/// }
/// # use cmg_runtime::WireMessage;
/// let m = DemoMsg::Put { key: 7, value: 9 };
/// assert_eq!(m.encoded_len(), 1 + 4 + 8);
/// assert_eq!(DemoMsg::WIRE_SHAPE, "0 => Put { key: u32, value: u64, }; 1 => Flush; ");
/// ```
///
/// The generated wire format is: the `u8` tag, then each field in
/// declaration order, little-endian ([`WireField`]). `encode` stages the
/// whole record in a stack array of the declared length and appends it
/// with one `put_slice`, so every message and snapshot record costs one
/// buffer append, not one per field. The three methods are `#[inline]`,
/// so a loop encoding a bundle of small records can write each with a
/// few stores rather than a call per record. `encoded_len` is computed from the
/// same declared field list, so the declared size and the bytes actually
/// written cannot disagree. Unknown tags and truncated buffers decode to
/// `None`. The enum also gets a `WIRE_SHAPE` const, the table as written
/// (see the last line above), which
/// `cmg-net`'s `codec_pins` test fingerprints per `PROTO_VERSION`.
///
/// [`WireMessage`]: crate::message::WireMessage
#[macro_export]
macro_rules! wire_codec {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $tag:literal => $variant:ident $({
                    $( $(#[$fmeta:meta])* $field:ident : $fty:ty ),* $(,)?
                })?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant $({ $( $(#[$fmeta])* $field: $fty ),* })?,
            )*
        }

        impl $name {
            /// The wire table as declared: each variant's tag and name,
            /// then its fields' names and types.
            #[allow(dead_code)]
            pub const WIRE_SHAPE: &'static str = concat!($(
                stringify!($tag), " => ", stringify!($variant),
                $(" { ", $(stringify!($field), ": ", stringify!($fty), ", ",)* "}",)?
                "; ",
            )*);
        }

        impl $crate::WireMessage for $name {
            #[inline]
            fn encode(&self, buf: &mut impl $crate::codec::BufMut) {
                match self {
                    $(
                        $name::$variant $({ $($field),* })? => {
                            let mut rec = [0u8; 1usize $($(
                                + <$fty as $crate::codec::WireField>::WIRE_LEN
                            )*)?];
                            let rest = $crate::codec::WireField::put(&($tag as u8), &mut rec);
                            $($( let rest = $crate::codec::WireField::put($field, rest); )*)?
                            debug_assert!(rest.is_empty());
                            $crate::codec::BufMut::put_slice(buf, &rec);
                        }
                    )*
                }
            }

            #[inline]
            fn decode(buf: &mut impl $crate::codec::Buf) -> Option<Self> {
                if !$crate::codec::Buf::has_remaining(buf) {
                    return None;
                }
                match $crate::codec::Buf::get_u8(buf) {
                    $(
                        $tag => Some($name::$variant $({ $(
                            $field: $crate::codec::WireField::get(buf)?,
                        )* })?),
                    )*
                    _ => None,
                }
            }

            #[inline]
            fn encoded_len(&self) -> usize {
                match self {
                    $(
                        $name::$variant $({ $($field: _),* })? =>
                            1usize $($( + <$fty as $crate::codec::WireField>::WIRE_LEN )*)?,
                    )*
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::message::{decode_all, WireMessage};
    use bytes::BytesMut;

    wire_codec! {
        /// Test protocol exercising unit and struct variants and every
        /// field type.
        #[derive(Clone, Copy, Debug, PartialEq)]
        pub enum TestMsg {
            /// Mixed-width fields.
            0 => Pair { a: u32, b: u64 },
            /// Unit variant: tag byte only.
            1 => Ping,
            /// Single byte field.
            2 => Tiny { x: u8 },
            /// A float between two integers.
            3 => Weighted { v: u32, w: f64, flag: u8 },
        }
    }

    #[test]
    fn staged_encoding_writes_exact_bytes() {
        let cases: [(TestMsg, &[u8]); 4] = [
            (
                TestMsg::Pair {
                    a: 0x0102_0304,
                    b: 0x0506_0708_090a_0b0c,
                },
                &[0, 4, 3, 2, 1, 12, 11, 10, 9, 8, 7, 6, 5],
            ),
            (TestMsg::Ping, &[1]),
            (TestMsg::Tiny { x: 0xfe }, &[2, 0xfe]),
            (
                TestMsg::Weighted {
                    v: 7,
                    w: -1.5,
                    flag: 9,
                },
                // -1.5 is 0xbff8_0000_0000_0000.
                &[3, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf8, 0xbf, 9],
            ),
        ];
        let mut all = Vec::new();
        for (m, want) in cases {
            let mut buf = BytesMut::new();
            m.encode(&mut buf);
            assert_eq!(&buf[..], want, "{m:?}");
            assert_eq!(m.encoded_len(), want.len(), "{m:?}");
            // Appending to a non-empty buffer leaves what was there.
            let before = all.len();
            m.encode(&mut all);
            assert_eq!(&all[before..], want, "{m:?}");
        }
        assert_eq!(all.len(), 13 + 1 + 2 + 14);
    }

    #[test]
    fn bundle_round_trip() {
        let msgs = vec![
            TestMsg::Ping,
            TestMsg::Pair {
                a: u32::MAX,
                b: u64::MAX,
            },
            TestMsg::Tiny { x: 255 },
            TestMsg::Weighted {
                v: 3,
                w: f64::MIN_POSITIVE,
                flag: 1,
            },
            TestMsg::Pair { a: 0, b: 1 },
        ];
        let mut buf = BytesMut::new();
        for m in &msgs {
            m.encode(&mut buf);
        }
        let decoded: Vec<TestMsg> = decode_all(buf.freeze()).unwrap();
        assert_eq!(decoded, msgs);
    }

    #[test]
    fn unknown_tag_and_truncation_rejected() {
        let mut bogus = BytesMut::new();
        bytes::BufMut::put_u8(&mut bogus, 9);
        bytes::BufMut::put_u32_le(&mut bogus, 0);
        assert!(decode_all::<TestMsg>(bogus.freeze()).is_none());
        let mut full = BytesMut::new();
        TestMsg::Pair { a: 5, b: 6 }.encode(&mut full);
        let bytes = full.freeze();
        for cut in 1..bytes.len() {
            assert!(
                decode_all::<TestMsg>(bytes.slice(0..cut)).is_none(),
                "cut {cut}"
            );
        }
    }
}
