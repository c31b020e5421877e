//! Binary wire encoding: the [`WireCodec`] trait, its impls for the
//! field types every hiloc format is built from, and the table macros
//! that derive a whole type's codec from one declaration.
//!
//! hiloc frames messages into UDP datagrams (as the paper's prototype
//! did), so encodings are compact, little-endian and length-prefixed
//! where variable. A field type states its size, put and get **once**,
//! in its `WireCodec` impl; composite formats — the protocol messages
//! in `hiloc-core`, its event and storage records — are declared with
//! [`wire_struct!`](crate::wire_struct) / [`wire_enum!`](crate::wire_enum)
//! and never restate a field.

use crate::{ClientId, CorrId, Endpoint, ServerId};
use hiloc_geo::{Point, Polygon, Rect, Region};
use hiloc_util::buf::{Buf, BufMut};

/// A type that can be encoded to / decoded from the hiloc wire format.
pub trait WireCodec: Sized {
    /// A lower bound on [`encoded_len`](WireCodec::encoded_len) over
    /// all values of the type. List decoding divides the bytes left by
    /// it to refuse a hostile element count before reserving memory.
    const MIN_LEN: usize = 1;

    /// The exact number of bytes [`encode`](WireCodec::encode) appends.
    /// One-shot encodes ([`to_bytes`](WireCodec::to_bytes)) use it to
    /// allocate exactly once — no guess, no reallocation for large
    /// range results.
    fn encoded_len(&self) -> usize;

    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes a value, advancing `buf` past it. Returns `None` on
    /// malformed input (never panics on hostile bytes).
    fn decode(buf: &mut &[u8]) -> Option<Self>;

    /// Encodes into a reusable scratch buffer: clears `scratch` (its
    /// capacity is retained) and appends the encoding. The send hot
    /// path uses this with a per-connection (or per-thread) scratch so
    /// steady-state encoding performs no allocation.
    // lint:hot_path
    fn encode_into(&self, scratch: &mut Vec<u8>) {
        scratch.clear();
        self.encode(scratch);
    }

    /// Convenience: encodes into a fresh buffer of exactly
    /// [`encoded_len`](WireCodec::encoded_len) bytes.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode(&mut buf);
        buf
    }

    /// Convenience: decodes a value that must consume the entire input.
    fn from_bytes(mut bytes: &[u8]) -> Option<Self> {
        let v = Self::decode(&mut bytes)?;
        if bytes.is_empty() {
            Some(v)
        } else {
            None
        }
    }
}

/// Implements [`WireCodec`] for one-field tuple structs by delegating
/// to the wrapped type: `wire_newtype!(ServerId(u32));`.
#[macro_export]
macro_rules! wire_newtype {
    ($Name:ident($inner:ty)) => {
        impl $crate::wire::WireCodec for $Name {
            const MIN_LEN: usize = <$inner as $crate::wire::WireCodec>::MIN_LEN;

            // lint:hot_path
            fn encoded_len(&self) -> usize {
                $crate::wire::WireCodec::encoded_len(&self.0)
            }

            // lint:hot_path
            fn encode(&self, buf: &mut Vec<u8>) {
                $crate::wire::WireCodec::encode(&self.0, buf);
            }

            fn decode(buf: &mut &[u8]) -> Option<Self> {
                <$inner as $crate::wire::WireCodec>::decode(buf).map($Name)
            }
        }
    };
}

/// Declares a struct together with its [`WireCodec`]: the fields are
/// encoded in declaration order, each through its own type's impl.
///
/// An optional trailing `valid if <expr>` states the semantic check
/// decoding applies after all fields are read (the expression sees the
/// decoded fields by name); a value failing it decodes to `None`.
#[macro_export]
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $Name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $ty:ty ),* $(,)?
        }
        $(valid if $check:expr)?
    ) => {
        $(#[$meta])*
        $vis struct $Name {
            $( $(#[$fmeta])* $fvis $field: $ty, )*
        }

        impl $crate::wire::WireCodec for $Name {
            const MIN_LEN: usize = 0 $(+ <$ty as $crate::wire::WireCodec>::MIN_LEN)*;

            // lint:hot_path
            fn encoded_len(&self) -> usize {
                0 $(+ $crate::wire::WireCodec::encoded_len(&self.$field))*
            }

            // lint:hot_path
            fn encode(&self, buf: &mut Vec<u8>) {
                $( $crate::wire::WireCodec::encode(&self.$field, buf); )*
            }

            fn decode(buf: &mut &[u8]) -> Option<Self> {
                $( let $field = <$ty as $crate::wire::WireCodec>::decode(buf)?; )*
                $(
                    let valid: bool = $check;
                    if !valid {
                        return None;
                    }
                )?
                Some($Name { $($field),* })
            }
        }
    };
}

/// Declares a tagged enum together with its [`WireCodec`] — the one
/// table a "tag byte + typed fields" format is written in. Each entry
/// `Variant = <tag> { field: Type, … }` states the variant, its wire
/// tag and its fields once; the macro generates the enum, `tag()`,
/// `TAGS`, the exact `encoded_len`, `encode` and `decode`.
///
/// When every entry also carries a label (`Variant = <tag>, "<label>"
/// { … }`), a `label()` method is generated too. A variant may end in
/// `valid if <expr>`, the semantic check decoding applies to its
/// fields (as in [`wire_struct!`](crate::wire_struct)). A tag used
/// twice fails the build (the second arm of the generated `decode`
/// match is unreachable, which is denied).
#[macro_export]
macro_rules! wire_enum {
    (@labels $( $Variant:ident $label:literal )+) => {
        /// A short static label for tracing (the variant's kind).
        pub fn label(&self) -> &'static str {
            match self {
                $( Self::$Variant { .. } => $label, )+
            }
        }
    };
    (@labels $( $Variant:ident )+) => {};
    (
        $(#[$meta:meta])*
        $vis:vis enum $Name:ident {
            $(
                $(#[$vmeta:meta])*
                $Variant:ident = $tag:literal $(, $label:literal)? {
                    $( $(#[$fmeta:meta])* $field:ident : $ty:ty ),* $(,)?
                } $(valid if $check:expr)?
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $Name {
            $(
                $(#[$vmeta])*
                $Variant { $( $(#[$fmeta])* $field: $ty, )* },
            )+
        }

        impl $Name {
            /// Every variant's wire tag, in declaration order.
            pub const TAGS: &'static [u8] = &[$($tag),+];

            /// The tag byte this value's encoding starts with.
            pub fn tag(&self) -> u8 {
                match self {
                    $( Self::$Variant { .. } => $tag, )+
                }
            }

            $crate::wire_enum!(@labels $( $Variant $($label)? )+);
        }

        impl $crate::wire::WireCodec for $Name {
            // lint:hot_path
            fn encoded_len(&self) -> usize {
                1 + match self {
                    $( Self::$Variant { $($field),* } => {
                        0 $(+ $crate::wire::WireCodec::encoded_len($field))*
                    } )+
                }
            }

            // lint:hot_path
            fn encode(&self, buf: &mut Vec<u8>) {
                match self {
                    $( Self::$Variant { $($field),* } => {
                        buf.push($tag);
                        $( $crate::wire::WireCodec::encode($field, buf); )*
                    } )+
                }
            }

            #[deny(unreachable_patterns)]
            fn decode(buf: &mut &[u8]) -> Option<Self> {
                match <u8 as $crate::wire::WireCodec>::decode(buf)? {
                    $( $tag => {
                        $( let $field = <$ty as $crate::wire::WireCodec>::decode(buf)?; )*
                        $(
                            let valid: bool = $check;
                            if !valid {
                                return None;
                            }
                        )?
                        Some(Self::$Variant { $($field),* })
                    } )+
                    _ => None,
                }
            }
        }
    };
}

macro_rules! wire_primitive {
    ($( $ty:ty: $put:ident / $get:ident ),+) => {$(
        impl WireCodec for $ty {
            const MIN_LEN: usize = std::mem::size_of::<$ty>();

            // lint:hot_path
            fn encoded_len(&self) -> usize {
                Self::MIN_LEN
            }

            // lint:hot_path
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.$put(*self);
            }

            fn decode(buf: &mut &[u8]) -> Option<Self> {
                (buf.remaining() >= Self::MIN_LEN).then(|| buf.$get())
            }
        }
    )+};
}

wire_primitive!(
    u8: put_u8 / get_u8,
    u16: put_u16_le / get_u16_le,
    u32: put_u32_le / get_u32_le,
    u64: put_u64_le / get_u64_le,
    f64: put_f64_le / get_f64_le
);

/// One byte, strictly 0 or 1.
impl WireCodec for bool {
    // lint:hot_path
    fn encoded_len(&self) -> usize {
        1
    }

    // lint:hot_path
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        match u8::decode(buf)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

/// A presence byte (strictly 0 or 1), then the value when present.
impl<T: WireCodec> WireCodec for Option<T> {
    // lint:hot_path
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, T::encoded_len)
    }

    // lint:hot_path
    fn encode(&self, buf: &mut Vec<u8>) {
        self.is_some().encode(buf);
        if let Some(v) = self {
            v.encode(buf);
        }
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some(if bool::decode(buf)? { Some(T::decode(buf)?) } else { None })
    }
}

/// Both halves in order, no framing.
impl<A: WireCodec, B: WireCodec> WireCodec for (A, B) {
    const MIN_LEN: usize = A::MIN_LEN + B::MIN_LEN;

    // lint:hot_path
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }

    // lint:hot_path
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some((A::decode(buf)?, B::decode(buf)?))
    }
}

/// Maximum number of elements accepted in one length-prefixed list.
pub const MAX_ITEMS: u32 = 1_000_000;

// lint:hot_path
fn put_list<T: WireCodec>(buf: &mut Vec<u8>, items: &[T]) {
    (items.len() as u32).encode(buf);
    for item in items {
        item.encode(buf);
    }
}

/// A `u32` element count, then the elements. Decoding refuses a count
/// above [`MAX_ITEMS`] or one the bytes left cannot hold — before it
/// reserves room for the elements, so a five-byte datagram cannot make
/// the receiver allocate megabytes.
impl<T: WireCodec> WireCodec for Vec<T> {
    const MIN_LEN: usize = 4;

    // lint:hot_path
    fn encoded_len(&self) -> usize {
        4 + self.iter().map(T::encoded_len).sum::<usize>()
    }

    // lint:hot_path
    fn encode(&self, buf: &mut Vec<u8>) {
        put_list(buf, self);
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let n = u32::decode(buf)?;
        if n > MAX_ITEMS || (n as usize).saturating_mul(T::MIN_LEN) > buf.len() {
            return None;
        }
        let mut out = Vec::with_capacity(n as usize);
        for _ in 0..n {
            out.push(T::decode(buf)?);
        }
        Some(out)
    }
}

wire_newtype!(ServerId(u32));
wire_newtype!(CorrId(u64));

/// A planar point: x then y (16 bytes). A non-finite coordinate does
/// not decode: no position on the service area is NaN or infinite.
impl WireCodec for Point {
    const MIN_LEN: usize = 16;

    // lint:hot_path
    fn encoded_len(&self) -> usize {
        Self::MIN_LEN
    }

    // lint:hot_path
    fn encode(&self, buf: &mut Vec<u8>) {
        self.x.encode(buf);
        self.y.encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let p = Point::new(f64::decode(buf)?, f64::decode(buf)?);
        (p.x.is_finite() && p.y.is_finite()).then_some(p)
    }
}

/// A rectangle: min corner then max corner (32 bytes).
impl WireCodec for Rect {
    const MIN_LEN: usize = 32;

    // lint:hot_path
    fn encoded_len(&self) -> usize {
        Self::MIN_LEN
    }

    // lint:hot_path
    fn encode(&self, buf: &mut Vec<u8>) {
        self.min().encode(buf);
        self.max().encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some(Rect::new(Point::decode(buf)?, Point::decode(buf)?))
    }
}

const REGION_RECT: u8 = 0;
const REGION_POLYGON: u8 = 1;
/// Maximum polygon vertices accepted from the wire.
const MAX_POLYGON_VERTICES: usize = 10_000;

/// A tagged rect, or a tagged vertex list.
impl WireCodec for Region {
    // lint:hot_path
    fn encoded_len(&self) -> usize {
        1 + match self {
            Region::Rect(r) => r.encoded_len(),
            Region::Polygon(p) => 4 + Point::MIN_LEN * p.vertices().len(),
        }
    }

    // lint:hot_path
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Region::Rect(r) => {
                buf.push(REGION_RECT);
                r.encode(buf);
            }
            Region::Polygon(p) => {
                buf.push(REGION_POLYGON);
                put_list(buf, p.vertices());
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        match u8::decode(buf)? {
            REGION_RECT => Some(Region::Rect(Rect::decode(buf)?)),
            REGION_POLYGON => {
                let vs = Vec::<Point>::decode(buf)?;
                if vs.len() > MAX_POLYGON_VERTICES {
                    return None;
                }
                Polygon::new(vs).ok().map(Region::Polygon)
            }
            _ => None,
        }
    }
}

/// A kind byte (0 = server, 1 = client), then the id widened to a
/// `u64` (9 bytes).
impl WireCodec for Endpoint {
    const MIN_LEN: usize = 9;

    // lint:hot_path
    fn encoded_len(&self) -> usize {
        Self::MIN_LEN
    }

    // lint:hot_path
    fn encode(&self, buf: &mut Vec<u8>) {
        let (kind, id) = match *self {
            Endpoint::Server(ServerId(id)) => (0u8, u64::from(id)),
            Endpoint::Client(ClientId(id)) => (1u8, id),
        };
        kind.encode(buf);
        id.encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        match u8::decode(buf)? {
            0 => Some(Endpoint::Server(ServerId(u64::decode(buf)? as u32))),
            1 => Some(Endpoint::Client(ClientId(u64::decode(buf)?))),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn roundtrip<T: WireCodec + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!((bytes.len(), bytes.capacity()), (v.encoded_len(), v.encoded_len()));
        assert!(bytes.len() >= T::MIN_LEN, "MIN_LEN must be a lower bound");
        assert_eq!(T::from_bytes(&bytes), Some(v));
    }

    #[test]
    fn primitive_roundtrips() {
        let mut buf = Vec::new();
        (-1.25f64).encode(&mut buf);
        u64::MAX.encode(&mut buf);
        7u32.encode(&mut buf);
        513u16.encode(&mut buf);
        200u8.encode(&mut buf);
        true.encode(&mut buf);
        let mut r = buf.as_slice();
        assert_eq!(f64::decode(&mut r), Some(-1.25));
        assert_eq!(u64::decode(&mut r), Some(u64::MAX));
        assert_eq!(u32::decode(&mut r), Some(7));
        assert_eq!(u16::decode(&mut r), Some(513));
        assert_eq!(u8::decode(&mut r), Some(200));
        assert_eq!(bool::decode(&mut r), Some(true));
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_input_is_none_not_panic() {
        let buf = Point::new(1.0, 2.0).to_bytes();
        for cut in 0..buf.len() {
            let mut r = &buf[..cut];
            assert!(Point::decode(&mut r).is_none(), "cut at {cut}");
        }
    }

    #[test]
    fn non_finite_points_do_not_decode() {
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        for (x, y) in [(nan, 10.0), (10.0, nan), (inf, 0.0), (0.0, -inf)] {
            let mut buf = Vec::new();
            x.encode(&mut buf);
            y.encode(&mut buf);
            assert_eq!(Point::from_bytes(&buf), None, "({x}, {y})");
            assert_eq!(Rect::from_bytes(&[buf.as_slice(), &buf].concat()), None, "({x}, {y})");
        }
    }

    #[test]
    fn bool_and_option_tags_reject_garbage() {
        assert_eq!(bool::from_bytes(&[7]), None);
        assert_eq!(Option::<u8>::from_bytes(&[2, 9]), None);
        assert_eq!(Option::<u8>::from_bytes(&[1]), None);
        assert_eq!(Option::<u8>::from_bytes(&[0]), Some(None));
        assert_eq!(Option::<u8>::from_bytes(&[1, 9]), Some(Some(9)));
    }

    #[test]
    fn field_types_roundtrip_at_their_exact_size() {
        let rect = Rect::new(Point::new(-3.0, 2.0), Point::new(5.5, 9.0));
        let polygon = Region::Polygon(
            Polygon::new(vec![Point::new(0.0, 0.0), Point::new(4.0, 0.0), Point::new(2.0, 3.0)])
                .unwrap(),
        );
        roundtrip(rect);
        roundtrip(polygon);
        roundtrip(Region::Rect(rect));
        roundtrip(Endpoint::Server(ServerId(7)));
        roundtrip(Endpoint::Client(ClientId(u64::MAX)));
        roundtrip(ServerId(3));
        roundtrip(CorrId(99));
        roundtrip((ServerId(3), 2.5f64));
        roundtrip(Some(Point::new(1.0, 2.0)));
        roundtrip(None::<Point>);
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<Endpoint>::new());
    }

    #[test]
    fn hostile_polygon_length_rejected() {
        let mut buf = vec![REGION_POLYGON];
        u32::MAX.encode(&mut buf); // absurd vertex count
        assert!(Region::from_bytes(&buf).is_none());
        // Within the list cap and backed by bytes, but past the vertex cap.
        let mut buf = vec![REGION_POLYGON];
        let n = MAX_POLYGON_VERTICES + 1;
        (n as u32).encode(&mut buf);
        buf.resize(buf.len() + n * 16, 0);
        assert!(Region::from_bytes(&buf).is_none());
    }

    #[test]
    fn encode_into_reuses_capacity() {
        let mut scratch = Vec::new();
        Point::new(1.0, 2.0).encode_into(&mut scratch);
        assert_eq!(scratch.len(), 16);
        let cap = scratch.capacity();
        let ptr = scratch.as_ptr();
        Point::new(3.0, 4.0).encode_into(&mut scratch);
        assert_eq!(scratch.len(), 16);
        assert_eq!((scratch.capacity(), scratch.as_ptr()), (cap, ptr), "no reallocation");
    }

    thread_local! {
        /// Calls of `Counted::decode` on this (test) thread.
        static DECODES: Cell<usize> = const { Cell::new(0) };
    }

    #[derive(Debug, PartialEq)]
    struct Counted(u64);

    impl WireCodec for Counted {
        const MIN_LEN: usize = 8;
        fn encoded_len(&self) -> usize {
            8
        }
        fn encode(&self, buf: &mut Vec<u8>) {
            self.0.encode(buf);
        }
        fn decode(buf: &mut &[u8]) -> Option<Self> {
            DECODES.with(|d| d.set(d.get() + 1));
            u64::decode(buf).map(Counted)
        }
    }

    #[test]
    fn list_count_is_checked_against_the_bytes_left_before_allocating() {
        // An honest list decodes, one element decode per element.
        let bytes = vec![Counted(1), Counted(2), Counted(3)].to_bytes();
        assert_eq!(Vec::<Counted>::from_bytes(&bytes).map(|v| v.len()), Some(3));
        assert_eq!(DECODES.with(Cell::take), 3);

        // A count the remaining bytes cannot hold is refused before any
        // element is decoded (and so before room is reserved for them):
        // no body at all, a body one byte short, and the list cap.
        let mut no_body = Vec::new();
        MAX_ITEMS.encode(&mut no_body);
        let mut short = Vec::new();
        2u32.encode(&mut short);
        short.resize(4 + 15, 0);
        let mut over_cap = Vec::new();
        (MAX_ITEMS + 1).encode(&mut over_cap);
        for hostile in [no_body, short, over_cap] {
            assert_eq!(Vec::<Counted>::from_bytes(&hostile), None);
            assert_eq!(DECODES.with(Cell::take), 0, "element decoder ran for {hostile:?}");
        }
    }

    wire_struct! {
        /// A struct declared through the table macro.
        #[derive(Debug, Clone, PartialEq)]
        struct Reading {
            /// Who measured.
            by: ServerId,
            /// The measured value.
            value: f64,
        }
        valid if value >= 0.0
    }

    wire_enum! {
        /// An enum declared through the table macro.
        #[derive(Debug, Clone, PartialEq)]
        enum Probe {
            /// Tags need not follow declaration order.
            Ping = 7, "ping" {
                /// Sequence number.
                seq: u32,
            },
            /// A variant with a list and a check.
            Report = 2, "report" {
                /// The readings.
                readings: Vec<Reading>,
                /// Share of sensors that answered.
                coverage: f64,
            } valid if (0.0..=1.0).contains(&coverage),
        }
    }

    #[test]
    fn table_macros_generate_the_whole_codec() {
        let ping = Probe::Ping { seq: 9 };
        let report = Probe::Report {
            readings: vec![Reading { by: ServerId(1), value: 2.0 }],
            coverage: 0.5,
        };
        assert_eq!(Probe::TAGS, &[7, 2]);
        assert_eq!((ping.tag(), ping.label()), (7, "ping"));
        assert_eq!((report.tag(), report.label()), (2, "report"));
        assert_eq!(ping.to_bytes(), [7, 9, 0, 0, 0]);
        assert_eq!(Reading::MIN_LEN, 12);
        roundtrip(ping);
        roundtrip(report.clone());

        // Unknown tags and failed `valid if` checks decode to None.
        assert_eq!(Probe::from_bytes(&[3, 0, 0, 0, 0]), None);
        let mut bad_coverage = report.to_bytes();
        let at = bad_coverage.len() - 8;
        bad_coverage[at..].copy_from_slice(&1.5f64.to_le_bytes());
        assert_eq!(Probe::from_bytes(&bad_coverage), None);
        assert_eq!(Reading::from_bytes(&Reading { by: ServerId(1), value: -2.0 }.to_bytes()), None);
    }
}
