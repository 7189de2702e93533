//! Typed element mapping: Rust types ↔ MPI datatypes ↔ wire bytes.
//!
//! The wrapper layer is deliberately byte-faithful (buffers cross the MPI interface as
//! `&[u8]` plus a datatype handle, exactly as in the C API), but applications should
//! never hand-roll `to_le_bytes`/`from_le_bytes` marshalling. [`MpiData`] is the one
//! place that mapping lives: each implementing type names the [`TypeDescriptor`] (and
//! therefore the [`TypeEnvelope`]) describing its layout and provides the matching
//! encode/decode. The typed session layer (`mana::api`) is generic over `MpiData`, so
//! `send::<f64>`/`allreduce::<i32>`/... resolve their datatype and marshalling from
//! the element type alone.
//!
//! Scalars map onto the predefined MPI datatypes; [`DoubleInt`] maps onto
//! `MPI_DOUBLE_INT` (the `MPI_MAXLOC`/`MPI_MINLOC` pair type); and user structs can
//! implement the trait with a [`TypeDescriptor::Struct`] layout, which the session
//! layer materializes as a committed derived datatype in the lower half.

use crate::datatype::{PrimitiveType, TypeDescriptor, TypeEnvelope};
use crate::error::{MpiError, MpiResult};
use crate::payload::PayloadBuf;

/// A Rust type that can travel through the MPI interface as a typed element.
///
/// Implementations must uphold one invariant: `encode` produces exactly
/// `values.len() * Self::type_descriptor().size()` bytes, and `decode` accepts exactly
/// what `encode` produced. The default `decode` helpers enforce divisibility, so a
/// torn or mis-typed payload surfaces as an error instead of silently dropping
/// trailing bytes (which the old free-function helpers did).
pub trait MpiData: Copy + Send + Sync + 'static {
    /// The portable structural description of one element of this type.
    fn type_descriptor() -> TypeDescriptor;

    /// Append one element's wire bytes (little-endian, matching the fabric).
    fn encode_element(self, out: &mut Vec<u8>);

    /// Decode one element from exactly [`MpiData::elem_size`] bytes.
    fn decode_element(bytes: &[u8]) -> MpiResult<Self>;

    /// The envelope `MPI_Type_get_envelope` reports for this type's datatype.
    fn envelope() -> TypeEnvelope {
        Self::type_descriptor().envelope()
    }

    /// Bytes per element.
    fn elem_size() -> usize {
        Self::type_descriptor().size()
    }

    /// Encode a slice of elements into wire bytes: one exactly-sized allocation.
    fn encode(values: &[Self]) -> Vec<u8> {
        let mut out = Vec::with_capacity(values.len() * Self::elem_size());
        for &value in values {
            value.encode_element(&mut out);
        }
        out
    }

    /// Encode a slice of elements into a shareable message payload, for the send
    /// calls that hand the fabric an owned buffer.
    fn encode_payload(values: &[Self]) -> PayloadBuf {
        Self::encode(values).into()
    }

    /// Decode wire bytes into elements, rejecting payloads that are not a whole
    /// number of elements. One exactly-sized allocation: the result's capacity is
    /// its length.
    fn decode(bytes: &[u8]) -> MpiResult<Vec<Self>> {
        let width = Self::elem_size();
        if width == 0 || !bytes.len().is_multiple_of(width) {
            return Err(partial_elements(bytes.len(), width));
        }
        let mut values = Vec::with_capacity(bytes.len() / width);
        for element in bytes.chunks_exact(width) {
            values.push(Self::decode_element(element)?);
        }
        Ok(values)
    }
}

fn partial_elements(len: usize, width: usize) -> MpiError {
    MpiError::Internal(format!(
        "payload of {len} bytes is not a whole number of {width}-byte elements"
    ))
}

fn short_payload<T>(width: usize, got: usize) -> MpiResult<T> {
    Err(MpiError::Internal(format!(
        "element decode needs {width} bytes, got {got}"
    )))
}

// The primitives are their own wire format up to byte order, so a whole slice
// converts in one pass over fixed-width chunks (a `memcpy` on little-endian hosts)
// instead of one `encode_element`/`decode_element` call per element.
macro_rules! impl_scalar {
    ($($ty:ty => $prim:expr),* $(,)?) => {$(
        impl MpiData for $ty {
            fn type_descriptor() -> TypeDescriptor {
                TypeDescriptor::Primitive($prim)
            }

            #[inline]
            fn elem_size() -> usize {
                std::mem::size_of::<$ty>()
            }

            #[inline]
            fn encode_element(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn decode_element(bytes: &[u8]) -> MpiResult<Self> {
                match bytes.try_into() {
                    Ok(array) => Ok(<$ty>::from_le_bytes(array)),
                    Err(_) => short_payload(std::mem::size_of::<$ty>(), bytes.len()),
                }
            }

            fn encode(values: &[Self]) -> Vec<u8> {
                let wire: Vec<_> = values.iter().map(|value| value.to_le_bytes()).collect();
                wire.into_flattened()
            }

            fn encode_payload(values: &[Self]) -> PayloadBuf {
                PayloadBuf::filled(std::mem::size_of_val(values), |bytes| {
                    let (wire, _) = bytes.as_chunks_mut::<{ std::mem::size_of::<$ty>() }>();
                    for (element, value) in wire.iter_mut().zip(values) {
                        *element = value.to_le_bytes();
                    }
                })
            }

            fn decode(bytes: &[u8]) -> MpiResult<Vec<Self>> {
                let (wire, rest) = bytes.as_chunks::<{ std::mem::size_of::<$ty>() }>();
                if !rest.is_empty() {
                    return Err(partial_elements(bytes.len(), std::mem::size_of::<$ty>()));
                }
                Ok(wire.iter().map(|element| <$ty>::from_le_bytes(*element)).collect())
            }
        }
    )*};
}

impl_scalar!(
    i8 => PrimitiveType::Int8,
    u8 => PrimitiveType::Byte,
    i32 => PrimitiveType::Int,
    u32 => PrimitiveType::Unsigned,
    i64 => PrimitiveType::Long,
    u64 => PrimitiveType::UnsignedLong,
    f32 => PrimitiveType::Float,
    f64 => PrimitiveType::Double,
);

impl MpiData for bool {
    fn type_descriptor() -> TypeDescriptor {
        TypeDescriptor::Primitive(PrimitiveType::Bool)
    }

    #[inline]
    fn elem_size() -> usize {
        1
    }

    fn encode_element(self, out: &mut Vec<u8>) {
        out.push(u8::from(self));
    }

    fn decode_element(bytes: &[u8]) -> MpiResult<Self> {
        match bytes {
            [byte] => Ok(*byte != 0),
            other => short_payload(1, other.len()),
        }
    }
}

/// The `MPI_DOUBLE_INT` value/index pair operated on by `MPI_MAXLOC`/`MPI_MINLOC`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DoubleInt {
    /// The compared value.
    pub value: f64,
    /// The index carried alongside it (lowest index wins ties).
    pub index: i32,
}

impl MpiData for DoubleInt {
    fn type_descriptor() -> TypeDescriptor {
        TypeDescriptor::Primitive(PrimitiveType::DoubleInt)
    }

    #[inline]
    fn elem_size() -> usize {
        12
    }

    fn encode_element(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.value.to_le_bytes());
        out.extend_from_slice(&self.index.to_le_bytes());
    }

    fn decode_element(bytes: &[u8]) -> MpiResult<Self> {
        match (bytes.len(), bytes.first_chunk(), bytes.last_chunk()) {
            (12, Some(value), Some(index)) => Ok(DoubleInt {
                value: f64::from_le_bytes(*value),
                index: i32::from_le_bytes(*index),
            }),
            _ => short_payload(12, bytes.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::TypeCombiner;

    #[test]
    fn scalar_roundtrips() {
        assert_eq!(
            f64::decode(&f64::encode(&[1.5, -2.0])).unwrap(),
            [1.5, -2.0]
        );
        assert_eq!(
            i32::decode(&i32::encode(&[i32::MIN, 0, 7])).unwrap(),
            [i32::MIN, 0, 7]
        );
        assert_eq!(u64::decode(&u64::encode(&[u64::MAX])).unwrap(), [u64::MAX]);
        assert_eq!(
            bool::decode(&bool::encode(&[true, false])).unwrap(),
            [true, false]
        );
    }

    /// The little-endian wire form is what checkpoint images and every message
    /// already in flight hold: it may never move.
    #[test]
    fn wire_bytes_are_pinned() {
        assert_eq!(
            f64::encode(&[1.5, -0.0, f64::from_bits(0x7ff8_0000_dead_beef)]),
            [
                0, 0, 0, 0, 0, 0, 0xf8, 0x3f, // 1.5
                0, 0, 0, 0, 0, 0, 0, 0x80, // -0.0
                0xef, 0xbe, 0xad, 0xde, 0, 0, 0xf8, 0x7f, // a NaN and its payload
            ]
        );
        assert_eq!(
            i32::encode(&[1, -2, i32::MIN]),
            [1, 0, 0, 0, 0xfe, 0xff, 0xff, 0xff, 0, 0, 0, 0x80]
        );
        assert_eq!(
            u64::encode(&[0x0102_0304_0506_0708, u64::MAX]),
            [8, 7, 6, 5, 4, 3, 2, 1, 255, 255, 255, 255, 255, 255, 255, 255]
        );
        assert_eq!(f64::encode_payload(&[1.5]), [0, 0, 0, 0, 0, 0, 0xf8, 0x3f]);
    }

    /// SplitMix64 (`net_sim::SplitMix64` is downstream of this crate).
    fn split_mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The bulk codecs of one scalar type against the element-wise oracle they
    /// replaced — `encode_element`/`decode_element` in a loop — on seeded bit
    /// patterns led by `edges`, compared through `bits` (floats by `to_bits`: NaN
    /// payloads and the sign of zero must survive).
    fn bulk_codec_matches_the_element_oracle<T: MpiData + std::fmt::Debug>(
        from_bits: fn(u64) -> T,
        bits: fn(T) -> u64,
        edges: &[T],
    ) {
        let width = T::elem_size();
        let mut seed = 0x5eed_0000 + width as u64;
        for len in [0, 1, 7, 512, 4097] {
            let mut values: Vec<T> = (0..len).map(|_| from_bits(split_mix(&mut seed))).collect();
            for (value, edge) in values.iter_mut().zip(edges) {
                *value = *edge;
            }

            let mut oracle = Vec::new();
            for &value in &values {
                value.encode_element(&mut oracle);
            }
            let wire = T::encode(&values);
            assert_eq!(wire, oracle, "encode, {len} elements");
            assert_eq!(
                T::encode_payload(&values),
                oracle,
                "encode_payload, {len} elements"
            );

            let decoded = T::decode(&wire).unwrap();
            assert_eq!(decoded.capacity(), decoded.len(), "one exact allocation");
            let oracle: Vec<u64> = wire
                .chunks_exact(width)
                .map(|element| bits(T::decode_element(element).unwrap()))
                .collect();
            let decoded: Vec<u64> = decoded.into_iter().map(bits).collect();
            assert_eq!(decoded, oracle, "decode, {len} elements");
            let sent: Vec<u64> = values.into_iter().map(bits).collect();
            assert_eq!(decoded, sent, "round trip, {len} elements");

            for torn in (0..wire.len()).rev().take(2 * width) {
                if torn % width != 0 {
                    assert_eq!(
                        T::decode(&wire[..torn]).unwrap_err(),
                        MpiError::Internal(format!(
                            "payload of {torn} bytes is not a whole number of {width}-byte elements"
                        ))
                    );
                }
            }
        }
    }

    #[test]
    fn integer_bulk_codecs_match_the_element_oracle() {
        bulk_codec_matches_the_element_oracle::<i8>(
            |x| x as i8,
            |v| v as u64,
            &[i8::MIN, i8::MAX, 0, -1],
        );
        bulk_codec_matches_the_element_oracle::<u8>(|x| x as u8, |v| v as u64, &[u8::MIN, u8::MAX]);
        bulk_codec_matches_the_element_oracle::<i32>(
            |x| x as i32,
            |v| v as u64,
            &[i32::MIN, i32::MAX, 0, -1],
        );
        bulk_codec_matches_the_element_oracle::<u32>(
            |x| x as u32,
            |v| v as u64,
            &[u32::MIN, u32::MAX],
        );
        bulk_codec_matches_the_element_oracle::<i64>(
            |x| x as i64,
            |v| v as u64,
            &[i64::MIN, i64::MAX, 0, -1],
        );
        bulk_codec_matches_the_element_oracle::<u64>(|x| x, |v| v, &[u64::MIN, u64::MAX]);
    }

    #[test]
    fn float_bulk_codecs_match_the_element_oracle_bit_for_bit() {
        bulk_codec_matches_the_element_oracle::<f32>(
            |x| f32::from_bits(x as u32),
            |v| u64::from(v.to_bits()),
            &[
                0.0,
                -0.0,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::MIN,
                f32::MAX,
                f32::NAN,
                f32::from_bits(0x7fa0_1234), // signalling NaN with a payload
                f32::from_bits(0xffc0_0001), // negative quiet NaN with a payload
            ],
        );
        bulk_codec_matches_the_element_oracle::<f64>(
            f64::from_bits,
            f64::to_bits,
            &[
                0.0,
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MIN,
                f64::MAX,
                f64::NAN,
                f64::from_bits(0x7ff4_0000_dead_beef), // signalling NaN with a payload
                f64::from_bits(0xfff8_0000_0000_0001), // negative quiet NaN with a payload
            ],
        );
    }

    #[test]
    fn envelope_of_scalars_is_named() {
        assert_eq!(f64::envelope().combiner, TypeCombiner::Named);
        assert_eq!(u8::elem_size(), 1);
        assert_eq!(DoubleInt::elem_size(), 12);
    }

    #[test]
    fn decode_rejects_partial_elements() {
        let mut bytes = f64::encode(&[1.0]);
        bytes.push(0xff);
        assert!(f64::decode(&bytes).is_err(), "no silent truncation");
        assert!(i32::decode(&[1, 2, 3]).is_err());
    }

    #[test]
    fn double_int_roundtrip() {
        let pairs = [
            DoubleInt {
                value: 4.25,
                index: 3,
            },
            DoubleInt {
                value: -1.0,
                index: 9,
            },
        ];
        let decoded = DoubleInt::decode(&DoubleInt::encode(&pairs)).unwrap();
        assert_eq!(decoded, pairs);
        assert_eq!(decoded.capacity(), decoded.len(), "one exact allocation");
        assert_eq!(DoubleInt::encode_payload(&pairs), DoubleInt::encode(&pairs));
    }
}
