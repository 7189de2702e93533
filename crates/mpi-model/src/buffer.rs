//! Typed message buffers.
//!
//! Application data crosses the MPI interface as raw bytes plus a datatype describing
//! the element layout. The helpers here convert between Rust slices of the common
//! numeric types and the little-endian byte representation the fabric carries, and
//! validate that buffer lengths agree with `count × datatype.size()` the way a real
//! implementation would before touching the wire.

use crate::datatype::{PrimitiveType, TypeDescriptor};
use crate::error::{MpiError, MpiResult};

/// A send/receive buffer: raw bytes with an element type and count, mirroring the
/// `(void *buf, int count, MPI_Datatype type)` triple of the C API.
#[derive(Debug, Clone, PartialEq)]
pub struct TypedBuffer {
    bytes: Vec<u8>,
    datatype: TypeDescriptor,
    count: usize,
}

impl TypedBuffer {
    /// Create a buffer from raw bytes, validating that the length matches
    /// `count * datatype.size()`.
    pub fn from_bytes(bytes: Vec<u8>, datatype: TypeDescriptor, count: usize) -> MpiResult<Self> {
        let expected = count * datatype.size();
        if bytes.len() != expected {
            return Err(MpiError::Internal(format!(
                "buffer of {} bytes does not match count {} × type size {}",
                bytes.len(),
                count,
                datatype.size()
            )));
        }
        Ok(TypedBuffer {
            bytes,
            datatype,
            count,
        })
    }

    /// A zero-filled receive buffer for `count` elements of `datatype`.
    pub fn zeroed(datatype: TypeDescriptor, count: usize) -> Self {
        TypedBuffer {
            bytes: vec![0u8; count * datatype.size()],
            datatype,
            count,
        }
    }

    /// Buffer from a slice of `f64` (the dominant case in the proxy applications).
    pub fn from_f64(values: &[f64]) -> Self {
        TypedBuffer {
            bytes: values.iter().flat_map(|v| v.to_le_bytes()).collect(),
            datatype: TypeDescriptor::Primitive(PrimitiveType::Double),
            count: values.len(),
        }
    }

    /// Buffer from a slice of `i32`.
    pub fn from_i32(values: &[i32]) -> Self {
        TypedBuffer {
            bytes: values.iter().flat_map(|v| v.to_le_bytes()).collect(),
            datatype: TypeDescriptor::Primitive(PrimitiveType::Int),
            count: values.len(),
        }
    }

    /// Buffer from a slice of `u64`.
    pub fn from_u64(values: &[u64]) -> Self {
        TypedBuffer {
            bytes: values.iter().flat_map(|v| v.to_le_bytes()).collect(),
            datatype: TypeDescriptor::Primitive(PrimitiveType::UnsignedLong),
            count: values.len(),
        }
    }

    /// Interpret the contents as `f64` values.
    pub fn as_f64(&self) -> Vec<f64> {
        bytes_to_f64(&self.bytes)
    }

    /// Interpret the contents as `i32` values.
    pub fn as_i32(&self) -> Vec<i32> {
        bytes_to_i32(&self.bytes)
    }

    /// Interpret the contents as `u64` values.
    pub fn as_u64(&self) -> Vec<u64> {
        bytes_to_u64(&self.bytes)
    }

    /// Raw byte view.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutable raw byte view (used by receive paths).
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    /// Consume into raw bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// The element datatype.
    pub fn datatype(&self) -> &TypeDescriptor {
        &self.datatype
    }

    /// Element count.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Total size in bytes.
    pub fn len_bytes(&self) -> usize {
        self.bytes.len()
    }
}

/// Decode little-endian `N`-byte elements. Trailing partial elements are dropped.
fn from_le_chunks<const N: usize, T>(bytes: &[u8], decode: fn([u8; N]) -> T) -> Vec<T> {
    bytes
        .as_chunks::<N>()
        .0
        .iter()
        .map(|c| decode(*c))
        .collect()
}

/// Encode a slice of `f64` into little-endian bytes.
pub fn f64_to_bytes(values: &[f64]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Decode little-endian bytes into `f64` values. Trailing partial elements are dropped.
pub fn bytes_to_f64(bytes: &[u8]) -> Vec<f64> {
    from_le_chunks(bytes, f64::from_le_bytes)
}

/// Encode a slice of `i32` into little-endian bytes.
pub fn i32_to_bytes(values: &[i32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Decode little-endian bytes into `i32` values. Trailing partial elements are dropped.
pub fn bytes_to_i32(bytes: &[u8]) -> Vec<i32> {
    from_le_chunks(bytes, i32::from_le_bytes)
}

/// Encode a slice of `u64` into little-endian bytes.
pub fn u64_to_bytes(values: &[u64]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Decode little-endian bytes into `u64` values. Trailing partial elements are dropped.
pub fn bytes_to_u64(bytes: &[u8]) -> Vec<u64> {
    from_le_chunks(bytes, u64::from_le_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_roundtrip() {
        let v = vec![1.5, -2.25, 1e300];
        assert_eq!(bytes_to_f64(&f64_to_bytes(&v)), v);
        let buf = TypedBuffer::from_f64(&v);
        assert_eq!(buf.as_f64(), v);
        assert_eq!(buf.count(), 3);
        assert_eq!(buf.len_bytes(), 24);
    }

    #[test]
    fn i32_and_u64_roundtrip() {
        let v = vec![-1, 0, i32::MAX];
        assert_eq!(bytes_to_i32(&i32_to_bytes(&v)), v);
        assert_eq!(TypedBuffer::from_i32(&v).as_i32(), v);
        let u = vec![0u64, u64::MAX, 42];
        assert_eq!(bytes_to_u64(&u64_to_bytes(&u)), u);
        assert_eq!(TypedBuffer::from_u64(&u).as_u64(), u);
    }

    #[test]
    fn from_bytes_validates_length() {
        let ty = TypeDescriptor::Primitive(PrimitiveType::Double);
        assert!(TypedBuffer::from_bytes(vec![0u8; 16], ty.clone(), 2).is_ok());
        assert!(TypedBuffer::from_bytes(vec![0u8; 15], ty, 2).is_err());
    }

    #[test]
    fn zeroed_buffer() {
        let buf = TypedBuffer::zeroed(TypeDescriptor::Primitive(PrimitiveType::Int), 5);
        assert_eq!(buf.len_bytes(), 20);
        assert!(buf.bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn partial_trailing_bytes_dropped() {
        let mut bytes = f64_to_bytes(&[1.0]);
        bytes.push(0xff);
        assert_eq!(bytes_to_f64(&bytes), vec![1.0]);
    }
}
