//! Little-endian byte conversions.
//!
//! Application data crosses the MPI interface as raw bytes. The helpers here convert
//! between Rust slices of the common numeric types and the little-endian byte
//! representation the fabric carries.

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
    }

    #[test]
    fn i32_and_u64_roundtrip() {
        let v = vec![-1, 0, i32::MAX];
        assert_eq!(bytes_to_i32(&i32_to_bytes(&v)), v);
        let u = vec![0u64, u64::MAX, 42];
        assert_eq!(bytes_to_u64(&u64_to_bytes(&u)), u);
    }

    #[test]
    fn partial_trailing_bytes_dropped() {
        let mut bytes = f64_to_bytes(&[1.0]);
        bytes.push(0xff);
        assert_eq!(bytes_to_f64(&bytes), vec![1.0]);
    }
}
