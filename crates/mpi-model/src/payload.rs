//! Refcounted immutable payload buffer shared across the messaging stack.
//!
//! [`PayloadBuf`] is an in-tree `Bytes`-alike: an `Arc<[u8]>` plus an offset/length
//! window. Cloning one is a refcount bump, and [`PayloadBuf::slice`] produces a new
//! window over the *same* allocation — no bytes move. This is what makes a fabric
//! send a pointer hand-off: the sender's buffer, every mailbox deposit, every chaos
//! retransmit and every collective fan-out destination all reference one allocation.
//!
//! The buffer is immutable by construction (there is no `&mut [u8]` accessor), so
//! sharing it across rank threads is safe without any synchronization beyond the
//! refcount. Producers write their bytes straight into the shared allocation with
//! [`PayloadBuf::filled`], or hand over a `Vec<u8>` with `From<Vec<u8>>` (one more
//! allocation and one `memcpy`: the reference counts of an `Arc<[u8]>` live in front
//! of the bytes, so a vector's block cannot be adopted as it is); consumers read
//! through `Deref<Target = [u8]>`.

use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

use serde::{Deserialize, Error as SerdeError, Serialize, Value};

/// A cheaply clonable, immutable, refcounted byte buffer with zero-copy slicing.
#[derive(Clone)]
pub struct PayloadBuf {
    data: Arc<[u8]>,
    offset: usize,
    len: usize,
}

impl PayloadBuf {
    /// The empty buffer. Does not allocate a fresh backing store per call beyond the
    /// zero-length `Arc<[u8]>` itself.
    pub fn new() -> Self {
        PayloadBuf {
            data: Arc::from(&[][..]),
            offset: 0,
            len: 0,
        }
    }

    /// Take over an owned vector's bytes. An `Arc<[u8]>` keeps its reference counts in
    /// the same allocation as the bytes, so this allocates that block, copies the
    /// vector into it and frees the vector: one allocation and one `memcpy` per call.
    /// A producer that can write its bytes in place avoids both with
    /// [`PayloadBuf::filled`].
    pub fn from_vec(vec: Vec<u8>) -> Self {
        let len = vec.len();
        PayloadBuf {
            data: Arc::from(vec.into_boxed_slice()),
            offset: 0,
            len,
        }
    }

    /// A buffer of `len` bytes written in place: `fill` receives the shared
    /// allocation itself, zeroed, before anyone else can see it. One allocation and
    /// no copy — what a marshaller that knows its output size up front should use.
    pub fn filled(len: usize, fill: impl FnOnce(&mut [u8])) -> Self {
        let mut data: Arc<[u8]> = std::iter::repeat_n(0, len).collect();
        #[expect(
            clippy::expect_used,
            reason = "provable invariant — `data` was created on the line above and never cloned"
        )]
        fill(Arc::get_mut(&mut data).expect("a fresh Arc has one owner"));
        PayloadBuf {
            data,
            offset: 0,
            len,
        }
    }

    /// Copy a borrowed slice into a fresh buffer: one allocation and one `memcpy`,
    /// the same as [`PayloadBuf::from_vec`] costs a caller that owns a `Vec<u8>`.
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        PayloadBuf {
            data: Arc::from(bytes),
            offset: 0,
            len: bytes.len(),
        }
    }

    /// Length of the visible window in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the visible window is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The visible bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.offset..self.offset + self.len]
    }

    /// Copy the visible bytes out into an owned vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// A new window over the same allocation covering `range` of this window.
    /// Zero-copy: the returned buffer shares this buffer's backing store.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or inverted, mirroring slice indexing.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(
            start <= end && end <= self.len,
            "PayloadBuf::slice range {start}..{end} out of bounds for length {}",
            self.len
        );
        PayloadBuf {
            data: Arc::clone(&self.data),
            offset: self.offset + start,
            len: end - start,
        }
    }

    /// Whether `self` and `other` are windows over the same backing allocation.
    /// Used by the fabric's `bytes_shared` accounting and the sharing tests; it is
    /// `true` for clones and sub-slices, `false` for equal-but-copied buffers.
    pub fn shares_allocation_with(&self, other: &PayloadBuf) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }
}

impl Default for PayloadBuf {
    fn default() -> Self {
        PayloadBuf::new()
    }
}

impl Deref for PayloadBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for PayloadBuf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

// Consistent with the slice-delegating Eq/Hash impls below; enables
// `Vec<PayloadBuf>::concat()` and slice-keyed map lookups.
impl std::borrow::Borrow<[u8]> for PayloadBuf {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for PayloadBuf {
    fn from(vec: Vec<u8>) -> Self {
        PayloadBuf::from_vec(vec)
    }
}

impl From<&[u8]> for PayloadBuf {
    fn from(bytes: &[u8]) -> Self {
        PayloadBuf::copy_from_slice(bytes)
    }
}

impl<const N: usize> From<[u8; N]> for PayloadBuf {
    fn from(bytes: [u8; N]) -> Self {
        PayloadBuf::copy_from_slice(&bytes)
    }
}

impl From<PayloadBuf> for Vec<u8> {
    #[expect(
        clippy::disallowed_methods,
        reason = "the conversion out to an owned vector is a copy by definition; callers that want to share take the PayloadBuf"
    )]
    fn from(buf: PayloadBuf) -> Vec<u8> {
        buf.to_vec()
    }
}

impl fmt::Debug for PayloadBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl PartialEq for PayloadBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for PayloadBuf {}

impl std::hash::Hash for PayloadBuf {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq<Vec<u8>> for PayloadBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<PayloadBuf> for Vec<u8> {
    fn eq(&self, other: &PayloadBuf) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[u8]> for PayloadBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for PayloadBuf {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for PayloadBuf {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl FromIterator<u8> for PayloadBuf {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        PayloadBuf::from_vec(iter.into_iter().collect())
    }
}

// On the wire (checkpoint images carry drained envelopes), a PayloadBuf reads and
// writes exactly like a Vec<u8>, so images written before the refactor deserialize
// unchanged and vice versa.
impl Serialize for PayloadBuf {
    fn to_value(&self) -> Value {
        self.as_slice().to_vec().to_value()
    }
}

impl<'de> Deserialize<'de> for PayloadBuf {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        Ok(PayloadBuf::from_vec(Vec::<u8>::from_value(value)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_the_allocation() {
        let a = PayloadBuf::from_vec(vec![1, 2, 3, 4]);
        let b = a.clone();
        assert!(a.shares_allocation_with(&b));
        assert_eq!(a, b);
        assert_eq!(Arc::strong_count(&a.data), 2);
    }

    #[test]
    fn slice_is_zero_copy_and_windowed() {
        let a = PayloadBuf::from_vec((0..16).collect());
        let mid = a.slice(4..12);
        assert!(a.shares_allocation_with(&mid));
        assert_eq!(mid.len(), 8);
        assert_eq!(&mid[..], &(4..12).collect::<Vec<u8>>()[..]);
        let inner = mid.slice(2..4);
        assert!(inner.shares_allocation_with(&a));
        assert_eq!(&inner[..], &[6, 7]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_rejects_out_of_bounds() {
        let a = PayloadBuf::from_vec(vec![0; 4]);
        let _ = a.slice(2..8);
    }

    #[test]
    fn filled_hands_out_the_zeroed_allocation_once() {
        let a = PayloadBuf::filled(4, |bytes| {
            assert_eq!(bytes, [0; 4]);
            bytes[1] = 7;
        });
        assert_eq!(a, [0, 7, 0, 0]);
        assert_eq!(Arc::strong_count(&a.data), 1);
        assert!(PayloadBuf::filled(0, |bytes| assert!(bytes.is_empty())).is_empty());
    }

    #[test]
    fn copies_are_equal_but_unshared() {
        let a = PayloadBuf::from_vec(vec![9; 32]);
        let b = PayloadBuf::copy_from_slice(&a);
        assert_eq!(a, b);
        assert!(!a.shares_allocation_with(&b));
    }

    #[test]
    fn compares_against_vecs_and_slices() {
        let a = PayloadBuf::from_vec(vec![1, 2, 3]);
        assert_eq!(a, vec![1, 2, 3]);
        assert_eq!(vec![1, 2, 3], a);
        assert_eq!(a, [1, 2, 3]);
        assert!(a == *[1u8, 2, 3].as_slice());
    }

    #[test]
    fn serializes_like_a_vec() {
        let a = PayloadBuf::from_vec(vec![7, 0, 255]);
        let as_vec_value = vec![7u8, 0, 255].to_value();
        assert_eq!(a.to_value(), as_vec_value);
        let back = PayloadBuf::from_value(&as_vec_value).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn empty_default_and_round_trips() {
        let e = PayloadBuf::new();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert_eq!(PayloadBuf::default(), e);
        let v: Vec<u8> = PayloadBuf::from_vec(vec![5, 6]).into();
        assert_eq!(v, vec![5, 6]);
    }
}
