//! Offline stub of the `bytes` crate.
//!
//! Provides the small slice of the real API the workspace uses: an
//! immutable, cheaply cloneable byte buffer constructed from `Vec<u8>` or
//! static slices, dereferencing to `[u8]`. Backed by a shared `Arc` plus an
//! `(offset, len)` view, so — like the real `Bytes` — clones are
//! reference-count bumps, `From<Vec<u8>>` takes ownership without copying,
//! [`Bytes::from_owner`] shares a buffer someone else also holds, and
//! [`Bytes::slice`] carves O(1) sub-views off the same allocation.

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable chunk of contiguous memory.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    off: usize,
    len: usize,
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes {
            data: Arc::new(Vec::new()),
            off: 0,
            len: 0,
        }
    }
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Wraps a static byte slice (copies once into shared storage).
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::copy_from_slice(bytes)
    }

    /// Copies a slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            len: data.len(),
            data: Arc::new(data.to_vec()),
            off: 0,
        }
    }

    /// A view of a buffer the caller keeps sharing: no byte is copied, and
    /// the view holds one strong count of `owner` until it drops.
    ///
    /// The real crate takes any `AsRef<[u8]> + Send + 'static` owner; every
    /// buffer of this stub is an `Arc<Vec<u8>>`, so it takes that owner
    /// alone.
    pub fn from_owner(owner: Arc<Vec<u8>>) -> Self {
        Bytes {
            len: owner.len(),
            data: owner,
            off: 0,
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The contents as a plain slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.off..self.off + self.len]
    }

    /// Copies the contents out into a `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// An O(1) sub-view sharing this buffer's backing allocation: no bytes
    /// are copied, only the reference count is bumped.
    ///
    /// # Panics
    ///
    /// Panics if the range is invalid or out of bounds, matching the real
    /// `bytes` crate's behavior.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n.checked_add(1).expect("slice start overflow"),
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n.checked_add(1).expect("slice end overflow"),
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(
            start <= end,
            "range start must not be greater than end: {start} <= {end}"
        );
        assert!(
            end <= self.len,
            "range end out of bounds: {end} <= {}",
            self.len
        );
        Bytes {
            data: Arc::clone(&self.data),
            off: self.off + start,
            len: end - start,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    /// O(1): takes ownership of the vector; no copy.
    fn from(v: Vec<u8>) -> Self {
        Bytes {
            len: v.len(),
            data: Arc::new(v),
            off: 0,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl<const N: usize> From<&'static [u8; N]> for Bytes {
    fn from(v: &'static [u8; N]) -> Self {
        Bytes::copy_from_slice(v.as_slice())
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Self {
        Bytes::from(v.into_bytes())
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes(len={})", self.len())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_clone_share() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        let c = b.clone();
        assert_eq!(&b[..], &[1, 2, 3]);
        assert_eq!(b, c);
        assert_eq!(b.to_vec(), vec![1, 2, 3]);
        assert_eq!(Bytes::from_static(b"abc").len(), 3);
    }

    #[test]
    fn slice_is_a_view_of_the_same_allocation() {
        let b = Bytes::from((0u8..32).collect::<Vec<_>>());
        let s = b.slice(8..16);
        assert_eq!(&s[..], &(8u8..16).collect::<Vec<_>>()[..]);
        // Sub-slicing a sub-slice composes offsets.
        let s2 = s.slice(2..=3);
        assert_eq!(&s2[..], &[10, 11]);
        // Open-ended ranges.
        assert_eq!(b.slice(..4).len(), 4);
        assert_eq!(b.slice(30..).len(), 2);
        assert_eq!(b.slice(..), b);
    }

    #[test]
    fn from_owner_shares_the_owner() {
        let owner = Arc::new(vec![5u8, 6, 7]);
        let b = Bytes::from_owner(Arc::clone(&owner)).slice(1..);
        assert_eq!(&b[..], &[6, 7]);
        assert_eq!(Arc::strong_count(&owner), 2);
        drop(b);
        assert_eq!(Arc::strong_count(&owner), 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        Bytes::from(vec![0u8; 4]).slice(2..6);
    }

    #[test]
    fn equality_compares_views_not_allocations() {
        let a = Bytes::from(vec![9u8, 1, 2, 9]).slice(1..3);
        let b = Bytes::from(vec![1u8, 2]);
        assert_eq!(a, b);
        assert_eq!(a, vec![1u8, 2]);
    }
}
