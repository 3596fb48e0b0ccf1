//! FNV-1a 64-bit: the workspace's one platform-independent digest.
//!
//! Journal line checksums, fault-injection site seeds, corpus
//! fingerprints, stream-id hashes and `loadgen`'s verdict digests all
//! use it, so each of those values is stable across platforms, runs
//! and releases.

/// An FNV-1a 64-bit hash over the bytes [`Fnv1a::write`] has fed it.
///
/// # Examples
///
/// ```
/// use detdiv_resil::{fnv1a, Fnv1a};
///
/// let mut h = Fnv1a::new();
/// h.write(b"foo");
/// h.write(b"bar");
/// assert_eq!(h.finish(), fnv1a(b"foobar"));
/// assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hash over no bytes: the FNV-1a 64-bit offset basis.
    #[inline]
    pub const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the hash, one byte at a time.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    /// The hash of every byte written so far.
    #[inline]
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a 64-bit over `bytes`.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vectors() {
        // FNV-1a 64-bit test vectors (draft-eastlake-fnv).
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
