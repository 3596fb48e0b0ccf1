//! The keyed hasher behind every table keyed by stream hash.
//!
//! The serve path's record tables, the guard's hibernation index and
//! the stream engine's bank map are keyed by a stream's `u64` hash and
//! probed once per event. Under std's SipHash-1-3 that probe's hash was
//! a visible share of the per-event cost. [`BuildStreamHasher`] hashes
//! a `u64` with one keyed folded multiply instead: the 128-bit product
//! of `id ^ k0` and `k1 | 1`, its low and high halves xored together
//! (the construction foldhash is built on). One more fold, by a fixed
//! constant, finishes the hash, as foldhash's quality variant does.
//! Without it a random multiplier spreads an arithmetic run of ids
//! poorly for about one key in ten: over 50,000 keys, 4096 ids that
//! differ only in bits 48–59 filled under 900 of 1024 low-bit buckets
//! (hashbrown's bucket index) or under 120 of 128 top-7-bit tags (its
//! per-bucket filter) for 14 % of keys, and consecutive ids for 8 %.
//! With the finishing fold no key fell under 982 buckets or 128 tags.
//!
//! The key `(k0, k1)` is drawn from std's [`RandomState`] each time a
//! builder is made, so every map gets its own, and none reads a clock.
//! A sender who chooses stream ids without knowing the key cannot aim
//! them at one probe chain: that is the flood std's keyed hasher
//! resists, and this one resists it too. What it gives up against
//! SipHash is resistance to an adaptive attacker who can time
//! hash-dependent work and so learn about the key; the tables hold
//! per-stream state, and a collision costs time, never an answer.
//! Nothing may depend on these tables' iteration order.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// The finishing fold's multiplier: an odd constant with well-spread
/// bits (the fractional part of the golden ratio).
const FINISH: u64 = 0x9e37_79b9_7f4a_7c15;

/// The product of `x` and `m` as 128 bits, its halves xored together.
#[inline]
fn folded_multiply(x: u64, m: u64) -> u64 {
    let product = u128::from(x) * u128::from(m);
    (product as u64) ^ ((product >> 64) as u64)
}

/// Builds [`StreamHasher`]s under one 128-bit key drawn when the
/// builder is made; use it as the `S` of a map keyed by stream hash.
///
/// # Examples
///
/// ```
/// use std::collections::HashMap;
/// use detdiv_resil::BuildStreamHasher;
///
/// let mut records: HashMap<u64, &str, BuildStreamHasher> = HashMap::default();
/// records.insert(0xdead_beef, "host-a");
/// assert_eq!(records.get(&0xdead_beef), Some(&"host-a"));
/// ```
#[derive(Clone)]
pub struct BuildStreamHasher {
    k0: u64,
    /// Odd, so the product keeps every bit of `id ^ k0`'s low half.
    k1: u64,
}

impl BuildStreamHasher {
    /// A builder under a fresh key from std's [`RandomState`].
    pub fn new() -> BuildStreamHasher {
        let seed = RandomState::new();
        BuildStreamHasher {
            k0: seed.hash_one(0u64),
            k1: seed.hash_one(1u64) | 1,
        }
    }
}

impl Default for BuildStreamHasher {
    fn default() -> BuildStreamHasher {
        BuildStreamHasher::new()
    }
}

impl std::fmt::Debug for BuildStreamHasher {
    /// Leaves the key out: it is the table's only defence.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuildStreamHasher").finish_non_exhaustive()
    }
}

impl BuildHasher for BuildStreamHasher {
    type Hasher = StreamHasher;

    #[inline]
    fn build_hasher(&self) -> StreamHasher {
        StreamHasher {
            k0: self.k0,
            k1: self.k1,
            state: 0,
        }
    }
}

/// A keyed folded-multiply hasher for stream hashes; build it through
/// [`BuildStreamHasher`].
#[derive(Clone)]
pub struct StreamHasher {
    k0: u64,
    k1: u64,
    state: u64,
}

impl std::fmt::Debug for StreamHasher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamHasher").finish_non_exhaustive()
    }
}

impl Hasher for StreamHasher {
    /// Folds any other key in eight bytes at a time; a `u64` key takes
    /// [`write_u64`](Hasher::write_u64)'s one keyed multiply.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.state = folded_multiply(self.state ^ word ^ self.k0, self.k1);
    }

    #[inline]
    fn finish(&self) -> u64 {
        folded_multiply(self.state, FINISH)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_u64_costs_one_keyed_folded_multiply_and_a_finishing_fold() {
        let build = BuildStreamHasher::new();
        let id = 0x0123_4567_89ab_cdef_u64;
        assert_eq!(
            build.hash_one(id),
            folded_multiply(folded_multiply(id ^ build.k0, build.k1), FINISH)
        );
        assert_eq!(build.k1 & 1, 1, "the multiplier is odd");
        assert_eq!(build.hash_one(id), build.clone().hash_one(id));
    }

    #[test]
    fn two_builders_draw_different_keys() {
        let (a, b) = (BuildStreamHasher::new(), BuildStreamHasher::new());
        assert!(
            (0..64u64).any(|id| a.hash_one(id) != b.hash_one(id)),
            "two maps' hashers agree on every id"
        );
    }

    #[test]
    fn ids_differing_only_in_their_top_bits_spread() {
        // 4096 ids that share their low 48 bits: hashbrown indexes
        // buckets by the hash's low bits and tags them with its top 7.
        // The key is fresh on every run, so this holds for any key.
        let build = BuildStreamHasher::new();
        let mut buckets = vec![false; 1024];
        let mut tags = [false; 128];
        for i in 0..4096u64 {
            let hash = build.hash_one(0x0000_5eed_cafe_f00d | (i << 48));
            buckets[(hash & 1023) as usize] = true;
            tags[(hash >> 57) as usize] = true;
        }
        let filled = buckets.iter().filter(|&&b| b).count();
        assert!(filled >= 900, "{filled} of 1024 low-bit buckets");
        let tagged = tags.iter().filter(|&&t| t).count();
        assert!(tagged >= 120, "{tagged} of 128 top-7-bit tags");
    }

    #[test]
    fn byte_keys_fold_every_byte() {
        let build = BuildStreamHasher::new();
        let hash = |bytes: &[u8]| {
            let mut h = build.build_hasher();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(hash(b"host-a"), hash(b"host-b"));
        assert_ne!(hash(b"0123456789"), hash(b"0123456788"));
    }
}
