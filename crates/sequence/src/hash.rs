//! The hasher behind every table keyed by symbols or symbol windows.
//!
//! The detectors' normal databases are hash tables keyed by DW-symbol
//! windows, and a coverage sweep builds and probes them for every
//! (detector, DW) pair. Under std's default SipHash, hashing was most
//! of that time; [`BuildSymbolHasher`] instead mixes one 32-bit word
//! (one [`Symbol`](crate::Symbol)) per multiply-rotate step and runs a
//! single avalanche when the hash is taken, so both the high bits
//! (hashbrown's per-bucket tags) and the low bits (its bucket index)
//! depend on every symbol of the window.
//!
//! The hasher is fixed and unkeyed, so it gives no protection against
//! keys crafted to collide. The tables it serves are grown only from
//! training corpora — synthesized, or read from the operator's own
//! files — and live traffic only probes them, so there is no flood to
//! resist. Collisions cost time, never answers: every lookup still
//! compares keys for equality. Nothing may depend on the iteration
//! order of these tables.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier of the per-word step: an odd 64-bit constant with
/// well-spread bits (the fractional part of the golden ratio).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Rotation after each multiply: brings the product's well-mixed high
/// bits down to where the next word is folded in.
const ROTATE: u32 = 26;

/// A word-at-a-time hasher for symbol windows; build it through
/// [`BuildSymbolHasher`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SymbolHasher {
    state: u64,
}

impl SymbolHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state ^ word).wrapping_mul(K).rotate_left(ROTATE);
    }
}

impl Hasher for SymbolHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(
                chunk.try_into().expect("chunks_exact yields 8 bytes"),
            ));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.mix(u64::from(word));
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.mix(word as u64);
    }

    /// The state through murmur3's 64-bit finalizer, so every input bit
    /// reaches every output bit.
    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.state;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// The `BuildHasher` of every table keyed by symbols or symbol windows:
/// deterministic, std-only, one multiply-rotate step per symbol.
///
/// # Examples
///
/// ```
/// use std::collections::HashMap;
/// use std::hash::BuildHasher;
///
/// use detdiv_sequence::{symbols, BuildSymbolHasher, Symbol};
///
/// let window = symbols(&[1, 2, 3]);
/// let mut counts: HashMap<&[Symbol], u64, BuildSymbolHasher> = HashMap::default();
/// *counts.entry(&window).or_insert(0) += 1;
/// assert_eq!(counts[window.as_slice()], 1);
///
/// // Unkeyed: the same window hashes alike in every table and process.
/// let h = BuildSymbolHasher::default();
/// assert_eq!(h.hash_one(&window[..]), h.hash_one(&window[..]));
/// assert_ne!(h.hash_one(&window[..]), h.hash_one(&window[..2]));
/// ```
pub type BuildSymbolHasher = BuildHasherDefault<SymbolHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Symbol;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    fn hash(window: &[Symbol]) -> u64 {
        BuildSymbolHasher::default().hash_one(window)
    }

    #[test]
    fn order_and_length_change_the_hash() {
        let a = [Symbol::new(1), Symbol::new(2)];
        let b = [Symbol::new(2), Symbol::new(1)];
        assert_ne!(hash(&a), hash(&b));
        assert_ne!(hash(&a), hash(&a[..1]));
        assert_ne!(hash(&[]), hash(&[Symbol::new(0)]));
    }

    #[test]
    fn high_and_low_bits_both_spread() {
        // Windows over ids differing only in their high bits: the low
        // bits (bucket index) and the top 7 bits (tag) must both vary.
        let mut low = HashSet::new();
        let mut top = HashSet::new();
        for a in 0..16u32 {
            for b in 0..16u32 {
                let w = [Symbol::new(a << 28), Symbol::new(b << 28), Symbol::new(7)];
                let h = hash(&w);
                low.insert(h & 0xff);
                top.insert(h >> 57);
            }
        }
        assert!(low.len() > 150, "{} distinct low bytes of 256", low.len());
        assert!(top.len() > 100, "{} distinct 7-bit tags of 128", top.len());
    }

    #[test]
    fn byte_writes_cover_partial_words() {
        let mut a = SymbolHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = SymbolHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(a.finish(), b.finish());
    }
}
