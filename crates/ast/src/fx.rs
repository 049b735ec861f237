//! A first-party Fx-style hasher, and the map and set types built on it.
//!
//! The algorithm is the multiply-rotate word hash popularized by the
//! Firefox/rustc `FxHasher`: one rotate, xor and multiply per word. It
//! is not cryptographic, but it is fast, portable and, unlike
//! `std::collections::hash_map::DefaultHasher`'s seeded SipHash,
//! **stable across processes and runs**.
//!
//! The compiler uses it in two ways:
//!
//! - as a content digest, where stability is the point: the session's
//!   artifact cache keys (`smlc::fxhash::hash_bytes`);
//! - as the hasher of [`FxHashMap`]/[`FxHashSet`], the maps and sets
//!   keyed by compiler-assigned integers (symbols, variable ids, stamps),
//!   where one multiply per key is much cheaper than SipHash.
//!
//! Maps keyed by strings taken from the source text (the symbol
//! interner, the code generator's string pool) keep std's seeded
//! SipHash, so crafted source cannot force collisions; so does the LTY
//! table's index of type structures (`sml_lambda::LtyInterner`).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier from the Fx hash family (a close relative of the
/// golden-ratio constant used by Fibonacci hashing), 64-bit flavor.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// A deterministic, process-stable `Hasher`.
///
/// Every integer write mixes its value widened to one 64-bit word;
/// byte strings are mixed eight bytes at a time, with the length of a
/// short tail folded in.
///
/// # Examples
///
/// ```
/// use sml_ast::fx::FxHasher;
/// use std::hash::Hasher;
/// let mut a = FxHasher::default();
/// a.write_u32(7);
/// let mut b = FxHasher::default();
/// b.write_u64(7);
/// assert_eq!(a.finish(), b.finish());
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Fold the length in so "ab" ++ [0] and "ab\0" differ.
            self.add(u64::from_le_bytes(tail) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    #[test]
    fn integer_writes_mix_the_widened_word() {
        let digest = |f: &dyn Fn(&mut FxHasher)| {
            let mut h = FxHasher::default();
            f(&mut h);
            h.finish()
        };
        let word = digest(&|h| h.write_u64(0x1234));
        assert_eq!(digest(&|h| h.write_u32(0x1234)), word);
        assert_eq!(digest(&|h| h.write_u16(0x1234)), word);
        assert_eq!(digest(&|h| h.write_usize(0x1234)), word);
        assert_eq!(digest(&|h| 0x1234u32.hash(h)), word);
    }
}
