//! The Fx-style hasher for content addressing.
//!
//! The artifact cache keys compilations by `(source_hash, variant,
//! verify mode)`; the source digest comes from [`FxHasher`], the
//! compiler's one first-party hasher (defined in `sml_ast::fx`, where the
//! compiler crates' integer-keyed maps use it too). It is not
//! cryptographic, but fast, portable and (unlike
//! `std::collections::hash_map::DefaultHasher`'s seeded SipHash)
//! **stable across processes and runs**, which is what a
//! content-addressed key needs. Collisions are tolerated by design:
//! cache entries verify the full source text on lookup (see
//! `session::ArtifactCache`), so a hash collision costs a recompile,
//! never a wrong artifact.

use std::hash::Hasher;

/// A deterministic, process-stable `Hasher` (defined in `sml_ast::fx`).
///
/// # Examples
///
/// ```
/// use smlc::fxhash::{hash_bytes, FxHasher};
/// use std::hash::Hasher;
/// let a = hash_bytes(b"val x = 1");
/// let mut h = FxHasher::default();
/// h.write(b"val x = 1");
/// assert_eq!(a, h.finish());
/// assert_ne!(a, hash_bytes(b"val x = 2"));
/// ```
pub use sml_ast::fx::FxHasher;

/// Hashes a byte string to a stable 64-bit digest.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_and_discriminating() {
        let a = hash_bytes(b"fun f x = x");
        assert_eq!(a, hash_bytes(b"fun f x = x"), "same input, same digest");
        assert_ne!(a, hash_bytes(b"fun f x = x "), "trailing byte changes it");
        assert_ne!(hash_bytes(b""), hash_bytes(b"\0"), "length is folded in");
        assert_ne!(hash_bytes(b"ab"), hash_bytes(b"ab\0"));
    }

    #[test]
    fn word_writes_differ_from_byte_writes_of_same_value() {
        let mut a = FxHasher::default();
        a.write_u64(7);
        a.write_u64(9);
        let mut b = FxHasher::default();
        b.write_u64(9);
        b.write_u64(7);
        assert_ne!(a.finish(), b.finish(), "order matters");
    }

    /// Digests are content addresses: a change to the hasher must not
    /// move them. The values are the ones every earlier build produced.
    #[test]
    fn digests_are_pinned() {
        assert_eq!(hash_bytes(b""), 0);
        assert_eq!(hash_bytes(b"\0"), 0x9500_0000_0000_0000);
        assert_eq!(hash_bytes(b"val x = 1"), 0x3c00_d083_2485_8ec3);
        assert_eq!(
            hash_bytes(b"fun f x = x + 1 (* twelve+ *)"),
            0xb362_b9dc_1ea4_dec4
        );
        let mut h = FxHasher::default();
        h.write_u8(1);
        h.write_usize(20);
        h.write_u64(u64::MAX);
        assert_eq!(h.finish(), 0xe574_3862_9498_821a);
    }
}
