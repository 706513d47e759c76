//! Hash maps and sets keyed by integers the runtime makes itself.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// An FxHash-style hasher for integer keys: one rotate, xor and multiply
/// per word, then a final rotate that brings the product's well-mixed high
/// bits down, so that 16-byte-aligned addresses, whose low bits are zero,
/// do not all land in the same few buckets.
///
/// It is not resistant to HashDoS, and need not be: every key it hashes is
/// internal to the runtime (op ids, region addresses), none comes from
/// outside. `std`'s default, SipHash, is built to resist such keys and pays
/// for it on every one.
#[derive(Default, Clone, Copy)]
pub struct IdHasher(u64);

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for IdHasher {
    /// Byte-wise: no key of the runtime's takes this path.
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.add(b.into()));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` over [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
/// A `HashSet` over [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    /// Sixteen-byte-aligned addresses spread over the low bits a table
    /// indexes by: 1 024 of them fill at least 3/4 of 1 024 buckets (862;
    /// without the final rotate, 64).
    #[test]
    fn aligned_addresses_spread_over_the_low_bits() {
        let mut buckets = IdSet::default();
        for addr in (0..1024usize).map(|i| 0x7f00_0000_0000 + 16 * i) {
            let mut h = IdHasher::default();
            h.write_usize(addr);
            buckets.insert(h.finish() & 1023);
        }
        assert!(buckets.len() >= 768, "{} buckets", buckets.len());
    }
}
