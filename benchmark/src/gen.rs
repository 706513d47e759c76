//! Seeded inputs and their references. Everything the libraries see is
//! generated here from `--seed`; the same seed gives the same bytes, op
//! order, roots and sizes.

use bgp_shmem::SharedRegion;

/// A stateless hash of `x`: the first output of the workspace's SplitMix64
/// seeded with `x`.
#[inline]
pub fn mix(x: u64) -> u64 {
    bgp_sim::Rng::new(x).next_u64()
}

/// Key of operation `i` of `phase` in sub-run `sub` under `seed`.
#[inline]
pub fn op_key(seed: u64, sub: usize, phase: usize, i: usize) -> u64 {
    mix(seed ^ mix((sub as u64) << 40 | (phase as u64) << 32 | i as u64))
}

/// Fill `buf` with the byte pattern of `key`.
pub fn fill(buf: &mut [u8], key: u64) {
    let mut words = buf.chunks_exact_mut(8);
    for (w, chunk) in (&mut words).enumerate() {
        chunk.copy_from_slice(&mix(key.wrapping_add(w as u64)).to_le_bytes());
    }
    let rest = words.into_remainder();
    let last = mix(key ^ 0xA5A5).to_le_bytes();
    rest.copy_from_slice(&last[..rest.len()]);
}

/// Does `buf` hold exactly the pattern of `key`?
pub fn matches(buf: &[u8], key: u64) -> bool {
    let mut words = buf.chunks_exact(8);
    for (w, chunk) in (&mut words).enumerate() {
        if chunk != mix(key.wrapping_add(w as u64)).to_le_bytes() {
            return false;
        }
    }
    let rest = words.remainder();
    rest == &mix(key ^ 0xA5A5).to_le_bytes()[..rest.len()]
}

/// The pattern of `key` as a fresh vector.
pub fn bytes(len: usize, key: u64) -> Vec<u8> {
    let mut v = vec![0u8; len];
    fill(&mut v, key);
    v
}

/// Element `j` of member `member`'s allreduce input under `key`: a multiple
/// of 0.5 in `[-512, 512)`, so sums over any number of members are exact
/// in every association order and references compare bit for bit.
#[inline]
pub fn f64_at(key: u64, member: usize, j: usize) -> f64 {
    let h = mix(key ^ mix(member as u64 + 1)).wrapping_add(j as u64);
    ((mix(h) % 2048) as f64 - 1024.0) * 0.5
}

/// Member `member`'s input vector of `count` doubles.
pub fn f64s(key: u64, member: usize, count: usize) -> Vec<f64> {
    (0..count).map(|j| f64_at(key, member, j)).collect()
}

/// The elementwise sum of every member's input: the allreduce reference.
pub fn f64_sum(key: u64, members: usize, count: usize) -> Vec<f64> {
    (0..count)
        .map(|j| (0..members).map(|m| f64_at(key, m, j)).sum())
        .collect()
}

/// Native-endian bytes of `vals` (how the runtimes lay doubles in regions).
pub fn f64_bytes(vals: &[f64]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_ne_bytes()).collect()
}

/// Write `src` at the start of `region`.
///
/// Callers own the region exclusively at this point (no collective is in
/// flight on it), which is the contract `SharedRegion::write` needs.
pub fn put(region: &SharedRegion, src: &[u8]) {
    // SAFETY: exclusive access per the function contract above.
    unsafe { region.write(0, src) }
}

/// Fill the first `len` bytes of `region` with the pattern of `key`.
/// Same exclusivity contract as [`put`].
pub fn put_pattern(region: &SharedRegion, len: usize, key: u64) {
    // SAFETY: exclusive access per the function contract.
    unsafe { region.with_bytes_mut(0, len, |dst| fill(dst, key)) }
}

/// Do the first `len` bytes of `region` hold the pattern of `key`? The
/// operation that filled them has completed on the calling rank.
pub fn region_matches(region: &SharedRegion, len: usize, key: u64) -> bool {
    // SAFETY: the writer (this rank's completed collective) happens-before.
    unsafe { region.with_bytes(0, len, |src| matches(src, key)) }
}

/// Do the first bytes of `region` equal `want`?
pub fn region_equals(region: &SharedRegion, want: &[u8]) -> bool {
    // SAFETY: as in `region_matches`.
    unsafe { region.with_bytes(0, want.len(), |src| src == want) }
}

/// Zero the first `len` bytes of `region` (exclusivity as in [`put`]).
pub fn clear(region: &SharedRegion, len: usize) {
    // SAFETY: exclusive access per the function contract.
    unsafe { region.with_bytes_mut(0, len, |dst| dst.fill(0)) }
}

/// One operation of a mixed train.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainOp {
    /// Broadcast `len` bytes from member `root`.
    Bcast { root: usize, len: usize },
    /// Sum-allreduce over `count` doubles.
    Allreduce { count: usize },
}

/// Size ranges of a train's two op kinds.
#[derive(Debug, Clone, Copy)]
pub struct TrainMix {
    /// Broadcast payload bytes, inclusive range.
    pub bcast: (usize, usize),
    /// Allreduce doubles, inclusive range.
    pub allreduce: (usize, usize),
}

/// Operation `i` of the seeded 3 : 1 broadcast : allreduce train over
/// `roots` possible roots. Stateless in `i`, so every SPMD rank derives the
/// identical sequence without sharing a generator.
pub fn train_op(key: u64, i: usize, roots: usize, mix_: TrainMix) -> TrainOp {
    let h = mix(key ^ mix(i as u64));
    let pick = |(lo, hi): (usize, usize), bits: u64| lo + (bits % (hi - lo + 1) as u64) as usize;
    if h & 3 == 3 {
        TrainOp::Allreduce {
            count: pick(mix_.allreduce, h >> 8),
        }
    } else {
        TrainOp::Bcast {
            root: ((h >> 2) % roots as u64) as usize,
            len: pick(mix_.bcast, h >> 8),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_round_trips_and_detects_a_flipped_byte() {
        for len in [0, 1, 7, 8, 9, 256, 4099] {
            let mut v = bytes(len, 42);
            assert!(matches(&v, 42));
            assert!(len == 0 || !matches(&v, 43));
            if len > 0 {
                v[len - 1] ^= 1;
                assert!(!matches(&v, 42));
            }
        }
    }

    #[test]
    fn train_is_three_to_one_and_seed_dependent() {
        let m = TrainMix {
            bcast: (64, 512),
            allreduce: (8, 32),
        };
        let ops: Vec<_> = (0..4000).map(|i| train_op(7, i, 2, m)).collect();
        let ar = ops
            .iter()
            .filter(|o| matches!(o, TrainOp::Allreduce { .. }))
            .count();
        assert!((900..1100).contains(&ar), "allreduce share off: {ar}");
        assert_ne!(
            ops,
            (0..4000).map(|i| train_op(8, i, 2, m)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn sums_are_exact_in_any_order() {
        let fwd = f64_sum(9, 8, 64);
        let rev: Vec<f64> = (0..64)
            .map(|j| (0..8).rev().map(|m| f64_at(9, m, j)).sum())
            .collect();
        assert_eq!(f64_bytes(&fwd), f64_bytes(&rev));
    }
}
