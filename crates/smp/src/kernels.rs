//! Vectorized `f64` reduction kernels for the allreduce hot path.
//!
//! The paper's allreduce decompositions (§V-C intra-node, the multi-color
//! ring inter-node) all bottom out in the same inner loop: element-wise sum
//! of `f64` partitions. On BG/P that loop ran on the PPC450's paired FPU;
//! here the equivalent is making the loop *autovectorization-friendly* so
//! LLVM emits SIMD on whatever host runs the reproduction.
//!
//! The trick is fixed-width lanes: process `[f64; 4]` blocks (32 bytes) with
//! straight-line adds, then a scalar tail. The byte-slice variants read and
//! write through `from_ne_bytes`/`to_ne_bytes`, which compile to plain
//! (unaligned-tolerant) loads and stores — no alignment requirement on the
//! transport slots or shared regions, and no `unsafe`.
//!
//! Each kernel keeps a `_scalar` reference twin: the element-at-a-time loop
//! the workspace used before. The `reduce/f64x4_1M` gate entry pins the
//! lane kernel's speedup over the staged scalar shape, so a regression back
//! to it fails CI; `benchmark/`'s `smp.kernels.*` metrics carry the
//! absolute throughputs.

/// Lane width in `f64`s. Four doubles = 32 bytes = one AVX2 register (two
/// NEON / SSE2 registers); wide enough to vectorize, narrow enough that the
/// scalar tail stays trivial.
pub const LANES: usize = 4;
const LANE_BYTES: usize = LANES * 8;

#[inline]
fn load4(b: &[u8]) -> [f64; LANES] {
    let mut v = [0.0f64; LANES];
    for (x, c) in v.iter_mut().zip(b.chunks_exact(8)) {
        *x = f64::from_ne_bytes(c.try_into().unwrap());
    }
    v
}

#[inline]
fn store4(b: &mut [u8], v: [f64; LANES]) {
    for (x, c) in v.iter().zip(b.chunks_exact_mut(8)) {
        c.copy_from_slice(&x.to_ne_bytes());
    }
}

/// `acc[i] += src[i]` over `f64` slices, in 4-wide lanes.
pub fn add_assign_f64(acc: &mut [f64], src: &[f64]) {
    assert_eq!(acc.len(), src.len(), "kernel operand length mismatch");
    let mut a = acc.chunks_exact_mut(LANES);
    let mut s = src.chunks_exact(LANES);
    for (av, sv) in (&mut a).zip(&mut s) {
        for i in 0..LANES {
            av[i] += sv[i];
        }
    }
    for (av, sv) in a.into_remainder().iter_mut().zip(s.remainder()) {
        *av += *sv;
    }
}

/// Scalar reference for [`add_assign_f64`].
pub fn add_assign_f64_scalar(acc: &mut [f64], src: &[f64]) {
    assert_eq!(acc.len(), src.len(), "kernel operand length mismatch");
    for (a, s) in acc.iter_mut().zip(src) {
        *a += *s;
    }
}

/// `acc[i] += bytes[i]` where `bytes` encodes native-endian `f64`s.
pub fn add_bytes_f64(acc: &mut [f64], bytes: &[u8]) {
    assert_eq!(bytes.len(), acc.len() * 8, "kernel operand length mismatch");
    let mut a = acc.chunks_exact_mut(LANES);
    let mut b = bytes.chunks_exact(LANE_BYTES);
    for (av, bv) in (&mut a).zip(&mut b) {
        let sv = load4(bv);
        for i in 0..LANES {
            av[i] += sv[i];
        }
    }
    for (av, bv) in a
        .into_remainder()
        .iter_mut()
        .zip(b.remainder().chunks_exact(8))
    {
        *av += f64::from_ne_bytes(bv.try_into().unwrap());
    }
}

/// Scalar reference for [`add_bytes_f64`].
pub fn add_bytes_f64_scalar(acc: &mut [f64], bytes: &[u8]) {
    assert_eq!(bytes.len(), acc.len() * 8, "kernel operand length mismatch");
    for (a, b) in acc.iter_mut().zip(bytes.chunks_exact(8)) {
        *a += f64::from_ne_bytes(b.try_into().unwrap());
    }
}

/// `dst[i] += src[i]` where both slices encode native-endian `f64`s — the
/// in-place partition-reduce step (accumulator lives in a shared region or
/// transport slot, addend arrives as bytes).
pub fn add_bytes_assign(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "kernel operand length mismatch");
    assert_eq!(dst.len() % 8, 0, "operands must be whole f64s");
    let mut d = dst.chunks_exact_mut(LANE_BYTES);
    let mut s = src.chunks_exact(LANE_BYTES);
    for (dv, sv) in (&mut d).zip(&mut s) {
        let mut av = load4(dv);
        let bv = load4(sv);
        for i in 0..LANES {
            av[i] += bv[i];
        }
        store4(dv, av);
    }
    for (dv, sv) in d
        .into_remainder()
        .chunks_exact_mut(8)
        .zip(s.remainder().chunks_exact(8))
    {
        let v = f64::from_ne_bytes((&*dv).try_into().unwrap())
            + f64::from_ne_bytes(sv.try_into().unwrap());
        dv.copy_from_slice(&v.to_ne_bytes());
    }
}

/// `dst[i] = a[i] + b[i]` over byte-encoded `f64`s — the fused ring-combine
/// step: local partition plus incoming chunk, summed straight into the
/// reserved outgoing slot. One pass, zero staging.
pub fn add_bytes_into(dst: &mut [u8], a: &[u8], b: &[u8]) {
    assert_eq!(a.len(), b.len(), "kernel operand length mismatch");
    assert_eq!(dst.len(), a.len(), "kernel operand length mismatch");
    assert_eq!(dst.len() % 8, 0, "operands must be whole f64s");
    let mut d = dst.chunks_exact_mut(LANE_BYTES);
    let mut ac = a.chunks_exact(LANE_BYTES);
    let mut bc = b.chunks_exact(LANE_BYTES);
    for ((dv, av), bv) in (&mut d).zip(&mut ac).zip(&mut bc) {
        let xa = load4(av);
        let xb = load4(bv);
        let mut s = [0.0f64; LANES];
        for i in 0..LANES {
            s[i] = xa[i] + xb[i];
        }
        store4(dv, s);
    }
    for ((dv, av), bv) in d
        .into_remainder()
        .chunks_exact_mut(8)
        .zip(ac.remainder().chunks_exact(8))
        .zip(bc.remainder().chunks_exact(8))
    {
        let v =
            f64::from_ne_bytes(av.try_into().unwrap()) + f64::from_ne_bytes(bv.try_into().unwrap());
        dv.copy_from_slice(&v.to_ne_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes_of(vals: &[f64]) -> Vec<u8> {
        vals.iter().flat_map(|v| v.to_ne_bytes()).collect()
    }

    fn f64s_of(bytes: &[u8]) -> Vec<f64> {
        bytes
            .chunks_exact(8)
            .map(|c| f64::from_ne_bytes(c.try_into().unwrap()))
            .collect()
    }

    #[test]
    fn lane_kernels_match_scalar_references_at_all_tails() {
        // Lengths straddling every tail shape: 0..LANES leftovers.
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 31, 64, 1000, 1003] {
            let a: Vec<f64> = (0..n).map(|i| i as f64 * 0.5 - 3.0).collect();
            let b: Vec<f64> = (0..n).map(|i| (i * i) as f64 * 0.01).collect();
            let ab = bytes_of(&a);
            let bb = bytes_of(&b);

            let mut v1 = a.clone();
            let mut v2 = a.clone();
            add_assign_f64(&mut v1, &b);
            add_assign_f64_scalar(&mut v2, &b);
            assert_eq!(v1, v2, "add_assign_f64 n={n}");

            let mut v1 = a.clone();
            let mut v2 = a.clone();
            add_bytes_f64(&mut v1, &bb);
            add_bytes_f64_scalar(&mut v2, &bb);
            assert_eq!(v1, v2, "add_bytes_f64 n={n}");

            let mut d1 = ab.clone();
            add_bytes_assign(&mut d1, &bb);
            assert_eq!(f64s_of(&d1), v2, "add_bytes_assign n={n}");

            let mut d2 = vec![0u8; n * 8];
            add_bytes_into(&mut d2, &ab, &bb);
            assert_eq!(f64s_of(&d2), v2, "add_bytes_into n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_operands_are_rejected() {
        add_bytes_into(&mut [0u8; 16], &[0u8; 16], &[0u8; 8]);
    }
}
