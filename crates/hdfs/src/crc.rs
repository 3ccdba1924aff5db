//! CRC-32 (IEEE 802.3 polynomial, bit-reflected), the checksum of every
//! snapshot manifest.
//!
//! Two implementations compute the same value. On x86-64 CPUs with
//! PCLMULQDQ and SSE4.1 (checked at run time, on first use), inputs of at
//! least [`clmul::MIN_LEN`] bytes fold 128-bit lanes by carry-less
//! multiplication and finish with a Barrett reduction, after Intel's
//! "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ" (2009)
//! as zlib and crc32fast implement it. Everything else goes through the
//! slicing-by-8 tables. Both continue a CRC across calls, so a file stored
//! as pieces is checked piece by piece without joining it.

/// The reflected IEEE 802.3 CRC-32 polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables, built at compile time: `CRC32_TABLES[0]` is the
/// classic byte-at-a-time table, and `CRC32_TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `data`: by carry-less
/// multiplication where the CPU has it and the input is long enough,
/// otherwise through the slicing-by-8 tables. Dependency-free; checks
/// every snapshot write and restore.
pub fn crc32(data: &[u8]) -> u32 {
    update(0, data)
}

/// The CRC-32 of the bytes `crc` was computed over followed by `data`:
/// `update(crc32(a), b) == crc32(a ++ b)`, and `update(0, b) == crc32(b)`.
pub(crate) fn update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= clmul::MIN_LEN && clmul::available() {
        // SAFETY: `available` just found PCLMULQDQ and SSE4.1 on this CPU,
        // and `data` is at least `MIN_LEN` bytes long.
        return unsafe { clmul::update(crc, data) };
    }
    table(crc, data)
}

/// [`update`] through the slicing-by-8 tables: eight bytes per step, then
/// the tail byte by byte.
fn table(crc: u32, data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = !crc;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

/// The carry-less-multiply fold.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// Shortest input [`update`] takes: the four lanes it starts with and
    /// one round of folding them, as in zlib and crc32fast; shorter inputs
    /// are faster through the tables.
    pub(super) const MIN_LEN: usize = 128;

    // Folding constants: x^d mod P(x) for the distance d in bits a fold
    // moves a 64-bit half, bit-reflected and shifted left by one.
    /// Four lanes on: d = 4·128 + 32.
    const K1: i64 = 0x1_5444_2bd4;
    /// Four lanes on: d = 4·128 − 32.
    const K2: i64 = 0x1_c6e4_1596;
    /// One lane on: d = 128 + 32.
    const K3: i64 = 0x1_7519_97d0;
    /// One lane on: d = 128 − 32.
    const K4: i64 = 0x0_ccaa_009e;
    /// 96 to 64 bits: d = 64.
    const K5: i64 = 0x1_63cd_6124;
    /// P(x) itself, reflected, for the Barrett reduction.
    const P_X: i64 = 0x1_db71_0641;
    /// μ = ⌊x^64 / P(x)⌋, reflected, for the Barrett reduction.
    const MU: i64 = 0x1_f701_1641;

    /// Whether this CPU runs [`update`]. The standard library probes the
    /// CPU once, on the first call, and caches the answer.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// [`super::update`] by carry-less multiplication: four 128-bit
    /// lanes absorb 64 bytes per round, fold into one lane, absorb the
    /// remaining whole lanes, reduce to 64 bits and then, by Barrett
    /// reduction, to the 32-bit CRC; the last bytes of a partial lane go
    /// through the tables.
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ and SSE4.1: call this only after
    /// [`available`] returned `true`. `data` must be at least [`MIN_LEN`]
    /// bytes long (a shorter input panics, it is not unsound).
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    pub(super) unsafe fn update(crc: u32, data: &[u8]) -> u32 {
        // Every intrinsic below needs at most SSE2, PCLMULQDQ or SSE4.1,
        // which the caller guarantees; the only memory access is `lane`'s
        // load, which checks its bounds.
        let (head, rest) = data.split_at(64);
        let mut x = [lane(head, 0), lane(head, 1), lane(head, 2), lane(head, 3)];
        // The CRC so far enters as its register (its complement), added
        // to the first four bytes.
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(!crc as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut blocks = rest.chunks_exact(64);
        for block in &mut blocks {
            for (i, x) in x.iter_mut().enumerate() {
                *x = fold(*x, lane(block, i), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold(fold(fold(x[0], x[1], k3k4), x[2], k3k4), x[3], k3k4);
        let mut lanes = blocks.remainder().chunks_exact(16);
        for l in &mut lanes {
            acc = fold(acc, lane(l, 0), k3k4);
        }
        // 128 to 96 bits: the low half times K4, plus the high half.
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(acc, k3k4),
            _mm_srli_si128::<8>(acc),
        );
        // 96 to 64 bits: the low 32 bits times K5, plus the rest.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(acc),
        );
        // Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P, and the CRC
        // register is the upper 32 bits of the low half of R + T2.
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
        let register = _mm_extract_epi32::<1>(_mm_xor_si128(acc, t2)) as u32;
        super::table(!register, lanes.remainder())
    }

    /// `x` carried 128 bits (or 512 with the four-lane keys) further
    /// along, plus the lane `next`: each 64-bit half of `x` times its key.
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold(x: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(x, keys);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Lane `i` of `block`: bytes `16·i .. 16·i + 16`, as one vector.
    #[inline]
    fn lane(block: &[u8], i: usize) -> __m128i {
        let bytes = &block[16 * i..16 * i + 16];
        // SAFETY: `bytes` is 16 readable bytes (the slice above checked
        // it), and an unaligned load takes them at any address; SSE2 is
        // part of every x86-64 CPU.
        unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference every implementation must agree with: one bit per
    /// step.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc ^= byte as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC32_POLY & mask);
            }
        }
        !crc
    }

    /// `len` pseudo-random bytes from `seed` (xorshift64*).
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s ^= s >> 12;
                s ^= s << 25;
                s ^= s >> 27;
                (s.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    /// Every implementation this CPU runs: the tables always, the fold
    /// where it is available (and only on inputs it takes).
    fn implementations(crc: u32, data: &[u8]) -> Vec<(&'static str, u32)> {
        let mut out = vec![("table", table(crc, data)), ("crc32", update(crc, data))];
        #[cfg(target_arch = "x86_64")]
        if data.len() >= clmul::MIN_LEN && clmul::available() {
            // SAFETY: `available` found the features, and the input is
            // long enough.
            out.push(("clmul", unsafe { clmul::update(crc, data) }));
        }
        out
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        for (name, crc) in implementations(0, b"123456789") {
            assert_eq!(crc, 0xCBF4_3926, "{name}");
        }
    }

    /// The fold and the tables equal the bitwise CRC at every length from
    /// 0 to 4 KiB and every start alignment from 0 to 15 bytes, each from
    /// a fresh start and continuing the CRC of a prefix: every split into
    /// four-lane rounds, single lanes and a byte tail.
    #[test]
    fn every_length_and_alignment_matches_the_bitwise_reference() {
        let buf = noise(42, 4096 + 16);
        let prefix = b"GFCK\x02";
        let step = |mut reg: u32, byte: u8| {
            reg ^= byte as u32;
            for _ in 0..8 {
                reg = (reg >> 1) ^ (CRC32_POLY & (reg & 1).wrapping_neg());
            }
            reg
        };
        let after_prefix = prefix.iter().fold(!0, |reg, &b| step(reg, b));
        for offset in 0..16 {
            // The bitwise CRCs of every prefix, alone and after `prefix`,
            // in one pass.
            let (mut fresh, mut continued) = (!0u32, after_prefix);
            let mut want = vec![(!fresh, !continued)];
            for &byte in &buf[offset..offset + 4096] {
                (fresh, continued) = (step(fresh, byte), step(continued, byte));
                want.push((!fresh, !continued));
            }
            for (len, &(fresh, continued)) in want.iter().enumerate() {
                let s = &buf[offset..offset + len];
                for (name, got) in implementations(0, s) {
                    assert_eq!(got, fresh, "{name}, offset {offset}, length {len}");
                }
                for (name, got) in implementations(!after_prefix, s) {
                    assert_eq!(
                        got, continued,
                        "continued {name}, offset {offset}, length {len}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Slicing-by-8 equals the bitwise CRC for any length up to 4 KiB
        /// starting at every offset within an 8-byte word, so every split
        /// into whole 8-byte steps and a byte tail is exercised.
        #[test]
        fn crc32_matches_the_bitwise_reference(
            buf in prop::collection::vec(any::<u8>(), 4096 + 8),
            len in 0usize..=4096,
        ) {
            for offset in 0..8 {
                let s = &buf[offset..offset + len];
                prop_assert_eq!(crc32(s), crc32_bitwise(s));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// On random buffers of 1–16 MB every implementation equals the
        /// bitwise CRC.
        #[test]
        fn large_buffers_match_the_bitwise_reference(
            seed in any::<u64>(),
            len in (1usize << 20)..=(16 << 20),
        ) {
            let buf = noise(seed, len);
            let want = crc32_bitwise(&buf);
            for (name, got) in implementations(0, &buf) {
                prop_assert_eq!(got, want, "{}", name);
            }
        }
    }
}
