//! ChaCha20 stream cipher per RFC 8439 §2.3–2.4.
//!
//! Whole 1 KiB groups of sixteen blocks go to the fastest lane core the
//! running CPU has — AVX-512F ([`avx512::xor_groups`]), then AVX2 (the
//! portable [`xor_groups`]) — chosen by feature detection on every call; the
//! rest, and everything on other CPUs, goes block by block. Every path yields
//! the same ciphertext.

/// ChaCha20 keystream generator / cipher.
///
/// Encryption and decryption are the same XOR operation; the encryption
/// capability stores the key and sends the 12-byte nonce in the glue header.
pub struct ChaCha20 {
    state: [u32; 16],
}

const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]; // "expand 32-byte k"

impl ChaCha20 {
    /// Creates a cipher from a 256-bit key, 96-bit nonce and initial counter.
    pub fn new(key: &[u8; 32], nonce: &[u8; 12], counter: u32) -> Self {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        for i in 0..8 {
            state[4 + i] =
                u32::from_le_bytes([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
        }
        state[12] = counter;
        for i in 0..3 {
            state[13 + i] = u32::from_le_bytes([
                nonce[4 * i],
                nonce[4 * i + 1],
                nonce[4 * i + 2],
                nonce[4 * i + 3],
            ]);
        }
        Self { state }
    }

    #[inline(always)]
    fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        s[a] = s[a].wrapping_add(s[b]);
        s[d] = (s[d] ^ s[a]).rotate_left(16);
        s[c] = s[c].wrapping_add(s[d]);
        s[b] = (s[b] ^ s[c]).rotate_left(12);
        s[a] = s[a].wrapping_add(s[b]);
        s[d] = (s[d] ^ s[a]).rotate_left(8);
        s[c] = s[c].wrapping_add(s[d]);
        s[b] = (s[b] ^ s[c]).rotate_left(7);
    }

    fn block(&self, counter: u32) -> [u8; 64] {
        let mut working = self.state;
        working[12] = counter;
        let initial = working;
        for _ in 0..10 {
            // column rounds
            Self::quarter_round(&mut working, 0, 4, 8, 12);
            Self::quarter_round(&mut working, 1, 5, 9, 13);
            Self::quarter_round(&mut working, 2, 6, 10, 14);
            Self::quarter_round(&mut working, 3, 7, 11, 15);
            // diagonal rounds
            Self::quarter_round(&mut working, 0, 5, 10, 15);
            Self::quarter_round(&mut working, 1, 6, 11, 12);
            Self::quarter_round(&mut working, 2, 7, 8, 13);
            Self::quarter_round(&mut working, 3, 4, 9, 14);
        }
        let mut out = [0u8; 64];
        for i in 0..16 {
            let word = working[i].wrapping_add(initial[i]);
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// One block per iteration from block `counter` on: the tail of every
    /// call, all of it where no [`Kernel`] runs on this CPU, and the
    /// reference the lane cores are tested against.
    fn apply_scalar(&self, mut counter: u32, data: &mut [u8]) {
        for chunk in data.chunks_mut(64) {
            let ks = self.block(counter);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
            counter = counter.wrapping_add(1);
        }
    }

    /// XORs the keystream into `data` in place, starting at the cipher's
    /// initial counter. Apply twice with the same key/nonce to decrypt.
    /// `data` may lie at any alignment; whole groups go to the first of
    /// `Kernel::FASTEST_FIRST` this CPU runs.
    pub fn apply(&self, data: &mut [u8]) {
        let counter = self.state[12];
        let done = Kernel::FASTEST_FIRST
            .into_iter()
            .find_map(|kernel| xor_groups_on(kernel, &self.state, counter, data))
            .unwrap_or(0);
        // `done` is a whole number of groups no longer than `data`; the
        // rest, under one group, goes block by block.
        self.apply_scalar(counter.wrapping_add((done / 64) as u32), &mut data[done..]);
    }
}

/// Blocks computed per iteration of the lane core, one per lane.
const LANES: usize = 16;

/// One state word of [`LANES`] consecutive blocks.
type Lanes = [u32; LANES];

/// Bytes the lane core covers per iteration.
const GROUP: usize = 64 * LANES;

#[inline(always)]
fn add(a: Lanes, b: Lanes) -> Lanes {
    std::array::from_fn(|l| a[l].wrapping_add(b[l]))
}

#[inline(always)]
fn xor_rotl<const R: u32>(a: Lanes, b: Lanes) -> Lanes {
    std::array::from_fn(|l| (a[l] ^ b[l]).rotate_left(R))
}

#[inline(always)]
fn quarter_round_lanes(x: &mut [Lanes; 16], a: usize, b: usize, c: usize, d: usize) {
    x[a] = add(x[a], x[b]);
    x[d] = xor_rotl::<16>(x[d], x[a]);
    x[c] = add(x[c], x[d]);
    x[b] = xor_rotl::<12>(x[b], x[c]);
    x[a] = add(x[a], x[b]);
    x[d] = xor_rotl::<8>(x[d], x[a]);
    x[c] = add(x[c], x[d]);
    x[b] = xor_rotl::<7>(x[b], x[c]);
}

/// The portable lane core: XORs the keystream into every whole [`GROUP`] of
/// [`LANES`] blocks at the front of `data`, block `counter` first, and
/// returns how many bytes that covered. Lane `l` of every state word belongs
/// to block `counter + l`, so each line of a quarter round is one operation
/// over sixteen independent blocks — a shape the compiler turns into vector
/// code wherever the target has a vector rotate, which plain x86-64 (SSE2)
/// does not: there this runs slower than [`ChaCha20::block`], so it is only
/// ever entered as [`Kernel::Avx2`]. Compiled for AVX-512 it runs no faster
/// than that, because the compiler turns the word-to-block transpose at the
/// end into gathers and scatters; [`avx512::xor_groups`] is the same
/// computation written with register shuffles instead.
#[inline(always)]
fn xor_groups(state: &[u32; 16], mut counter: u32, data: &mut [u8]) -> usize {
    let mut done = 0;
    for group in data.chunks_exact_mut(GROUP) {
        let mut initial: [Lanes; 16] = std::array::from_fn(|i| [state[i]; LANES]);
        for (l, c) in initial[12].iter_mut().enumerate() {
            *c = counter.wrapping_add(l as u32);
        }
        let mut x = initial;
        for _ in 0..10 {
            quarter_round_lanes(&mut x, 0, 4, 8, 12);
            quarter_round_lanes(&mut x, 1, 5, 9, 13);
            quarter_round_lanes(&mut x, 2, 6, 10, 14);
            quarter_round_lanes(&mut x, 3, 7, 11, 15);
            quarter_round_lanes(&mut x, 0, 5, 10, 15);
            quarter_round_lanes(&mut x, 1, 6, 11, 12);
            quarter_round_lanes(&mut x, 2, 7, 8, 13);
            quarter_round_lanes(&mut x, 3, 4, 9, 14);
        }
        for i in 0..16 {
            x[i] = add(x[i], initial[i]);
        }
        for (l, block) in group.chunks_exact_mut(64).enumerate() {
            for (i, word) in block.chunks_exact_mut(4).enumerate() {
                for (b, k) in word.iter_mut().zip(x[i][l].to_le_bytes()) {
                    *b ^= k;
                }
            }
        }
        counter = counter.wrapping_add(LANES as u32);
        done += GROUP;
    }
    done
}

/// A vector instance of the lane core, each covering whole [`GROUP`]s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kernel {
    /// [`avx512::xor_groups`]: one `zmm` register per state word.
    Avx512,
    /// [`xor_groups`] compiled with AVX2 enabled.
    Avx2,
}

impl Kernel {
    /// The order [`ChaCha20::apply`] tries them in.
    const FASTEST_FIRST: [Kernel; 2] = [Kernel::Avx512, Kernel::Avx2];
}

/// Runs `kernel` over the whole groups at the front of `data` and returns the
/// bytes it covered, or `None` when the running CPU (or the target) lacks
/// the kernel's instructions and the caller must try the next one.
#[allow(unsafe_code)]
fn xor_groups_on(
    kernel: Kernel,
    state: &[u32; 16],
    counter: u32,
    data: &mut [u8],
) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "avx2")]
        fn with_avx2(state: &[u32; 16], counter: u32, data: &mut [u8]) -> usize {
            xor_groups(state, counter, data)
        }
        match kernel {
            Kernel::Avx512 if std::arch::is_x86_feature_detected!("avx512f") => {
                // SAFETY: AVX-512F, the only feature `avx512::xor_groups`
                // enables, was detected on the running CPU.
                return Some(unsafe { avx512::xor_groups(state, counter, data) });
            }
            Kernel::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
                // SAFETY: AVX2, the only feature `with_avx2` enables, was
                // detected on the running CPU.
                return Some(unsafe { with_avx2(state, counter, data) });
            }
            _ => {}
        }
    }
    let _ = (kernel, state, counter, data); // unused off x86-64
    None
}

/// The lane core written for AVX-512F: the sixteen lanes of a state word are
/// the sixteen 32-bit elements of one `__m512i`, and the transpose from words
/// to blocks is done in registers.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{GROUP, LANES};
    use std::arch::x86_64::*;

    #[target_feature(enable = "avx512f")]
    #[inline]
    fn quarter_round(x: &mut [__m512i; 16], a: usize, b: usize, c: usize, d: usize) {
        x[a] = _mm512_add_epi32(x[a], x[b]);
        x[d] = _mm512_rol_epi32::<16>(_mm512_xor_si512(x[d], x[a]));
        x[c] = _mm512_add_epi32(x[c], x[d]);
        x[b] = _mm512_rol_epi32::<12>(_mm512_xor_si512(x[b], x[c]));
        x[a] = _mm512_add_epi32(x[a], x[b]);
        x[d] = _mm512_rol_epi32::<8>(_mm512_xor_si512(x[d], x[a]));
        x[c] = _mm512_add_epi32(x[c], x[d]);
        x[b] = _mm512_rol_epi32::<7>(_mm512_xor_si512(x[b], x[c]));
    }

    /// Turns sixteen registers that each hold one word of sixteen blocks into
    /// sixteen registers that each hold the sixteen words of one block.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn transpose(x: &[__m512i; 16]) -> [__m512i; 16] {
        // 128-bit lane k of every register covers blocks 4k..4k+3. First,
        // words 2p and 2p+1 side by side: blocks 4k, 4k+1 in `t[2p]`, blocks
        // 4k+2, 4k+3 in `t[2p+1]`.
        let mut t = [_mm512_setzero_si512(); 16];
        for p in 0..8 {
            t[2 * p] = _mm512_unpacklo_epi32(x[2 * p], x[2 * p + 1]);
            t[2 * p + 1] = _mm512_unpackhi_epi32(x[2 * p], x[2 * p + 1]);
        }
        // Then words 4q..4q+3 of block 4k+j in lane k of `r[q][j]`.
        let mut r = [[_mm512_setzero_si512(); 4]; 4];
        for (q, rq) in r.iter_mut().enumerate() {
            let (a, b) = (t[4 * q], t[4 * q + 2]);
            let (c, d) = (t[4 * q + 1], t[4 * q + 3]);
            rq[0] = _mm512_unpacklo_epi64(a, b);
            rq[1] = _mm512_unpackhi_epi64(a, b);
            rq[2] = _mm512_unpacklo_epi64(c, d);
            rq[3] = _mm512_unpackhi_epi64(c, d);
        }
        // Last, lane k of `r[0..4][j]` in order is block 4k+j. 0x88 picks
        // lanes 0 and 2 of each source, 0xdd lanes 1 and 3.
        let mut out = [_mm512_setzero_si512(); 16];
        for j in 0..4 {
            let s0 = _mm512_shuffle_i32x4::<0x88>(r[0][j], r[1][j]);
            let s1 = _mm512_shuffle_i32x4::<0xdd>(r[0][j], r[1][j]);
            let s2 = _mm512_shuffle_i32x4::<0x88>(r[2][j], r[3][j]);
            let s3 = _mm512_shuffle_i32x4::<0xdd>(r[2][j], r[3][j]);
            out[j] = _mm512_shuffle_i32x4::<0x88>(s0, s2);
            out[4 + j] = _mm512_shuffle_i32x4::<0x88>(s1, s3);
            out[8 + j] = _mm512_shuffle_i32x4::<0xdd>(s0, s2);
            out[12 + j] = _mm512_shuffle_i32x4::<0xdd>(s1, s3);
        }
        out
    }

    /// XORs one block's keystream into its 64 bytes.
    #[target_feature(enable = "avx512f")]
    #[inline]
    #[allow(unsafe_code)]
    fn xor_block(block: &mut [u8; 64], keystream: __m512i) {
        let p = block.as_mut_ptr().cast::<__m512i>();
        // SAFETY: `p` points at the 64 bytes of `block`, exactly one
        // `__m512i`, valid for reads and writes through the `&mut`; the
        // unaligned load and store ask no alignment of it.
        unsafe { _mm512_storeu_si512(p, _mm512_xor_si512(_mm512_loadu_si512(p), keystream)) }
    }

    /// [`super::xor_groups`]'s contract: XORs the keystream into every whole
    /// group at the front of `data`, block `counter` first, and returns the
    /// bytes covered.
    #[target_feature(enable = "avx512f")]
    pub(super) fn xor_groups(state: &[u32; 16], mut counter: u32, data: &mut [u8]) -> usize {
        let mut initial = [_mm512_setzero_si512(); 16];
        for (v, &word) in initial.iter_mut().zip(state) {
            *v = _mm512_set1_epi32(word as i32);
        }
        let lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let (groups, _) = data.as_chunks_mut::<GROUP>();
        for group in groups.iter_mut() {
            initial[12] = _mm512_add_epi32(_mm512_set1_epi32(counter as i32), lane);
            let mut x = initial;
            for _ in 0..10 {
                quarter_round(&mut x, 0, 4, 8, 12);
                quarter_round(&mut x, 1, 5, 9, 13);
                quarter_round(&mut x, 2, 6, 10, 14);
                quarter_round(&mut x, 3, 7, 11, 15);
                quarter_round(&mut x, 0, 5, 10, 15);
                quarter_round(&mut x, 1, 6, 11, 12);
                quarter_round(&mut x, 2, 7, 8, 13);
                quarter_round(&mut x, 3, 4, 9, 14);
            }
            for (w, i) in x.iter_mut().zip(initial) {
                *w = _mm512_add_epi32(*w, i);
            }
            let (blocks, _) = group.as_chunks_mut::<64>();
            for (block, keystream) in blocks.iter_mut().zip(transpose(&x)) {
                xor_block(block, keystream);
            }
            counter = counter.wrapping_add(LANES as u32);
        }
        groups.len() * GROUP
    }
}

/// One-shot in-place XOR encryption/decryption.
pub fn chacha20_xor(key: &[u8; 32], nonce: &[u8; 12], counter: u32, data: &mut [u8]) {
    ChaCha20::new(key, nonce, counter).apply(data);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rfc_key() -> [u8; 32] {
        let mut k = [0u8; 32];
        for (i, b) in k.iter_mut().enumerate() {
            *b = i as u8;
        }
        k
    }

    fn hex(s: &str) -> Vec<u8> {
        let digits: Vec<u8> =
            s.bytes().filter_map(|c| (c as char).to_digit(16)).map(|d| d as u8).collect();
        digits.chunks_exact(2).map(|p| p[0] << 4 | p[1]).collect()
    }

    // RFC 8439 §2.3.2 block function test vector, through the public entry
    // point: the keystream is what the cipher XORs into zeros.
    #[test]
    fn rfc8439_block_vector() {
        let nonce = [0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00];
        let mut block = [0u8; 64];
        chacha20_xor(&rfc_key(), &nonce, 1, &mut block);
        let expected = hex(
            "10f1e7e4d13b5915500fdd1fa32071c4 c7d1f4c733c068030422aa9ac3d46c4e
             d2826446079faa0914c2d705d98b02a2 b5129cd1de164eb9cbd083e8a2503c4e",
        );
        assert_eq!(&block[..], &expected[..]);
    }

    // RFC 8439 §2.4.2 encryption test vector.
    #[test]
    fn rfc8439_encryption_vector() {
        let key = rfc_key();
        let nonce = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let mut data = plaintext.to_vec();
        chacha20_xor(&key, &nonce, 1, &mut data);
        let expected = hex(
            "6e2e359a2568f98041ba0728dd0d6981 e97e7aec1d4360c20a27afccfd9fae0b
             f91b65c5524733ab8f593dabcd62b357 1639d624e65152ab8f530c359f0861d8
             07ca0dbf500d6a6156a38e088a22b65e 52bc514d16ccf806818ce91ab7793736
             5af90bbf74a35be6b40b8eedf2785e42 874d",
        );
        assert_eq!(data, expected);
        // decrypt
        chacha20_xor(&key, &nonce, 1, &mut data);
        assert_eq!(&data[..], &plaintext[..]);
    }

    /// `data` ciphered block by block with `block()` alone, from block
    /// `counter` on: the reference every faster path must equal.
    fn reference(key: &[u8; 32], nonce: &[u8; 12], counter: u32, data: &[u8]) -> Vec<u8> {
        let cipher = ChaCha20::new(key, nonce, counter);
        let mut out = data.to_vec();
        for (j, chunk) in out.chunks_mut(64).enumerate() {
            let ks = cipher.block(counter.wrapping_add(j as u32));
            chunk.iter_mut().zip(ks).for_each(|(b, k)| *b ^= k);
        }
        out
    }

    /// Every way bytes get ciphered — the public entry point, the scalar
    /// path, the lane core as compiled for the build's own target, and each
    /// [`Kernel`] the CPU running the test has — against a keystream
    /// assembled from `block()` alone. Prints which kernels it exercised, so
    /// a run on a CPU without one shows that it went unchecked there.
    #[test]
    fn lane_core_matches_scalar_blocks() {
        let key = rfc_key();
        let nonce = [9u8; 12];
        let mut exercised = Vec::new();
        for start in [0u32, 1, u32::MAX - 20, u32::MAX] {
            let cipher = ChaCha20::new(&key, &nonce, start);
            for n in [0usize, 1, 63, 64, 1023, 1024, 1025, 2048, 4099, 70_001] {
                let plain: Vec<u8> = (0..n).map(|i| (i * 131 % 251) as u8).collect();
                let expected = reference(&key, &nonce, start, &plain);
                let whole_groups = n - n % GROUP;

                let mut public = plain.clone();
                chacha20_xor(&key, &nonce, start, &mut public);
                assert_eq!(public, expected, "chacha20_xor, n={n} start={start}");

                let mut scalar = plain.clone();
                cipher.apply_scalar(start, &mut scalar);
                assert_eq!(scalar, expected, "apply_scalar, n={n} start={start}");

                let mut lanes = plain.clone();
                assert_eq!(xor_groups(&cipher.state, start, &mut lanes), whole_groups);
                assert_eq!(lanes[..whole_groups], expected[..whole_groups], "n={n} start={start}");
                assert_eq!(lanes[whole_groups..], plain[whole_groups..], "tail left alone");

                for kernel in Kernel::FASTEST_FIRST {
                    let mut out = plain.clone();
                    if let Some(done) = xor_groups_on(kernel, &cipher.state, start, &mut out) {
                        assert_eq!(done, whole_groups, "{kernel:?}");
                        assert_eq!(out, lanes, "{kernel:?}, n={n} start={start}");
                        if !exercised.contains(&kernel) {
                            exercised.push(kernel);
                        }
                    }
                }
            }
        }
        let names = |run: bool| -> Vec<&str> {
            let kernels = Kernel::FASTEST_FIRST.into_iter();
            let kernels = kernels.filter(|k| exercised.contains(k) == run);
            kernels.map(|k| if k == Kernel::Avx512 { "avx512f" } else { "avx2" }).collect()
        };
        println!(
            "chacha20 instances checked: {:?} + portable + scalar; not on this CPU: {:?}",
            names(true),
            names(false),
        );
    }

    /// Bodies are ciphered where they lie in a frame, at any offset: the
    /// kernels' loads and stores must not assume alignment.
    #[test]
    fn unaligned_views_match_reference() {
        let key = rfc_key();
        let nonce = [5u8; 12];
        for off in [1usize, 4, 60] {
            for n in [64usize, 1024, 4096 + 17, 70_001] {
                let mut buf: Vec<u8> = (0..off + n).map(|i| (i * 7 % 253) as u8).collect();
                let before = buf.clone();
                chacha20_xor(&key, &nonce, 3, &mut buf[off..]);
                assert_eq!(buf[..off], before[..off], "prefix left alone, off={off}");
                let expected = reference(&key, &nonce, 3, &before[off..]);
                assert_eq!(buf[off..], expected, "off={off} n={n}");
            }
        }
    }

    #[test]
    fn roundtrip_various_sizes() {
        let key = rfc_key();
        let nonce = [7u8; 12];
        for n in [0usize, 1, 63, 64, 65, 128, 1000] {
            let original: Vec<u8> = (0..n).map(|i| (i * 31 % 256) as u8).collect();
            let mut data = original.clone();
            chacha20_xor(&key, &nonce, 0, &mut data);
            if n > 0 {
                assert_ne!(data, original, "ciphertext must differ (n={n})");
            }
            chacha20_xor(&key, &nonce, 0, &mut data);
            assert_eq!(data, original, "roundtrip failed (n={n})");
        }
    }

    #[test]
    fn different_nonces_produce_different_ciphertext() {
        let key = rfc_key();
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        chacha20_xor(&key, &[1u8; 12], 0, &mut a);
        chacha20_xor(&key, &[2u8; 12], 0, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn counter_offsets_keystream() {
        let key = rfc_key();
        let nonce = [3u8; 12];
        let mut two_blocks = vec![0u8; 128];
        chacha20_xor(&key, &nonce, 0, &mut two_blocks);
        let mut second = vec![0u8; 64];
        chacha20_xor(&key, &nonce, 1, &mut second);
        assert_eq!(&two_blocks[64..], &second[..]);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn key_nonce_data() -> impl Strategy<Value = ([u8; 32], [u8; 12], Vec<u8>)> {
            (
                prop::collection::vec(any::<u8>(), 32..33),
                prop::collection::vec(any::<u8>(), 12..13),
                prop::collection::vec(any::<u8>(), 0..5_001),
            )
                .prop_map(|(k, n, data)| (k.try_into().unwrap(), n.try_into().unwrap(), data))
        }

        fn counters() -> impl Strategy<Value = u32> {
            prop_oneof![any::<u32>(), (u32::MAX - 40)..=u32::MAX]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn matches_block_by_block_reference(
                (key, nonce, data) in key_nonce_data(),
                counter in counters(),
            ) {
                let mut out = data.clone();
                chacha20_xor(&key, &nonce, counter, &mut out);
                prop_assert_eq!(out, reference(&key, &nonce, counter, &data));
            }

            #[test]
            fn split_at_a_block_boundary_continues_the_stream(
                (key, nonce, data) in key_nonce_data(),
                counter in counters(),
                cut in 0usize..80,
            ) {
                let mid = (cut * 64).min(data.len() / 64 * 64);
                let mut whole = data.clone();
                chacha20_xor(&key, &nonce, counter, &mut whole);
                let mut split = data.clone();
                let (head, tail) = split.split_at_mut(mid);
                chacha20_xor(&key, &nonce, counter, head);
                chacha20_xor(&key, &nonce, counter.wrapping_add((mid / 64) as u32), tail);
                prop_assert_eq!(split, whole);
            }
        }
    }
}
