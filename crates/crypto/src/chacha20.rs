//! ChaCha20 stream cipher per RFC 8439 §2.3–2.4.

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
    /// call, all of it where [`xor_groups_avx2`] declines, and the reference
    /// the lane core is tested against.
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
    pub fn apply(&self, data: &mut [u8]) {
        let counter = self.state[12];
        let done = xor_groups_avx2(&self.state, counter, data).unwrap_or(0);
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

/// The lane core: XORs the keystream into every whole [`GROUP`] of [`LANES`]
/// blocks at the front of `data`, block `counter` first, and returns how many
/// bytes that covered. Lane `l` of every state word belongs to block
/// `counter + l`, so each line of a quarter round is one operation over
/// sixteen independent blocks — a shape the compiler turns into vector code
/// wherever the target has a vector rotate, which plain x86-64 (SSE2) does
/// not: there this runs slower than [`ChaCha20::block`], so it is only ever
/// entered through [`xor_groups_avx2`].
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

/// [`xor_groups`] compiled with AVX2 enabled, or `None` when the running CPU
/// (or the target) has no AVX2 and the caller must use the scalar path.
#[allow(unsafe_code)]
fn xor_groups_avx2(state: &[u32; 16], counter: u32, data: &mut [u8]) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    {
        /// # Safety
        /// The running CPU must support AVX2.
        #[target_feature(enable = "avx2")]
        unsafe fn with_avx2(state: &[u32; 16], counter: u32, data: &mut [u8]) -> usize {
            xor_groups(state, counter, data)
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support, `with_avx2`'s only requirement, was
            // detected on the running CPU on the line above.
            return Some(unsafe { with_avx2(state, counter, data) });
        }
    }
    let _ = (state, counter, data); // unused off x86-64
    None
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

    /// Every way bytes get ciphered — the public entry point, the scalar
    /// path, the lane core as compiled for the build's own target, and the
    /// lane core as compiled for AVX2 (where the CPU running the test has it)
    /// — against a keystream assembled from `block()` alone.
    #[test]
    fn lane_core_matches_scalar_blocks() {
        let key = rfc_key();
        let nonce = [9u8; 12];
        for start in [0u32, 1, u32::MAX - 20, u32::MAX] {
            let cipher = ChaCha20::new(&key, &nonce, start);
            for n in [0usize, 1, 63, 64, 1023, 1024, 1025, 2048, 4099, 70_001] {
                let plain: Vec<u8> = (0..n).map(|i| (i * 131 % 251) as u8).collect();
                let mut expected = plain.clone();
                for (j, chunk) in expected.chunks_mut(64).enumerate() {
                    let ks = cipher.block(start.wrapping_add(j as u32));
                    chunk.iter_mut().zip(ks).for_each(|(b, k)| *b ^= k);
                }
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

                let mut avx2 = plain.clone();
                if let Some(done) = xor_groups_avx2(&cipher.state, start, &mut avx2) {
                    assert_eq!(done, whole_groups);
                    assert_eq!(avx2, lanes, "avx2 instance, n={n} start={start}");
                }
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
}
