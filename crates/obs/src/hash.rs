//! The hashes the crates share: the word-at-a-time frame payload checksum
//! and scenario fingerprint, plus the one copy of FNV-1a and SplitMix64.
//!
//! Both are built from one mixing step over 64-bit words,
//!
//! ```text
//! step(lane, word) = ((lane ^ word) · K).rotate_left(R)     K odd
//! ```
//!
//! which is a bijection in `lane` for a fixed `word` and in `word` for a
//! fixed `lane`. A change confined to one word therefore changes that
//! lane, every later step keeps it changed, and the final avalanche
//! (murmur3's `fmix64`, a bijection too) keeps the output changed: any
//! single-word change — in particular any single-byte or single-bit
//! mutation — always changes the hash. The rotate is what stops two
//! top-bit flips from cancelling: multiplying by an odd `K` maps an XOR
//! difference of `2^63` to itself, so without it a second top-bit flip
//! entering the same lane would undo the first, as it does in word-wise
//! FNV-1a.
//!
//! - [`checksum`] hashes bytes in four independent lanes over 32-byte
//!   blocks, so the multiply chains overlap: ~0.06 ns per byte against
//!   ~1.5 ns for byte-serial FNV-1a on a 2-vCPU Xeon virtual machine. The
//!   length, the four lanes in order and the zero-padded tail are then
//!   folded with [`WordHasher`]. It is the wire-v4 frame checksum:
//!   changing it changes the bytes on the wire, and its unit tests pin its
//!   values.
//! - [`WordHasher`] is one lane fed word by word by callers that already
//!   hold structured 64-bit values (ETC bits, assignments, option fields),
//!   as the serving layer's scenario and curve fingerprints do.
//!
//! - [`fnv1a`] and its streaming form [`Fnv1a`] are byte-serial FNV-1a 64:
//!   the chaos site keys, the Pareto-front and response digests, and the
//!   byte hash callers apply to encoded payloads.
//! - [`splitmix64`] is SplitMix64's finalizer, one well-mixed word from
//!   one word: trace ids, chaos draws and the solver's seed jitter.
//!
//! None is a cryptographic hash or a defence against crafted collisions:
//! the checksum catches torn and corrupted frames, and every fingerprint
//! hit is re-checked for exact identity by its caller.

/// The odd multiplier of [`step`] (the 64-bit golden ratio).
const K: u64 = 0x9e37_79b9_7f4a_7c15;
/// The rotate of [`step`].
const R: u32 = 31;
/// Initial value of a [`WordHasher`].
const SEED: u64 = 0x4528_21e6_38d0_1377;
/// Initial values of the four [`checksum`] lanes.
const LANE_SEEDS: [u64; LANES] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];
/// Independent lanes of [`checksum`].
const LANES: usize = 4;
/// Bytes per [`checksum`] block: one word per lane.
const BLOCK: usize = 8 * LANES;

/// One mixing step; a bijection in each argument when the other is fixed.
#[inline(always)]
fn step(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(K).rotate_left(R)
}

/// Murmur3's 64-bit finalizer: a bijection that spreads every input bit
/// over the whole output.
#[inline]
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// A one-lane hash over a stream of 64-bit words.
#[derive(Clone, Debug)]
pub struct WordHasher(u64);

impl WordHasher {
    /// A hasher that has seen no words.
    pub fn new() -> WordHasher {
        WordHasher(SEED)
    }

    /// Feeds one word.
    #[inline]
    pub fn u64(&mut self, word: u64) {
        self.0 = step(self.0, word);
    }

    /// The hash of every word fed so far.
    pub fn finish(&self) -> u64 {
        fmix64(self.0)
    }
}

impl Default for WordHasher {
    fn default() -> Self {
        WordHasher::new()
    }
}

/// FNV-1a 64 over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(bytes);
    h.finish()
}

/// Streaming FNV-1a 64: feeding bytes in any split hashes like one
/// [`fnv1a`] call over their concatenation.
#[derive(Clone, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher that has seen no bytes (state = the FNV offset basis).
    pub fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds bytes, one FNV-1a step each.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Feeds one word as its 8 little-endian bytes.
    pub fn u64(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    /// The hash of every byte fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// SplitMix64's finalizer: a bijection on `u64` that spreads adjacent
/// inputs over the whole output range.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The 64-bit checksum of `bytes` (little-endian words, four lanes over
/// 32-byte blocks). Any change confined to one aligned 8-byte word
/// changes it, and so does any change of length.
pub fn checksum(bytes: &[u8]) -> u64 {
    let (blocks, tail) = bytes.as_chunks::<BLOCK>();
    let mut lanes = LANE_SEEDS;
    for block in blocks {
        for (lane, word) in lanes.iter_mut().zip(block.as_chunks::<8>().0) {
            *lane = step(*lane, u64::from_le_bytes(*word));
        }
    }
    let mut h = WordHasher::new();
    h.u64(bytes.len() as u64);
    for lane in lanes {
        h.u64(lane);
    }
    for part in tail.chunks(8) {
        let mut word = [0u8; 8];
        word[..part.len()].copy_from_slice(part);
        h.u64(u64::from_le_bytes(word));
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 5790 bytes (the size of a 64-move probe request frame on a 64×8
    /// scenario) from a fixed linear congruential sequence.
    fn fixed_buffer() -> Vec<u8> {
        let mut x: u32 = 2003;
        (0..5790)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (x >> 24) as u8
            })
            .collect()
    }

    fn flip(bytes: &[u8], bits: &[usize]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        for &bit in bits {
            out[bit / 8] ^= 1 << (bit % 8);
        }
        out
    }

    /// The checksum is wire contract: a change to it must fail here and
    /// bump the frame version.
    #[test]
    fn checksum_values_are_pinned() {
        assert_eq!(checksum(b""), 0x9d3c_6f5a_20fb_10eb);
        assert_eq!(checksum(&fixed_buffer()), 0x385e_4475_577d_7d49);
        let mut h = WordHasher::new();
        for w in [64, 8, 1.2f64.to_bits(), u64::MAX] {
            h.u64(w);
        }
        assert_eq!(h.finish(), 0xe60d_2ccb_e97a_d65b);
    }

    /// The published FNV-1a 64 test vectors; the streaming form agrees
    /// with the one-shot form across any split of the input.
    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv1a::new();
        h.bytes(b"foo");
        h.bytes(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
        let mut h = Fnv1a::new();
        h.u64(0x0807_0605_0403_0201);
        assert_eq!(h.finish(), fnv1a(&[1, 2, 3, 4, 5, 6, 7, 8]));
    }

    #[test]
    fn top_bit_flips_in_two_words_do_not_cancel() {
        let buf = fixed_buffer();
        let base = checksum(&buf);
        let top = |word: usize| word * 64 + 63;
        // Words 0 and 4 share lane 0 in consecutive blocks; words 0 and 1
        // sit in lanes 0 and 1; words 720 and 722 are in the tail (the
        // buffer is 180 blocks and 30 bytes).
        for (a, b) in [(0, 4), (0, 1), (8, 722), (4, 720), (720, 722)] {
            assert_ne!(checksum(&flip(&buf, &[top(a), top(b)])), base, "{a},{b}");
        }

        let words: Vec<u64> = (0..16u64).map(|i| i.wrapping_mul(K)).collect();
        let hash = |ws: &[u64]| {
            let mut h = WordHasher::new();
            ws.iter().for_each(|&w| h.u64(w));
            h.finish()
        };
        let base = hash(&words);
        for (a, b) in [(0, 1), (3, 11)] {
            let mut m = words.clone();
            m[a] ^= 1 << 63;
            m[b] ^= 1 << 63;
            assert_ne!(hash(&m), base, "{a},{b}");
        }
        // Without the rotate the same two flips cancel: this is the
        // word-wise FNV-1a failure the rotate exists to prevent.
        let fnv = |ws: &[u64]| {
            ws.iter()
                .fold(SEED, |h, &w| (h ^ w).wrapping_mul(0x100_0000_01b3))
        };
        let mut m = words.clone();
        m[0] ^= 1 << 63;
        m[1] ^= 1 << 63;
        assert_eq!(fnv(&m), fnv(&words));
    }

    #[test]
    fn length_changes_change_the_checksum() {
        let buf = fixed_buffer();
        let base = checksum(&buf);
        let mut longer = buf.clone();
        longer.push(0);
        assert_ne!(checksum(&longer), base);
        assert_ne!(checksum(&buf[..buf.len() - 1]), base);

        // Runs of zeros of every length up to three blocks are distinct,
        // across the block boundaries and the zero-padded tail.
        let zeros = [0u8; 3 * BLOCK + 1];
        let mut seen = std::collections::HashSet::new();
        for n in 0..=zeros.len() {
            assert!(seen.insert(checksum(&zeros[..n])), "length {n} collides");
        }
    }

    #[test]
    fn every_bit_of_a_short_input_reaches_the_checksum() {
        // All block/tail splits of short inputs: 0..=2 blocks plus tails.
        let buf = fixed_buffer();
        for len in 1..=2 * BLOCK + 9 {
            let base = checksum(&buf[..len]);
            for bit in 0..len * 8 {
                assert_ne!(checksum(&flip(&buf[..len], &[bit])), base, "{len}:{bit}");
            }
        }
    }
}
