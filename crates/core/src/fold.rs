//! The batched, word-packed fold engine for bit-vector reports.
//!
//! Per-report folding adds a bit-vector report byte at a time (`m` adds
//! per report). This module provides the two primitives that turn a
//! *batch* of bit reports into word operations; `idldp-stream`'s
//! `ShapedAccumulator::accumulate_batch` builds on them for bit reports:
//!
//! * [`pack_bits_row`] — packs a 0/1 byte-per-slot report into `u64` words
//!   (64 slots per word, LSB-first) with a carry-free multiply-gather, so
//!   a row enters the fold as `m/64` words instead of `m` bytes.
//! * [`BitPlanes`] — a SWAR bit-sliced counter: eight `u64` bit-planes per
//!   64-slot lane accumulate packed rows with a carry-save add (no
//!   per-slot loop), and spill into ordinary `u64` counts. The **spill
//!   invariant**: eight planes hold per-slot partial sums up to 255, so at
//!   most 255 rows may be pending between spills — [`BitPlanes::add_row`]
//!   enforces this by spilling automatically.
//!
//! Both are pure integer arithmetic, so folds routed through them are
//! **bit-identical** to the scalar per-report fold
//! ([`crate::report::Report::fold_into`]) — the streaming conformance and
//! property suites assert exactly that. Hashed (OLH) reports have no
//! batched path: every client draws a fresh seed, so nothing computed for
//! one report can be reused for the next, and they fold one at a time
//! through [`crate::report::Report::fold_into`].

use crate::error::{Error, Result};

/// Number of `u64` words needed to pack `slots` bits.
#[inline]
pub fn packed_words(slots: usize) -> usize {
    slots.div_ceil(64)
}

/// Every byte's low bit must be the whole byte: a 0/1 lane mask.
const LANE_MASK: u64 = 0x0101_0101_0101_0101;

/// Multiply-gather constant: collects the LSB of each of 8 little-endian
/// bytes into the top byte of the product. All 64 partial-product bits
/// land on distinct positions (`8j − 7i` collides only at `j − j' = 7t`,
/// `i − i' = 8t`, impossible in `0..8`), so the gather is carry-free.
const GATHER: u64 = 0x0102_0408_1020_4080;

/// Packs a 0/1 byte-per-slot bit report into `u64` words, 64 slots per
/// word, slot `i` at bit `i % 64` of word `i / 64` (LSB-first). Padding
/// bits beyond `bits.len()` are zero. Eight slots are gathered per `u64`
/// load via a carry-free multiply, so packing is `O(m/8)` word work.
///
/// # Errors
/// Returns an error if `words` is not exactly [`packed_words`]`(bits.len())`
/// long or any slot is not 0/1 (`words` may be partially written on
/// failure; callers treat any error as validation failure and discard).
pub fn pack_bits_row(bits: &[u8], words: &mut [u64]) -> Result<()> {
    if words.len() != packed_words(bits.len()) {
        return Err(Error::DimensionMismatch {
            what: "packed row width (words)".into(),
            expected: packed_words(bits.len()),
            actual: words.len(),
        });
    }
    words.fill(0);
    let mut chunks = bits.chunks_exact(8);
    for (i, chunk) in (&mut chunks).enumerate() {
        let x = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        if x & !LANE_MASK != 0 {
            return Err(Error::ParameterOrdering {
                detail: "bit report slots must be 0/1".into(),
            });
        }
        words[i / 8] |= (x.wrapping_mul(GATHER) >> 56) << ((i % 8) * 8);
    }
    let base = bits.len() - chunks.remainder().len();
    for (j, &b) in chunks.remainder().iter().enumerate() {
        if b > 1 {
            return Err(Error::ParameterOrdering {
                detail: "bit report slots must be 0/1".into(),
            });
        }
        let bit = base + j;
        words[bit / 64] |= u64::from(b) << (bit % 64);
    }
    Ok(())
}

/// SWAR bit-sliced counter: eight `u64` bit-planes over `⌈slots/64⌉`-word
/// lanes. Each packed 0/1 row is added with a carry-save ripple across the
/// planes (word-parallel — no per-slot loop), and the per-slot partial
/// sums (each ≤ 255) are spilled into ordinary `u64` counts on demand.
#[derive(Clone, Debug)]
pub struct BitPlanes {
    /// Plane `p` occupies `planes[p * words .. (p + 1) * words]`.
    planes: Vec<u64>,
    words: usize,
    slots: usize,
    pending: u32,
}

impl BitPlanes {
    /// Eight planes hold per-slot sums up to `2^8 − 1`: the spill
    /// invariant caps pending rows at 255 between spills.
    pub const MAX_PENDING_ROWS: u32 = 255;

    /// An empty counter over `slots` slots.
    ///
    /// # Panics
    /// Panics if `slots == 0`.
    pub fn new(slots: usize) -> Self {
        assert!(slots > 0, "bit-plane counter needs at least one slot");
        let words = packed_words(slots);
        Self {
            planes: vec![0; 8 * words],
            words,
            slots,
            pending: 0,
        }
    }

    /// Number of slots counted per row.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Rows added since the last spill (always ≤ 255).
    pub fn pending_rows(&self) -> u32 {
        self.pending
    }

    /// Adds one packed 0/1 row (as produced by [`pack_bits_row`]). Spills
    /// into `counts` first if the 255-row plane capacity is reached, so the
    /// spill invariant holds by construction.
    ///
    /// # Panics
    /// Panics if `row` is not `⌈slots/64⌉` words or `counts` is not
    /// `slots` long.
    pub fn add_row(&mut self, row: &[u64], counts: &mut [u64]) {
        assert_eq!(row.len(), self.words, "packed row width");
        if self.pending == Self::MAX_PENDING_ROWS {
            self.spill_into(counts);
        }
        for (w, &bits) in row.iter().enumerate() {
            let mut carry = bits;
            let mut p = 0usize;
            while carry != 0 {
                debug_assert!(p < 8, "spill invariant violated: plane overflow");
                let plane = &mut self.planes[p * self.words + w];
                let t = *plane & carry;
                *plane ^= carry;
                carry = t;
                p += 1;
            }
        }
        self.pending += 1;
    }

    /// Adds the pending per-slot sums into `counts` and resets the planes.
    ///
    /// # Panics
    /// Panics if `counts` is not `slots` long.
    pub fn spill_into(&mut self, counts: &mut [u64]) {
        assert_eq!(counts.len(), self.slots, "spill target width");
        if self.pending == 0 {
            return;
        }
        for p in 0..8 {
            let weight = 1u64 << p;
            for w in 0..self.words {
                let mut bits = std::mem::take(&mut self.planes[p * self.words + w]);
                while bits != 0 {
                    let slot = w * 64 + bits.trailing_zeros() as usize;
                    debug_assert!(slot < self.slots, "padding bits must stay zero");
                    counts[slot] += weight;
                    bits &= bits - 1;
                }
            }
        }
        self.pending = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::hash_bucket;

    /// Deterministic 0/1 stream (no external RNG in unit tests).
    fn bit(i: usize, salt: u64) -> u8 {
        (hash_bucket(salt, i, 2)) as u8
    }

    #[test]
    fn pack_matches_naive_for_awkward_widths() {
        for slots in [1usize, 7, 8, 9, 63, 64, 65, 100, 128, 130] {
            let bits: Vec<u8> = (0..slots).map(|i| bit(i, 42)).collect();
            let mut words = vec![u64::MAX; packed_words(slots)];
            pack_bits_row(&bits, &mut words).unwrap();
            for (i, &b) in bits.iter().enumerate() {
                let got = (words[i / 64] >> (i % 64)) & 1;
                assert_eq!(got, u64::from(b), "slots={slots} bit {i}");
            }
            // Padding bits beyond `slots` are zero.
            let used = slots % 64;
            if used != 0 {
                assert_eq!(words[slots / 64] >> used, 0, "slots={slots} padding");
            }
        }
    }

    #[test]
    fn pack_rejects_non_binary_and_wrong_width() {
        for bad_at in [0usize, 5, 8, 63, 64, 66] {
            let mut bits = vec![0u8; 67];
            bits[bad_at] = 2;
            let mut words = vec![0u64; packed_words(67)];
            assert!(pack_bits_row(&bits, &mut words).is_err(), "slot {bad_at}");
        }
        let mut words = vec![0u64; 1];
        assert!(pack_bits_row(&[0u8; 65], &mut words).is_err());
    }

    #[test]
    fn bit_planes_match_scalar_sums_across_spills() {
        // 700 rows > 2 × 255 forces automatic spills mid-stream.
        let slots = 130;
        let mut planes = BitPlanes::new(slots);
        assert_eq!(planes.slots(), slots);
        let mut counts = vec![0u64; slots];
        let mut want = vec![0u64; slots];
        let mut row = vec![0u64; packed_words(slots)];
        for r in 0..700usize {
            let bits: Vec<u8> = (0..slots).map(|i| bit(i + r * slots, 7)).collect();
            for (w, &b) in want.iter_mut().zip(&bits) {
                *w += u64::from(b);
            }
            pack_bits_row(&bits, &mut row).unwrap();
            planes.add_row(&row, &mut counts);
            assert!(planes.pending_rows() <= BitPlanes::MAX_PENDING_ROWS);
        }
        planes.spill_into(&mut counts);
        assert_eq!(counts, want);
        assert_eq!(planes.pending_rows(), 0);
        // A second spill is a no-op.
        planes.spill_into(&mut counts);
        assert_eq!(counts, want);
    }
}
