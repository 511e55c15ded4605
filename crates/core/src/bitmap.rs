//! Per-span allocation bitmaps (§4.1).
//!
//! Every MiniHeap carries a bitmap with one bit per object slot: bit `i` is
//! set iff the slot at offset `i` is unavailable (allocated, or currently
//! owned by an attached shuffle vector). Bits are manipulated atomically
//! because non-local frees may originate from any thread (§3.2), while the
//! meshability test — *do two spans collide anywhere?* — reduces to a
//! word-wise `AND` over the two bitmaps (Definition 5.1).
//!
//! A span holds at most 256 objects (§4.2), so four 64-bit words suffice;
//! the bitmap is a fixed-size inline array with no heap allocation.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of 64-bit words backing the bitmap.
const WORDS: usize = 4;

/// Maximum number of bits (= maximum objects per span).
pub const MAX_BITS: usize = WORDS * 64;

/// A fixed-capacity atomic bitmap of up to 256 bits.
///
/// # Examples
///
/// ```
/// use mesh_core::bitmap::AtomicBitmap;
///
/// let bm = AtomicBitmap::new(128);
/// assert!(bm.try_set(3));
/// assert!(!bm.try_set(3), "second set must fail");
/// assert_eq!(bm.in_use(), 1);
/// assert!(bm.unset(3));
/// assert_eq!(bm.in_use(), 0);
/// ```
#[derive(Debug)]
pub struct AtomicBitmap {
    words: [AtomicU64; WORDS],
    len: u16,
}

impl AtomicBitmap {
    /// Creates a bitmap tracking `len` slots, all initially clear
    /// (the paper's "initialized to objectCount zero bits", §4.1).
    ///
    /// # Panics
    ///
    /// Panics if `len > 256`.
    pub fn new(len: usize) -> Self {
        assert!(len <= MAX_BITS, "bitmap supports at most {MAX_BITS} bits");
        AtomicBitmap {
            words: [
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ],
            len: len as u16,
        }
    }

    /// Number of tracked slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the bitmap tracks zero slots (never true for real spans).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn check(&self, bit: usize) {
        assert!(bit < self.len as usize, "bit {bit} out of range {}", self.len);
    }

    /// Atomically sets `bit`; returns `true` if this call changed it from
    /// clear to set (the reference implementation's `bitmap.tryToSet`).
    ///
    /// # Panics
    ///
    /// Panics if `bit >= len`.
    #[inline]
    pub fn try_set(&self, bit: usize) -> bool {
        self.check(bit);
        let mask = 1u64 << (bit % 64);
        let prev = self.words[bit / 64].fetch_or(mask, Ordering::AcqRel);
        prev & mask == 0
    }

    /// Atomically clears `bit`; returns `true` if this call changed it from
    /// set to clear. A `false` return on a free path indicates a double
    /// free (§4.4.4 discovers those via the bitmap).
    ///
    /// # Panics
    ///
    /// Panics if `bit >= len`.
    #[inline]
    pub fn unset(&self, bit: usize) -> bool {
        self.check(bit);
        let mask = 1u64 << (bit % 64);
        let prev = self.words[bit / 64].fetch_and(!mask, Ordering::AcqRel);
        prev & mask != 0
    }

    /// Returns whether `bit` is currently set.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= len`.
    #[inline]
    pub fn is_set(&self, bit: usize) -> bool {
        self.check(bit);
        self.words[bit / 64].load(Ordering::Acquire) & (1u64 << (bit % 64)) != 0
    }

    /// Number of set bits (objects in use).
    #[inline]
    pub fn in_use(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Acquire).count_ones() as usize)
            .sum()
    }

    /// Snapshot of the backing words (bits past `len` are zero by
    /// invariant). Used by the mesher to test candidates without holding
    /// references into the atomics.
    #[inline]
    pub fn load_words(&self) -> [u64; WORDS] {
        [
            self.words[0].load(Ordering::Acquire),
            self.words[1].load(Ordering::Acquire),
            self.words[2].load(Ordering::Acquire),
            self.words[3].load(Ordering::Acquire),
        ]
    }

    /// The meshability predicate of Definition 5.1: two spans mesh iff no
    /// slot is set in both bitmaps.
    #[inline]
    pub fn meshes_with(&self, other: &AtomicBitmap) -> bool {
        let a = self.load_words();
        let b = other.load_words();
        (a[0] & b[0]) | (a[1] & b[1]) | (a[2] & b[2]) | (a[3] & b[3]) == 0
    }

    /// Atomically sets every clear bit below `count` with one `fetch_or`
    /// per word, and returns the bits this call claimed (clear before,
    /// set by it): the word-wise form of calling [`try_set`] on each
    /// slot, as a shuffle-vector attach does (§4.1).
    ///
    /// [`try_set`]: AtomicBitmap::try_set
    ///
    /// # Panics
    ///
    /// Panics if `count > len`.
    #[inline]
    pub fn claim_clear(&self, count: usize) -> [u64; WORDS] {
        assert!(count <= self.len as usize, "claim of {count} bits past len {}", self.len);
        let mut claimed = [0; WORDS];
        for (i, w) in self.words.iter().enumerate() {
            let valid = word_mask(count, i);
            if valid != 0 {
                claimed[i] = valid & !w.fetch_or(valid, Ordering::AcqRel);
            }
        }
        claimed
    }

    /// Atomically clears every bit set in `bits`, one `fetch_and` per
    /// non-zero word; returns whether all of them were set. A shuffle
    /// vector's detach releases its unconsumed claims this way.
    #[inline]
    pub fn release(&self, bits: &[u64; WORDS]) -> bool {
        let mut all_set = true;
        for (i, (w, &b)) in self.words.iter().zip(bits).enumerate() {
            debug_assert_eq!(b & !word_mask(self.len as usize, i), 0, "release past len");
            if b != 0 {
                all_set &= w.fetch_and(!b, Ordering::AcqRel) & b == b;
            }
        }
        all_set
    }

    /// Iterates over the indices of set bits, ascending.
    pub fn iter_set(&self) -> SetBits {
        SetBits {
            words: self.load_words(),
            word_idx: 0,
            len: self.len as usize,
        }
    }

    /// Iterates over the indices of clear bits, ascending.
    pub fn iter_clear(&self) -> ClearBits {
        let mut words = self.load_words();
        for (i, w) in words.iter_mut().enumerate() {
            // Invert, masking off bits beyond `len`.
            *w = !*w & word_mask(self.len as usize, i);
        }
        ClearBits(SetBits {
            words,
            word_idx: 0,
            len: self.len as usize,
        })
    }

    /// Clears every bit.
    pub fn clear_all(&self) {
        for w in &self.words {
            w.store(0, Ordering::Release);
        }
    }
}

/// The bits of word `i` that lie below `count`.
#[inline]
pub(crate) fn word_mask(count: usize, i: usize) -> u64 {
    let base = i * 64;
    if count >= base + 64 {
        u64::MAX
    } else if count <= base {
        0
    } else {
        (1u64 << (count - base)) - 1
    }
}

/// Iterator over set-bit indices, produced by [`AtomicBitmap::iter_set`].
#[derive(Debug, Clone)]
pub struct SetBits {
    words: [u64; WORDS],
    word_idx: usize,
    len: usize,
}

impl Iterator for SetBits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.word_idx < WORDS {
            let w = self.words[self.word_idx];
            if w == 0 {
                self.word_idx += 1;
                continue;
            }
            let bit = w.trailing_zeros() as usize;
            self.words[self.word_idx] = w & (w - 1); // clear lowest set bit
            let idx = self.word_idx * 64 + bit;
            if idx >= self.len {
                return None;
            }
            return Some(idx);
        }
        None
    }
}

/// Iterator over clear-bit indices, produced by [`AtomicBitmap::iter_clear`].
#[derive(Debug, Clone)]
pub struct ClearBits(SetBits);

impl Iterator for ClearBits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        self.0.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn set_unset_roundtrip() {
        let bm = AtomicBitmap::new(256);
        for i in 0..256 {
            assert!(!bm.is_set(i));
            assert!(bm.try_set(i));
            assert!(bm.is_set(i));
        }
        assert_eq!(bm.in_use(), 256);
        for i in 0..256 {
            assert!(bm.unset(i));
            assert!(!bm.is_set(i));
        }
        assert_eq!(bm.in_use(), 0);
    }

    #[test]
    fn double_set_and_double_unset_detected() {
        let bm = AtomicBitmap::new(64);
        assert!(bm.try_set(10));
        assert!(!bm.try_set(10));
        assert!(bm.unset(10));
        assert!(!bm.unset(10), "double free must be detectable");
    }

    #[test]
    fn meshes_with_disjoint_and_overlapping() {
        let a = AtomicBitmap::new(128);
        let b = AtomicBitmap::new(128);
        a.try_set(0);
        a.try_set(100);
        b.try_set(1);
        b.try_set(99);
        assert!(a.meshes_with(&b));
        assert!(b.meshes_with(&a));
        b.try_set(100);
        assert!(!a.meshes_with(&b));
    }

    #[test]
    fn empty_bitmaps_always_mesh() {
        let a = AtomicBitmap::new(8);
        let b = AtomicBitmap::new(8);
        assert!(a.meshes_with(&b));
    }

    #[test]
    fn iter_set_matches_contents() {
        let bm = AtomicBitmap::new(200);
        let bits = [0usize, 1, 63, 64, 65, 127, 128, 199];
        for &b in &bits {
            bm.try_set(b);
        }
        let got: Vec<usize> = bm.iter_set().collect();
        assert_eq!(got, bits);
    }

    #[test]
    fn iter_clear_is_complement() {
        let bm = AtomicBitmap::new(70);
        for i in (0..70).step_by(2) {
            bm.try_set(i);
        }
        let clear: Vec<usize> = bm.iter_clear().collect();
        assert_eq!(clear, (1..70).step_by(2).collect::<Vec<_>>());
    }

    #[test]
    fn iter_clear_respects_len_boundary() {
        // Bits past len must never be reported clear.
        for len in [1usize, 63, 64, 65, 130, 256] {
            let bm = AtomicBitmap::new(len);
            assert_eq!(bm.iter_clear().count(), len, "len={len}");
            assert_eq!(bm.iter_set().count(), 0);
        }
    }

    #[test]
    fn concurrent_try_set_claims_each_bit_once() {
        let bm = Arc::new(AtomicBitmap::new(256));
        let mut handles = vec![];
        let winners = Arc::new(std::sync::Mutex::new(vec![0u8; 256]));
        for _ in 0..8 {
            let bm = Arc::clone(&bm);
            let winners = Arc::clone(&winners);
            handles.push(std::thread::spawn(move || {
                let mut mine = vec![];
                for i in 0..256 {
                    if bm.try_set(i) {
                        mine.push(i);
                    }
                }
                let mut w = winners.lock().unwrap();
                for i in mine {
                    w[i] += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let w = winners.lock().unwrap();
        assert!(w.iter().all(|&c| c == 1), "every bit claimed exactly once");
        assert_eq!(bm.in_use(), 256);
    }

    #[test]
    fn claim_clear_and_release_by_word() {
        let bm = AtomicBitmap::new(170);
        bm.try_set(3);
        bm.try_set(64);
        bm.try_set(169);
        let claimed = bm.claim_clear(170);
        assert_eq!(claimed[0], !(1 << 3));
        assert_eq!(claimed[1], !1);
        assert_eq!(claimed[2], (1 << 41) - 1, "bits 128..169 minus 169");
        assert_eq!(claimed[3], 0, "nothing at or past len");
        assert_eq!(bm.in_use(), 170);
        assert_eq!(bm.claim_clear(170), [0; WORDS], "second claim finds nothing");
        assert!(bm.release(&claimed));
        assert_eq!(bm.iter_set().collect::<Vec<_>>(), vec![3, 64, 169]);
        assert!(!bm.release(&claimed), "releasing clear bits is reported");
        // A shorter claim leaves the bits above `count` alone.
        let bm = AtomicBitmap::new(256);
        assert_eq!(bm.claim_clear(100), [u64::MAX, (1 << 36) - 1, 0, 0]);
        assert_eq!(bm.in_use(), 100);
    }

    #[test]
    #[should_panic(expected = "past len")]
    fn claim_past_len_panics() {
        AtomicBitmap::new(10).claim_clear(11);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        AtomicBitmap::new(8).is_set(8);
    }

    #[test]
    fn clear_all_resets() {
        let bm = AtomicBitmap::new(100);
        for i in 0..100 {
            bm.try_set(i);
        }
        bm.clear_all();
        assert_eq!(bm.in_use(), 0);
    }
}
