//! Validity bitmap used by [`crate::Column`] to track nulls, and by filter
//! kernels to represent selection masks without materialising boolean
//! vectors.

/// A densely packed bitmap over `len` bits backed by `u64` words.
///
/// Bit `i` set means "valid" (for validity maps) or "selected" (for filter
/// masks). Trailing bits beyond `len` in the last word are kept zero so that
/// [`Bitmap::count_ones`] and word-level operations stay exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// Create a bitmap of `len` bits, all cleared.
    pub fn new_cleared(len: usize) -> Self {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Create a bitmap of `len` bits, all set.
    pub fn new_set(len: usize) -> Self {
        let mut bm = Bitmap {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        bm.mask_tail();
        bm
    }

    /// Create a bitmap from a boolean slice.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut bm = Bitmap::new_cleared(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                bm.set(i);
            }
        }
        bm
    }

    /// Create a bitmap of `len` bits where bit `i` is `f(i)`, calling `f`
    /// in ascending order and building each word in a register.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let words = (0..len.div_ceil(64))
            .map(|w| {
                let bits = w * 64..(w * 64 + 64).min(len);
                bits.fold(0, |word, i| word | u64::from(f(i)) << (i % 64))
            })
            .collect();
        Bitmap { words, len }
    }

    /// Set bit `start + k` for every `k` where `pred(cells[k])` holds;
    /// other bits keep their value. The typed predicate kernels' inner
    /// loop: each word is built in a register from up to 64 cells of a
    /// fixed-size chunk and or-ed in once.
    ///
    /// # Panics
    /// Panics when the cells reach past `len`.
    pub fn set_where<T: Copy>(
        &mut self,
        start: usize,
        cells: &[T],
        mut pred: impl FnMut(T) -> bool,
    ) {
        assert!(start + cells.len() <= self.len, "bit range out of range");
        let mut pack = |cells: &[T]| {
            cells
                .iter()
                .enumerate()
                .fold(0u64, |word, (k, &cell)| word | u64::from(pred(cell)) << k)
        };
        // The cells before the next word boundary, then whole words.
        let head = ((64 - start % 64) % 64).min(cells.len());
        let (head_cells, rest) = cells.split_at(head);
        if head > 0 {
            self.words[start / 64] |= pack(head_cells) << (start % 64);
        }
        let first = (start + head) / 64;
        let (chunks, tail) = rest.as_chunks::<64>();
        for (word, chunk) in self.words[first..].iter_mut().zip(chunks) {
            *word |= pack(chunk);
        }
        if !tail.is_empty() {
            self.words[first + chunks.len()] |= pack(tail);
        }
    }

    /// Set every bit in `[start, end)`, a word at a time.
    ///
    /// # Panics
    /// Panics when the range is inverted or reaches past `len`.
    pub fn set_range(&mut self, start: usize, end: usize) {
        assert!(start <= end && end <= self.len, "bit range out of range");
        let mut i = start;
        while i < end {
            let word = i / 64;
            let (lo, hi) = (i % 64, (end - word * 64).min(64));
            let span = if hi - lo == 64 {
                u64::MAX
            } else {
                ((1u64 << (hi - lo)) - 1) << lo
            };
            self.words[word] |= span;
            i = (word + 1) * 64;
        }
    }

    /// Bits `[start, start + len)` as a bitmap of their own: a copy of
    /// whole words, as `start` is a multiple of 64 (or the range empty).
    ///
    /// # Panics
    /// Panics when a non-empty range is not word-aligned or the range
    /// reaches past `len`.
    pub(crate) fn slice_aligned(&self, start: usize, len: usize) -> Bitmap {
        assert!(
            (start.is_multiple_of(64) || len == 0) && start + len <= self.len,
            "unaligned bit slice"
        );
        if len == 0 {
            return Bitmap::new_cleared(0);
        }
        let first = start / 64;
        let mut bm = Bitmap {
            words: self.words[first..first + len.div_ceil(64)].to_vec(),
            len,
        };
        bm.mask_tail();
        bm
    }

    /// `parts` laid end to end, each non-empty one but the last a multiple
    /// of 64 bits long, so their words are copied as they are.
    ///
    /// # Panics
    /// Panics when a non-empty part follows one that is not a whole number
    /// of words.
    pub(crate) fn concat_aligned(parts: impl IntoIterator<Item = Bitmap>) -> Bitmap {
        let mut out = Bitmap::new_cleared(0);
        for part in parts.into_iter().filter(|part| part.len > 0) {
            assert!(out.len.is_multiple_of(64), "unaligned bitmap part");
            out.words.extend_from_slice(&part.words);
            out.len += part.len;
        }
        out
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of bits tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap tracks zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set bit `i`.
    ///
    /// # Panics
    /// Panics when `i >= len`.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clear bit `i`.
    ///
    /// # Panics
    /// Panics when `i >= len`.
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Read bit `i`.
    ///
    /// # Panics
    /// Panics when `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Count of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when every bit is set.
    pub fn all_set(&self) -> bool {
        self.count_ones() == self.len
    }

    /// True when no bit is set.
    pub fn none_set(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Bitwise AND with another bitmap of the same length.
    ///
    /// # Panics
    /// Panics when lengths differ.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        Bitmap {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
            len: self.len,
        }
    }

    /// Bitwise OR with another bitmap of the same length.
    ///
    /// # Panics
    /// Panics when lengths differ.
    pub fn or(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        Bitmap {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a | b)
                .collect(),
            len: self.len,
        }
    }

    /// Or `other` into this bitmap's first `other.len()` bits, a word at a
    /// time; the bits past it keep their value.
    ///
    /// # Panics
    /// Panics when `other` is the longer.
    pub(crate) fn or_prefix(&mut self, other: &Bitmap) {
        assert!(other.len <= self.len, "bitmap length mismatch");
        for (word, &bits) in self.words.iter_mut().zip(&other.words) {
            *word |= bits;
        }
    }

    /// Bitwise NOT (within `len`).
    pub fn not(&self) -> Bitmap {
        let mut bm = Bitmap {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        bm.mask_tail();
        bm
    }

    /// The backing words, bit `i` at `words[i / 64] >> (i % 64)`; the bits
    /// past `len` are zero.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterate over the indices of set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }

    /// Collect set-bit indices into a vector (row selection order).
    pub fn ones(&self) -> Vec<usize> {
        self.iter_ones().collect()
    }

    /// Append a bit, growing the bitmap by one.
    pub fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
        if bit {
            self.set(self.len - 1);
        }
    }

    /// Extend with all bits of `other`, a word at a time.
    pub fn extend_from(&mut self, other: &Bitmap) {
        self.extend_from_range(other, 0, other.len);
    }

    /// Extend with bits `[start, end)` of `other`, a word at a time: the
    /// validity half of a column append or slice.
    ///
    /// # Panics
    /// Panics when the range is inverted or reaches past `other.len()`.
    pub fn extend_from_range(&mut self, other: &Bitmap, start: usize, end: usize) {
        assert!(start <= end && end <= other.len, "bit range out of range");
        self.words.reserve((end - start).div_ceil(64));
        let mut at = start;
        while at < end {
            let n = (end - at).min(64);
            self.push_bits(other.bits_at(at, n), n);
            at += n;
        }
    }

    /// Extend with `n` copies of `bit`.
    pub fn extend_with(&mut self, bit: bool, n: usize) {
        let start = self.len;
        self.len += n;
        self.words.resize(self.len.div_ceil(64), 0);
        if bit {
            self.set_range(start, self.len);
        }
    }

    /// Bit `i` of the result is bit `indices[i]` of this bitmap.
    ///
    /// # Panics
    /// Panics when an index is out of range.
    pub fn gather<I: crate::column::RowId>(&self, indices: &[I]) -> Bitmap {
        // Learning that every bit is set costs a pass over the words; it
        // pays for itself only on a selection at least that long.
        if indices.len() >= self.words.len() && self.all_set() {
            assert!(
                indices.iter().all(|i| i.row() < self.len),
                "bit index out of range {}",
                self.len
            );
            return Bitmap::new_set(indices.len());
        }
        Bitmap::from_fn(indices.len(), |k| self.get(indices[k].row()))
    }

    /// The `n <= 64` bits starting at `start`, in the low bits of a word.
    fn bits_at(&self, start: usize, n: usize) -> u64 {
        let (word, shift) = (start / 64, start % 64);
        let mut bits = self.words[word] >> shift;
        if shift + n > 64 {
            bits |= self.words[word + 1] << (64 - shift);
        }
        if n < 64 {
            bits &= (1u64 << n) - 1;
        }
        bits
    }

    /// Append the low `n <= 64` bits of `bits`; the bits above `n` are zero.
    fn push_bits(&mut self, bits: u64, n: usize) {
        let shift = self.len % 64;
        if shift == 0 {
            self.words.push(bits);
        } else {
            *self.words.last_mut().expect("a partial last word") |= bits << shift;
            if shift + n > 64 {
                self.words.push(bits >> (64 - shift));
            }
        }
        self.len += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear_roundtrip() {
        let mut bm = Bitmap::new_cleared(130);
        assert_eq!(bm.len(), 130);
        bm.set(0);
        bm.set(64);
        bm.set(129);
        assert!(bm.get(0) && bm.get(64) && bm.get(129));
        assert!(!bm.get(1) && !bm.get(65));
        assert_eq!(bm.count_ones(), 3);
        bm.clear(64);
        assert!(!bm.get(64));
        assert_eq!(bm.count_ones(), 2);
    }

    #[test]
    fn new_set_masks_tail() {
        let bm = Bitmap::new_set(70);
        assert_eq!(bm.count_ones(), 70);
        assert!(bm.all_set());
        let inv = bm.not();
        assert!(inv.none_set());
    }

    #[test]
    fn and_or_not() {
        let a = Bitmap::from_bools(&[true, true, false, false]);
        let b = Bitmap::from_bools(&[true, false, true, false]);
        assert_eq!(a.and(&b).ones(), vec![0]);
        assert_eq!(a.or(&b).ones(), vec![0, 1, 2]);
        assert_eq!(a.not().ones(), vec![2, 3]);
        let mut long = Bitmap::from_fn(130, |i| i == 129);
        long.or_prefix(&Bitmap::from_fn(70, |i| i % 65 == 0));
        assert_eq!(long.ones(), vec![0, 65, 129]);
    }

    #[test]
    fn iter_ones_crosses_word_boundary() {
        let mut bm = Bitmap::new_cleared(200);
        for i in [0usize, 63, 64, 127, 128, 199] {
            bm.set(i);
        }
        assert_eq!(bm.ones(), vec![0, 63, 64, 127, 128, 199]);
    }

    #[test]
    fn from_fn_and_range_fills_cross_word_boundaries() {
        let bm = Bitmap::from_fn(150, |i| i % 3 == 0);
        assert_eq!(bm.ones(), (0..150).step_by(3).collect::<Vec<_>>());
        for (start, end) in [(0, 0), (3, 9), (60, 70), (0, 64), (64, 128), (5, 150)] {
            let mut bm = Bitmap::new_cleared(150);
            bm.set_range(start, end);
            assert_eq!(
                bm.ones(),
                (start..end).collect::<Vec<_>>(),
                "{start}..{end}"
            );
        }
        let mut bm = Bitmap::new_cleared(150);
        bm.set(1);
        let cells: Vec<usize> = (60..70).collect();
        bm.set_where(60, &cells, |i| i % 2 == 0);
        assert_eq!(bm.ones(), vec![1, 60, 62, 64, 66, 68]);
    }

    #[test]
    fn set_where_matches_bit_sets_at_every_alignment() {
        let cells: Vec<u32> = (0..300).map(|i| (i * 7 + i / 5) % 3).collect();
        for start in [0, 1, 63, 64, 65, 127, 130] {
            for len in [0, 1, 63, 64, 65, 128, 170] {
                let mut fast = Bitmap::from_fn(400, |i| i % 11 == 0);
                let mut slow = fast.clone();
                fast.set_where(start, &cells[..len], |c| c == 0);
                for (k, &c) in cells[..len].iter().enumerate() {
                    if c == 0 {
                        slow.set(start + k);
                    }
                }
                assert_eq!(fast, slow, "start {start} len {len}");
            }
        }
    }

    #[test]
    fn push_and_extend() {
        let mut bm = Bitmap::new_cleared(0);
        assert!(bm.is_empty());
        for i in 0..100 {
            bm.push(i % 3 == 0);
        }
        assert_eq!(bm.len(), 100);
        assert_eq!(bm.count_ones(), 34);
        let mut other = Bitmap::new_cleared(0);
        other.extend_from(&bm);
        assert_eq!(other, bm);
    }

    #[test]
    fn word_level_extends_match_bit_pushes() {
        let src = Bitmap::from_fn(300, |i| i % 3 == 0 || i % 7 == 2);
        for prefix in [0, 1, 63, 64, 65, 130] {
            for (start, end) in [
                (0, 0),
                (0, 300),
                (5, 6),
                (1, 65),
                (63, 129),
                (64, 128),
                (70, 299),
            ] {
                let mut fast = Bitmap::from_fn(prefix, |i| i % 2 == 0);
                let mut slow = fast.clone();
                fast.extend_from_range(&src, start, end);
                for i in start..end {
                    slow.push(src.get(i));
                }
                assert_eq!(fast, slow, "prefix {prefix} range {start}..{end}");
            }
            for bit in [false, true] {
                let mut fast = Bitmap::from_fn(prefix, |i| i % 2 == 0);
                let mut slow = fast.clone();
                fast.extend_with(bit, 77);
                (0..77).for_each(|_| slow.push(bit));
                assert_eq!(fast, slow, "prefix {prefix} bit {bit}");
            }
        }
    }

    #[test]
    fn gather_reorders_and_repeats() {
        let bm = Bitmap::from_bools(&[true, false, true]);
        assert_eq!(bm.gather(&[1usize, 0, 0, 2]).ones(), vec![1, 2, 3]);
        assert_eq!(Bitmap::new_set(3).gather(&[2u32, 2]), Bitmap::new_set(2));
        assert!(bm.gather::<usize>(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gather_checks_indices_of_an_all_set_bitmap() {
        Bitmap::new_set(3).gather(&[3usize]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        let bm = Bitmap::new_cleared(3);
        bm.get(3);
    }
}
