//! Packed bitmasks — the entries of the CSB mask array.

use std::fmt;

/// A fixed-length packed bitmask with rank (prefix-popcount) queries.
///
/// One `BitMask` is a CSB tensor's whole mask array, one bit per dense
/// slot; `rank` turns a dense coordinate into an offset into the packed
/// weight array, which is exactly the decode step the Procrustes PE
/// performs when consuming masks (Fig 14 of the paper shows the per-PE
/// mask memory).
///
/// # Examples
///
/// ```
/// use procrustes_sparse::BitMask;
/// // The paper's Fig 8 example mask: 101001101.
/// let m = BitMask::from_fn(9, |i| [0, 2, 5, 6, 8].contains(&i));
/// assert_eq!(m.count_ones(), 5);
/// assert_eq!(m.rank(6), 3); // W_d is the 4th packed value (offset 3)
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitMask {
    words: Vec<u64>,
    len: usize,
}

impl BitMask {
    /// Creates an all-zero mask of `len` bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates a mask where bit `i` is `f(i)`.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut m = Self::zeros(len);
        for i in 0..len {
            if f(i) {
                m.set(i, true);
            }
        }
        m
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the mask has zero bits of capacity.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Value of bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "BitMask::get: index {i} out of {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "BitMask::set: index {i} out of {}", self.len);
        if value {
            self.words[i / 64] |= 1 << (i % 64);
        } else {
            self.words[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of set bits strictly before position `i` — the packed-array
    /// offset of the value stored at dense slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i > len()` (`i == len()` is allowed and returns the total
    /// popcount).
    pub fn rank(&self, i: usize) -> usize {
        assert!(
            i <= self.len,
            "BitMask::rank: index {i} out of {}",
            self.len
        );
        let full_words = i / 64;
        let mut count: usize = self.words[..full_words]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        let rem = i % 64;
        if rem > 0 {
            count += (self.words[full_words] & ((1u64 << rem) - 1)).count_ones() as usize;
        }
        count
    }

    /// Iterates over the positions of set bits, in increasing order.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            words: &self.words,
            next_word: 0,
            current: 0,
            base: 0,
        }
    }
}

/// Iterator over set-bit positions (see [`BitMask::iter_ones`]): walks
/// word by word and pops bits with `trailing_zeros`, so the cost scales
/// with `words + ones` rather than the dense bit count — the decode
/// speed [`CsbTensor::to_dense`](crate::CsbTensor::to_dense) relies on.
pub struct IterOnes<'a> {
    words: &'a [u64],
    next_word: usize,
    current: u64,
    base: usize,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            let &w = self.words.get(self.next_word)?;
            self.current = w;
            self.base = self.next_word * 64;
            self.next_word += 1;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.base + bit)
    }
}

impl fmt::Debug for BitMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitMask[")?;
        for i in 0..self.len.min(64) {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        if self.len > 64 {
            write!(f, "… ({} bits)", self.len)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
impl BitMask {
    /// Creates a mask from explicit bits.
    fn from_bits(bits: &[bool]) -> Self {
        Self::from_fn(bits.len(), |i| bits[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut m = BitMask::zeros(130);
        m.set(0, true);
        m.set(63, true);
        m.set(64, true);
        m.set(129, true);
        assert!(m.get(0) && m.get(63) && m.get(64) && m.get(129));
        assert!(!m.get(1) && !m.get(65));
        assert_eq!(m.count_ones(), 4);
        m.set(64, false);
        assert!(!m.get(64));
        assert_eq!(m.count_ones(), 3);
    }

    #[test]
    fn rank_counts_prefix_ones() {
        let m = BitMask::from_bits(&[true, false, true, true, false, true]);
        assert_eq!(m.rank(0), 0);
        assert_eq!(m.rank(1), 1);
        assert_eq!(m.rank(3), 2);
        assert_eq!(m.rank(6), 4);
    }

    #[test]
    fn rank_across_word_boundary() {
        let m = BitMask::from_fn(200, |i| i % 3 == 0);
        for i in [0, 1, 63, 64, 65, 127, 128, 199, 200] {
            let expect = (0..i).filter(|j| j % 3 == 0).count();
            assert_eq!(m.rank(i), expect, "rank({i})");
        }
    }

    #[test]
    fn iter_ones_matches_get() {
        let m = BitMask::from_fn(77, |i| i % 5 == 2);
        let ones: Vec<usize> = m.iter_ones().collect();
        assert_eq!(ones, (0..77).filter(|i| i % 5 == 2).collect::<Vec<_>>());
    }

    #[test]
    fn paper_figure8_mask() {
        // M1 = 101001101 from Fig 8: five nonzeros Wa..We.
        let m = BitMask::from_bits(&[true, false, true, false, false, true, true, false, true]);
        assert_eq!(m.count_ones(), 5);
        // Packed offsets of each nonzero slot:
        assert_eq!(m.rank(0), 0); // Wa
        assert_eq!(m.rank(2), 1); // Wb
        assert_eq!(m.rank(5), 2); // Wc
        assert_eq!(m.rank(6), 3); // Wd
        assert_eq!(m.rank(8), 4); // We
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn get_out_of_bounds_panics() {
        BitMask::zeros(4).get(4);
    }

    #[test]
    fn debug_is_nonempty() {
        let m = BitMask::from_bits(&[true, false]);
        assert_eq!(format!("{m:?}"), "BitMask[10]");
    }
}
