//! A small fixed-capacity bit set used as the "done" mask in the
//! linearizability search. Supports histories of arbitrary size (one `u64`
//! word per 64 operations) and hashes cheaply for memoization keys.

/// A fixed-capacity bit set.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct BitSet {
    words: Box<[u64]>,
    len: usize,
}

impl BitSet {
    /// An empty set with capacity for `len` bits.
    pub fn new(len: usize) -> Self {
        BitSet { words: vec![0; len.div_ceil(64)].into_boxed_slice(), len }
    }

    /// Set bit `i`.
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Clear bit `i`.
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Test bit `i`.
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn set_clear_get() {
        let mut b = BitSet::new(130);
        assert!(!b.get(0));
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert_eq!((0..130).filter(|&i| b.get(i)).count(), 3);
        b.clear(64);
        assert!(!b.get(64));
        assert!(b.get(0) && b.get(129), "clearing one word leaves the others");
    }

    #[test]
    fn hashes_as_key() {
        let mut s = HashSet::new();
        let mut a = BitSet::new(100);
        a.set(7);
        let mut b = BitSet::new(100);
        b.set(7);
        s.insert(a);
        assert!(s.contains(&b));
    }
}
