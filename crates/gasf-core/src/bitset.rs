//! Packed bitsets for the selection hot path.
//!
//! The engines and solvers track two kinds of small-index membership:
//! which *filters* receive a tuple (recipient labels, group membership)
//! and which *candidate sets* of a region a tuple covers. Both were
//! hash-set shaped in the original data path; here they are packed into
//! `u64` blocks — [`BitSet`] over raw indices and [`FilterSet`] as its
//! [`FilterId`]-typed wrapper. A group of up
//! to 64 filters fits in a single block, so membership tests, unions and
//! cardinalities are single-word operations with no hashing and no
//! allocation beyond one small `Vec`.
//!
//! Invariant: trailing all-zero blocks are always trimmed, so structural
//! equality (`==`, `Hash`) coincides with set equality.

use crate::candidate::FilterId;
use serde::{Deserialize, Serialize};
use std::fmt;

const BLOCK_BITS: usize = 64;

/// A growable packed bitset over `usize` indices.
#[derive(Debug, Default, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BitSet {
    blocks: Vec<u64>,
}

impl BitSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        BitSet::default()
    }

    /// Creates an empty set pre-sized for indices `0..capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        BitSet {
            blocks: Vec::with_capacity(capacity.div_ceil(BLOCK_BITS)),
        }
    }

    /// Inserts an index; returns whether it was newly inserted.
    pub fn insert(&mut self, index: usize) -> bool {
        let (block, bit) = (index / BLOCK_BITS, index % BLOCK_BITS);
        if block >= self.blocks.len() {
            self.blocks.resize(block + 1, 0);
        }
        let mask = 1u64 << bit;
        let fresh = self.blocks[block] & mask == 0;
        self.blocks[block] |= mask;
        fresh
    }

    /// Removes an index; returns whether it was present.
    pub fn remove(&mut self, index: usize) -> bool {
        let (block, bit) = (index / BLOCK_BITS, index % BLOCK_BITS);
        let Some(b) = self.blocks.get_mut(block) else {
            return false;
        };
        let mask = 1u64 << bit;
        let present = *b & mask != 0;
        *b &= !mask;
        if present {
            self.trim();
        }
        present
    }

    /// Whether the index is in the set.
    pub fn contains(&self, index: usize) -> bool {
        let (block, bit) = (index / BLOCK_BITS, index % BLOCK_BITS);
        self.blocks
            .get(block)
            .is_some_and(|b| b & (1u64 << bit) != 0)
    }

    /// Number of indices in the set.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Removes every index.
    pub fn clear(&mut self) {
        self.blocks.clear();
    }

    /// Adds every index of `other` to `self`.
    pub fn union_with(&mut self, other: &BitSet) {
        if other.blocks.len() > self.blocks.len() {
            self.blocks.resize(other.blocks.len(), 0);
        }
        for (dst, src) in self.blocks.iter_mut().zip(&other.blocks) {
            *dst |= src;
        }
    }

    /// Whether the two sets share at least one index.
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.blocks
            .iter()
            .zip(&other.blocks)
            .any(|(a, b)| a & b != 0)
    }

    /// Iterates the indices in ascending order.
    pub fn iter(&self) -> BitIndices<'_> {
        BitIndices {
            blocks: &self.blocks,
            next_block: 0,
            current: 0,
        }
    }

    /// The packed `u64` blocks, trailing zero blocks already trimmed.
    ///
    /// This is the set's canonical byte-level representation: wire codecs
    /// serialise the blocks directly, with no per-index materialisation.
    pub fn blocks(&self) -> &[u64] {
        &self.blocks
    }

    /// Rebuilds a set from packed `u64` blocks (e.g. decoded off the
    /// wire). Trailing zero blocks are trimmed so the structural-equality
    /// invariant holds regardless of how the input was produced.
    pub fn from_blocks(blocks: Vec<u64>) -> Self {
        let mut set = BitSet { blocks };
        set.trim();
        set
    }

    fn trim(&mut self) {
        while self.blocks.last() == Some(&0) {
            self.blocks.pop();
        }
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut set = BitSet::new();
        for i in iter {
            set.insert(i);
        }
        set
    }
}

/// Allocation-free iterator over the indices of a [`BitSet`], ascending.
#[derive(Debug, Clone)]
pub struct BitIndices<'a> {
    blocks: &'a [u64],
    /// Index of the next block to load; the block being drained is
    /// `next_block - 1`.
    next_block: usize,
    current: u64,
}

impl Iterator for BitIndices<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some((self.next_block - 1) * BLOCK_BITS + bit);
            }
            let &block = self.blocks.get(self.next_block)?;
            self.current = block;
            self.next_block += 1;
        }
    }
}

/// A packed set of [`FilterId`]s — the recipient labels of an emission and
/// the engines' filter-membership currency.
///
/// Filter ids are dense (assigned in insertion order by the engine
/// builder), so a group of ≤ 64 filters is one `u64` block. Unlike the
/// `Vec<FilterId>` + sort + dedup it replaces, insertion is idempotent and
/// iteration is always in ascending id order.
#[derive(Debug, Default, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FilterSet(BitSet);

impl FilterSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        FilterSet::default()
    }

    /// Creates an empty set pre-sized for a group of `n` filters.
    pub fn with_group_size(n: usize) -> Self {
        FilterSet(BitSet::with_capacity(n))
    }

    /// Inserts a filter; returns whether it was newly inserted.
    pub fn insert(&mut self, filter: FilterId) -> bool {
        self.0.insert(filter.index())
    }

    /// Removes a filter; returns whether it was present.
    pub fn remove(&mut self, filter: FilterId) -> bool {
        self.0.remove(filter.index())
    }

    /// Whether the filter is in the set.
    pub fn contains(&self, filter: FilterId) -> bool {
        self.0.contains(filter.index())
    }

    /// Number of filters in the set.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Removes every filter, keeping the allocation.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// Adds every filter of `other`.
    pub fn union_with(&mut self, other: &FilterSet) {
        self.0.union_with(&other.0);
    }

    /// Whether the two sets share at least one filter.
    pub fn intersects(&self, other: &FilterSet) -> bool {
        self.0.intersects(&other.0)
    }

    /// The filters in both sets, ascending by id — the intersection,
    /// walked block by block without building it.
    pub fn intersection<'a>(&'a self, other: &'a FilterSet) -> Intersection<'a> {
        Intersection {
            a: self.blocks(),
            b: other.blocks(),
            next_block: 0,
            current: 0,
        }
    }

    /// Iterates the filters in ascending id order.
    pub fn iter(&self) -> FilterIds<'_> {
        FilterIds(self.0.iter())
    }

    /// The packed `u64` blocks of the underlying [`BitSet`], trimmed.
    /// Wire codecs serialise these directly — no intermediate `Vec` of
    /// ids on the hot send path.
    pub fn blocks(&self) -> &[u64] {
        self.0.blocks()
    }

    /// Rebuilds a set from packed `u64` blocks (the inverse of
    /// [`FilterSet::blocks`]); trailing zero blocks are trimmed.
    pub fn from_blocks(blocks: Vec<u64>) -> Self {
        FilterSet(BitSet::from_blocks(blocks))
    }
}

/// Allocation-free iterator over the members of a [`FilterSet`],
/// ascending by filter id.
#[derive(Debug, Clone)]
pub struct FilterIds<'a>(BitIndices<'a>);

impl Iterator for FilterIds<'_> {
    type Item = FilterId;

    fn next(&mut self) -> Option<FilterId> {
        self.0.next().map(FilterId::from_index)
    }
}

/// Allocation-free iterator over the filters two [`FilterSet`]s share,
/// ascending by filter id (see [`FilterSet::intersection`]).
#[derive(Debug, Clone)]
pub struct Intersection<'a> {
    a: &'a [u64],
    b: &'a [u64],
    /// Index of the next block pair to load; the block being drained is
    /// `next_block - 1`.
    next_block: usize,
    current: u64,
}

impl Iterator for Intersection<'_> {
    type Item = FilterId;

    fn next(&mut self) -> Option<FilterId> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(FilterId::from_index(
                    (self.next_block - 1) * BLOCK_BITS + bit,
                ));
            }
            self.current = self.a.get(self.next_block)? & self.b.get(self.next_block)?;
            self.next_block += 1;
        }
    }
}

impl FromIterator<FilterId> for FilterSet {
    fn from_iter<I: IntoIterator<Item = FilterId>>(iter: I) -> Self {
        FilterSet(iter.into_iter().map(|f| f.index()).collect())
    }
}

impl<'a> IntoIterator for &'a FilterSet {
    type Item = FilterId;
    type IntoIter = FilterIds<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Display for FilterSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, id) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{id}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove_roundtrip() {
        let mut s = BitSet::new();
        assert!(s.insert(3));
        assert!(!s.insert(3), "second insert is not fresh");
        assert!(s.insert(200));
        assert!(s.contains(3) && s.contains(200) && !s.contains(4));
        assert_eq!(s.len(), 2);
        assert!(s.remove(200));
        assert!(!s.remove(200));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn trailing_blocks_trimmed_for_equality() {
        let mut a = BitSet::new();
        a.insert(1);
        a.insert(500);
        a.remove(500);
        let b: BitSet = [1usize].into_iter().collect();
        assert_eq!(a, b, "equality must ignore vacated high blocks");
    }

    #[test]
    fn union_and_intersection() {
        let a: BitSet = [0usize, 63, 64].into_iter().collect();
        let b: BitSet = [64usize, 120].into_iter().collect();
        assert!(a.intersects(&b));
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![0, 63, 64, 120]);
        let c: BitSet = [1usize].into_iter().collect();
        assert!(!b.intersects(&c));
    }

    #[test]
    fn iteration_is_sorted() {
        let s: BitSet = [130usize, 2, 65, 0].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 2, 65, 130]);
    }

    #[test]
    fn filter_set_tracks_filter_ids() {
        let mut s = FilterSet::with_group_size(3);
        assert!(s.is_empty());
        s.insert(FilterId::from_index(2));
        s.insert(FilterId::from_index(0));
        s.insert(FilterId::from_index(2));
        assert_eq!(s.len(), 2);
        assert!(s.contains(FilterId::from_index(0)));
        assert!(!s.contains(FilterId::from_index(1)));
        let ids: Vec<usize> = s.iter().map(|f| f.index()).collect();
        assert_eq!(ids, vec![0, 2]);
        assert_eq!(s.to_string(), "{F0, F2}");
        let via_ref: Vec<FilterId> = (&s).into_iter().collect();
        assert_eq!(via_ref.len(), 2);
    }

    #[test]
    fn filter_set_union_is_idempotent_dedup() {
        let a: FilterSet = [0, 1].into_iter().map(FilterId::from_index).collect();
        let b: FilterSet = [1, 2].into_iter().map(FilterId::from_index).collect();
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.len(), 3);
        u.union_with(&b);
        assert_eq!(u.len(), 3);
    }

    #[test]
    fn filter_set_intersection_walks_the_common_ids() {
        let ids = |v: &[usize]| {
            v.iter()
                .map(|&i| FilterId::from_index(i))
                .collect::<FilterSet>()
        };
        let a = ids(&[0, 5, 63, 64, 130, 200]);
        let b = ids(&[5, 64, 65, 200]);
        let common: Vec<usize> = a.intersection(&b).map(|f| f.index()).collect();
        assert_eq!(common, vec![5, 64, 200]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&ids(&[1, 66])));
        assert_eq!(a.intersection(&ids(&[1, 66])).count(), 0);
        assert_eq!(a.intersection(&FilterSet::new()).count(), 0);
    }

    #[test]
    fn clear_empties() {
        let mut s: BitSet = [5usize].into_iter().collect();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
