//! The chained bucket table every map in this workspace runs its chains
//! through: [`AleHashMap`](crate::AleHashMap), each shard of
//! [`AleShardedMap`](crate::AleShardedMap),
//! [`BaselineHashMap`](crate::BaselineHashMap), and Kyoto's slots.
//!
//! A [`Table`] holds only chain heads; the nodes live in the owner's
//! [`NodeSlab`], which every chain operation takes as an argument (a
//! resizing shard keeps several tables over one slab). Like the paper's
//! Figure 1, the optimistic search and the pessimistic one are one
//! traversal: [`Table::find`] is [`Table::find_validated`] with a validator
//! that always passes, so both issue the same cell reads in the same
//! order. Under the simulator each [`HtmCell`] access is a scheduling
//! point, so that order is part of every pinned digest.

use ale_htm::HtmCell;

use crate::node::{NodeSlab, NIL};

/// The Fibonacci multiplier every map hashes keys with.
pub(crate) const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// The bucket hash: the high half of the Fibonacci product. A table masks
/// its low bits; the sharded map routes on the product's top bits.
#[inline]
pub(crate) fn hash_of(key: u64) -> usize {
    (key.wrapping_mul(FIB) >> 32) as usize
}

/// One bucket array: chain heads (node ids into the owner's slab) plus the
/// power-of-two index mask.
pub struct Table {
    buckets: Box<[HtmCell<u64>]>,
    /// `buckets.len() - 1`; bucket index is `hash & mask`.
    pub mask: usize,
}

impl Table {
    /// An empty table with `buckets` chains (rounded up to a power of two).
    pub fn new(buckets: usize) -> Self {
        let n = buckets.max(1).next_power_of_two();
        Table {
            buckets: (0..n).map(|_| HtmCell::new(NIL)).collect(),
            mask: n - 1,
        }
    }

    /// Number of bucket chains.
    pub fn len(&self) -> usize {
        self.mask + 1
    }

    pub fn is_empty(&self) -> bool {
        false // a table always has at least one bucket
    }

    /// The chain-head cell for bucket `idx`.
    #[inline]
    pub fn bucket(&self, idx: usize) -> &HtmCell<u64> {
        &self.buckets[idx]
    }

    /// The cell that links to the node after `prev` in chain `idx`: the
    /// chain head when `prev` is [`NIL`].
    #[inline]
    pub fn link<'a, V: Copy + Default>(
        &'a self,
        slab: &'a NodeSlab<V>,
        idx: usize,
        prev: u64,
    ) -> &'a HtmCell<u64> {
        if prev == NIL {
            self.bucket(idx)
        } else {
            &slab.node(prev).next
        }
    }

    /// Chain search under exclusion (lock held or inside a transaction):
    /// `(predecessor id | NIL, node id)`.
    #[inline]
    pub fn find<V: Copy + Default>(
        &self,
        slab: &NodeSlab<V>,
        idx: usize,
        key: u64,
    ) -> (u64, Option<u64>) {
        self.find_validated(slab, idx, key, || true)
            .expect("an always-valid search cannot fail")
    }

    /// Optimistic chain search: calls `valid` after every cell read and
    /// gives up with `None` the first time it fails, so nothing read from
    /// a chain that changed underneath is ever returned. On success the
    /// result is [`find`](Self::find)'s. A hit's value is left to the
    /// caller, which must validate again after reading it.
    // ale-lint: swopt
    #[inline]
    pub fn find_validated<V: Copy + Default>(
        &self,
        slab: &NodeSlab<V>,
        idx: usize,
        key: u64,
        valid: impl Fn() -> bool,
    ) -> Option<(u64, Option<u64>)> {
        let mut prev = NIL;
        let mut bp = self.bucket(idx).get();
        if !valid() {
            return None;
        }
        while bp != NIL {
            let node = slab.node(bp);
            let k = node.key.get();
            if !valid() {
                return None;
            }
            if k == key {
                return Some((prev, Some(bp)));
            }
            prev = bp;
            bp = node.next.get();
            if !valid() {
                return None;
            }
        }
        Some((prev, None))
    }

    /// Publish a fully-initialised node at the head of chain `idx`. Not a
    /// conflicting action: a concurrent reader sees the old chain or the
    /// new one.
    #[inline]
    pub fn link_front<V: Copy + Default>(&self, slab: &NodeSlab<V>, idx: usize, id: u64) {
        slab.node(id).next.set(self.bucket(idx).get());
        self.bucket(idx).set(id);
    }

    /// Splice `id`, found after `prev`, out of chain `idx`. `id`'s
    /// successor is read first; the one store that unlinks it then runs
    /// inside `region`, which callers use to open a conflicting region
    /// around it (or just call it).
    #[inline]
    pub fn unlink<V: Copy + Default>(
        &self,
        slab: &NodeSlab<V>,
        idx: usize,
        prev: u64,
        id: u64,
        region: impl FnOnce(&dyn Fn()),
    ) {
        let next = slab.node(id).next.get();
        let link = self.link(slab, idx, prev);
        region(&|| link.set(next));
    }

    /// Number of nodes on every chain (caller excludes writers).
    pub fn count<V: Copy + Default>(&self, slab: &NodeSlab<V>) -> usize {
        let mut n = 0;
        self.sweep(slab, false, |_| n += 1);
        n
    }

    /// Empty every chain, returning the unlinked ids (caller excludes
    /// readers and writers, and frees the ids once that exclusion ends).
    pub fn clear_collect<V: Copy + Default>(&self, slab: &NodeSlab<V>) -> Vec<u64> {
        let mut ids = Vec::new();
        self.sweep(slab, true, |id| ids.push(id));
        ids
    }

    /// Visit every node id chain by chain; with `clear`, empty each chain
    /// after walking it.
    fn sweep<V: Copy + Default>(
        &self,
        slab: &NodeSlab<V>,
        clear: bool,
        mut visit: impl FnMut(u64),
    ) {
        for b in self.buckets.iter() {
            let mut bp = b.get();
            while bp != NIL {
                visit(bp);
                bp = slab.node(bp).next.get();
            }
            if clear {
                b.set(NIL);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn table_rounds_to_power_of_two() {
        assert_eq!(Table::new(0).len(), 1);
        assert_eq!(Table::new(3).len(), 4);
        assert_eq!(Table::new(4).len(), 4);
        let t = Table::new(6);
        assert_eq!(t.len(), 8);
        assert_eq!(t.mask, 7);
        for i in 0..t.len() {
            assert_eq!(t.bucket(i).get(), NIL);
        }
    }

    /// One chain of keys `keys`, linked front-first (so the chain runs in
    /// reverse order).
    fn chain(keys: &[u64]) -> (Table, NodeSlab<u64>, Vec<u64>) {
        let t = Table::new(1);
        let slab = NodeSlab::with_capacity(64);
        let ids = keys
            .iter()
            .map(|&k| {
                let id = slab.alloc(k, k * 10);
                t.link_front(&slab, 0, id);
                id
            })
            .collect();
        (t, slab, ids)
    }

    #[test]
    fn find_link_unlink_count_clear() {
        let (t, slab, ids) = chain(&[1, 2, 3]);
        // Chain is 3, 2, 1.
        assert_eq!(t.find(&slab, 0, 3), (NIL, Some(ids[2])));
        assert_eq!(t.find(&slab, 0, 1), (ids[1], Some(ids[0])));
        assert_eq!(t.find(&slab, 0, 9), (ids[0], None));
        assert_eq!(t.count(&slab), 3);
        let (prev, id) = t.find(&slab, 0, 2);
        t.unlink(&slab, 0, prev, id.unwrap(), |splice| splice());
        assert_eq!(t.find(&slab, 0, 2).1, None);
        assert_eq!(t.find(&slab, 0, 1), (ids[2], Some(ids[0])));
        let (prev, id) = t.find(&slab, 0, 3);
        t.unlink(&slab, 0, prev, id.unwrap(), |splice| splice());
        assert_eq!(t.bucket(0).get(), ids[0], "head unlink moves the head");
        let mut taken = t.clear_collect(&slab);
        taken.sort_unstable();
        assert_eq!(taken, vec![ids[0]]);
        assert_eq!(t.count(&slab), 0);
    }

    #[test]
    fn unlink_runs_only_the_store_inside_the_region() {
        let (t, slab, ids) = chain(&[1, 2]);
        let (prev, id) = t.find(&slab, 0, 2);
        let mut ran = false;
        t.unlink(&slab, 0, prev, id.unwrap(), |splice| {
            assert_eq!(t.bucket(0).get(), ids[1], "nothing stored yet");
            splice();
            ran = true;
        });
        assert!(ran);
        assert_eq!(t.bucket(0).get(), ids[0]);
    }

    #[test]
    fn find_validated_stops_at_the_first_failed_validation() {
        let (t, slab, ids) = chain(&[1, 2, 3]);
        assert_eq!(
            t.find_validated(&slab, 0, 1, || true),
            Some((ids[1], Some(ids[0])))
        );
        // Reads: head, then key and next per node. Fail after `n` of them.
        for n in 0..6 {
            let calls = Cell::new(0);
            let valid = || {
                calls.set(calls.get() + 1);
                calls.get() <= n
            };
            assert_eq!(t.find_validated(&slab, 0, 1, valid), None, "n = {n}");
            assert_eq!(calls.get(), n + 1, "no read after the failure");
        }
    }
}
