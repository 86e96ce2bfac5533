//! The uninstrumented baseline: the same chained hash table under a plain
//! single lock, with no ALE integration at all ("Uninstrumented" in the
//! paper's figures). Comparing it against an ALE-integrated, Lock-only run
//! ("Instrumented") measures the library's bookkeeping overhead.

use ale_sync::{RawLock, SpinLock};

use crate::node::NodeSlab;
use crate::table::{hash_of, Table};

/// Plain single-lock chained hash map.
pub struct BaselineHashMap<V: Copy + Default + Send + 'static> {
    lock: SpinLock,
    table: Table,
    slab: NodeSlab<V>,
}

impl<V: Copy + Default + Send + 'static> BaselineHashMap<V> {
    pub fn new(buckets: usize, capacity: u64) -> Self {
        BaselineHashMap {
            lock: SpinLock::new(),
            table: Table::new(buckets),
            slab: NodeSlab::with_capacity(capacity),
        }
    }

    #[inline]
    fn bucket_of(&self, key: u64) -> usize {
        hash_of(key) & self.table.mask
    }

    pub fn get(&self, key: u64, ret_val: &mut V) -> bool {
        self.lock.acquire();
        let (_, hit) = self.table.find(&self.slab, self.bucket_of(key), key);
        if let Some(id) = hit {
            *ret_val = self.slab.node(id).val.get();
        }
        self.lock.release();
        hit.is_some()
    }

    pub fn insert(&self, key: u64, val: V) -> bool {
        let new_id = self.slab.alloc(key, val);
        self.lock.acquire();
        let idx = self.bucket_of(key);
        let (_, hit) = self.table.find(&self.slab, idx, key);
        match hit {
            Some(id) => self.slab.node(id).val.set(val),
            None => self.table.link_front(&self.slab, idx, new_id),
        }
        self.lock.release();
        if hit.is_some() {
            self.slab.free(new_id);
        }
        hit.is_none()
    }

    pub fn remove(&self, key: u64) -> bool {
        self.lock.acquire();
        let idx = self.bucket_of(key);
        let (prev, hit) = self.table.find(&self.slab, idx, key);
        if let Some(id) = hit {
            self.table
                .unlink(&self.slab, idx, prev, id, |splice| splice());
        }
        self.lock.release();
        if let Some(id) = hit {
            self.slab.free(id);
        }
        hit.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_operations() {
        let m: BaselineHashMap<u64> = BaselineHashMap::new(16, 1000);
        let mut v = 0;
        assert!(!m.get(1, &mut v));
        assert!(m.insert(1, 10));
        assert!(!m.insert(1, 11), "second insert overwrites");
        assert!(m.get(1, &mut v));
        assert_eq!(v, 11);
        assert!(m.remove(1));
        assert!(!m.remove(1));
        assert!(!m.get(1, &mut v));
    }

    #[test]
    fn many_keys_with_collisions() {
        let m: BaselineHashMap<u64> = BaselineHashMap::new(4, 10_000);
        for k in 0..500 {
            assert!(m.insert(k, k * 2));
        }
        let mut v = 0;
        for k in 0..500 {
            assert!(m.get(k, &mut v), "key {k}");
            assert_eq!(v, k * 2);
        }
        for k in (0..500).step_by(2) {
            assert!(m.remove(k));
        }
        for k in 0..500 {
            assert_eq!(m.get(k, &mut v), k % 2 == 1);
        }
    }
}
