//! The append-only table set behind incremental resize.
//!
//! A resizing shard never frees or reuses a bucket array: each doubling
//! installs a fresh [`Table`] into the next [`TableSet`] slot, and the
//! shard's seqlock-published metadata names tables by *slot index*, not by
//! pointer. That gives SWOpt readers the same structural guarantee the
//! [`NodeSlab`](crate::node::NodeSlab) gives for nodes — a stale traversal
//! can only ever reach mapped, well-formed memory, and validation (not
//! memory lifetime) decides whether what it read is current.
//!
//! Publication order is load bearing: a table pointer is stored into its
//! slot (release) *before* the slot index is published through the shard's
//! `SeqBuffer` metadata, so any reader that can name a slot finds it
//! populated.

use std::sync::atomic::{AtomicPtr, Ordering};

use crate::table::Table;

/// Sentinel slot index meaning "no previous table" (migration idle).
pub const NO_TABLE: u64 = u64::MAX;

/// Table-set slots per shard. Starting from even a 2-bucket table, 16
/// doublings outgrow any capacity the node slab can hold.
pub const MAX_TABLES: usize = 16;

/// Append-only storage for a shard's bucket tables.
///
/// Slot 0 is the initial table; each resize installs the doubled table into
/// the next slot. Slots are written once and never cleared while the set
/// lives, so an index obtained from a (possibly stale but validated-later)
/// metadata snapshot always dereferences safely.
pub struct TableSet {
    slots: [AtomicPtr<Table>; MAX_TABLES],
}

// SAFETY: slot pointers are written once (install is serialised by the
// owning shard's lock) and never freed until drop; Table itself is Sync.
unsafe impl Send for TableSet {}
unsafe impl Sync for TableSet {}

impl TableSet {
    /// A set whose slot 0 holds `initial`.
    pub fn new(initial: Table) -> Self {
        let set = TableSet {
            slots: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
        };
        let ok = set.install(0, initial);
        debug_assert!(ok);
        set
    }

    /// Install `table` into `slot`. Returns false (dropping `table`) if the
    /// slot is out of range or already occupied. Callers publish the slot
    /// index only after this returns true.
    pub fn install(&self, slot: usize, table: Table) -> bool {
        if slot >= MAX_TABLES {
            return false;
        }
        let ptr = Box::into_raw(Box::new(table));
        match self.slots[slot].compare_exchange(
            std::ptr::null_mut(),
            ptr,
            Ordering::Release,
            Ordering::Relaxed,
        ) {
            Ok(_) => true,
            Err(_) => {
                // SAFETY: the pointer we just created never escaped.
                unsafe { drop(Box::from_raw(ptr)) };
                false
            }
        }
    }

    /// Is `slot` populated?
    pub fn is_installed(&self, slot: usize) -> bool {
        slot < MAX_TABLES && !self.slots[slot].load(Ordering::Acquire).is_null()
    }

    /// The table at a published slot index.
    ///
    /// The index must come from this set's owning shard — either its
    /// metadata snapshot or slot 0 — which guarantees the slot was
    /// installed before it became nameable.
    #[inline]
    pub fn get(&self, slot: u64) -> &Table {
        let p = self.slots[slot as usize].load(Ordering::Acquire);
        debug_assert!(!p.is_null(), "table slot {slot} read before install");
        // SAFETY: installed slots are never cleared while the set lives.
        unsafe { &*p }
    }
}

impl Drop for TableSet {
    fn drop(&mut self) {
        for s in &self.slots {
            let p = s.load(Ordering::Acquire);
            if !p.is_null() {
                // SAFETY: reconstruct exactly what install's into_raw made.
                unsafe { drop(Box::from_raw(p)) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_is_once_only() {
        let set = TableSet::new(Table::new(2));
        assert!(set.is_installed(0));
        assert!(!set.install(0, Table::new(4)), "slot 0 already taken");
        assert!(set.install(1, Table::new(4)));
        assert_eq!(set.get(1).len(), 4);
        assert!(!set.install(1, Table::new(8)));
        assert_eq!(set.get(1).len(), 4, "second install must not replace");
        assert!(!set.install(MAX_TABLES, Table::new(2)), "out of range");
        assert!(!set.is_installed(2));
    }
}
