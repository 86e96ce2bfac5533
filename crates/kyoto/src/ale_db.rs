//! The ALE-integrated CacheDB: the paper's Figure 5 subject.
//!
//! Locking structure (nested, per §3.3/§4.1): every operation opens an
//! **external** critical section on the database's readers-writer lock
//! (shared for set/get/remove, exclusive for count/clear), and a **nested**
//! critical section on the key's slot lock for the actual record work.
//! Following the paper's best configuration, the external critical section
//! enables **both HTM and SWOpt**, while the internal one enables **only
//! HTM** ("we enable both HTM and SWOpt for the external critical section,
//! and only HTM for the internal critical section").
//!
//! The external SWOpt path performs the slot search optimistically
//! (validated against the slot's version). A **miss** completes without
//! touching any lock — the paper's `nomutate` statistic ("42 % of the
//! executions did not find the object they were seeking, and hence
//! succeeded using SWOpt"). A **hit** must mutate (Kyoto's move-to-front),
//! which the nested critical section performs after re-validating; if
//! validation fails the whole operation retries as a SWOpt failure.

use std::sync::Arc;

use ale_core::{scope, Ale, AleLock, AleRwLock, CsCtx, CsOptions, CsOutcome, ExecMode, LockMeta};
use ale_hashmap::node::NIL;
use ale_sync::{RwLock, SpinLock};

use crate::db::{slot_of, KyotoDb, Slot, Value, SLOT_NUM};

/// Configuration for [`AleCacheDb`].
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Buckets per slot.
    pub buckets_per_slot: usize,
    /// Record capacity per slot.
    pub capacity_per_slot: u64,
    /// Payload words per record (models Kyoto's byte-string bodies: all of
    /// them are written by `set` and read by `get`, so transactions carry
    /// realistic footprints). 0 = value-only records.
    pub payload_cells: usize,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            buckets_per_slot: 1 << 12,
            capacity_per_slot: 1 << 16,
            payload_cells: 0,
        }
    }
}

struct DbSlot {
    lock: AleLock<SpinLock>,
    store: Slot,
}

/// Kyoto-Cabinet-style in-memory hash database, ALE-integrated.
pub struct AleCacheDb {
    mlock: AleRwLock<RwLock>,
    slots: Vec<DbSlot>,
    /// The external lock's metadata (for the bump-elision check inside
    /// nested slot critical sections — SWOpt readers register there).
    outer_meta: Arc<LockMeta>,
    /// Ablation A1: never elide the version bump.
    force_bump: bool,
}

/// Slot-lock labels (one static per slot so granule reports stay readable).
static SLOT_LABELS: [&str; SLOT_NUM] = [
    "slot00", "slot01", "slot02", "slot03", "slot04", "slot05", "slot06", "slot07", "slot08",
    "slot09", "slot10", "slot11", "slot12", "slot13", "slot14", "slot15",
];

impl AleCacheDb {
    pub fn new(ale: &Arc<Ale>, config: DbConfig) -> Self {
        let mlock = ale.new_rw_lock("mlock", RwLock::new());
        let outer_meta = Arc::clone(mlock.meta());
        let force_bump = ale.config().force_version_bump;
        AleCacheDb {
            mlock,
            slots: (0..SLOT_NUM)
                .map(|i| DbSlot {
                    lock: ale.new_lock(SLOT_LABELS[i], SpinLock::new()),
                    store: Slot::with_payload(
                        config.buckets_per_slot,
                        config.capacity_per_slot,
                        config.payload_cells,
                    ),
                })
                .collect(),
            outer_meta,
            force_bump,
        }
    }

    /// Should a conflicting action bump the slot version? Sound elision is
    /// possible only in HTM mode, and the relevant SWOpt readers are the
    /// *external* lock's (they traverse slot data optimistically), so the
    /// check consults the external lock's indicator — transactionally when
    /// in HTM mode, hence soundly.
    // ale-lint: htm-body — runs inside the inner critical section in HTM
    // mode (the grouping probe); must stay alloc/IO/park-free.
    fn bump_needed(&self, inner_cs: &CsCtx<'_>) -> bool {
        if self.force_bump {
            return true;
        }
        match inner_cs.mode() {
            ExecMode::Htm => self.outer_meta.grouping.could_swopt_be_running(),
            _ => true,
        }
    }

    /// Optimistic slot search for the external SWOpt path. Returns
    /// `Err(())` on interference, `Ok(hit)` otherwise.
    // ale-lint: swopt
    fn optimistic_search(&self, slot: &Slot, key: u64) -> Result<bool, ()> {
        let v = slot.ver.read(true);
        let valid = || slot.ver.validate(v);
        match slot
            .table
            .find_validated(&slot.slab, slot.bucket_of(key), key, valid)
        {
            Some((_, hit)) => Ok(hit.is_some()),
            None => Err(()),
        }
    }

    /// The external readers-writer lock's metadata (poison inspection and
    /// fault-injection targeting in tests).
    pub fn external_meta(&self) -> &Arc<LockMeta> {
        &self.outer_meta
    }

    /// A slot lock's metadata (poison inspection and fault-injection
    /// targeting in tests). Panics if `slot >= SLOT_NUM`.
    pub fn slot_meta(&self, slot: usize) -> &Arc<LockMeta> {
        self.slots[slot].lock.meta()
    }

    /// Clear the poison flag on every lock in the database — the first step
    /// of [`crate::wal::DurableCacheDb::heal`]'s rebuild-from-log recovery.
    /// On its own this re-exposes whatever half-finished state the
    /// poisoning panic left behind; callers must rebuild before trusting
    /// the contents.
    pub fn clear_all_poison(&self) {
        self.mlock.clear_poison();
        for ds in &self.slots {
            ds.lock.clear_poison();
        }
    }

    /// Are all slot versions even (no conflicting region left open)?
    /// ale-check's post-run oracle: an odd version after quiescence would
    /// wedge every future optimistic reader.
    pub fn versions_even(&self) -> bool {
        self.slots
            .iter()
            .all(|ds| ds.store.ver.read(false).is_multiple_of(2))
    }
}

impl KyotoDb for AleCacheDb {
    fn set(&self, key: u64, value: Value) -> bool {
        let ds = &self.slots[slot_of(key)];
        // Pre-allocate outside all critical sections.
        let new_id = ds.store.slab.alloc(key, value);
        let inserted = self.mlock.shared_cs(
            scope!("CacheDb::set"),
            CsOptions::new().non_conflicting(),
            |_outer| {
                // Nested slot critical section does the record work.
                let r = ds
                    .lock
                    .cs_plain(scope!("CacheDb::set::slot"), CsOptions::new(), |ics| {
                        let (prev, id) = ds.store.search(key);
                        if id != NIL {
                            let bump = self.bump_needed(ics);
                            if bump {
                                ds.store.ver.begin_conflicting_action();
                            }
                            ds.store.slab.node(id).val.set(value);
                            if ds.store.payload_cells() > 0 {
                                ds.store.write_payload(id, value);
                            }
                            ds.store.move_to_front(key, prev, id);
                            if bump {
                                ds.store.ver.end_conflicting_action();
                            }
                            false
                        } else {
                            if ds.store.payload_cells() > 0 {
                                ds.store.write_payload(new_id, value);
                            }
                            ds.store.link_front(key, new_id);
                            true
                        }
                    });
                CsOutcome::Done(r)
            },
        );
        if !inserted {
            ds.store.slab.free(new_id);
        }
        inserted
    }

    fn get(&self, key: u64) -> Option<Value> {
        let ds = &self.slots[slot_of(key)];
        self.mlock.shared_cs(
            scope!("CacheDb::get"),
            CsOptions::new().with_swopt().non_conflicting(),
            |outer| {
                if outer.is_swopt() {
                    // Optimistic search: a miss completes without locks.
                    match self.optimistic_search(&ds.store, key) {
                        Err(()) => return CsOutcome::SwOptFail,
                        Ok(false) => return CsOutcome::Done(None),
                        Ok(true) => {}
                    }
                    // Hit: the touch (move-to-front) needs the nested CS.
                    let got =
                        ds.lock
                            .cs_plain(scope!("CacheDb::get::slot"), CsOptions::new(), |ics| {
                                let (prev, id) = ds.store.search(key);
                                if id == NIL {
                                    // Gone since the optimistic search.
                                    return None;
                                }
                                let val = ds.store.slab.node(id).val.get();
                                if ds.store.payload_cells() > 0 {
                                    std::hint::black_box(ds.store.read_payload(id));
                                }
                                let bump = self.bump_needed(ics);
                                if bump {
                                    ds.store.ver.begin_conflicting_action();
                                }
                                ds.store.move_to_front(key, prev, id);
                                if bump {
                                    ds.store.ver.end_conflicting_action();
                                }
                                Some(val)
                            });
                    return CsOutcome::Done(got);
                }
                // HTM or Lock external mode: nested slot CS directly.
                let got = ds
                    .lock
                    .cs_plain(scope!("CacheDb::get::slot"), CsOptions::new(), |ics| {
                        let (prev, id) = ds.store.search(key);
                        if id == NIL {
                            return None;
                        }
                        let val = ds.store.slab.node(id).val.get();
                        if ds.store.payload_cells() > 0 {
                            std::hint::black_box(ds.store.read_payload(id));
                        }
                        let bump = self.bump_needed(ics);
                        if bump {
                            ds.store.ver.begin_conflicting_action();
                        }
                        ds.store.move_to_front(key, prev, id);
                        if bump {
                            ds.store.ver.end_conflicting_action();
                        }
                        Some(val)
                    });
                CsOutcome::Done(got)
            },
        )
    }

    fn remove(&self, key: u64) -> bool {
        let ds = &self.slots[slot_of(key)];
        let removed = self.mlock.shared_cs(
            scope!("CacheDb::remove"),
            CsOptions::new().with_swopt().non_conflicting(),
            |outer| {
                if outer.is_swopt() {
                    // A miss needs no mutation at all.
                    match self.optimistic_search(&ds.store, key) {
                        Err(()) => return CsOutcome::SwOptFail,
                        Ok(false) => return CsOutcome::Done(None),
                        Ok(true) => {}
                    }
                }
                let r =
                    ds.lock
                        .cs_plain(scope!("CacheDb::remove::slot"), CsOptions::new(), |ics| {
                            let (prev, id) = ds.store.search(key);
                            if id == NIL {
                                return None;
                            }
                            let bump = self.bump_needed(ics);
                            if bump {
                                ds.store.ver.begin_conflicting_action();
                            }
                            ds.store.unlink(key, prev, id);
                            if bump {
                                ds.store.ver.end_conflicting_action();
                            }
                            Some(id)
                        });
                CsOutcome::Done(r)
            },
        );
        match removed {
            Some(id) => {
                ds.store.slab.free(id);
                true
            }
            None => false,
        }
    }

    fn count(&self) -> usize {
        // Exclusive external CS (HTM allowed — this is the paper's
        // "relatively large hardware transaction"); each slot is read under
        // its nested critical section, because SWOpt-path hits mutate slots
        // below the external lock.
        self.mlock
            .excl_cs(scope!("CacheDb::count"), CsOptions::new(), |_| {
                let mut n = 0;
                for ds in &self.slots {
                    n += ds
                        .lock
                        .cs_plain(scope!("CacheDb::count::slot"), CsOptions::new(), |_| {
                            ds.store.count()
                        });
                }
                CsOutcome::Done(n)
            })
    }

    fn clear(&self) {
        // Too big for HTM by design; each slot is cleared under its nested
        // critical section with the version bumped (a conflicting action
        // for every optimistic reader).
        let freed: Vec<Vec<u64>> = self.mlock.excl_cs(
            scope!("CacheDb::clear"),
            CsOptions::new().without_htm(),
            |_| {
                let mut all = Vec::with_capacity(SLOT_NUM);
                for ds in &self.slots {
                    let ids = ds.lock.cs_plain(
                        scope!("CacheDb::clear::slot"),
                        CsOptions::new().without_htm(),
                        |_| {
                            ds.store.ver.begin_conflicting_action();
                            let ids = ds.store.clear_collect();
                            ds.store.ver.end_conflicting_action();
                            ids
                        },
                    );
                    all.push(ids);
                }
                CsOutcome::Done(all)
            },
        );
        for (ds, ids) in self.slots.iter().zip(freed) {
            for id in ids {
                ds.store.slab.free(id);
            }
        }
    }
}
