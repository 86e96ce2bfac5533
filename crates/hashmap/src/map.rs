//! The ALE-integrated HashMap (§3 of the paper).
//!
//! A chained hash table protected by a single lock (`tblLock`), with:
//!
//! * **Get** — SWOpt path generated from the same source as the pessimistic
//!   path via a const-generic flag (the paper's `GetImp<SWOptMode>` twin
//!   template instantiation, Figure 1), validating the version number
//!   before using any value read since the last validation;
//! * **Insert / Remove** — executed in HTM or Lock mode; the code that
//!   interferes with SWOpt readers (the unlink, the value overwrite) is
//!   bracketed with `Begin/EndConflictingAction`, and the bump is elided
//!   when `COULD_SWOPT_BE_RUNNING` says no SWOpt reader can observe it
//!   (§3.3);
//! * **fine-grained variants** (`insert_fine`/`remove_fine`, §3.3) — the
//!   search prefix runs in SWOpt mode and only the mutating suffix takes a
//!   nested, non-SWOpt critical section, re-validating before committing
//!   to the conflicting action;
//! * **self-abort variant** (`remove_self_abort`, §3.3) — the whole
//!   operation runs in SWOpt mode and *self-aborts* out of it when it
//!   discovers it must mutate;
//! * **per-bucket version numbers** — the paper's "concurrency could be
//!   improved by using multiple version numbers, say one for each HashMap
//!   bucket. We have not yet experimented with this option." We did:
//!   configure [`MapConfig::version_stripes`] > 1 (ablation A3).

use std::sync::Arc;

use ale_core::{scope, Ale, AleLock, CsCtx, CsOptions, CsOutcome, ScopeId};
use ale_sync::{CachePadded, SeqVersion, SpinLock};

use crate::node::NodeSlab;
use crate::table::{hash_of, Table};

/// Configuration for [`AleHashMap`].
#[derive(Debug, Clone)]
pub struct MapConfig {
    /// Number of bucket chains (rounded up to a power of two).
    pub buckets: usize,
    /// Node capacity (live keys + in-flight allocations).
    pub capacity: u64,
    /// Version-number stripes: 1 = the paper's single `tblVer`; more
    /// stripes give per-bucket(-group) versions (ablation A3).
    pub version_stripes: usize,
}

impl Default for MapConfig {
    fn default() -> Self {
        MapConfig {
            buckets: 1024,
            capacity: 1 << 20,
            version_stripes: 1,
        }
    }
}

impl MapConfig {
    pub fn new(buckets: usize) -> Self {
        MapConfig {
            buckets,
            ..Default::default()
        }
    }

    pub fn with_capacity(mut self, capacity: u64) -> Self {
        self.capacity = capacity;
        self
    }

    pub fn with_version_stripes(mut self, stripes: usize) -> Self {
        self.version_stripes = stripes.max(1);
        self
    }
}

/// The state every single-lock chained map keeps around its [`Table`]s:
/// the ALE lock, the node slab, and the version stripes SWOpt readers
/// validate against. [`AleHashMap`] is this plus one table; a shard of
/// [`AleShardedMap`](crate::AleShardedMap) is this plus a table set and its
/// table-pointer seqlock.
pub(crate) struct MapCore<V: Copy + Default + Send + 'static> {
    pub(crate) lock: AleLock<SpinLock>,
    pub(crate) slab: NodeSlab<V>,
    /// Per-stripe version words, each padded onto its own cache line
    /// (DESIGN.md §14): stripes exist to split writer traffic, which is
    /// defeated if neighbouring stripes share a line.
    vers: Vec<CachePadded<SeqVersion>>,
    ver_mask: usize,
}

impl<V: Copy + Default + Send + 'static> MapCore<V> {
    /// A lock labelled `label`, a slab of `capacity` nodes, and `stripes`
    /// version words (a power of two).
    pub(crate) fn new(ale: &Arc<Ale>, label: &'static str, capacity: u64, stripes: usize) -> Self {
        debug_assert!(stripes.is_power_of_two());
        MapCore {
            lock: ale.new_lock(label, SpinLock::new()),
            slab: NodeSlab::with_capacity(capacity),
            vers: (0..stripes)
                .map(|_| CachePadded::new(SeqVersion::new()))
                .collect(),
            ver_mask: stripes - 1,
        }
    }

    /// The version stripe guarding `hash`. A bucket index works as well
    /// whenever there are no more stripes than buckets: masking either
    /// keeps the same low bits.
    #[inline]
    pub(crate) fn ver_of(&self, hash: usize) -> &SeqVersion {
        &self.vers[hash & self.ver_mask]
    }

    /// Run `f` as a conflicting action on `hash`'s stripe. The version is
    /// bumped around it only when a SWOpt reader could observe it (§3.3's
    /// bump elision).
    #[inline]
    pub(crate) fn conflicting<R>(&self, cs: &CsCtx<'_>, hash: usize, f: impl FnOnce() -> R) -> R {
        let ver = self.ver_of(hash);
        let bump = cs.could_swopt_be_running();
        if bump {
            ver.begin_conflicting_action();
        }
        let r = f();
        if bump {
            ver.end_conflicting_action();
        }
        r
    }

    /// Overwrite `id`'s value: the conflicting region a SWOpt reader about
    /// to copy the value must notice.
    #[inline]
    pub(crate) fn overwrite(&self, cs: &CsCtx<'_>, hash: usize, id: u64, val: V) {
        self.conflicting(cs, hash, || self.slab.node(id).val.set(val));
    }

    /// Splice `id` (found after `prev`) out of `t`'s chain `idx` under
    /// exclusion. Only the store that unlinks it is the conflicting action
    /// (the paper's §3.2 example).
    #[inline]
    pub(crate) fn unlink(
        &self,
        cs: &CsCtx<'_>,
        hash: usize,
        t: &Table,
        idx: usize,
        prev: u64,
        id: u64,
    ) {
        t.unlink(&self.slab, idx, prev, id, |splice| {
            // Self-test mutation (`mut-skip-version-bump`): unlinking
            // without bumping the version makes concurrent SWOpt readers
            // follow a recycled node unnoticed — ale-check must catch it.
            if cfg!(feature = "mut-skip-version-bump") {
                splice()
            } else {
                self.conflicting(cs, hash, splice)
            }
        });
    }

    /// Are all version stripes even (no conflicting region left open)?
    pub(crate) fn versions_even(&self) -> bool {
        self.vers.iter().all(|v| v.read(false).is_multiple_of(2))
    }
}

/// The paper's HashMap: one lock, chained buckets, three execution modes.
///
/// Values are `Copy` and at most 16 bytes (they live in
/// [`HtmCell`](ale_htm::HtmCell)s); keys are `u64`.
pub struct AleHashMap<V: Copy + Default + Send + 'static> {
    core: MapCore<V>,
    table: Table,
}

impl<V: Copy + Default + Send + 'static> AleHashMap<V> {
    /// Create a map registered with `ale` under the lock label `tblLock`.
    pub fn new(ale: &Arc<Ale>, config: MapConfig) -> Self {
        let table = Table::new(config.buckets);
        // More stripes than buckets would leave stripes no bucket uses.
        let stripes = config.version_stripes.next_power_of_two().min(table.len());
        AleHashMap {
            core: MapCore::new(ale, "tblLock", config.capacity, stripes),
            table,
        }
    }

    #[inline]
    fn bucket_of(&self, key: u64) -> usize {
        hash_of(key) & self.table.mask
    }

    /// The paper's Figure 1: one source, two instantiations. `Some(found)`
    /// (value copied to `ret_val` on a hit), or `None` on SWOpt
    /// interference.
    // ale-lint: swopt
    fn get_impl<const SWOPT: bool>(&self, key: u64, ret_val: &mut V) -> Option<bool> {
        let idx = self.bucket_of(key);
        let ver = self.core.ver_of(idx);
        let v = if SWOPT { ver.read(true) } else { 0 };
        let valid = || !SWOPT || ver.validate(v);
        let (_, hit) = self
            .table
            .find_validated(&self.core.slab, idx, key, valid)?;
        let Some(id) = hit else {
            return Some(false);
        };
        let val = self.core.slab.node(id).val.get();
        // Self-test mutation (`mut-skip-validate`): dropping the validation
        // after copying the value lets a SWOpt reader return data from a
        // node recycled mid-read — ale-check's value-integrity oracle must
        // catch it.
        if SWOPT && !cfg!(feature = "mut-skip-validate") && !ver.validate(v) {
            return None;
        }
        *ret_val = val;
        Some(true)
    }

    /// Look up `key`, copying its value into `ret_val`. Returns whether the
    /// key was present.
    pub fn get(&self, key: u64, ret_val: &mut V) -> bool {
        self.get_scoped(scope!("HashMap::get"), key, ret_val)
    }

    /// `get` under a caller-chosen scope (the `BEGIN_CS_NAMED` pattern:
    /// distinct call sites can adapt independently).
    pub fn get_scoped(&self, scope: &'static ScopeId, key: u64, ret_val: &mut V) -> bool {
        self.core.lock.cs(
            scope,
            CsOptions::new().with_swopt().non_conflicting(),
            |cs| {
                let r = if cs.is_swopt() {
                    self.get_impl::<true>(key, ret_val)
                } else {
                    self.get_impl::<false>(key, ret_val)
                };
                match r {
                    Some(found) => CsOutcome::Done(found),
                    None => CsOutcome::SwOptFail,
                }
            },
        )
    }

    /// Insert `key → val`, overwriting any existing value. Returns true if
    /// the key was newly inserted.
    pub fn insert(&self, key: u64, val: V) -> bool {
        // Allocate and fill the node *outside* the critical section; only
        // the link is published inside it.
        let new_id = self.core.slab.alloc(key, val);
        let idx = self.bucket_of(key);
        let inserted = self
            .core
            .lock
            .cs_plain(scope!("HashMap::insert"), CsOptions::new(), |cs| {
                self.insert_locked(cs, idx, key, val, new_id)
            });
        if !inserted {
            self.core.slab.free(new_id);
        }
        inserted
    }

    /// Remove `key`. Returns whether it was present. This is the paper's
    /// §3.2 example: only the unlink is bracketed as conflicting.
    pub fn remove(&self, key: u64) -> bool {
        let idx = self.bucket_of(key);
        let removed = self
            .core
            .lock
            .cs_plain(scope!("HashMap::remove"), CsOptions::new(), |cs| {
                self.remove_locked(cs, idx, key)
            });
        self.free_removed(removed)
    }

    // ---------------------------------------------------------------------
    // §3.3 advanced variants
    // ---------------------------------------------------------------------

    /// Remove with the **self-abort idiom**: run the whole operation in
    /// SWOpt mode; when (and only when) a conflicting action turns out to
    /// be needed, abort out of SWOpt and redo pessimistically.
    pub fn remove_self_abort(&self, key: u64) -> bool {
        let idx = self.bucket_of(key);
        let removed = self.core.lock.cs(
            scope!("HashMap::remove_self_abort"),
            CsOptions::new().with_swopt(),
            |cs| {
                if cs.is_swopt() {
                    // Optimistic miss-check: absent keys need no mutation.
                    let mut unused = V::default();
                    return match self.get_impl::<true>(key, &mut unused) {
                        None => CsOutcome::SwOptFail,
                        Some(false) => CsOutcome::Done(None),
                        Some(true) => CsOutcome::SwOptSelfAbort, // must mutate
                    };
                }
                // Pessimistic path: identical to `remove`.
                CsOutcome::Done(self.remove_locked(cs, idx, key))
            },
        );
        self.free_removed(removed)
    }

    /// Remove with a **SWOpt search prefix** and a nested, non-SWOpt
    /// critical section for the unlink (§3.3). The nested critical section
    /// first re-validates; on interference the whole operation retries
    /// after reporting the SWOpt failure.
    pub fn remove_fine(&self, key: u64) -> bool {
        let idx = self.bucket_of(key);
        let ver = self.core.ver_of(idx);
        let removed = self.core.lock.cs(
            scope!("HashMap::remove_fine"),
            CsOptions::new().with_swopt(),
            |cs| {
                if !cs.is_swopt() {
                    // HTM/Lock execution: plain pessimistic removal.
                    return CsOutcome::Done(self.remove_locked(cs, idx, key));
                }
                // SWOpt search prefix.
                let v = ver.read(true);
                let valid = || ver.validate(v);
                let Some((prev, hit)) = self.table.find_validated(&self.core.slab, idx, key, valid)
                else {
                    return CsOutcome::SwOptFail;
                };
                let Some(bp) = hit else {
                    return CsOutcome::Done(None);
                };
                // Nested critical section (no SWOpt path) for the unlink.
                let unlinked = self.core.lock.cs_plain(
                    scope!("HashMap::remove_fine::unlink"),
                    CsOptions::new(),
                    |ics| {
                        // "the nested critical section must first check if
                        // a conflict has occurred" (§3.3).
                        if !ver.validate(v) {
                            return None;
                        }
                        // The version said nothing conflicting happened,
                        // but non-conflicting inserts don't bump it: verify
                        // the splice point is still what we found.
                        if self.table.link(&self.core.slab, idx, prev).get() != bp {
                            return None;
                        }
                        self.core.unlink(ics, idx, &self.table, idx, prev, bp);
                        Some(bp)
                    },
                );
                match unlinked {
                    Some(id) => CsOutcome::Done(Some(id)),
                    // Conflict detected inside the nested CS: report the
                    // SWOpt failure and retry the whole operation.
                    None => CsOutcome::SwOptFail,
                }
            },
        );
        self.free_removed(removed)
    }

    /// Insert with a SWOpt search prefix and a nested critical section for
    /// the publication (§3.3's "we can provide a SWOpt path for the first
    /// parts of these methods too").
    pub fn insert_fine(&self, key: u64, val: V) -> bool {
        let new_id = self.core.slab.alloc(key, val);
        let idx = self.bucket_of(key);
        let ver = self.core.ver_of(idx);
        let inserted = self.core.lock.cs(
            scope!("HashMap::insert_fine"),
            CsOptions::new().with_swopt(),
            |cs| {
                if !cs.is_swopt() {
                    return CsOutcome::Done(self.insert_locked(cs, idx, key, val, new_id));
                }
                // SWOpt search prefix: find whether the key exists.
                let v = ver.read(true);
                let valid = || ver.validate(v);
                let Some((_, found)) = self.table.find_validated(&self.core.slab, idx, key, valid)
                else {
                    return CsOutcome::SwOptFail;
                };
                let head = self.table.bucket(idx).get();
                if !ver.validate(v) {
                    return CsOutcome::SwOptFail;
                }
                // Nested CS performs the mutation.
                let done = self.core.lock.cs_plain(
                    scope!("HashMap::insert_fine::publish"),
                    CsOptions::new(),
                    |ics| {
                        if !ver.validate(v) {
                            return None;
                        }
                        if let Some(id) = found {
                            // Overwrite: the node is still reachable
                            // (recycling requires a version bump, which
                            // validate caught, so key identity holds).
                            self.core.overwrite(ics, idx, id, val);
                            return Some(false);
                        }
                        // Fresh insert: the head we saw must be unchanged,
                        // else another insert may have added our key.
                        if self.table.bucket(idx).get() != head {
                            return None;
                        }
                        self.core.slab.node(new_id).next.set(head);
                        self.table.bucket(idx).set(new_id);
                        Some(true)
                    },
                );
                match done {
                    Some(flag) => CsOutcome::Done(flag),
                    None => CsOutcome::SwOptFail,
                }
            },
        );
        if !inserted {
            self.core.slab.free(new_id);
        }
        inserted
    }

    /// Unlink `key` from chain `idx` under exclusion; the unlinked id.
    fn remove_locked(&self, cs: &CsCtx<'_>, idx: usize, key: u64) -> Option<u64> {
        let (prev, id) = self.table.find(&self.core.slab, idx, key);
        let id = id?;
        self.core.unlink(cs, idx, &self.table, idx, prev, id);
        Some(id)
    }

    /// Insert or overwrite under exclusion. Returns true if `new_id` was
    /// linked. Publishing a fully-initialised node is not a conflicting
    /// action: readers see the old or the new chain.
    fn insert_locked(&self, cs: &CsCtx<'_>, idx: usize, key: u64, val: V, new_id: u64) -> bool {
        if let (_, Some(id)) = self.table.find(&self.core.slab, idx, key) {
            self.core.overwrite(cs, idx, id, val);
            return false;
        }
        self.table.link_front(&self.core.slab, idx, new_id);
        true
    }

    /// Recycle a removed node only after its unlink committed.
    fn free_removed(&self, removed: Option<u64>) -> bool {
        if let Some(id) = removed {
            self.core.slab.free(id);
        }
        removed.is_some()
    }

    /// Key count via a Lock-mode sweep (diagnostics/tests only).
    pub fn len_slow(&self) -> usize {
        self.core.lock.cs_plain(
            scope!("HashMap::len"),
            CsOptions::new().without_htm(),
            |_| self.table.count(&self.core.slab),
        )
    }

    /// The ALE lock protecting the table (reports, baselines).
    pub fn lock(&self) -> &AleLock<SpinLock> {
        &self.core.lock
    }

    /// Are all version stripes even (no conflicting region left open)?
    /// ale-check's post-run oracle: a crash/abort path that leaves a
    /// version odd would wedge every future SWOpt reader.
    pub fn versions_even(&self) -> bool {
        self.core.versions_even()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ale_core::{AleConfig, StaticPolicy};
    use ale_vtime::Platform;

    fn ale() -> Arc<Ale> {
        Ale::new(
            AleConfig::new(Platform::testbed()).with_seed(1),
            StaticPolicy::new(0, 4),
        )
    }

    /// Satellite: pin the documented `version_stripes` clamping behaviour.
    /// More stripes than buckets is useless (a stripe would never be the
    /// sole owner of a bucket), so construction clamps `stripes` to the
    /// rounded bucket count — and `ver_of` must never index out of bounds
    /// for *any* bucket the hash can produce, power of two or not.
    #[test]
    fn version_stripes_clamp_to_buckets() {
        let ale = ale();
        // 100 buckets round to 128; 500 stripes round to 512 then clamp.
        let map: AleHashMap<u64> = AleHashMap::new(
            &ale,
            MapConfig {
                buckets: 100,
                capacity: 1 << 10,
                version_stripes: 500,
            },
        );
        assert_eq!(map.table.len(), 128);
        assert_eq!(map.core.vers.len(), 128, "stripes must clamp to buckets");
        assert_eq!(map.core.ver_mask, map.core.vers.len() - 1);
    }

    #[test]
    fn ver_of_stays_in_bounds_for_non_power_of_two_inputs() {
        let ale = ale();
        for (buckets, stripes) in [(1, 1), (3, 7), (5, 100), (100, 6), (7, 0), (64, 64)] {
            let map: AleHashMap<u64> = AleHashMap::new(
                &ale,
                MapConfig {
                    buckets,
                    capacity: 1 << 10,
                    version_stripes: stripes,
                },
            );
            assert!(map.core.vers.len().is_power_of_two());
            assert!(
                map.core.vers.len() <= map.table.len(),
                "{stripes} stripes on {buckets} buckets must clamp"
            );
            // `ver_of` takes a bucket index, but must tolerate any usize a
            // caller could derive from a hash: masking keeps it in bounds.
            for raw in [0usize, 1, 2, 63, 64, 127, 1000, usize::MAX] {
                let _ = map.core.ver_of(raw); // would panic on out-of-bounds
            }
            // Every actual bucket maps to a live stripe.
            for b in 0..map.table.len() {
                let _ = map.core.ver_of(b);
            }
        }
    }
}
