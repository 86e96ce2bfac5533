//! The sharded, incrementally-resizable ALE map (ROADMAP item 2).
//!
//! [`AleShardedMap`] splits the key space across N shards by the *high*
//! bits of the same Fibonacci hash [`AleHashMap`](crate::AleHashMap) uses
//! for buckets. Each shard owns its own [`AleLock`], [`NodeSlab`], version
//! stripes, and bucket tables — so the per-granule adaptive policy and the
//! StormBreaker see N independent granules and can pick a *different mode
//! per shard* under skewed traffic: a Zipf-hot shard may fall back to Lock
//! mode while cold shards keep eliding.
//!
//! ## Incremental resize
//!
//! A shard whose load factor crosses
//! [`ShardedMapConfig::max_load_permille`] doubles its bucket array. The
//! doubled [`Table`] is installed into the shard's append-only
//! [`TableSet`], and migration proceeds one chain per step, driven
//! piggyback from subsequent mutating operations (or explicitly via
//! [`AleShardedMap::migrate_step`]). A mutation steps the migration only
//! when its own critical section saw one live, so an idle shard pays no
//! second critical section per write.
//!
//! The shard's migration state is published through an
//! [`ale_sync::SeqBuffer`] of four words — `[cur_table_slot,
//! prev_table_slot | NO_TABLE, migration_cursor, epoch]` — the
//! *table-pointer seqlock*. The protocol:
//!
//! * **Resize start** (Lock-mode CS; the doubled table is allocated
//!   outside): install the table into the next slot, then publish
//!   `[new, old, 0, epoch+1]`.
//! * **Migration step** (elided CS, HTM or Lock): open a conflicting
//!   region on the metadata version, splice every node of old-table chain
//!   `cursor` into its new-table bucket, close the region, then publish
//!   `cursor+1`. The brackets are what let a SWOpt reader overlap the
//!   splice and *know*: its final validate fails and it retries.
//! * **Finish**: once the cursor walks off the old table, publish
//!   `[cur, NO_TABLE, 0, epoch+1]`.
//!
//! Lookups snapshot the metadata ([`SeqBuffer::load_versioned`]), consult
//! the current table, then — if a migration is live and the key's
//! old-table bucket has not been passed by the cursor — the old table, and
//! re-validate both the key's version stripe and the metadata version
//! before trusting anything they read. Version stripes are indexed by
//! *hash*, not bucket, so a stripe snapshot stays meaningful across a
//! table swap.
//!
//! Mutating operations route new links to the current table; inserts and
//! removes search both tables so a not-yet-migrated key is updated in
//! place. Nodes never move between shards, and tables are never freed
//! ([`TableSet`]), so stale traversals stay memory-safe exactly as in the
//! single-lock map.

use std::sync::Arc;

use ale_core::{scope, Ale, AleLock, CsCtx, CsOptions, CsOutcome, ScopeId};
use ale_htm::HtmCell;
use ale_sync::{SeqBuffer, SpinLock};

use crate::map::MapCore;
use crate::node::NIL;
use crate::resize::{TableSet, MAX_TABLES, NO_TABLE};
use crate::table::{hash_of, Table, FIB};

/// Maximum shard count (power of two).
pub const MAX_SHARDS: usize = 32;

/// Per-shard lock labels. `'static` names keep the label intern table and
/// granule registry happy, and `ale-trace` parses the shard index back out
/// of the label for the `ale_shard_mode_total{shard,mode}` export.
static SHARD_LABELS: [&str; MAX_SHARDS] = [
    "shard00", "shard01", "shard02", "shard03", "shard04", "shard05", "shard06", "shard07",
    "shard08", "shard09", "shard10", "shard11", "shard12", "shard13", "shard14", "shard15",
    "shard16", "shard17", "shard18", "shard19", "shard20", "shard21", "shard22", "shard23",
    "shard24", "shard25", "shard26", "shard27", "shard28", "shard29", "shard30", "shard31",
];

/// Configuration for [`AleShardedMap`].
#[derive(Debug, Clone)]
pub struct ShardedMapConfig {
    /// Shard count (rounded up to a power of two, clamped to
    /// [`MAX_SHARDS`]).
    pub shards: usize,
    /// Initial bucket chains per shard (rounded up to a power of two).
    pub buckets_per_shard: usize,
    /// Node capacity per shard (live keys + in-flight allocations).
    pub capacity_per_shard: u64,
    /// Version-number stripes per shard (rounded up to a power of two).
    /// Stripes are indexed by hash, so they survive resizes unchanged.
    pub version_stripes: usize,
    /// Resize trigger: a shard doubles once `live_keys * 1000 >
    /// buckets * max_load_permille`. `0` disables resizing entirely.
    pub max_load_permille: u64,
    /// Migration chains moved piggyback per mutating operation.
    pub migrate_steps_per_op: usize,
}

impl Default for ShardedMapConfig {
    fn default() -> Self {
        ShardedMapConfig {
            shards: 8,
            buckets_per_shard: 128,
            capacity_per_shard: 1 << 16,
            version_stripes: 8,
            max_load_permille: 750,
            migrate_steps_per_op: 2,
        }
    }
}

impl ShardedMapConfig {
    pub fn new(shards: usize) -> Self {
        ShardedMapConfig {
            shards,
            ..Default::default()
        }
    }

    pub fn with_buckets_per_shard(mut self, buckets: usize) -> Self {
        self.buckets_per_shard = buckets;
        self
    }

    pub fn with_capacity_per_shard(mut self, capacity: u64) -> Self {
        self.capacity_per_shard = capacity;
        self
    }

    pub fn with_version_stripes(mut self, stripes: usize) -> Self {
        self.version_stripes = stripes.max(1);
        self
    }

    pub fn with_max_load_permille(mut self, permille: u64) -> Self {
        self.max_load_permille = permille;
        self
    }

    pub fn with_migrate_steps_per_op(mut self, steps: usize) -> Self {
        self.migrate_steps_per_op = steps;
        self
    }
}

/// One shard: the single-lock map's state plus the resize machinery.
struct Shard<V: Copy + Default + Send + 'static> {
    /// Lock, slab and version stripes. Stripes are indexed by hash, so a
    /// stripe snapshot stays meaningful across a table swap.
    core: MapCore<V>,
    tables: TableSet,
    /// `[cur_slot, prev_slot | NO_TABLE, migration_cursor, epoch]`.
    meta: SeqBuffer<4>,
    /// Live keys. An [`HtmCell`] so HTM-mode updates roll back on abort.
    count: HtmCell<u64>,
    max_load_permille: u64,
}

impl<V: Copy + Default + Send + 'static> Shard<V> {
    /// The insert router: which current-table bucket takes a new link.
    #[inline]
    fn route_insert(&self, hash: usize, curt: &Table, prev: u64) -> usize {
        if cfg!(feature = "mut-shard-route-stale") && prev != NO_TABLE {
            // MUTATION: the router masks with the *pre-resize* table's mask
            // while a migration is live. Keys whose doubled-mask bit is set
            // land in the wrong new-table bucket, where no lookup (which
            // masks correctly) will ever find them — a lost key the shard
            // workload's shadow oracle must catch.
            return hash & self.tables.get(prev).mask;
        }
        hash & curt.mask
    }

    /// The chains a lookup of `hash` searches, in order: chain `idx` of the
    /// current table, then — while a migration is live and its cursor has
    /// not passed the key's old bucket — that old-table chain.
    fn chains<'a>(
        &'a self,
        curt: &'a Table,
        idx: usize,
        prev: u64,
        cursor: u64,
        hash: usize,
    ) -> impl Iterator<Item = (&'a Table, usize)> {
        let old = (prev != NO_TABLE)
            .then(|| self.tables.get(prev))
            .map(|prevt| (prevt, hash & prevt.mask))
            .filter(|&(_, ob)| ob as u64 >= cursor);
        [Some((curt, idx)), old].into_iter().flatten()
    }

    /// SWOpt lookup: `Some(found)` on a validated result, `None` on
    /// interference (caller reports `CsOutcome::SwOptFail`).
    // ale-lint: swopt
    fn get_swopt(&self, hash: usize, key: u64, ret_val: &mut V) -> Option<bool> {
        let (snap, mv) = self.meta.load_versioned();
        let [cur, prev, cursor, _epoch] = snap;
        let ver = self.core.ver_of(hash);
        let v = ver.read(true);
        // The stripe snapshot must postdate nothing: re-anchor the metadata.
        if !self.meta.version().validate(mv) {
            return None;
        }
        // The stripe catches overwrites/unlinks; the metadata version
        // catches chain splices and table swaps.
        let valid = || ver.validate(v) && self.meta.version().validate(mv);
        let curt = self.tables.get(cur);
        for (t, idx) in self.chains(curt, hash & curt.mask, prev, cursor, hash) {
            let (_, hit) = t.find_validated(&self.core.slab, idx, key, valid)?;
            if let Some(id) = hit {
                let val = self.core.slab.node(id).val.get();
                if !valid() {
                    return None;
                }
                *ret_val = val;
                return Some(true);
            }
        }
        Some(false)
    }

    /// Pessimistic (HTM/Lock) lookup across both tables.
    fn get_locked(&self, hash: usize, key: u64, ret_val: &mut V) -> bool {
        let [cur, prev, cursor, _] = self.meta.load();
        let curt = self.tables.get(cur);
        for (t, idx) in self.chains(curt, hash & curt.mask, prev, cursor, hash) {
            if let (_, Some(id)) = t.find(&self.core.slab, idx, key) {
                *ret_val = self.core.slab.node(id).val.get();
                return true;
            }
        }
        false
    }

    /// Insert or overwrite under exclusion. Returns `(newly inserted,
    /// migration live)`; the second half is read from the same metadata
    /// snapshot, so callers skip the migration CS when nothing is moving.
    fn insert_locked(
        &self,
        cs: &CsCtx<'_>,
        hash: usize,
        key: u64,
        val: V,
        new_id: u64,
    ) -> (bool, bool) {
        let [cur, prev, cursor, _] = self.meta.load();
        let migrating = prev != NO_TABLE;
        let curt = self.tables.get(cur);
        let idx = self.route_insert(hash, curt, prev);
        // A key not yet migrated is overwritten in place: lookups still
        // consult the old table for buckets at or past the cursor.
        for (t, i) in self.chains(curt, idx, prev, cursor, hash) {
            if let (_, Some(id)) = t.find(&self.core.slab, i, key) {
                self.core.overwrite(cs, hash, id, val);
                return (false, migrating);
            }
        }
        // Fresh link at the head of the current-table chain.
        curt.link_front(&self.core.slab, idx, new_id);
        self.count.set(self.count.get() + 1);
        (true, migrating)
    }

    /// Unlink under exclusion. Returns `(unlinked node, migration live)`,
    /// as [`insert_locked`](Self::insert_locked).
    fn remove_locked(&self, cs: &CsCtx<'_>, hash: usize, key: u64) -> (Option<u64>, bool) {
        let [cur, prev, cursor, _] = self.meta.load();
        let migrating = prev != NO_TABLE;
        let curt = self.tables.get(cur);
        for (t, idx) in self.chains(curt, hash & curt.mask, prev, cursor, hash) {
            if let (p, Some(id)) = t.find(&self.core.slab, idx, key) {
                self.unlink(cs, hash, t, idx, p, id);
                return (Some(id), migrating);
            }
        }
        (None, migrating)
    }

    /// Splice `id` out of `t`'s chain at `idx` and count it gone.
    fn unlink(&self, cs: &CsCtx<'_>, hash: usize, t: &Table, idx: usize, prev: u64, id: u64) {
        self.core.unlink(cs, hash, t, idx, prev, id);
        self.count.set(self.count.get() - 1);
    }

    /// One migration step under the already-entered critical section:
    /// splice old-table chain `cursor` into the current table and publish
    /// the advanced cursor. Returns false when there is nothing to migrate.
    fn migrate_step_in_cs(&self, cs: &CsCtx<'_>) -> bool {
        let [cur, prev, cursor, epoch] = self.meta.load();
        if prev == NO_TABLE {
            return false;
        }
        let prevt = self.tables.get(prev);
        let curt = self.tables.get(cur);
        if cursor as usize > prevt.mask {
            // Every chain moved: retire the old table.
            self.meta.store([cur, NO_TABLE, 0, epoch + 1]);
            return false;
        }
        let idx = cursor as usize;
        let mut bp = prevt.bucket(idx).get();
        let bump = cs.could_swopt_be_running();
        let brackets = bump && !cfg!(feature = "mut-resize-skip-republish");
        // The chain splice is the conflicting action: a SWOpt reader that
        // overlaps it could find the key in *neither* table (gone from the
        // old bucket, not yet linked into the new one). The bracket on the
        // table-pointer version is what turns that torn lookup into a
        // validation failure.
        if brackets {
            self.meta.version().begin_conflicting_action();
        }
        prevt.bucket(idx).set(NIL);
        while bp != NIL {
            let node = self.core.slab.node(bp);
            let next = node.next.get();
            let nb = hash_of(node.key.get()) & curt.mask;
            node.next.set(curt.bucket(nb).get());
            curt.bucket(nb).set(bp);
            bp = next;
        }
        if brackets {
            self.meta.version().end_conflicting_action();
        }
        if bump && !brackets {
            // MUTATION (`mut-resize-skip-republish`): the chains moved
            // *before* any version bump — a reader that overlapped the
            // splice has already validated successfully against the stale
            // even version and reported the key absent. The late bump
            // cannot un-tell it. ale-check's torn-lookup oracle must catch
            // this.
            self.meta.version().begin_conflicting_action();
            self.meta.version().end_conflicting_action();
        }
        self.meta.store([cur, prev, cursor + 1, epoch]);
        true
    }
}

/// A sharded, incrementally-resizable ALE hash map. See the module docs
/// for the migration protocol.
///
/// Values are `Copy` and at most 16 bytes (they live in [`HtmCell`]s);
/// keys are `u64`.
pub struct AleShardedMap<V: Copy + Default + Send + 'static> {
    shards: Vec<Shard<V>>,
    /// `64 - log2(shards)`; unused when there is a single shard.
    shard_shift: u32,
    migrate_steps: usize,
}

impl<V: Copy + Default + Send + 'static> AleShardedMap<V> {
    /// Create a map registered with `ale`, one lock per shard labelled
    /// `shard00`, `shard01`, …
    pub fn new(ale: &Arc<Ale>, config: ShardedMapConfig) -> Self {
        let shards = config.shards.next_power_of_two().clamp(1, MAX_SHARDS);
        let stripes = config.version_stripes.next_power_of_two();
        let shard_shift = 64 - shards.trailing_zeros();
        let shards = (0..shards)
            .map(|i| {
                let shard = Shard {
                    core: MapCore::new(ale, SHARD_LABELS[i], config.capacity_per_shard, stripes),
                    tables: TableSet::new(Table::new(config.buckets_per_shard)),
                    meta: SeqBuffer::new(),
                    count: HtmCell::new(0),
                    max_load_permille: config.max_load_permille,
                };
                // Initial metadata: current table in slot 0, no migration.
                shard.meta.store([0, NO_TABLE, 0, 0]);
                shard
            })
            .collect();
        AleShardedMap {
            shards,
            shard_shift,
            migrate_steps: config.migrate_steps_per_op,
        }
    }

    /// Which shard owns `key` (the high bits of the Fibonacci hash, so the
    /// bucket bits — the low half — stay independent of the shard choice).
    #[inline]
    pub fn shard_of(&self, key: u64) -> usize {
        if self.shards.len() == 1 {
            0
        } else {
            (key.wrapping_mul(FIB) >> self.shard_shift) as usize
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Look up `key`, copying its value into `ret_val`. Returns whether
    /// the key was present.
    pub fn get(&self, key: u64, ret_val: &mut V) -> bool {
        self.get_scoped(scope!("ShardedMap::get"), key, ret_val)
    }

    /// `get` under a caller-chosen scope.
    pub fn get_scoped(&self, scope: &'static ScopeId, key: u64, ret_val: &mut V) -> bool {
        let s = &self.shards[self.shard_of(key)];
        let hash = hash_of(key);
        s.core.lock.cs(
            scope,
            CsOptions::new().with_swopt().non_conflicting(),
            |cs| {
                if cs.is_swopt() {
                    match s.get_swopt(hash, key, ret_val) {
                        Some(found) => CsOutcome::Done(found),
                        None => CsOutcome::SwOptFail,
                    }
                } else {
                    CsOutcome::Done(s.get_locked(hash, key, ret_val))
                }
            },
        )
    }

    /// Insert `key → val`, overwriting any existing value. Returns true if
    /// the key was newly inserted. Piggybacks migration steps and the
    /// resize trigger for the owning shard.
    pub fn insert(&self, key: u64, val: V) -> bool {
        let si = self.shard_of(key);
        let s = &self.shards[si];
        let hash = hash_of(key);
        // Allocate and fill the node *outside* the critical section.
        let new_id = s.core.slab.alloc(key, val);
        let (inserted, migrating) =
            s.core
                .lock
                .cs_plain(scope!("ShardedMap::insert"), CsOptions::new(), |cs| {
                    s.insert_locked(cs, hash, key, val, new_id)
                });
        if !inserted {
            s.core.slab.free(new_id);
        }
        if migrating {
            self.advance_migration(si);
        }
        self.maybe_start_resize(si);
        inserted
    }

    /// Remove `key`. Returns whether it was present. Piggybacks migration
    /// steps for the owning shard.
    pub fn remove(&self, key: u64) -> bool {
        let si = self.shard_of(key);
        let s = &self.shards[si];
        let hash = hash_of(key);
        let (removed, migrating) =
            s.core
                .lock
                .cs_plain(scope!("ShardedMap::remove"), CsOptions::new(), |cs| {
                    s.remove_locked(cs, hash, key)
                });
        let out = match removed {
            Some(id) => {
                // Recycle only after the unlink committed.
                s.core.slab.free(id);
                true
            }
            None => false,
        };
        if migrating {
            self.advance_migration(si);
        }
        out
    }

    /// Drive up to `migrate_steps_per_op` chain moves on shard `si`.
    fn advance_migration(&self, si: usize) {
        for _ in 0..self.migrate_steps {
            if !self.migrate_step(si) {
                break;
            }
        }
    }

    /// Move one old-table chain on shard `si` inside its own elided
    /// critical section. Returns true if a chain was moved (i.e. a
    /// migration was live). Public so tests can single-step a migration.
    pub fn migrate_step(&self, si: usize) -> bool {
        let s = &self.shards[si];
        s.core
            .lock
            .cs_plain(scope!("ShardedMap::migrate"), CsOptions::new(), |cs| {
                s.migrate_step_in_cs(cs)
            })
    }

    /// Start a resize on shard `si` if its load factor crossed the
    /// threshold and no migration is already live.
    fn maybe_start_resize(&self, si: usize) {
        let s = &self.shards[si];
        if s.max_load_permille == 0 {
            return;
        }
        // Cheap pre-check outside the lock; re-checked under it.
        let [cur, prev, _, _] = s.meta.load();
        if prev != NO_TABLE {
            return;
        }
        let buckets = s.tables.get(cur).len() as u64;
        if s.count.load_consistent() * 1000 <= buckets * s.max_load_permille {
            return;
        }
        let next_slot = (cur + 1) as usize;
        if next_slot >= MAX_TABLES {
            return;
        }
        // The doubled table is allocated outside the critical section; the
        // CS only installs and publishes it. Lock-only: installing a table
        // is a real (non-rollback-able) side effect, so it must not run
        // inside a hardware transaction.
        let mut fresh = Some(Table::new(buckets as usize * 2));
        s.core.lock.cs_plain(
            scope!("ShardedMap::resize"),
            CsOptions::new().without_htm(),
            |_cs| {
                let [cur2, prev2, _, epoch] = s.meta.load();
                if cur2 != cur || prev2 != NO_TABLE {
                    return;
                }
                if s.count.get() * 1000 <= buckets * s.max_load_permille {
                    return;
                }
                let Some(table) = fresh.take() else { return };
                if !s.tables.install(next_slot, table) {
                    return;
                }
                // Publication order: the slot is populated (release) before
                // the metadata names it.
                s.meta.store([next_slot as u64, cur2, 0, epoch + 1]);
            },
        );
    }

    /// Key count via per-shard Lock-mode sweeps (diagnostics/tests only).
    pub fn len_slow(&self) -> usize {
        (0..self.shards.len())
            .map(|si| self.shard_len_slow(si))
            .sum()
    }

    /// Key count of one shard via a Lock-mode sweep over both tables.
    pub fn shard_len_slow(&self, si: usize) -> usize {
        let s = &self.shards[si];
        s.core.lock.cs_plain(
            scope!("ShardedMap::len"),
            CsOptions::new().without_htm(),
            |_| {
                let [cur, prev, _, _] = s.meta.load();
                let mut n = s.tables.get(cur).count(&s.core.slab);
                if prev != NO_TABLE {
                    // Chains below the cursor must already be empty; sweep
                    // the whole table so a violated invariant shows up as a
                    // count mismatch.
                    n += s.tables.get(prev).count(&s.core.slab);
                }
                n
            },
        )
    }

    /// The shard's live-key counter cell (quiescent diagnostics).
    pub fn shard_live_count(&self, si: usize) -> u64 {
        self.shards[si].count.load_consistent()
    }

    /// The published migration state of shard `si`:
    /// `[cur_slot, prev_slot | NO_TABLE, cursor, epoch]`.
    pub fn migration_state(&self, si: usize) -> [u64; 4] {
        self.shards[si].meta.load()
    }

    /// Is a migration currently live on shard `si`?
    pub fn migration_in_progress(&self, si: usize) -> bool {
        self.migration_state(si)[1] != NO_TABLE
    }

    /// Is any shard mid-migration?
    pub fn any_migration_in_progress(&self) -> bool {
        (0..self.shards.len()).any(|si| self.migration_in_progress(si))
    }

    /// The migration-cursor invariant: every old-table chain the cursor
    /// has passed is empty. Checked under the shard lock; trivially true
    /// when no migration is live.
    pub fn old_chains_empty_below_cursor(&self, si: usize) -> bool {
        let s = &self.shards[si];
        s.core.lock.cs_plain(
            scope!("ShardedMap::invariant"),
            CsOptions::new().without_htm(),
            |_| {
                let [_, prev, cursor, _] = s.meta.load();
                if prev == NO_TABLE {
                    return true;
                }
                let prevt = s.tables.get(prev);
                (0..(cursor as usize).min(prevt.len())).all(|i| prevt.bucket(i).get() == NIL)
            },
        )
    }

    /// Are all version stripes and table-pointer versions even (no
    /// conflicting region left open)?
    pub fn versions_even(&self) -> bool {
        self.shards
            .iter()
            .all(|s| s.core.versions_even() && s.meta.version().read(false).is_multiple_of(2))
    }

    /// The ALE lock protecting shard `si` (reports, baselines).
    pub fn shard_lock(&self, si: usize) -> &AleLock<SpinLock> {
        &self.shards[si].core.lock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ale_core::AleConfig;
    use ale_vtime::Platform;

    fn ale() -> Arc<Ale> {
        use ale_core::StaticPolicy;
        Ale::new(
            AleConfig::new(Platform::testbed()).with_seed(7),
            StaticPolicy::new(0, 4),
        )
    }

    fn tiny_config(shards: usize) -> ShardedMapConfig {
        ShardedMapConfig::new(shards)
            .with_buckets_per_shard(2)
            .with_capacity_per_shard(1 << 12)
            .with_version_stripes(2)
            .with_max_load_permille(1500)
            .with_migrate_steps_per_op(1)
    }

    #[test]
    fn routes_cover_all_shards_and_stay_in_range() {
        let ale = ale();
        let map: AleShardedMap<u64> = AleShardedMap::new(&ale, ShardedMapConfig::new(8));
        let mut seen = [false; 8];
        for key in 0..4096u64 {
            let si = map.shard_of(key);
            assert!(si < 8);
            seen[si] = true;
        }
        assert!(seen.iter().all(|&s| s), "4096 keys must touch all 8 shards");
        // Single-shard map: everything routes to shard 0 without shifting
        // by 64.
        let one: AleShardedMap<u64> = AleShardedMap::new(&ale, ShardedMapConfig::new(1));
        for key in 0..128u64 {
            assert_eq!(one.shard_of(key), 0);
        }
    }

    #[test]
    fn insert_get_remove_roundtrip_across_resizes() {
        let ale = ale();
        let map: AleShardedMap<u64> = AleShardedMap::new(&ale, tiny_config(4));
        for key in 0..512u64 {
            assert!(map.insert(key, key * 3));
            assert!(!map.insert(key, key * 7), "second insert overwrites");
        }
        assert_eq!(map.len_slow(), 512);
        let mut v = 0u64;
        for key in 0..512u64 {
            assert!(map.get(key, &mut v), "key {key} lost");
            assert_eq!(v, key * 7);
        }
        assert!(!map.get(9999, &mut v));
        for key in (0..512u64).step_by(2) {
            assert!(map.remove(key));
            assert!(!map.remove(key), "double remove");
        }
        assert_eq!(map.len_slow(), 256);
        // The tiny table must have resized at least once per shard.
        for si in 0..map.shard_count() {
            assert!(
                map.migration_state(si)[3] > 0,
                "shard {si} never resized under 512 keys on 2 buckets"
            );
        }
        assert!(map.versions_even());
    }

    #[test]
    fn migration_steps_preserve_the_cursor_invariant() {
        let ale = ale();
        // No piggyback steps: the test drives every step by hand.
        let cfg = tiny_config(2).with_migrate_steps_per_op(0);
        let map: AleShardedMap<u64> = AleShardedMap::new(&ale, cfg);
        for key in 0..64u64 {
            map.insert(key, key);
        }
        assert!(map.any_migration_in_progress(), "load factor must trip");
        for si in 0..map.shard_count() {
            let mut guard = 0;
            while map.migrate_step(si) {
                assert!(
                    map.old_chains_empty_below_cursor(si),
                    "cursor invariant broken on shard {si}"
                );
                guard += 1;
                assert!(guard < 10_000, "migration never terminates");
            }
            assert!(!map.migration_in_progress(si));
        }
        assert_eq!(map.len_slow(), 64);
        let mut v = 0;
        for key in 0..64u64 {
            assert!(map.get(key, &mut v));
            assert_eq!(v, key);
        }
    }

    #[test]
    fn per_shard_counts_match_enumeration() {
        let ale = ale();
        let map: AleShardedMap<u64> = AleShardedMap::new(&ale, tiny_config(4));
        for key in 0..300u64 {
            map.insert(key, key);
        }
        for key in (0..300u64).step_by(3) {
            map.remove(key);
        }
        let mut per_shard = vec![0u64; map.shard_count()];
        let mut v = 0;
        for key in 0..300u64 {
            if map.get(key, &mut v) {
                per_shard[map.shard_of(key)] += 1;
            }
        }
        for (si, &expect) in per_shard.iter().enumerate() {
            assert_eq!(map.shard_len_slow(si) as u64, expect);
            assert_eq!(map.shard_live_count(si), expect);
        }
    }
}
