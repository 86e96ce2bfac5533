//! The three workloads: seeded op streams, the ALE structure each one
//! drives, and the same-process std baseline that replays the identical
//! stream. Why each workload exists is written down in `README.md`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};

use ale_core::{AdaptivePolicy, Ale, AleConfig};
use ale_hashmap::{AleHashMap, AleShardedMap, MapConfig, ShardedMapConfig};
use ale_kyoto::{
    slot_of, value_for, DbConfig, DurableCacheDb, KyotoDb, WalOp, WalRecord, SLOT_NUM,
};
use ale_vtime::{Platform, Rng, Zipf};

/// Op kinds, packed into the low two bits of a stream entry.
pub const GET: u32 = 0;
pub const INSERT: u32 = 1;
pub const REMOVE: u32 = 2;
pub const COUNT: u32 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MapRead,
    MapWrite,
    KyotoWal,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::MapRead, Workload::MapWrite, Workload::KyotoWal];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::MapRead => "map-read",
            Workload::MapWrite => "map-write",
            Workload::KyotoWal => "kyoto-wal",
        }
    }

    pub fn describe(self) -> &'static str {
        match self {
            Workload::MapRead => {
                "AleHashMap<u64>, one lock, 8192 uniform keys, half prefilled, \
                 2% insert / 2% remove / 96% get"
            }
            Workload::MapWrite => {
                "AleShardedMap<u64>, 8 shards, 65536 keys under Zipf(1.1), half prefilled, \
                 20% insert / 20% remove / 60% get"
            }
            Workload::KyotoWal => {
                "DurableCacheDb (AleCacheDb + Wal), 16384 uniform keys, 256 buckets per slot, \
                 58% prefilled, wicked mix 60% get / 25% set / 15% remove + 1 per mille count"
            }
        }
    }

    pub fn key_space(self) -> u64 {
        match self {
            Workload::MapRead => 8192,
            Workload::MapWrite => 65_536,
            Workload::KyotoWal => 16_384,
        }
    }

    fn prefill_permille(self) -> u64 {
        match self {
            Workload::MapRead | Workload::MapWrite => 500,
            // The wicked mix's steady state: sets add at 25 % of (1 - p),
            // removes take at 15 % of p, so p settles near 62 %.
            Workload::KyotoWal => 580,
        }
    }

    /// The layer whose public calls the traced run spans.
    pub fn layer(self) -> &'static str {
        match self {
            Workload::MapRead | Workload::MapWrite => "hashmap",
            Workload::KyotoWal => "kyoto",
        }
    }

    /// The layer's public-call names, indexed by op kind.
    pub fn calls(self) -> &'static [&'static str] {
        match self {
            Workload::MapRead | Workload::MapWrite => &["get", "insert", "remove"],
            Workload::KyotoWal => &["get", "set", "remove", "count"],
        }
    }

    /// The canonical value bound to `key`: every hit must return it.
    #[inline]
    pub fn value_of(self, key: u64) -> u64 {
        match self {
            Workload::MapRead | Workload::MapWrite => key * 31,
            Workload::KyotoWal => value_for(key),
        }
    }

    fn next_op(self, rng: &mut Rng, zipf: Option<&Zipf>) -> u32 {
        let key = match zipf {
            // Scramble ranks over the key space (an odd multiplier is a
            // bijection modulo a power of two) so hot keys spread out.
            Some(z) => z.sample(rng).wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.key_space(),
            None => rng.gen_range(self.key_space()),
        };
        let kind = match self {
            Workload::MapRead => map_op(rng, 20, 20),
            Workload::MapWrite => map_op(rng, 200, 200),
            Workload::KyotoWal => {
                if rng.gen_ratio(1, 1000) {
                    COUNT
                } else {
                    match rng.gen_range(100) {
                        0..=59 => GET,
                        60..=84 => INSERT,
                        _ => REMOVE,
                    }
                }
            }
        };
        (key as u32) << 2 | kind
    }

    /// One op stream per client thread, each `len` ops long, all drawn from
    /// `seed`. ALE and baseline rounds replay these same streams.
    pub fn op_streams(self, seed: u64, threads: usize, len: usize) -> Vec<Vec<u32>> {
        let zipf = (self == Workload::MapWrite).then(|| Zipf::new(self.key_space(), 1.1));
        (0..threads as u64)
            .map(|t| {
                let mut rng = Rng::new(seed ^ (t + 1).wrapping_mul(0xA076_1D64_78BD_642F));
                (0..len)
                    .map(|_| self.next_op(&mut rng, zipf.as_ref()))
                    .collect()
            })
            .collect()
    }

    /// The keys present before the first op: a seeded share of the key
    /// space, in seeded order.
    pub fn prefill_keys(self, seed: u64) -> Vec<u64> {
        let mut keys: Vec<u64> = (0..self.key_space()).collect();
        Rng::new(seed ^ 0x5EED_F111).shuffle(&mut keys);
        keys.truncate((self.key_space() * self.prefill_permille() / 1000) as usize);
        keys
    }
}

fn map_op(rng: &mut Rng, insert_pm: u64, remove_pm: u64) -> u32 {
    let dice = rng.gen_range(1000);
    if dice < insert_pm {
        INSERT
    } else if dice < insert_pm + remove_pm {
        REMOVE
    } else {
        GET
    }
}

/// The calls a workload makes; both the ALE structures and the baselines
/// implement them. `insert` binds the workload's canonical value.
pub trait Store: Sync {
    fn get(&self, key: u64) -> Option<u64>;
    fn insert(&self, key: u64) -> bool;
    fn remove(&self, key: u64) -> bool;
    fn count(&self) -> usize;
    /// Called once before each measured round starts.
    fn begin_round(&self) {}
}

/// The structure under test, as users deploy it: Adaptive-All on the
/// `haswell` HTM profile.
pub enum AleStore {
    Map(AleHashMap<u64>),
    Sharded(AleShardedMap<u64>),
    Kyoto(DurableCacheDb),
}

pub fn new_ale(seed: u64) -> Arc<Ale> {
    Ale::new(
        AleConfig::new(Platform::haswell()).with_seed(seed),
        AdaptivePolicy::new(),
    )
}

pub fn kyoto_config() -> DbConfig {
    DbConfig {
        buckets_per_slot: 256,
        capacity_per_slot: 1 << 12,
        payload_cells: 0,
    }
}

impl AleStore {
    pub fn new(w: Workload, ale: &Arc<Ale>) -> AleStore {
        let keys = w.key_space();
        match w {
            Workload::MapRead => AleStore::Map(AleHashMap::new(
                ale,
                MapConfig::new(keys as usize / 4).with_capacity(2 * keys),
            )),
            Workload::MapWrite => AleStore::Sharded(AleShardedMap::new(
                ale,
                ShardedMapConfig::new(8).with_capacity_per_shard(keys / 4),
            )),
            Workload::KyotoWal => {
                AleStore::Kyoto(DurableCacheDb::new(ale, kyoto_config(), Arc::default()))
            }
        }
    }

    /// Are all seqlock versions even (no conflicting region left open)?
    pub fn versions_even(&self) -> bool {
        match self {
            AleStore::Map(m) => m.versions_even(),
            AleStore::Sharded(m) => m.versions_even(),
            AleStore::Kyoto(db) => db.versions_even(),
        }
    }
}

impl Store for AleStore {
    #[inline]
    fn get(&self, key: u64) -> Option<u64> {
        let mut v = 0;
        match self {
            AleStore::Map(m) => m.get(key, &mut v).then_some(v),
            AleStore::Sharded(m) => m.get(key, &mut v).then_some(v),
            AleStore::Kyoto(db) => db.get(key),
        }
    }

    #[inline]
    fn insert(&self, key: u64) -> bool {
        match self {
            AleStore::Map(m) => m.insert(key, key * 31),
            AleStore::Sharded(m) => m.insert(key, key * 31),
            AleStore::Kyoto(db) => db.set(key, value_for(key)),
        }
    }

    #[inline]
    fn remove(&self, key: u64) -> bool {
        match self {
            AleStore::Map(m) => m.remove(key),
            AleStore::Sharded(m) => m.remove(key),
            AleStore::Kyoto(db) => db.remove(key),
        }
    }

    /// A full sweep; kyoto's takes the database exclusively.
    fn count(&self) -> usize {
        match self {
            AleStore::Map(m) => m.len_slow(),
            AleStore::Sharded(m) => m.len_slow(),
            AleStore::Kyoto(db) => db.count(),
        }
    }
}

/// Same-process std baselines. They avoid `BaselineHashMap` and
/// `TrylockspinDb` on purpose: both run on `SpinLock`/`HtmCell` and would
/// pay the very emulation costs the benchmark measures.
pub enum Baseline {
    Map(Mutex<HashMap<u64, u64>>),
    Kyoto(SlotDb),
}

/// `kyoto-wal`'s baseline: a readers-writer lock over 16 mutex-guarded
/// slots (Kyoto's lock layout), logging every mutation as a 48-byte record.
pub struct SlotDb {
    slots: RwLock<Vec<Mutex<HashMap<u64, u64>>>>,
    log: Mutex<(u64, Vec<u8>)>,
}

const POISONED: &str = "a baseline thread panicked holding the lock";

impl SlotDb {
    fn append(&self, op: WalOp, key: u64, value: u64) {
        let mut log = self.log.lock().expect(POISONED);
        log.0 += 1;
        let frame = WalRecord {
            seq: log.0,
            op,
            key,
            value,
        }
        .encode();
        log.1.extend_from_slice(&frame);
    }

    fn slot<R>(&self, key: u64, f: impl FnOnce(&mut HashMap<u64, u64>) -> R) -> R {
        let slots = self.slots.read().expect(POISONED);
        let mut slot = slots[slot_of(key)].lock().expect(POISONED);
        f(&mut slot)
    }
}

impl Baseline {
    pub fn new(w: Workload) -> Baseline {
        match w {
            Workload::MapRead | Workload::MapWrite => Baseline::Map(Mutex::default()),
            Workload::KyotoWal => Baseline::Kyoto(SlotDb {
                slots: RwLock::new((0..SLOT_NUM).map(|_| Mutex::default()).collect()),
                log: Mutex::default(),
            }),
        }
    }
}

impl Store for Baseline {
    #[inline]
    fn get(&self, key: u64) -> Option<u64> {
        match self {
            Baseline::Map(m) => m.lock().expect(POISONED).get(&key).copied(),
            Baseline::Kyoto(db) => db.slot(key, |s| s.get(&key).copied()),
        }
    }

    #[inline]
    fn insert(&self, key: u64) -> bool {
        match self {
            Baseline::Map(m) => m.lock().expect(POISONED).insert(key, key * 31).is_none(),
            Baseline::Kyoto(db) => {
                let value = value_for(key);
                db.append(WalOp::Set, key, value);
                db.slot(key, |s| s.insert(key, value).is_none())
            }
        }
    }

    #[inline]
    fn remove(&self, key: u64) -> bool {
        match self {
            Baseline::Map(m) => m.lock().expect(POISONED).remove(&key).is_some(),
            Baseline::Kyoto(db) => {
                db.append(WalOp::Remove, key, 0);
                db.slot(key, |s| s.remove(&key).is_some())
            }
        }
    }

    fn count(&self) -> usize {
        match self {
            Baseline::Map(m) => m.lock().expect(POISONED).len(),
            Baseline::Kyoto(db) => {
                let mut slots = db.slots.write().expect(POISONED);
                slots
                    .iter_mut()
                    .map(|s| s.get_mut().expect(POISONED).len())
                    .sum()
            }
        }
    }

    /// Drop the logged bytes but keep the buffer, so the log's memory stays
    /// at one round's worth however fast the baseline runs.
    fn begin_round(&self) {
        if let Baseline::Kyoto(db) = self {
            db.log.lock().expect(POISONED).1.clear();
        }
    }
}
