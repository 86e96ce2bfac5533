//! # ale-hashmap — the ALE paper's running example (§3)
//!
//! A chained hash table protected by a single lock, integrated with the
//! ALE library so every operation can execute in HTM, SWOpt, or Lock mode:
//!
//! * [`AleHashMap`] — the full §3 implementation: SWOpt `Get` (Figure 1's
//!   `GetImp<SWOptMode>` twin paths), conflicting-region bracketing with
//!   bump elision, the §3.3 self-abort and fine-grained (nested-CS)
//!   variants, and optional per-bucket version numbers (the extension the
//!   paper proposed but had "not yet experimented with").
//! * [`BaselineHashMap`] — the uninstrumented single-lock baseline.
//!
//! * [`AleShardedMap`] — the scale refactor: N single-lock shards routed
//!   by the hash's high bits, each its own adaptive granule, with
//!   incremental resize whose migration steps are themselves elided
//!   critical sections (see `shard` module docs). A shard is the
//!   single-lock map's lock, slab and version stripes plus a table-pointer
//!   seqlock and migration state.
//!
//! All of them — and Kyoto's slots in `ale-kyoto` — run their chains
//! through one [`Table`], whose optimistic and pessimistic searches are
//! one traversal (see the `table` module docs).
//!
//! Keys are `u64`; values are any `Copy + Default` type of at most 16
//! bytes (they live in [`ale_htm::HtmCell`]s).

pub mod baseline;
pub mod map;
pub mod node;
pub mod resize;
pub mod shard;
pub mod table;

pub use baseline::BaselineHashMap;
pub use map::{AleHashMap, MapConfig};
pub use node::{Node, NodeSlab, NIL};
pub use resize::{TableSet, MAX_TABLES, NO_TABLE};
pub use shard::{AleShardedMap, ShardedMapConfig, MAX_SHARDS};
pub use table::Table;
