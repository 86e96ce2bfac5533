//! Workload runners: execute one (platform, variant, thread-count) cell of
//! a figure under the virtual-time simulator and report throughput.
//!
//! Following the paper's methodology, runs with an adaptive policy include
//! a warm-up pass so measured throughput reflects the *converged*
//! configuration (the paper measures long steady-state runs; our simulated
//! runs are shorter, so the warm-up keeps the comparison fair). Static
//! variants get the same warm-up for symmetry.

use std::sync::Arc;

use ale_core::{Ale, Report};
use ale_hashmap::{AleHashMap, AleShardedMap, BaselineHashMap, MapConfig, ShardedMapConfig};
use ale_kyoto::{AleCacheDb, DbConfig, KyotoDb, TrylockspinDb, WickedConfig};
use ale_vtime::{Platform, Rng, Sim, Zipf};

use crate::variant::{Mods, Variant};

/// The HashMap microbenchmark's workload parameters (§5): uniform random
/// keys, an insert/remove/get mix, half the key space prefilled.
#[derive(Debug, Clone)]
pub struct HashMapWorkload {
    pub key_space: u64,
    /// Inserts per mille of operations.
    pub insert_pm: u32,
    /// Removes per mille of operations.
    pub remove_pm: u32,
    /// Version-number stripes (1 = the paper's single `tblVer`; more =
    /// per-bucket versions, ablation A3).
    pub version_stripes: usize,
    /// Bucket-count override (None = key_space / 4). Small values make
    /// long chains, i.e. long optimistic read sections.
    pub buckets: Option<usize>,
    /// Zipfian key skew `theta` (None = uniform keys). Hot keys make HTM
    /// transactions conflict on the same nodes and invalidate SWOpt
    /// readers far more often.
    pub zipf_theta: Option<f64>,
}

impl HashMapWorkload {
    /// Read-only mix.
    pub fn read_only(key_space: u64) -> Self {
        HashMapWorkload {
            key_space,
            insert_pm: 0,
            remove_pm: 0,
            version_stripes: 1,
            buckets: None,
            zipf_theta: None,
        }
    }

    /// 2 % insert / 2 % remove / 96 % get.
    pub fn read_heavy(key_space: u64) -> Self {
        HashMapWorkload {
            key_space,
            insert_pm: 20,
            remove_pm: 20,
            version_stripes: 1,
            buckets: None,
            zipf_theta: None,
        }
    }

    /// 20 % insert / 20 % remove / 60 % get.
    pub fn mutate_heavy(key_space: u64) -> Self {
        HashMapWorkload {
            key_space,
            insert_pm: 200,
            remove_pm: 200,
            version_stripes: 1,
            buckets: None,
            zipf_theta: None,
        }
    }

    /// Per-bucket version numbers (ablation A3).
    pub fn with_version_stripes(mut self, stripes: usize) -> Self {
        self.version_stripes = stripes;
        self
    }

    /// Override the bucket count (long chains = long optimistic reads).
    pub fn with_buckets(mut self, buckets: usize) -> Self {
        self.buckets = Some(buckets);
        self
    }

    /// Draw keys Zipfian with skew `theta` instead of uniformly.
    pub fn with_zipf(mut self, theta: f64) -> Self {
        self.zipf_theta = Some(theta);
        self
    }

    pub fn label(&self) -> String {
        format!(
            "{}i/{}r/{}g",
            self.insert_pm / 10,
            self.remove_pm / 10,
            (1000 - self.insert_pm - self.remove_pm) / 10
        )
    }

    fn key_sampler(&self) -> Option<Zipf> {
        self.zipf_theta.map(|t| Zipf::new(self.key_space, t))
    }

    #[inline]
    fn run_op(
        &self,
        zipf: Option<&Zipf>,
        rng: &mut Rng,
        get: &mut impl FnMut(u64),
        insert: &mut impl FnMut(u64),
        remove: &mut impl FnMut(u64),
    ) {
        let key = match zipf {
            // Scramble ranks over the key space so hot keys spread across
            // buckets/slots (rank 0 is hottest).
            Some(z) => z.sample(rng).wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.key_space,
            None => rng.gen_range(self.key_space),
        };
        let dice = rng.gen_range(1000) as u32;
        if dice < self.insert_pm {
            insert(key);
        } else if dice < self.insert_pm + self.remove_pm {
            remove(key);
        } else {
            get(key);
        }
    }
}

/// One figure cell's outcome.
#[derive(Debug)]
pub struct RunResult {
    pub variant: String,
    pub platform: &'static str,
    pub threads: usize,
    pub total_ops: u64,
    pub makespan_ns: u64,
    /// Million operations per second of virtual time.
    pub mops: f64,
    /// The ALE statistics report (None for Uninstrumented).
    pub report: Option<Report>,
}

impl RunResult {
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{:.4}",
            self.platform, self.variant, self.threads, self.total_ops, self.makespan_ns, self.mops
        )
    }

    pub const CSV_HEADER: &'static str = "platform,variant,threads,total_ops,makespan_ns,mops";
}

/// Scheduler slack for benchmark runs: trades a little interleaving
/// fidelity for far fewer lane handoffs (see `ale-vtime`). Zero keeps the
/// exact conservative schedule; figures use a small slack for speed.
pub const BENCH_SLACK_NS: u64 = 300;

/// Execute the HashMap microbenchmark.
pub fn run_hashmap(
    platform: Platform,
    variant: Variant,
    threads: usize,
    workload: &HashMapWorkload,
    ops_per_lane: u64,
    warmup_per_lane: u64,
    seed: u64,
) -> RunResult {
    run_hashmap_mods(
        platform,
        variant,
        Mods::default(),
        threads,
        workload,
        ops_per_lane,
        warmup_per_lane,
        seed,
    )
}

/// [`run_hashmap`] with ablation modifiers.
#[allow(clippy::too_many_arguments)]
pub fn run_hashmap_mods(
    platform: Platform,
    variant: Variant,
    mods: Mods,
    threads: usize,
    workload: &HashMapWorkload,
    ops_per_lane: u64,
    warmup_per_lane: u64,
    seed: u64,
) -> RunResult {
    let buckets = workload
        .buckets
        .unwrap_or((workload.key_space as usize / 4).clamp(64, 1 << 16));
    let capacity = workload.key_space * 2 + 4096;
    let ale = (variant != Variant::Uninstrumented)
        .then(|| variant.build_ale_mods(platform.clone(), seed, mods));
    let map: Box<dyn BenchMap> = match &ale {
        None => Box::new(BaselineHashMap::<u64>::new(buckets, capacity)),
        Some(ale) => Box::new(AleHashMap::<u64>::new(
            ale,
            MapConfig::new(buckets)
                .with_capacity(capacity)
                .with_version_stripes(workload.version_stripes),
        )),
    };
    drive(
        &*map,
        ale.as_ref(),
        variant.name(),
        platform,
        threads,
        workload,
        ops_per_lane,
        warmup_per_lane,
        seed,
    )
}

/// Execute the HashMap microbenchmark against the *sharded* map: the same
/// op mix as [`run_hashmap`], but keys route across `shards` independent
/// granules. Total buckets and node capacity match what the single-lock
/// run would get, so a throughput difference is the locking granularity —
/// per-shard version stripes confine write invalidation to the written
/// shard's optimistic readers, where the single-lock map (at
/// `version_stripes = 1`) invalidates every concurrent SWOpt reader on
/// every write. Incremental resize stays armed at the default threshold:
/// an undersized initial table grows out of its long chains during
/// prefill and warm-up (something the single-lock map cannot do), and by
/// the measured pass the map is at steady state — runs stay deterministic
/// either way.
///
/// `variant` must be an instrumented flavour — the sharded map is an ALE
/// structure and has no uninstrumented baseline.
#[allow(clippy::too_many_arguments)]
pub fn run_sharded(
    platform: Platform,
    variant: Variant,
    threads: usize,
    shards: usize,
    workload: &HashMapWorkload,
    ops_per_lane: u64,
    warmup_per_lane: u64,
    seed: u64,
) -> RunResult {
    assert!(
        variant != Variant::Uninstrumented,
        "the sharded map has no uninstrumented baseline"
    );
    let total_buckets = workload
        .buckets
        .unwrap_or((workload.key_space as usize / 4).clamp(64, 1 << 16));
    let buckets_per_shard = (total_buckets / shards).max(4);

    let ale = variant.build_ale_mods(platform.clone(), seed, Mods::default());
    let map: AleShardedMap<u64> = AleShardedMap::new(
        &ale,
        ShardedMapConfig::new(shards)
            .with_buckets_per_shard(buckets_per_shard)
            .with_capacity_per_shard((workload.key_space * 2) / shards as u64 + 4096)
            .with_version_stripes(workload.version_stripes),
    );
    let variant = format!("Sharded{}x-{}", map.shard_count(), variant.name());
    drive(
        &map,
        Some(&ale),
        variant,
        platform,
        threads,
        workload,
        ops_per_lane,
        warmup_per_lane,
        seed,
    )
}

/// The maps the HashMap microbenchmark drives.
trait BenchMap: Sync {
    fn get(&self, key: u64, ret_val: &mut u64) -> bool;
    fn insert(&self, key: u64, val: u64) -> bool;
    fn remove(&self, key: u64) -> bool;
}

macro_rules! bench_map {
    ($($ty:ty),*) => {$(
        impl BenchMap for $ty {
            fn get(&self, key: u64, ret_val: &mut u64) -> bool {
                <$ty>::get(self, key, ret_val)
            }
            fn insert(&self, key: u64, val: u64) -> bool {
                <$ty>::insert(self, key, val)
            }
            fn remove(&self, key: u64) -> bool {
                <$ty>::remove(self, key)
            }
        }
    )*};
}

bench_map!(BaselineHashMap<u64>, AleHashMap<u64>, AleShardedMap<u64>);

/// Prefill half the key space, then run the warm-up and the measured pass
/// of `workload` against `map`. Statistics gathered during the prefill
/// (single-threaded, real-time, insert-only setup traffic) are reset so
/// they do not pollute what the policy learns.
#[allow(clippy::too_many_arguments)]
fn drive(
    map: &dyn BenchMap,
    ale: Option<&Arc<Ale>>,
    variant: String,
    platform: Platform,
    threads: usize,
    workload: &HashMapWorkload,
    ops_per_lane: u64,
    warmup_per_lane: u64,
    seed: u64,
) -> RunResult {
    for k in (0..workload.key_space).step_by(2) {
        map.insert(k, k.wrapping_mul(31));
    }
    if let Some(ale) = ale {
        ale.reset_statistics();
    }
    let zipf = workload.key_sampler();
    let body = |lane: &mut ale_vtime::Lane, ops: u64| {
        let mut rng = lane.rng().clone();
        let mut sink = 0u64;
        for _ in 0..ops {
            workload.run_op(
                zipf.as_ref(),
                &mut rng,
                &mut |k| {
                    let mut v = 0;
                    if map.get(k, &mut v) {
                        sink ^= v;
                    }
                },
                &mut |k| {
                    map.insert(k, k.wrapping_mul(31));
                },
                &mut |k| {
                    map.remove(k);
                },
            );
        }
        std::hint::black_box(sink);
    };
    if warmup_per_lane > 0 {
        Sim::new(platform.clone(), threads)
            .with_seed(seed)
            .with_slack(BENCH_SLACK_NS)
            .run(|lane| body(lane, warmup_per_lane));
    }
    let kind = platform.kind.name();
    let report = Sim::new(platform, threads)
        .with_seed(seed ^ 0xBEEF)
        .with_slack(BENCH_SLACK_NS)
        .run(|lane| body(lane, ops_per_lane));
    let total = ops_per_lane * threads as u64;
    RunResult {
        variant,
        platform: kind,
        threads,
        total_ops: total,
        makespan_ns: report.makespan_ns,
        mops: report.throughput(total) / 1e6,
        report: ale.map(|a| a.report()),
    }
}

/// Execute the Kyoto `wicked` benchmark.
pub fn run_kyoto(
    platform: Platform,
    variant: Variant,
    threads: usize,
    cfg: &WickedConfig,
    ops_per_lane: u64,
    warmup_per_lane: u64,
    seed: u64,
) -> RunResult {
    let kind = platform.kind.name();
    let db_cfg = DbConfig {
        buckets_per_slot: ((cfg.key_space as usize / 16).next_power_of_two()).clamp(64, 1 << 14),
        capacity_per_slot: cfg.key_space / 4 + 4096,
        payload_cells: cfg.payload_cells,
    };

    let run = |db: &dyn KyotoDb, ale: Option<&std::sync::Arc<ale_core::Ale>>| -> RunResult {
        ale_kyoto::prefill(db, cfg, seed);
        if let Some(a) = ale {
            a.reset_statistics();
        }
        let body = |lane: &mut ale_vtime::Lane, ops: u64| {
            let mut rng = lane.rng().clone();
            let mut stats = ale_kyoto::WickedStats::default();
            for _ in 0..ops {
                ale_kyoto::wicked_op(db, cfg, &mut rng, &mut stats);
            }
            stats
        };
        if warmup_per_lane > 0 {
            Sim::new(platform.clone(), threads)
                .with_seed(seed)
                .with_slack(BENCH_SLACK_NS)
                .run(|lane| body(lane, warmup_per_lane));
        }
        let report = Sim::new(platform.clone(), threads)
            .with_seed(seed ^ 0xBEEF)
            .with_slack(BENCH_SLACK_NS)
            .run(|lane| body(lane, ops_per_lane));
        let total = ops_per_lane * threads as u64;
        RunResult {
            variant: variant.name(),
            platform: kind,
            threads,
            total_ops: total,
            makespan_ns: report.makespan_ns,
            mops: report.throughput(total) / 1e6,
            report: ale.map(|a| a.report()),
        }
    };

    if variant == Variant::Uninstrumented {
        let db = TrylockspinDb::with_payload(
            db_cfg.buckets_per_slot,
            db_cfg.capacity_per_slot,
            db_cfg.payload_cells,
        );
        run(&db, None)
    } else {
        let ale = variant.build_ale_mods(platform.clone(), seed, Mods::default());
        let db = AleCacheDb::new(&ale, db_cfg);
        run(&db, Some(&ale))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashmap_runner_produces_throughput() {
        let w = HashMapWorkload::read_heavy(512);
        let r = run_hashmap(
            Platform::testbed(),
            Variant::StaticAll(3, 8),
            2,
            &w,
            300,
            50,
            1,
        );
        assert!(r.mops > 0.0, "{r:?}");
        assert_eq!(r.total_ops, 600);
        assert!(r.report.is_some());
        assert!(r.csv_row().starts_with("testbed,Static-All-3:8,2,"));
        let base = run_hashmap(
            Platform::testbed(),
            Variant::Uninstrumented,
            2,
            &w,
            300,
            0,
            1,
        );
        assert!(base.mops > 0.0);
        assert!(base.report.is_none());
    }

    #[test]
    fn kyoto_runner_produces_throughput() {
        let cfg = WickedConfig {
            key_space: 512,
            count_permille: 0,
            ..Default::default()
        };
        let r = run_kyoto(
            Platform::testbed(),
            Variant::StaticAll(3, 8),
            2,
            &cfg,
            200,
            50,
            2,
        );
        assert!(r.mops > 0.0, "{r:?}");
        let base = run_kyoto(
            Platform::testbed(),
            Variant::Uninstrumented,
            2,
            &cfg,
            200,
            0,
            2,
        );
        assert!(base.mops > 0.0);
    }

    #[test]
    fn sharded_runner_produces_throughput_and_is_deterministic() {
        let w = HashMapWorkload::read_heavy(512).with_zipf(1.1);
        let run = || {
            run_sharded(
                Platform::testbed(),
                Variant::StaticAll(3, 8),
                2,
                4,
                &w,
                300,
                50,
                1,
            )
        };
        let a = run();
        let b = run();
        assert!(a.mops > 0.0, "{a:?}");
        assert_eq!(a.total_ops, 600);
        assert_eq!(
            a.makespan_ns, b.makespan_ns,
            "sharded run not deterministic"
        );
        assert!(a.variant.starts_with("Sharded4x-"), "{}", a.variant);
        assert!(a.report.is_some());
    }

    #[test]
    fn workload_mix_labels() {
        assert_eq!(HashMapWorkload::read_only(10).label(), "0i/0r/100g");
        assert_eq!(HashMapWorkload::mutate_heavy(10).label(), "20i/20r/60g");
    }

    #[test]
    fn runs_are_deterministic() {
        let w = HashMapWorkload::mutate_heavy(256);
        let a = run_hashmap(
            Platform::haswell(),
            Variant::StaticAll(4, 8),
            4,
            &w,
            200,
            0,
            9,
        );
        let b = run_hashmap(
            Platform::haswell(),
            Variant::StaticAll(4, 8),
            4,
            &w,
            200,
            0,
            9,
        );
        assert_eq!(a.makespan_ns, b.makespan_ns);
    }
}
