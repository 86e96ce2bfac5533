//! The per-layer ledger: isolated calls into each layer's public functions,
//! timed in batches on real threads. Each row is the median over batches of
//! the mean ns per call. `_2t` rows run the call on two threads at once,
//! each on its own object, so they expose state the objects share behind
//! the caller's back (such as a global version clock).

use std::hint::black_box;
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use ale_core::{scope, Ale, AleConfig, AleLock, CsOptions, CsOutcome, ExecMode, StaticPolicy};
use ale_htm::HtmCell;
use ale_kyoto::{Wal, WalOp};
use ale_sync::{CachePadded, RawLock, RawRwLock, RwLock, SeqVersion, Snzi, SpinLock, StatCounter};
use ale_vtime::{Event, Platform, Rng};

use crate::stats::median;

const BATCHES: usize = 9;
const CALLS: usize = 20_000;

fn per_call_ns(mut f: impl FnMut()) -> f64 {
    let batches = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..CALLS {
                f();
            }
            t0.elapsed().as_nanos() as f64 / CALLS as f64
        })
        .collect();
    median(batches)
}

/// `f(t)` on `threads` threads at once; a batch's value is the mean of the
/// threads' ns per call.
fn per_call_ns_on(threads: usize, f: impl Fn(usize) + Sync) -> f64 {
    let barrier = Barrier::new(threads);
    let per_thread: Vec<Vec<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (f, barrier) = (&f, &barrier);
                s.spawn(move || {
                    (0..BATCHES)
                        .map(|_| {
                            barrier.wait();
                            let t0 = Instant::now();
                            for _ in 0..CALLS {
                                f(t);
                            }
                            t0.elapsed().as_nanos() as f64 / CALLS as f64
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a ledger thread panicked"))
            .collect()
    });
    let batches = (0..BATCHES)
        .map(|b| per_thread.iter().map(|v| v[b]).sum::<f64>() / threads as f64)
        .collect();
    median(batches)
}

/// Share of a lock's completed executions that succeeded in `mode`.
fn mode_share(lock: &AleLock<SpinLock>, mode: ExecMode) -> f64 {
    let report = lock.ale().report();
    let (mut hits, mut execs) = (0, 0);
    for l in report
        .locks
        .iter()
        .filter(|l| l.label == lock.meta().label())
    {
        for g in &l.granules {
            hits += g.successes[mode.index()];
            execs += g.executions;
        }
    }
    hits as f64 / execs.max(1) as f64
}

pub struct Ledger {
    /// `(name, value, unit)` rows.
    pub rows: Vec<(&'static str, f64, &'static str)>,
    /// Rows whose forced execution mode did not run (a broken premise).
    pub failed: u64,
    pub checks: u64,
}

pub fn measure(threads: usize) -> Ledger {
    let mut rows = Vec::new();
    let mut row = |name, value| rows.push((name, value, "ns"));

    let mutex = Mutex::new(0u64);
    let mutex_ns = per_call_ns(|| *mutex.lock().expect("uncontended") += 1);
    row("sync.std_mutex_cycle_ns", mutex_ns);
    let spin = SpinLock::new();
    row(
        "sync.spinlock_cycle_ns",
        per_call_ns(|| {
            spin.acquire();
            spin.release();
        }),
    );
    let rw = RwLock::new();
    row(
        "sync.rwlock_shared_cycle_ns",
        per_call_ns(|| {
            rw.acquire_shared();
            rw.release_shared();
        }),
    );
    let ver = SeqVersion::new();
    row(
        "sync.seqversion_read_validate_ns",
        per_call_ns(|| {
            let snap = ver.read(true);
            black_box(ver.validate(snap));
        }),
    );
    let snzi = Snzi::new(3);
    row(
        "sync.snzi_arrive_depart_ns",
        per_call_ns(|| drop(black_box(snzi.arrive()))),
    );
    let counter = StatCounter::new();
    let mut rng = Rng::new(7);
    row(
        "sync.stat_counter_inc_ns",
        per_call_ns(|| counter.inc(&mut rng)),
    );

    row(
        "vtime.now_ns",
        per_call_ns(|| {
            black_box(ale_vtime::now());
        }),
    );
    row(
        "vtime.tick_ns",
        per_call_ns(|| ale_vtime::tick(black_box(Event::SharedLoad))),
    );

    let cell = HtmCell::new(0u64);
    row(
        "htm.cell_get_ns",
        per_call_ns(|| {
            black_box(cell.get());
        }),
    );
    let mut i = 0u64;
    row(
        "htm.cell_set_ns",
        per_call_ns(|| {
            i += 1;
            cell.set(black_box(i));
        }),
    );
    let cells: Vec<CachePadded<HtmCell<u64>>> = (0..threads)
        .map(|_| CachePadded::new(HtmCell::new(0)))
        .collect();
    row(
        "htm.cell_set_2t_ns",
        per_call_ns_on(threads, |t| cells[t].set(black_box(cells[t].get() + 1))),
    );
    let profile = Platform::haswell().htm.expect("haswell models HTM");
    let txn_cells: Vec<HtmCell<u64>> = (0..6).map(HtmCell::new).collect();
    row(
        "htm.attempt_r4w2_ns",
        per_call_ns(|| {
            let r = ale_htm::attempt(&profile, &mut rng, || {
                let c = &txn_cells;
                let s = c[0].get() + c[1].get() + c[2].get() + c[3].get();
                c[4].set(s);
                c[5].set(s + 1);
            });
            let _ = black_box(r);
        }),
    );

    // An empty critical section through `AleLock::cs`, with a static policy
    // and the config pinning it to one mode.
    let haswell = || AleConfig::new(Platform::haswell());
    let lock_ale = Ale::new(
        haswell().without_htm().without_swopt(),
        StaticPolicy::new(0, 0),
    );
    let htm_ale = Ale::new(haswell().without_swopt(), StaticPolicy::new(5, 0));
    let swopt_ale = Ale::new(haswell().without_htm(), StaticPolicy::new(0, 8));
    let lock_cs = lock_ale.new_lock("ledger.lock", SpinLock::new());
    let htm_cs = htm_ale.new_lock("ledger.htm", SpinLock::new());
    let swopt_cs = swopt_ale.new_lock("ledger.swopt", SpinLock::new());
    let cs_lock_ns =
        per_call_ns(|| lock_cs.cs_plain(scope!("ledger::cs"), CsOptions::new(), |_| ()));
    row("core.cs_lock_mode_ns", cs_lock_ns);
    row(
        "core.cs_htm_mode_ns",
        per_call_ns(|| htm_cs.cs_plain(scope!("ledger::cs"), CsOptions::new(), |_| ())),
    );
    row(
        "core.cs_swopt_mode_ns",
        per_call_ns(|| {
            swopt_cs.cs(
                scope!("ledger::cs"),
                CsOptions::new().with_swopt().non_conflicting(),
                |_| CsOutcome::Done(()),
            )
        }),
    );
    let per_thread_locks: Vec<AleLock<SpinLock>> = (0..threads)
        .map(|_| lock_ale.new_lock("ledger.lock2t", SpinLock::new()))
        .collect();
    row(
        "core.cs_lock_mode_2t_ns",
        per_call_ns_on(threads, |t| {
            per_thread_locks[t].cs_plain(scope!("ledger::cs"), CsOptions::new(), |_| ())
        }),
    );

    let gate_was_on = ale_trace::is_enabled();
    row(
        "trace.gate_off_ns",
        per_call_ns(|| {
            black_box(ale_trace::is_enabled());
        }),
    );
    let wal = Wal::new();
    let mut key = 0u64;
    row(
        "kyoto.wal_append_ns",
        per_call_ns(|| {
            key += 1;
            black_box(wal.append(WalOp::Set, key, key));
        }),
    );
    rows.push(("core.cs_lock_mode_mutex_ratio", cs_lock_ns / mutex_ns, "x"));

    // The forced modes must really be the ones that ran, and the trace gate
    // must really have been off.
    let premises = [
        mode_share(&lock_cs, ExecMode::Lock) > 0.9,
        mode_share(&htm_cs, ExecMode::Htm) > 0.9,
        mode_share(&swopt_cs, ExecMode::SwOpt) > 0.9,
        !gate_was_on,
    ];
    Ledger {
        rows,
        failed: premises.iter().filter(|ok| !**ok).count() as u64,
        checks: premises.len() as u64,
    }
}
