//! Transactionally-accessible memory cells.
//!
//! Real HTM tracks raw loads and stores through the cache-coherence
//! protocol; a software emulation needs an instrumentation point instead.
//! An [`HtmCell`] is one word of "transactional memory": inside a
//! transaction its `get`/`set` are tracked (TL2-style) and buffered;
//! outside a transaction they are *seqlock-consistent* plain accesses —
//! a reader never observes a torn or in-flight value, and every
//! non-transactional store advances the cell's version so concurrent
//! transactions that read the cell abort. That last property is exactly
//! what makes Transactional Lock Elision sound: the elided lock stores its
//! state in an `HtmCell`, a transaction "subscribes" by reading it, and a
//! Lock-mode acquisition invalidates all subscribed transactions.
//!
//! Cells hold any `Copy` type up to [`MAX_CELL_SIZE`] bytes. The
//! value-plus-version layout follows crossbeam's seqlock technique
//! (volatile value access bracketed by version checks).
//!
//! Versions come from two sources (DESIGN.md §15). Commits advance the
//! global version clock. A non-transactional write on a real thread only
//! *reads* it and publishes `max(clock + 1, old + 1)`, so spin-lock words
//! and node stores do not contend on the clock's cache line. Simulated
//! lanes keep advancing the clock on every write, so simulated schedules
//! are unchanged. Either way a cell's version strictly increases with
//! every write.

use std::cell::{Cell, UnsafeCell};
use std::sync::atomic::{fence, AtomicU64, Ordering};

use ale_vtime::{tick, Event};

use crate::txn;

/// Maximum payload size of an [`HtmCell`] in bytes.
pub const MAX_CELL_SIZE: usize = 16;

/// Low bit of the meta word: set while a writer (transactional committer or
/// plain store) owns the cell.
pub(crate) const LOCKED: u64 = 1;

/// Version number carried by a meta word.
#[inline]
pub(crate) fn ver_of(meta: u64) -> u64 {
    meta >> 1
}

#[inline]
pub(crate) fn is_locked(meta: u64) -> bool {
    meta & LOCKED != 0
}

/// The TL2 global version clock. Transaction commits advance it;
/// transactions snapshot it at begin and treat any version newer than the
/// snapshot as a conflict. Off the simulator, non-transactional writes
/// only *read* it (see [`plain_version`] and DESIGN.md §15).
pub(crate) static GLOBAL_VCLOCK: AtomicU64 = AtomicU64::new(0);

/// An upper bound on every version a real (non-simulated) thread has
/// published, raised in strides so that crossing it is rare. Simulated
/// lanes lift the clock to it ([`sim_catch_up`]) before they snapshot or
/// write, so no cell a real thread wrote earlier, such as a map prefilled
/// before the simulation, is ever ahead of a simulated snapshot.
static REAL_CEILING: AtomicU64 = AtomicU64::new(0);

/// How far past a newly published version the ceiling is raised.
const CEILING_STRIDE: u64 = 1 << 16;

thread_local! {
    /// The highest version this real thread has published. Its next
    /// transaction lifts the clock to it before taking the snapshot, so a
    /// thread never takes a false abort on its own earlier stores.
    static OWN_TOP: Cell<u64> = const { Cell::new(0) };
}

/// Current value of the global version clock (exposed for tests/stats).
pub fn global_version() -> u64 {
    GLOBAL_VCLOCK.load(Ordering::Acquire)
}

/// The version a non-transactional write publishes, given the cell's
/// pre-lock meta word `old`. Call with the cell locked (a `SeqCst` lock
/// CAS): the `SeqCst` clock load below then pairs with a transaction's
/// `SeqCst` snapshot-then-read, so a writer that locks a cell after a
/// transaction read it always publishes a version above that
/// transaction's snapshot.
///
/// Real threads never write the shared clock here (TL2's GV5): the version
/// is `clock + 1`, or `old + 1` when the cell is already ahead of the
/// clock, so it strictly increases per cell. A transaction that meets a
/// version ahead of its snapshot raises the clock to it before aborting,
/// so its retry sees the write as old. Simulated lanes keep `fetch_add`,
/// which never leaves a cell ahead of the clock, so simulated schedules do
/// not depend on which source wrote a version.
#[inline]
pub(crate) fn plain_version(old: u64) -> u64 {
    if ale_vtime::is_simulated() {
        sim_catch_up();
        let wv = GLOBAL_VCLOCK.fetch_add(1, Ordering::SeqCst) + 1;
        // The catch-up put every earlier version at or below the clock, so
        // this is `wv`; the floor only guards the strict per-cell increase.
        wv.max(ver_of(old) + 1)
    } else {
        let wv = (GLOBAL_VCLOCK.load(Ordering::SeqCst) + 1).max(ver_of(old) + 1);
        note_real_version(wv);
        wv
    }
}

/// Record that a real thread published version `v`: in [`OWN_TOP`], and in
/// [`REAL_CEILING`] (one shared write per stride).
#[inline]
pub(crate) fn note_real_version(v: u64) {
    OWN_TOP.with(|top| top.set(top.get().max(v)));
    if v > REAL_CEILING.load(Ordering::Relaxed) {
        REAL_CEILING.fetch_max(v + CEILING_STRIDE, Ordering::Relaxed);
    }
}

/// A transaction's snapshot `rv`: a value the clock held, read `SeqCst`
/// (see [`plain_version`] for the pairing). A real thread first lifts the
/// clock to its own published versions ([`OWN_TOP`]); a simulated lane to
/// the real-thread ceiling ([`sim_catch_up`]).
#[inline]
pub(crate) fn snapshot() -> u64 {
    if ale_vtime::is_simulated() {
        sim_catch_up();
    } else {
        let own = OWN_TOP.with(Cell::get);
        if own > GLOBAL_VCLOCK.load(Ordering::Relaxed) {
            return GLOBAL_VCLOCK.fetch_max(own, Ordering::SeqCst).max(own);
        }
    }
    GLOBAL_VCLOCK.load(Ordering::SeqCst)
}

/// Simulated lanes only: lift the clock to the real-thread ceiling. Raising
/// the clock never changes which versions a snapshot covers relative to
/// writes made after it, so this is invisible to simulated schedules.
#[inline]
fn sim_catch_up() {
    let c = REAL_CEILING.load(Ordering::Relaxed);
    if GLOBAL_VCLOCK.load(Ordering::Relaxed) < c {
        GLOBAL_VCLOCK.fetch_max(c, Ordering::SeqCst);
    }
}

/// One word of transactional memory. See the module docs.
///
/// ```
/// use ale_htm::HtmCell;
/// let c = HtmCell::new(5u64);
/// assert_eq!(c.get(), 5);             // plain consistent read (no txn)
/// c.set(6);                           // plain versioned store
/// assert_eq!(c.compare_exchange(6, 7), Ok(6));
/// assert_eq!(c.get(), 7);
/// ```
#[repr(C)]
pub struct HtmCell<T: Copy> {
    meta: AtomicU64,
    value: UnsafeCell<T>,
}

// SAFETY: all concurrent access to `value` is mediated by the seqlock
// protocol on `meta` (plain accesses) or the TL2 protocol (transactional
// accesses); `T: Copy` rules out drop hazards, `T: Send` lets values move
// between threads.
unsafe impl<T: Copy + Send> Send for HtmCell<T> {}
unsafe impl<T: Copy + Send> Sync for HtmCell<T> {}

impl<T: Copy> HtmCell<T> {
    /// Create a cell holding `value`.
    pub fn new(value: T) -> Self {
        const {
            assert!(
                std::mem::size_of::<T>() <= MAX_CELL_SIZE,
                "HtmCell payload exceeds MAX_CELL_SIZE"
            );
        }
        HtmCell {
            meta: AtomicU64::new(0),
            value: UnsafeCell::new(value),
        }
    }

    /// Read the cell. Transactional when called inside [`attempt`]
    /// (tracked in the read set, opaque — aborts rather than observing an
    /// inconsistent value); otherwise a seqlock-consistent plain read.
    ///
    /// [`attempt`]: crate::attempt
    #[inline]
    pub fn get(&self) -> T {
        if txn::in_txn() {
            txn::tx_read(self)
        } else {
            self.load_consistent()
        }
    }

    /// Write the cell. Transactional (buffered until commit) inside a
    /// transaction; otherwise a version-advancing plain store.
    #[inline]
    pub fn set(&self, value: T) {
        if txn::in_txn() {
            txn::tx_write(self, value);
        } else {
            self.plain_store(value);
        }
    }

    /// Seqlock-consistent read that is never transactional, even inside a
    /// transaction. Used by statistics and debugging paths that must not
    /// grow the read set.
    // ale-lint: htm-body — callable from inside transactions by design, so
    // it must stay alloc/IO/park-free transitively.
    pub fn load_consistent(&self) -> T {
        loop {
            let m1 = self.meta.load(Ordering::Acquire);
            if is_locked(m1) {
                tick(Event::SharedLoad);
                std::hint::spin_loop();
                continue;
            }
            // SAFETY: racing reads are resolved by the version re-check:
            // a value observed while m1 == m2 and unlocked was stable for
            // the whole read (crossbeam seqlock technique).
            let v = unsafe { std::ptr::read_volatile(self.value.get()) };
            fence(Ordering::Acquire);
            let m2 = self.meta.load(Ordering::Relaxed);
            if m1 == m2 {
                tick(Event::SharedLoad);
                return v;
            }
            tick(Event::SharedLoad);
        }
    }

    /// Best-effort seqlock-consistent read that charges **no virtual
    /// time** and never waits: for `debug_assert!` conditions and `Debug`
    /// impls only. Anything that ticks inside a `debug_assert!` makes
    /// debug and release builds simulate different schedules, splitting
    /// their determinism digests; and anything that *waits* without
    /// ticking can livelock the cooperative simulator. So this neither
    /// ticks nor waits: it returns `None` if the cell stays locked or
    /// unstable for a few attempts (callers treat that as "unknown").
    // ale-lint: htm-body — callable from inside transactions by design, so
    // it must stay alloc/IO/park-free transitively.
    pub fn try_peek(&self) -> Option<T> {
        for _ in 0..8 {
            let m1 = self.meta.load(Ordering::Acquire);
            if is_locked(m1) {
                std::hint::spin_loop();
                continue;
            }
            // SAFETY: racing reads are resolved by the version re-check:
            // a value observed while m1 == m2 and unlocked was stable for
            // the whole read (crossbeam seqlock technique).
            let v = unsafe { std::ptr::read_volatile(self.value.get()) };
            fence(Ordering::Acquire);
            let m2 = self.meta.load(Ordering::Relaxed);
            if m1 == m2 {
                return Some(v);
            }
        }
        None
    }

    /// Non-transactional store: lock the cell, write, release with a fresh
    /// version from [`plain_version`] (invalidating concurrent
    /// transactional readers).
    pub(crate) fn plain_store(&self, value: T) {
        let mut spins = 0u32;
        let m = loop {
            let m = self.meta.load(Ordering::Relaxed);
            if !is_locked(m)
                && self
                    .meta
                    .compare_exchange_weak(m, m | LOCKED, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok()
            {
                break m;
            }
            tick(Event::Cas);
            if spins > 6 {
                tick(Event::Backoff(spins.min(16)));
            }
            spins += 1;
            std::hint::spin_loop();
        };
        // SAFETY: we hold the cell lock; seqlock readers retry while locked.
        unsafe { std::ptr::write_volatile(self.value.get(), value) };
        self.meta.store(plain_version(m) << 1, Ordering::Release);
        tick(Event::SharedStore);
    }

    /// Atomic compare-exchange on the cell value. Succeeds (storing `new`
    /// and returning `Ok(current)`) iff the cell holds `current`.
    ///
    /// Outside a transaction this is a real lock-free-style RMW on the cell
    /// (meta word briefly locked). Inside a transaction it is the natural
    /// transactional read-test-write, tracked like any other access. Locks
    /// built over `HtmCell` use this so that transactions subscribing to the
    /// lock word observe acquisitions, which is the TLE correctness
    /// requirement.
    pub fn compare_exchange(&self, current: T, new: T) -> Result<T, T>
    where
        T: PartialEq,
    {
        if txn::in_txn() {
            let seen = txn::tx_read(self);
            return if seen == current {
                txn::tx_write(self, new);
                Ok(seen)
            } else {
                Err(seen)
            };
        }
        let mut spins = 0u32;
        loop {
            let m = self.meta.load(Ordering::Relaxed);
            if !is_locked(m)
                && self
                    .meta
                    .compare_exchange_weak(m, m | LOCKED, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok()
            {
                tick(Event::Cas);
                // SAFETY: we hold the cell lock.
                let seen = unsafe { std::ptr::read_volatile(self.value.get()) };
                if seen == current {
                    unsafe { std::ptr::write_volatile(self.value.get(), new) };
                    self.meta.store(plain_version(m) << 1, Ordering::Release);
                    return Ok(seen);
                }
                // No write happened: restore the original meta so
                // subscribed transactions are not invalidated needlessly.
                self.meta.store(m, Ordering::Release);
                return Err(seen);
            }
            tick(Event::Cas);
            if spins > 6 {
                tick(Event::Backoff(spins.min(16)));
            }
            spins += 1;
            std::hint::spin_loop();
        }
    }

    /// Exclusive read through `&mut` (no synchronisation needed).
    pub fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }

    /// Consume the cell, returning its value.
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }

    // --- raw accessors for the transaction engine -------------------------

    #[inline]
    pub(crate) fn meta_word(&self) -> &AtomicU64 {
        &self.meta
    }

    #[inline]
    pub(crate) fn value_ptr(&self) -> *mut T {
        self.value.get()
    }
}

impl<T: Copy + Default> Default for HtmCell<T> {
    fn default() -> Self {
        HtmCell::new(T::default())
    }
}

impl<T: Copy + std::fmt::Debug> std::fmt::Debug for HtmCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HtmCell")
            .field("value", &self.try_peek())
            .field("version", &ver_of(self.meta.load(Ordering::Relaxed)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_get_set_roundtrip() {
        let c = HtmCell::new(41u64);
        assert_eq!(c.get(), 41);
        c.set(42);
        assert_eq!(c.get(), 42);
        assert_eq!(c.load_consistent(), 42);
    }

    #[test]
    fn stores_advance_the_version() {
        let c = HtmCell::new(0u32);
        let v0 = ver_of(c.meta.load(Ordering::Relaxed));
        c.set(1);
        c.set(2);
        let v2 = ver_of(c.meta.load(Ordering::Relaxed));
        assert!(
            v2 > v0,
            "two stores must advance the version ({v0} -> {v2})"
        );
        assert!(!is_locked(c.meta.load(Ordering::Relaxed)));
    }

    #[test]
    fn wide_payloads_work() {
        let c = HtmCell::new([1u8; 16]);
        c.set([7u8; 16]);
        assert_eq!(c.get(), [7u8; 16]);
        let c2 = HtmCell::new((1u64, 2u64));
        c2.set((3, 4));
        assert_eq!(c2.get(), (3, 4));
    }

    #[test]
    fn get_mut_and_into_inner() {
        let mut c = HtmCell::new(5i32);
        *c.get_mut() = 9;
        assert_eq!(c.into_inner(), 9);
    }

    #[test]
    fn default_and_debug() {
        let c: HtmCell<u64> = HtmCell::default();
        assert_eq!(c.get(), 0);
        let s = format!("{c:?}");
        assert!(s.contains("HtmCell"), "{s}");
    }

    #[test]
    fn compare_exchange_inside_transaction_is_buffered() {
        use crate::txn::attempt;
        use ale_vtime::{Platform, Rng};
        let c = HtmCell::new(1u64);
        let p = Platform::testbed().htm.unwrap();
        let mut rng = Rng::new(3);
        // Failed tx-CAS, then aborted tx-CAS, then committed tx-CAS.
        let r = attempt(&p, &mut rng, || c.compare_exchange(7, 8));
        assert_eq!(r.unwrap(), Err(1));
        let r: Result<(), _> = attempt(&p, &mut rng, || {
            c.compare_exchange(1, 2).unwrap();
            crate::txn::explicit_abort(1);
        });
        assert!(r.is_err());
        assert_eq!(c.get(), 1, "aborted tx-CAS must not publish");
        let r = attempt(&p, &mut rng, || c.compare_exchange(1, 2));
        assert_eq!(r.unwrap(), Ok(1));
        assert_eq!(c.get(), 2);
    }

    #[test]
    fn compare_exchange_semantics() {
        let c = HtmCell::new(5u64);
        assert_eq!(c.compare_exchange(4, 9), Err(5));
        assert_eq!(c.get(), 5, "failed CAS must not write");
        assert_eq!(c.compare_exchange(5, 9), Ok(5));
        assert_eq!(c.get(), 9);
    }

    #[test]
    fn failed_compare_exchange_keeps_version() {
        let c = HtmCell::new(1u32);
        let before = c.meta.load(Ordering::Relaxed);
        assert!(c.compare_exchange(2, 3).is_err());
        assert_eq!(
            c.meta.load(Ordering::Relaxed),
            before,
            "failed CAS must not advance the version (no needless tx invalidation)"
        );
    }

    #[test]
    fn concurrent_cas_counter_loses_nothing() {
        let c = HtmCell::new(0u64);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = &c;
                s.spawn(move || {
                    for _ in 0..5000 {
                        loop {
                            let v = c.get();
                            if c.compare_exchange(v, v + 1).is_ok() {
                                break;
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(c.get(), 20_000);
    }

    #[test]
    fn concurrent_plain_stores_are_not_torn() {
        // Writers store (x, x); readers must never see (a, b) with a != b.
        let cell = HtmCell::new((0u64, 0u64));
        std::thread::scope(|s| {
            for w in 0..2u64 {
                let cell = &cell;
                s.spawn(move || {
                    for i in 0..20_000u64 {
                        let x = w * 1_000_000 + i;
                        cell.set((x, x));
                    }
                });
            }
            for _ in 0..2 {
                let cell = &cell;
                s.spawn(move || {
                    for _ in 0..40_000 {
                        let (a, b) = cell.get();
                        assert_eq!(a, b, "torn read: ({a}, {b})");
                    }
                });
            }
        });
    }
}
