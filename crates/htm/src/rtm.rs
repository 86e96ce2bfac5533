//! Experimental Intel RTM backend (`real-rtm` cargo feature, x86-64 only).
//!
//! When the CPU really supports TSX/RTM, [`attempt_rtm`] runs a closure
//! inside an actual hardware transaction (`xbegin`/`xend`) and maps the
//! abort status word onto [`AbortStatus`]. All memory the closure touches
//! is transactional by hardware, so [`HtmCell`](crate::HtmCell) plain
//! accesses are atomic within it — no read/write-set bookkeeping at all.
//!
//! Caveats (this backend is a demonstrator; the emulation in
//! [`txn`](crate::txn) is the supported path):
//!
//! * Most post-2021 Intel parts fuse TSX off or force-abort it in
//!   microcode (TAA mitigations); [`rtm_supported`] only checks CPUID, so
//!   a "supported" machine may still abort every transaction. Callers must
//!   treat persistent aborts as "HTM unavailable", exactly like ALE's
//!   policies do.
//! * The closure must not panic, make syscalls, or touch enough data to
//!   overflow the L1-bounded write set — any of these aborts the
//!   transaction (which is safe, just unsuccessful).
//! * `HtmCell::plain_store` reads the global version clock (and a
//!   simulated lane advances it), so every real transaction that stores
//!   to a cell has the clock's cache line in its read set and aborts when
//!   an emulated commit advances it. Prefer read-mostly bodies with this
//!   backend.

use crate::abort::{AbortCode, AbortStatus};

/// `xbegin` falls through with EAX unchanged when the transaction starts;
/// we preload this sentinel.
const STARTED: u32 = u32::MAX;

// Intel SDM status-word bits.
const XABORT_EXPLICIT: u32 = 1 << 0;
const XABORT_RETRY: u32 = 1 << 1;
const XABORT_CONFLICT: u32 = 1 << 2;
const XABORT_CAPACITY: u32 = 1 << 3;

/// Does CPUID advertise RTM? (Microcode may still force-abort; see module
/// docs.)
pub fn rtm_supported() -> bool {
    std::arch::is_x86_feature_detected!("rtm")
}

/// # Safety
/// Requires RTM support (check [`rtm_supported`]; `xbegin` is #UD without
/// TSX). A `STARTED` return must be paired with exactly one [`xend`] on
/// the commit path, with no syscall/fault/pause before it.
#[inline(always)]
unsafe fn xbegin() -> u32 {
    let mut status: u32 = STARTED;
    // On abort, control re-enters at the label with EAX = status word.
    core::arch::asm!(
        "xbegin 2f",
        "2:",
        inout("eax") status,
        options(nostack),
    );
    status
}

/// # Safety
///
/// Must only execute inside a transaction begun by [`xbegin`]; `xend`
/// outside one raises #GP. Requires RTM support.
#[inline(always)]
unsafe fn xend() {
    core::arch::asm!("xend", options(nostack));
}

/// Explicitly abort the current hardware transaction with an 8-bit code.
/// No-op (well, #UD-safe: RTM ignores xabort outside a transaction).
///
/// # Safety
///
/// Requires RTM support — the instruction itself is #UD on non-TSX CPUs
/// even though it is architecturally a no-op outside a transaction.
#[inline(always)]
pub unsafe fn xabort<const CODE: u8>() {
    core::arch::asm!("xabort {}", const CODE, options(nostack));
}

fn decode(status: u32) -> AbortStatus {
    let may_retry = status & XABORT_RETRY != 0;
    if status & XABORT_EXPLICIT != 0 {
        AbortStatus::explicit((status >> 24) as u8)
    } else if status & XABORT_CAPACITY != 0 {
        AbortStatus::capacity()
    } else if status & XABORT_CONFLICT != 0 {
        AbortStatus::conflict()
    } else {
        AbortStatus::spurious(may_retry)
    }
}

/// Run `body` inside one real hardware transaction.
///
/// Returns `Err(spurious)` immediately when RTM is not advertised, so
/// callers can fall back to the emulation (or the lock) uniformly.
pub fn attempt_rtm<R>(body: impl FnOnce() -> R) -> Result<R, AbortStatus> {
    if !rtm_supported() {
        return Err(AbortStatus {
            code: AbortCode::Spurious,
            may_retry: false,
        });
    }
    // SAFETY: xbegin/xend bracket the transactional region; the abort path
    // re-enters at the xbegin fallback label with all architectural state
    // rolled back.
    unsafe {
        let status = xbegin();
        if status == STARTED {
            let r = body();
            xend();
            Ok(r)
        } else {
            Err(decode(status))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_maps_status_bits() {
        assert_eq!(decode(XABORT_CAPACITY).code, AbortCode::Capacity);
        assert_eq!(
            decode(XABORT_CONFLICT | XABORT_RETRY).code,
            AbortCode::Conflict
        );
        assert!(decode(XABORT_CONFLICT | XABORT_RETRY).may_retry);
        assert_eq!(
            decode(XABORT_EXPLICIT | (0x2A << 24)).code,
            AbortCode::Explicit(0x2A)
        );
        assert_eq!(decode(0).code, AbortCode::Spurious);
        assert!(!decode(0).may_retry);
    }

    #[test]
    fn attempt_rtm_is_safe_whether_or_not_tsx_works() {
        // On machines without working TSX every attempt aborts (or is
        // refused); with TSX it may commit. Both are valid outcomes — what
        // must hold is memory safety and a coherent result.
        let cell = std::sync::atomic::AtomicU64::new(0);
        let mut commits = 0;
        for _ in 0..100 {
            let r = attempt_rtm(|| {
                cell.store(1, std::sync::atomic::Ordering::Relaxed);
            });
            if r.is_ok() {
                commits += 1;
            }
        }
        if commits > 0 {
            assert_eq!(cell.load(std::sync::atomic::Ordering::Relaxed), 1);
        }
        println!("RTM commits: {commits}/100 (0 is normal on TSX-disabled hosts)");
    }
}
