//! The closed-loop clients: each client thread replays its op stream back to
//! back on a real OS thread until the round's op budget or deadline, and
//! checks every value it reads.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use ale_vtime::Rng;

use crate::workload::{Store, Workload, COUNT, GET, INSERT, REMOVE};

/// Untraced rounds time one op in this many (the timing costs about two
/// `Instant::now` calls on the sampled op only).
pub const SAMPLE_EVERY: usize = 8;

/// Spans kept per thread in a traced run.
const SPAN_CAP: usize = 1 << 19;

#[derive(Clone, Copy)]
pub enum Limit {
    Ops(usize),
    For(Duration),
}

/// What happened in a round, summed over its threads.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub ops: u64,
    pub gets: u64,
    pub hits: u64,
    /// `insert`/`set` and `remove` calls (each one appends a WAL record).
    pub mutations: u64,
    /// Inserts that added a key and removes that took one away.
    pub added: u64,
    pub taken: u64,
    /// Wrong values read, plus panicked client threads.
    pub failed: u64,
}

impl Tally {
    pub fn merge(&mut self, o: &Tally) {
        self.ops += o.ops;
        self.gets += o.gets;
        self.hits += o.hits;
        self.mutations += o.mutations;
        self.added += o.added;
        self.taken += o.taken;
        self.failed += o.failed;
    }
}

/// One public call, as the traced run records it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    pub dur_ns: u32,
    pub kind: u8,
}

/// A uniform sample of one thread's spans (reservoir sampling): every op of
/// a traced round is timed, and at most `SPAN_CAP` spans are kept, drawn
/// evenly from the whole traced run.
pub struct SpanBuf {
    pub kept: Vec<Span>,
    seen: u64,
    rng: Rng,
}

impl SpanBuf {
    pub fn new(seed: u64) -> SpanBuf {
        SpanBuf {
            kept: Vec::new(),
            seen: 0,
            rng: Rng::new(seed),
        }
    }

    #[inline]
    fn record(&mut self, span: Span) {
        self.seen += 1;
        if self.kept.len() < SPAN_CAP {
            self.kept.push(span);
        } else {
            let slot = self.rng.gen_range(self.seen) as usize;
            if slot < SPAN_CAP {
                self.kept[slot] = span;
            }
        }
    }
}

pub struct Round {
    pub tally: Tally,
    /// Operations per second summed over the client threads, in millions.
    pub mops: f64,
    /// Sampled op latencies of all threads, in ns.
    pub latency_ns: Vec<u32>,
}

/// How a round records timings.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Timing {
    /// No timing at all (warm-up).
    Off,
    /// Time every `SAMPLE_EVERY`-th op.
    Sampled,
    /// Time every op and record it as a span.
    Spans,
}

#[inline]
fn exec<S: Store>(store: &S, w: Workload, op: u32, t: &mut Tally) {
    let key = (op >> 2) as u64;
    t.ops += 1;
    match op & 3 {
        GET => {
            t.gets += 1;
            if let Some(v) = store.get(key) {
                t.hits += 1;
                if v != w.value_of(key) {
                    t.failed += 1;
                }
            }
        }
        INSERT => {
            t.mutations += 1;
            t.added += store.insert(key) as u64;
        }
        REMOVE => {
            t.mutations += 1;
            t.taken += store.remove(key) as u64;
        }
        COUNT => {
            black_box(store.count());
        }
        _ => unreachable!("op kinds are two bits"),
    }
}

struct ThreadOut {
    tally: Tally,
    elapsed: Duration,
    latency_ns: Vec<u32>,
}

fn client<S: Store>(
    store: &S,
    w: Workload,
    ops: &[u32],
    limit: Limit,
    timing: Timing,
    epoch: Instant,
    spans: &mut SpanBuf,
) -> ThreadOut {
    let mut tally = Tally::default();
    let mut latency_ns = Vec::new();
    let start = Instant::now();
    let (max_ops, deadline) = match limit {
        Limit::Ops(n) => (n, None),
        Limit::For(d) => (usize::MAX, Some(start + d)),
    };
    let mut i = 0;
    while i < max_ops {
        if i % 64 == 0 && deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let op = ops[i % ops.len()];
        match timing {
            Timing::Sampled if i % SAMPLE_EVERY == 0 => {
                let t0 = Instant::now();
                exec(store, w, op, &mut tally);
                latency_ns.push(t0.elapsed().as_nanos().min(u32::MAX as u128) as u32);
            }
            Timing::Spans => {
                let t0 = Instant::now();
                exec(store, w, op, &mut tally);
                let dur = t0.elapsed();
                spans.record(Span {
                    start_ns: (t0 - epoch).as_nanos() as u64,
                    dur_ns: dur.as_nanos().min(u32::MAX as u128) as u32,
                    kind: (op & 3) as u8,
                });
            }
            _ => exec(store, w, op, &mut tally),
        }
        i += 1;
    }
    ThreadOut {
        tally,
        elapsed: start.elapsed(),
        latency_ns,
    }
}

/// Which store a round drives.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Ale,
    Baseline,
}

#[derive(Clone, Copy)]
pub struct RoundSpec {
    pub side: Side,
    pub limit: Limit,
    pub timing: Timing,
}

/// Run `specs` in order on one long-lived client thread per stream; every
/// round starts on all threads together. Keeping the threads for the whole
/// schedule matters: the runtime hashes thread ids onto its striped state,
/// so fresh threads per round would reshuffle that placement every round.
/// `spans` holds one buffer per thread, written only under
/// `Timing::Spans`. A panic in a client counts as one failure and ends
/// that thread's round.
pub fn run<A: Store, B: Store>(
    ale: &A,
    baseline: &B,
    w: Workload,
    streams: &[Vec<u32>],
    specs: &[RoundSpec],
    epoch: Instant,
    spans: &mut [SpanBuf],
) -> Vec<Round> {
    let barrier = Barrier::new(streams.len());
    let per_thread: Vec<Vec<ThreadOut>> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .zip(spans.iter_mut())
            .map(|(ops, spans)| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut outs = Vec::with_capacity(specs.len());
                    for spec in specs {
                        if barrier.wait().is_leader() && spec.side == Side::Baseline {
                            baseline.begin_round();
                        }
                        barrier.wait();
                        let (limit, timing) = (spec.limit, spec.timing);
                        let out = catch_unwind(AssertUnwindSafe(|| match spec.side {
                            Side::Ale => client(ale, w, ops, limit, timing, epoch, spans),
                            Side::Baseline => client(baseline, w, ops, limit, timing, epoch, spans),
                        }));
                        outs.push(out.unwrap_or_else(|_| ThreadOut {
                            tally: Tally {
                                failed: 1,
                                ..Tally::default()
                            },
                            elapsed: Duration::ZERO,
                            latency_ns: Vec::new(),
                        }));
                    }
                    outs
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client panics are caught per round"))
            .collect()
    });
    (0..specs.len())
        .map(|r| {
            let mut out = Round {
                tally: Tally::default(),
                mops: 0.0,
                latency_ns: Vec::new(),
            };
            for o in per_thread.iter().map(|outs| &outs[r]) {
                out.tally.merge(&o.tally);
                if !o.elapsed.is_zero() {
                    out.mops += o.tally.ops as f64 / o.elapsed.as_secs_f64() / 1e6;
                }
                out.latency_ns.extend_from_slice(&o.latency_ns);
            }
            out
        })
        .collect()
}
