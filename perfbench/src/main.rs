//! Wall-clock benchmark of the ALE runtime on real OS threads.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload map-read --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics (ALE rounds alternating with
//! same-process std-baseline rounds on the identical op stream); `--trace 1`
//! re-runs the workload with per-call spans and adds the `Ale::report()`
//! counters and the per-layer ledger. Every line before the last names one
//! metric with its unit; the last line is one JSON object. Any failed
//! correctness check makes the exit code nonzero. See `README.md`.

mod clients;
mod ledger;
mod stats;
mod workload;

use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ale_core::{Ale, ExecMode, Report};
use ale_kyoto::{recover, KyotoDb, RECORD_BYTES};

use clients::{Limit, RoundSpec, Side, SpanBuf, Tally, Timing};
use stats::{median, quantile, ratio};
use workload::{kyoto_config, new_ale, AleStore, Baseline, Store, Workload};

/// Ops per client-thread stream; rounds replay the stream from its start
/// and wrap around.
const STREAM_LEN: usize = 1 << 20;
/// Warm-up ops per client thread, part of set-up: the adaptive policy's
/// learning phases finish here.
const WARMUP_OPS: usize = 100_000;
/// Measuring processes per `--trace 0` run; each sets up once, and
/// `setup_s` is the median over them.
const PROCESSES: u64 = 10;
/// One measured round; ALE and baseline rounds alternate.
const ROUND: Duration = Duration::from_millis(250);
/// Share of `--trace 1`'s seconds spent in workload rounds; the ledger
/// takes most of the rest.
const TRACED_SHARE: f64 = 0.75;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in a measuring process that `end_to_end` started: how many ms of
    /// rounds it runs.
    part_ms: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut part_ms = None;
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} has no value", pair[0]));
        };
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    format!("unknown workload {value} (map-read, map-write, kyoto-wal)")
                })?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.clamp(1, 600)),
            "--trace" => trace = Some(num()? != 0),
            "--part-ms" => part_ms = Some(num()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        part_ms,
    })
}

/// Correctness checks: each one counts as attempted, each miss as failed.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {what}");
        }
    }

    /// Ops count as attempted; wrong values and panicked clients as failed.
    fn ops(&mut self, t: &Tally, who: &str) {
        self.attempted += t.ops;
        self.failed += t.failed;
        if t.failed > 0 {
            eprintln!("CHECK FAILED: {who}: {} wrong values or panics", t.failed);
        }
    }
}

struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

fn span_bufs(threads: usize) -> Vec<SpanBuf> {
    (0..threads as u64).map(SpanBuf::new).collect()
}

/// Prefill `store` with `keys`, then run the fixed warm-up.
fn prepare<S: Store>(store: &S, w: Workload, keys: &[u64], streams: &[Vec<u32>]) -> Tally {
    let mut t = Tally::default();
    for &k in keys {
        t.mutations += 1;
        t.added += store.insert(k) as u64;
    }
    let warm_up = RoundSpec {
        side: Side::Ale,
        limit: Limit::Ops(WARMUP_OPS),
        timing: Timing::Off,
    };
    let mut no_spans = span_bufs(streams.len());
    let warm = &clients::run(
        store,
        store,
        w,
        streams,
        &[warm_up],
        Instant::now(),
        &mut no_spans,
    )[0];
    t.merge(&warm.tally);
    t
}

struct Subject {
    ale: Arc<Ale>,
    store: AleStore,
    /// Everything the store has been asked to do since it was built.
    tally: Tally,
}

fn set_up(w: Workload, seed: u64, keys: &[u64], streams: &[Vec<u32>]) -> Subject {
    let ale = new_ale(seed);
    let store = AleStore::new(w, &ale);
    let tally = prepare(&store, w, keys, streams);
    Subject { ale, store, tally }
}

/// The post-run oracles: the live key count matches the accounting, no
/// seqlock version is left odd, and for `kyoto-wal` the WAL is gapless,
/// holds one record per mutation, and recovers to the live count.
fn final_checks(w: Workload, seed: u64, s: &Subject, checks: &mut Checks) {
    checks.ops(&s.tally, "ALE store");
    let expected = s.tally.added as i64 - s.tally.taken as i64;
    let len = s.store.count() as i64;
    checks.check(
        len == expected,
        &format!("ALE key count {len} != prefill + inserted - removed = {expected}"),
    );
    checks.check(s.store.versions_even(), "a seqlock version was left odd");
    if let AleStore::Kyoto(db) = &s.store {
        let wal = db.wal();
        let bytes = wal.len() as u64;
        checks.check(
            bytes == s.tally.mutations * RECORD_BYTES as u64,
            &format!("WAL holds {bytes} B for {} mutations", s.tally.mutations),
        );
        let (recovered, report) = recover(&new_ale(seed), kyoto_config(), Arc::clone(wal));
        checks.check(
            report.gapless && report.truncated == 0 && report.applied == s.tally.mutations,
            &format!("WAL recovery report {report:?}"),
        );
        let n = recovered.count() as i64;
        let diverged = (0..w.key_space())
            .filter(|&k| db.get(k).is_some() != recovered.get(k).is_some())
            .count();
        checks.check(
            n == expected && diverged == 0,
            &format!(
                "recovery diverged from the live database: recovered count {n}, \
                 live {expected}, {diverged} keys differ"
            ),
        );
    }
}

/// What one measuring process saw in a `--trace 0` run, passed to the
/// parent as `part <field> <values...>` lines.
#[derive(Default)]
struct Part {
    ale_mops: Vec<f64>,
    /// ALE round throughput over the adjacent baseline round's.
    ratios: Vec<f64>,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    setup_s: Vec<f64>,
    rss_mb: Vec<f64>,
    samples: Vec<f64>,
    /// `[attempted, failed]`.
    checks: Vec<f64>,
}

impl Part {
    fn fields(&mut self) -> [(&'static str, &mut Vec<f64>); 8] {
        [
            ("ale_mops", &mut self.ale_mops),
            ("ratios", &mut self.ratios),
            ("p50_us", &mut self.p50_us),
            ("p99_us", &mut self.p99_us),
            ("setup_s", &mut self.setup_s),
            ("rss_mb", &mut self.rss_mb),
            ("samples", &mut self.samples),
            ("checks", &mut self.checks),
        ]
    }

    fn print(mut self) {
        for (name, values) in self.fields() {
            let values: Vec<String> = values.iter().map(f64::to_string).collect();
            println!("part {name} {}", values.join(" "));
        }
    }

    /// Append the `part` lines of `out` to `self`; false if one is garbled.
    fn absorb(&mut self, out: &str) -> bool {
        for line in out.lines() {
            let mut words = line.split_whitespace();
            if words.next() != Some("part") {
                continue;
            }
            let Some(name) = words.next() else {
                return false;
            };
            let Ok(values) = words.map(str::parse).collect::<Result<Vec<f64>, _>>() else {
                return false;
            };
            match self.fields().into_iter().find(|(n, _)| *n == name) {
                Some((_, field)) => field.extend(values),
                None => return false,
            }
        }
        true
    }
}

/// One measuring process: set up, then alternate ALE and baseline rounds
/// for `ms` milliseconds, then run the oracles.
fn measure_part(w: Workload, seed: u64, ms: u64, threads: usize) -> Part {
    let mut checks = Checks::default();
    let mut part = Part::default();
    let streams = w.op_streams(seed, threads, STREAM_LEN);
    let keys = w.prefill_keys(seed);

    let t0 = Instant::now();
    let mut subject = set_up(w, seed, &keys, &streams);
    part.setup_s.push(t0.elapsed().as_secs_f64());
    // Peak RSS over set-up and warm-up: a fixed amount of work, so the
    // figure does not grow with throughput (the WAL grows per mutation).
    let rss = peak_rss_mb();
    checks.check(rss.is_some(), "VmHWM missing from /proc/self/status");
    part.rss_mb.extend(rss);

    let baseline = Baseline::new(w);
    let mut base_tally = prepare(&baseline, w, &keys, &streams);

    let pairs = ((ms as f64 / 2e3 / ROUND.as_secs_f64()).round() as usize).max(1);
    // Alternate which side goes first in each pair so slow drift cancels.
    let specs: Vec<RoundSpec> = (0..pairs)
        .flat_map(|p| {
            let sides = if p % 2 == 0 {
                [Side::Ale, Side::Baseline]
            } else {
                [Side::Baseline, Side::Ale]
            };
            sides.map(|side| RoundSpec {
                side,
                limit: Limit::For(ROUND),
                timing: Timing::Sampled,
            })
        })
        .collect();
    let mut no_spans = span_bufs(threads);
    let rounds = clients::run(
        &subject.store,
        &baseline,
        w,
        &streams,
        &specs,
        Instant::now(),
        &mut no_spans,
    );
    let mut base_mops = Vec::new();
    let mut samples = 0;
    for (spec, mut r) in specs.iter().zip(rounds) {
        if spec.side == Side::Baseline {
            base_tally.merge(&r.tally);
            base_mops.push(r.mops);
            continue;
        }
        subject.tally.merge(&r.tally);
        part.ale_mops.push(r.mops);
        r.latency_ns.sort_unstable();
        samples += r.latency_ns.len();
        if !r.latency_ns.is_empty() {
            part.p50_us.push(quantile(&r.latency_ns, 0.50) / 1e3);
            part.p99_us.push(quantile(&r.latency_ns, 0.99) / 1e3);
        }
    }
    part.samples.push(samples as f64);
    part.ratios = part
        .ale_mops
        .iter()
        .zip(&base_mops)
        .map(|(a, b)| a / b)
        .collect();

    final_checks(w, seed, &subject, &mut checks);
    checks.ops(&base_tally, "baseline");
    let base_len = baseline.count() as i64;
    checks.check(
        base_len == base_tally.added as i64 - base_tally.taken as i64,
        &format!("baseline key count {base_len} disagrees with its accounting"),
    );
    part.checks = vec![checks.attempted as f64, checks.failed as f64];
    part
}

/// `--trace 0`: measure in `PROCESSES` processes one after another and pool
/// their rounds. Throughput on this kind of host shifts between processes
/// (thread placement, physical pages), so one process is one draw of that.
fn end_to_end(a: &Args, m: &mut Metrics, checks: &mut Checks) {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let ms = a.seconds * 1000 / PROCESSES;
    let mut all = Part::default();
    for i in 0..PROCESSES {
        let out = Command::new(&exe)
            .args(["--workload", a.workload.name()])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--part-ms", &ms.to_string()])
            .stderr(Stdio::inherit())
            .output();
        let before = all.checks.len();
        let parsed = out.is_ok_and(|o| all.absorb(&String::from_utf8_lossy(&o.stdout)));
        let ok = parsed && all.checks.len() == before + 2;
        checks.check(ok, &format!("measuring process {i} gave no result"));
    }
    for pair in all.checks.chunks_exact(2) {
        checks.attempted += pair[0] as u64;
        checks.failed += pair[1] as u64;
    }
    println!(
        "measured {} ALE and {} baseline rounds of {} ms in {PROCESSES} processes; \
         {} latency samples (1 op in {})",
        all.ale_mops.len(),
        all.ratios.len(),
        ROUND.as_millis(),
        all.samples.iter().sum::<f64>(),
        clients::SAMPLE_EVERY
    );
    let med = |v: &Vec<f64>| {
        if v.is_empty() {
            f64::NAN
        } else {
            median(v.clone())
        }
    };
    m.put("throughput_mops", med(&all.ale_mops), "Mops/s");
    m.put("op_p50_us", med(&all.p50_us), "us");
    m.put("op_p99_us", med(&all.p99_us), "us");
    m.put("mutex_ratio", med(&all.ratios), "x");
    m.put("setup_s", med(&all.setup_s), "s");
    m.put("peak_rss_mb", med(&all.rss_mb), "MB");
}

/// Counters summed over every lock and granule of one `Ale`.
#[derive(Default, Clone, Copy)]
struct Counters {
    executions: u64,
    attempts: [u64; 3],
    successes: [u64; 3],
    conflict: u64,
    capacity: u64,
    lock_held: u64,
    spurious: u64,
    swopt_fails: u64,
}

impl Counters {
    fn of(r: &Report) -> Counters {
        let mut c = Counters::default();
        for g in r.locks.iter().flat_map(|l| &l.granules) {
            c.executions += g.executions;
            for i in 0..3 {
                c.attempts[i] += g.attempts[i];
                c.successes[i] += g.successes[i];
            }
            c.conflict += g.conflict_aborts;
            c.capacity += g.capacity_aborts;
            c.lock_held += g.lock_held_aborts;
            c.spurious += g.spurious_aborts;
            c.swopt_fails += g.swopt_fails;
        }
        c
    }

    /// The counts since `before` (the counters are statistical estimates,
    /// so a difference saturates at zero).
    fn since(&self, before: &Counters) -> Counters {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        Counters {
            executions: d(self.executions, before.executions),
            attempts: std::array::from_fn(|i| d(self.attempts[i], before.attempts[i])),
            successes: std::array::from_fn(|i| d(self.successes[i], before.successes[i])),
            conflict: d(self.conflict, before.conflict),
            capacity: d(self.capacity, before.capacity),
            lock_held: d(self.lock_held, before.lock_held),
            spurious: d(self.spurious, before.spurious),
            swopt_fails: d(self.swopt_fails, before.swopt_fails),
        }
    }
}

fn core_metrics(c: &Counters, m: &mut Metrics) {
    let exec = c.executions as f64;
    // Every execution ends in exactly one success, so the shares divide by
    // the successes' sum: the counters are statistical estimates, and this
    // keeps the three shares summing to one.
    let done = c.successes.iter().sum::<u64>() as f64;
    let [htm, swopt, lock] = [ExecMode::Htm, ExecMode::SwOpt, ExecMode::Lock].map(|x| x.index());
    m.put(
        "core.htm_share",
        ratio(c.successes[htm] as f64, done),
        "share",
    );
    m.put(
        "core.swopt_share",
        ratio(c.successes[swopt] as f64, done),
        "share",
    );
    m.put(
        "core.lock_share",
        ratio(c.successes[lock] as f64, done),
        "share",
    );
    m.put(
        "core.htm_commit_ratio",
        ratio(c.successes[htm] as f64, c.attempts[htm] as f64),
        "share",
    );
    m.put(
        "core.swopt_success_ratio",
        ratio(c.successes[swopt] as f64, c.attempts[swopt] as f64),
        "share",
    );
    m.put(
        "core.attempts_per_exec",
        ratio(c.attempts.iter().sum::<u64>() as f64, exec),
        "attempt/exec",
    );
    for (name, n) in [
        ("core.conflict_aborts_per_kexec", c.conflict),
        ("core.capacity_aborts_per_kexec", c.capacity),
        ("core.lock_held_aborts_per_kexec", c.lock_held),
        ("core.spurious_aborts_per_kexec", c.spurious),
        ("core.swopt_fails_per_kexec", c.swopt_fails),
    ] {
        m.put(name, ratio(1000.0 * n as f64, exec), "1/kexec");
    }
}

/// Per-call latency quantiles from the spans, for the layer the workload
/// drives, plus that layer's shares.
fn span_metrics(w: Workload, spans: &[SpanBuf], t: &Tally, wal_bytes: u64, m: &mut Metrics) {
    let mut by_kind: [Vec<u32>; 4] = Default::default();
    for s in spans.iter().flat_map(|b| &b.kept) {
        by_kind[s.kind as usize].push(s.dur_ns);
    }
    let layer = w.layer();
    for (call, d) in w.calls().iter().zip(&mut by_kind) {
        d.sort_unstable();
        for (q, tag) in [(0.50, "p50"), (0.99, "p99")] {
            let v = if d.is_empty() { 0.0 } else { quantile(d, q) };
            m.put(format!("{layer}.{call}_ns_{tag}"), v, "ns");
        }
    }
    if layer == "hashmap" {
        m.put(
            "hashmap.get_hit_share",
            ratio(t.hits as f64, t.gets as f64),
            "share",
        );
        return;
    }
    let busy: f64 = by_kind.iter().flatten().map(|&d| d as f64).sum();
    let count_busy: f64 = by_kind[workload::COUNT as usize]
        .iter()
        .map(|&d| d as f64)
        .sum();
    m.put("kyoto.count_time_share", ratio(count_busy, busy), "share");
    m.put(
        "kyoto.wal_bytes_per_mutation",
        ratio(wal_bytes as f64, t.mutations as f64),
        "B",
    );
}

fn wal_len(store: &AleStore) -> u64 {
    match store {
        AleStore::Kyoto(db) => db.wal().len() as u64,
        _ => 0,
    }
}

/// Write the kept spans as CSV under the build directory.
fn write_spans(w: Workload, spans: &mut [SpanBuf]) -> std::io::Result<PathBuf> {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let dir = PathBuf::from(target).join("perfbench");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}.csv", w.name()));
    let mut out = BufWriter::new(std::fs::File::create(&path)?);
    writeln!(out, "thread,op,start_ns,dur_ns")?;
    let names = w.calls();
    for (t, buf) in spans.iter_mut().enumerate() {
        buf.kept.sort_unstable_by_key(|s| s.start_ns);
        for s in &buf.kept {
            let op = names[s.kind as usize];
            writeln!(out, "{t},{op},{},{}", s.start_ns, s.dur_ns)?;
        }
    }
    out.flush()?;
    Ok(path)
}

fn traced(a: &Args, threads: usize, m: &mut Metrics, checks: &mut Checks) {
    let w = a.workload;
    let streams = w.op_streams(a.seed, threads, STREAM_LEN);
    let keys = w.prefill_keys(a.seed);
    let mut subject = set_up(w, a.seed, &keys, &streams);
    let before = Counters::of(&subject.ale.report());
    let wal0 = wal_len(&subject.store);

    let rounds = a.seconds as f64 * TRACED_SHARE / ROUND.as_secs_f64();
    let pairs = ((rounds / 2.0).round() as usize).max(1);
    let specs: Vec<RoundSpec> = (0..pairs)
        .flat_map(|p| {
            let order = if p % 2 == 0 {
                [Timing::Sampled, Timing::Spans]
            } else {
                [Timing::Spans, Timing::Sampled]
            };
            order.map(|timing| RoundSpec {
                side: Side::Ale,
                limit: Limit::For(ROUND),
                timing,
            })
        })
        .collect();
    let mut spans = span_bufs(threads);
    let store = &subject.store;
    let rounds = clients::run(
        store,
        store,
        w,
        &streams,
        &specs,
        Instant::now(),
        &mut spans,
    );
    let (mut plain, mut with_spans) = (vec![], vec![]);
    let mut measured = Tally::default();
    for (spec, r) in specs.iter().zip(&rounds) {
        measured.merge(&r.tally);
        if spec.timing == Timing::Spans {
            with_spans.push(r.mops);
        } else {
            plain.push(r.mops);
        }
    }
    subject.tally.merge(&measured);
    let counters = Counters::of(&subject.ale.report()).since(&before);
    let wal_bytes = wal_len(&subject.store) - wal0;

    span_metrics(w, &spans, &measured, wal_bytes, m);
    core_metrics(&counters, m);
    let ledger = ledger::measure(threads);
    for (name, value, unit) in ledger.rows {
        m.put(name, value, unit);
    }
    checks.attempted += ledger.checks;
    checks.failed += ledger.failed;
    if ledger.failed > 0 {
        eprintln!("CHECK FAILED: a ledger row did not run in its forced mode");
    }
    m.put(
        "trace.overhead_share",
        1.0 - median(with_spans) / median(plain),
        "share",
    );
    final_checks(w, a.seed, &subject, checks);
    match write_spans(w, &mut spans) {
        Ok(path) => println!("spans written to {}", path.display()),
        Err(e) => checks.check(false, &format!("writing spans: {e}")),
    }
}

fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The commit of the checkout, read from `.git` without running git; a
/// checkout without `.git` reports `unknown`.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.into();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().into();
    }
    read(".git/packed-refs")
        .and_then(|p| {
            p.lines().find_map(|l| {
                l.strip_suffix(reference)?
                    .strip_suffix(' ')
                    .map(str::to_owned)
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn host_fingerprint(threads: usize) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_owned())
    };
    let rtm = field("flags").is_some_and(|f| f.split_whitespace().any(|x| x == "rtm"));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "host cpu=\"{}\" nproc={nproc} rtm={rtm} commit={} client_threads={threads}",
        field("model name").unwrap_or_else(|| "unknown".into()),
        git_commit()
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <map-read|map-write|kyoto-wal> --seed <n> \
                 --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    if let Some(ms) = args.part_ms {
        let part = measure_part(args.workload, args.seed, ms, threads);
        let ok = part.checks.get(1) == Some(&0.0);
        part.print();
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    println!("{}", host_fingerprint(threads));
    println!(
        "workload {} seed={} ({}); closed loop, {threads} client threads; \
         ALE = Adaptive-All on the haswell HTM profile",
        args.workload.name(),
        args.seed,
        args.workload.describe()
    );
    let mut m = Metrics(Vec::new());
    let mut checks = Checks::default();
    if args.trace {
        traced(&args, threads, &mut m, &mut checks);
    } else {
        end_to_end(&args, &mut m, &mut checks);
        let failed_share = ratio(checks.failed as f64, checks.attempted as f64);
        println!("info failed_share {failed_share} share");
        m.put("success_share", 1.0 - failed_share, "share");
    }
    for (name, value, unit) in &m.0 {
        checks.check(value.is_finite(), &format!("{name} is not a finite number"));
        println!("metric {name} {value} {unit}");
    }
    let correct = checks.failed == 0;
    let body: Vec<String> =
        m.0.iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() {
                    v.to_string()
                } else {
                    "null".into()
                };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
