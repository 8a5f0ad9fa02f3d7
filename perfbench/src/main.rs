//! TPNR benchmark: named closed-loop workloads against the public API,
//! end-to-end metrics from the host clock, and (with `--trace 1`) a
//! per-layer ledger measured from outside the program.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload small-tcp --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--workload all` runs every workload with their rounds interleaved, so
//! host drift spreads over all of them alike. The last line of standard
//! output is one JSON object; the lines before it are the row header and a
//! table with each metric's unit and sample count. Any failed correctness
//! check makes the exit code nonzero.

mod idle;
mod ledger;
mod stats;
mod trace;
mod workload;

use ledger::replay;
use stats::{json_num, json_str, median, now_us, peak_rss_mb, tail, timed, Host};
use std::process::ExitCode;
use trace::{SELF_SPANS, WAIT_SPANS};
use workload::{build, Checks, Layers, Round, Workload, WORKLOADS};

/// Rounds a run's measured time is split into (each traced run alternates
/// untraced and traced rounds). A multi-client workload reports the median
/// round's throughput.
const ROUNDS: usize = 10;
/// Set-ups per run: at least `SETUPS.0`, then more until `SETUP_BUDGET_S`
/// of set-up time has passed, at most `SETUPS.1`; `setup_s` is their
/// median. A 20 ms set-up needs the larger count to repeat within a tenth.
const SETUPS: (usize, usize) = (5, 31);
const SETUP_BUDGET_S: f64 = 2.0;
/// Seed the probe compares against: counts must match the run's own seed.
const PROBE_SEED_XOR: u64 = 0x5eed_c0de;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {val:?} for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => a.trace = val.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(a)
}

/// One reported metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    samples: usize,
}

fn metric(name: &str, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric { name: name.to_string(), unit, value, samples }
}

/// Everything one workload produced in a run.
struct Run {
    name: &'static str,
    w: Box<dyn Workload>,
    setup_s: Vec<f64>,
    rounds: Vec<Round>,
    checks: Checks,
}

fn txn_rate(r: &Round) -> f64 {
    r.txns as f64 / (r.txn_us / 1e6)
}

fn pooled<'a>(rounds: impl Iterator<Item = &'a Round>, f: fn(&Round) -> &Vec<f64>) -> Vec<f64> {
    rounds.flat_map(|r| f(r).iter().copied()).collect()
}

fn end_to_end(run: &Run) -> Vec<Metric> {
    let plain: Vec<&Round> = run.rounds.iter().filter(|r| !r.traced).collect();
    let rates: Vec<f64> = plain.iter().map(|r| txn_rate(r)).collect();
    let ups = pooled(plain.iter().copied(), |r| &r.uploads);
    let downs = pooled(plain.iter().copied(), |r| &r.downloads);
    let judges = pooled(plain.iter().copied(), |r| &r.judges);
    let txns: u64 = plain.iter().map(|r| r.txns).sum();
    let wire: u64 = plain.iter().map(|r| r.wire_bytes).sum();
    // One closed-loop client completes one transaction per transaction
    // time, so its rate is taken at the median of those times: host stalls
    // of 1–20 ms hit 0.1–3 % of transactions and moved the mean by up to a
    // fifth between runs (they show in the `*_tail_us` metrics instead).
    let (rate, rate_n) = if run.w.info().clients == 1 {
        let all: Vec<f64> = ups.iter().chain(&downs).copied().collect();
        (1e6 / median(&all), all.len())
    } else {
        (median(&rates), rates.len())
    };
    vec![
        metric("txn_per_s", "txn/s", rate, rate_n),
        metric("upload_p50_us", "us", median(&ups), ups.len()),
        metric("download_p50_us", "us", median(&downs), downs.len()),
        metric("judge_p50_us", "us", median(&judges), judges.len()),
        metric("wire_bytes_per_txn", "B", wire as f64 / txns as f64, txns as usize),
        metric("setup_s", "s", median(&run.setup_s), run.setup_s.len()),
    ]
}

/// Tail percentiles, named with the percentile actually reported (the
/// highest with at least ten samples beyond it).
fn tails(run: &Run) -> (Vec<Metric>, Vec<String>) {
    let plain = || run.rounds.iter().filter(|r| !r.traced);
    let mut out = Vec::new();
    let mut notes = Vec::new();
    for (name, xs) in [
        ("upload_tail_us", pooled(plain(), |r| &r.uploads)),
        ("download_tail_us", pooled(plain(), |r| &r.downloads)),
        ("judge_tail_us", pooled(plain(), |r| &r.judges)),
    ] {
        let (p, v) = tail(&xs).unwrap_or((0, f64::NAN));
        notes.push(format!("{name}=p{p}"));
        out.push(metric(name, "us", v, xs.len()));
    }
    (out, notes)
}

/// The per-layer ledger of a traced run; also returns the traced rounds'
/// spans, which the caller writes out.
fn per_layer(run: &mut Run) -> (Vec<Metric>, trace::SpanLog) {
    let plain_rates: Vec<f64> = run.rounds.iter().filter(|r| !r.traced).map(txn_rate).collect();
    let traced_rates: Vec<f64> = run.rounds.iter().filter(|r| r.traced).map(txn_rate).collect();
    let mut l = Layers::default();
    let (mut txns, mut worker_us) = (0u64, 0f64);
    for r in run.rounds.iter_mut().filter(|r| r.traced) {
        txns += r.txns;
        worker_us += r.worker_txn_us;
        l.merge(std::mem::take(&mut r.layers));
    }
    let txns = txns.max(1) as f64;
    let tally = &l.tally;

    let info = run.w.info();
    let alg = tpnr_core::ProtocolConfig::full().hash_alg;
    let unit = replay(tally, run.w.replay_key(), alg, &l.events);
    let ev = tally.evidence_msgs as f64 / txns;
    let private_us = ev * (2.0 * unit.sign + unit.decrypt);
    let public_us = ev * (2.0 * unit.verify + unit.encrypt);
    let hash_us: f64 =
        tally.hashes.iter().map(|(len, n)| *n as f64 * unit.hash[len]).sum::<f64>() / txns;
    let envelope_us =
        ev * ((unit.seal - unit.encrypt).max(0.0) + (unit.open - unit.decrypt).max(0.0));
    let codec_us: f64 = tally
        .classes
        .iter()
        .map(|(c, n)| *n as f64 * unit.codec.get(c).copied().unwrap_or(0.0))
        .sum::<f64>()
        / txns;
    let span_sum = |names: &[&str]| names.iter().map(|n| l.spans.total(n).0).sum::<f64>() / txns;
    let transport_self = span_sum(&SELF_SPANS);
    let transport_wait = span_sum(&WAIT_SPANS);
    let (settle_total, settles) = l.spans.total("core.settle");
    // The single-client runner settles inside its upload/download call, so
    // there the inclusive call time is the settle time.
    let settle_us = if settles > 0 { settle_total / txns } else { worker_us / txns };
    let obs_per_txn = l.obs_events as f64 / txns;
    let obs_us = obs_per_txn * unit.obs_record;
    let w_us = worker_us / txns;
    let attributed = private_us
        + public_us
        + hash_us
        + envelope_us
        + codec_us
        + transport_self
        + transport_wait
        + obs_us;
    let mean =
        |xs: &[f64]| if xs.is_empty() { 0.0 } else { xs.iter().sum::<f64>() / xs.len() as f64 };
    let attempted: u64 = run.rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = run.rounds.iter().map(|r| r.failed).sum();
    let threads = info.threads as f64;

    println!(
        "  replay µs/call: sign={:.2} verify={:.2} encrypt={:.2} decrypt={:.2} seal={:.2} \
         open={:.2} obs_record={:.3} hash={:?} codec={:?}",
        unit.sign,
        unit.verify,
        unit.encrypt,
        unit.decrypt,
        unit.seal,
        unit.open,
        unit.obs_record,
        unit.hash.iter().map(|(l, t)| format!("{l}B:{t:.2}")).collect::<Vec<_>>(),
        unit.codec.iter().map(|(c, t)| format!("{c}:{t:.2}")).collect::<Vec<_>>(),
    );
    println!(
        "  per txn: wall={w_us:.2}us attributed={attributed:.2}us evidence_msgs={ev:.4} \
         hash_calls={}",
        tally.hashes.values().sum::<u64>() as f64 / txns
    );
    let mut m = vec![
        metric("crypto.rsa.private_us_per_txn", "us", private_us, txns as usize),
        metric("crypto.rsa.private_calls_per_txn", "count", 3.0 * ev, txns as usize),
        metric("crypto.rsa.public_us_per_txn", "us", public_us, txns as usize),
        metric("crypto.rsa.public_calls_per_txn", "count", 3.0 * ev, txns as usize),
        metric("crypto.rsa.limb_allocs_per_sign", "count", unit.limb_allocs_per_sign, 1),
        metric("crypto.hash.us_per_txn", "us", hash_us, txns as usize),
        metric("crypto.hash.bytes_per_txn", "B", tally.hashed_bytes() as f64 / txns, txns as usize),
        metric("crypto.envelope.self_us_per_txn", "us", envelope_us, txns as usize),
        metric("net.codec.us_per_txn", "us", codec_us, txns as usize),
        metric("net.codec.msgs_per_txn", "count", tally.msgs as f64 / txns, txns as usize),
        metric(
            "net.bytes.deep_copies_per_txn",
            "count",
            l.deep_copies as f64 / txns,
            txns as usize,
        ),
        metric(
            "net.bytes.deep_copy_bytes_per_txn",
            "B",
            l.deep_copy_bytes as f64 / txns,
            txns as usize,
        ),
        metric("net.transport.self_us_per_txn", "us", transport_self, txns as usize),
        metric("net.transport.wait_us_per_txn", "us", transport_wait, txns as usize),
        metric("core.sched.settle_us_per_txn", "us", settle_us, txns as usize),
        metric("core.sched.steps_per_txn", "count", l.steps / txns, txns as usize),
        metric(
            "core.sched.timer_fires_per_txn",
            "count",
            l.timer_fires as f64 / txns,
            txns as usize,
        ),
        metric(
            "core.session.accept_ratio",
            "ratio",
            l.accepted as f64 / l.delivered.max(1) as f64,
            l.delivered as usize,
        ),
        metric("core.session.retries_per_txn", "count", l.retries as f64 / txns, txns as usize),
        metric("core.obs.events_per_txn", "count", obs_per_txn, txns as usize),
        metric("core.obs.record_us_per_txn", "us", obs_us, txns as usize),
        metric("core.archive.evicted_per_txn", "count", l.evicted as f64 / txns, txns as usize),
        metric("core.archive.log_bytes_per_txn", "B", l.log_bytes as f64 / txns, txns as usize),
        metric("core.archive.resident_txns", "count", mean(&l.resident), l.resident.len()),
        metric("core.archive.rehydrate_us", "us", mean(&l.rehydrate_us), l.rehydrate_us.len()),
        metric("core.arbiter.judge_self_us", "us", mean(&l.judge_us), l.judge_us.len()),
        metric(
            "par.busy_frac",
            "ratio",
            if l.fanout_wall_us > 0.0 { l.busy_us / (threads * l.fanout_wall_us) } else { 0.0 },
            l.fanouts as usize,
        ),
        metric("par.tasks", "count", l.tasks as f64 / l.fanouts.max(1) as f64, l.fanouts as usize),
        metric(
            "par.steals",
            "count",
            l.steals as f64 / l.fanouts.max(1) as f64,
            l.fanouts as usize,
        ),
        metric("unattributed_us_per_txn", "us", w_us - attributed, txns as usize),
        metric(
            "trace_overhead_frac",
            "ratio",
            1.0 - median(&traced_rates) / median(&plain_rates),
            traced_rates.len() + plain_rates.len(),
        ),
        metric("failed_frac", "ratio", failed as f64 / attempted.max(1) as f64, attempted as usize),
        metric("peak_rss_mb", "MiB", peak_rss_mb(), 1),
    ];
    m.extend(tails(run).0);
    (m, l.spans)
}

/// Compares the non-timing counts of two seeds' probes.
fn seed_probe(name: &str, seed: u64, checks: &mut Checks) -> usize {
    let seeds = [seed, seed ^ PROBE_SEED_XOR];
    let fps: Vec<Vec<(String, u64)>> = seeds
        .iter()
        .map(|&s| {
            let mut w = build(name, s, true);
            w.probe(checks)
        })
        .collect();
    checks.check(fps[0] == fps[1], || {
        format!("seed probe: counts differ between seeds {seeds:?}: {:?} vs {:?}", fps[0], fps[1])
    });
    checks.check(fps[0].iter().any(|(k, v)| k == "msgs" && *v > 0), || {
        "seed probe: no traffic captured".to_string()
    });
    fps[0].len()
}

fn header(host: &Host, run: &Run, args: &Args, spinning: usize) -> String {
    let i = run.w.info();
    format!(
        "# workload={} seed={} seconds={} trace={} clock=host | git_rev={} | rustc={} | \
         cpu={} | nproc={} threads_used={} idle_spinners={} | key_bits={} payload_bytes={} \
         backend={} runner={} clients={}",
        run.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.git_rev,
        host.rustc,
        host.cpu_model,
        host.nproc,
        i.threads,
        spinning,
        i.key_bits,
        i.payload_bytes,
        i.backend,
        i.runner,
        i.clients
    )
}

fn print_table(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<36} {:>16.4} {:<6} n={}", m.name, m.value, m.unit, m.samples);
    }
}

fn metrics_json(prefix: &str, metrics: &[Metric]) -> Vec<String> {
    metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&format!("{prefix}{}", m.name)),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    now_us();
    // Held until `main` returns, so every set-up, round and probe runs on
    // CPUs that never halt.
    let (_spinners, spinning) = idle::Spinners::start();
    let host = Host::probe();
    let names: Vec<&'static str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        WORKLOADS.iter().copied().filter(|n| *n == args.workload).collect()
    };

    // Set-up: each workload is built several times and the last build is
    // kept; nothing here is inside a timed round.
    let mut runs: Vec<Run> = names
        .iter()
        .map(|&name| {
            let mut setup_s = Vec::new();
            let mut w = None;
            while setup_s.len() < SETUPS.0
                || (setup_s.len() < SETUPS.1 && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
            {
                drop(w.take());
                let (built, us) = timed(|| build(name, args.seed, args.trace));
                setup_s.push(us / 1e6);
                w = Some(built);
            }
            let mut checks = Checks::default();
            let mut w = w.expect("at least one set-up");
            w.control(&mut checks);
            Run { name, w, setup_s, rounds: Vec::new(), checks }
        })
        .collect();

    // Timed rounds, interleaved across workloads (and, traced, between the
    // plain and the span-recording world).
    let per_round = args.seconds * 1e6 / (ROUNDS * runs.len()) as f64;
    let slots = if args.trace { 2 * ROUNDS } else { ROUNDS };
    for i in 0..slots {
        let traced = args.trace && i % 2 == 1;
        let budget = if args.trace { per_round / 2.0 } else { per_round };
        for run in runs.iter_mut() {
            let r = run.w.round(budget, traced, &mut run.checks);
            run.rounds.push(r);
        }
    }

    let mut all_metrics = Vec::new();
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    for run in runs.iter_mut() {
        let fp_len = seed_probe(run.name, args.seed, &mut run.checks);
        println!("{}", header(&host, run, &args, spinning));
        let metrics = if args.trace {
            let (m, spans) = per_layer(run);
            println!("  per-layer ledger (traced rounds); tails: {}", tails(run).1.join(" "));
            if let Some(dir) = spans_dir() {
                let path = dir.join(format!("spans-{}.jsonl", run.name));
                if std::fs::write(&path, spans.to_jsonl()).is_ok() {
                    println!("  spans: {} ({} spans)", path.display(), spans.spans.len());
                }
            }
            m
        } else {
            end_to_end(run)
        };
        print_table(&metrics);
        let a: u64 = run.rounds.iter().map(|r| r.attempted).sum();
        let f: u64 = run.rounds.iter().map(|r| r.failed).sum();
        println!(
            "  attempted={a} failed={f} checks_passed={} seed_probe_counts={fp_len}",
            run.checks.passed
        );
        for msg in &run.checks.failures {
            println!("  CHECK FAILED: {msg}");
        }
        attempted += a;
        failed += f;
        correct &= run.checks.failures.is_empty() && a > 0;
        let prefix = if args.workload == "all" { format!("{}.", run.name) } else { String::new() };
        all_metrics.extend(metrics_json(&prefix, &metrics));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        all_metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Where traced runs write their spans (inside the working directory).
fn spans_dir() -> Option<std::path::PathBuf> {
    let dir = std::path::PathBuf::from(".perfbench");
    std::fs::create_dir_all(&dir).ok().map(|_| dir)
}
