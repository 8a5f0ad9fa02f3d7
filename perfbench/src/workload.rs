//! The four workloads, driven only through the public API.
//!
//! Every workload is closed-loop: a client issues its next request only
//! after the previous one settled with its signed receipt (NRR). A pair is
//! an upload of object *k* followed by a download of *k*; the dispute phase
//! then asks the [`Arbitrator`] to rule on the pair's evidence.

use crate::ledger::Tally;
use crate::stats::{mix, now_us, timed};
use crate::trace::{SpanLog, Traced};
use std::sync::{Arc, Mutex};
use tpnr_core::arbiter::{Arbitrator, DisputeCase, Verdict};
use tpnr_core::archive::{EvidenceBundle, DEFAULT_HOT_CAPACITY};
use tpnr_core::client::TimeoutStrategy;
use tpnr_core::config::ProtocolConfig;
use tpnr_core::evidence::VerifiedEvidence;
use tpnr_core::multi::{GenericMultiWorld, TxnHandle};
use tpnr_core::obs::{Event, Obs};
use tpnr_core::principal::{Directory, Principal};
use tpnr_core::provider::Provider;
use tpnr_core::runner::{GenericWorld, TxnResult};
use tpnr_core::sched::SettleOutcome;
use tpnr_core::session::TxnState;
use tpnr_crypto::ChaChaRng;
use tpnr_net::sim::{LinkConfig, NetStats, SimNet};
use tpnr_net::tcp::TcpNet;
use tpnr_net::time::SimDuration;
use tpnr_net::transport::Transport;
use tpnr_net::Bytes;
use tpnr_par::Pool;

pub const WORKLOADS: [&str; 4] = ["small-tcp", "fanin-sim", "prod-2048", "bulk-1m"];

/// Distinct object keys a single-client workload cycles through, so the
/// provider's storage stays bounded however long a run lasts.
const KEYS: u64 = 64;
/// Clients per fanin-sim lane.
const LANE: usize = 256;
/// Upper bound on fanin-sim's pool size (lanes per fan-out are 4 × workers).
const MAX_WORKERS: usize = 8;
/// Archive hot capacity per shard on fanin-sim (16 shards): small, so
/// almost every settled transaction is evicted and the dispute phase
/// re-hydrates it.
const FANIN_HOT: usize = 1;

/// Correctness checks; any failure makes the run exit nonzero.
#[derive(Default)]
pub struct Checks {
    pub passed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else if self.failures.len() < 20 {
            self.failures.push(what());
        } else {
            self.failures.truncate(20);
            self.failures.push("(further failures elided)".to_string());
        }
    }

    pub fn conserved(&mut self, s: &NetStats, at: &str) {
        self.check(s.delivered + s.dropped == s.sent + s.duplicated, || {
            format!(
                "{at}: conservation broken: delivered {} + dropped {} != sent {} + duplicated {}",
                s.delivered, s.dropped, s.sent, s.duplicated
            )
        });
    }
}

/// Layer counters a traced round gathers from outside the program.
#[derive(Default)]
pub struct Layers {
    pub tally: Tally,
    pub spans: SpanLog,
    pub obs_events: u64,
    pub accepted: u64,
    pub delivered: u64,
    pub timer_fires: u64,
    pub steps: f64,
    pub retries: u64,
    pub deep_copies: u64,
    pub deep_copy_bytes: u64,
    pub evicted: u64,
    pub log_bytes: u64,
    pub resident: Vec<f64>,
    pub rehydrate_us: Vec<f64>,
    pub judge_us: Vec<f64>,
    pub busy_us: f64,
    pub fanout_wall_us: f64,
    pub fanouts: u64,
    pub tasks: u64,
    pub steals: u64,
    pub events: Vec<Event>,
}

impl Layers {
    pub fn merge(&mut self, mut o: Layers) {
        self.tally.merge(&o.tally);
        self.spans.append(&mut o.spans);
        self.obs_events += o.obs_events;
        self.accepted += o.accepted;
        self.delivered += o.delivered;
        self.timer_fires += o.timer_fires;
        self.steps += o.steps;
        self.retries += o.retries;
        self.deep_copies += o.deep_copies;
        self.deep_copy_bytes += o.deep_copy_bytes;
        self.evicted += o.evicted;
        self.log_bytes += o.log_bytes;
        self.resident.append(&mut o.resident);
        self.rehydrate_us.append(&mut o.rehydrate_us);
        self.judge_us.append(&mut o.judge_us);
        self.busy_us += o.busy_us;
        self.fanout_wall_us += o.fanout_wall_us;
        self.fanouts += o.fanouts;
        self.tasks += o.tasks;
        self.steals += o.steals;
        if self.events.len() < 64 {
            self.events.append(&mut o.events);
        }
    }
}

/// What one round measured.
#[derive(Default)]
pub struct Round {
    pub traced: bool,
    /// Completed evidence transactions.
    pub txns: u64,
    /// Host µs the transactions took: summed call time on single-client
    /// workloads, fan-out wall time of the upload and download phases on
    /// fanin-sim.
    pub txn_us: f64,
    /// Per-worker µs inside transaction phases (equals `txn_us` when
    /// single-threaded); the ledger divides this by `txns`.
    pub worker_txn_us: f64,
    pub uploads: Vec<f64>,
    pub downloads: Vec<f64>,
    pub judges: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub wire_bytes: u64,
    pub layers: Layers,
}

/// Row-header facts of a workload.
pub struct Info {
    pub key_bits: usize,
    pub payload_bytes: usize,
    pub backend: &'static str,
    pub runner: &'static str,
    pub clients: usize,
    pub threads: usize,
}

pub trait Workload {
    fn info(&self) -> Info;
    /// Runs closed-loop pairs for about `budget_us`; traced rounds use the
    /// span-recording twin of the world.
    fn round(&mut self, budget_us: f64, traced: bool, checks: &mut Checks) -> Round;
    /// A key of the workload's size for the ledger's replay.
    fn replay_key(&self) -> &Principal;
    /// The tampering control case (outside every count and timing).
    fn control(&mut self, checks: &mut Checks);
    /// Non-timing counts of a fixed amount of work on the traced twin,
    /// which must not depend on the seed.
    fn probe(&mut self, checks: &mut Checks) -> Vec<(String, u64)>;
}

/// Builds the workload `name` from `seed`; `traced` also builds the
/// span-recording twin.
pub fn build(name: &str, seed: u64, traced: bool) -> Box<dyn Workload> {
    match name {
        "small-tcp" => Box::new(Single::tcp(seed, 256, traced)),
        "bulk-1m" => Box::new(Single::tcp(seed, 1 << 20, traced)),
        "prod-2048" => Box::new(Single::prod(seed, traced)),
        "fanin-sim" => Box::new(Fanin::new(seed)),
        _ => unreachable!("workload names are validated by the caller"),
    }
}

/// Object key `k` of a run: fixed length, drawn from the seed.
fn object_key(seed: u64, k: u64) -> Vec<u8> {
    format!("obj/{:016x}", mix(seed ^ 0x000b_1ec7 ^ k)).into_bytes()
}

/// Payload `k` of a run: `len` bytes drawn from the seed, in a fresh
/// allocation (digest caches key on allocation identity, so a reused
/// buffer would skip the hashing a new upload pays).
fn payload(seed: u64, k: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    let mut x = mix(seed ^ 0xda7a ^ k.rotate_left(32));
    while out.len() < len {
        x = mix(x);
        out.extend_from_slice(&x.to_le_bytes());
    }
    out.truncate(len);
    out
}

/// A backend the benchmark can tap: plain backends ignore the calls,
/// [`Traced`] records spans and captures sent messages.
pub trait Tap: Transport + Sized {
    fn set_parent(&mut self, _id: u64) {}
    /// Moves captured messages into `tally` and spans into `log`.
    fn drain(&mut self, _tally: &mut Tally, _log: &mut SpanLog) {}
    fn sim(&mut self) -> Option<&mut SimNet> {
        None
    }
}

impl Tap for TcpNet {}

impl Tap for SimNet {
    fn sim(&mut self) -> Option<&mut SimNet> {
        Some(self)
    }
}

impl<T: Tap> Tap for Traced<T> {
    fn set_parent(&mut self, id: u64) {
        Traced::set_parent(self, id);
    }

    fn drain(&mut self, tally: &mut Tally, log: &mut SpanLog) {
        for (_, wire) in self.sent.drain(..) {
            tally.add(&wire);
        }
        log.append(&mut self.log);
    }

    fn sim(&mut self) -> Option<&mut SimNet> {
        self.inner.sim()
    }
}

/// The single-client surface both runners offer, so the pair loop is
/// written once.
pub trait Runner {
    type Net: Tap;
    fn net_mut(&mut self) -> &mut Self::Net;
    fn wire(&self) -> NetStats;
    fn upload(&mut self, key: &[u8], data: Bytes, log: Option<&mut SpanLog>) -> TxnResult;
    fn download(&mut self, key: &[u8], log: Option<&mut SpanLog>) -> TxnResult;
    /// The evidence pair the arbiter needs for `(upload, download)`:
    /// re-hydrated from the archive when evicted, else from live records.
    fn case(&self, up: u64, down: u64, rehydrate_us: &mut Vec<f64>) -> Option<DisputeCase>;
    fn verify_pair(&self, up: u64, down: u64) -> Option<bool>;
    fn retire(&mut self, txns: &[u64]);
    fn obs(&self) -> &Obs;
    fn provider_mut(&mut self) -> &mut Provider;
    fn retries(&self) -> u64;
    /// `(evicted, log bytes, resident txns)` of the runner's archive.
    fn archive(&self) -> (u64, u64, usize);
}

impl<T: Tap> Runner for GenericWorld<T> {
    type Net = T;

    fn net_mut(&mut self) -> &mut T {
        GenericWorld::net_mut(self)
    }

    fn wire(&self) -> NetStats {
        self.net().stats()
    }

    fn upload(&mut self, key: &[u8], data: Bytes, _: Option<&mut SpanLog>) -> TxnResult {
        GenericWorld::upload(self, key, data, TimeoutStrategy::AbortFirst)
    }

    fn download(&mut self, key: &[u8], _: Option<&mut SpanLog>) -> TxnResult {
        GenericWorld::download(self, key, TimeoutStrategy::AbortFirst)
    }

    fn case(&self, up: u64, down: u64, _: &mut Vec<f64>) -> Option<DisputeCase> {
        Some(DisputeCase {
            claimant: Some(self.client.id()),
            respondent: Some(self.provider.id()),
            upload_nrr: self.client.txn(up)?.nrr.clone(),
            download_nrr: self.client.txn(down)?.nrr.clone(),
            upload_nro: Some(self.provider.txn(up)?.nro.clone()),
            download_nro: Some(self.provider.txn(down)?.nro.clone()),
        })
    }

    fn verify_pair(&self, up: u64, down: u64) -> Option<bool> {
        self.client.verify_download_against_upload(up, down)
    }

    /// The single-client runner keeps every transaction live; a judged
    /// pair is retired through the same public calls the multi-client
    /// archive uses, so memory stays bounded over a long run.
    fn retire(&mut self, txns: &[u64]) {
        for &t in txns {
            self.client.evict_txn(t);
            self.provider.evict_txn(t);
            self.ttp.evict_txn(t);
            GenericWorld::net_mut(self).retire_txn(t);
            self.obs.retire_txn(t);
        }
    }

    fn obs(&self) -> &Obs {
        &self.obs
    }

    fn provider_mut(&mut self) -> &mut Provider {
        &mut self.provider
    }

    fn retries(&self) -> u64 {
        self.fault_counters().retries
    }

    fn archive(&self) -> (u64, u64, usize) {
        (0, 0, 0)
    }
}

/// Live or re-hydrated evidence of one multi-client transaction:
/// `(client-held NRR, provider-held NRO)`.
fn multi_evidence<T: Transport>(
    w: &GenericMultiWorld<T>,
    h: TxnHandle,
    rehydrate_us: &mut Vec<f64>,
) -> Option<(Option<VerifiedEvidence>, Option<VerifiedEvidence>)> {
    if let Some(t) = w.clients[h.client].txn(h.txn_id) {
        return Some((t.nrr.clone(), w.provider.txn(h.txn_id).map(|p| p.nro.clone())));
    }
    let (bundle, us) = timed(|| w.rehydrate_evidence(h.txn_id));
    rehydrate_us.push(us);
    let b: EvidenceBundle = bundle?;
    Some((b.get("client-nrr").cloned(), b.get("provider-nro").cloned()))
}

fn multi_case<T: Transport>(
    w: &GenericMultiWorld<T>,
    up: TxnHandle,
    down: TxnHandle,
    rehydrate_us: &mut Vec<f64>,
) -> Option<DisputeCase> {
    let (upload_nrr, upload_nro) = multi_evidence(w, up, rehydrate_us)?;
    let (download_nrr, download_nro) = multi_evidence(w, down, rehydrate_us)?;
    Some(DisputeCase {
        claimant: Some(w.clients[up.client].id()),
        respondent: Some(w.provider.id()),
        upload_nrr,
        download_nrr,
        upload_nro,
        download_nro,
    })
}

/// Client 0 of a multi-client world, driven one settled call at a time.
impl<T: Tap> Runner for GenericMultiWorld<T> {
    type Net = T;

    fn net_mut(&mut self) -> &mut T {
        GenericMultiWorld::net_mut(self)
    }

    fn wire(&self) -> NetStats {
        self.net().stats()
    }

    fn upload(&mut self, key: &[u8], data: Bytes, log: Option<&mut SpanLog>) -> TxnResult {
        let h = self.start_upload(0, key, data, TimeoutStrategy::AbortFirst);
        settle_logged(self, log);
        self.result(h).unwrap_or_else(|| failed_result(h))
    }

    fn download(&mut self, key: &[u8], log: Option<&mut SpanLog>) -> TxnResult {
        let h = self.start_download(0, key, TimeoutStrategy::AbortFirst);
        settle_logged(self, log);
        self.result(h).unwrap_or_else(|| failed_result(h))
    }

    fn case(&self, up: u64, down: u64, rehydrate_us: &mut Vec<f64>) -> Option<DisputeCase> {
        let h = |txn_id| TxnHandle { client: 0, txn_id };
        multi_case(self, h(up), h(down), rehydrate_us)
    }

    fn verify_pair(&self, up: u64, down: u64) -> Option<bool> {
        self.clients[0].verify_download_against_upload(up, down)
    }

    fn retire(&mut self, _: &[u64]) {}

    fn obs(&self) -> &Obs {
        &self.obs
    }

    fn provider_mut(&mut self) -> &mut Provider {
        &mut self.provider
    }

    fn retries(&self) -> u64 {
        self.fault_counters().retries
    }

    fn archive(&self) -> (u64, u64, usize) {
        let a = self.archive_stats();
        (a.evicted, a.log_bytes, self.resident_txns())
    }
}

fn settle_logged<T: Tap>(w: &mut GenericMultiWorld<T>, log: Option<&mut SpanLog>) -> bool {
    let span = SpanLog::open();
    let s = w.settle();
    if let Some(log) = log {
        log.close(span, "core.settle", 0);
    }
    s.outcome == SettleOutcome::Quiescent
}

/// Stand-in result for a transaction the runner no longer knows.
fn failed_result(h: TxnHandle) -> TxnResult {
    TxnResult {
        txn_id: h.txn_id,
        outcome: TxnState::Failed,
        data: None,
        nro: None,
        nrr: None,
        report: tpnr_core::runner::TxnReport {
            txn_id: h.txn_id,
            state: TxnState::Failed,
            messages: 0,
            bytes: 0,
            latency: SimDuration::ZERO,
            ttp_used: false,
        },
    }
}

/// Totals of a world's observability and wire counters, for deltas.
#[derive(Clone, Copy, Default)]
struct Gauges {
    obs_events: u64,
    accepted: u64,
    delivered: u64,
    timer_fires: u64,
    steps: f64,
    retries: u64,
    wire_bytes: u64,
    deep_copies: u64,
    deep_copy_bytes: u64,
    evicted: u64,
    log_bytes: u64,
}

fn gauges<R: Runner>(w: &R) -> Gauges {
    let o = w.obs();
    let m = &o.metrics;
    let (evicted, log_bytes, _) = w.archive();
    Gauges {
        obs_events: o.events().len() as u64 + o.evicted(),
        accepted: m.delivered,
        delivered: m.delivered + m.rejected + m.garbled,
        timer_fires: m.timer_fires,
        steps: m.settle_steps.mean() * m.settle_steps.count() as f64,
        retries: w.retries(),
        wire_bytes: w.wire().bytes_sent,
        deep_copies: Bytes::deep_copies(),
        deep_copy_bytes: Bytes::deep_copy_bytes(),
        evicted,
        log_bytes,
    }
}

fn fold_gauges(l: &mut Layers, a: Gauges, b: Gauges) {
    l.obs_events += b.obs_events - a.obs_events;
    l.accepted += b.accepted - a.accepted;
    l.delivered += b.delivered - a.delivered;
    l.timer_fires += b.timer_fires - a.timer_fires;
    l.steps += b.steps - a.steps;
    l.retries += b.retries - a.retries;
    l.deep_copies += b.deep_copies - a.deep_copies;
    l.deep_copy_bytes += b.deep_copy_bytes - a.deep_copy_bytes;
    l.evicted += b.evicted - a.evicted;
    l.log_bytes += b.log_bytes - a.log_bytes;
}

/// One closed-loop pair on a single-client runner: upload object `key`,
/// download it, check both, and time a verdict on the pair's evidence.
fn pair<R: Runner>(
    w: &mut R,
    key: &[u8],
    data: Vec<u8>,
    r: &mut Round,
    checks: &mut Checks,
) -> Option<(u64, u64)> {
    let data = Bytes::from(data);
    let traced = r.traced;
    let mut log = SpanLog::default();

    let span = SpanLog::open();
    w.net_mut().set_parent(span.0);
    let (up, us) = timed(|| w.upload(key, data.clone(), traced.then_some(&mut log)));
    if traced {
        log.close(span, "txn.upload", up.txn_id);
    }
    r.attempted += 1;
    r.txn_us += us;
    if up.completed() {
        checks.check(up.nro.is_some() && up.nrr.is_some(), || {
            format!("upload txn {} completed without NRO and NRR", up.txn_id)
        });
        r.txns += 1;
        r.uploads.push(us);
    } else {
        r.failed += 1;
    }

    let span = SpanLog::open();
    w.net_mut().set_parent(span.0);
    let (down, us) = timed(|| w.download(key, traced.then_some(&mut log)));
    if traced {
        log.close(span, "txn.download", down.txn_id);
    }
    r.attempted += 1;
    r.txn_us += us;
    if down.completed() {
        let served = down.data.as_ref().map(|d| &d[..]);
        checks.check(served == Some(&data[..]), || {
            format!("download txn {} returned bytes other than uploaded", down.txn_id)
        });
        checks.check(down.nro.is_some() && down.nrr.is_some(), || {
            format!("download txn {} completed without NRO and NRR", down.txn_id)
        });
        r.txns += 1;
        r.downloads.push(us);
    } else {
        r.failed += 1;
    }
    if traced {
        w.net_mut().drain(&mut r.layers.tally, &mut log);
        r.layers.spans.append(&mut log);
    }
    if !(up.completed() && down.completed()) {
        return None;
    }
    checks.check(w.verify_pair(up.txn_id, down.txn_id) == Some(true), || {
        format!("verify_download_against_upload({}, {}) did not pass", up.txn_id, down.txn_id)
    });
    Some((up.txn_id, down.txn_id))
}

/// Times one verdict: gather the pair's evidence, then judge it.
fn judge_pair<R: Runner>(
    w: &R,
    arb: &Arbitrator,
    (up, down): (u64, u64),
    r: &mut Round,
) -> Option<Verdict> {
    let t0 = now_us();
    let case = w.case(up, down, &mut r.layers.rehydrate_us)?;
    let (verdict, judge_us) = timed(|| arb.judge(&case));
    r.judges.push(now_us() - t0);
    r.layers.judge_us.push(judge_us);
    Some(verdict)
}

/// A tampering control: the provider rewrites a stored object between
/// upload and download; the client must detect it and the arbiter must
/// rule `ProviderAtFault`. Kept out of every count and timing.
fn control_case<R: Runner>(w: &mut R, arb: &Arbitrator, checks: &mut Checks, seed: u64) {
    let key = object_key(seed, u64::MAX);
    let up = w.upload(&key, Bytes::from(payload(seed, u64::MAX, 64)), None);
    checks.check(w.provider_mut().tamper_storage(&key, b"rewritten".to_vec()), || {
        "control: tamper_storage found no object".to_string()
    });
    let down = w.download(&key, None);
    checks.check(up.completed() && down.completed(), || "control: pair did not settle".into());
    checks.check(w.verify_pair(up.txn_id, down.txn_id) == Some(false), || {
        "control: client did not detect the rewritten object".to_string()
    });
    let verdict = w.case(up.txn_id, down.txn_id, &mut Vec::new()).map(|c| arb.judge(&c));
    checks.check(verdict == Some(Verdict::ProviderAtFault), || {
        format!("control: tampered pair judged {verdict:?}, expected ProviderAtFault")
    });
    w.retire(&[up.txn_id, down.txn_id]);
}

/// What a single-client workload sends and who judges it.
struct Plan {
    arb: Arbitrator,
    seed: u64,
    len: usize,
}

/// Closed-loop pairs from object index `next` on, until `budget_us` of host
/// time has passed or `limit` pairs ran.
fn run_pairs<R: Runner>(
    w: &mut R,
    plan: &Plan,
    next: &mut u64,
    (budget_us, limit): (f64, u64),
    r: &mut Round,
    checks: &mut Checks,
) {
    let Plan { arb, seed, len } = plan;
    let (seed, len) = (*seed, *len);
    let g0 = gauges(w);
    let t_end = now_us() + budget_us;
    let stop = next.saturating_add(limit);
    while now_us() < t_end && *next < stop {
        let k = *next;
        *next += 1;
        let key = object_key(seed, k % KEYS);
        let Some(pair) = pair(w, &key, payload(seed, k, len), r, checks) else { continue };
        r.attempted += 1;
        match judge_pair(w, arb, pair, r) {
            Some(v) => checks.check(v == Verdict::ClaimRejected, || {
                format!("honest pair {pair:?} judged {v:?}, expected ClaimRejected")
            }),
            None => r.failed += 1,
        }
        w.retire(&[pair.0, pair.1]);
    }
    let g1 = gauges(w);
    r.wire_bytes += g1.wire_bytes - g0.wire_bytes;
    r.worker_txn_us = r.txn_us;
    if r.traced {
        fold_gauges(&mut r.layers, g0, g1);
        let (_, _, resident) = w.archive();
        r.layers.resident.push(resident as f64);
        let evs = w.obs().events();
        r.layers.events.extend(evs.iter().rev().take(16).cloned());
    }
    checks.conserved(&w.wire(), "single-client wire");
}

/// small-tcp, bulk-1m (single-client runner on loopback TCP) and prod-2048
/// (multi-client runner, one client, on the simulator).
pub struct Single {
    plan: Plan,
    key_bits: usize,
    next: u64,
    world: Box<dyn SingleWorld>,
    twin: Option<Box<dyn SingleWorld>>,
    replay: Principal,
    backend: &'static str,
    runner: &'static str,
}

/// Object-safe face of a single-client runner for [`Single`].
trait SingleWorld {
    fn pairs(
        &mut self,
        plan: &Plan,
        next: &mut u64,
        budget: (f64, u64),
        r: &mut Round,
        checks: &mut Checks,
    );
    fn control(&mut self, plan: &Plan, checks: &mut Checks);
}

impl<R: Runner> SingleWorld for R {
    fn pairs(
        &mut self,
        plan: &Plan,
        next: &mut u64,
        budget: (f64, u64),
        r: &mut Round,
        checks: &mut Checks,
    ) {
        run_pairs(self, plan, next, budget, r, checks);
    }

    fn control(&mut self, plan: &Plan, checks: &mut Checks) {
        control_case(self, &plan.arb, checks, plan.seed);
    }
}

/// Warm-up pairs run during set-up: open TCP streams, fill digest caches
/// and first-use Montgomery contexts before anything is timed.
const WARMUP_PAIRS: u64 = 3;

impl Single {
    fn tcp(seed: u64, len: usize, traced: bool) -> Single {
        let cfg = ProtocolConfig::full();
        let mk = |s: u64| -> Box<dyn SingleWorld> {
            let net = TcpNet::new().expect("bind a loopback TCP listener");
            Box::new(GenericWorld::with_transport(net, s, cfg.clone()))
        };
        let mk_traced = |s: u64| -> Box<dyn SingleWorld> {
            let net = Traced::new(TcpNet::new().expect("bind a loopback TCP listener"));
            Box::new(GenericWorld::with_transport(net, s, cfg.clone()))
        };
        // The runner derives its own keys from the seed; the arbiter needs
        // only their public halves, which a throwaway world exposes.
        let dir = GenericWorld::with_transport(SimNet::new(seed), seed, cfg.clone()).dir;
        let mut s = Single {
            plan: Plan { arb: Arbitrator::new(cfg.clone(), dir), seed, len },
            key_bits: 512,
            next: 0,
            world: mk(seed),
            twin: traced.then(|| mk_traced(seed)),
            replay: Principal::test("replay", seed ^ 0x7e57),
            backend: "tcp-loopback",
            runner: "GenericWorld",
        };
        s.warm_up();
        s
    }

    fn prod(seed: u64, traced: bool) -> Single {
        let cfg = ProtocolConfig::full();
        let gen = |name: &str, i: u64| {
            Principal::generate(name, 2048, &mut ChaChaRng::seed_from_u64(mix(seed ^ i)))
        };
        let (client, bob, ttp) = (gen("client-0", 1), gen("bob", 2), gen("ttp", 3));
        let mut dir = Directory::new();
        for p in [&client, &bob, &ttp] {
            dir.register(p);
        }
        let clients = [client];
        let world: Box<dyn SingleWorld> = Box::new(GenericMultiWorld::with_principals_on(
            SimNet::new(seed),
            seed,
            cfg.clone(),
            &clients,
            &bob,
            &ttp,
        ));
        let twin = traced.then(|| -> Box<dyn SingleWorld> {
            Box::new(GenericMultiWorld::with_principals_on(
                Traced::new(SimNet::new(seed)),
                seed,
                cfg.clone(),
                &clients,
                &bob,
                &ttp,
            ))
        });
        let [replay] = clients;
        let mut s = Single {
            plan: Plan { arb: Arbitrator::new(cfg, dir), seed, len: 4096 },
            key_bits: 2048,
            next: 0,
            world,
            twin,
            replay,
            backend: "simnet",
            runner: "GenericMultiWorld",
        };
        s.warm_up();
        s
    }

    fn warm_up(&mut self) {
        let mut scratch = Checks::default();
        // A traced round, so the twin's warm-up traffic is drained and
        // dropped rather than counted in the first measured round.
        let mut r = Round { traced: true, ..Round::default() };
        for w in std::iter::once(&mut self.world).chain(self.twin.as_mut()) {
            let mut next = u64::MAX / 2;
            w.pairs(&self.plan, &mut next, (f64::INFINITY, WARMUP_PAIRS), &mut r, &mut scratch);
        }
    }
}

impl Workload for Single {
    fn info(&self) -> Info {
        Info {
            key_bits: self.key_bits,
            payload_bytes: self.plan.len,
            backend: self.backend,
            runner: self.runner,
            clients: 1,
            threads: 1,
        }
    }

    fn round(&mut self, budget_us: f64, traced: bool, checks: &mut Checks) -> Round {
        let mut r = Round { traced, ..Round::default() };
        let w = match (&mut self.twin, traced) {
            (Some(t), true) => t,
            _ => &mut self.world,
        };
        w.pairs(&self.plan, &mut self.next, (budget_us, u64::MAX), &mut r, checks);
        r
    }

    fn replay_key(&self) -> &Principal {
        &self.replay
    }

    fn control(&mut self, checks: &mut Checks) {
        self.world.control(&self.plan, checks);
    }

    fn probe(&mut self, checks: &mut Checks) -> Vec<(String, u64)> {
        let mut r = Round { traced: true, ..Round::default() };
        let w = self.twin.as_mut().expect("probe runs on a traced build");
        let mut next = u64::MAX / 4;
        w.pairs(&self.plan, &mut next, (f64::INFINITY, PROBE_PAIRS), &mut r, checks);
        archive_fingerprint(r.layers.tally.fingerprint(r.txns), &r.layers)
    }
}

/// Pairs the seed probe runs.
const PROBE_PAIRS: u64 = 4;

/// Adds the archive's seed-invariant counts to a probe fingerprint. Txn
/// ids are drawn from each client's seeded rng and the archive shards by
/// txn id, so how many settled txns a shard's hot set still holds (and so
/// the raw eviction count) varies with the seed; every settled txn being
/// either evicted or resident, and each evicted bundle's size, do not.
fn archive_fingerprint(mut fp: Vec<(String, u64)>, l: &Layers) -> Vec<(String, u64)> {
    let resident = l.resident.last().copied().unwrap_or(0.0) as u64;
    fp.push(("archive.evicted_plus_resident".to_string(), l.evicted + resident));
    fp.push(("archive.log_bytes_per_evicted".to_string(), l.log_bytes / l.evicted.max(1)));
    fp
}

/// fanin-sim: lanes of [`LANE`] clients on the simulator, driven as
/// independent multi-client worlds on a work-stealing pool.
pub struct Fanin {
    seed: u64,
    pool: Pool,
    lanes: usize,
    clients: Arc<Vec<Principal>>,
    bob: Arc<Principal>,
    ttp: Arc<Principal>,
    dir: Directory,
    round_no: u64,
}

enum Lane {
    Plain(GenericMultiWorld<SimNet>),
    Traced(GenericMultiWorld<Traced<SimNet>>),
}

/// A lane and its clients' `(upload, download)` handles, locked by the
/// fan-out task working on it.
type LaneSlot = Mutex<(Lane, Vec<(TxnHandle, TxnHandle)>)>;

impl Lane {
    fn wire(&self) -> NetStats {
        match self {
            Lane::Plain(w) => w.net().stats(),
            Lane::Traced(w) => w.net().stats(),
        }
    }
}

/// Per-lane results of one phase.
#[derive(Default)]
struct LaneOut {
    busy_us: f64,
    phase_us: f64,
    completed: u64,
    attempted: u64,
    failed: u64,
    judges: Vec<f64>,
    wire_bytes: u64,
    layers: Layers,
    failures: Vec<String>,
}

impl Fanin {
    fn new(seed: u64) -> Fanin {
        // At most `nproc` workers, and at most MAX_WORKERS so the lanes a
        // fan-out holds in memory stay bounded on large hosts.
        let workers = tpnr_par::available_parallelism().min(MAX_WORKERS);
        let pool = Pool::new(workers);
        let clients: Vec<Principal> = pool.scoped_indexed(LANE, |i| {
            Principal::test(&format!("client-{i}"), mix(seed ^ 0xc1 ^ i as u64))
        });
        let bob = Principal::test("bob", mix(seed ^ 0xb0b));
        let ttp = Principal::test("ttp", mix(seed ^ 0x777));
        let mut dir = Directory::new();
        for p in clients.iter().chain([&bob, &ttp]) {
            dir.register(p);
        }
        let f = Fanin {
            seed,
            pool,
            lanes: 4 * workers,
            clients: Arc::new(clients),
            bob: Arc::new(bob),
            ttp: Arc::new(ttp),
            dir,
            round_no: 0,
        };
        // Warm-up: one small lane through every phase.
        let mut lane = f.lane(u64::MAX / 2, 16, false);
        let mut scratch = Checks::default();
        f.lane_pass(&mut lane, &mut scratch);
        f
    }

    /// Builds lane `l` with `n` clients, per-client link latency drawn from
    /// the seed (5–45 ms one way), and a small archive.
    fn lane(&self, l: u64, n: usize, traced: bool) -> Lane {
        let seed = mix(self.seed ^ l);
        let cfg = ProtocolConfig::full();
        let cs = &self.clients[..n];
        let mut lane = if traced {
            let net = Traced::new(SimNet::new(seed));
            Lane::Traced(GenericMultiWorld::with_principals_on(
                net, seed, cfg, cs, &self.bob, &self.ttp,
            ))
        } else {
            Lane::Plain(GenericMultiWorld::with_principals_on(
                SimNet::new(seed),
                seed,
                cfg,
                cs,
                &self.bob,
                &self.ttp,
            ))
        };
        fn prep<T: Tap>(w: &mut GenericMultiWorld<T>, seed: u64) {
            w.set_archive_capacity(FANIN_HOT);
            let (bob, nodes) = (w.bob_node, w.client_nodes.clone());
            if let Some(sim) = w.net_mut().sim() {
                for (i, node) in nodes.into_iter().enumerate() {
                    let one_way = SimDuration::from_micros(5_000 + mix(seed ^ i as u64) % 40_001);
                    sim.set_link_bidi(node, bob, LinkConfig::ideal(one_way));
                }
            }
        }
        match &mut lane {
            Lane::Plain(w) => prep(w, seed),
            Lane::Traced(w) => prep(w, seed),
        }
        lane
    }

    /// Uploads, downloads and disputes on one lane outside any fan-out
    /// (warm-up and the seed probe).
    fn lane_pass(&self, lane: &mut Lane, checks: &mut Checks) -> LaneOut {
        let seed = self.seed;
        let arb = Arbitrator::new(ProtocolConfig::full(), self.dir.clone());
        let mut handles = Vec::new();
        let mut outs = Vec::new();
        for phase in [Phase::Upload, Phase::Download, Phase::Dispute] {
            outs.push(match lane {
                Lane::Plain(w) => lane_phase(w, phase, seed, 0, &mut handles, &arb),
                Lane::Traced(w) => lane_phase(w, phase, seed, 0, &mut handles, &arb),
            });
        }
        let mut total = LaneOut::default();
        for o in outs {
            for f in o.failures.iter() {
                checks.check(false, || f.clone());
            }
            total.completed += o.completed;
            total.layers.merge(o.layers);
        }
        checks.conserved(&lane.wire(), "fanin lane");
        total
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Upload,
    Download,
    Dispute,
}

/// One phase on one lane: every client issues its request, then the lane
/// settles (each client waits for its receipt); or, for the dispute phase,
/// every client's pair is judged from re-hydrated evidence.
fn lane_phase<T: Tap>(
    w: &mut GenericMultiWorld<T>,
    phase: Phase,
    seed: u64,
    round: u64,
    handles: &mut Vec<(TxnHandle, TxnHandle)>,
    arb: &Arbitrator,
) -> LaneOut {
    let mut o = LaneOut::default();
    let t0 = now_us();
    let g0 = gauges(w);
    match phase {
        Phase::Upload | Phase::Download => {
            let n = w.clients.len();
            let mut hs = Vec::with_capacity(n);
            for i in 0..n {
                let key = object_key(seed, round.wrapping_mul(LANE as u64) + i as u64);
                hs.push(if phase == Phase::Upload {
                    let data = payload(seed, i as u64 ^ round << 20, 256);
                    w.start_upload(i, &key, data, TimeoutStrategy::ResolveImmediately)
                } else {
                    w.start_download(i, &key, TimeoutStrategy::ResolveImmediately)
                });
            }
            let quiescent = settle_logged(w, Some(&mut o.layers.spans));
            if !quiescent {
                o.failures.push("lane settle hit its step cap".to_string());
            }
            o.phase_us = now_us() - t0;
            for (i, &h) in hs.iter().enumerate() {
                o.attempted += 1;
                if phase == Phase::Upload {
                    handles.push((h, h));
                }
                if w.state_of(h) != Some(TxnState::Completed) {
                    o.failed += 1;
                    continue;
                }
                o.completed += 1;
                let held = w.result(h).is_some_and(|r| r.nro.is_some() && r.nrr.is_some());
                if !held {
                    o.failures.push(format!("lane txn {} completed without NRO and NRR", h.txn_id));
                }
                if phase == Phase::Download {
                    handles[i].1 = h;
                    // Evicted downloads no longer hold their bytes; their
                    // content is vouched for by the verdict, which compares
                    // the provider-signed upload and download hashes.
                    if let Some(p) = w.clients[i].download_result(h.txn_id) {
                        let want = payload(seed, i as u64 ^ round << 20, 256);
                        if p.data[..] != want[..] {
                            o.failures
                                .push(format!("lane download {} served wrong bytes", h.txn_id));
                        }
                    }
                }
            }
        }
        Phase::Dispute => {
            for &(up, down) in handles.iter() {
                if up.txn_id == down.txn_id || w.state_of(up) != Some(TxnState::Completed) {
                    continue; // a half that never completed is counted there
                }
                o.attempted += 1;
                let live = &w.clients[up.client];
                let archived = live.txn(up.txn_id).is_none() && live.txn(down.txn_id).is_none();
                let t = now_us();
                let case = multi_case(w, up, down, &mut o.layers.rehydrate_us);
                let Some(case) = case else {
                    o.failed += 1;
                    continue;
                };
                let (v, judge_us) = timed(|| arb.judge(&case));
                if archived {
                    o.judges.push(now_us() - t);
                    o.layers.judge_us.push(judge_us);
                }
                if v != Verdict::ClaimRejected {
                    o.failures.push(format!("honest lane pair {up:?} judged {v:?}"));
                }
            }
            o.phase_us = now_us() - t0;
        }
    }
    let g1 = gauges(w);
    fold_gauges(&mut o.layers, g0, g1);
    if phase == Phase::Download {
        o.layers.resident.push(w.resident_txns() as f64);
        o.layers.events.extend(w.obs.events().iter().rev().take(16).cloned());
    }
    // The deep-copy counters are process-wide and lanes run concurrently:
    // the fan-out reads them around the whole phase instead.
    o.layers.deep_copies = 0;
    o.layers.deep_copy_bytes = 0;
    let mut log = SpanLog::default();
    w.net_mut().drain(&mut o.layers.tally, &mut log);
    o.layers.spans.append(&mut log);
    o.wire_bytes = g1.wire_bytes - g0.wire_bytes;
    o.busy_us = now_us() - t0;
    o
}

impl Workload for Fanin {
    fn info(&self) -> Info {
        Info {
            key_bits: 512,
            payload_bytes: 256,
            backend: "simnet",
            runner: "GenericMultiWorld",
            clients: self.lanes * LANE,
            threads: self.pool.workers(),
        }
    }

    fn round(&mut self, budget_us: f64, traced: bool, checks: &mut Checks) -> Round {
        let mut r = Round { traced, ..Round::default() };
        let t_end = now_us() + budget_us;
        loop {
            let pass_start = now_us();
            self.round_no += 1;
            let round = self.round_no;
            let lanes: Vec<LaneSlot> = self.pool.scoped_indexed(self.lanes, |l| {
                Mutex::new((self.lane(round << 8 | l as u64, LANE, traced), Vec::new()))
            });
            let seed = self.seed;
            let dir = &self.dir;
            for phase in [Phase::Upload, Phase::Download, Phase::Dispute] {
                let copies = (Bytes::deep_copies(), Bytes::deep_copy_bytes());
                let t0 = now_us();
                let (outs, fan) = self.pool.scoped_indexed_stats(self.lanes, |l| {
                    let arb = Arbitrator::new(ProtocolConfig::full(), dir.clone());
                    let mut g = lanes[l].lock().expect("lane lock is never poisoned");
                    let (lane, handles) = &mut *g;
                    match lane {
                        Lane::Plain(w) => lane_phase(w, phase, seed, round, handles, &arb),
                        Lane::Traced(w) => lane_phase(w, phase, seed, round, handles, &arb),
                    }
                });
                let wall = now_us() - t0;
                r.layers.deep_copies += Bytes::deep_copies() - copies.0;
                r.layers.deep_copy_bytes += Bytes::deep_copy_bytes() - copies.1;
                if phase != Phase::Dispute {
                    r.txn_us += wall;
                }
                r.layers.fanout_wall_us += wall;
                r.layers.fanouts += 1;
                r.layers.tasks += fan.tasks;
                r.layers.steals += fan.steals;
                for o in outs {
                    for f in &o.failures {
                        checks.check(false, || f.clone());
                    }
                    checks.passed += 1;
                    r.attempted += o.attempted;
                    r.failed += o.failed;
                    r.layers.busy_us += o.busy_us;
                    match phase {
                        Phase::Upload | Phase::Download => {
                            r.txns += o.completed;
                            r.worker_txn_us += o.phase_us;
                            if phase == Phase::Upload {
                                r.uploads.push(o.phase_us);
                            } else {
                                r.downloads.push(o.phase_us);
                            }
                        }
                        Phase::Dispute => r.judges.extend_from_slice(&o.judges),
                    }
                    r.wire_bytes += o.wire_bytes;
                    r.layers.merge(o.layers);
                }
            }
            for m in lanes {
                let (lane, _) = m.into_inner().expect("lane lock is never poisoned");
                checks.conserved(&lane.wire(), "fanin lane");
            }
            // Start another pass only if it ends nearer the budget than
            // stopping now would.
            let now = now_us();
            if t_end - now < (now - pass_start) / 2.0 {
                break;
            }
        }
        r
    }

    fn replay_key(&self) -> &Principal {
        &self.clients[0]
    }

    fn control(&mut self, checks: &mut Checks) {
        let arb = Arbitrator::new(ProtocolConfig::full(), self.dir.clone());
        if let Lane::Plain(mut w) = self.lane(u64::MAX / 4, 2, false) {
            // The client compares the pair from its live records, so the
            // control lane keeps both transactions resident.
            w.set_archive_capacity(DEFAULT_HOT_CAPACITY);
            control_case(&mut w, &arb, checks, self.seed);
        }
    }

    fn probe(&mut self, checks: &mut Checks) -> Vec<(String, u64)> {
        let mut lane = self.lane(u64::MAX / 8, PROBE_CLIENTS, true);
        let o = self.lane_pass(&mut lane, checks);
        archive_fingerprint(o.layers.tally.fingerprint(o.completed), &o.layers)
    }
}

/// Clients in the fanin-sim seed probe's lane.
const PROBE_CLIENTS: usize = 32;
