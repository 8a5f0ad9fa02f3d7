//! Orchestration: TPNR actors over a [`Transport`].
//!
//! [`GenericWorld`] owns one client, one provider, one TTP and the wire,
//! encodes every protocol message to canonical bytes on the wire (so
//! adversaries manipulate real traffic), drives deliveries and timeout
//! polls, and reports per-transaction statistics — message counts, wall
//! latency, and whether the TTP was touched (the measurements behind
//! experiments E2 and E6).
//!
//! The world is generic over its [`Transport`] backend — the same
//! protocol code runs on the deterministic simulator ([`World`] =
//! `GenericWorld<SimNet>`), the in-process channel, and loopback TCP
//! (experiment E14) with zero per-backend branches. It has no event loop
//! of its own: it drives [`multi`](crate::multi)'s loop with a one-client
//! slice, so routing, faults, the timer wheel and the settled-transaction
//! archive behave exactly as in [`MultiWorld`](crate::multi::MultiWorld).

use crate::client::{Client, TimeoutStrategy};
use crate::config::ProtocolConfig;
use crate::evidence::VerifiedEvidence;
use crate::fault::FaultStats;
use crate::multi::{Hub, Stage, TxnHandle};
use crate::obs::Obs;
use crate::principal::{Directory, Principal};
use crate::provider::Provider;
use crate::sched::SettleReport;
use crate::session::{Outgoing, TxnState};
use crate::ttp::Ttp;
use std::slice;
use tpnr_crypto::ChaChaRng;
use tpnr_net::sim::{LinkConfig, NodeId, SimNet};
use tpnr_net::time::SimDuration;
use tpnr_net::transport::Transport;
use tpnr_net::Bytes;

/// Per-transaction outcome report.
///
/// Counts come from the transport's per-transaction tagged stats
/// ([`SimNet::txn_stats`]), so they are exact even when many transactions
/// interleave on the same network — not before/after deltas of global
/// counters.
#[derive(Debug, Clone)]
pub struct TxnReport {
    /// Transaction id.
    pub txn_id: u64,
    /// Final state at the client.
    pub state: TxnState,
    /// Protocol messages delivered for this transaction (duplicates count
    /// per delivered copy).
    pub messages: u64,
    /// Bytes sent on the wire for this transaction.
    pub bytes: u64,
    /// Wall-clock (simulated) duration from initiation to settlement.
    pub latency: SimDuration,
    /// Whether the TTP handled any message of this transaction.
    pub ttp_used: bool,
}

/// A typed transaction request — what to run, not how to plumb it.
///
/// Replaces the loose `(key, data, strategy)` argument lists: build one with
/// [`TxnRequest::upload`] / [`TxnRequest::download`], adjust it with
/// [`TxnRequest::with_strategy`], and hand it to [`World::run`].
#[derive(Debug, Clone)]
pub struct TxnRequest {
    /// Object key.
    pub key: Vec<u8>,
    /// Payload for uploads; `None` makes this a download.
    pub data: Option<Bytes>,
    /// Timeout sub-protocol the client arms at initiation.
    pub strategy: TimeoutStrategy,
}

impl TxnRequest {
    /// An upload of `data` under `key` (strategy defaults to
    /// [`TimeoutStrategy::AbortFirst`]).
    pub fn upload(key: &[u8], data: impl Into<Bytes>) -> Self {
        TxnRequest {
            key: key.to_vec(),
            data: Some(data.into()),
            strategy: TimeoutStrategy::AbortFirst,
        }
    }

    /// A download of `key` (strategy defaults to
    /// [`TimeoutStrategy::AbortFirst`]).
    pub fn download(key: &[u8]) -> Self {
        TxnRequest { key: key.to_vec(), data: None, strategy: TimeoutStrategy::AbortFirst }
    }

    /// Overrides the timeout strategy.
    pub fn with_strategy(mut self, strategy: TimeoutStrategy) -> Self {
        self.strategy = strategy;
        self
    }
}

/// The typed outcome of a settled transaction.
///
/// Replaces [`World::download`]'s old `(TxnReport, Option<Bytes>)` tuple and
/// the report-only return of [`World::upload`]: the terminal state, the
/// payload (downloads), both evidence pieces as the client holds them, and
/// the full wire-level [`TxnReport`] in one place.
#[derive(Debug, Clone)]
pub struct TxnResult {
    /// Transaction id (0 is the failed-initiation sentinel; real ids start
    /// at 1).
    pub txn_id: u64,
    /// Final state at the client.
    pub outcome: TxnState,
    /// Download payload, if this was a download that completed.
    pub data: Option<Bytes>,
    /// The client's own sealed non-repudiation-of-origin evidence.
    pub nro: Option<VerifiedEvidence>,
    /// The provider's receipt (NRR) as verified by the client, if received.
    pub nrr: Option<VerifiedEvidence>,
    /// Wire-level statistics (messages, bytes, latency, TTP use).
    pub report: TxnReport,
}

impl TxnResult {
    /// True when the exchange completed with the full evidence pair.
    pub fn completed(&self) -> bool {
        self.outcome == TxnState::Completed
    }

    /// True when the transaction is in a state a dispute arbiter can act
    /// on: a terminal outcome with the client's sealed NRO retained. This
    /// is the no-evidence-less-limbo property experiment E8 measures.
    pub fn arbitrable(&self) -> bool {
        self.outcome.is_terminal() && self.nro.is_some()
    }
}

/// The assembled world: three actors on a [`Transport`] backend.
///
/// `T` defaults to the deterministic simulator; [`World`] is the
/// `GenericWorld<SimNet>` alias almost all code uses. Every protocol
/// decision below is written against the [`Transport`] trait, so swapping
/// `T` for [`tpnr_net::ChannelNet`] or [`tpnr_net::TcpNet`] changes the
/// wire, never the protocol.
pub struct GenericWorld<T: Transport = SimNet> {
    /// The wire, routing, faults, wheel and archive. The wire is reachable
    /// through the typed accessors [`GenericWorld::net`] /
    /// [`GenericWorld::net_mut`], which keep the backend's full inherent
    /// API (links, interceptors) without freezing the layout into the
    /// public API.
    stage: Stage<T>,
    /// Alice.
    pub client: Client,
    /// Bob.
    pub provider: Provider,
    /// The trusted third party.
    pub ttp: Ttp,
    /// Alice's node.
    pub alice_node: NodeId,
    /// Bob's node.
    pub bob_node: NodeId,
    /// TTP's node.
    pub ttp_node: NodeId,
    /// The authenticated key directory shared by all honest parties
    /// (exposed for arbitration and attack harnesses).
    pub dir: Directory,
    /// The shared observability sink: structured events (deliveries,
    /// rejections, garbled arrivals, drops, duplications, timer fires,
    /// state transitions) plus the metrics registry. Same type and
    /// semantics as [`MultiWorld`](crate::multi::MultiWorld)'s.
    pub obs: Obs,
    /// Safety valve against livelock in adversarial runs; when hit, settle
    /// reports [`SettleOutcome::StepCapExceeded`](crate::sched::SettleOutcome)
    /// instead of silently stopping.
    pub max_steps: usize,
}

/// The classic deterministic world: [`GenericWorld`] over [`SimNet`].
pub type World = GenericWorld<SimNet>;

impl World {
    /// Builds a world on the deterministic simulator with fresh
    /// (deterministic) principals and the given protocol configuration.
    pub fn new(seed: u64, cfg: ProtocolConfig) -> Self {
        Self::with_transport(SimNet::new(seed), seed, cfg)
    }

    /// Configures every link with the same parameters (RTT sweeps).
    pub fn set_all_links(&mut self, cfg: LinkConfig) {
        self.stage.net.set_default_link(cfg);
    }
}

impl<T: Transport> GenericWorld<T> {
    /// Builds a world over an arbitrary [`Transport`] backend. `seed`
    /// derives the principals' keys and each actor's RNG exactly as
    /// [`World::new`] does, so two backends given the same seed host
    /// byte-identical principals.
    pub fn with_transport(net: T, seed: u64, cfg: ProtocolConfig) -> Self {
        let alice = Principal::test("alice", seed.wrapping_mul(3).wrapping_add(1));
        let bob = Principal::test("bob", seed.wrapping_mul(3).wrapping_add(2));
        let ttp_p = Principal::test("ttp", seed.wrapping_mul(3).wrapping_add(3));
        let mut dir = Directory::new();
        dir.register(&alice);
        dir.register(&bob);
        dir.register(&ttp_p);

        let client = Client::new(
            alice.clone(),
            cfg.clone(),
            dir.clone(),
            ttp_p.id(),
            bob.id(),
            ChaChaRng::seed_from_u64(seed ^ 0xa11ce),
        );
        let provider = Provider::new(
            bob.clone(),
            cfg.clone(),
            dir.clone(),
            ttp_p.id(),
            ChaChaRng::seed_from_u64(seed ^ 0xb0b),
        );
        let ttp = Ttp::new(
            ttp_p.clone(),
            cfg.clone(),
            dir.clone(),
            ChaChaRng::seed_from_u64(seed ^ 0x777),
        );
        let actors = (slice::from_ref(&client), &provider, &ttp);
        let stage = Stage::new(net, &cfg.faults, slice::from_ref(&alice), &bob, &ttp_p, actors);
        GenericWorld {
            alice_node: NodeId(0),
            bob_node: stage.bob_node,
            ttp_node: stage.ttp_node,
            stage,
            client,
            provider,
            ttp,
            dir,
            obs: Obs::new(),
            max_steps: 10_000,
        }
    }

    fn hub(&mut self) -> Hub<'_, T> {
        let client = slice::from_mut(&mut self.client);
        self.stage.hub(client, &mut self.provider, &mut self.ttp, &mut self.obs)
    }

    /// Borrows the transport backend (typed, so the backend's inherent
    /// API — [`SimNet::stats`], link knobs — stays reachable).
    pub fn net(&self) -> &T {
        &self.stage.net
    }

    /// Mutably borrows the transport backend (links, interceptors,
    /// manual sends in attack and test harnesses).
    pub fn net_mut(&mut self) -> &mut T {
        &mut self.stage.net
    }

    /// Sends any messages produced by a client API call. Transactions not
    /// started through [`GenericWorld::run`] are registered as started now,
    /// so [`GenericWorld::report`] answers for them.
    pub fn send_from_client(&mut self, out: Vec<Outgoing>) {
        self.hub().send_from_client(0, out);
    }

    /// Runs deliveries and timeout polls on the shared scheduler
    /// ([`sched::settle`](crate::sched::settle)) until every timer and
    /// delivery is drained or `max_steps` is hit — check `outcome` on the
    /// returned report.
    pub fn settle(&mut self) -> SettleReport {
        let max_steps = self.max_steps;
        self.hub().settle(max_steps)
    }

    /// Runs one transaction to settlement and returns the typed result.
    ///
    /// A failed initiation (e.g. no provider key) never panics: it is
    /// recorded as a rejection in [`Obs`](crate::obs::Obs) and reported as
    /// a `Failed` transaction with the sentinel id 0 (real ids start at 1).
    pub fn run(&mut self, req: TxnRequest) -> TxnResult {
        let h = self.hub().start(0, &req.key, req.data, req.strategy);
        if h.is_real() {
            self.settle();
        }
        self.result(h.txn_id).unwrap_or_else(|| {
            let report = TxnReport {
                txn_id: h.txn_id,
                state: TxnState::Failed,
                messages: 0,
                bytes: 0,
                latency: SimDuration::ZERO,
                ttp_used: false,
            };
            TxnResult {
                txn_id: h.txn_id,
                outcome: report.state,
                data: None,
                nro: None,
                nrr: None,
                report,
            }
        })
    }

    /// Uploads and settles ([`TxnRequest::upload`] + [`World::run`]).
    pub fn upload(
        &mut self,
        key: &[u8],
        data: impl Into<Bytes>,
        strategy: TimeoutStrategy,
    ) -> TxnResult {
        self.run(TxnRequest::upload(key, data).with_strategy(strategy))
    }

    /// Downloads and settles ([`TxnRequest::download`] + [`World::run`]);
    /// the payload arrives as `TxnResult::data` (a shared handle into the
    /// received bytes — no copy).
    pub fn download(&mut self, key: &[u8], strategy: TimeoutStrategy) -> TxnResult {
        self.run(TxnRequest::download(key).with_strategy(strategy))
    }

    /// Typed result for a transaction, live or archived (evicted
    /// transactions re-hydrate their evidence from the archive log); `None`
    /// for unknown ids.
    pub fn result(&self, txn_id: u64) -> Option<TxnResult> {
        self.stage.result(slice::from_ref(&self.client), TxnHandle { client: 0, txn_id })
    }

    /// Exact per-transaction report from the transport's tagged traffic
    /// counters, or from the archive once the transaction was evicted;
    /// `None` for unknown ids. Latency is txn-scoped — measured to this
    /// transaction's own last delivery, not to `net.now()`, so unrelated
    /// background traffic never inflates it.
    pub fn report(&self, txn_id: u64) -> Option<TxnReport> {
        self.stage.report(slice::from_ref(&self.client), txn_id)
    }

    /// Cumulative fault counters: the injector's own plus the client's
    /// retry machinery (which lives outside snapshots so it never resets).
    pub fn fault_counters(&self) -> FaultStats {
        self.stage.fault_counters(slice::from_ref(&self.client))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{Event, EventKind};
    use crate::sched::SettleOutcome;

    fn world() -> World {
        World::new(1, ProtocolConfig::full())
    }

    #[test]
    fn normal_upload_takes_two_messages_no_ttp() {
        let mut w = world();
        let r = w.upload(b"backup/q3", b"financial data".to_vec(), TimeoutStrategy::AbortFirst);
        assert_eq!(r.outcome, TxnState::Completed);
        assert!(r.completed() && r.arbitrable());
        assert_eq!(r.report.messages, 2, "paper: Normal mode is a two-step exchange");
        assert!(!r.report.ttp_used, "paper: TTP stays off-line in Normal mode");
        assert_eq!(w.provider.peek_storage(b"backup/q3"), Some(&b"financial data"[..]));
    }

    #[test]
    fn normal_download_roundtrip() {
        let mut w = world();
        w.upload(b"k", b"hello cloud".to_vec(), TimeoutStrategy::AbortFirst);
        let r = w.download(b"k", TimeoutStrategy::AbortFirst);
        assert_eq!(r.outcome, TxnState::Completed);
        assert_eq!(r.report.messages, 2);
        assert_eq!(r.data.unwrap(), b"hello cloud");
    }

    #[test]
    fn evidence_archived_on_both_sides() {
        let mut w = world();
        let r = w.upload(b"k", b"data".to_vec(), TimeoutStrategy::AbortFirst);
        let ct = w.client.txn(r.txn_id).unwrap();
        assert!(ct.nrr.is_some(), "Alice holds Bob's NRR");
        let pt = w.provider.txn(r.txn_id).unwrap();
        assert_eq!(pt.nro.plaintext.txn_id, r.txn_id, "Bob holds Alice's NRO");
    }

    #[test]
    fn upload_download_integrity_link_detects_tamper() {
        let mut w = world();
        let up = w.upload(b"k", b"true data".to_vec(), TimeoutStrategy::AbortFirst);
        w.provider.tamper_storage(b"k", b"fake data".to_vec());
        let down = w.download(b"k", TimeoutStrategy::AbortFirst);
        assert_eq!(down.outcome, TxnState::Completed);
        assert_eq!(down.data.clone().unwrap(), b"fake data", "tampered bytes arrive 'validly'");
        // The TPNR integrity link catches it where the platforms could not:
        assert_eq!(w.client.verify_download_against_upload(up.txn_id, down.txn_id), Some(false));
    }

    #[test]
    fn integrity_link_confirms_clean_roundtrip() {
        let mut w = world();
        let up = w.upload(b"k", b"stable".to_vec(), TimeoutStrategy::AbortFirst);
        let down = w.download(b"k", TimeoutStrategy::AbortFirst);
        assert_eq!(w.client.verify_download_against_upload(up.txn_id, down.txn_id), Some(true));
    }

    #[test]
    fn silent_provider_abort_path() {
        let mut w = world();
        w.provider.behavior.respond_transfers = false;
        let r = w.upload(b"k", b"data".to_vec(), TimeoutStrategy::AbortFirst);
        // Bob ignored the transfer but answered the abort.
        assert_eq!(r.outcome, TxnState::Aborted);
        assert!(r.arbitrable(), "aborted but the NRO still settles disputes");
        assert!(!r.report.ttp_used, "abort is an off-line-TTP sub-protocol");
    }

    #[test]
    fn fully_silent_provider_resolve_declares_failure() {
        let mut w = world();
        w.provider.behavior.respond_transfers = false;
        w.provider.behavior.respond_aborts = false;
        w.provider.behavior.respond_resolves = false;
        let r = w.upload(b"k", b"data".to_vec(), TimeoutStrategy::ResolveImmediately);
        assert_eq!(r.outcome, TxnState::Failed);
        assert!(r.report.ttp_used);
        assert_eq!(w.ttp.stats.failures_declared, 1);
    }

    #[test]
    fn lost_receipt_recovered_via_resolve() {
        let mut w = world();
        // Drop Bob→Alice receipts only: Bob stores the data and issues the
        // NRR but Alice never sees it, so she resolves via the TTP.
        let alice = w.alice_node;
        let bob = w.bob_node;
        w.stage.net.set_link(bob, alice, LinkConfig { drop_prob: 1.0, ..LinkConfig::default() });
        let (txn_id, out) = w
            .client
            .begin_upload(
                b"k",
                b"data".to_vec(),
                w.stage.net.now(),
                TimeoutStrategy::ResolveImmediately,
            )
            .unwrap();
        w.send_from_client(out);
        // Heal the link after the first loss so the resolve reply gets back.
        w.settle();
        // The receipt was dropped; resolve went through the TTP path.
        // (TTP relays Bob's re-issued NRR to Alice over ttp→alice link,
        // which is not the dropped one.)
        assert_eq!(w.client.txn_state(txn_id), Some(TxnState::Completed));
        assert!(w.ttp.stats.replies_relayed >= 1);
        assert!(w.client.txn(txn_id).unwrap().nrr.is_some());
    }

    #[test]
    fn settle_terminates_under_heavy_loss() {
        // Every protocol run must end in a terminal state even on a 30%
        // lossy network (no stuck sessions) — DESIGN.md §6 — and the
        // scheduler must reach true quiescence, not a silent step cap.
        for seed in 0..5 {
            let mut w = World::new(seed, ProtocolConfig::full());
            w.set_all_links(LinkConfig::lossy(SimDuration::from_millis(20), 0.3));
            // The harness path: begun on the client, sent by the world.
            // `send_from_client` registers the transaction, so `report`
            // still answers for it.
            let now = w.stage.net.now();
            let (txn_id, out) = w
                .client
                .begin_upload(b"k", vec![1, 2, 3], now, TimeoutStrategy::ResolveImmediately)
                .unwrap();
            w.send_from_client(out);
            let s = w.settle();
            assert_eq!(s.outcome, SettleOutcome::Quiescent, "seed {seed}");
            let r = w.report(txn_id).expect("harness-started txn is reported");
            assert!(r.state.is_terminal(), "seed {seed} left state {:?}", r.state);
        }
    }

    #[test]
    fn long_single_client_run_stays_bounded() {
        // The one-client world shares the multi-client archive: past the
        // hot capacity (16 shards × 64) the oldest settled transactions
        // leave the live maps, and their evidence stays answerable.
        let mut w = world();
        let first = w.upload(b"k0", b"d".to_vec(), TimeoutStrategy::AbortFirst).txn_id;
        for i in 1..1_100u32 {
            let r = w.upload(&i.to_be_bytes(), b"d".to_vec(), TimeoutStrategy::AbortFirst);
            assert!(r.completed(), "upload {i}");
        }
        assert!(w.client.txn_ids().len() <= 16 * 64, "{} live txns", w.client.txn_ids().len());
        assert!(w.client.txn(first).is_none(), "the first upload was evicted");
        let r = w.result(first).expect("evicted txn still answers");
        assert_eq!(r.outcome, TxnState::Completed);
        assert!(r.nro.is_some() && r.nrr.is_some(), "NRO/NRR re-hydrated from the archive");
    }

    #[test]
    fn overdue_timer_fires_despite_background_traffic() {
        // Regression for the settle-loop starvation bug: the old loop only
        // fired a timer while `deadline >= now`, so once deliveries pushed
        // the clock past the deadline, Abort/Resolve was postponed until
        // the network drained. Flood the wire with undecodable chatter
        // spread over ~2 minutes (latency jitter reorders it) against a
        // silent provider: the resolve must still go out at its deadline,
        // not after the flood.
        let mut w = world();
        w.provider.behavior.respond_transfers = false;
        let (a, b) = (w.alice_node, w.bob_node);
        w.stage.net.set_link(
            a,
            b,
            LinkConfig {
                latency: SimDuration::from_millis(1),
                jitter: SimDuration::from_secs(120),
                ..Default::default()
            },
        );
        let started = w.stage.net.now();
        let (txn_id, out) = w
            .client
            .begin_upload(b"k", b"data".to_vec(), started, TimeoutStrategy::ResolveImmediately)
            .unwrap();
        w.send_from_client(out);
        for _ in 0..200 {
            w.stage.net.send(a, b, b"not a protocol message".to_vec());
        }
        let s = w.settle();
        assert_eq!(s.outcome, SettleOutcome::Quiescent);
        // A provider that drops transfers never records the NRO, so the
        // resolve ends in a TTP-mediated Restart and the client marks the
        // session failed — the fair outcome, and a terminal one.
        assert_eq!(w.client.txn_state(txn_id), Some(TxnState::Failed));
        let resolve_at = w
            .obs
            .events()
            .iter()
            .find(|e| e.msg_kind() == Some("Resolve"))
            .expect("resolve was sent")
            .at;
        // The client deadline is response_timeout after start — the flood
        // tail is ~2 minutes out, so firing anywhere near the deadline
        // proves the timer was not starved.
        assert!(
            resolve_at.micros() < 60_000_000,
            "resolve delayed until the flood drained: {} µs",
            resolve_at.micros()
        );
    }

    #[test]
    fn step_cap_reports_exceeded_instead_of_silently_settling() {
        let mut w = world();
        w.max_steps = 1;
        let started = w.stage.net.now();
        let (_, out) = w
            .client
            .begin_upload(b"k", b"d".to_vec(), started, TimeoutStrategy::AbortFirst)
            .unwrap();
        w.send_from_client(out);
        let s = w.settle();
        assert_eq!(s.outcome, SettleOutcome::StepCapExceeded);
        // Resuming with a sane cap finishes the run.
        w.max_steps = 10_000;
        let s = w.settle();
        assert_eq!(s.outcome, SettleOutcome::Quiescent);
    }

    #[test]
    fn timer_delivery_tie_is_deterministic_timer_first() {
        // Arrange an exact tie: the receipt arrives at the very instant the
        // client's response deadline expires (response_timeout == one RTT).
        // The documented rule is timer-first — a reply landing exactly at
        // the deadline is late — so the abort goes out even though the
        // receipt was deliverable at the same timestamp, and the run is
        // reproducible event-for-event.
        let run = || {
            let mut cfg = ProtocolConfig::full();
            cfg.response_timeout = SimDuration::from_millis(50); // == RTT
            let mut w = World::new(9, cfg);
            let r = w.upload(b"k", b"d".to_vec(), TimeoutStrategy::AbortFirst);
            let kinds: Vec<String> =
                w.obs.events().iter().filter_map(|e| e.msg_kind().map(str::to_string)).collect();
            (r.outcome, kinds)
        };
        let (state1, kinds1) = run();
        let (state2, kinds2) = run();
        assert_eq!(kinds1, kinds2, "tie-break must be deterministic");
        assert_eq!(state1, state2);
        assert!(
            kinds1.iter().any(|k| k == "Abort"),
            "timer fired before the same-instant receipt delivery: {kinds1:?}"
        );
    }

    #[test]
    fn event_stream_records_deliveries_and_states() {
        let mut w = world();
        let r = w.upload(b"k", b"d".to_vec(), TimeoutStrategy::AbortFirst);
        let deliveries: Vec<&Event> = w
            .obs
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Delivered { .. }))
            .collect();
        assert_eq!(deliveries.len(), 2);
        assert_eq!(deliveries[0].msg_kind(), Some("Transfer"));
        assert_eq!(deliveries[0].actor, "bob");
        assert_eq!(deliveries[0].txn, Some(r.txn_id));
        assert_eq!(deliveries[1].msg_kind(), Some("Receipt"));
        assert_eq!(deliveries[1].actor, "alice");
        assert_eq!(w.obs.metrics.delivered, 2);
        assert_eq!(w.obs.metrics.rejected + w.obs.metrics.garbled, 0);
        // Pending → Completed, visible as state transitions, with the
        // settlement latency sampled once.
        let states: Vec<_> = w
            .obs
            .events()
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::StateTransition { from, to } => Some((*from, *to)),
                _ => None,
            })
            .collect();
        assert_eq!(
            states,
            vec![(None, TxnState::Pending), (Some(TxnState::Pending), TxnState::Completed)]
        );
        assert_eq!(w.obs.metrics.latency_us.count(), 1);
        assert_eq!(w.obs.metrics.latency_us.max(), Some(r.report.latency.micros()));
        assert_eq!(w.obs.txn(r.txn_id).inbox_total(), 2);
    }

    #[test]
    fn latency_scales_with_rtt() {
        let mut lat = Vec::new();
        for rtt_ms in [10u64, 100] {
            let mut w = world();
            w.set_all_links(LinkConfig::ideal(SimDuration::from_millis(rtt_ms / 2)));
            let r = w.upload(b"k", b"d".to_vec(), TimeoutStrategy::AbortFirst);
            lat.push(r.report.latency.micros());
        }
        assert_eq!(lat[0], 10_000);
        assert_eq!(lat[1], 100_000);
    }

    #[test]
    fn report_latency_is_txn_scoped_not_clock_scoped() {
        // Regression for the latency misreport: `report` used to measure to
        // `net.now()`, so any background traffic inflated every number.
        // Flood the wire with undecodable chatter whose jitter spreads it
        // over ~2 minutes, then run a clean upload on a healed link: the
        // upload's latency must reflect its own two deliveries, not the
        // flood's tail.
        let mut w = world();
        let (a, b) = (w.alice_node, w.bob_node);
        w.stage.net.set_link(
            a,
            b,
            LinkConfig {
                latency: SimDuration::from_millis(1),
                jitter: SimDuration::from_secs(120),
                ..Default::default()
            },
        );
        for _ in 0..200 {
            w.stage.net.send(a, b, b"background noise".to_vec());
        }
        w.stage.net.set_link(a, b, LinkConfig::default());
        let r = w.upload(b"k", b"data".to_vec(), TimeoutStrategy::AbortFirst);
        assert_eq!(r.outcome, TxnState::Completed);
        assert!(
            w.stage.net.now().micros() > 60_000_000,
            "the flood should have kept the clock running: {}",
            w.stage.net.now().micros()
        );
        assert!(
            r.report.latency.micros() <= 1_000_000,
            "latency must be txn-scoped, got {} µs",
            r.report.latency.micros()
        );
        // Satellite check: the garbled chatter is visible and attributed to
        // no transaction (it used to claim `txn_id: 0`).
        assert_eq!(w.obs.metrics.garbled, 200);
        assert!(w
            .obs
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Garbled { .. }))
            .all(|e| e.txn.is_none()));
    }

    #[test]
    fn ring_buffer_bounds_event_memory_under_flood() {
        let mut w = world();
        w.obs.set_capacity(64);
        let (a, b) = (w.alice_node, w.bob_node);
        for _ in 0..500 {
            w.stage.net.send(a, b, b"junk".to_vec());
        }
        w.settle();
        assert_eq!(w.obs.events().len(), 64, "ring never exceeds its capacity");
        assert_eq!(w.obs.evicted(), 500 - 64);
        assert_eq!(w.obs.metrics.garbled, 500, "counters stay exact under eviction");
    }
}
