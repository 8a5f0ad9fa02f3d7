//! Multi-client deployments, and the one event loop every runner drives.
//!
//! The paper's Figure 1 shows a provider serving a population of users.
//! [`MultiWorld`] scales the single-pair runner up to N clients with
//! interleaved transactions, which exercises properties the two-party runs
//! cannot: per-(transaction, sender) replay windows under concurrency,
//! cross-client isolation of objects and evidence, and aggregate TTP load.
//!
//! The event loop lives here once. A private `Stage` owns the wire, the
//! routing tables, the fault injector, the timer wheel and the
//! settled-transaction archive; a short-lived `Hub` borrows it together
//! with the actors and `obs` and is what [`sched::settle`] drives.
//! [`World`](crate::runner::World) drives the same hub with a one-client
//! slice.

use crate::archive::{ArchiveStats, ArchivedTxn, EvidenceBundle, TxnArchive};
use crate::client::{Client, ClientSnapshot, TimeoutStrategy};
use crate::config::ProtocolConfig;
use crate::evidence::VerifiedEvidence;
use crate::fault::{DeliveryVerdict, Durable, FaultCtl, FaultPlan, FaultStats, SyncDecision};
use crate::message::Message;
use crate::obs::{Event, EventKind, Obs};
use crate::principal::{Directory, Principal, PrincipalId};
use crate::provider::{Provider, ProviderSnapshot};
use crate::runner::{TxnReport, TxnResult};
use crate::sched::{self, Actor, EventHub, SettleReport, TimerWheel};
use crate::session::{Outgoing, TxnState};
use crate::ttp::{Ttp, TtpSnapshot};
use std::collections::{BTreeMap, BTreeSet};
use tpnr_crypto::ChaChaRng;
use tpnr_net::codec::Wire;
use tpnr_net::sim::{Envelope, LinkConfig, NodeId, SimNet};
use tpnr_net::time::SimTime;
use tpnr_net::transport::Transport;
use tpnr_net::Bytes;

/// A typed handle to a transaction started on a [`MultiWorld`]: which
/// client owns it and its id. Replaces the bare `u64` returns of
/// `start_upload` / `start_download`, so accessors no longer take
/// easy-to-swap `(usize, u64)` pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxnHandle {
    /// Index of the owning client in `MultiWorld::clients`.
    pub client: usize,
    /// Transaction id (0 is the failed-initiation sentinel; real ids start
    /// at 1).
    pub txn_id: u64,
}

impl TxnHandle {
    /// False for the failed-initiation sentinel.
    pub fn is_real(&self) -> bool {
        self.txn_id != 0
    }
}

/// Per-transaction bookkeeping: owner, start time, and whether the first
/// terminal transition has been funnelled through the archive's settled
/// queue yet.
#[derive(Debug, Clone, Copy)]
struct TxnMeta {
    client: usize,
    started: SimTime,
    settled: bool,
}

/// Last synced durable images of every actor (the crash recovery points).
/// Allocated only when the fault plan can actually inject.
struct Snapshots {
    clients: Vec<ClientSnapshot>,
    provider: ProviderSnapshot,
    ttp: TtpSnapshot,
}

impl Snapshots {
    fn take(clients: &[Client], provider: &Provider, ttp: &Ttp) -> Box<Self> {
        Box::new(Snapshots {
            clients: clients.iter().map(Durable::snapshot).collect(),
            provider: provider.snapshot(),
            ttp: ttp.snapshot(),
        })
    }
}

/// Everything a runner owns besides its actors and `obs`: the wire, the
/// routing tables, per-transaction bookkeeping, the fault injector and its
/// recovery points, the deadline wheel and the settled-transaction archive.
///
/// Clients register with the transport first, so `NodeId(i)` *is* client
/// `i`; bob and the TTP follow. Wheel keys are node indices, and the fault
/// injector's wakeup is key `ttp_node + 1`.
pub(crate) struct Stage<T: Transport> {
    /// The wire.
    pub(crate) net: T,
    /// The provider's node.
    pub(crate) bob_node: NodeId,
    /// The TTP's node.
    pub(crate) ttp_node: NodeId,
    // Ordered map: the lint's DET-ORDER rule covers this module, and
    // iteration must not depend on hash seeding.
    node_of: BTreeMap<PrincipalId, NodeId>,
    /// The principal behind each node, indexed by `NodeId`.
    principal_of: Vec<PrincipalId>,
    /// Owner/start/settled per started transaction (evicted entries move to
    /// `archive`).
    txn_meta: BTreeMap<u64, TxnMeta>,
    /// Transactions the TTP has seen a message for.
    ttp_touched: BTreeSet<u64>,
    /// The fault injector executing the plan (inert and overhead-free for
    /// the default plan).
    faults: FaultCtl,
    /// Last synced snapshots; `None` when the fault plan is inert.
    snaps: Option<Box<Snapshots>>,
    /// Scheduler-owned deadline index: actors register/cancel deadlines
    /// here instead of being polled each step.
    wheel: TimerWheel,
    /// Bounded-memory store for settled transactions (sharded by txn-id
    /// hash; oldest settled txns evicted to sealed evidence logs).
    archive: TxnArchive,
}

impl<T: Transport> Stage<T> {
    /// Registers the clients, then bob, then the TTP on `net`, and takes
    /// the epoch-zero recovery points of `actors` (a crash before the
    /// first sync restores to the freshly built actor).
    pub(crate) fn new(
        mut net: T,
        plan: &FaultPlan,
        client_principals: &[Principal],
        bob: &Principal,
        ttp_p: &Principal,
        (clients, provider, ttp): (&[Client], &Provider, &Ttp),
    ) -> Self {
        assert!(!client_principals.is_empty());
        let principals: Vec<&Principal> = client_principals.iter().chain([bob, ttp_p]).collect();
        let nodes: Vec<NodeId> = principals.iter().map(|p| net.register(&p.name)).collect();
        assert!(
            nodes.iter().enumerate().all(|(i, n)| n.0 as usize == i),
            "the transport must start empty: node ids double as actor indices"
        );
        let faults = FaultCtl::new(plan);
        let snaps = faults.active().then(|| Snapshots::take(clients, provider, ttp));
        let n = client_principals.len();
        let (bob_node, ttp_node) = (nodes[n], nodes[n + 1]);
        Stage {
            net,
            bob_node,
            ttp_node,
            node_of: principals.iter().map(|p| p.id()).zip(nodes).collect(),
            principal_of: principals.iter().map(|p| p.id()).collect(),
            txn_meta: BTreeMap::new(),
            ttp_touched: BTreeSet::new(),
            faults,
            snaps,
            wheel: TimerWheel::new(),
            archive: TxnArchive::new(),
        }
    }

    /// Borrows the stage together with the actors for one burst of work.
    pub(crate) fn hub<'a>(
        &'a mut self,
        clients: &'a mut [Client],
        provider: &'a mut Provider,
        ttp: &'a mut Ttp,
        obs: &'a mut Obs,
    ) -> Hub<'a, T> {
        Hub { stage: self, clients, provider, ttp, obs }
    }

    fn name(&self, node: NodeId) -> &str {
        self.net.node_name(node).unwrap_or("?")
    }

    fn is_down(&self, node: NodeId) -> bool {
        self.faults.active() && self.faults.is_down(self.name(node))
    }

    fn fault_key(&self) -> usize {
        self.ttp_node.0 as usize + 1
    }

    fn refresh_fault_wheel(&mut self) {
        let w = self.faults.next_wakeup();
        self.wheel.set(self.fault_key(), w);
    }

    /// Exact per-transaction report from the transport's tagged traffic
    /// counters; `None` for unknown transaction ids. Latency runs from
    /// initiation to the transaction's own last delivery (other sessions
    /// may keep the shared clock running long after this one settled).
    pub(crate) fn report(&self, clients: &[Client], txn: u64) -> Option<TxnReport> {
        if let Some(meta) = self.txn_meta.get(&txn) {
            let t = self.net.txn_stats(txn);
            return Some(TxnReport {
                txn_id: txn,
                state: clients[meta.client].txn_state(txn)?,
                messages: t.delivered,
                bytes: t.bytes_sent,
                latency: t.last_delivered_at.since(meta.started),
                ttp_used: self.ttp_touched.contains(&txn),
            });
        }
        // Evicted: the index record froze the final accounting.
        let rec = self.archive.get(txn)?;
        Some(TxnReport {
            txn_id: txn,
            state: rec.state,
            messages: rec.messages,
            bytes: rec.bytes,
            latency: rec.latency,
            ttp_used: rec.ttp_used,
        })
    }

    /// Typed result for a handled transaction, live or archived.
    pub(crate) fn result(&self, clients: &[Client], h: TxnHandle) -> Option<TxnResult> {
        let report = self.report(clients, h.txn_id)?;
        let c = clients.get(h.client)?;
        if let Some(t) = c.txn(h.txn_id) {
            return Some(TxnResult {
                txn_id: h.txn_id,
                outcome: report.state,
                data: c.download_result(h.txn_id).map(|p| p.data.clone()),
                nro: Some(t.nro.clone()),
                nrr: t.nrr.clone(),
                report,
            });
        }
        // Evicted: re-hydrate the sealed evidence from the archive log (the
        // downloaded payload is gone — the provider's storage holds the
        // service copy, evidence is what survives for arbitration).
        let bundle = self.archive.load_bundle(h.txn_id)?;
        Some(TxnResult {
            txn_id: h.txn_id,
            outcome: report.state,
            data: None,
            nro: bundle.get("client-nro").cloned(),
            nrr: bundle.get("client-nrr").cloned(),
            report,
        })
    }

    /// Cumulative fault counters: the injector's own plus every client's
    /// retry machinery (which lives outside snapshots so it never resets).
    pub(crate) fn fault_counters(&self, clients: &[Client]) -> FaultStats {
        let mut f = self.faults.stats;
        for c in clients {
            f.retries += c.retry_stats.retries;
            f.gave_up += c.retry_stats.gave_up;
        }
        f
    }
}

/// The stage and the actors, borrowed together: the only runner-side
/// [`EventHub`].
pub(crate) struct Hub<'a, T: Transport> {
    stage: &'a mut Stage<T>,
    clients: &'a mut [Client],
    provider: &'a mut Provider,
    ttp: &'a mut Ttp,
    obs: &'a mut Obs,
}

impl<T: Transport> Hub<'_, T> {
    /// Starts an upload (`data` is `Some`) or a download from client `idx`
    /// without settling. A failed initiation yields the sentinel handle
    /// (`txn_id` 0, never a real id) and a recorded rejection in [`Obs`],
    /// never a panic.
    pub(crate) fn start(
        &mut self,
        idx: usize,
        key: &[u8],
        data: Option<Bytes>,
        strategy: TimeoutStrategy,
    ) -> TxnHandle {
        let now = self.stage.net.now();
        let node = NodeId(idx as u32);
        let begun = match data {
            Some(data) => self.clients[idx].begin_upload(key, data, now, strategy),
            None => self.clients[idx].begin_download(key, now, strategy),
        };
        let name = self.stage.name(node);
        let (txn, out) = match begun {
            Ok(v) => v,
            Err(error) => {
                self.obs.record(Event {
                    at: now,
                    txn: None,
                    actor: name.to_string(),
                    kind: EventKind::Rejected {
                        from: name.to_string(),
                        msg: "Transfer".to_string(),
                        error,
                    },
                });
                return TxnHandle { client: idx, txn_id: 0 };
            }
        };
        self.obs.note_state(now, name, txn, TxnState::Pending);
        self.stage.txn_meta.insert(txn, TxnMeta { client: idx, started: now, settled: false });
        // Write-ahead: the NRO sealed at initiation must survive a crash
        // that lands before any reply comes back.
        self.sync_actor(node, now, true);
        self.dispatch(node, out);
        TxnHandle { client: idx, txn_id: txn }
    }

    /// Sends messages a harness produced by driving client `idx` directly,
    /// registering each transaction not seen before as started now, so
    /// `report` answers for it.
    pub(crate) fn send_from_client(&mut self, idx: usize, out: Vec<Outgoing>) {
        let now = self.stage.net.now();
        for o in &out {
            let meta = TxnMeta { client: idx, started: now, settled: false };
            self.stage.txn_meta.entry(o.msg.txn_id()).or_insert(meta);
        }
        self.dispatch(NodeId(idx as u32), out);
    }

    /// Delivers traffic and drives timeouts on the shared scheduler
    /// ([`sched::settle`]) until every timer and delivery is drained or
    /// `max_steps` is hit — check `outcome` on the returned report.
    pub(crate) fn settle(&mut self, max_steps: usize) -> SettleReport {
        // Full wheel resync, so deadlines armed or mutated outside the event
        // loop (API calls, harnesses poking actors directly) are picked up.
        for i in 0..=self.stage.ttp_node.0 {
            self.refresh_wheel(NodeId(i));
        }
        self.stage.refresh_fault_wheel();
        let report = sched::settle(self, max_steps);
        // Mirror the cumulative fault counters into the metrics registry so
        // JSONL/bench output carries them without re-deriving.
        let f = report.faults;
        self.obs.metrics.crashes = f.crashes;
        self.obs.metrics.restarts = f.restarts;
        self.obs.metrics.retries = f.retries;
        self.obs.metrics.snapshot_bytes = f.snapshot_bytes;
        report
    }

    fn client_index(&self, node: NodeId) -> Option<usize> {
        let i = node.0 as usize;
        (i < self.clients.len()).then_some(i)
    }

    fn actor(&self, node: NodeId) -> Option<&dyn Actor> {
        if let Some(i) = self.client_index(node) {
            Some(&self.clients[i])
        } else if node == self.stage.bob_node {
            Some(&*self.provider)
        } else if node == self.stage.ttp_node {
            Some(&*self.ttp)
        } else {
            None
        }
    }

    fn actor_mut(&mut self, node: NodeId) -> Option<&mut dyn Actor> {
        if let Some(i) = self.client_index(node) {
            Some(&mut self.clients[i])
        } else if node == self.stage.bob_node {
            Some(&mut *self.provider)
        } else if node == self.stage.ttp_node {
            Some(&mut *self.ttp)
        } else {
            None
        }
    }

    fn node_by_name(&self, name: &str) -> Option<NodeId> {
        (0..=self.stage.ttp_node.0).map(NodeId).find(|&n| self.stage.net.node_name(n) == Some(name))
    }

    /// Re-registers one actor's earliest deadline with the wheel (a down
    /// actor's timers are frozen, so its entry is cancelled instead).
    fn refresh_wheel(&mut self, node: NodeId) {
        let d = if self.stage.is_down(node) {
            None
        } else {
            self.actor(node).and_then(|a| a.next_deadline())
        };
        self.stage.wheel.set(node.0 as usize, d);
    }

    fn dispatch(&mut self, from_node: NodeId, out: Vec<Outgoing>) {
        for o in out {
            let Some(&dst) = self.stage.node_of.get(&o.to) else { continue };
            let txn = o.msg.txn_id();
            // First wire activity marks the transaction's start (idempotent)
            // so terminal-state latency is measurable for every entry path.
            self.obs.note_txn_started(txn, self.stage.net.now());
            // Encode once into a shared buffer; the transport clones only
            // the handle from here on (queue, duplicates, inbox).
            self.stage.net.send_tagged(from_node, dst, o.msg.to_wire_bytes(), Some(txn));
        }
    }

    /// Marks the actor at `node` crashed and records the event. The restart
    /// instant becomes a scheduler timer via [`FaultCtl::next_wakeup`].
    fn crash_actor(&mut self, node: NodeId, now: SimTime) {
        let name = self.stage.name(node).to_string();
        self.stage.faults.crash(&name, now);
        // The outage is a transport fact: queued copies addressed to the
        // node drop (and are counted) at their delivery instant.
        self.stage.net.set_node_down(node, true);
        // Freeze the crashed actor's armed deadline: its wheel entry dies
        // with it and is re-registered from the restored snapshot. The
        // restart instant itself becomes a wheel entry.
        self.stage.wheel.cancel(node.0 as usize);
        self.stage.refresh_fault_wheel();
        self.obs.record(Event { at: now, txn: None, actor: name, kind: EventKind::Crashed });
    }

    /// Restores a restarted actor from its last synced snapshot.
    fn restore_actor(&mut self, node: NodeId, now: SimTime) {
        let Some(snaps) = self.stage.snaps.as_deref() else { return };
        let bytes = if let Some(i) = self.client_index(node) {
            self.clients[i].restore(&snaps.clients[i]);
            snaps.clients[i].bytes()
        } else if node == self.stage.bob_node {
            self.provider.restore(&snaps.provider);
            snaps.provider.bytes()
        } else {
            self.ttp.restore(&snaps.ttp);
            snaps.ttp.bytes()
        };
        self.obs.record(Event {
            at: now,
            txn: None,
            actor: self.stage.name(node).to_string(),
            kind: EventKind::Restarted { snapshot_bytes: bytes },
        });
    }

    /// Durably syncs an actor's state if due (or forced — the write-ahead
    /// path taken before any produced message reaches the wire).
    fn sync_actor(&mut self, node: NodeId, now: SimTime, force: bool) {
        let stage = &mut *self.stage;
        let Some(snaps) = stage.snaps.as_deref_mut() else { return };
        let name = stage.net.node_name(node).unwrap_or("?");
        if stage.faults.sync_due(name, now, force) != SyncDecision::Persist {
            return;
        }
        let i = node.0 as usize;
        let bytes = if i < self.clients.len() {
            snaps.clients[i] = self.clients[i].snapshot();
            snaps.clients[i].bytes()
        } else if node == stage.bob_node {
            snaps.provider = self.provider.snapshot();
            snaps.provider.bytes()
        } else {
            snaps.ttp = self.ttp.snapshot();
            snaps.ttp.bytes()
        };
        stage.faults.note_snapshot(bytes);
    }

    /// Records a client-side state transition and, on the first terminal
    /// transition, funnels the txn through the archive's settled queue —
    /// possibly evicting the shard's oldest settled txn to the sealed log.
    fn note_txn_state(&mut self, now: SimTime, idx: usize, txn: u64, st: TxnState) {
        self.obs.note_state(now, self.stage.name(NodeId(idx as u32)), txn, st);
        let newly_settled = st.is_terminal()
            && match self.stage.txn_meta.get_mut(&txn) {
                Some(meta) if !meta.settled => {
                    meta.settled = true;
                    true
                }
                _ => false,
            };
        if newly_settled {
            if let Some(victim) = self.stage.archive.note_settled(txn) {
                self.evict_txn(victim);
            }
        }
    }

    /// Evicts a settled transaction: every layer's live per-txn state
    /// (client record, provider session record, TTP pending entry, all
    /// validator replay windows, obs tallies, tagged net counters,
    /// `txn_meta`) is dropped; the evidence is sealed into the archive's
    /// shard log and a compact index record keeps `report`/`state`/`result`
    /// answerable. Validators keep a tombstone, so late replays for the
    /// txn are refused instead of being handed a fresh window.
    fn evict_txn(&mut self, txn: u64) {
        let Some(meta) = self.stage.txn_meta.remove(&txn) else { return };
        let client = &mut self.clients[meta.client];
        let state = client.txn_state(txn).unwrap_or(TxnState::Failed);
        let client_rec = client.evict_txn(txn);
        let provider_rec = self.provider.evict_txn(txn);
        self.ttp.evict_txn(txn);
        let net = self.stage.net.retire_txn(txn);
        self.obs.retire_txn(txn);
        let ttp_used = self.stage.ttp_touched.remove(&txn);
        let mut bundle = EvidenceBundle::new();
        if let Some(c) = &client_rec {
            bundle.push("client-nro", c.nro.clone());
            if let Some(nrr) = &c.nrr {
                bundle.push("client-nrr", nrr.clone());
            }
        }
        if let Some(p) = &provider_rec {
            bundle.push("provider-nro", p.nro.clone());
            bundle.push(
                "provider-nrr",
                VerifiedEvidence::from_stored_parts(
                    p.nrr_plaintext.clone(),
                    p.nrr_sigs.0.clone(),
                    p.nrr_sigs.1.clone(),
                ),
            );
        }
        let rec = ArchivedTxn::record(
            meta.client,
            meta.started,
            state,
            net.delivered,
            net.bytes_sent,
            net.last_delivered_at.since(meta.started),
            ttp_used,
        );
        self.stage.archive.archive(txn, &bundle, rec);
    }
}

impl<T: Transport> EventHub for Hub<'_, T> {
    fn transport(&mut self) -> &mut dyn Transport {
        &mut self.stage.net
    }

    fn next_timer(&self) -> Option<SimTime> {
        // The wheel is the deadline index: actor deadlines and the fault
        // injector's wakeups (restarts, outage starts) are all entries, so
        // no actor is polled per step and downtime advances the clock
        // instead of stalling the loop. A crashed actor's entry is
        // cancelled with it, freezing its protocol timers until restart.
        self.stage.wheel.peek()
    }

    fn fire_timers(&mut self, now: SimTime) -> usize {
        // Client indices whose transactions may have moved this round —
        // the state diff below is restricted to them instead of walking
        // every started txn in the world.
        let mut touched: Vec<usize> = Vec::new();
        if self.stage.faults.active() {
            // Restarts and outage boundaries first: a just-restored actor
            // ticks in this same round, so an overdue deadline revealed by
            // the restore produces output immediately (never barren).
            let ev = self.stage.faults.poll("ttp", now);
            for name in ev.crashed {
                if let Some(node) = self.node_by_name(&name) {
                    self.stage.net.set_node_down(node, true);
                    self.stage.wheel.cancel(node.0 as usize);
                }
                self.obs.record(Event {
                    at: now,
                    txn: None,
                    actor: name,
                    kind: EventKind::Crashed,
                });
            }
            for name in ev.restarted {
                // Re-arm from the restored state (the stale pre-crash entry
                // was cancelled at crash time and can never fire); a
                // restore can also revert transaction states, so the diff
                // must cover the restored client.
                let Some(node) = self.node_by_name(&name) else { continue };
                self.restore_actor(node, now);
                self.stage.net.set_node_down(node, false);
                self.refresh_wheel(node);
                touched.extend(self.client_index(node));
            }
            self.stage.refresh_fault_wheel();
        }
        let mut dispatched = 0;
        let fault_key = self.stage.fault_key();
        for key in self.stage.wheel.advance(now) {
            if key == fault_key {
                continue; // consumed by faults.poll above
            }
            let node = NodeId(key as u32);
            if self.stage.is_down(node) {
                continue;
            }
            let Some(actor) = self.actor_mut(node) else { continue };
            let out = actor.on_tick(now);
            self.obs.record(Event {
                at: now,
                txn: None,
                actor: self.stage.name(node).to_string(),
                kind: EventKind::TimerFired { messages: out.len() },
            });
            if !out.is_empty() {
                // Write-ahead: timer-driven sends (Abort/Resolve) persist
                // the state they acknowledge before hitting the wire.
                self.sync_actor(node, now, true);
            }
            dispatched += out.len();
            self.dispatch(node, out);
            // The tick moved or kept this actor's deadline; re-register it
            // (a kept overdue deadline re-files as overdue, preserving the
            // scheduler's barren-masking comparison).
            self.refresh_wheel(node);
            touched.extend(self.client_index(node));
        }
        if self.stage.faults.active() {
            self.stage.refresh_fault_wheel();
        }
        // Timer rounds move client-visible states (abort/resolve
        // initiation, failure declarations); diff the touched clients'
        // txns in txn order so same-instant transitions land
        // deterministically.
        touched.sort_unstable();
        touched.dedup();
        let mut moved: Vec<(u64, usize)> = Vec::new();
        for &i in &touched {
            moved.extend(self.clients[i].txn_ids().into_iter().map(|t| (t, i)));
        }
        moved.sort_unstable();
        for (txn, idx) in moved {
            if let Some(st) = self.clients[idx].txn_state(txn) {
                self.note_txn_state(now, idx, txn, st);
            }
        }
        dispatched
    }

    fn deliver(&mut self, env: Envelope) {
        let now = self.stage.net.now();
        if self.stage.is_down(env.dst) {
            // Same-instant defense in depth: the transport drops queued
            // copies for a down node at their delivery instant, but a crash
            // fired in this very settle round can race an already-polled
            // envelope. The sender's retry machinery is the recovery path.
            self.stage.faults.note_delivery_lost();
            return;
        }
        let from = self.stage.principal_of[env.src.0 as usize];
        let msg = match Message::from_wire_bytes(&env.payload) {
            Ok(m) => m,
            Err(_) => {
                // An undecodable payload belongs to whatever transaction
                // tagged it on the wire — usually none.
                self.obs.record(Event {
                    at: now,
                    txn: env.txn,
                    actor: self.stage.name(env.dst).to_string(),
                    kind: EventKind::Garbled { from: self.stage.name(env.src).to_string() },
                });
                return;
            }
        };
        let txn_id = msg.txn_id();
        if env.dst == self.stage.ttp_node {
            self.stage.ttp_touched.insert(txn_id);
        }
        // Prefer the sender's wire tag; adversary injections are untagged
        // but decode, so fall back to the protocol header's id.
        let txn = env.txn.or(Some(txn_id));
        let msg_kind = msg.kind().to_string();
        let verdict = if self.stage.faults.active() {
            let stage = &mut *self.stage;
            stage.faults.delivery_verdict(stage.net.node_name(env.dst).unwrap_or("?"), &msg_kind)
        } else {
            DeliveryVerdict::Proceed
        };
        if verdict == DeliveryVerdict::CrashBefore {
            // Crash on receipt: the message is lost before processing.
            self.crash_actor(env.dst, now);
            return;
        }
        let result = match self.actor_mut(env.dst) {
            Some(actor) => actor.on_message(from, &msg, now),
            None => return,
        };
        let (actor, sender) = (self.stage.name(env.dst), self.stage.name(env.src));
        match result {
            Ok(out) => {
                self.obs.record(Event {
                    at: now,
                    txn,
                    actor: actor.to_string(),
                    kind: EventKind::Delivered { from: sender.to_string(), msg: msg_kind },
                });
                if let Some(idx) = self.client_index(env.dst) {
                    if let Some(st) = self.clients[idx].txn_state(txn_id) {
                        self.note_txn_state(now, idx, txn_id, st);
                    }
                }
                // Write-ahead durable sync: a reply acknowledges state, so
                // the state hits the snapshot before the reply hits the
                // wire. Output-less (passive) steps defer to the interval.
                let force = !out.is_empty() || verdict == DeliveryVerdict::CrashAfter;
                self.sync_actor(env.dst, now, force);
                if verdict == DeliveryVerdict::CrashAfter {
                    // State persisted, replies die with the process.
                    self.crash_actor(env.dst, now);
                } else {
                    self.dispatch(env.dst, out);
                }
            }
            Err(error) => {
                self.obs.record(Event {
                    at: now,
                    txn,
                    actor: actor.to_string(),
                    kind: EventKind::Rejected { from: sender.to_string(), msg: msg_kind, error },
                });
                if verdict == DeliveryVerdict::CrashAfter {
                    self.crash_actor(env.dst, now);
                }
            }
        }
        // The message may have armed, moved, or cleared the recipient's
        // earliest deadline; keep the wheel authoritative. (Crash paths
        // already cancelled the entry; refresh on a down actor is a no-op
        // cancellation.)
        self.refresh_wheel(env.dst);
    }

    fn obs_mut(&mut self) -> Option<&mut Obs> {
        Some(self.obs)
    }

    fn fault_stats(&self) -> FaultStats {
        self.stage.fault_counters(self.clients)
    }
}

/// N clients sharing one provider and one TTP over a [`Transport`].
///
/// `T` defaults to the deterministic simulator; [`MultiWorld`] is the
/// `GenericMultiWorld<SimNet>` alias almost all code uses.
pub struct GenericMultiWorld<T: Transport = SimNet> {
    /// The wire, routing, faults, wheel and archive. The wire is reachable
    /// through [`GenericMultiWorld::net`] / [`GenericMultiWorld::net_mut`].
    stage: Stage<T>,
    /// The clients.
    pub clients: Vec<Client>,
    /// The shared provider.
    pub provider: Provider,
    /// The shared TTP.
    pub ttp: Ttp,
    /// The clients' simulator nodes (index-aligned with `clients`).
    pub client_nodes: Vec<NodeId>,
    /// The provider's simulator node.
    pub bob_node: NodeId,
    /// The TTP's simulator node.
    pub ttp_node: NodeId,
    /// The shared observability sink — same type and semantics as
    /// [`World`](crate::runner::World)'s: every delivery, rejection,
    /// garbled arrival, drop, duplication, timer fire and state transition
    /// in this world is visible here.
    pub obs: Obs,
    /// Safety valve against livelock; when hit, settle reports
    /// [`sched::SettleOutcome::StepCapExceeded`].
    pub max_steps: usize,
}

/// The classic deterministic multi-client world: [`GenericMultiWorld`]
/// over [`SimNet`].
pub type MultiWorld = GenericMultiWorld<SimNet>;

impl MultiWorld {
    /// Builds a world with `n_clients` clients (fresh deterministic keys).
    pub fn new(seed: u64, cfg: ProtocolConfig, n_clients: usize) -> Self {
        assert!(n_clients > 0);
        let bob = Principal::test("bob", seed.wrapping_mul(11).wrapping_add(1));
        let ttp_p = Principal::test("ttp", seed.wrapping_mul(11).wrapping_add(2));
        let client_principals: Vec<Principal> = (0..n_clients)
            .map(|i| Principal::test(&format!("client-{i}"), seed.wrapping_mul(11) + 10 + i as u64))
            .collect();
        Self::with_principals(seed, cfg, &client_principals, &bob, &ttp_p)
    }

    /// Builds a world from pre-generated principals. Key generation is the
    /// scale wall at E10 client counts, so sharded runners generate one
    /// fixed pool of keys and reuse it across lanes instead of paying a
    /// fresh RSA keypair per simulated client. Each client gets a minimal
    /// directory ({self, provider, TTP} — all it ever verifies); the
    /// provider and TTP hold the full population directory.
    pub fn with_principals(
        seed: u64,
        cfg: ProtocolConfig,
        client_principals: &[Principal],
        bob: &Principal,
        ttp_p: &Principal,
    ) -> Self {
        Self::with_principals_on(SimNet::new(seed), seed, cfg, client_principals, bob, ttp_p)
    }

    /// Sets one link config everywhere.
    pub fn set_all_links(&mut self, cfg: LinkConfig) {
        self.stage.net.set_default_link(cfg);
    }

    /// Overrides the bidirectional client ⇄ provider link for client
    /// `idx`. E10 gives every client a distinct deterministic latency
    /// through this, so settle-latency percentiles measure a real
    /// distribution instead of the constant default-link round trip.
    pub fn set_client_provider_link(&mut self, idx: usize, cfg: LinkConfig) {
        self.stage.net.set_link_bidi(self.client_nodes[idx], self.bob_node, cfg);
    }
}

impl<T: Transport> GenericMultiWorld<T> {
    /// Builds a world from pre-generated principals over an arbitrary
    /// [`Transport`] backend ([`MultiWorld::with_principals`] is the
    /// simulator shorthand). `seed` derives each actor's RNG exactly as on
    /// the simulator, so backends host byte-identical actor populations.
    pub fn with_principals_on(
        net: T,
        seed: u64,
        cfg: ProtocolConfig,
        client_principals: &[Principal],
        bob: &Principal,
        ttp_p: &Principal,
    ) -> Self {
        let mut dir = Directory::new();
        dir.register(bob);
        dir.register(ttp_p);
        for c in client_principals {
            dir.register(c);
        }
        let clients: Vec<Client> = client_principals
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let mut cdir = Directory::new();
                cdir.register(bob);
                cdir.register(ttp_p);
                cdir.register(p);
                Client::new(
                    p.clone(),
                    cfg.clone(),
                    cdir,
                    ttp_p.id(),
                    bob.id(),
                    ChaChaRng::seed_from_u64(seed ^ (0xc11e47 + i as u64)),
                )
            })
            .collect();
        let provider = Provider::new(
            bob.clone(),
            cfg.clone(),
            dir.clone(),
            ttp_p.id(),
            ChaChaRng::seed_from_u64(seed ^ 0xb0b),
        );
        let ttp = Ttp::new(ttp_p.clone(), cfg.clone(), dir, ChaChaRng::seed_from_u64(seed ^ 0x777));
        let actors = (clients.as_slice(), &provider, &ttp);
        let stage = Stage::new(net, &cfg.faults, client_principals, bob, ttp_p, actors);
        GenericMultiWorld {
            client_nodes: (0..clients.len() as u32).map(NodeId).collect(),
            bob_node: stage.bob_node,
            ttp_node: stage.ttp_node,
            stage,
            clients,
            provider,
            ttp,
            obs: Obs::new(),
            max_steps: 100_000,
        }
    }

    fn hub(&mut self) -> Hub<'_, T> {
        self.stage.hub(&mut self.clients, &mut self.provider, &mut self.ttp, &mut self.obs)
    }

    /// Borrows the transport backend (typed, so the backend's inherent
    /// API — link knobs, [`SimNet::stats`] — stays reachable).
    pub fn net(&self) -> &T {
        &self.stage.net
    }

    /// Mutably borrows the transport backend (links, interceptors,
    /// manual sends in attack and test harnesses).
    pub fn net_mut(&mut self) -> &mut T {
        &mut self.stage.net
    }

    /// Starts an upload from client `idx` without settling (so many
    /// transactions can be in flight together). Returns a typed handle; a
    /// failed initiation yields the sentinel handle (`txn_id` 0, never a
    /// real id) and a recorded rejection in [`Obs`], never a panic.
    pub fn start_upload(
        &mut self,
        idx: usize,
        key: &[u8],
        data: impl Into<Bytes>,
        strategy: TimeoutStrategy,
    ) -> TxnHandle {
        self.hub().start(idx, key, Some(data.into()), strategy)
    }

    /// Starts a download from client `idx` without settling. Initiation
    /// failures degrade exactly as in [`MultiWorld::start_upload`].
    pub fn start_download(
        &mut self,
        idx: usize,
        key: &[u8],
        strategy: TimeoutStrategy,
    ) -> TxnHandle {
        self.hub().start(idx, key, None, strategy)
    }

    /// Delivers traffic and drives timeouts on the shared scheduler
    /// ([`sched::settle`]) until every timer and delivery is drained or
    /// `max_steps` is hit — check `outcome` on the returned report.
    pub fn settle(&mut self) -> SettleReport {
        let max_steps = self.max_steps;
        self.hub().settle(max_steps)
    }

    /// Final state of a client's transaction (live or archived).
    pub fn state(&self, client: usize, txn: u64) -> Option<TxnState> {
        self.clients[client]
            .txn_state(txn)
            .or_else(|| self.stage.archive.get(txn).filter(|r| r.client == client).map(|r| r.state))
    }

    /// Final state of a handled transaction (live or archived).
    pub fn state_of(&self, h: TxnHandle) -> Option<TxnState> {
        self.clients.get(h.client)?;
        self.state(h.client, h.txn_id)
    }

    /// Typed result for a handled transaction: outcome, payload, both
    /// evidence pieces and the wire-level report — `None` for the sentinel
    /// handle or unknown ids. Mirrors [`World::run`](crate::runner::World)'s
    /// return shape.
    pub fn result(&self, h: TxnHandle) -> Option<TxnResult> {
        self.stage.result(&self.clients, h)
    }

    /// Archive behaviour counters (evictions, re-hydrations, resident
    /// settled txns, sealed log bytes).
    pub fn archive_stats(&self) -> ArchiveStats {
        self.stage.archive.stats()
    }

    /// Live per-transaction bookkeeping entries (the bounded-memory
    /// regression hook: settled txns leave this map when evicted).
    pub fn resident_txns(&self) -> usize {
        self.stage.txn_meta.len()
    }

    /// Re-hydrates an evicted transaction's archived evidence bundle.
    pub fn rehydrate_evidence(&self, txn: u64) -> Option<EvidenceBundle> {
        self.stage.archive.load_bundle(txn)
    }

    /// Sets the archive's per-shard hot capacity (tests lower it to force
    /// eviction; experiments tune resident memory).
    pub fn set_archive_capacity(&mut self, hot_capacity: usize) {
        self.stage.archive.set_hot_capacity(hot_capacity);
    }

    /// Cumulative fault counters: the injector's own plus every client's
    /// retry machinery (which lives outside snapshots so it never resets).
    pub fn fault_counters(&self) -> FaultStats {
        self.stage.fault_counters(&self.clients)
    }

    /// Exact per-transaction report from the transport's tagged traffic
    /// counters; `None` for unknown transaction ids. Latency runs from
    /// initiation to the transaction's own last delivery (other sessions
    /// may keep the shared clock running long after this one settled).
    pub fn report(&self, txn: u64) -> Option<TxnReport> {
        self.stage.report(&self.clients, txn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::SettleOutcome;
    use tpnr_net::time::SimDuration;

    #[test]
    fn ten_clients_interleaved_uploads_all_complete() {
        let mut w = MultiWorld::new(1, ProtocolConfig::full(), 10);
        let txns: Vec<TxnHandle> = (0..10)
            .map(|i| {
                let key = format!("user{i}/data").into_bytes();
                w.start_upload(i, &key, vec![i as u8; 200], TimeoutStrategy::AbortFirst)
            })
            .collect();
        let s = w.settle();
        assert_eq!(s.outcome, SettleOutcome::Quiescent);
        for h in txns {
            assert!(h.is_real());
            assert_eq!(w.state_of(h), Some(TxnState::Completed), "client {}", h.client);
            assert!(w.result(h).unwrap().completed());
        }
        assert_eq!(w.provider.txn_count(), 10);
    }

    #[test]
    fn per_client_links_spread_settle_latency() {
        // Distinct client ⇄ provider latencies must surface as a spread in
        // the settle-latency histogram (the E10 percentile exhibit relies
        // on this; with one shared link p50 == p99 degenerately).
        let mut w = MultiWorld::new(5, ProtocolConfig::full(), 4);
        for i in 0..4 {
            let one_way = SimDuration::from_micros(5_000 + i as u64 * 10_000);
            w.set_client_provider_link(i, LinkConfig::ideal(one_way));
        }
        for i in 0..4 {
            let key = format!("k{i}").into_bytes();
            w.start_upload(i, &key, vec![1; 16], TimeoutStrategy::ResolveImmediately);
        }
        let s = w.settle();
        assert_eq!(s.outcome, SettleOutcome::Quiescent);
        let h = &w.obs.metrics.latency_us;
        assert_eq!(h.count(), 4);
        assert!(h.min().unwrap() < h.max().unwrap(), "distinct links, distinct latencies");
        let (p50, p99) = (h.quantile(0.5).unwrap(), h.quantile(0.99).unwrap());
        assert!(p50 < p99, "percentiles must separate: p50={p50} p99={p99}");
    }

    #[test]
    fn per_txn_accounting_sums_to_global_counters() {
        // Every message is tagged with its transaction at dispatch, so the
        // per-transaction counters must partition the global ones exactly —
        // even with loss, duplication and ten interleaved sessions.
        let mut w = MultiWorld::new(6, ProtocolConfig::full(), 10);
        w.set_all_links(LinkConfig {
            latency: SimDuration::from_millis(10),
            drop_prob: 0.2,
            dup_prob: 0.2,
            ..Default::default()
        });
        let txns: Vec<u64> = (0..10)
            .map(|i| {
                let key = format!("k{i}").into_bytes();
                w.start_upload(i, &key, vec![3u8; 64], TimeoutStrategy::ResolveImmediately).txn_id
            })
            .collect();
        let s = w.settle();
        assert_eq!(s.outcome, SettleOutcome::Quiescent);
        assert_eq!(w.stage.net.tagged_txns().len(), txns.len());
        let (mut sent, mut bytes, mut delivered, mut dropped) = (0, 0, 0, 0);
        for &txn in &txns {
            let t = w.stage.net.txn_stats(txn);
            sent += t.sent;
            bytes += t.bytes_sent;
            delivered += t.delivered;
            dropped += t.dropped;
        }
        assert_eq!(sent, w.stage.net.stats.sent);
        assert_eq!(bytes, w.stage.net.stats.bytes_sent);
        assert_eq!(dropped, w.stage.net.stats.dropped);
        // Deliveries include duplicate copies on both sides of the ledger.
        assert_eq!(delivered, w.stage.net.stats.delivered);
        assert_eq!(
            delivered,
            txns.iter().map(|&t| w.report(t).unwrap().messages).sum::<u64>(),
            "reports expose the same exact per-txn deliveries"
        );
    }

    #[test]
    fn fifty_clients_under_loss_and_duplication_settle_exactly() {
        // Acceptance scenario: 50 interleaved clients on a 30%-lossy,
        // duplicating network end all-terminal with exact accounting and
        // true quiescence (no silent step-cap exits).
        let mut w = MultiWorld::new(7, ProtocolConfig::full(), 50);
        w.set_all_links(LinkConfig {
            latency: SimDuration::from_millis(15),
            drop_prob: 0.3,
            dup_prob: 0.15,
            ..Default::default()
        });
        let txns: Vec<TxnHandle> = (0..50)
            .map(|i| {
                let key = format!("user{i}/obj").into_bytes();
                w.start_upload(i, &key, vec![i as u8; 48], TimeoutStrategy::ResolveImmediately)
            })
            .collect();
        let s = w.settle();
        assert_eq!(s.outcome, SettleOutcome::Quiescent);
        let mut delivered_sum = 0;
        for &h in &txns {
            let st = w.state_of(h).unwrap();
            assert!(st.is_terminal(), "client {} stuck in {st:?}", h.client);
            let r = w.report(h.txn_id).unwrap();
            assert!(r.messages >= 2, "client {} settled in {} messages", h.client, r.messages);
            delivered_sum += r.messages;
        }
        assert_eq!(delivered_sum, w.stage.net.stats.delivered, "exact partition of deliveries");
    }

    #[test]
    fn clients_cannot_read_each_others_evidence_but_share_namespace() {
        let mut w = MultiWorld::new(2, ProtocolConfig::full(), 2);
        let t0 = w.start_upload(
            0,
            b"shared-key",
            b"from client 0".to_vec(),
            TimeoutStrategy::AbortFirst,
        );
        w.settle();
        let t1 = w.start_download(1, b"shared-key", TimeoutStrategy::AbortFirst);
        w.settle();
        // Client 1 can fetch the object (this model has a flat namespace,
        // like a shared bucket)…
        assert_eq!(w.state_of(t1), Some(TxnState::Completed));
        assert_eq!(w.result(t1).unwrap().data.unwrap(), b"from client 0");
        // …but holds only its own transactions' evidence.
        assert!(w.clients[1].txn(t0.txn_id).is_none());
        assert!(w.clients[0].txn(t1.txn_id).is_none());
    }

    #[test]
    fn interleaved_same_key_uploads_serialize_by_arrival() {
        let mut w = MultiWorld::new(3, ProtocolConfig::full(), 3);
        for i in 0..3 {
            w.start_upload(i, b"contested", vec![i as u8 + 1; 16], TimeoutStrategy::AbortFirst);
        }
        w.settle();
        // All three transactions completed — each holds a receipt for what
        // *it* uploaded (so each can later prove what it sent), and storage
        // holds the last arrival.
        let stored = w.provider.peek_storage(b"contested").unwrap();
        assert!(stored == [1u8; 16] || stored == [2u8; 16] || stored == [3u8; 16]);
        assert_eq!(w.provider.txn_count(), 3);
    }

    #[test]
    fn mixed_fault_population_terminates() {
        let mut w = MultiWorld::new(4, ProtocolConfig::full(), 5);
        // A lossy world for everyone.
        w.set_all_links(LinkConfig::lossy(SimDuration::from_millis(15), 0.2));
        let txns: Vec<TxnHandle> = (0..5)
            .map(|i| {
                let key = format!("k{i}").into_bytes();
                w.start_upload(i, &key, vec![7u8; 64], TimeoutStrategy::ResolveImmediately)
            })
            .collect();
        let s = w.settle();
        assert_eq!(s.outcome, SettleOutcome::Quiescent);
        for h in txns {
            let st = w.state_of(h).unwrap();
            assert!(st.is_terminal(), "client {} stuck in {st:?}", h.client);
        }
    }

    #[test]
    fn ttp_load_scales_with_faulted_clients_only() {
        let mut w = MultiWorld::new(5, ProtocolConfig::full(), 4);
        // Only client 0's return path is broken.
        let c0 = w.client_nodes[0];
        let bob = w.bob_node;
        w.stage.net.set_link(bob, c0, LinkConfig { drop_prob: 1.0, ..Default::default() });
        let mut txns = Vec::new();
        for i in 0..4 {
            let key = format!("k{i}").into_bytes();
            txns.push(w.start_upload(i, &key, vec![1u8; 32], TimeoutStrategy::ResolveImmediately));
        }
        w.settle();
        for h in txns {
            assert_eq!(w.state_of(h), Some(TxnState::Completed), "client {}", h.client);
        }
        // Exactly one client needed the TTP.
        assert_eq!(w.ttp.stats.resolves_received, 1);
    }

    #[test]
    fn per_txn_events_partition_global_counters_under_loss_and_duplication() {
        // Acceptance: 50 interleaved clients, 30% loss, duplication. The
        // observability tallies must partition the global counters exactly
        // and agree with the simulator's own per-txn ledger — no event
        // invisible, none double-counted.
        let mut w = MultiWorld::new(7, ProtocolConfig::full(), 50);
        w.set_all_links(LinkConfig {
            latency: SimDuration::from_millis(15),
            drop_prob: 0.3,
            dup_prob: 0.15,
            ..Default::default()
        });
        let txns: Vec<u64> = (0..50)
            .map(|i| {
                let key = format!("user{i}/obj").into_bytes();
                w.start_upload(i, &key, vec![i as u8; 48], TimeoutStrategy::ResolveImmediately)
                    .txn_id
            })
            .collect();
        let s = w.settle();
        assert_eq!(s.outcome, SettleOutcome::Quiescent);

        let m = w.obs.metrics.clone();
        // All traffic here is tagged and decodable, so accepted + rejected
        // events account for every delivery, and the drop/duplication
        // ledgers agree with the simulator.
        assert_eq!(m.delivered + m.rejected, w.stage.net.stats.delivered);
        assert_eq!(m.garbled, 0);
        assert_eq!(m.dropped, w.stage.net.stats.dropped);
        assert_eq!(m.duplicated, w.stage.net.stats.duplicated);
        assert!(m.rejected > 0, "duplicate copies must surface as rejections");
        assert_eq!(m.rejected_by.values().sum::<u64>(), m.rejected);
        assert!(m.rejected_by.contains_key("stale-sequence"), "{:?}", m.rejected_by);

        let (mut acc, mut rej, mut drp, mut dup) = (0, 0, 0, 0);
        for &txn in &txns {
            let o = w.obs.txn(txn);
            let t = w.stage.net.txn_stats(txn);
            assert_eq!(o.inbox_total(), t.delivered, "txn {txn}");
            assert_eq!(o.dropped, t.dropped, "txn {txn}");
            assert_eq!(o.duplicated, t.duplicated, "txn {txn}");
            acc += o.accepted;
            rej += o.rejected;
            drp += o.dropped;
            dup += o.duplicated;
        }
        assert_eq!(acc, m.delivered, "per-txn accepted partitions global deliveries");
        assert_eq!(rej, m.rejected);
        assert_eq!(drp, m.dropped);
        assert_eq!(dup, m.duplicated);
        let mut expected = txns.clone();
        expected.sort_unstable();
        assert_eq!(w.obs.txns(), expected, "no events attributed outside the real txns");
        // Every settled transaction also has a latency sample.
        assert_eq!(m.latency_us.count(), 50);
    }

    #[test]
    fn garbled_and_rejected_arrivals_are_recorded_not_discarded() {
        // Regression: `MultiWorld::deliver` used to `return` on undecodable
        // payloads and `unwrap_or_default()` validation errors away.
        use std::sync::{Arc, Mutex};
        use tpnr_net::sim::Action;

        let mut w = MultiWorld::new(8, ProtocolConfig::full(), 2);
        let (c0, bob) = (w.client_nodes[0], w.bob_node);
        // Wiretap client 0's traffic so we can replay a real capture.
        let tape: Arc<Mutex<Vec<Vec<u8>>>> = Arc::default();
        let tap = tape.clone();
        w.stage.net.set_interceptor(Box::new(move |src, dst, payload: &[u8], _t| {
            if src == c0 && dst == bob {
                tap.lock().unwrap().push(payload.to_vec());
            }
            Action::Deliver
        }));
        let t0 = w.start_upload(0, b"k", b"data".to_vec(), TimeoutStrategy::AbortFirst);
        w.settle();
        assert_eq!(w.state_of(t0), Some(TxnState::Completed));
        w.stage.net.clear_interceptor();

        // Undecodable flood towards the provider: visible, unattributed.
        for _ in 0..3 {
            w.stage.net.send(w.client_nodes[1], bob, b"garbage".to_vec());
        }
        w.settle();
        assert_eq!(w.obs.metrics.garbled, 3);
        let garbled: Vec<_> =
            w.obs.events().iter().filter(|e| matches!(e.kind, EventKind::Garbled { .. })).collect();
        assert_eq!(garbled.len(), 3);
        assert!(garbled.iter().all(|e| e.txn.is_none() && e.actor == "bob"));

        // A replayed capture decodes but fails validation: recorded with
        // its variant and attributed to the session it replays into, even
        // though the replay itself is untagged on the wire.
        let replay = tape.lock().unwrap()[0].clone();
        w.stage.net.send(c0, bob, replay);
        w.settle();
        assert_eq!(w.obs.metrics.rejected, 1);
        assert_eq!(w.obs.metrics.rejected_by.get("stale-sequence"), Some(&1));
        let rej =
            w.obs.events().iter().find(|e| matches!(e.kind, EventKind::Rejected { .. })).unwrap();
        assert_eq!(rej.txn, Some(t0.txn_id));
        assert_eq!(rej.msg_kind(), Some("Transfer"));
        assert_eq!(w.provider.actor_stats.rejected, 1);
    }

    #[test]
    fn world_and_multiworld_report_identical_latency_semantics() {
        // Acceptance: both runners measure txn-scoped latency (initiation →
        // the transaction's own last delivery), so the same clean upload on
        // the same links reports the same number in either runner.
        let mut sw = crate::runner::World::new(21, ProtocolConfig::full());
        let rw = sw.upload(b"k", b"data".to_vec(), TimeoutStrategy::AbortFirst);

        let mut mw = MultiWorld::new(21, ProtocolConfig::full(), 1);
        let txn = mw.start_upload(0, b"k", b"data".to_vec(), TimeoutStrategy::AbortFirst);
        mw.settle();
        let rm = mw.report(txn.txn_id).unwrap();

        assert_eq!(rw.report.latency.micros(), 50_000, "one RTT on the default 25 ms links");
        assert_eq!(rm.latency.micros(), rw.report.latency.micros());
        assert_eq!(rm.messages, rw.report.messages);
    }

    #[test]
    fn settled_txns_are_evicted_memory_stays_bounded_and_evidence_survives() {
        // Regression (latent scale bug): `txn_meta`, the per-client txn
        // records, the validator replay windows and the obs/net per-txn
        // tallies all grew without bound per settled transaction. With a
        // small archive capacity, N settled txns must leave only a bounded
        // resident set — and every evicted txn must stay fully answerable
        // (report/state/result) with its evidence re-hydratable.
        let mut w = MultiWorld::new(9, ProtocolConfig::full(), 4);
        w.set_archive_capacity(1); // 16 shards × 1 = at most 16 resident settled
        let mut handles = Vec::new();
        for round in 0..10 {
            for i in 0..4 {
                let key = format!("c{i}/r{round}").into_bytes();
                handles.push(w.start_upload(
                    i,
                    &key,
                    vec![round as u8; 32],
                    TimeoutStrategy::AbortFirst,
                ));
            }
            let s = w.settle();
            assert_eq!(s.outcome, crate::sched::SettleOutcome::Quiescent);
        }
        let stats = w.archive_stats();
        assert!(stats.evicted > 0, "eviction must have engaged: {stats:?}");
        assert!(stats.log_bytes > 0);
        // Bounded memory: resident bookkeeping ≤ hot capacity across all
        // shards (16) plus the in-flight slack of the final round.
        assert_eq!(w.resident_txns() as u64 + stats.evicted, 40);
        assert!(
            w.resident_txns() <= 16 + 4,
            "resident txn_meta must stay bounded, got {}",
            w.resident_txns()
        );
        // Validator replay windows for evicted txns are gone; tombstones
        // remain so late replays are refused, not re-windowed.
        assert!(w.clients.iter().map(|c| c.archived_txn_count()).sum::<usize>() > 0);
        // Every txn — live or archived — still answers queries, and the
        // evicted ones re-hydrate their full evidence from the sealed log.
        let mut rehydrated = 0;
        for &h in &handles {
            assert_eq!(w.state_of(h), Some(TxnState::Completed), "client {}", h.client);
            let r = w.report(h.txn_id).unwrap();
            assert!(r.messages >= 2);
            let res = w.result(h).unwrap();
            assert!(res.nro.is_some(), "NRO must survive eviction");
            assert!(res.nrr.is_some(), "NRR must survive eviction");
            if w.clients[h.client].txn(h.txn_id).is_none() {
                let bundle = w.rehydrate_evidence(h.txn_id).expect("archived bundle loads");
                assert!(bundle.structurally_sound());
                assert!(bundle.get("client-nro").is_some());
                assert!(bundle.get("client-nrr").is_some());
                assert!(bundle.get("provider-nro").is_some());
                assert!(bundle.get("provider-nrr").is_some());
                rehydrated += 1;
            }
        }
        assert_eq!(rehydrated as u64, stats.evicted);
        assert!(w.archive_stats().rehydrated >= stats.evicted);
    }

    #[test]
    fn crash_between_timer_arm_and_fire_cancels_the_stale_wheel_entry() {
        // Regression (satellite audit): a crashed actor's armed deadline
        // must die with it — the wheel entry is cancelled at crash time and
        // re-registered only from the restored snapshot, so a stale timer
        // can never fire while the actor is down.
        let mut cfg = ProtocolConfig::full();
        // Non-inert plan (so the injector runs) that never crashes a real
        // actor on its own — the crash below is injected by hand.
        cfg.faults = cfg.faults.clone().with_chaos(&["absent-actor"], 1, 1);
        let mut w = MultiWorld::new(10, ProtocolConfig::full(), 2);
        w.stage.faults = FaultCtl::new(&cfg.faults);
        w.stage.snaps = None; // re-arm snapshots below, post-initiation
                              // Break bob → client-0 so client 0's response timer must fire.
        let (c0, bob) = (w.client_nodes[0], w.bob_node);
        w.stage.net.set_link(bob, c0, LinkConfig { drop_prob: 1.0, ..Default::default() });
        let h0 = w.start_upload(0, b"k0", b"data".to_vec(), TimeoutStrategy::ResolveImmediately);
        let h1 = w.start_upload(1, b"k1", b"data".to_vec(), TimeoutStrategy::AbortFirst);
        // Recovery points carry the armed transactions.
        w.stage.snaps = Some(Snapshots::take(&w.clients, &w.provider, &w.ttp));
        // Crash client 0 *between* timer-arm and fire.
        let now = w.stage.net.now();
        w.hub().crash_actor(c0, now);
        let s = w.settle();
        assert_eq!(s.outcome, SettleOutcome::Quiescent);
        // No timer fired for client-0 while it was down: every TimerFired
        // for it must come at/after the restart instant.
        let events = w.obs.events();
        let restarted_at = events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Restarted { .. }) && e.actor == "client-0")
            .map(|e| e.at)
            .expect("client-0 restarts");
        for e in events.iter() {
            if e.actor == "client-0" && matches!(e.kind, EventKind::TimerFired { .. }) {
                assert!(
                    e.at >= restarted_at,
                    "stale timer fired at {:?} while client-0 was down (restart {:?})",
                    e.at,
                    restarted_at
                );
            }
        }
        // Both transactions still settle: the restored client re-arms from
        // its snapshot and drives its session to a terminal state.
        assert!(w.state_of(h0).unwrap().is_terminal());
        assert_eq!(w.state_of(h1), Some(TxnState::Completed));
    }
}
