//! Span recording from outside the program.
//!
//! [`Traced`] wraps any backend in a span-recording implementation of the
//! public [`Transport`] trait, and [`SpanLog`] holds the spans the benchmark
//! records around its own calls into the runners, the archive and the
//! arbiter. Spans stay in memory and are written out once, at the end.

use crate::stats::{json_str, now_us};
use std::sync::atomic::{AtomicU64, Ordering};
use tpnr_net::sim::{Envelope, Interceptor, NetEvent, NetStats, NodeId, TxnNetStats};
use tpnr_net::time::SimTime;
use tpnr_net::transport::Transport;
use tpnr_net::Bytes;

static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// One timed interval at a layer boundary. `parent` 0 means a root span;
/// `txn` 0 means no single transaction owns it.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub txn: u64,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Spans recorded by one thread of the benchmark.
#[derive(Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// Allocates a span id before the work starts, so children can name it.
    pub fn open() -> (u64, f64) {
        (NEXT_SPAN.fetch_add(1, Ordering::Relaxed), now_us())
    }

    pub fn close(&mut self, (id, start_us): (u64, f64), name: &'static str, txn: u64) -> f64 {
        let end_us = now_us();
        self.spans.push(Span { id, parent: 0, name, txn, start_us, end_us });
        end_us - start_us
    }

    /// Total duration of the spans called `name`, and how many there are.
    pub fn total(&self, name: &str) -> (f64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, n), s| (t + s.dur(), n + 1))
    }

    pub fn append(&mut self, other: &mut SpanLog) {
        self.spans.append(&mut other.spans);
    }

    /// One JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":{},\"txn\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}\n",
                s.id,
                s.parent,
                json_str(s.name),
                s.txn,
                s.start_us,
                s.end_us
            ));
        }
        out
    }
}

/// Transport calls that block for the wire rather than work on it.
pub const WAIT_SPANS: [&str; 2] = ["transport.advance_clock", "transport.wait_for_activity"];
/// Transport calls that do the backend's own work.
pub const SELF_SPANS: [&str; 4] =
    ["transport.send", "transport.poll", "transport.next_due", "transport.take_events"];

/// A backend wrapped in span recording. Every substantive trait call is a
/// span whose parent is the benchmark span open around the runner call;
/// every sent wire message is kept (a shared handle, no copy) until the
/// benchmark drains it after the call.
pub struct Traced<T: Transport> {
    pub inner: T,
    pub log: SpanLog,
    /// Messages sent since the last drain: `(txn tag, wire bytes)`.
    pub sent: Vec<(Option<u64>, Bytes)>,
    parent: u64,
}

impl<T: Transport> Traced<T> {
    pub fn new(inner: T) -> Self {
        Traced { inner, log: SpanLog::default(), sent: Vec::new(), parent: 0 }
    }

    /// Names the benchmark span that later transport spans belong to.
    pub fn set_parent(&mut self, id: u64) {
        self.parent = id;
    }

    fn span<R>(&mut self, name: &'static str, txn: u64, f: impl FnOnce(&mut T) -> R) -> R {
        let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        let start_us = now_us();
        let r = f(&mut self.inner);
        let end_us = now_us();
        self.log.spans.push(Span { id, parent: self.parent, name, txn, start_us, end_us });
        r
    }
}

impl<T: Transport> Transport for Traced<T> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn advance_clock_to(&mut self, t: SimTime) {
        self.span("transport.advance_clock", 0, |n| n.advance_clock_to(t))
    }

    fn register(&mut self, name: &str) -> NodeId {
        self.inner.register(name)
    }

    fn node_name(&self, node: NodeId) -> Option<&str> {
        self.inner.node_name(node)
    }

    fn send_tagged(&mut self, src: NodeId, dst: NodeId, payload: Bytes, txn: Option<u64>) {
        self.sent.push((txn, payload.clone()));
        self.span("transport.send", txn.unwrap_or(0), |n| n.send_tagged(src, dst, payload, txn))
    }

    fn poll_deliverable(&mut self, now: SimTime) -> Vec<Envelope> {
        let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        let start_us = now_us();
        let out = self.inner.poll_deliverable(now);
        let end_us = now_us();
        let txn = out.first().and_then(|e| e.txn).unwrap_or(0);
        let parent = self.parent;
        self.log.spans.push(Span { id, parent, name: "transport.poll", txn, start_us, end_us });
        out
    }

    fn next_deliverable_at(&mut self) -> Option<SimTime> {
        self.span("transport.next_due", 0, |n| n.next_deliverable_at())
    }

    fn in_flight(&self) -> bool {
        self.inner.in_flight()
    }

    fn take_events(&mut self) -> Vec<NetEvent> {
        self.span("transport.take_events", 0, |n| n.take_events())
    }

    fn stats(&self) -> NetStats {
        self.inner.stats()
    }

    fn txn_stats(&self, txn: u64) -> TxnNetStats {
        self.inner.txn_stats(txn)
    }

    fn tagged_txns(&self) -> Vec<u64> {
        self.inner.tagged_txns()
    }

    fn retire_txn(&mut self, txn: u64) -> TxnNetStats {
        self.inner.retire_txn(txn)
    }

    fn set_interceptor(&mut self, i: Box<dyn Interceptor>) {
        self.inner.set_interceptor(i)
    }

    fn clear_interceptor(&mut self) {
        self.inner.clear_interceptor()
    }

    fn set_node_down(&mut self, node: NodeId, down: bool) {
        self.inner.set_node_down(node, down)
    }

    fn wait_for_activity(&mut self, until: Option<SimTime>) -> bool {
        self.span("transport.wait_for_activity", 0, |n| n.wait_for_activity(until))
    }

    fn events_lost(&self) -> u64 {
        self.inner.events_lost()
    }
}
