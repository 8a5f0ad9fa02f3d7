//! Plain-text table rendering for the `experiments` binary, plus the JSONL
//! export of the observability stream (`experiments --trace-jsonl`).

use crate::experiments::*;
use tpnr_core::obs::{Event, EventKind, Histogram, Metrics};

fn human_size(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{} MiB", bytes >> 20)
    } else if bytes >= 1 << 10 {
        format!("{} KiB", bytes >> 10)
    } else {
        format!("{bytes} B")
    }
}

fn yn(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

/// Renders E1 as a table.
pub fn render_e1(rows: &[E1Row]) -> String {
    let mut out = String::from(
        "E1 / Figure 5 — in-storage tamper: detection & attribution\n\
         system   tamper               detected  attributable\n\
         -------  -------------------  --------  ------------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:<20} {:<9} {}\n",
            r.system,
            r.tamper,
            yn(r.detected),
            yn(r.attributable)
        ));
    }
    out
}

/// Renders E2 as a table.
pub fn render_e2(rows: &[E2Row]) -> String {
    let mut out = String::from(
        "E2 / Figure 6 — TPNR vs traditional NR (messages / latency / TTP)\n\
         protocol        rtt(ms)  size      msgs  latency(ms)  ttp\n\
         --------------  -------  --------  ----  -----------  ---\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<15} {:>7}  {:<9} {:>4}  {:>11.1}  {}\n",
            r.protocol,
            r.rtt_ms,
            human_size(r.size),
            r.messages,
            r.latency_ms,
            yn(r.ttp_used)
        ));
    }
    out
}

/// Renders E3 as a table.
pub fn render_e3(rows: &[tpnr_attacks::AttackOutcome]) -> String {
    let mut out = String::from(
        "E3 / §5 — attack matrix (attack × protocol variant)\n\
         attack              variant             blocked  note\n\
         ------------------  ------------------  -------  ----\n",
    );
    for r in rows {
        let note: String = r.detail.chars().take(60).collect();
        out.push_str(&format!(
            "{:<19} {:<19} {:<8} {}\n",
            r.attack.label(),
            r.ablation.label(),
            yn(r.blocked),
            note
        ));
    }
    out
}

/// Renders E4 as a table.
pub fn render_e4(rows: &[E4Row]) -> String {
    let mut out = String::from(
        "E4 — evidence generation/verification cost (memoized commit path)\n\
         size      hash      generate(us)  verify(us)  memo h/m  deep copies\n\
         --------  --------  ------------  ----------  --------  -----------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<9} {:<9} {:>12.0}  {:>10.0}  {:>4}/{:<3}  {:>11}\n",
            human_size(r.size),
            r.alg.name(),
            r.generate_us,
            r.verify_us,
            r.cache_hits,
            r.cache_misses,
            r.deep_copies,
        ));
    }
    out
}

/// Renders E5 as a table.
pub fn render_e5(rows: &[E5Row]) -> String {
    let mut out = String::from(
        "E5 / §6 — protocol time vs device shipping time\n\
         transit(h)  protocol(ms)  overhead fraction\n\
         ----------  ------------  -----------------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>10}  {:>12.1}  {:>17.8}\n",
            r.transit_hours, r.protocol_ms, r.overhead_fraction
        ));
    }
    out
}

/// Renders E6 as a table.
pub fn render_e6(rows: &[E6Row]) -> String {
    let mut out = String::from(
        "E6 / §4.4 — TTP involvement vs fault rate\n\
         fault rate  TPNR ttp%  TPNR completed%  traditional ttp%\n\
         ----------  ---------  ---------------  ----------------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>10.2}  {:>9.2}  {:>15.2}  {:>16.2}\n",
            r.fault_rate,
            r.tpnr_ttp_fraction * 100.0,
            r.tpnr_completed_fraction * 100.0,
            r.baseline_ttp_fraction * 100.0
        ));
    }
    out
}

/// Renders E7 as a table.
pub fn render_e7(rows: &[E7Row]) -> String {
    let mut out = String::from(
        "E7 / §3 — bridging schemes\n\
         scheme             msgs  user/provider/TAC bytes  coop-proof  solo-proof  attributable\n\
         -----------------  ----  -----------------------  ----------  ----------  ------------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:>4}  {:>6}/{:>6}/{:>6}      {:<11} {:<11} {}\n",
            r.scheme.label(),
            r.messages,
            r.records.0,
            r.records.1,
            r.records.2,
            yn(r.proves_with_cooperation),
            yn(r.proves_alone),
            yn(r.attributable)
        ));
    }
    out
}

/// Renders E8 as a table.
pub fn render_e8(rows: &[E8Row]) -> String {
    let mut out = String::from(
        "E8 / §4.11 — crash-recovery chaos sweep\n\
         crash p   trials  full-evid  arbitrable  limbo  crashes  restarts  retries  gave-up\n\
         --------  ------  ---------  ----------  -----  -------  --------  -------  -------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>8.2}  {:>6}  {:>9}  {:>10}  {:>5}  {:>7}  {:>8}  {:>7}  {:>7}\n",
            r.crash_prob_permille as f64 / 1000.0,
            r.trials,
            r.completed_full_evidence,
            r.arbitrable_terminal,
            r.limbo,
            r.crashes,
            r.restarts,
            r.retries,
            r.gave_up,
        ));
    }
    out
}

/// Renders E10 as a table.
pub fn render_e10(rows: &[E10Row]) -> String {
    let mut out = String::from(
        "E10 / §4.12 — timer-wheel + sharded-state scale sweep\n\
         clients  lanes  wrk  txn/s    p50 us  p99 us  B/client  evicted  resident  cons-viol  evid-loss\n\
         -------  -----  ---  -------  ------  ------  --------  -------  --------  ---------  ---------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>7}  {:>5}  {:>3}  {:>7}  {:>6}  {:>6}  {:>8}  {:>7}  {:>8}  {:>9}  {:>9}\n",
            r.clients,
            r.lanes,
            r.workers,
            r.txn_per_sec,
            r.p50_us,
            r.p99_us,
            r.bytes_per_client,
            r.evicted,
            r.resident,
            r.conservation_violations,
            r.evidence_loss,
        ));
    }
    out
}

/// Renders E13 as a table.
pub fn render_e13(rows: &[E13Row]) -> String {
    let mut out = String::from(
        "E13 / work-stealing settle: worker sweep at fixed load\n\
         workers  cores  txn/s    speedup  effic  steals  tasks  p50 us  p99 us  det  ok\n\
         -------  -----  -------  -------  -----  ------  -----  ------  ------  ---  --\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>7}  {:>5}  {:>7}  {:>4}.{:02}x  {:>2}.{:02}  {:>6}  {:>5}  {:>6}  {:>6}  {:>3}  {}\n",
            r.workers,
            r.available_parallelism,
            r.txn_per_sec,
            r.speedup_x100 / 100,
            r.speedup_x100 % 100,
            r.efficiency_x100 / 100,
            r.efficiency_x100 % 100,
            r.steals,
            r.tasks,
            r.p50_us,
            r.p99_us,
            if r.deterministic_vs_serial { "yes" } else { "NO" },
            if r.scaling_ok { "ok" } else { "FAIL" },
        ));
    }
    out
}

/// Renders E14 as a table.
pub fn render_e14(rows: &[E14Row]) -> String {
    let mut out = String::from(
        "E14 / transport comparison: same protocol code on every backend\n\
         backend  txns  completed  elapsed ms  msg/s    txn/s   txn/s/core  attacks  loss  ok\n\
         -------  ----  ---------  ----------  -------  ------  ----------  -------  ----  --\n",
    );
    for r in rows {
        if r.skipped {
            out.push_str(&format!(
                "{:<7}  (skipped: backend unavailable on this host)\n",
                r.backend
            ));
            continue;
        }
        out.push_str(&format!(
            "{:<7}  {:>4}  {:>9}  {:>10}  {:>7}  {:>6}  {:>10}  {:>4}/{}  {:>4}  {}\n",
            r.backend,
            r.txns,
            r.completed,
            r.elapsed_ms,
            r.msgs_per_sec,
            r.txn_per_sec,
            r.txn_per_sec_per_core,
            r.attacks_rejected,
            r.attacks_expected,
            r.evidence_loss,
            if r.attacks_ok && r.conservation_violations == 0 && r.evidence_loss == 0 {
                "ok"
            } else {
                "FAIL"
            },
        ));
    }
    out
}

/// Renders E12 as tables (kernel sweep + batch amortization).
pub fn render_e12(rows: &[E12Row], batches: &[E12Batch]) -> String {
    let mut out = String::from(
        "E12 / §4.13 — fixed-limb RSA kernels: sign/verify by key size × alg\n\
         bits  alg     sign-classic us  sign-fast us  speedup  verify-c us  verify-f us  allocs c→f\n\
         ----  ------  ---------------  ------------  -------  -----------  -----------  ----------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>4}  {:<6}  {:>15}  {:>12}  {:>6}.{:02}x  {:>11}  {:>11}  {:>4}→{}\n",
            r.bits,
            r.alg,
            r.sign_classic_us,
            r.sign_fast_us,
            r.sign_speedup_x100 / 100,
            r.sign_speedup_x100 % 100,
            r.verify_classic_us,
            r.verify_fast_us,
            r.allocs_per_sign_classic,
            r.allocs_per_sign_fast,
        ));
    }
    out.push_str(
        "\nbatch verification, n pairs under one key\n\
         bits   n  serial us  batch us  amortization  attributed\n\
         ----  --  ---------  --------  ------------  ----------\n",
    );
    for b in batches {
        out.push_str(&format!(
            "{:>4}  {:>2}  {:>9}  {:>8}  {:>10}.{:02}x  {:>10}\n",
            b.bits,
            b.n,
            b.serial_us,
            b.batch_us,
            b.amortization_x100 / 100,
            b.amortization_x100 % 100,
            if b.tampered_attributed { "yes" } else { "NO" },
        ));
    }
    out
}

// ------------------------------------------------------------- JSONL ----

/// Escapes `s` for inclusion inside a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |n| n.to_string())
}

/// Renders one observability event as a single JSON object (no newline).
pub fn event_json(ev: &Event) -> String {
    let mut fields = vec![
        format!("\"at_us\":{}", ev.at.micros()),
        format!("\"txn\":{}", json_opt_u64(ev.txn)),
        format!("\"actor\":\"{}\"", json_escape(&ev.actor)),
        format!("\"kind\":\"{}\"", ev.kind.label()),
    ];
    match &ev.kind {
        EventKind::Delivered { from, msg } => {
            fields.push(format!("\"from\":\"{}\"", json_escape(from)));
            fields.push(format!("\"msg\":\"{}\"", json_escape(msg)));
        }
        EventKind::Rejected { from, msg, error } => {
            fields.push(format!("\"from\":\"{}\"", json_escape(from)));
            fields.push(format!("\"msg\":\"{}\"", json_escape(msg)));
            fields.push(format!("\"error\":\"{}\"", error.variant()));
        }
        EventKind::Garbled { from }
        | EventKind::Dropped { from }
        | EventKind::Duplicated { from } => {
            fields.push(format!("\"from\":\"{}\"", json_escape(from)));
        }
        EventKind::TimerFired { messages } => {
            fields.push(format!("\"messages\":{messages}"));
        }
        EventKind::StateTransition { from, to } => {
            let from = from.map_or_else(
                || "null".to_string(),
                |s| format!("\"{}\"", json_escape(&format!("{s:?}"))),
            );
            fields.push(format!("\"from_state\":{from}"));
            fields.push(format!("\"to_state\":\"{}\"", json_escape(&format!("{to:?}"))));
        }
        EventKind::Crashed => {}
        EventKind::Restarted { snapshot_bytes } => {
            fields.push(format!("\"snapshot_bytes\":{snapshot_bytes}"));
        }
    }
    format!("{{{}}}", fields.join(","))
}

fn histogram_json(h: &Histogram) -> String {
    format!(
        "{{\"count\":{},\"min\":{},\"max\":{},\"mean\":{:.3},\"p50\":{},\"p99\":{}}}",
        h.count(),
        json_opt_u64(h.min()),
        json_opt_u64(h.max()),
        h.mean(),
        json_opt_u64(h.quantile(0.5)),
        json_opt_u64(h.quantile(0.99)),
    )
}

/// Renders the metrics registry as one JSON summary object (no newline).
pub fn metrics_json(m: &Metrics) -> String {
    let rejected_by =
        m.rejected_by.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect::<Vec<_>>().join(",");
    format!(
        "{{\"kind\":\"metrics\",\"delivered\":{},\"rejected\":{},\"garbled\":{},\
         \"dropped\":{},\"duplicated\":{},\"timer_fires\":{},\"state_transitions\":{},\
         \"crashes\":{},\"restarts\":{},\"retries\":{},\"snapshot_bytes\":{},\
         \"rejected_by\":{{{rejected_by}}},\"latency_us\":{},\"settle_steps\":{}}}",
        m.delivered,
        m.rejected,
        m.garbled,
        m.dropped,
        m.duplicated,
        m.timer_fires,
        m.state_transitions,
        m.crashes,
        m.restarts,
        m.retries,
        m.snapshot_bytes,
        histogram_json(&m.latency_us),
        histogram_json(&m.settle_steps),
    )
}

/// Renders a full run as JSONL: one line per event, then one final
/// `"kind":"metrics"` summary line.
pub fn render_trace_jsonl<'a>(
    events: impl IntoIterator<Item = &'a Event>,
    metrics: &Metrics,
) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&event_json(ev));
        out.push('\n');
    }
    out.push_str(&metrics_json(metrics));
    out.push('\n');
    out
}

/// Checks that every non-empty line of `s` is a syntactically valid JSON
/// object and returns how many there were. A dependency-free validator for
/// the CI step that guards the export format (the build cannot fetch a JSON
/// crate).
pub fn validate_jsonl(s: &str) -> Result<usize, String> {
    let mut n = 0;
    for (i, line) in s.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut p = JsonParser { bytes: line.as_bytes(), pos: 0 };
        p.skip_ws();
        if p.peek() != Some(b'{') {
            return Err(format!("line {}: not a JSON object", i + 1));
        }
        p.value().map_err(|e| format!("line {}: {e}", i + 1))?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("line {}: trailing garbage at byte {}", i + 1, p.pos));
        }
        n += 1;
    }
    if n == 0 {
        return Err("no JSON lines found".to_string());
    }
    Ok(n)
}

/// Minimal recursive-descent JSON syntax checker (values are not retained).
struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos.saturating_sub(1)))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {:?} at byte {}", other.map(char::from), self.pos)),
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.value()?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(()),
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.value()?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(()),
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        while let Some(b) = self.bump() {
            match b {
                b'"' => return Ok(()),
                b'\\' => match self.bump() {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {}
                    Some(b'u') => {
                        for _ in 0..4 {
                            if !self.bump().is_some_and(|h| h.is_ascii_hexdigit()) {
                                return Err(format!("bad \\u escape at byte {}", self.pos));
                            }
                        }
                    }
                    _ => return Err(format!("bad escape at byte {}", self.pos)),
                },
                b if b < 0x20 => return Err(format!("raw control byte in string at {}", self.pos)),
                _ => {}
            }
        }
        Err("unterminated string".to_string())
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut digits = 0;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
            digits += 1;
        }
        if digits == 0 {
            return Err(format!("number without digits at byte {}", self.pos));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let mut frac = 0;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
                frac += 1;
            }
            if frac == 0 {
                return Err(format!("number with empty fraction at byte {}", self.pos));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let mut exp = 0;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
                exp += 1;
            }
            if exp == 0 {
                return Err(format!("number with empty exponent at byte {}", self.pos));
            }
        }
        Ok(())
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::{BenchRow, Export, Gated};

    /// The JSONL lines `experiments --bench-eN` writes for `rows`.
    fn export_jsonl<R: BenchRow + Gated>(rows: &[R]) -> String {
        let mut export = Export::default();
        export.push_rows(rows);
        export.jsonl
    }

    #[test]
    fn human_sizes() {
        assert_eq!(human_size(512), "512 B");
        assert_eq!(human_size(2048), "2 KiB");
        assert_eq!(human_size(3 << 20), "3 MiB");
    }

    #[test]
    fn renderers_produce_tables() {
        let e1 = render_e1(&e1_vulnerability_matrix(1));
        assert!(e1.contains("TPNR"));
        let e7 = render_e7(&e7_bridge_schemes(1));
        assert!(e7.contains("3.1"));
        assert!(e7.contains("3.4"));
    }

    #[test]
    fn event_json_covers_every_kind_and_validates() {
        use tpnr_core::session::{TxnState, ValidationError};
        use tpnr_net::time::SimTime;

        let events = [
            Event {
                at: SimTime(1_000),
                txn: Some(7),
                actor: "bob".into(),
                kind: EventKind::Delivered { from: "alice".into(), msg: "Transfer".into() },
            },
            Event {
                at: SimTime(2_000),
                txn: Some(7),
                actor: "bob".into(),
                kind: EventKind::Rejected {
                    from: "alice".into(),
                    msg: "Transfer".into(),
                    error: ValidationError::StaleSequence { last: 2, got: 1 },
                },
            },
            Event {
                at: SimTime(3_000),
                txn: None,
                actor: "bob".into(),
                kind: EventKind::Garbled { from: "mallory \"m\"\n".into() },
            },
            Event {
                at: SimTime(4_000),
                txn: Some(7),
                actor: "alice".into(),
                kind: EventKind::Dropped { from: "bob".into() },
            },
            Event {
                at: SimTime(4_000),
                txn: Some(7),
                actor: "alice".into(),
                kind: EventKind::Duplicated { from: "bob".into() },
            },
            Event {
                at: SimTime(5_000),
                txn: None,
                actor: "ttp".into(),
                kind: EventKind::TimerFired { messages: 1 },
            },
            Event {
                at: SimTime(6_000),
                txn: Some(7),
                actor: "alice".into(),
                kind: EventKind::StateTransition { from: None, to: TxnState::Pending },
            },
        ];
        let jsonl = render_trace_jsonl(&events, &Metrics::default());
        // 7 event lines + the metrics summary, all syntactically valid.
        assert_eq!(validate_jsonl(&jsonl), Ok(8));
        assert!(jsonl.contains("\"txn\":null"));
        assert!(jsonl.contains("\"error\":\"stale-sequence\""));
        assert!(jsonl.contains("mallory \\\"m\\\"\\n"));
        assert!(jsonl.contains("\"from_state\":null"));
        assert!(jsonl.lines().last().unwrap().contains("\"kind\":\"metrics\""));
    }

    #[test]
    fn bench_e4_json_is_valid_jsonl() {
        use tpnr_crypto::hash::HashAlg;
        let rows = e4_evidence_cost(&[1 << 10], &[HashAlg::Md5]);
        let jsonl = export_jsonl(&rows) + &export_jsonl(&[e4_transport_copies(1 << 10)]);
        assert_eq!(validate_jsonl(&jsonl), Ok(2));
        assert!(jsonl.contains("\"kind\":\"e4\""));
        assert!(jsonl.contains("\"kind\":\"e4-transport\""));
        assert!(jsonl.contains("\"deep_copies\":0"));
    }

    #[test]
    fn bench_e8_json_is_valid_jsonl() {
        let rows = e8_chaos(&[0, 300], 4);
        let jsonl = export_jsonl(&rows);
        assert_eq!(validate_jsonl(&jsonl), Ok(2));
        assert!(jsonl.contains("\"kind\":\"e8\""));
        assert!(jsonl.contains("\"evidence_loss\":0"));
        assert!(jsonl.contains("\"limbo\":0"));
        // The table renderer covers every row too.
        assert_eq!(render_e8(&rows).lines().count(), 3 + rows.len());
    }

    #[test]
    fn bench_e10_json_is_valid_jsonl_and_invariants_hold() {
        // Two counts, one straddling the lane boundary so a ragged final
        // lane is exercised.
        let rows = e10_scale(&[40, 300], 7);
        let jsonl = export_jsonl(&rows);
        assert_eq!(validate_jsonl(&jsonl), Ok(2));
        assert!(jsonl.contains("\"kind\":\"e10\""));
        for r in &rows {
            assert_eq!(r.completed, r.clients, "fault-free lanes settle every txn");
            assert_eq!(r.conservation_violations, 0);
            assert_eq!(r.evidence_loss, 0);
            assert_eq!(r.gave_up, 0);
            assert_eq!(r.delivered + r.dropped, r.sent + r.duplicated);
            assert!(r.p50_us > 0 && r.p99_us >= r.p50_us);
        }
        // 300 clients > 16 shards × 8 hot per lane → eviction engaged, the
        // archive holds bytes, and the resident set is bounded below the
        // txn count.
        let big = &rows[1];
        assert!(big.evicted > 0, "eviction must engage at 300 clients");
        assert!(big.rehydrated >= big.evicted, "verify pass reads every evicted bundle");
        assert!(big.archive_bytes > 0 && big.bytes_per_client > 0);
        assert!(big.resident < big.clients, "resident set bounded: {}", big.resident);
        assert_eq!(render_e10(&rows).lines().count(), 3 + rows.len());
        // The scheduler provenance fields are present in every row.
        assert!(jsonl.contains("\"workers\":"));
        assert!(jsonl.contains("\"available_parallelism\":"));
        assert!(jsonl.contains("\"tasks\":"));
    }

    #[test]
    fn bench_e13_json_is_valid_jsonl_and_gates_hold() {
        let rows = e13_worker_sweep(300, 7);
        let jsonl = export_jsonl(&rows);
        assert_eq!(validate_jsonl(&jsonl), Ok(rows.len()));
        assert!(jsonl.contains("\"kind\":\"e13\""));
        for r in &rows {
            assert!(r.deterministic_vs_serial, "workers={}", r.workers);
            assert_eq!(r.conservation_violations, 0);
            assert_eq!(r.evidence_loss, 0);
        }
        assert!(!jsonl.contains("\"deterministic_vs_serial\":false"));
        assert_eq!(render_e13(&rows).lines().count(), 3 + rows.len());
    }

    #[test]
    fn bench_e14_json_is_valid_jsonl_and_gates_hold() {
        let rows = e14_backend_comparison(7, true);
        assert_eq!(rows.len(), 3, "simnet, channel and tcp rows");
        let jsonl = export_jsonl(&rows);
        assert_eq!(validate_jsonl(&jsonl), Ok(rows.len()));
        assert!(jsonl.contains("\"kind\":\"e14\""));
        assert!(jsonl.contains("\"backend\":\"simnet\""));
        assert!(jsonl.contains("\"backend\":\"channel\""));
        // The two in-process backends must always run; the tcp row may
        // legitimately be skipped on hosts that refuse the loopback bind.
        for r in &rows {
            if r.skipped {
                assert_eq!(r.backend, "tcp", "only tcp may be skipped");
                continue;
            }
            assert_eq!(r.completed, r.txns, "healthy wire settles every txn: {}", r.backend);
            assert_eq!(r.conservation_violations, 0, "{}", r.backend);
            assert_eq!(r.evidence_loss, 0, "{}", r.backend);
            assert!(
                r.attacks_ok,
                "{}: {}/{} §5 attacks rejected",
                r.backend, r.attacks_rejected, r.attacks_expected
            );
            assert_eq!(r.delivered + r.dropped, r.sent + r.duplicated, "{}", r.backend);
        }
        // The table renders one line per row plus the 3-line header.
        assert_eq!(render_e14(&rows).lines().count(), 3 + rows.len());
    }

    #[test]
    fn bench_e12_json_is_valid_jsonl_and_gates_hold() {
        // 512-bit quick run: 3 alg rows + 1 batch row.
        let (rows, batches) = e12_rsa_kernels(&[512], true);
        assert_eq!(rows.len(), 3);
        assert_eq!(batches.len(), 1);
        let jsonl = export_jsonl(&rows) + &export_jsonl(&batches);
        assert_eq!(validate_jsonl(&jsonl), Ok(4));
        assert!(jsonl.contains("\"kind\":\"e12\""));
        assert!(jsonl.contains("\"kind\":\"e12_batch\""));
        for r in &rows {
            assert!(r.sign_fast_us > 0 && r.sign_classic_us > 0);
            assert!(r.sign_alloc_free, "fixed-limb signing allocates no limb buffers");
            assert!(
                r.allocs_per_sign_fast < r.allocs_per_sign_classic,
                "fixed-limb path must allocate less: {} vs {}",
                r.allocs_per_sign_fast,
                r.allocs_per_sign_classic
            );
        }
        let b = &batches[0];
        assert_eq!(b.n, 64);
        assert!(b.tampered_attributed, "tampered batch member must be attributed");
        // Table renderer covers every row (3 header lines per section + blank).
        let table = render_e12(&rows, &batches);
        assert_eq!(table.lines().count(), 3 + rows.len() + 4 + batches.len());
    }

    #[test]
    fn bench_e10_non_timing_fields_are_deterministic() {
        let a = e10_scale(&[200], 11);
        let b = e10_scale(&[200], 11);
        assert_eq!(e10_non_timing_fingerprint(&a[0]), e10_non_timing_fingerprint(&b[0]));
    }

    /// The exact JSONL line of one synthetic row of each of the eight kinds.
    const PINNED_JSONL: &str = concat!(
        "{\"kind\":\"e4\",\"size\":1024,\"alg\":\"SHA-256\",\"generate_us\":12.3,\"verify_us\":6.8,\"cache_hits\":18,\"cache_misses\":2,\"deep_copies\":3,\"deep_copy_bytes\":4096}\n",
        "{\"kind\":\"e4-transport\",\"size\":65536,\"upload_deep_copies\":5,\"upload_deep_copy_bytes\":6}\n",
        "{\"kind\":\"e8\",\"crash_prob_permille\":150,\"trials\":10,\"completed_full_evidence\":7,\"arbitrable_terminal\":2,\"limbo\":1,\"evidence_loss\":1,\"crashes\":11,\"restarts\":12,\"retries\":13,\"gave_up\":14,\"snapshot_bytes\":15}\n",
        "{\"kind\":\"e10\",\"clients\":1000,\"lanes\":4,\"completed\":999,\"elapsed_ms\":21,\"txn_per_sec\":22,\"p50_us\":23,\"p99_us\":24,\"bytes_per_client\":25,\"sent\":26,\"delivered\":27,\"dropped\":28,\"duplicated\":29,\"conservation_violations\":30,\"evicted\":31,\"rehydrated\":32,\"resident\":33,\"archive_bytes\":34,\"evidence_loss\":35,\"gave_up\":36,\"workers\":37,\"available_parallelism\":38,\"steals\":39,\"tasks\":40}\n",
        "{\"kind\":\"e12\",\"bits\":512,\"alg\":\"sha1\",\"sign_classic_us\":41,\"sign_fast_us\":42,\"sign_speedup_x100\":43,\"verify_classic_us\":44,\"verify_fast_us\":45,\"allocs_per_sign_classic\":46,\"allocs_per_sign_fast\":0,\"sign_floor_ok\":true,\"sign_alloc_free\":false}\n",
        "{\"kind\":\"e12_batch\",\"bits\":1024,\"n\":64,\"serial_us\":51,\"batch_us\":52,\"amortization_x100\":53,\"batch_not_slower\":false,\"tampered_attributed\":true}\n",
        "{\"kind\":\"e13\",\"clients\":2048,\"lanes\":8,\"workers\":2,\"available_parallelism\":61,\"completed\":62,\"elapsed_ms\":63,\"txn_per_sec\":64,\"speedup_x100\":65,\"efficiency_x100\":66,\"required_speedup_x100\":67,\"scaling_ok\":true,\"steals\":68,\"tasks\":69,\"p50_us\":70,\"p99_us\":71,\"conservation_violations\":72,\"evidence_loss\":73,\"deterministic_vs_serial\":false}\n",
        "{\"kind\":\"e14\",\"backend\":\"channel\",\"txns\":81,\"completed\":82,\"elapsed_ms\":83,\"msgs_per_sec\":84,\"txn_per_sec\":85,\"txn_per_sec_per_core\":86,\"available_parallelism\":87,\"lane_threads\":1,\"sent\":88,\"delivered\":89,\"dropped\":90,\"duplicated\":91,\"conservation_violations\":92,\"evidence_loss\":93,\"attacks_rejected\":4,\"attacks_expected\":5,\"attacks_ok\":false,\"skipped\":true}\n",
    );

    #[test]
    fn bench_jsonl_schema_is_pinned() {
        use tpnr_crypto::hash::HashAlg;
        let e4 = E4Row {
            size: 1024,
            alg: HashAlg::Sha256,
            generate_us: 12.34,
            verify_us: 6.76,
            cache_hits: 18,
            cache_misses: 2,
            deep_copies: 3,
            deep_copy_bytes: 4096,
        };
        let e8 = E8Row {
            crash_prob_permille: 150,
            trials: 10,
            completed_full_evidence: 7,
            arbitrable_terminal: 2,
            limbo: 1,
            evidence_loss: 1,
            crashes: 11,
            restarts: 12,
            retries: 13,
            gave_up: 14,
            snapshot_bytes: 15,
        };
        let e10 = E10Row {
            clients: 1000,
            lanes: 4,
            completed: 999,
            elapsed_ms: 21,
            txn_per_sec: 22,
            p50_us: 23,
            p99_us: 24,
            bytes_per_client: 25,
            sent: 26,
            delivered: 27,
            dropped: 28,
            duplicated: 29,
            conservation_violations: 30,
            evicted: 31,
            rehydrated: 32,
            resident: 33,
            archive_bytes: 34,
            evidence_loss: 35,
            gave_up: 36,
            workers: 37,
            available_parallelism: 38,
            steals: 39,
            tasks: 40,
        };
        let e12 = E12Row {
            bits: 512,
            alg: "sha1",
            sign_classic_us: 41,
            sign_fast_us: 42,
            sign_speedup_x100: 43,
            verify_classic_us: 44,
            verify_fast_us: 45,
            allocs_per_sign_classic: 46,
            allocs_per_sign_fast: 0,
            sign_floor_ok: true,
            sign_alloc_free: false,
        };
        let e12_batch = E12Batch {
            bits: 1024,
            n: 64,
            serial_us: 51,
            batch_us: 52,
            amortization_x100: 53,
            batch_not_slower: false,
            tampered_attributed: true,
        };
        let e13 = E13Row {
            clients: 2048,
            lanes: 8,
            workers: 2,
            available_parallelism: 61,
            completed: 62,
            elapsed_ms: 63,
            txn_per_sec: 64,
            speedup_x100: 65,
            efficiency_x100: 66,
            required_speedup_x100: 67,
            scaling_ok: true,
            steals: 68,
            tasks: 69,
            p50_us: 70,
            p99_us: 71,
            conservation_violations: 72,
            evidence_loss: 73,
            deterministic_vs_serial: false,
        };
        let e14 = E14Row {
            backend: "channel",
            txns: 81,
            completed: 82,
            elapsed_ms: 83,
            msgs_per_sec: 84,
            txn_per_sec: 85,
            txn_per_sec_per_core: 86,
            available_parallelism: 87,
            lane_threads: 1,
            sent: 88,
            delivered: 89,
            dropped: 90,
            duplicated: 91,
            conservation_violations: 92,
            evidence_loss: 93,
            attacks_rejected: 4,
            attacks_expected: 5,
            attacks_ok: false,
            skipped: true,
        };
        let e4_transport =
            E4Transport { size: 65536, upload_deep_copies: 5, upload_deep_copy_bytes: 6 };
        let got = [
            export_jsonl(&[e4]),
            export_jsonl(&[e4_transport]),
            export_jsonl(&[e8]),
            export_jsonl(&[e10]),
            export_jsonl(&[e12]),
            export_jsonl(&[e12_batch]),
            export_jsonl(&[e13]),
            export_jsonl(&[e14]),
        ]
        .concat();
        assert_eq!(got, PINNED_JSONL);
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_jsonl("").is_err(), "empty export is an error");
        assert!(validate_jsonl("{\"a\":1}\n{\"b\":").is_err());
        assert!(validate_jsonl("{\"a\":1} extra").is_err());
        assert!(validate_jsonl("[1,2,3]").is_err(), "top level must be an object");
        assert!(validate_jsonl("{\"a\":01}").is_ok(), "leading zeros pass the syntax check");
        assert_eq!(validate_jsonl("{\"a\":[1,-2.5e3,\"x\",true,null],\"b\":{}}\n\n"), Ok(1));
    }

    #[test]
    fn trace_jsonl_export_is_valid_and_complete() {
        let jsonl = trace_jsonl(2026);
        let n = validate_jsonl(&jsonl).expect("export is valid JSONL");
        assert!(n > 20, "a full faulted run produces a real trace, got {n} lines");
        for kind in ["delivered", "dropped", "duplicated", "state-transition"] {
            assert!(jsonl.contains(&format!("\"kind\":\"{kind}\"")), "missing {kind}");
        }
        assert!(jsonl.lines().last().unwrap().contains("\"kind\":\"metrics\""));
    }
}
