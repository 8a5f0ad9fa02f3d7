//! The per-layer ledger: what each layer does per transaction (counted from
//! the captured wire stream) times what one call costs (replayed through the
//! layer's public function on the captured inputs).
//!
//! Call-count rules, derived from the protocol code and checked against the
//! 6 private + 6 public exponentiations a Normal-mode upload is known to
//! cost:
//! * an evidence-bearing message costs its sender two `sign_prehashed`
//!   (data hash, plaintext digest) and one envelope `seal` (one RSA public
//!   `encrypt`), and its receiver one envelope `open` (one RSA private
//!   `decrypt`) and two `verify_prehashed`;
//! * both ends hash the canonical plaintext once (sender for the second
//!   signature, receiver to verify it);
//! * a `Transfer` payload is hashed by its sender (commitment) and by its
//!   receiver (check); a download `Receipt` payload is hashed by the client
//!   only, since the provider's commitment to a stored object is memoized
//!   from the upload.

use crate::stats::{median, now_us};
use std::collections::BTreeMap;
use tpnr_core::evidence::Flag;
use tpnr_core::message::Message;
use tpnr_core::obs::{Event, Obs};
use tpnr_core::principal::Principal;
use tpnr_crypto::hash::HashAlg;
use tpnr_crypto::{envelope, ChaChaRng};
use tpnr_net::codec::{Wire, Writer};
use tpnr_net::Bytes;

/// Counts over a stream of captured wire messages.
#[derive(Default, Clone)]
pub struct Tally {
    pub msgs: u64,
    pub wire_bytes: u64,
    pub evidence_msgs: u64,
    /// Hashed input length → calls.
    pub hashes: BTreeMap<usize, u64>,
    /// Message class (kind/flag) → count.
    pub classes: BTreeMap<&'static str, u64>,
    /// One captured message per class, replayed through the codec.
    pub samples: BTreeMap<&'static str, Bytes>,
    pub undecodable: u64,
}

fn class_of(msg: &Message) -> &'static str {
    match (msg, msg.plaintext().flag) {
        (Message::Transfer { .. }, Flag::UploadRequest) => "Transfer/upload",
        (Message::Transfer { .. }, _) => "Transfer/download",
        (Message::Receipt { .. }, Flag::UploadReceipt) => "Receipt/upload",
        (Message::Receipt { .. }, _) => "Receipt/download",
        _ => msg.kind(),
    }
}

impl Tally {
    pub fn add(&mut self, wire: &Bytes) {
        self.msgs += 1;
        self.wire_bytes += wire.len() as u64;
        let Ok(msg) = Message::from_wire_bytes(wire) else {
            self.undecodable += 1;
            return;
        };
        let class = class_of(&msg);
        *self.classes.entry(class).or_default() += 1;
        self.samples.entry(class).or_insert_with(|| wire.clone());
        let evidence = match &msg {
            Message::Transfer { data, .. } => {
                *self.hashes.entry(data.len()).or_default() += 2;
                true
            }
            Message::Receipt { data, .. } => {
                if !data.is_empty() {
                    *self.hashes.entry(data.len()).or_default() += 1;
                }
                true
            }
            Message::Abort { .. } | Message::AbortReply { .. } => true,
            Message::ResolveReply { evidence, .. } => evidence.is_some(),
            Message::Resolve { .. } | Message::ResolveForward { .. } => false,
        };
        if evidence {
            self.evidence_msgs += 1;
            *self.hashes.entry(msg.plaintext().to_wire().len()).or_default() += 2;
        }
    }

    pub fn merge(&mut self, o: &Tally) {
        self.msgs += o.msgs;
        self.wire_bytes += o.wire_bytes;
        self.evidence_msgs += o.evidence_msgs;
        self.undecodable += o.undecodable;
        for (k, v) in &o.hashes {
            *self.hashes.entry(*k).or_default() += v;
        }
        for (k, v) in &o.classes {
            *self.classes.entry(k).or_default() += v;
        }
        for (k, v) in &o.samples {
            self.samples.entry(k).or_insert_with(|| v.clone());
        }
    }

    pub fn hashed_bytes(&self) -> u64 {
        self.hashes.iter().map(|(len, n)| *len as u64 * n).sum()
    }

    /// The counts that must not depend on the seed, as `name=value` pairs.
    pub fn fingerprint(&self, txns: u64) -> Vec<(String, u64)> {
        let mut fp = vec![
            ("txns".to_string(), txns),
            ("msgs".to_string(), self.msgs),
            ("wire_bytes".to_string(), self.wire_bytes),
            ("evidence_msgs".to_string(), self.evidence_msgs),
            ("hashed_bytes".to_string(), self.hashed_bytes()),
            ("undecodable".to_string(), self.undecodable),
        ];
        fp.extend(self.classes.iter().map(|(k, v)| (format!("class.{k}"), *v)));
        fp
    }
}

/// Host microseconds per call of `f`: the median over five batches, each
/// long enough (≥ 2 ms) for the clock to resolve it.
pub fn unit_cost(mut f: impl FnMut()) -> f64 {
    f();
    let (_, once) = crate::stats::timed(&mut f);
    let per_batch = ((2_000.0 / once.max(0.05)).ceil() as usize).clamp(1, 100_000);
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = now_us();
            for _ in 0..per_batch {
                f();
            }
            (now_us() - t0) / per_batch as f64
        })
        .collect();
    median(&batches)
}

/// Per-call costs of each layer's public functions, in host µs.
pub struct UnitCosts {
    pub sign: f64,
    pub verify: f64,
    pub encrypt: f64,
    pub decrypt: f64,
    pub seal: f64,
    pub open: f64,
    pub limb_allocs_per_sign: f64,
    /// Hashed length → µs per call.
    pub hash: BTreeMap<usize, f64>,
    /// Message class → µs to encode plus decode one message.
    pub codec: BTreeMap<&'static str, f64>,
    pub obs_record: f64,
}

/// Replays the captured inputs through each layer. `key` must have the
/// workload's key size; `events` are observability events the run emitted.
pub fn replay(tally: &Tally, key: &Principal, alg: HashAlg, events: &[Event]) -> UnitCosts {
    use std::hint::black_box;
    let sk = &key.keys.private;
    let pk = &key.keys.public;
    let mut rng = ChaChaRng::seed_from_u64(0x1ed9e5);

    // Digests the run actually signed: data hash and plaintext digest of
    // the first captured evidence message.
    let digests: Vec<Vec<u8>> = tally
        .samples
        .values()
        .filter_map(|w| Message::from_wire_bytes(w).ok())
        .take(1)
        .flat_map(|m| [m.plaintext().data_hash.clone(), m.plaintext().digest()])
        .collect();
    let digests = if digests.is_empty() { vec![alg.hash(b"")] } else { digests };
    let sigs: Vec<Vec<u8>> =
        digests.iter().map(|d| sk.sign_prehashed(alg, d).expect("replay key signs")).collect();

    let mut i = 0usize;
    let sign = unit_cost(|| {
        i += 1;
        black_box(sk.sign_prehashed(alg, &digests[i % digests.len()]).ok());
    });
    tpnr_crypto::bigint::limb_allocs::reset();
    let _ = sk.sign_prehashed(alg, &digests[0]);
    let limb_allocs_per_sign = tpnr_crypto::bigint::limb_allocs::count() as f64;
    let verify = unit_cost(|| {
        i += 1;
        let j = i % digests.len();
        black_box(pk.verify_prehashed(alg, &digests[j], &sigs[j]).is_ok());
    });
    let seed = [7u8; 32];
    let wrapped = pk.encrypt(&mut rng, &seed).expect("replay key encrypts");
    let encrypt = unit_cost(|| {
        black_box(pk.encrypt(&mut rng, &seed).ok());
    });
    let decrypt = unit_cost(|| {
        black_box(sk.decrypt(&wrapped).ok());
    });
    // The envelope body is the signature pair, framed as evidence seals it.
    let mut w = Writer::new();
    w.bytes(&sigs[0]);
    w.bytes(&sigs[sigs.len() - 1]);
    let body = w.finish_vec();
    let sealed = envelope::seal(pk, &mut rng, &body).expect("replay key seals");
    let seal = unit_cost(|| {
        black_box(envelope::seal(pk, &mut rng, &body).ok());
    });
    let open = unit_cost(|| {
        black_box(envelope::open(sk, &sealed).ok());
    });

    let hash = tally
        .hashes
        .keys()
        .map(|&len| {
            let buf = vec![0x5a_u8; len];
            (len, unit_cost(|| drop(black_box(alg.hash(black_box(&buf))))))
        })
        .collect();
    let codec = tally
        .samples
        .iter()
        .filter_map(|(class, wire)| {
            let msg = Message::from_wire_bytes(wire).ok()?;
            let enc = unit_cost(|| drop(black_box(msg.to_wire_bytes())));
            let dec = unit_cost(|| drop(black_box(Message::from_wire_bytes(wire).ok())));
            Some((*class, enc + dec))
        })
        .collect();
    let obs_record = if events.is_empty() {
        0.0
    } else {
        let mut sink = Obs::new();
        let mut k = 0usize;
        unit_cost(|| {
            k += 1;
            sink.record(events[k % events.len()].clone());
        })
    };
    UnitCosts {
        sign,
        verify,
        encrypt,
        decrypt,
        seal,
        open,
        limb_allocs_per_sign,
        hash,
        codec,
        obs_record,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Traced;
    use tpnr_core::client::TimeoutStrategy;
    use tpnr_core::config::ProtocolConfig;
    use tpnr_core::runner::GenericWorld;
    use tpnr_net::sim::SimNet;
    use tpnr_net::transport::Transport;

    fn drained(w: &mut GenericWorld<Traced<SimNet>>) -> Tally {
        let mut t = Tally::default();
        for (_, wire) in w.net_mut().sent.drain(..) {
            t.add(&wire);
        }
        t
    }

    #[test]
    fn normal_mode_pair_matches_the_call_count_rules() {
        let cfg = ProtocolConfig::full();
        let mut w = GenericWorld::with_transport(Traced::new(SimNet::new(3)), 3, cfg);
        let data = vec![7u8; 256];
        assert!(w.upload(b"obj", data, TimeoutStrategy::AbortFirst).completed());
        let up = drained(&mut w);
        // Two evidence messages: 6 private + 6 public RSA operations.
        assert_eq!((up.msgs, up.evidence_msgs, up.undecodable), (2, 2, 0));
        assert_eq!(
            up.classes.keys().copied().collect::<Vec<_>>(),
            ["Receipt/upload", "Transfer/upload"]
        );
        // The payload's canonical encoding (key and data, length-prefixed)
        // is hashed by both ends.
        assert_eq!(up.hashes.get(&(4 + 3 + 4 + 256)), Some(&2));

        assert!(w.download(b"obj", TimeoutStrategy::AbortFirst).completed());
        let down = drained(&mut w);
        assert_eq!((down.msgs, down.evidence_msgs), (2, 2));
        assert_eq!(down.hashes.get(&(4 + 3 + 4 + 256)), Some(&1));
        assert_eq!(down.wire_bytes, w.net().stats().bytes_sent - up.wire_bytes);
    }
}
