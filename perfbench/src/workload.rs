//! Workload definitions and the request model: what each logical client
//! sends, and the exact reply each request must get back.

use smr_core::{KvService, NullService, Service, SnapshotService};
use smr_types::{ClientId, RequestId, SeqNum};
use smr_wire::{Codec, Request};

use crate::rng::Rng;

/// How the replicas are wired together and to clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// `MemoryHub`: instant in-process delivery.
    Memory,
    /// `TcpReplicaNetwork` and `TcpClientListener` over loopback.
    Tcp,
}

/// The replicated service and its request mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// `NullService`: 128 B requests, 8 B zero replies.
    Null,
    /// `KvService`: 50% put of `value_len` bytes, 50% get, over [`KEYS`]
    /// keys, each key owned by one logical client.
    Kv { value_len: usize },
}

/// One benchmark workload. Every field maps to an option a user of the
/// replica already has; ClientIO mode, queue core and batch policy stay at
/// their defaults.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub mix: Mix,
    pub transport: Transport,
    /// `ReplicaBuilder::with_durability` (WAL, snapshots, compaction).
    pub wal: bool,
    /// Open-loop rate (req/s) of the light phase, where timers and parks
    /// set latency.
    pub light_rate: f64,
    /// Open-loop rate (req/s) of the load phase: below the knee, high
    /// enough to fill batches by size.
    pub load_rate: f64,
    /// Isolate the leader during the light phase.
    pub crash: bool,
}

/// Requests a connection may have outstanding: the 64-frame client queue
/// of an in-memory connection. The same cap holds for TCP.
pub const WINDOW: usize = 64;
/// Connections (and generator threads) per workload, capped at `nproc`.
pub const CONNS: usize = 2;
/// Distinct keys of the KV workloads.
pub const KEYS: u32 = 10_000;
/// Null request payload size.
pub const NULL_REQUEST: usize = 128;
/// First logical client id; ids below are used by set-up probes.
pub const CLIENT_ID_BASE: u64 = 1_000;

/// The workloads, in the order `--workload all` runs them. The rates are
/// constants calibrated once on a 2-core host; they are not derived at run
/// time, since a rate derived from the program would move with it.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "null-mem",
        mix: Mix::Null,
        transport: Transport::Memory,
        wal: false,
        light_rate: 2_000.0,
        load_rate: 20_000.0,
        crash: false,
    },
    Workload {
        name: "kv-wal",
        mix: Mix::Kv { value_len: 100 },
        transport: Transport::Memory,
        wal: true,
        light_rate: 2_000.0,
        load_rate: 20_000.0,
        crash: false,
    },
    Workload {
        name: "kv-tcp",
        mix: Mix::Kv { value_len: 1024 },
        transport: Transport::Tcp,
        wal: false,
        light_rate: 2_000.0,
        load_rate: 5_000.0,
        crash: false,
    },
    Workload {
        name: "failover",
        mix: Mix::Null,
        transport: Transport::Memory,
        wal: false,
        light_rate: 2_000.0,
        load_rate: 20_000.0,
        crash: true,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

pub fn key(k: u32) -> Vec<u8> {
    format!("key-{k:05}").into_bytes()
}

/// The value a put by `client` at `seq` writes: it names its writer, so a
/// get's exact expected reply is known.
pub fn value(client: u64, seq: u64, len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(len.max(16));
    v.extend_from_slice(&client.to_le_bytes());
    v.extend_from_slice(&seq.to_le_bytes());
    let tag = (client as u8).wrapping_mul(31) ^ (seq as u8);
    v.extend((16..len).map(|i| tag.wrapping_add(i as u8)));
    v
}

/// `KvService`'s reply for a present value.
fn found(v: &[u8]) -> Vec<u8> {
    let mut r = Vec::with_capacity(v.len() + 1);
    r.push(1);
    r.extend_from_slice(v);
    r
}

/// A request sent and not yet answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pending {
    pub seq: u64,
    /// Encoded `ClientMsg::Request` frame, kept for re-sends.
    pub frame: Vec<u8>,
    pub expected: Vec<u8>,
    /// When the request was due (open loop) or first sent (closed loop).
    pub due_ns: u64,
    pub first_sent_ns: u64,
    pub last_sent_ns: u64,
}

/// One logical client: its own `ClientId`, at most one request
/// outstanding, and (for KV) the keys it alone writes.
#[derive(Debug)]
pub struct LogicalClient {
    pub id: ClientId,
    mix: Mix,
    seq: u64,
    rng: Rng,
    /// Owned key numbers.
    keys: Vec<u32>,
    /// Per owned key: 1 + seq of the put that last wrote it, 0 = never.
    written: Vec<u64>,
    pub pending: Option<Pending>,
}

impl LogicalClient {
    /// Client `index` of `total`; it owns every key `k` with
    /// `k % total == index`.
    pub fn new(seed: u64, mix: Mix, index: usize, total: usize) -> Self {
        let keys: Vec<u32> = match mix {
            Mix::Null => Vec::new(),
            Mix::Kv { .. } => (0..KEYS).filter(|k| *k as usize % total == index).collect(),
        };
        LogicalClient {
            id: ClientId(CLIENT_ID_BASE + index as u64),
            mix,
            seq: 0,
            rng: Rng::new(seed, 1_000 + index as u64),
            written: vec![0; keys.len()],
            keys,
            pending: None,
        }
    }

    /// The next request of this client's seeded stream and the exact
    /// reply it must get. Updates the client's model of its keys, which
    /// is safe because the client sends nothing else until it is answered.
    pub fn next_request(&mut self) -> (Request, Vec<u8>) {
        let seq = self.seq;
        self.seq += 1;
        let (payload, expected) = match self.mix {
            Mix::Null => {
                let mut p = vec![0u8; NULL_REQUEST];
                p[..8].copy_from_slice(&self.id.0.to_le_bytes());
                p[8..16].copy_from_slice(&seq.to_le_bytes());
                (p, vec![0u8; 8])
            }
            Mix::Kv { value_len } => {
                let j = self.rng.below(self.keys.len() as u64) as usize;
                let k = key(self.keys[j]);
                let expected = match self.written[j] {
                    0 => vec![0u8],
                    w => found(&value(self.id.0, w - 1, value_len)),
                };
                if self.rng.unit() < 0.5 {
                    self.written[j] = seq + 1;
                    (
                        KvService::put(&k, &value(self.id.0, seq, value_len)),
                        expected,
                    )
                } else {
                    (KvService::get(&k), expected)
                }
            }
        };
        (
            Request::new(RequestId::new(self.id, SeqNum(seq)), payload),
            expected,
        )
    }

    /// Builds the next request and marks it pending.
    pub fn issue(&mut self, due_ns: u64, now_ns: u64) -> &Pending {
        let (req, expected) = self.next_request();
        let frame = smr_wire::ClientMsg::Request(req.clone()).encode_to_vec();
        self.pending.insert(Pending {
            seq: req.id.seq.0,
            frame,
            expected,
            due_ns,
            first_sent_ns: now_ns,
            last_sent_ns: now_ns,
        })
    }

    /// Adds this client's final key values to `kv`.
    fn apply_to(&self, kv: &mut KvService, value_len: usize) {
        for (j, &w) in self.written.iter().enumerate() {
            if w > 0 {
                kv.execute(&KvService::put(
                    &key(self.keys[j]),
                    &value(self.id.0, w - 1, value_len),
                ));
            }
        }
    }
}

/// What the checker concluded about one reply.
#[derive(Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The expected reply to the pending request: it completes.
    Correct(Pending),
    /// A reply to a request that is no longer pending (a duplicate after
    /// a re-send): ignored.
    Stale,
    /// A reply whose payload differs from the expected one.
    Wrong(String),
}

/// Checks `reply` against the client's pending request.
pub fn check_reply(client: &mut LogicalClient, seq: u64, payload: &[u8]) -> Verdict {
    match &client.pending {
        Some(p) if p.seq == seq => {
            if payload == p.expected.as_slice() {
                Verdict::Correct(client.pending.take().expect("pending"))
            } else {
                Verdict::Wrong(format!(
                    "client {} seq {seq}: expected {} B reply {:02x?}.., got {} B {:02x?}..",
                    client.id.0,
                    p.expected.len(),
                    &p.expected[..p.expected.len().min(20)],
                    payload.len(),
                    &payload[..payload.len().min(20)]
                ))
            }
        }
        _ => Verdict::Stale,
    }
}

/// The service state every replica must reach once all `clients` are
/// answered, built from the generator's own model.
pub fn model_service(mix: Mix, clients: &[&LogicalClient]) -> Box<dyn SnapshotService> {
    match mix {
        Mix::Null => Box::new(NullService::default()),
        Mix::Kv { value_len } => {
            let mut kv = KvService::new();
            for c in clients {
                c.apply_to(&mut kv, value_len);
            }
            Box::new(kv)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr_core::ServiceState;

    /// Replays the client's stream against a real `KvService` and checks
    /// every expected reply.
    #[test]
    fn kv_expectations_match_the_service() {
        let mix = Mix::Kv { value_len: 100 };
        let mut svc = KvService::new();
        let mut clients: Vec<LogicalClient> =
            (0..4).map(|i| LogicalClient::new(9, mix, i, 4)).collect();
        for round in 0..3_000 {
            let c = &mut clients[round % 4];
            let (req, expected) = c.next_request();
            assert_eq!(svc.execute(&req.payload), expected, "round {round}");
        }
        let refs: Vec<&LogicalClient> = clients.iter().collect();
        assert_eq!(model_service(mix, &refs).state_hash(), svc.state_hash());
    }

    #[test]
    fn checker_catches_a_corrupted_and_a_dropped_reply() {
        let mut c = LogicalClient::new(1, Mix::Kv { value_len: 100 }, 0, 2);
        // Write once so later gets expect a value.
        let p = c.issue(0, 0).clone();
        assert!(matches!(
            check_reply(&mut c, p.seq, &p.expected),
            Verdict::Correct(_)
        ));
        let p = c.issue(0, 0).clone();
        let mut bad = p.expected.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert!(matches!(
            check_reply(&mut c, p.seq, &bad),
            Verdict::Wrong(_)
        ));
        // A truncated (dropped tail) payload is wrong too.
        assert!(matches!(
            check_reply(&mut c, p.seq, &p.expected[..p.expected.len() / 2]),
            Verdict::Wrong(_)
        ));
        // A dropped reply leaves the request pending: nothing completes
        // it, so the generator counts it failed after the grace period.
        assert!(c.pending.is_some());
        // A reply to another sequence number is stale, not a completion.
        assert_eq!(check_reply(&mut c, p.seq + 1, &p.expected), Verdict::Stale);
        assert!(matches!(
            check_reply(&mut c, p.seq, &p.expected),
            Verdict::Correct(_)
        ));
        assert!(c.pending.is_none());
    }

    #[test]
    fn null_replies_are_eight_zero_bytes() {
        let mut c = LogicalClient::new(1, Mix::Null, 3, 8);
        let (req, expected) = c.next_request();
        assert_eq!(req.payload.len(), NULL_REQUEST);
        assert_eq!(NullService::default().execute(&req.payload), expected);
    }

    #[test]
    fn streams_repeat_for_a_seed() {
        let mix = Mix::Kv { value_len: 64 };
        let mut a = LogicalClient::new(5, mix, 1, 3);
        let mut b = LogicalClient::new(5, mix, 1, 3);
        for _ in 0..100 {
            assert_eq!(a.next_request(), b.next_request());
        }
    }
}
