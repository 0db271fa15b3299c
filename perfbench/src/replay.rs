//! Layer replays: public functions with no runtime seam, timed on inputs
//! generated from the workload seed at the batch size the traced run
//! observed.

use std::path::Path;
use std::time::Instant;

use smr_core::SnapshotService;
use smr_paxos::{Action, BatchBuilder, Event, PaxosReplica, Target};
use smr_storage::Storage;
use smr_types::{ClusterConfig, ReplicaId, Slot, SnapshotBlob};
use smr_wire::{crc32, Batch, Codec, Request};

use crate::stats::{quantile, tail_quantile};
use crate::workload::{LogicalClient, Mix};

/// How long each timed loop runs.
const LOOP_NS: u128 = 150_000_000;
/// WAL records appended (and synced) in the storage replay.
const WAL_RECORDS: usize = 2_000;
/// Slots ordered in the protocol replay.
const SLOTS: u64 = 5_000;

#[derive(Debug, Default)]
pub struct ReplayOut {
    pub batch_encode_ns: f64,
    pub batch_decode_ns: f64,
    pub crc32_gib_s: f64,
    pub push_ns_per_req: f64,
    pub handle_ns_per_slot: f64,
    pub append_us_p50: f64,
    pub append_us_p99: f64,
    pub sync_us_p50: f64,
    pub sync_us_p99: f64,
    pub snapshot_ms: f64,
}

/// Times `f` in a loop for [`LOOP_NS`]; returns ns per call.
fn per_call(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut n = 0u64;
    while t.elapsed().as_nanos() < LOOP_NS {
        for _ in 0..16 {
            f();
        }
        n += 16;
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

/// Requests of the workload's seeded streams, round-robin over clients.
pub fn requests(seed: u64, mix: Mix, count: usize) -> Vec<Request> {
    let total = 2 * crate::workload::WINDOW;
    let mut clients: Vec<LogicalClient> = (0..total)
        .map(|i| LogicalClient::new(seed, mix, i, total))
        .collect();
    (0..count)
        .map(|i| clients[i % total].next_request().0)
        .collect()
}

/// Orders `SLOTS` batches through three `PaxosReplica`s wired by a plain
/// loop (no threads, no network); returns ns per decided slot at the
/// leader.
fn paxos_loop(batch: &Batch) -> f64 {
    let config = ClusterConfig::new(3);
    let mut nodes: Vec<PaxosReplica> = config
        .replicas()
        .map(|id| PaxosReplica::new(id, config.clone()))
        .collect();
    let mut out = Vec::new();
    for (i, node) in nodes.iter_mut().enumerate() {
        node.handle(Event::Init, i as u64, &mut out);
    }
    out.clear();
    let mut inbox: Vec<(ReplicaId, ReplicaId, smr_wire::ProtocolMsg)> = Vec::new();
    let mut decided = 0u64;
    let t = Instant::now();
    for s in 0..SLOTS {
        nodes[0].handle(Event::Proposal(batch.clone()), s, &mut out);
        loop {
            for (from, a) in out.drain(..).map(|a| (ReplicaId(0), a)) {
                route(from, a, &mut inbox, &mut decided);
            }
            if inbox.is_empty() {
                break;
            }
            for (from, to, msg) in std::mem::take(&mut inbox) {
                let mut acts = Vec::new();
                nodes[to.index()].handle(Event::Message { from, msg }, s, &mut acts);
                for a in acts {
                    if to.0 == 0 {
                        out.push(a);
                    } else {
                        route(to, a, &mut inbox, &mut Default::default());
                    }
                }
            }
        }
    }
    let ns = t.elapsed().as_nanos() as f64;
    assert_eq!(
        decided, SLOTS,
        "every proposed slot is decided at the leader"
    );
    ns / decided as f64
}

fn route(
    from: ReplicaId,
    action: Action,
    inbox: &mut Vec<(ReplicaId, ReplicaId, smr_wire::ProtocolMsg)>,
    decided: &mut u64,
) {
    match action {
        Action::Send { to, msg } => match to {
            Target::All => {
                for peer in (0..3).map(ReplicaId).filter(|p| *p != from) {
                    inbox.push((from, peer, msg.clone()));
                }
            }
            Target::One(peer) => inbox.push((from, peer, msg)),
        },
        Action::Deliver { .. } => *decided += 1,
        _ => {}
    }
}

/// Runs every replay. `reqs_per_batch` is the traced run's observed batch
/// size; `state` is the service state at the end of the run; `dir` is a
/// scratch directory for the WAL, removed afterwards.
pub fn run(
    seed: u64,
    mix: Mix,
    reqs_per_batch: usize,
    state: &dyn SnapshotService,
    dir: &Path,
) -> Result<ReplayOut, String> {
    let k = reqs_per_batch.max(1);
    let reqs = requests(seed, mix, (WAL_RECORDS * k).max(20_000));
    let batch = Batch::new(reqs[..k].to_vec());
    let bytes = batch.encode_to_vec();
    let mut out = ReplayOut {
        batch_encode_ns: per_call(|| {
            std::hint::black_box(std::hint::black_box(&batch).encode_to_vec());
        }),
        batch_decode_ns: per_call(|| {
            std::hint::black_box(Batch::decode(std::hint::black_box(&bytes)).expect("decodes"));
        }),
        ..ReplayOut::default()
    };
    let crc_ns = per_call(|| {
        std::hint::black_box(crc32(std::hint::black_box(&bytes)));
    });
    out.crc32_gib_s = bytes.len() as f64 / crc_ns / 1.073_741_824;

    // Batcher: the request stream arriving in bursts of one batch.
    let policy = ClusterConfig::new(3).batch();
    let mut builder = BatchBuilder::new(policy);
    let mut sealed = Vec::new();
    let t = Instant::now();
    for (i, burst) in reqs.chunks(k).enumerate() {
        builder.push_all(burst.iter().cloned(), i as u64, &mut sealed);
        sealed.clear();
    }
    out.push_ns_per_req = t.elapsed().as_nanos() as f64 / reqs.len() as f64;

    out.handle_ns_per_slot = paxos_loop(&batch);

    // Storage: append + sync one record per batch, as the ServiceManager
    // does for a drained burst of one decision.
    let _ = std::fs::remove_dir_all(dir);
    let (mut storage, _) = Storage::open(dir).map_err(|e| format!("storage replay: {e}"))?;
    let mut append = Vec::with_capacity(WAL_RECORDS);
    let mut sync = Vec::with_capacity(WAL_RECORDS);
    for (i, chunk) in reqs.chunks(k).take(WAL_RECORDS).enumerate() {
        let b = Batch::new(chunk.to_vec());
        let t = Instant::now();
        storage
            .append(Slot(i as u64), &b)
            .map_err(|e| format!("append: {e}"))?;
        let t1 = Instant::now();
        storage.sync().map_err(|e| format!("sync: {e}"))?;
        append.push((t1 - t).as_nanos() as u64);
        sync.push(t1.elapsed().as_nanos() as u64);
    }
    append.sort_unstable();
    sync.sort_unstable();
    let us = |v: Option<u64>| v.map_or(0.0, |ns| ns as f64 / 1e3);
    out.append_us_p50 = us(quantile(&append, 0.5));
    out.append_us_p99 = us(tail_quantile(&append, 0.99));
    out.sync_us_p50 = us(quantile(&sync, 0.5));
    out.sync_us_p99 = us(tail_quantile(&sync, 0.99));

    // Snapshot of the end-of-run state: serialize, then install durably.
    let t = Instant::now();
    let blob = SnapshotBlob {
        applied_upto: Slot(WAL_RECORDS as u64),
        state_hash: state.state_hash(),
        state: state.snapshot(),
    };
    storage
        .install_snapshot(&blob)
        .map_err(|e| format!("snapshot: {e}"))?;
    out.snapshot_ms = t.elapsed().as_nanos() as f64 / 1e6;
    drop(storage);
    let _ = std::fs::remove_dir_all(dir);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paxos_loop_decides_every_slot() {
        let batch = Batch::new(requests(1, Mix::Null, 4));
        assert!(paxos_loop(&batch) > 0.0);
    }

    #[test]
    fn replay_inputs_repeat_for_a_seed() {
        let mix = Mix::Kv { value_len: 100 };
        assert_eq!(requests(3, mix, 50), requests(3, mix, 50));
        assert_ne!(requests(3, mix, 50), requests(4, mix, 50));
    }
}
