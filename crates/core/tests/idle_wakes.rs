//! Wake budget of an idle replica: with no clients, every stage thread
//! blocks on its one wake source, so the only wakes left are the
//! Protocol thread's 25 ms tick and the peer heartbeats it receives;
//! the Batcher gets no seal wakes.
//! Counts only — no latency is asserted.

use std::time::{Duration, Instant};

use smr_core::{InProcessCluster, NullService};
use smr_metrics::{MetricsSnapshot, QueueSnapshot};
use smr_types::ClusterConfig;

/// Protocol tick period (`core_threads.rs`).
const TICK: Duration = Duration::from_millis(25);

fn queue<'a>(snap: &'a MetricsSnapshot, name: &str) -> &'a QueueSnapshot {
    snap.queues
        .iter()
        .find(|q| q.name == name)
        .unwrap_or_else(|| panic!("queue {name} is registered"))
}

fn queue_pop_waits(snap: &MetricsSnapshot, name: &str) -> u64 {
    queue(snap, name).pop_waits
}

#[test]
fn idle_replica_stays_within_its_wake_budget() {
    let config = ClusterConfig::new(3);
    let heartbeat = config.heartbeat_interval();
    let client_io_threads = config.client_io_threads() as u64;
    let cluster = InProcessCluster::start(config.clone(), |_| Box::new(NullService::default()));

    // Let the first election settle before counting.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !config
        .replicas()
        .any(|id| cluster.replica(id).shared().is_leader())
    {
        assert!(Instant::now() < deadline, "no leader elected");
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(300));

    let snap = || -> Vec<MetricsSnapshot> {
        config
            .replicas()
            .map(|id| cluster.replica(id).metrics_snapshot())
            .collect()
    };
    let before = snap();
    let start = Instant::now();
    std::thread::sleep(Duration::from_secs(1));
    let after = snap();
    let elapsed = start.elapsed();

    // One blocked pop per tick, plus one per heartbeat received: the
    // leader's failure detector checks each link every heartbeat / 2
    // and sends on the idle ones. Doubled for timer jitter on a loaded
    // host; a 1 ms park would come to about 1,000.
    let ticks = elapsed.as_nanos() / TICK.as_nanos();
    let heartbeats = (config.n() as u128 - 1) * elapsed.as_nanos() / (heartbeat / 2).as_nanos();
    let protocol_budget = 2 * (ticks + heartbeats) as u64;
    for (id, (b, a)) in before.iter().zip(&after).enumerate() {
        let protocol =
            queue_pop_waits(a, "DispatcherQueue") - queue_pop_waits(b, "DispatcherQueue");
        assert!(
            protocol <= protocol_budget,
            "replica {id}: Protocol blocked {protocol} times in {elapsed:?} \
             (budget {protocol_budget})"
        );
        // The Batcher is the RequestQueue's only consumer.
        let batcher = queue_pop_waits(a, "RequestQueue") - queue_pop_waits(b, "RequestQueue");
        assert!(batcher <= 2, "replica {id}: Batcher parked {batcher} times");
        // With no clients, every RequestQueue push would be the Protocol
        // thread's `Seal`: an idle leader has no open batch to seal.
        let seals = queue(a, "RequestQueue").pushed - queue(b, "RequestQueue").pushed;
        assert_eq!(seals, 0, "replica {id}: {seals} seal wakes while idle");
        let polls =
            a.counter("client_io.polls").unwrap_or(0) - b.counter("client_io.polls").unwrap_or(0);
        assert!(
            polls <= 2 * client_io_threads,
            "replica {id}: {client_io_threads} ClientIO threads polled {polls} times"
        );
    }
    cluster.shutdown();
}
