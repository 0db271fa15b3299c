//! Which rule closes the Batcher's batches: with one sequential client
//! the leader never has a proposal in flight when a request arrives, so
//! every batch is sealed on demand and none waits out the timeout.
//! Counts only — no latency is asserted.

use std::time::{Duration, Instant};

use smr_core::{InProcessCluster, NullService};
use smr_types::ClusterConfig;

#[test]
fn sequential_client_batches_seal_on_demand() {
    let config = ClusterConfig::new(3);
    let cluster = InProcessCluster::start(config.clone(), |_| Box::new(NullService::default()));
    let deadline = Instant::now() + Duration::from_secs(10);
    let leader = loop {
        if let Some(id) = config
            .replicas()
            .find(|id| cluster.replica(*id).shared().is_leader())
        {
            break id;
        }
        assert!(Instant::now() < deadline, "no leader elected");
        std::thread::sleep(Duration::from_millis(10));
    };

    let mut client = cluster.client();
    for _ in 0..200 {
        client.execute(&[7u8; 128]).unwrap();
    }

    let snap = cluster.replica(leader).metrics_snapshot();
    let count = |name: &str| snap.counter(name).unwrap_or(0);
    let (size, demand, timeout) = (
        count("batcher.sealed_size"),
        count("batcher.sealed_demand"),
        count("batcher.sealed_timeout"),
    );
    assert_eq!(
        timeout, 0,
        "size {size}, demand {demand}, timeout {timeout}"
    );
    assert!(
        demand >= 190,
        "size {size}, demand {demand}, timeout {timeout}"
    );
    cluster.shutdown();
}
