//! End-to-end tests of the ClientIO readiness loop: in-memory and TCP
//! clients must be indistinguishable (same replies, same state), slow
//! readers must be isolated behind per-connection outbound buffering,
//! and large numbers of idle connections must cost nothing. The
//! in-memory cases run on the connection eventfd, the TCP case on
//! sockets; both through the one loop.

use std::sync::Arc;
use std::time::{Duration, Instant};

use smr_core::{
    ConcurrentKvService, EventedIoOptions, InProcessCluster, KvService, ServiceState, SmrClient,
};
use smr_net::tcp::{TcpClientEndpoint, TcpClientListener};
use smr_types::{ClientId, ClusterConfig, ReplicaId, RequestId, SeqNum};
use smr_wire::{ClientMsg, Codec, Request};

fn small_config(n: usize, client_io_threads: usize) -> ClusterConfig {
    ClusterConfig::builder(n)
        .heartbeat_interval(Duration::from_millis(40))
        .suspect_timeout(Duration::from_millis(200))
        .client_io_threads(client_io_threads)
        .build()
        .unwrap()
}

/// Runs `ops` through `client` and returns the replies.
fn run_workload(client: &mut SmrClient, ops: &[Vec<u8>]) -> Vec<Vec<u8>> {
    ops.iter().map(|op| client.execute(op).unwrap()).collect()
}

fn workload() -> Vec<Vec<u8>> {
    // Conflict-heavy: 8 keys, interleaved puts/gets/deletes.
    let mut ops = Vec::new();
    for round in 0..30u8 {
        for key in 0..8u8 {
            let k = [b'k', key];
            ops.push(match (round + key) % 4 {
                0 | 1 => KvService::put(&k, &[round, key]),
                2 => KvService::get(&k),
                _ => KvService::delete(&k),
            });
        }
    }
    ops
}

/// Waits until every replica's service has converged to one state hash
/// (followers apply decisions asynchronously) and returns it.
fn converged_hash(services: &[Arc<ConcurrentKvService>]) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let hashes: Vec<u64> = services.iter().map(|s| s.state_hash()).collect();
        if hashes.windows(2).all(|w| w[0] == w[1]) {
            return hashes[0];
        }
        assert!(
            Instant::now() < deadline,
            "replicas did not converge: {hashes:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn memory_and_tcp_clients_produce_identical_state_and_replies() {
    let ops = workload();

    // In-memory clients: each connection's eventfd wakes the loop.
    let mem_services: Vec<Arc<ConcurrentKvService>> = (0..3)
        .map(|_| Arc::new(ConcurrentKvService::default()))
        .collect();
    let mem_cluster = {
        let services = mem_services.clone();
        InProcessCluster::start(small_config(3, 2), move |id: ReplicaId| {
            Box::new(Arc::clone(&services[id.index()]))
        })
    };
    let mem_replies = run_workload(&mut mem_cluster.client(), &ops);
    let mem_hash = converged_hash(&mem_services);
    mem_cluster.shutdown();

    // TCP clients: same service type, same workload, each replica's
    // client listener on a loopback socket (consensus stays in memory).
    let tcp_services: Vec<Arc<ConcurrentKvService>> = (0..3)
        .map(|_| Arc::new(ConcurrentKvService::default()))
        .collect();
    let mut addrs = Vec::new();
    let tcp_cluster = {
        let services = tcp_services.clone();
        InProcessCluster::start_with(small_config(3, 2), |id, builder| {
            let listener = TcpClientListener::bind("127.0.0.1:0".parse().unwrap()).unwrap();
            addrs.push(listener.local_addr().unwrap());
            builder
                .with_service(Box::new(Arc::clone(&services[id.index()])))
                .with_client_listener(Box::new(listener))
                .with_client_io_options(EventedIoOptions::default())
        })
    };
    let mut tcp_client = SmrClient::new(
        ClientId(1),
        3,
        Box::new(move |r: ReplicaId| {
            TcpClientEndpoint::connect(addrs[r.index()]).map(|ep| Box::new(ep) as _)
        }),
    )
    .with_timeouts(Duration::from_millis(250), Duration::from_secs(20));
    let tcp_replies = run_workload(&mut tcp_client, &ops);
    let tcp_hash = converged_hash(&tcp_services);
    tcp_cluster.shutdown();

    assert_eq!(
        mem_replies, tcp_replies,
        "same replies over both transports"
    );
    assert_eq!(mem_hash, tcp_hash, "same final state over both transports");
    assert_eq!(
        mem_services[0].entries(),
        tcp_services[0].entries(),
        "bit-identical entries"
    );
}

#[test]
fn slow_reader_does_not_stall_other_clients() {
    // Single replica, single ClientIO thread: the slow reader and the
    // healthy client share one loop, so any blocking send to the slow
    // reader would stall the healthy client's replies.
    let cluster = InProcessCluster::start_with(small_config(1, 1), |_, builder| {
        builder
            .with_service(Box::new(KvService::new()))
            .with_client_io_options(EventedIoOptions::default())
    });

    // Establish leadership first: a raw connection gets a Redirect (not a
    // Reply) for anything sent before the election settles, and unlike a
    // real client it never retries.
    let mut client = cluster.client();
    client
        .execute(&KvService::put(b"warmup", b"1"))
        .expect("warm-up op");

    // A raw connection that sends requests but never reads replies. The
    // in-memory outbound queue holds 64 frames; past that, `try_send`
    // refuses and the loop must park replies in the connection's
    // overflow buffer instead of blocking; the reader's pops ring the
    // connection's eventfd to resume the flush.
    const SLOW_REQUESTS: u64 = 120;
    let mut slow = cluster
        .hub()
        .connect_client(ReplicaId(0))
        .expect("connect raw client");
    for seq in 0..SLOW_REQUESTS {
        let request = Request::new(
            RequestId::new(ClientId(7777), SeqNum(seq)),
            KvService::put(b"slow", &seq.to_le_bytes()),
        );
        use smr_net::ClientEndpoint;
        slow.send(ClientMsg::Request(request).encode_to_vec())
            .expect("slow client send");
    }

    // While the slow reader's replies pile up, a normal client must keep
    // making progress on the same ClientIO thread.
    for i in 0..40u32 {
        client
            .execute(&KvService::put(b"healthy", &i.to_le_bytes()))
            .expect("healthy client must not be stalled by the slow reader");
    }

    // Once the slow reader finally drains, every buffered reply must
    // arrive: nothing was dropped while it overflowed the transport.
    let mut got = 0u64;
    let deadline = Instant::now() + Duration::from_secs(10);
    while got < SLOW_REQUESTS {
        use smr_net::ClientEndpoint;
        match slow.recv_timeout(Duration::from_millis(500)) {
            Ok(Some(frame)) => {
                if let Ok(ClientMsg::Reply(_)) = ClientMsg::decode(&frame) {
                    got += 1;
                }
            }
            Ok(None) => {}
            Err(e) => panic!("slow client connection died: {e}"),
        }
        assert!(
            Instant::now() < deadline,
            "slow reader only recovered {got}/{SLOW_REQUESTS} replies"
        );
    }

    cluster.shutdown();
}

#[test]
fn many_idle_connections_do_not_stall_active_clients() {
    const IDLE_CONNS: usize = 500;
    const OPS: u32 = 60;

    fn start_replica() -> InProcessCluster {
        InProcessCluster::start_with(small_config(1, 2), |_, builder| {
            builder.with_service(Box::new(KvService::new()))
        })
    }

    fn timed_ops(cluster: &InProcessCluster) -> Duration {
        let mut client = cluster.client();
        let start = Instant::now();
        for i in 0..OPS {
            client
                .execute(&KvService::put(b"active", &i.to_le_bytes()))
                .unwrap();
        }
        start.elapsed()
    }

    // Baseline: no idle connections.
    let cluster = start_replica();
    let baseline = timed_ops(&cluster);
    cluster.shutdown();

    // Same cluster shape with 500 connected-but-silent clients adopted
    // into the ClientIO loops before the workload starts.
    let cluster = start_replica();
    let idle: Vec<_> = (0..IDLE_CONNS)
        .map(|_| cluster.hub().connect_client(ReplicaId(0)).unwrap())
        .collect();
    // Give the acceptor a moment to fan all of them into the pool.
    std::thread::sleep(Duration::from_millis(200));
    let with_idle = timed_ops(&cluster);
    drop(idle);
    cluster.shutdown();

    // Idle connections cost at most a readiness check each; allow a
    // generous noise factor for a loaded single-core CI host.
    assert!(
        with_idle <= baseline * 4 + Duration::from_secs(2),
        "500 idle connections degraded throughput: baseline {baseline:?}, with idle {with_idle:?}"
    );
}

#[test]
fn full_request_queue_parks_and_resumes_every_request() {
    // A two-slot RequestQueue: most requests park their connection, and
    // only the Batcher's ring after a drain resumes them — no timer
    // does. Raw connections never resend, so one lost wake leaves a
    // request parked for good.
    const CONNS: u64 = 16;
    const PER_CONN: u64 = 20;
    let config = ClusterConfig::builder(1)
        .request_queue_capacity(2)
        .client_io_threads(2)
        .build()
        .unwrap();
    let cluster = InProcessCluster::start_with(config, |_, builder| {
        builder.with_service(Box::new(KvService::new()))
    });
    // Leadership first: a raw connection never retries a Redirect.
    cluster
        .client()
        .execute(&KvService::put(b"warmup", b"1"))
        .expect("warm-up op");

    use smr_net::ClientEndpoint;
    let mut conns: Vec<_> = (0..CONNS)
        .map(|_| cluster.hub().connect_client(ReplicaId(0)).unwrap())
        .collect();
    for (c, conn) in conns.iter_mut().enumerate() {
        for seq in 0..PER_CONN {
            let request = Request::new(
                RequestId::new(ClientId(1_000 + c as u64), SeqNum(seq)),
                KvService::put(&[b'p', c as u8], &seq.to_le_bytes()),
            );
            conn.send(ClientMsg::Request(request).encode_to_vec())
                .expect("send");
        }
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    for (c, conn) in conns.iter_mut().enumerate() {
        let mut got = 0u64;
        while got < PER_CONN {
            if let Some(frame) = conn.recv_timeout(Duration::from_millis(200)).unwrap() {
                if let Ok(ClientMsg::Reply(_)) = ClientMsg::decode(&frame) {
                    got += 1;
                }
            }
            assert!(
                Instant::now() < deadline,
                "connection {c}: only {got}/{PER_CONN} replies; a parked request was never resumed"
            );
        }
    }
    let parks = cluster
        .replica(ReplicaId(0))
        .metrics_snapshot()
        .queues
        .iter()
        .find(|q| q.name == "RequestQueue")
        .map_or(0, |q| q.push_waits);
    assert!(
        parks > 0,
        "the RequestQueue never filled; nothing was parked"
    );
    cluster.shutdown();
}
