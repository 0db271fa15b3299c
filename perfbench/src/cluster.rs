//! Stands up the 3-replica cluster of a workload through the public
//! builder, with handles the benchmark keeps on its own service objects,
//! and, for the traced run, decorators around every seam.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use smr_core::{
    KvService, NullService, Replica, ReplicaBuilder, ReplyCache, Service, ServiceState,
    ShardedReplyCache, SnapshotService,
};
use smr_net::memory::MemoryHub;
use smr_net::tcp::{TcpClientListener, TcpReplicaNetwork};
use smr_net::{ClientEndpoint, ClientListener, NetError, ReplicaNetwork};
use smr_types::{ClientId, ClusterConfig, ReplicaId, RequestId, SeqNum, SnapshotError};
use smr_wire::{ClientMsg, Codec, Request};

use crate::tcp_client::PolledTcp;
use crate::trace::{TracedCache, TracedListener, TracedNet, Tracer};
use crate::workload::{Mix, Transport, Workload};

/// Replicas per cluster.
pub const N: usize = 3;

/// Opens a client connection to a replica.
pub type Connector =
    Arc<dyn Fn(ReplicaId) -> Result<Box<dyn ClientEndpoint>, NetError> + Send + Sync>;

/// The service a replica runs, shared with the benchmark so it can read
/// the state hash after the run. With a tracer it records a
/// `service.execute` span per request.
struct Handle<S> {
    service: Arc<Mutex<S>>,
    trace: Option<(Arc<Tracer>, ReplicaId)>,
}

impl<S: Service> Service for Handle<S> {
    fn execute(&mut self, request: &[u8]) -> Vec<u8> {
        let mut s = self.service.lock().expect("service lock poisoned");
        match &self.trace {
            None => s.execute(request),
            Some((t, me)) => {
                let open = t.begin();
                let r = s.execute(request);
                t.end(open, "service.execute", *me, 0);
                r
            }
        }
    }
}

impl<S: ServiceState> ServiceState for Handle<S> {
    fn state_hash(&self) -> u64 {
        self.service
            .lock()
            .expect("service lock poisoned")
            .state_hash()
    }
}

impl<S: SnapshotService> SnapshotService for Handle<S> {
    fn snapshot(&self) -> Vec<u8> {
        self.service
            .lock()
            .expect("service lock poisoned")
            .snapshot()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        self.service
            .lock()
            .expect("service lock poisoned")
            .restore(bytes)
    }
}

/// Reads a service's state hash through the benchmark's own handle.
trait StateProbe: Send + Sync {
    fn hash(&self) -> u64;
}

impl<S: ServiceState + Send> StateProbe for Mutex<S> {
    fn hash(&self) -> u64 {
        self.lock().expect("service lock poisoned").state_hash()
    }
}

fn free_addrs(n: usize) -> std::io::Result<Vec<SocketAddr>> {
    let listeners = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<std::io::Result<Vec<_>>>()?;
    listeners.iter().map(TcpListener::local_addr).collect()
}

/// A running cluster.
pub struct Cluster {
    pub replicas: Vec<Replica>,
    hub: Option<MemoryHub>,
    client_addrs: Vec<SocketAddr>,
    probes: Vec<Arc<dyn StateProbe>>,
    data_dir: Option<PathBuf>,
    crashed: Option<ReplicaId>,
}

impl Cluster {
    /// Starts the replicas of `w`. `data_dir` must be given when the
    /// workload keeps a WAL.
    pub fn start(
        w: &Workload,
        tracer: Option<&Arc<Tracer>>,
        data_dir: Option<PathBuf>,
    ) -> Result<Cluster, String> {
        let config = ClusterConfig::new(N);
        let hub = (w.transport == Transport::Memory).then(|| MemoryHub::new(N, 0xC0FF_EE00));
        let peer_addrs = match w.transport {
            Transport::Tcp => free_addrs(N).map_err(|e| format!("free ports: {e}"))?,
            Transport::Memory => Vec::new(),
        };
        let mut replicas = Vec::with_capacity(N);
        let mut probes: Vec<Arc<dyn StateProbe>> = Vec::with_capacity(N);
        let mut client_addrs = Vec::new();
        for id in config.replicas() {
            let (network, listener): (Arc<dyn ReplicaNetwork>, Box<dyn ClientListener>) = match &hub
            {
                Some(hub) => (
                    Arc::new(hub.replica_network(id)),
                    Box::new(hub.client_listener(id)),
                ),
                None => {
                    let net = TcpReplicaNetwork::bind(id, peer_addrs.clone())
                        .map_err(|e| format!("bind replica {id}: {e}"))?;
                    let listener =
                        TcpClientListener::bind("127.0.0.1:0".parse().expect("loopback address"))
                            .map_err(|e| format!("bind client port {id}: {e}"))?;
                    client_addrs.push(
                        listener
                            .local_addr()
                            .map_err(|e| format!("client address: {e}"))?,
                    );
                    (Arc::new(net), Box::new(listener))
                }
            };
            let mut b = ReplicaBuilder::new(id, config.clone());
            match tracer {
                None => {
                    b = b.with_network(network).with_client_listener(listener);
                }
                Some(t) => {
                    let cache: Arc<dyn ReplyCache> =
                        Arc::new(ShardedReplyCache::new(config.reply_cache_shards()));
                    b = b
                        .with_network(Arc::new(TracedNet {
                            inner: network,
                            me: id,
                            tracer: Arc::clone(t),
                        }))
                        .with_client_listener(Box::new(TracedListener {
                            inner: listener,
                            me: id,
                            tracer: Arc::clone(t),
                        }))
                        .with_reply_cache(Arc::new(TracedCache {
                            inner: cache,
                            me: id,
                            tracer: Arc::clone(t),
                        }));
                }
            }
            let trace = tracer.map(|t| (Arc::clone(t), id));
            b = match w.mix {
                Mix::Null => {
                    let s = Arc::new(Mutex::new(NullService::default()));
                    probes.push(s.clone());
                    b.with_service(Box::new(Handle { service: s, trace }))
                }
                Mix::Kv { .. } => {
                    let s = Arc::new(Mutex::new(KvService::new()));
                    probes.push(s.clone());
                    let handle = Handle { service: s, trace };
                    if w.wal {
                        b.with_snapshot_service(Box::new(handle))
                    } else {
                        b.with_service(Box::new(handle))
                    }
                }
            };
            if w.wal {
                let dir = data_dir
                    .as_ref()
                    .ok_or("a WAL workload needs a data directory")?;
                b = b.with_durability(dir.join(format!("replica-{}", id.0)));
            }
            replicas.push(b.start().map_err(|e| format!("replica {id}: {e}"))?);
        }
        Ok(Cluster {
            replicas,
            hub,
            client_addrs,
            probes,
            data_dir,
            crashed: None,
        })
    }

    /// A connector the generator uses to (re)open connections.
    pub fn connector(&self) -> Connector {
        match &self.hub {
            Some(hub) => {
                let hub = hub.clone();
                Arc::new(move |r: ReplicaId| {
                    hub.connect_client(r)
                        .map(|ep| Box::new(ep) as Box<dyn ClientEndpoint>)
                })
            }
            None => {
                let addrs = self.client_addrs.clone();
                Arc::new(move |r: ReplicaId| {
                    PolledTcp::connect(addrs[r.index()])
                        .map(|ep| Box::new(ep) as Box<dyn ClientEndpoint>)
                })
            }
        }
    }

    /// The replica that leads, among those not crashed.
    pub fn leader(&self) -> Option<ReplicaId> {
        self.replicas
            .iter()
            .find(|r| Some(r.id()) != self.crashed && r.shared().is_leader())
            .map(Replica::id)
    }

    /// Isolates `replica` from its peers (`MemoryHub::isolate`, as
    /// `InProcessCluster::crash` does): its threads keep running, but the
    /// others must elect a new leader.
    pub fn crash(&mut self, replica: ReplicaId) {
        if let Some(hub) = &self.hub {
            hub.isolate(replica, true);
            self.crashed = Some(replica);
        }
    }

    /// State hashes of the replicas that were not crashed.
    pub fn live_hashes(&self) -> Vec<u64> {
        self.probes
            .iter()
            .enumerate()
            .filter(|(i, _)| Some(ReplicaId(*i as u16)) != self.crashed)
            .map(|(_, p)| p.hash())
            .collect()
    }

    /// Waits until every live replica reports the same state hash, and
    /// returns it; `Err` with the hashes when they still differ at the
    /// deadline.
    pub fn await_agreement(&self, within: Duration) -> Result<u64, Vec<u64>> {
        let deadline = Instant::now() + within;
        loop {
            let h = self.live_hashes();
            if h.windows(2).all(|w| w[0] == w[1]) {
                return Ok(h[0]);
            }
            if Instant::now() >= deadline {
                return Err(h);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    pub fn shutdown(self) {
        for r in self.replicas {
            r.shutdown();
        }
        if let Some(hub) = self.hub {
            hub.shutdown();
        }
        if let Some(dir) = self.data_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Sends one probe request as client `probe` until it is answered
/// correctly, following redirects; errors after `within`.
pub fn first_reply(
    connect: &Connector,
    mix: Mix,
    probe: u64,
    within: Duration,
) -> Result<(), String> {
    let payload = match mix {
        Mix::Null => vec![0u8; crate::workload::NULL_REQUEST],
        // A key no logical client owns: the reply is "absent" and the
        // state is left alone.
        Mix::Kv { .. } => KvService::get(b"probe"),
    };
    let expected: Vec<u8> = match mix {
        Mix::Null => vec![0; 8],
        Mix::Kv { .. } => vec![0],
    };
    let id = RequestId::new(ClientId(probe), SeqNum(0));
    let frame = ClientMsg::Request(Request::new(id, payload)).encode_to_vec();
    let deadline = Instant::now() + within;
    let mut target = ReplicaId(0);
    while Instant::now() < deadline {
        let Ok(mut ep) = connect(target) else {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        };
        if ep.send(frame.clone()).is_err() {
            continue;
        }
        let try_until = Instant::now() + Duration::from_millis(250);
        while Instant::now() < try_until {
            match ep.recv_timeout(Duration::from_millis(10)) {
                Ok(Some(f)) => match ClientMsg::decode(&f) {
                    Ok(ClientMsg::Reply(r)) if r.id == id => {
                        return if r.payload == expected {
                            Ok(())
                        } else {
                            Err(format!("probe got a wrong reply {:?}", r.payload))
                        };
                    }
                    Ok(ClientMsg::Redirect { leader }) => {
                        target = leader.unwrap_or(ReplicaId((target.0 + 1) % N as u16));
                        std::thread::sleep(Duration::from_millis(1));
                        break;
                    }
                    _ => {}
                },
                Ok(None) => {}
                Err(_) => break,
            }
        }
    }
    Err("no reply to the set-up probe".into())
}
