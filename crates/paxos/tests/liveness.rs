//! Liveness-oriented scenario tests: the protocol keeps making progress
//! through cascaded view changes, log truncation, and long runs.

use smr_paxos::{Action, Event, PaxosReplica, ReplicaRole, Target};
use smr_types::{ClientId, ClusterConfig, ReplicaId, RequestId, SeqNum, Slot, View};
use smr_wire::{Batch, ProtocolMsg, Request};

fn batch(tag: u64) -> Batch {
    Batch::new(vec![Request::new(
        RequestId::new(ClientId(tag), SeqNum(0)),
        vec![0u8; 16],
    )])
}

/// Synchronous lossless cluster pump (like the unit-test harness, but
/// reusable across scenario tests).
struct Net {
    replicas: Vec<PaxosReplica>,
    delivered: Vec<Vec<(Slot, Batch)>>,
    now: u64,
}

impl Net {
    fn new(n: usize, window: usize) -> Self {
        let config = ClusterConfig::builder(n).window(window).build().unwrap();
        let mut net = Net {
            replicas: (0..n as u16)
                .map(|i| PaxosReplica::new(ReplicaId(i), config.clone()))
                .collect(),
            delivered: vec![Vec::new(); n],
            now: 0,
        };
        for i in 0..n {
            net.event(ReplicaId(i as u16), Event::Init);
        }
        net
    }

    fn event(&mut self, at: ReplicaId, event: Event) {
        self.now += 1;
        let mut actions = Vec::new();
        self.replicas[at.index()].handle(event, self.now, &mut actions);
        let n = self.replicas.len();
        for a in actions {
            match a {
                Action::Send { to, msg } => {
                    let targets: Vec<ReplicaId> = match to {
                        Target::All => (0..n as u16).map(ReplicaId).filter(|r| *r != at).collect(),
                        Target::One(r) => vec![r],
                    };
                    for t in targets {
                        self.event(
                            t,
                            Event::Message {
                                from: at,
                                msg: msg.clone(),
                            },
                        );
                    }
                }
                Action::Deliver { slot, batch } => self.delivered[at.index()].push((slot, batch)),
                _ => {}
            }
        }
    }
}

#[test]
fn cascaded_view_changes_converge() {
    let mut net = Net::new(5, 10);
    let mut tag = 0;
    // Rotate leadership through every replica, ordering work in between.
    for round in 0..5u64 {
        let leader = net.replicas[0].leader();
        for _ in 0..4 {
            net.event(leader, Event::Proposal(batch(tag)));
            tag += 1;
        }
        // Everyone suspects; the next leader takes over.
        let view = View(round);
        for r in 0..5u16 {
            net.event(ReplicaId(r), Event::Suspect { view });
        }
    }
    let leader = net.replicas[0].leader();
    for _ in 0..4 {
        net.event(leader, Event::Proposal(batch(tag)));
        tag += 1;
    }
    // All replicas agree on a common prefix and delivered everything
    // that any replica delivered.
    let longest = net.delivered.iter().map(|d| d.len()).max().unwrap();
    assert!(
        longest >= tag as usize - 4,
        "nearly all proposals survived the churn"
    );
    for r in 1..5 {
        let common = net.delivered[0].len().min(net.delivered[r].len());
        assert_eq!(&net.delivered[0][..common], &net.delivered[r][..common]);
    }
}

#[test]
fn long_run_truncates_log() {
    let mut net = Net::new(3, 10);
    let mut core_retention_check = 0u64;
    for tag in 0..6_000u64 {
        net.event(ReplicaId(0), Event::Proposal(batch(tag)));
        core_retention_check = tag;
    }
    let _ = core_retention_check;
    // Retention default is 4096 slots: the log must not grow unboundedly.
    for r in 0..3 {
        assert!(
            net.replicas[r].log().len() <= 4_200,
            "replica {r} log GC'd: {} entries",
            net.replicas[r].log().len()
        );
        assert_eq!(net.delivered[r].len(), 6_000);
    }
    assert!(net.replicas[0].log().truncated_below() > Slot(1_000));
}

#[test]
fn deposed_leader_rejoins_as_follower() {
    let mut net = Net::new(3, 10);
    for tag in 0..3 {
        net.event(ReplicaId(0), Event::Proposal(batch(tag)));
    }
    net.event(ReplicaId(1), Event::Suspect { view: View(0) });
    assert_eq!(
        net.replicas[0].role(),
        ReplicaRole::Follower,
        "old leader stepped down"
    );
    assert_eq!(net.replicas[0].leader(), ReplicaId(1));
    // The old leader's stale proposal is rejected by peers and dropped.
    net.event(ReplicaId(0), Event::Proposal(batch(99)));
    assert!(net.replicas[0].dropped_proposals() > 0);
    // New leader orders on.
    for tag in 3..6 {
        net.event(ReplicaId(1), Event::Proposal(batch(tag)));
    }
    assert_eq!(net.delivered[0].len(), 6);
}

#[test]
fn window_reopens_after_decides() {
    let config = ClusterConfig::builder(3).window(3).build().unwrap();
    let mut leader = PaxosReplica::new(ReplicaId(0), config);
    let mut out = Vec::new();
    leader.handle(Event::Init, 0, &mut out);
    out.clear();
    for tag in 0..3 {
        leader.handle(Event::Proposal(batch(tag)), 0, &mut out);
    }
    assert!(!leader.window_open());
    // One accept decides slot 0 (majority = leader + 1).
    leader.handle(
        Event::Message {
            from: ReplicaId(1),
            msg: ProtocolMsg::Accept {
                view: View(0),
                slot: Slot(0),
                decided_upto: Slot(1),
            },
        },
        1,
        &mut out,
    );
    assert_eq!(leader.in_flight(), 2);
    assert!(leader.window_open(), "window reopened after the decide");
}

#[test]
fn heartbeats_advance_follower_knowledge() {
    let config = ClusterConfig::new(3);
    let mut follower = PaxosReplica::new(ReplicaId(1), config);
    let mut out = Vec::new();
    follower.handle(Event::Init, 0, &mut out);
    out.clear();
    follower.handle(
        Event::Message {
            from: ReplicaId(0),
            msg: ProtocolMsg::Heartbeat {
                view: View(0),
                decided_upto: Slot(0),
            },
        },
        1,
        &mut out,
    );
    assert!(
        out.iter().all(|a| !matches!(a, Action::Send { .. })),
        "nothing to catch up"
    );
}
