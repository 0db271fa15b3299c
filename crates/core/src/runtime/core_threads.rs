//! ReplicationCore threads (§V-C): Batcher, Protocol, FailureDetector,
//! and Retransmitter.

use std::collections::HashMap;
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::time::{Duration, Instant};

use smr_metrics::ThreadState;
use smr_paxos::{Action, BatchBuilder, Event, PaxosReplica};
use smr_queue::{BoundedQueue, PopError, PushError};
use smr_types::{RequestId, Slot, View};
use smr_wire::{Batch, ProtocolMsg, Request};

use super::stage::{batch_key, BatchStamp, StageClock};
use super::{Ctx, Decision, RetransmitEntry};

/// Most requests the Batcher moves out of the RequestQueue per lock
/// acquisition.
const REQUEST_BURST: usize = 1024;

/// Most events the Protocol thread drains from the DispatcherQueue
/// between pipelining-window checks.
const EVENT_BURST: usize = 256;

/// How often the Protocol thread feeds `Event::Tick` (catch-up and
/// view-change timers) to the Paxos core; also the longest it blocks.
const TICK_EVERY: Duration = Duration::from_millis(25);

/// One item on the DispatcherQueue, the Protocol thread's only wake
/// source.
#[derive(Debug)]
pub(crate) enum Dispatch {
    /// A peer message or a failure-detector suspicion for the Paxos core.
    Event(Event),
    /// The Batcher pushed to the ProposalQueue; deduplicated by
    /// [`ProposalToken`].
    ProposalReady,
}

/// Keeps `Dispatch::ProposalReady` to one outstanding token. The Batcher
/// raises it after each ProposalQueue push and posts a token only if it
/// was down; the Protocol thread lowers it *before* each ProposalQueue
/// drain. A batch pushed after the drain's last look therefore finds
/// the flag down and posts a fresh token: no wake is lost, and a burst
/// of batches costs one DispatcherQueue push.
#[derive(Debug, Default)]
pub(crate) struct ProposalToken(AtomicBool);

impl ProposalToken {
    /// Producer side, after a ProposalQueue push: posts a token unless
    /// one is outstanding. A full DispatcherQueue needs none (the
    /// Protocol thread has work queued and drains proposals before it
    /// next blocks). `Err(())` once the queue has closed.
    pub(crate) fn post(&self, dispatcher_q: &BoundedQueue<Dispatch>) -> Result<(), ()> {
        fence(Ordering::SeqCst);
        if self.0.swap(true, Ordering::SeqCst) {
            return Ok(());
        }
        match dispatcher_q.try_push(Dispatch::ProposalReady) {
            Ok(()) | Err(PushError::Full(_)) => Ok(()),
            Err(PushError::Closed(_)) => Err(()),
        }
    }

    /// Consumer side, before draining the ProposalQueue.
    pub(crate) fn lower(&self) {
        self.0.store(false, Ordering::SeqCst);
        fence(Ordering::SeqCst);
    }
}

/// One item on the RequestQueue, the Batcher's only wake source.
#[derive(Debug)]
pub(crate) enum Intake {
    /// A client request and its intake stamp (0 when stage metrics are
    /// off).
    Request(Request, u64),
    /// The leader has nothing in flight: seal the open batch (see
    /// [`SealDemand`]).
    Seal,
}

/// The Protocol thread's demand for the open batch: Nagle's rule for the
/// ordering pipeline, so a batch holds the requests that arrive during
/// one consensus round trip. The Protocol thread raises it after each
/// ProposalQueue drain while its window is open with nothing in flight,
/// and lowers it otherwise. The Batcher takes it at the end of a drain
/// with a batch open, and lowers it before every ProposalQueue push, so
/// a demand raised after that push is not lost.
///
/// Before it blocks with a batch open, the Batcher stores `batch_open`,
/// fences and re-checks the demand; raising the demand from down, the
/// Protocol thread fences and checks `batch_open`, and posts one
/// [`Intake::Seal`] if it is set. One of the two sees the other's
/// store, so a raise never leaves an open batch to its timeout.
#[derive(Debug, Default)]
pub(crate) struct SealDemand {
    demand: AtomicBool,
    batch_open: AtomicBool,
}

impl SealDemand {
    /// Protocol side, after each ProposalQueue drain: `idle` is "window
    /// open and nothing in flight". A full RequestQueue needs no `Seal`
    /// (the Batcher has work and checks the demand when its drain ends).
    /// `Err(())` once the queue has closed.
    pub(crate) fn update(&self, idle: bool, request_q: &BoundedQueue<Intake>) -> Result<(), ()> {
        if !idle {
            self.demand.store(false, Ordering::SeqCst);
            return Ok(());
        }
        if self.demand.swap(true, Ordering::SeqCst) {
            return Ok(());
        }
        fence(Ordering::SeqCst);
        if !self.batch_open.load(Ordering::SeqCst) {
            return Ok(());
        }
        match request_q.try_push(Intake::Seal) {
            Ok(()) | Err(PushError::Full(_)) => Ok(()),
            Err(PushError::Closed(_)) => Err(()),
        }
    }

    /// Batcher side, with a batch open: whether to seal it now. Takes
    /// (lowers) the demand.
    pub(crate) fn take(&self) -> bool {
        self.demand.swap(false, Ordering::SeqCst)
    }

    /// Batcher side, before every ProposalQueue push.
    pub(crate) fn lower(&self) {
        self.demand.store(false, Ordering::SeqCst);
    }

    /// Batcher side, just before it blocks: publishes whether a batch is
    /// open and, if one is, whether a demand is up after all.
    pub(crate) fn park(&self, open: bool) -> bool {
        self.batch_open.store(open, Ordering::SeqCst);
        if !open {
            return false;
        }
        fence(Ordering::SeqCst);
        self.demand.load(Ordering::SeqCst)
    }
}

/// The Batcher thread (§V-C1): drains the RequestQueue into batches
/// according to the batching policy and feeds the ProposalQueue. Bursts
/// move under one RequestQueue lock acquisition, and every batch they
/// complete is handed to the ProposalQueue in one bulk push.
///
/// A batch closes when it reaches `BSZ`; else when the Protocol thread
/// demands it ([`SealDemand`]: the leader has nothing in flight); else
/// when its timeout expires. The `batcher.sealed_{size,demand,timeout}`
/// counters record which rule closed each batch.
///
/// Each request arrives paired with its intake stamp; the stamp of the
/// request that *opens* a batch becomes the batch's intake time, and
/// sealing records the intake → sealed transition.
///
/// With a batch open the Batcher waits at most until its deadline;
/// with none it blocks until a request arrives or the queue closes.
/// After each ProposalQueue push it posts the Protocol thread's
/// [`ProposalToken`], and after each drain it rings ClientIO threads
/// holding requests parked on the full RequestQueue.
pub(crate) fn run_batcher(ctx: &Ctx) {
    let handle = ctx.metrics.register_thread("Batcher");
    let sealed_size = ctx.metrics.counter("batcher.sealed_size");
    let sealed_demand = ctx.metrics.counter("batcher.sealed_demand");
    let sealed_timeout = ctx.metrics.counter("batcher.sealed_timeout");
    let mut builder = BatchBuilder::new(ctx.config.batch());
    let mut burst: Vec<Intake> = Vec::new();
    let mut completed: Vec<(Batch, BatchStamp)> = Vec::new();
    // Intake stamp of the batch currently open in the builder.
    let mut open_intake = 0u64;
    loop {
        let popped = match builder.next_deadline() {
            Some(deadline) => {
                let wait = deadline.saturating_sub(ctx.shared.now_ns()).max(1);
                ctx.request_q.pop_wait_all_with(
                    &mut burst,
                    REQUEST_BURST,
                    Duration::from_nanos(wait),
                    &handle,
                )
            }
            None => ctx
                .request_q
                .pop_all_with(&mut burst, REQUEST_BURST, &handle),
        };
        match popped {
            Ok(_) => {
                // The drain freed RequestQueue space: wake ClientIO
                // threads that parked requests on it. The count was
                // raised before their pre-park retry, so either that
                // retry saw this space or this load sees the count.
                if ctx.parked_requests.load(Ordering::SeqCst) > 0 {
                    for waker in &ctx.io_wakers {
                        waker.ring_if_parked();
                    }
                }
                let now = ctx.shared.now_ns();
                for item in burst.drain(..) {
                    let Intake::Request(req, intake_ns) = item else {
                        continue; // Seal: a wake; the demand is taken below
                    };
                    if builder.pending_len() == 0 {
                        open_intake = intake_ns;
                    }
                    if let Some(batch) = builder.push(req, now) {
                        sealed_size.inc();
                        completed.push((
                            batch,
                            BatchStamp {
                                intake_ns: open_intake,
                                sealed_ns: now,
                            },
                        ));
                        if builder.pending_len() > 0 {
                            // The request overflowed the previous batch
                            // and opened the next one: it owns the new
                            // batch's intake stamp.
                            open_intake = intake_ns;
                        }
                    }
                }
            }
            Err(PopError::Empty) => {}
            Err(PopError::Closed) => return,
        }
        loop {
            let now = ctx.shared.now_ns();
            let partial = if builder.pending_len() > 0 && ctx.seal_demand.take() {
                sealed_demand.inc();
                builder.flush()
            } else {
                let batch = builder.poll_timeout(now);
                if batch.is_some() {
                    sealed_timeout.inc();
                }
                batch
            };
            if let Some(batch) = partial {
                let stamp = BatchStamp {
                    intake_ns: open_intake,
                    sealed_ns: now,
                };
                completed.push((batch, stamp));
            }
            if !completed.is_empty() {
                ctx.seal_demand.lower();
                for (_, stamp) in &completed {
                    ctx.stage.record_sealed(*stamp);
                }
                if ctx
                    .proposal_q
                    .push_many_with(completed.drain(..), &handle)
                    .is_err()
                    || ctx.proposal_ready.post(&ctx.dispatcher_q).is_err()
                {
                    return;
                }
            }
            // A demand raised since the take above is seen here or
            // posts a Seal that ends the coming block.
            if !ctx.seal_demand.park(builder.pending_len() > 0) {
                break;
            }
        }
    }
}

/// The Protocol thread (§V-C2): the single-threaded event loop around the
/// pure Paxos state machine. Owns the log; everything it publishes goes
/// through queues or the shared atomics. It blocks only on the
/// DispatcherQueue, until the next tick at the latest; the Batcher's
/// [`ProposalToken`] wakes it for proposals. After each proposal drain
/// it updates the Batcher's [`SealDemand`].
pub(crate) fn run_protocol(ctx: &Ctx) {
    let handle = ctx.metrics.register_thread("Protocol");
    // Catch-up queries for compacted history no snapshot covers: the
    // asker is stranded behind this replica's `KeepSlots` horizon.
    let unserved = ctx.metrics.counter("protocol.catchup_unserved");
    let mut unserved_seen = 0;
    let mut core = PaxosReplica::new(ctx.me, ctx.config.clone());
    core.set_compaction(ctx.compaction);
    let mut actions = Vec::new();
    let mut deliveries: Vec<Decision> = Vec::new();
    let mut events: Vec<Dispatch> = Vec::new();
    // Stage clocks of batches this replica proposed, keyed by the
    // batch's first request id and tagged with the slot the proposal
    // took; probed when the decision comes back as a `Deliver`. Cleared
    // on leader change (a dethroned leader's un-decided proposals would
    // otherwise linger) and swept against the applied watermark when it
    // advances — a batch whose delivery this replica observed via a
    // snapshot install or catch-up fast-forward never produces a
    // `Deliver` action, so without the sweep its entry would sit in the
    // map for the leader's whole lifetime.
    let mut pending_clocks: HashMap<RequestId, (Slot, StageClock)> = HashMap::new();
    core.handle(Event::Init, ctx.shared.now_ns(), &mut actions);
    if apply_actions(ctx, &mut actions, &mut deliveries, &mut pending_clocks).is_err() {
        return;
    }
    // The ServiceManager publishes snapshots through the SnapshotStore;
    // the watermark atomic is the Protocol thread's cue to fast-forward
    // past recovered state and compact the in-memory log.
    let mut seen_watermark = ctx.snapshots.watermark();
    if seen_watermark > Slot::ZERO {
        core.note_snapshot(seen_watermark);
        publish(ctx, &core);
    }
    let mut next_tick = Instant::now() + TICK_EVERY;
    loop {
        if ctx.is_shutdown() {
            return;
        }
        let watermark = ctx.snapshots.watermark();
        if watermark > seen_watermark {
            seen_watermark = watermark;
            sweep_pending_clocks(&mut pending_clocks, watermark);
            core.note_snapshot(watermark);
            if apply_actions(ctx, &mut actions, &mut deliveries, &mut pending_clocks).is_err() {
                return;
            }
            publish(ctx, &core);
        }
        // Tick before the proposal drain, so nothing between the drain
        // and the block below can reopen the window unseen.
        let now = Instant::now();
        if now >= next_tick {
            next_tick = now + TICK_EVERY;
            core.handle(Event::Tick, ctx.shared.now_ns(), &mut actions);
            if apply_actions(ctx, &mut actions, &mut deliveries, &mut pending_clocks).is_err() {
                return;
            }
        }
        // Pull proposals whenever the pipelining window has room. The
        // Batcher prepares batches concurrently (§V-C1), so starting a new
        // ballot is one queue pop, not a batch construction. This stays a
        // per-item pop on purpose: the window check gates every proposal.
        // With the window shut the token stays as it is: nothing here
        // needs a wake until a peer's reply (a DispatcherQueue event)
        // reopens it, and the next pass drains then.
        if core.window_open() {
            ctx.proposal_ready.lower();
        }
        while core.window_open() {
            match ctx.proposal_q.try_pop() {
                Ok((batch, stamp)) => {
                    let now = ctx.shared.now_ns();
                    if ctx.stage.enabled {
                        let clock = ctx.stage.record_proposed(stamp, now);
                        if let Some(key) = batch_key(&batch) {
                            // window_open() held above, so handle() will
                            // propose this batch immediately into
                            // exactly next_slot() — tag the entry with
                            // it so the watermark sweep can tell which
                            // proposals a snapshot has overtaken.
                            pending_clocks.insert(key, (core.next_slot(), clock));
                        }
                    }
                    core.handle(Event::Proposal(batch), now, &mut actions);
                    if apply_actions(ctx, &mut actions, &mut deliveries, &mut pending_clocks)
                        .is_err()
                    {
                        return;
                    }
                    publish(ctx, &core);
                }
                Err(PopError::Empty) => break,
                Err(PopError::Closed) => return,
            }
        }
        // With the window open and nothing in flight, the open batch
        // would only wait out its timeout: demand it now.
        if ctx
            .seal_demand
            .update(core.window_open() && core.in_flight() == 0, &ctx.request_q)
            .is_err()
        {
            return;
        }
        // Drain the DispatcherQueue in bulk between window checks: one
        // lock acquisition moves the whole burst of peer messages.
        match ctx.dispatcher_q.pop_wait_all_with(
            &mut events,
            EVENT_BURST,
            next_tick.saturating_duration_since(Instant::now()),
            &handle,
        ) {
            Ok(_) => {
                for item in events.drain(..) {
                    let Dispatch::Event(event) = item else {
                        continue; // ProposalReady: the next pass drains
                    };
                    // A service that cannot restore a snapshot must not
                    // install one: drop peer snapshots on the floor and
                    // keep catching up slot by slot.
                    if !ctx.snapshot_capable
                        && matches!(
                            &event,
                            Event::Message {
                                msg: ProtocolMsg::Snapshot { .. },
                                ..
                            }
                        )
                    {
                        continue;
                    }
                    core.handle(event, ctx.shared.now_ns(), &mut actions);
                    if apply_actions(ctx, &mut actions, &mut deliveries, &mut pending_clocks)
                        .is_err()
                    {
                        return;
                    }
                }
                unserved.add(core.unserved_catchups() - unserved_seen);
                unserved_seen = core.unserved_catchups();
                publish(ctx, &core);
            }
            Err(PopError::Empty) => {}
            Err(PopError::Closed) => return,
        }
    }
}

fn publish(ctx: &Ctx, core: &PaxosReplica) {
    ctx.shared.set_decided_upto(core.decided_upto());
}

/// Carries out the state machine's actions. `deliveries` is a reusable
/// scratch buffer: `Deliver` decisions and snapshot installs are staged
/// there (relative order preserved) and handed to the DecisionQueue in
/// one bulk push per action batch. `pending_clocks` tracks the stage
/// clocks of locally proposed batches; a delivery of one of them
/// records proposed → decided and forwards the clock with the decision.
/// Returns `Err(())` when the replica is shutting down.
fn apply_actions(
    ctx: &Ctx,
    actions: &mut Vec<Action>,
    deliveries: &mut Vec<Decision>,
    pending_clocks: &mut HashMap<RequestId, (Slot, StageClock)>,
) -> Result<(), ()> {
    for action in actions.drain(..) {
        match action {
            Action::Send { to, msg } => ctx.send(to, &msg),
            Action::Deliver { slot, batch } => {
                // Follower deliveries (and anything proposed before a
                // leader change) have no clock entry and ride as `None`.
                let clock = batch_key(&batch)
                    .and_then(|key| pending_clocks.remove(&key))
                    .map(|(_, clock)| ctx.stage.record_decided(clock, ctx.shared.now_ns()));
                deliveries.push(Decision::Apply(slot, batch, clock));
            }
            Action::SendSnapshot { to } => {
                // Materialize the newest published snapshot; nothing to
                // send if none exists yet (the peer falls back to slot
                // catch-up from other replicas).
                if let Some(blob) = ctx.snapshots.latest() {
                    ctx.send(
                        to,
                        &ProtocolMsg::Snapshot {
                            applied_upto: blob.applied_upto,
                            state_hash: blob.state_hash,
                            state: blob.state.clone(),
                        },
                    );
                }
            }
            Action::InstallSnapshot { snapshot } => {
                deliveries.push(Decision::Install(snapshot));
            }
            Action::ScheduleRetransmit { key, to, msg } => {
                let entry = RetransmitEntry {
                    key,
                    to,
                    msg,
                    attempt: 0,
                };
                let deadline = Instant::now() + ctx.config.retransmit().interval(0);
                let cancel = ctx.timers.schedule(deadline, entry);
                if let Some(old) = ctx.retransmits.lock().insert(key, cancel) {
                    old.cancel();
                }
            }
            Action::CancelRetransmit { key } => {
                if let Some(cancel) = ctx.retransmits.lock().remove(&key) {
                    cancel.cancel();
                }
            }
            Action::CancelAllRetransmits => {
                for (_, cancel) in ctx.retransmits.lock().drain() {
                    cancel.cancel();
                }
            }
            Action::LeaderChanged { view, leader } => {
                pending_clocks.clear();
                ctx.shared.set_view(view, leader, ctx.me);
            }
        }
    }
    if !deliveries.is_empty() && ctx.decision_q.push_many(deliveries.drain(..)).is_err() {
        return Err(());
    }
    Ok(())
}

/// Drops pending stage clocks for proposals the applied watermark has
/// overtaken. `applied_upto` is exclusive (the snapshot covers slots
/// `< applied_upto`): a proposal in a covered slot was delivered through
/// the snapshot-install or catch-up fast-forward path, which never emits
/// the `Action::Deliver` that would otherwise remove its entry — so on a
/// long-lived leader whose followers recover via snapshots, the map
/// would grow without bound.
fn sweep_pending_clocks(
    pending_clocks: &mut HashMap<RequestId, (Slot, StageClock)>,
    applied_upto: Slot,
) {
    pending_clocks.retain(|_, (slot, _)| *slot >= applied_upto);
}

/// The Retransmitter thread (§V-C4): re-sends messages whose timers
/// expire uncancelled, with exponential backoff.
pub(crate) fn run_retransmitter(ctx: &Ctx) {
    let handle = ctx.metrics.register_thread("Retransmitter");
    loop {
        if ctx.is_shutdown() {
            return;
        }
        let expired = {
            let _g = handle.enter(ThreadState::Waiting);
            ctx.timers.next_expired(Duration::from_millis(100))
        };
        let Some(fired) = expired else {
            if ctx.is_shutdown() {
                return;
            }
            continue;
        };
        let entry = fired.value;
        // Skip zombies: the Protocol thread may have cancelled between
        // expiry and now.
        {
            let mut map = ctx.retransmits.lock();
            if !map.contains_key(&entry.key) {
                continue;
            }
            let attempt = entry.attempt + 1;
            let next = RetransmitEntry {
                attempt,
                ..entry.clone()
            };
            let deadline = Instant::now() + ctx.config.retransmit().interval(attempt);
            let cancel = ctx.timers.schedule(deadline, next);
            if let Some(old) = map.insert(entry.key, cancel) {
                old.cancel();
            }
        }
        ctx.send(entry.to, &entry.msg);
    }
}

/// The FailureDetector thread (§V-C3): leader side sends heartbeats on
/// idle links; follower side suspects a silent leader. Reads the
/// ReplicaIO timestamps lock-free — timestamps only grow, so a delayed
/// re-check is always safe.
pub(crate) fn run_failure_detector(ctx: &Ctx) {
    let handle = ctx.metrics.register_thread("FailureDetector");
    let heartbeat = ctx.config.heartbeat_interval();
    let suspect_after = ctx.config.suspect_timeout().as_nanos() as u64;
    let mut observed_view = View::ZERO;
    let mut view_since = ctx.shared.now_ns();
    let mut suspected: Option<View> = None;
    loop {
        {
            let _g = handle.enter(ThreadState::Other); // sleeping
            std::thread::sleep(heartbeat / 2);
        }
        if ctx.is_shutdown() {
            return;
        }
        let now = ctx.shared.now_ns();
        let view = ctx.shared.view();
        if view != observed_view {
            observed_view = view;
            view_since = now;
            suspected = None;
        }
        if ctx.shared.is_leader() {
            // Keep every follower's link warm so their detectors stay
            // quiet, but only when the link has been idle (§V-C3: the
            // ReplicaIO threads update timestamps; no heartbeat needed on
            // busy links).
            let hb = ProtocolMsg::Heartbeat {
                view,
                decided_upto: ctx.shared.decided_upto(),
            };
            for peer in ctx.config.peers(ctx.me) {
                let idle_ns = now.saturating_sub(ctx.shared.last_send_ns(peer));
                if idle_ns >= heartbeat.as_nanos() as u64 {
                    ctx.send(smr_paxos::Target::One(peer), &hb);
                }
            }
        } else {
            let leader = ctx.shared.leader();
            let last = ctx.shared.last_recv_ns(leader).max(view_since);
            if now.saturating_sub(last) > suspect_after && suspected != Some(view) {
                suspected = Some(view);
                if ctx
                    .dispatcher_q
                    .push(Dispatch::Event(Event::Suspect { view }))
                    .is_err()
                {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr_metrics::MetricsRegistry;
    use smr_types::{ClientId, SeqNum};

    fn rid(n: u64) -> RequestId {
        RequestId::new(ClientId(n), SeqNum(0))
    }

    struct Xorshift(u64);

    impl Xorshift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    /// Lost-wake stress for the proposal token: the producer posts N
    /// items with random pauses, the consumer follows the Protocol
    /// thread's rule — lower the token, drain, then block on the
    /// DispatcherQueue with *no* timeout — and must consume all N. The
    /// channel timeout is only a hang guard.
    #[test]
    fn proposal_token_loses_no_wake() {
        const N: u64 = 50_000;
        let proposals: BoundedQueue<u64> = BoundedQueue::new("ProposalQueue", 64);
        let dispatcher: BoundedQueue<Dispatch> = BoundedQueue::new("DispatcherQueue", 16);
        let token = std::sync::Arc::new(ProposalToken::default());
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let consumer = {
            let (proposals, dispatcher, token) =
                (proposals.clone(), dispatcher.clone(), token.clone());
            std::thread::spawn(move || {
                let handle = MetricsRegistry::new().register_thread("Protocol");
                let mut rng = Xorshift(0x2545_F491_4F6C_DD1D);
                let mut wakes = Vec::new();
                let mut got = 0u64;
                loop {
                    token.lower();
                    while let Ok(x) = proposals.try_pop() {
                        assert_eq!(x, got, "FIFO");
                        got += 1;
                    }
                    if got == N {
                        break;
                    }
                    // Widen the gap between the drain and the block: a
                    // batch pushed here must still post a token.
                    if rng.next() % 4 == 0 {
                        std::thread::yield_now();
                    }
                    wakes.clear();
                    dispatcher
                        .pop_all_with(&mut wakes, 16, &handle)
                        .expect("dispatcher stays open");
                }
                done_tx.send(got).unwrap();
            })
        };
        // Mostly no pause, some yields, a few sleeps long enough for the
        // consumer to block. The producer runs on its own thread so a
        // hung consumer (full queue) cannot hold up the hang guard.
        let producer = std::thread::spawn(move || {
            let mut rng = Xorshift(0x9E37_79B9_7F4A_7C15);
            for i in 0..N {
                proposals.push(i).unwrap();
                token.post(&dispatcher).unwrap();
                match rng.next() % 256 {
                    0 => std::thread::sleep(Duration::from_micros(50)),
                    1..=31 => std::thread::yield_now(),
                    _ => {}
                }
            }
        });
        let got = done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("consumer blocked with proposals queued: a wake was lost");
        assert_eq!(got, N);
        producer.join().unwrap();
        consumer.join().unwrap();
    }

    /// Lost-wake stress for the seal demand. Each round the Protocol side
    /// pushes a request, raises the demand at a random moment, waits for
    /// the sealed batch, then lowers the demand (a proposal is in
    /// flight). The Batcher side follows the Batcher's rule: a drained
    /// request opens a batch; it takes the demand with a batch open,
    /// publishes whether one stays open and re-checks before blocking on
    /// the RequestQueue with *no* timeout. Every raise must lead to a
    /// seal; the channel timeout is only a hang guard.
    #[test]
    fn seal_demand_loses_no_wake() {
        const N: u64 = 50_000;
        let requests: BoundedQueue<Intake> = BoundedQueue::new("RequestQueue", 4);
        let proposals: BoundedQueue<u64> = BoundedQueue::new("ProposalQueue", 4);
        let demand = std::sync::Arc::new(SealDemand::default());
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let batcher = {
            let (requests, proposals, demand) =
                (requests.clone(), proposals.clone(), demand.clone());
            std::thread::spawn(move || {
                let handle = MetricsRegistry::new().register_thread("Batcher");
                let mut rng = Xorshift(0x2545_F491_4F6C_DD1D);
                let mut wakes = Vec::new();
                let mut open = false;
                let mut sealed = 0u64;
                loop {
                    wakes.clear();
                    if requests.pop_all_with(&mut wakes, 16, &handle).is_err() {
                        return; // closed: the Protocol side is done
                    }
                    open |= wakes.iter().any(|w| matches!(w, Intake::Request(..)));
                    loop {
                        if open && demand.take() {
                            open = false;
                            if proposals.push(sealed).is_err() {
                                return;
                            }
                            sealed += 1;
                        }
                        // Widen the gap between the take and the block: a
                        // raise here must still end the block.
                        if rng.next() % 4 == 0 {
                            std::thread::yield_now();
                        }
                        if !demand.park(open) {
                            break;
                        }
                    }
                }
            })
        };
        // Mostly no pause, some yields, a few sleeps long enough for the
        // Batcher to block. The Protocol side runs on its own thread so a
        // hang cannot hold up the guard.
        let protocol = {
            let (requests, proposals) = (requests.clone(), proposals.clone());
            std::thread::spawn(move || {
                let mut rng = Xorshift(0x9E37_79B9_7F4A_7C15);
                for i in 0..N {
                    let req = Request::new(rid(i), Vec::new());
                    requests.push(Intake::Request(req, 0)).unwrap();
                    match rng.next() % 256 {
                        0 => std::thread::sleep(Duration::from_micros(50)),
                        1..=63 => std::thread::yield_now(),
                        _ => {}
                    }
                    demand.update(true, &requests).unwrap();
                    assert_eq!(proposals.pop().unwrap(), i, "one seal per raise");
                    demand.update(false, &requests).unwrap();
                }
                done_tx.send(N).unwrap();
            })
        };
        let got = done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("demand raised with a batch open and no seal: a wake was lost");
        assert_eq!(got, N);
        protocol.join().unwrap();
        requests.close();
        proposals.close();
        batcher.join().unwrap();
    }

    /// Regression for the pending-clocks leak: entries whose slot the
    /// applied watermark has overtaken (delivered via snapshot install
    /// or catch-up fast-forward, so no `Action::Deliver` ever removes
    /// them) must be swept when the watermark advances; in-flight
    /// proposals at or above the watermark must survive.
    #[test]
    fn watermark_sweep_drops_only_overtaken_clocks() {
        let mut pending: HashMap<RequestId, (Slot, StageClock)> = HashMap::new();
        for s in 0..10u64 {
            pending.insert(rid(s), (Slot(s), StageClock::default()));
        }
        // Watermark advanced to 7: slots 0..7 are covered by the
        // snapshot (exclusive bound), 7..10 are still in flight.
        sweep_pending_clocks(&mut pending, Slot(7));
        assert_eq!(pending.len(), 3);
        for s in 0..7u64 {
            assert!(!pending.contains_key(&rid(s)), "slot {s} swept");
        }
        for s in 7..10u64 {
            assert!(pending.contains_key(&rid(s)), "slot {s} retained");
        }
        // A stale (non-advancing) watermark sweeps nothing further.
        sweep_pending_clocks(&mut pending, Slot(7));
        assert_eq!(pending.len(), 3);
        // Repeated advances keep the map bounded by the window size, not
        // the leader's lifetime.
        sweep_pending_clocks(&mut pending, Slot(10));
        assert!(pending.is_empty());
    }
}
