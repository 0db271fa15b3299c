//! The ClientIO module (§V-A): the acceptor thread and the ClientIO pool.
//!
//! Each pool thread runs one readiness loop over one epoll instance (via
//! the vendored `mio` shim) and a slab of connections; the slab index is
//! the epoll token. Every connection brings a file descriptor — the
//! socket for TCP, an eventfd the client side rings for the in-memory
//! transport — so `epoll_wait` is the one thing the thread blocks on.
//! Reads drain edge-triggered readiness into the RequestQueue, replies
//! coalesce into per-connection outbound buffers flushed once per burst,
//! and slow readers get a bounded overflow queue plus writable-interest
//! re-arm instead of a blocking write.
//!
//! Everything else that hands a ClientIO thread work rings its
//! [`IoWaker`]: the acceptor (new connections), the ServiceManager
//! (replies) and the Batcher (RequestQueue space for parked requests).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::time::Duration;

use smr_metrics::ThreadState;
use smr_net::{ClientConn, ClientListener};
use smr_queue::{PopError, PushError};
use smr_wire::{ClientMsg, Codec, Reply};

use crate::reply_cache::CacheOutcome;

use super::{Ctx, Intake};

/// Token reserved for the cross-thread waker; connection tokens are slab
/// indices, which can never reach it.
const WAKER_TOKEN: mio::Token = mio::Token(usize::MAX);

/// How long the acceptor waits for a connection before re-checking the
/// shutdown flag (listeners outlive the replica, so nothing closes them
/// on shutdown).
const ACCEPT_TIMEOUT: Duration = Duration::from_millis(100);

/// Tuning knobs for the ClientIO loop
/// ([`ReplicaBuilder::with_client_io_options`]).
///
/// [`ReplicaBuilder::with_client_io_options`]: super::ReplicaBuilder::with_client_io_options
#[derive(Debug, Clone)]
pub struct EventedIoOptions {
    /// Per-connection outbound buffer cap in bytes. Replies beyond it go
    /// to the overflow queue instead of growing the buffer without bound
    /// — the slow-reader threshold.
    pub max_outbound_bytes: usize,
    /// Encoded reply frames a slow reader may accumulate in overflow
    /// before the connection is dropped.
    pub max_overflow_frames: usize,
}

impl Default for EventedIoOptions {
    fn default() -> Self {
        EventedIoOptions {
            max_outbound_bytes: 256 * 1024,
            max_overflow_frames: 1024,
        }
    }
}

/// Rings one ClientIO thread out of `epoll_wait`.
///
/// The thread marks itself parked, fences, and re-checks its inputs
/// before blocking; a producer hands over work, then calls
/// [`IoWaker::ring_if_parked`], which fences and reads the mark. One of
/// the two always sees the other, so no hand-over waits out a sleep,
/// and a busy thread costs its producers one atomic load rather than a
/// `write(2)`.
pub(crate) struct IoWaker {
    waker: mio::Waker,
    parked: AtomicBool,
}

/// One ClientIO thread's epoll instance and the waker registered on it.
pub(crate) fn readiness_loop() -> std::io::Result<(mio::Poll, IoWaker)> {
    let poll = mio::Poll::new()?;
    let waker = mio::Waker::new(poll.registry(), WAKER_TOKEN)?;
    let waker = IoWaker {
        waker,
        parked: AtomicBool::new(false),
    };
    Ok((poll, waker))
}

impl IoWaker {
    /// Wakes the thread whether or not it is parked (shutdown).
    pub(crate) fn ring(&self) {
        let _ = self.waker.wake();
    }

    /// Wakes the thread if it is parked or about to park; at most one
    /// ring per park.
    pub(crate) fn ring_if_parked(&self) {
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) && self.parked.swap(false, Ordering::SeqCst) {
            self.ring();
        }
    }

    /// Marks the thread parked. The caller must re-check every input
    /// after this and before blocking.
    fn park(&self) {
        self.parked.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
    }

    fn unpark(&self) {
        self.parked.store(false, Ordering::Relaxed);
    }
}

/// Accepts client connections and deals them to ClientIO threads
/// round-robin (§V-A). A listener with a file descriptor is parked on
/// with epoll and accepted from in bursts; one without (the in-memory
/// transport) is waited on through its own blocking accept.
pub(crate) fn run_acceptor(ctx: &Ctx, listener: Box<dyn ClientListener>) {
    let handle = ctx.metrics.register_thread("ClientAcceptor");
    let k = ctx.intake_qs.len();
    let mut next = 0usize;
    let mut deal = |conn: Box<dyn ClientConn>| -> bool {
        if ctx.intake_qs[next].push(conn).is_err() {
            return false;
        }
        ctx.io_wakers[next].ring_if_parked();
        next = (next + 1) % k;
        true
    };
    let Some(mut poll) = listener.raw_fd().and_then(|fd| {
        let poll = mio::Poll::new().ok()?;
        poll.registry()
            .register(
                &mut mio::unix::SourceFd(&fd),
                mio::Token(0),
                mio::Interest::READABLE,
            )
            .ok()?;
        Some(poll)
    }) else {
        while !ctx.is_shutdown() {
            let accepted = {
                let _g = handle.enter(ThreadState::Other); // blocked in accept
                listener.accept_timeout(ACCEPT_TIMEOUT)
            };
            match accepted {
                Ok(Some(conn)) => {
                    if !deal(conn) {
                        return;
                    }
                }
                Ok(None) => {}
                Err(_) => return,
            }
        }
        return;
    };
    let mut events = mio::Events::with_capacity(8);
    while !ctx.is_shutdown() {
        // Accept to WouldBlock (required by edge-triggering).
        loop {
            match listener.try_accept() {
                Ok(Some(conn)) => {
                    if !deal(conn) {
                        return;
                    }
                }
                Ok(None) => break,
                Err(_) => return,
            }
        }
        let _g = handle.enter(ThreadState::Other); // blocked in epoll_wait
        let _ = poll.poll(&mut events, Some(ACCEPT_TIMEOUT));
    }
}

/// One connection owned by a ClientIO thread.
struct EvConn {
    conn: Box<dyn ClientConn>,
    /// The registered readiness fd.
    fd: i32,
    /// Edge-triggered readiness: set by an event, cleared only once a
    /// read drains to empty — it survives a backpressure pause so
    /// buffered frames are not forgotten.
    readable: bool,
    /// Currently registered with writable interest (flush hit
    /// `WouldBlock` and is waiting for the client to make room).
    writable_armed: bool,
    /// Queued in `dirty` for a flush attempt this iteration.
    needs_flush: bool,
    /// A stamped request awaiting RequestQueue space (§V-E). While
    /// present the connection is not read.
    pending: Option<Intake>,
    /// Encoded reply frames that did not fit the transport's outbound
    /// buffer, drained ahead of new replies to preserve order.
    overflow: VecDeque<Vec<u8>>,
}

impl EvConn {
    /// Queues one encoded frame behind any overflow; returns false when
    /// the connection must be dropped (broken, or overflow past the cap).
    fn queue_frame(&mut self, frame: Vec<u8>, opts: &EventedIoOptions) -> bool {
        if !self.overflow.is_empty() {
            if self.overflow.len() >= opts.max_overflow_frames {
                return false; // slow reader past the drop threshold
            }
            self.overflow.push_back(frame);
            return true;
        }
        match self.conn.try_send(frame, opts.max_outbound_bytes) {
            Ok(None) => true,
            Ok(Some(refused)) => {
                self.overflow.push_back(refused);
                true
            }
            Err(_) => false,
        }
    }

    /// Moves overflow into the transport buffer and flushes it.
    /// `Ok(true)` = everything drained, `Ok(false)` = backlog remains
    /// (client not reading), `Err(())` = connection broke.
    fn flush(&mut self, opts: &EventedIoOptions) -> Result<bool, ()> {
        while let Some(frame) = self.overflow.pop_front() {
            match self.conn.try_send(frame, opts.max_outbound_bytes) {
                Ok(None) => {}
                Ok(Some(refused)) => {
                    self.overflow.push_front(refused);
                    break;
                }
                Err(_) => return Err(()),
            }
        }
        match self.conn.flush_out() {
            Ok(drained) => Ok(drained && self.overflow.is_empty()),
            Err(_) => Err(()),
        }
    }
}

/// One thread of the ClientIO pool: owns a subset of connections, decodes
/// requests, probes the reply cache, forwards to the Batcher, and writes
/// replies handed over by the ServiceManager. `poll` carries the
/// thread's [`IoWaker`] registration under [`WAKER_TOKEN`].
pub(crate) fn run_client_io(ctx: &Ctx, index: usize, mut poll: mio::Poll, opts: &EventedIoOptions) {
    let handle = ctx.metrics.register_thread(format!("ClientIO-{index}"));
    let waker = &ctx.io_wakers[index];
    let polls = ctx.metrics.counter("client_io.polls");
    let mut slots: Vec<Option<EvConn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut by_id: HashMap<u64, usize> = HashMap::new();
    // Work lists, all holding slab indices. An index may go stale when
    // its connection dies; scans skip empty slots, and `kill` purges the
    // lists eagerly so a recycled slot is never misattributed.
    let mut read_list: Vec<usize> = Vec::new(); // conns with readable set
    let mut parked: Vec<usize> = Vec::new(); // conns holding a pending request
    let mut dirty: Vec<usize> = Vec::new(); // conns needing a flush attempt
    let mut dead: Vec<usize> = Vec::new();
    let mut adopted: Vec<Box<dyn ClientConn>> = Vec::new();
    let mut replies: Vec<(u64, Reply)> = Vec::new();
    let mut events = mio::Events::with_capacity(256);

    while !ctx.is_shutdown() {
        // 1. Adopt newly accepted connections dealt by the acceptor. A
        // connection without a readiness fd could never wake this
        // thread, so it is refused (dropped).
        if ctx.intake_qs[index].try_pop_all(&mut adopted).is_ok() {
            for conn in adopted.drain(..) {
                let Some(fd) = conn.raw_fd() else {
                    continue;
                };
                let slot = free.pop().unwrap_or_else(|| {
                    slots.push(None);
                    slots.len() - 1
                });
                if poll
                    .registry()
                    .register(
                        &mut mio::unix::SourceFd(&fd),
                        mio::Token(slot),
                        mio::Interest::READABLE,
                    )
                    .is_err()
                {
                    free.push(slot);
                    continue;
                }
                by_id.insert(conn.id(), slot);
                slots[slot] = Some(EvConn {
                    conn,
                    fd,
                    // Conservatively readable: frames may have arrived
                    // before registration; the first drain settles it.
                    readable: true,
                    writable_armed: false,
                    needs_flush: false,
                    pending: None,
                    overflow: VecDeque::new(),
                });
                read_list.push(slot);
            }
        }

        // 2. Coalesce replies queued by the ServiceManager into the
        // per-connection outbound buffers (flushed in phase 5).
        match ctx.reply_qs[index].try_pop_all(&mut replies) {
            Ok(_) => {
                for (conn_id, reply) in replies.drain(..) {
                    let Some(&slot) = by_id.get(&conn_id) else {
                        continue; // client departed
                    };
                    let Some(st) = slots[slot].as_mut() else {
                        continue;
                    };
                    let frame = ClientMsg::Reply(reply).encode_to_vec();
                    if !st.queue_frame(frame, opts) {
                        dead.push(slot);
                    } else if !st.needs_flush {
                        st.needs_flush = true;
                        dirty.push(slot);
                    }
                }
            }
            Err(PopError::Empty) => {}
            Err(PopError::Closed) => return,
        }

        // 3. Retry requests parked on a full RequestQueue (§V-E).
        if retry_parked(ctx, &mut slots, &mut parked).is_err() {
            return;
        }

        // 4. Reads: connections flagged readable by an edge.
        let mut i = 0;
        while i < read_list.len() {
            let slot = read_list[i];
            let Some(st) = slots[slot].as_ref() else {
                read_list.swap_remove(i);
                continue;
            };
            if st.pending.is_some() {
                i += 1; // paused on backpressure; stays readable
                continue;
            }
            match read_slot(
                ctx,
                index,
                opts,
                &mut slots,
                slot,
                &mut parked,
                &mut dirty,
                &mut dead,
            ) {
                ReadOutcome::Drained | ReadOutcome::Dead => {
                    if let Some(st) = slots[slot].as_mut() {
                        st.readable = false;
                    }
                    read_list.swap_remove(i);
                }
                ReadOutcome::Paused => i += 1,
            }
        }

        // 5. Flush: one write burst per connection touched this
        // iteration, plus those a writable edge re-armed.
        for slot in dirty.drain(..) {
            let Some(st) = slots[slot].as_mut() else {
                continue;
            };
            st.needs_flush = false;
            let interest = match st.flush(opts) {
                // Backlog cleared: stop watching for writable.
                Ok(true) if st.writable_armed => mio::Interest::READABLE,
                Ok(true) => continue,
                // Client not reading: re-arm instead of blocking. The
                // MOD delivers an edge even if room appeared in between.
                Ok(false) if !st.writable_armed => {
                    mio::Interest::READABLE | mio::Interest::WRITABLE
                }
                Ok(false) => continue,
                Err(()) => {
                    dead.push(slot);
                    continue;
                }
            };
            st.writable_armed = interest.is_writable();
            let _ = poll.registry().reregister(
                &mut mio::unix::SourceFd(&st.fd),
                mio::Token(slot),
                interest,
            );
        }

        // 6. Bury connections that broke in any phase above.
        for slot in dead.drain(..) {
            kill(
                ctx,
                &poll,
                &mut slots,
                &mut free,
                &mut by_id,
                slot,
                [&mut read_list, &mut parked, &mut dirty],
            );
        }

        // 7. Park on epoll until a connection, the waker, or nothing at
        // all (shutdown rings the waker) has news. Announce the park
        // first, then look at every waker-rung input once more: work
        // handed over before the announcement is caught here, work
        // after it rings.
        waker.park();
        let ready = !ctx.intake_qs[index].is_empty() || !ctx.reply_qs[index].is_empty();
        let ready = match retry_parked(ctx, &mut slots, &mut parked) {
            Ok(progress) => ready || progress,
            Err(()) => return,
        };
        polls.inc();
        {
            let _g = handle.enter(ThreadState::Other); // blocked in epoll_wait
            let _ = poll.poll(&mut events, ready.then_some(Duration::ZERO));
        }
        waker.unpark();
        for ev in events.iter() {
            if ev.token() == WAKER_TOKEN {
                waker.waker.clear();
                continue;
            }
            let slot = ev.token().0;
            let Some(st) = slots.get_mut(slot).and_then(|s| s.as_mut()) else {
                continue; // event raced a kill
            };
            if (ev.is_readable() || ev.is_read_closed() || ev.is_error()) && !st.readable {
                st.readable = true;
                read_list.push(slot);
            }
            if ev.is_writable() && !st.needs_flush {
                st.needs_flush = true;
                dirty.push(slot);
            }
        }
    }
}

/// Retries requests parked on a full RequestQueue (§V-E), keeping the
/// shared parked count in step. Returns whether any went through, or
/// `Err(())` once the queue has closed.
fn retry_parked(
    ctx: &Ctx,
    slots: &mut [Option<EvConn>],
    parked: &mut Vec<usize>,
) -> Result<bool, ()> {
    let mut progress = false;
    let mut i = 0;
    while i < parked.len() {
        let Some(st) = slots[parked[i]].as_mut() else {
            parked.swap_remove(i);
            continue;
        };
        let Some(req) = st.pending.take() else {
            parked.swap_remove(i);
            continue;
        };
        match ctx.request_q.try_push(req) {
            Ok(()) => {
                ctx.parked_requests.fetch_sub(1, Ordering::SeqCst);
                parked.swap_remove(i);
                progress = true;
            }
            Err(PushError::Full(req)) => {
                st.pending = Some(req);
                i += 1;
            }
            Err(PushError::Closed(_)) => return Err(()),
        }
    }
    Ok(progress)
}

/// What one connection's read drain ended with.
enum ReadOutcome {
    /// `try_recv` returned `None`: the kernel/queue buffer is empty.
    Drained,
    /// Stopped mid-drain on RequestQueue backpressure; frames may remain.
    Paused,
    /// The connection broke or misbehaved and was queued for burial.
    Dead,
}

/// Drains one connection's inbound frames through [`classify_frame`],
/// coalescing responses and parking on backpressure.
#[allow(clippy::too_many_arguments)]
fn read_slot(
    ctx: &Ctx,
    index: usize,
    opts: &EventedIoOptions,
    slots: &mut [Option<EvConn>],
    slot: usize,
    parked: &mut Vec<usize>,
    dirty: &mut Vec<usize>,
    dead: &mut Vec<usize>,
) -> ReadOutcome {
    let Some(st) = slots[slot].as_mut() else {
        return ReadOutcome::Dead;
    };
    if st.pending.is_some() {
        return ReadOutcome::Paused;
    }
    loop {
        match st.conn.try_recv() {
            Ok(Some(frame)) => match classify_frame(ctx, index, st.conn.id(), &frame) {
                FrameAction::Respond(f) => {
                    if !st.queue_frame(f, opts) {
                        dead.push(slot);
                        return ReadOutcome::Dead;
                    }
                    if !st.needs_flush {
                        st.needs_flush = true;
                        dirty.push(slot);
                    }
                }
                FrameAction::Continue => {}
                FrameAction::Park(req) => {
                    st.pending = Some(req);
                    // Counted before the pre-park retry, so a Batcher
                    // drain after that retry sees it and rings.
                    ctx.parked_requests.fetch_add(1, Ordering::SeqCst);
                    parked.push(slot);
                    return ReadOutcome::Paused;
                }
                FrameAction::Drop => {
                    dead.push(slot);
                    return ReadOutcome::Dead;
                }
            },
            Ok(None) => return ReadOutcome::Drained,
            Err(_) => {
                dead.push(slot);
                return ReadOutcome::Dead;
            }
        }
    }
}

/// Removes a connection: deregisters its fd, frees the slab slot, and
/// purges it from every work list so the recycled index starts clean.
fn kill(
    ctx: &Ctx,
    poll: &mio::Poll,
    slots: &mut [Option<EvConn>],
    free: &mut Vec<usize>,
    by_id: &mut HashMap<u64, usize>,
    slot: usize,
    lists: [&mut Vec<usize>; 3],
) {
    let Some(st) = slots[slot].take() else {
        return; // already buried (e.g. queued dead twice in one burst)
    };
    let _ = poll.registry().deregister(&mut mio::unix::SourceFd(&st.fd));
    if st.pending.is_some() {
        ctx.parked_requests.fetch_sub(1, Ordering::SeqCst);
    }
    by_id.remove(&st.conn.id());
    for list in lists {
        list.retain(|s| *s != slot);
    }
    free.push(slot);
}

/// What the ClientIO loop must do with one inbound frame, as decided by
/// [`classify_frame`].
enum FrameAction {
    /// Write this pre-encoded frame (cache-hit reply or leader redirect)
    /// back to the client.
    Respond(Vec<u8>),
    /// Nothing further: stale duplicate ignored or request accepted into
    /// the RequestQueue.
    Continue,
    /// The RequestQueue is full (§V-E): hold the stamped request and stop
    /// reading this connection until it fits.
    Park(Intake),
    /// Drop the connection (undecodable frame, non-request message, or
    /// closed RequestQueue).
    Drop,
}

/// Processes one inbound frame up to (and including) the RequestQueue
/// push, stamping intake for the stage-latency breakdown.
fn classify_frame(ctx: &Ctx, index: usize, conn_id: u64, frame: &[u8]) -> FrameAction {
    let msg = match ClientMsg::decode(frame) {
        Ok(m) => m,
        Err(_) => return FrameAction::Drop, // garbage: drop the connection
    };
    let ClientMsg::Request(request) = msg else {
        return FrameAction::Drop; // clients only send requests
    };
    match ctx.cache.lookup(request.id) {
        CacheOutcome::Hit(reply) => {
            let frame = ClientMsg::Reply(Reply::new(request.id, reply)).encode_to_vec();
            return FrameAction::Respond(frame);
        }
        CacheOutcome::Stale => return FrameAction::Continue, // outdated duplicate
        CacheOutcome::Miss => {}
    }
    if !ctx.shared.is_leader() {
        // §VI-E: non-leaders refuse ordering work; point the client at
        // the best-known leader.
        let leader = ctx.shared.leader();
        let hint = if leader == ctx.me { None } else { Some(leader) };
        let frame = ClientMsg::Redirect { leader: hint }.encode_to_vec();
        return FrameAction::Respond(frame);
    }
    // Remember how to route the reply back (§V-D hand-over).
    ctx.shared.bind_client(request.id.client, index, conn_id);
    let stamp = ctx.stage.stamp(&ctx.shared);
    match ctx.request_q.try_push(Intake::Request(request, stamp)) {
        Ok(()) => FrameAction::Continue,
        Err(PushError::Full(pending)) => FrameAction::Park(pending),
        Err(PushError::Closed(_)) => FrameAction::Drop,
    }
}
