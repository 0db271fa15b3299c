//! Tracing for the traced run: an in-memory span recorder and decorators
//! around the replica's public seams (`ReplicaNetwork`, `ClientListener`
//! and `ClientConn`, `ReplyCache`; the service decorator lives with the
//! service handle in `cluster`).
//!
//! A span has a name, a start, an end, the span that was open on the same
//! thread when it began (its parent), and a key: a packed request id, a
//! peer, or 0. Spans stay in per-thread buffers until the run ends and are
//! then written out as one TSV file. Counters at the same seams give the
//! ratios (frames per op, polls per request, cache hit share).

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use smr_core::{CacheOutcome, ExecuteOutcome, ReplyCache};
use smr_net::{ClientConn, ClientListener, NetError, ReplicaNetwork};
use smr_types::{ReplicaId, RequestId};

/// Spans one thread keeps; later spans are counted, not kept.
const MAX_SPANS_PER_THREAD: usize = 200_000;

/// Wire tags (first byte) of the frames the decorators classify.
const TAG_CLIENT_REQUEST: u8 = 1;
const TAG_CLIENT_REPLY: u8 = 2;
const TAG_PROPOSE: u8 = 3;
/// Bytes of a `Propose` frame before its batch: tag, view, slot.
const PROPOSE_HEADER: usize = 17;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub replica: u16,
    pub id: u64,
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub key: u64,
}

/// Packs a request id into a span key.
pub fn request_key(id: RequestId) -> u64 {
    (id.client.0 << 40) | (id.seq.0 & ((1 << 40) - 1))
}

/// The request id carried by a client `Request` or `Reply` frame, read
/// from its fixed header without decoding the payload.
fn frame_key(frame: &[u8], tag: u8) -> u64 {
    if frame.len() < 17 || frame[0] != tag {
        return 0;
    }
    let client = u64::from_le_bytes(frame[1..9].try_into().expect("8 bytes"));
    let seq = u64::from_le_bytes(frame[9..17].try_into().expect("8 bytes"));
    (client << 40) | (seq & ((1 << 40) - 1))
}

/// Seam counters, summed over every replica of a cluster.
#[derive(Debug, Default)]
pub struct Counters {
    pub recv_calls: AtomicU64,
    pub recv_frames: AtomicU64,
    pub net_frames: AtomicU64,
    pub net_bytes: AtomicU64,
    pub propose_frames: AtomicU64,
    pub propose_batch_bytes: AtomicU64,
    pub cache_lookups: AtomicU64,
    pub cache_hits: AtomicU64,
    pub spans_dropped: AtomicU64,
}

fn bump(c: &AtomicU64, n: u64) {
    c.fetch_add(n, Ordering::Relaxed);
}

type Buffer = Arc<Mutex<Vec<Span>>>;

/// The span recorder of one traced cluster.
#[derive(Debug)]
pub struct Tracer {
    id: u64,
    /// Keep one span in `sample`, chosen by a hash of the request key, so
    /// the spans of one request are kept or dropped together (keyless
    /// spans hash their own id).
    sample: u64,
    epoch: Instant,
    buffers: Mutex<Vec<Buffer>>,
    pub counters: Counters,
}

static NEXT_TRACER: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

#[derive(Default)]
struct Local {
    tracer: u64,
    buffer: Option<Buffer>,
    thread: u64,
    next: u64,
    stack: Vec<u64>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

/// An open span, returned by [`Tracer::begin`].
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: u64,
    start_ns: u64,
}

impl Tracer {
    pub fn new(sample: u64) -> Arc<Self> {
        Arc::new(Tracer {
            id: NEXT_TRACER.fetch_add(1, Ordering::Relaxed),
            sample: sample.max(1),
            epoch: Instant::now(),
            buffers: Mutex::new(Vec::new()),
            counters: Counters::default(),
        })
    }

    /// Nanoseconds since the tracer was made; span times use this clock.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn with_local<R>(&self, f: impl FnOnce(&mut Local) -> R) -> R {
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            if l.tracer != self.id {
                let buffer: Buffer = Arc::new(Mutex::new(Vec::new()));
                self.buffers
                    .lock()
                    .expect("tracer buffer list poisoned")
                    .push(Arc::clone(&buffer));
                *l = Local {
                    tracer: self.id,
                    buffer: Some(buffer),
                    thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
                    next: 0,
                    stack: Vec::new(),
                };
            }
            f(&mut l)
        })
    }

    /// Opens a span on this thread; its parent is the innermost span
    /// still open here.
    pub fn begin(&self) -> Open {
        let start_ns = self.now_ns();
        self.with_local(|l| {
            l.next += 1;
            let id = (l.thread << 32) | l.next;
            let parent = l.stack.last().copied().unwrap_or(0);
            l.stack.push(id);
            Open {
                id,
                parent,
                start_ns,
            }
        })
    }

    /// Closes `open` and records it.
    pub fn end(&self, open: Open, name: &'static str, replica: ReplicaId, key: u64) {
        let end_ns = self.now_ns();
        self.with_local(|l| {
            l.stack.pop();
            let id = if key == 0 { open.id } else { key };
            if (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % self.sample != 0 {
                return;
            }
            let buffer = l.buffer.as_ref().expect("registered");
            let mut spans = buffer.lock().expect("span buffer poisoned");
            if spans.len() < MAX_SPANS_PER_THREAD {
                spans.push(Span {
                    name,
                    replica: replica.0,
                    id: open.id,
                    parent: open.parent,
                    start_ns: open.start_ns,
                    end_ns,
                    key,
                });
            } else {
                bump(&self.counters.spans_dropped, 1);
            }
        });
    }

    /// Closes `open` without recording it (an empty poll).
    pub fn discard(&self, _open: Open) {
        self.with_local(|l| {
            l.stack.pop();
        });
    }

    /// Drops every span and zeroes every counter recorded so far (after
    /// the unmeasured fill).
    pub fn reset(&self) {
        for b in self
            .buffers
            .lock()
            .expect("tracer buffer list poisoned")
            .iter()
        {
            b.lock().expect("span buffer poisoned").clear();
        }
        let c = &self.counters;
        for n in [
            &c.recv_calls,
            &c.recv_frames,
            &c.net_frames,
            &c.net_bytes,
            &c.propose_frames,
            &c.propose_batch_bytes,
            &c.cache_lookups,
            &c.cache_hits,
            &c.spans_dropped,
        ] {
            n.store(0, Ordering::Relaxed);
        }
    }

    /// Every span recorded so far, from all threads.
    pub fn spans(&self) -> Vec<Span> {
        let buffers = self.buffers.lock().expect("tracer buffer list poisoned");
        let mut all = Vec::new();
        for b in buffers.iter() {
            all.extend(b.lock().expect("span buffer poisoned").iter().cloned());
        }
        all
    }

    pub fn count(&self, c: &AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover. Children of one parent run on the parent's thread,
/// one after another, so their durations add up without overlap.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            covered[p] += hi.saturating_sub(lo);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
        .collect()
}

/// Sorted self times of the spans named `name` (on `replica`, if given).
pub fn self_times_of(spans: &[Span], selfs: &[u64], name: &str, replica: Option<u16>) -> Vec<u64> {
    let mut v: Vec<u64> = spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name && replica.is_none_or(|r| s.replica == r))
        .map(|(_, t)| *t)
        .collect();
    v.sort_unstable();
    v
}

/// Writes `spans` (with self times) as TSV, one span a line.
pub fn write_spans(path: &Path, phase: &str, spans: &[Span], selfs: &[u64]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let exists = path.exists();
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut w = std::io::BufWriter::new(file);
    if !exists {
        writeln!(
            w,
            "phase\treplica\tname\tid\tparent\tstart_ns\tend_ns\tself_ns\tkey"
        )?;
    }
    for (s, t) in spans.iter().zip(selfs) {
        writeln!(
            w,
            "{phase}\t{}\t{}\t{:x}\t{:x}\t{}\t{}\t{t}\t{:x}",
            s.replica, s.name, s.id, s.parent, s.start_ns, s.end_ns, s.key
        )?;
    }
    w.flush()
}

/// `ReplicaNetwork` decorator: a span per `send_to`, frame and byte
/// counts, and the size of every proposed batch on the wire.
pub struct TracedNet {
    pub inner: Arc<dyn ReplicaNetwork>,
    pub me: ReplicaId,
    pub tracer: Arc<Tracer>,
}

impl ReplicaNetwork for TracedNet {
    fn send_to(&self, peer: ReplicaId, frame: Vec<u8>) -> Result<(), NetError> {
        let c = &self.tracer.counters;
        bump(&c.net_frames, 1);
        bump(&c.net_bytes, frame.len() as u64);
        if frame.first() == Some(&TAG_PROPOSE) {
            bump(&c.propose_frames, 1);
            bump(
                &c.propose_batch_bytes,
                frame.len().saturating_sub(PROPOSE_HEADER) as u64,
            );
        }
        let open = self.tracer.begin();
        let r = self.inner.send_to(peer, frame);
        self.tracer
            .end(open, "net.send_to", self.me, u64::from(peer.0));
        r
    }

    fn recv_from(&self, peer: ReplicaId) -> Result<Vec<u8>, NetError> {
        // Blocking wait for the next frame: counted by the sender side.
        self.inner.recv_from(peer)
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }
}

/// `ClientListener` decorator handing out [`TracedConn`]s.
pub struct TracedListener {
    pub inner: Box<dyn ClientListener>,
    pub me: ReplicaId,
    pub tracer: Arc<Tracer>,
}

impl TracedListener {
    fn wrap(&self, conn: Option<Box<dyn ClientConn>>) -> Option<Box<dyn ClientConn>> {
        conn.map(|inner| {
            Box::new(TracedConn {
                inner,
                me: self.me,
                tracer: Arc::clone(&self.tracer),
            }) as Box<dyn ClientConn>
        })
    }
}

impl ClientListener for TracedListener {
    fn accept_timeout(&self, timeout: Duration) -> Result<Option<Box<dyn ClientConn>>, NetError> {
        self.inner.accept_timeout(timeout).map(|c| self.wrap(c))
    }

    fn raw_fd(&self) -> Option<i32> {
        self.inner.raw_fd()
    }

    fn try_accept(&self) -> Result<Option<Box<dyn ClientConn>>, NetError> {
        self.inner.try_accept().map(|c| self.wrap(c))
    }
}

/// `ClientConn` decorator: counts every poll, records a span for each
/// request read (`client_io.recv`) and reply written
/// (`client_io.reply_send`), keyed by request id.
pub struct TracedConn {
    inner: Box<dyn ClientConn>,
    me: ReplicaId,
    tracer: Arc<Tracer>,
}

impl TracedConn {
    fn traced_send(
        &mut self,
        frame: Vec<u8>,
        send: impl FnOnce(&mut dyn ClientConn, Vec<u8>) -> Result<Option<Vec<u8>>, NetError>,
    ) -> Result<Option<Vec<u8>>, NetError> {
        let key = frame_key(&frame, TAG_CLIENT_REPLY);
        let open = self.tracer.begin();
        let r = send(&mut *self.inner, frame);
        self.tracer.end(open, "client_io.reply_send", self.me, key);
        r
    }
}

impl ClientConn for TracedConn {
    fn try_recv(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        bump(&self.tracer.counters.recv_calls, 1);
        let open = self.tracer.begin();
        let r = self.inner.try_recv();
        match &r {
            Ok(Some(frame)) => {
                bump(&self.tracer.counters.recv_frames, 1);
                let key = frame_key(frame, TAG_CLIENT_REQUEST);
                self.tracer.end(open, "client_io.recv", self.me, key);
            }
            _ => self.tracer.discard(open),
        }
        r
    }

    fn send(&mut self, frame: Vec<u8>) -> Result<(), NetError> {
        self.traced_send(frame, |c, f| c.send(f).map(|()| None))
            .map(|_| ())
    }

    fn id(&self) -> u64 {
        self.inner.id()
    }

    fn raw_fd(&self) -> Option<i32> {
        self.inner.raw_fd()
    }

    fn try_send(
        &mut self,
        frame: Vec<u8>,
        max_buffered: usize,
    ) -> Result<Option<Vec<u8>>, NetError> {
        self.traced_send(frame, |c, f| c.try_send(f, max_buffered))
    }

    fn flush_out(&mut self) -> Result<bool, NetError> {
        self.inner.flush_out()
    }

    fn has_backlog(&self) -> bool {
        self.inner.has_backlog()
    }
}

/// `ReplyCache` decorator: spans for `lookup` (ClientIO) and `record`
/// (ServiceManager), and the share of lookups that hit.
pub struct TracedCache {
    pub inner: Arc<dyn ReplyCache>,
    pub me: ReplicaId,
    pub tracer: Arc<Tracer>,
}

impl ReplyCache for TracedCache {
    fn lookup(&self, id: RequestId) -> CacheOutcome {
        bump(&self.tracer.counters.cache_lookups, 1);
        let open = self.tracer.begin();
        let r = self.inner.lookup(id);
        self.tracer
            .end(open, "reply_cache.lookup", self.me, request_key(id));
        if matches!(r, CacheOutcome::Hit(_)) {
            bump(&self.tracer.counters.cache_hits, 1);
        }
        r
    }

    fn check_execute(&self, id: RequestId) -> ExecuteOutcome {
        self.inner.check_execute(id)
    }

    fn record(&self, id: RequestId, reply: Vec<u8>) {
        let open = self.tracer.begin();
        self.inner.record(id, reply);
        self.tracer
            .end(open, "reply_cache.record", self.me, request_key(id));
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_get_parents_and_self_time() {
        let t = Tracer::new(1);
        let outer = t.begin();
        std::thread::sleep(Duration::from_millis(2));
        let inner = t.begin();
        std::thread::sleep(Duration::from_millis(3));
        t.end(inner, "inner", ReplicaId(0), 1);
        t.end(outer, "outer", ReplicaId(0), 2);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let (i, o) = (&spans[0], &spans[1]);
        assert_eq!(i.parent, o.id);
        assert_eq!(o.parent, 0);
        let selfs = self_times(&spans);
        assert_eq!(
            selfs[0],
            i.end_ns - i.start_ns,
            "a leaf's self time is its span"
        );
        assert_eq!(selfs[1], (o.end_ns - o.start_ns) - (i.end_ns - i.start_ns));
        assert!(selfs[1] >= 2_000_000 && selfs[1] < 3_000_000 + 2_000_000);
    }

    #[test]
    fn sampling_keeps_a_share_of_every_kind_of_span() {
        let t = Tracer::new(8);
        for i in 1..=1600u64 {
            // Alternating keyless and keyed spans, as on the
            // ServiceManager thread (execute, then record).
            let o = t.begin();
            t.end(o, "unkeyed", ReplicaId(0), 0);
            let o = t.begin();
            t.end(o, "keyed", ReplicaId(0), i);
        }
        let spans = t.spans();
        for name in ["unkeyed", "keyed"] {
            let kept = spans.iter().filter(|s| s.name == name).count();
            assert!((100..=300).contains(&kept), "{name}: {kept} of 1600 kept");
        }
    }

    #[test]
    fn frame_keys_read_the_request_id() {
        use smr_types::{ClientId, SeqNum};
        use smr_wire::{ClientMsg, Codec, Reply, Request};
        let id = RequestId::new(ClientId(1234), SeqNum(77));
        let req = ClientMsg::Request(Request::new(id, vec![9; 40])).encode_to_vec();
        let rep = ClientMsg::Reply(Reply::new(id, vec![0; 8])).encode_to_vec();
        assert_eq!(frame_key(&req, TAG_CLIENT_REQUEST), request_key(id));
        assert_eq!(frame_key(&rep, TAG_CLIENT_REPLY), request_key(id));
        assert_eq!(frame_key(&rep, TAG_CLIENT_REQUEST), 0);
    }
}
