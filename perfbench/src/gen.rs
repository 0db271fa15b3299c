//! The load generator: one thread per connection, at most `nproc` of
//! each, multiplexing up to [`WINDOW`] logical clients over every
//! connection. Replies route back by client id.
//!
//! * Open loop: Poisson arrivals from the seed; an arrival takes an idle
//!   logical client. Latency is timed from the due time, and how late the
//!   generator sent each request is recorded.
//! * Closed loop: every logical client sends again as soon as it is
//!   answered.
//!
//! A request unanswered for [`RETRY_AFTER_NS`] is re-sent under the same
//! `RequestId` to the next replica, and redirects are followed, as
//! `SmrClient` does; the replicas' reply cache makes re-sends safe.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use smr_net::ClientEndpoint;
use smr_types::ReplicaId;
use smr_wire::{ClientMsg, Codec};

use crate::cluster::{Connector, N};
use crate::trace::request_key;
use crate::workload::{check_reply, LogicalClient, Mix, Verdict, CLIENT_ID_BASE, WINDOW};

/// A request unanswered this long is re-sent to the next replica (the
/// per-try timeout `InProcessCluster::client` gives `SmrClient`).
const RETRY_AFTER_NS: u64 = 250_000_000;
/// Pause before re-sending after a redirect that names no usable leader.
const REDIRECT_BACKOFF_NS: u64 = 10_000_000;
/// For this long after a replica timed out, redirects naming it are not
/// followed: the replica that sent them has not yet noticed it is gone.
/// Longer than the failure detector's suspect timeout (500 ms).
const DISTRUST_NS: u64 = 1_000_000_000;
/// Longest single wait for a reply frame.
const MAX_WAIT_NS: u64 = 1_000_000;

/// The generator threads a host allows: `available_parallelism`.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// What one phase does.
#[derive(Debug, Clone)]
pub enum Load {
    /// Due times in ns from the phase start, one schedule per connection.
    Open(Vec<Vec<u64>>),
    Closed,
}

/// Phase timing: requests due (open) or completed (closed) in
/// `[warmup_ns, warmup_ns + measure_ns)` are measured; after that the
/// generator stops sending and waits up to `grace_ns` for replies.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub warmup_ns: u64,
    pub measure_ns: u64,
    pub grace_ns: u64,
    /// Closed loop: width of the windows whose throughput is reported.
    pub window_ns: u64,
}

impl Timing {
    fn end_ns(&self) -> u64 {
        self.warmup_ns + self.measure_ns
    }

    /// The measured interval, in ns from the phase start.
    pub fn span(&self) -> (u64, u64) {
        (self.warmup_ns, self.end_ns())
    }

    fn measured(&self, t: u64) -> bool {
        t >= self.warmup_ns && t < self.end_ns()
    }
}

/// One connection's results for one phase.
#[derive(Debug, Default)]
pub struct ConnOut {
    /// New requests issued, plus due requests never sent.
    pub attempted: u64,
    pub ok: u64,
    /// Requests unanswered at the end of the grace period, or never sent.
    pub failed: u64,
    /// Descriptions of wrong replies.
    pub wrong: Vec<String>,
    /// Measured requests: completion minus due time.
    pub latency_ns: Vec<u64>,
    /// Measured requests: due time, in ns from the phase start (parallel
    /// to `latency_ns`).
    pub due_ns: Vec<u64>,
    /// Measured requests: (request key, completion minus last send).
    pub rtt_ns: Vec<(u64, u64)>,
    /// Sent requests: send minus due time (open loop).
    pub late_ns: Vec<u64>,
    /// Every completion, in ns from the phase start.
    pub completions_ns: Vec<u64>,
    /// Closed loop: completions per measured window.
    pub windows: Vec<u64>,
    /// Requests re-sent after a timeout, broken connection or redirect.
    pub resends: u64,
    pub redirects: u64,
    /// Most requests this connection ever had outstanding.
    pub max_outstanding: usize,
    /// Most connections this generator held open at once.
    pub max_open_conns: usize,
}

/// One generator connection and the logical clients multiplexed on it.
pub struct ConnGen {
    pub clients: Vec<LogicalClient>,
    connect: Connector,
    endpoint: Option<Box<dyn ClientEndpoint>>,
    target: ReplicaId,
    /// The replica the last timeout moved away from, and until when
    /// redirects to it are not followed.
    timed_out: Option<(ReplicaId, u64)>,
    /// Shortest wait passed to `recv_timeout`: a TCP endpoint does not
    /// read at all with a zero timeout.
    min_wait: Duration,
}

impl ConnGen {
    /// Connection `conn` of `conns`, with [`WINDOW`] logical clients.
    pub fn new(
        seed: u64,
        mix: Mix,
        conn: usize,
        conns: usize,
        connect: Connector,
        tcp: bool,
    ) -> Self {
        let total = conns * WINDOW;
        ConnGen {
            clients: (0..WINDOW)
                .map(|i| LogicalClient::new(seed, mix, conn * WINDOW + i, total))
                .collect(),
            connect,
            endpoint: None,
            target: ReplicaId(0),
            timed_out: None,
            min_wait: if tcp {
                Duration::from_micros(50)
            } else {
                Duration::ZERO
            },
        }
    }

    fn local(&self, client: u64) -> Option<usize> {
        let first = self.clients.first()?.id.0;
        let i = client.checked_sub(first)? as usize;
        (client >= CLIENT_ID_BASE && i < self.clients.len()).then_some(i)
    }

    /// Drops the connection and opens one to `self.target`, then re-sends
    /// every pending request on it.
    fn reconnect_and_resend(&mut self, now: u64, out: &mut ConnOut) {
        self.endpoint = None;
        let Ok(mut ep) = (self.connect)(self.target) else {
            return;
        };
        out.max_open_conns = out.max_open_conns.max(1);
        for c in &mut self.clients {
            if let Some(p) = &mut c.pending {
                if ep.send(p.frame.clone()).is_err() {
                    return;
                }
                p.last_sent_ns = now;
                out.resends += 1;
            }
        }
        self.endpoint = Some(ep);
    }

    fn send_new(&mut self, i: usize, due: u64, now: u64, out: &mut ConnOut) -> bool {
        let frame = self.clients[i].issue(due, now).frame.clone();
        out.attempted += 1;
        match &mut self.endpoint {
            Some(ep) => ep.send(frame).is_ok(),
            None => false,
        }
    }

    /// Runs one phase on this connection; `t0` is the shared phase start.
    pub fn run(&mut self, load: Option<&[u64]>, timing: Timing, t0: Instant) -> ConnOut {
        let mut out = ConnOut {
            windows: vec![0; (timing.measure_ns / timing.window_ns.max(1)) as usize],
            ..ConnOut::default()
        };
        let ns = || t0.elapsed().as_nanos() as u64;
        let end = timing.end_ns();
        let hard_end = end + timing.grace_ns;
        if self.endpoint.is_none() {
            self.reconnect_and_resend(ns(), &mut out);
        }
        out.max_open_conns = usize::from(self.endpoint.is_some());
        let mut idle: VecDeque<usize> = (0..self.clients.len())
            .filter(|&i| self.clients[i].pending.is_none())
            .collect();
        let mut outstanding = self.clients.len() - idle.len();
        let mut next = 0usize;
        let mut resend_at: Option<u64> = None;
        let mut next_timeout_check = 0u64;
        if load.is_none() {
            let now = ns();
            while let Some(i) = idle.pop_front() {
                if !self.send_new(i, now, now, &mut out) {
                    resend_at = Some(now);
                }
                outstanding += 1;
            }
        }
        out.max_outstanding = outstanding;
        loop {
            let now = ns();
            if let Some(schedule) = load {
                while next < schedule.len() && schedule[next] <= now && now < hard_end {
                    let Some(i) = idle.pop_front() else { break };
                    let due = schedule[next];
                    if !self.send_new(i, due, now, &mut out) {
                        resend_at = Some(now);
                    }
                    out.late_ns.push(now - due);
                    outstanding += 1;
                    next += 1;
                }
            }
            out.max_outstanding = out.max_outstanding.max(outstanding);
            if resend_at.is_some_and(|t| t <= now) {
                resend_at = None;
                self.reconnect_and_resend(now, &mut out);
                if self.endpoint.is_none() {
                    resend_at = Some(now + REDIRECT_BACKOFF_NS);
                }
            }
            if now >= next_timeout_check {
                next_timeout_check = now + MAX_WAIT_NS;
                let stuck = self.clients.iter().any(|c| {
                    c.pending
                        .as_ref()
                        .is_some_and(|p| now - p.last_sent_ns.min(now) > RETRY_AFTER_NS)
                });
                if stuck {
                    self.timed_out = Some((self.target, now + DISTRUST_NS));
                    self.target = ReplicaId((self.target.0 + 1) % N as u16);
                    self.reconnect_and_resend(now, &mut out);
                }
            }
            let sending_done = match load {
                Some(s) => next == s.len(),
                None => now >= end,
            };
            if sending_done && outstanding == 0 {
                break;
            }
            if now >= hard_end {
                let unsent = load.map_or(0, |s| (s.len() - next) as u64);
                out.attempted += unsent;
                out.failed += outstanding as u64 + unsent;
                for c in &mut self.clients {
                    c.pending = None;
                }
                // Replies to the abandoned requests must not count
                // against the next phase's window: start afresh.
                self.endpoint = None;
                break;
            }
            let mut wait = MAX_WAIT_NS;
            if let Some(s) = load {
                if next < s.len() && !idle.is_empty() {
                    wait = wait.min(s[next].saturating_sub(now));
                }
            }
            if let Some(t) = resend_at {
                wait = wait.min(t.saturating_sub(now));
            }
            let mut timeout = Duration::from_nanos(wait).max(self.min_wait);
            if self.endpoint.is_none() {
                // Nothing to read until the next re-send: don't spin.
                std::thread::sleep(timeout);
            }
            while let Some(ep) = &mut self.endpoint {
                let frame = match ep.recv_timeout(timeout) {
                    Ok(Some(f)) => f,
                    Ok(None) => break,
                    Err(_) => {
                        self.endpoint = None;
                        resend_at = Some(ns());
                        break;
                    }
                };
                timeout = self.min_wait;
                let now = ns();
                match ClientMsg::decode(&frame) {
                    Ok(ClientMsg::Reply(r)) => {
                        let Some(i) = self.local(r.id.client.0) else {
                            out.wrong
                                .push(format!("reply to unknown client {}", r.id.client.0));
                            continue;
                        };
                        match check_reply(&mut self.clients[i], r.id.seq.0, &r.payload) {
                            Verdict::Correct(p) => {
                                out.ok += 1;
                                outstanding -= 1;
                                out.completions_ns.push(now);
                                if timing.measured(p.due_ns) {
                                    out.latency_ns.push(now - p.due_ns);
                                    out.due_ns.push(p.due_ns);
                                    out.rtt_ns
                                        .push((request_key(r.id), now - p.last_sent_ns.min(now)));
                                }
                                match load {
                                    None if now < end => {
                                        if timing.measured(now) {
                                            let w = ((now - timing.warmup_ns)
                                                / timing.window_ns.max(1))
                                                as usize;
                                            if let Some(c) = out.windows.get_mut(w) {
                                                *c += 1;
                                            }
                                        }
                                        if !self.send_new(i, now, now, &mut out) {
                                            resend_at = Some(now);
                                        }
                                        outstanding += 1;
                                    }
                                    _ => idle.push_back(i),
                                }
                            }
                            Verdict::Stale => {}
                            Verdict::Wrong(msg) => {
                                out.wrong.push(msg);
                                self.clients[i].pending = None;
                                outstanding -= 1;
                                idle.push_back(i);
                            }
                        }
                    }
                    Ok(ClientMsg::Redirect { leader }) => {
                        out.redirects += 1;
                        let distrusted = self
                            .timed_out
                            .is_some_and(|(r, until)| Some(r) == leader && now < until);
                        match leader {
                            Some(l) if l != self.target && !distrusted => {
                                self.target = l;
                                resend_at = Some(now);
                            }
                            _ => {
                                let t = now + REDIRECT_BACKOFF_NS;
                                resend_at = Some(resend_at.map_or(t, |r| r.min(t)));
                            }
                        }
                    }
                    Ok(ClientMsg::Request(_)) | Err(_) => {
                        out.wrong.push("undecodable or unexpected frame".into());
                    }
                }
            }
        }
        out
    }
}

/// Results of one phase over all connections.
#[derive(Debug, Default)]
pub struct PhaseOut {
    pub conns: Vec<ConnOut>,
    /// Generator threads the phase ran on.
    pub threads: usize,
}

impl PhaseOut {
    pub fn sum(&self, f: impl Fn(&ConnOut) -> u64) -> u64 {
        self.conns.iter().map(f).sum()
    }

    pub fn sorted(&self, f: impl Fn(&ConnOut) -> Vec<u64>) -> Vec<u64> {
        let mut v: Vec<u64> = self.conns.iter().flat_map(f).collect();
        v.sort_unstable();
        v
    }

    /// Throughput (req/s) of each closed-loop window, summed over
    /// connections.
    pub fn window_rps(&self, window_ns: u64) -> Vec<f64> {
        let n = self
            .conns
            .iter()
            .map(|c| c.windows.len())
            .max()
            .unwrap_or(0);
        (0..n)
            .map(|w| {
                let count: u64 = self.conns.iter().filter_map(|c| c.windows.get(w)).sum();
                count as f64 * 1e9 / window_ns as f64
            })
            .collect()
    }

    /// Latency percentile `q` of each run of `group` consecutive measured
    /// requests, in due-time order; a trailing partial run is dropped.
    pub fn grouped_quantile(&self, q: f64, group: usize) -> Vec<f64> {
        let mut all: Vec<(u64, u64)> = self
            .conns
            .iter()
            .flat_map(|c| c.due_ns.iter().copied().zip(c.latency_ns.iter().copied()))
            .collect();
        all.sort_unstable();
        all.chunks_exact(group.max(1))
            .filter_map(|g| {
                let mut v: Vec<u64> = g.iter().map(|&(_, lat)| lat).collect();
                v.sort_unstable();
                crate::stats::tail_quantile(&v, q)
            })
            .map(|v| v as f64)
            .collect()
    }

    /// Longest interval with no completed reply inside `[from, to)`.
    pub fn longest_gap_ns(&self, from: u64, to: u64) -> u64 {
        let mut t: Vec<u64> = self
            .conns
            .iter()
            .flat_map(|c| c.completions_ns.iter().copied())
            .filter(|&t| t >= from && t < to)
            .collect();
        t.sort_unstable();
        let mut prev = from;
        let mut gap = 0;
        for x in t {
            gap = gap.max(x - prev);
            prev = x;
        }
        gap.max(to - prev)
    }
}

/// Runs one phase on every connection, one thread each, while `during`
/// runs on the calling thread (the failover controller). At most `nproc`
/// generator threads run.
pub fn run_phase<R>(
    gens: &mut [ConnGen],
    load: &Load,
    timing: Timing,
    during: impl FnOnce(Instant) -> R,
) -> (PhaseOut, R) {
    assert!(
        gens.len() <= nproc(),
        "{} generator connections exceed nproc = {}",
        gens.len(),
        nproc()
    );
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = gens
            .iter_mut()
            .enumerate()
            .map(|(i, g)| {
                let schedule = match load {
                    Load::Open(s) => Some(s[i].as_slice()),
                    Load::Closed => None,
                };
                std::thread::Builder::new()
                    .name(format!("gen-{i}"))
                    .spawn_scoped(s, move || g.run(schedule, timing, t0))
                    .expect("spawn generator thread")
            })
            .collect();
        let threads = handles.len();
        let r = during(t0);
        let conns = handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect();
        (PhaseOut { conns, threads }, r)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    use smr_core::{NullService, Service};
    use smr_net::NetError;
    use smr_wire::Reply;

    /// An in-process stand-in for a replica: answers each request with the
    /// null service's reply after `delay`, and records how many requests
    /// each connection ever had outstanding and how many connections were
    /// open at once.
    #[derive(Default)]
    struct Fake {
        open: AtomicUsize,
        max_open: AtomicUsize,
        max_outstanding: AtomicUsize,
    }

    struct FakeEp {
        fake: Arc<Fake>,
        queue: Mutex<VecDeque<(Instant, Vec<u8>)>>,
        delay: Duration,
    }

    impl Drop for FakeEp {
        fn drop(&mut self) {
            self.fake.open.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl ClientEndpoint for FakeEp {
        fn send(&mut self, frame: Vec<u8>) -> Result<(), NetError> {
            let Ok(ClientMsg::Request(req)) = ClientMsg::decode(&frame) else {
                return Err(NetError::Closed);
            };
            let reply = NullService::default().execute(&req.payload);
            let out = ClientMsg::Reply(Reply::new(req.id, reply)).encode_to_vec();
            let mut q = self.queue.lock().unwrap();
            q.push_back((Instant::now() + self.delay, out));
            self.fake
                .max_outstanding
                .fetch_max(q.len(), Ordering::SeqCst);
            Ok(())
        }

        fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, NetError> {
            let until = Instant::now() + timeout;
            loop {
                {
                    let mut q = self.queue.lock().unwrap();
                    if q.front().is_some_and(|(at, _)| *at <= Instant::now()) {
                        return Ok(q.pop_front().map(|(_, f)| f));
                    }
                }
                if Instant::now() >= until {
                    return Ok(None);
                }
                std::thread::sleep(Duration::from_micros(50));
            }
        }
    }

    fn fake_connector(fake: &Arc<Fake>, delay: Duration) -> Connector {
        let fake = Arc::clone(fake);
        Arc::new(move |_r| {
            let open = fake.open.fetch_add(1, Ordering::SeqCst) + 1;
            fake.max_open.fetch_max(open, Ordering::SeqCst);
            Ok(Box::new(FakeEp {
                fake: Arc::clone(&fake),
                queue: Mutex::new(VecDeque::new()),
                delay,
            }) as Box<dyn ClientEndpoint>)
        })
    }

    fn timing(measure_ms: u64) -> Timing {
        Timing {
            warmup_ns: 10_000_000,
            measure_ns: measure_ms * 1_000_000,
            grace_ns: 5_000_000_000,
            window_ns: 20_000_000,
        }
    }

    #[test]
    fn never_exceeds_the_window_threads_or_connections() {
        let fake = Arc::new(Fake::default());
        // A slow server and an arrival rate far above what 64 clients can
        // carry: the window must cap what is outstanding. The backlog
        // drains within the grace period, so nothing fails.
        let conns = nproc().min(2);
        let mut gens: Vec<ConnGen> = (0..conns)
            .map(|c| {
                ConnGen::new(
                    1,
                    Mix::Null,
                    c,
                    conns,
                    fake_connector(&fake, Duration::from_millis(5)),
                    false,
                )
            })
            .collect();
        let schedules = (0..conns)
            .map(|c| crate::rng::poisson_schedule(1, c as u64, 100_000.0, 110_000_000))
            .collect();
        let (open, ()) = run_phase(&mut gens, &Load::Open(schedules), timing(100), |_| ());
        assert!(open.threads <= nproc());
        let (closed, ()) = run_phase(&mut gens, &Load::Closed, timing(100), |_| ());
        for out in open.conns.iter().chain(&closed.conns) {
            assert!(out.max_outstanding <= WINDOW, "{}", out.max_outstanding);
            assert!(out.max_open_conns <= 1);
            assert!(out.wrong.is_empty(), "{:?}", out.wrong);
        }
        assert!(
            fake.max_outstanding.load(Ordering::SeqCst) <= WINDOW,
            "{}",
            fake.max_outstanding.load(Ordering::SeqCst)
        );
        assert!(fake.max_open.load(Ordering::SeqCst) <= nproc());
        assert_eq!(open.sum(|c| c.failed), 0);
        assert!(closed.sum(|c| c.ok) > 0);
    }

    #[test]
    fn lateness_and_latency_count_from_the_due_time() {
        let fake = Arc::new(Fake::default());
        let mut gens = vec![ConnGen::new(
            1,
            Mix::Null,
            0,
            1,
            fake_connector(&fake, Duration::from_millis(20)),
            false,
        )];
        // 200 requests all due at 10 ms: only 64 can go out at once, the
        // rest wait for replies (20 ms each round), so they run late.
        let schedule = vec![vec![10_000_000u64; 200]];
        let t = Timing {
            warmup_ns: 0,
            measure_ns: 50_000_000,
            grace_ns: 2_000_000_000,
            window_ns: 10_000_000,
        };
        let (out, ()) = run_phase(&mut gens, &Load::Open(schedule), t, |_| ());
        let c = &out.conns[0];
        assert_eq!(c.ok, 200);
        assert_eq!(c.late_ns.len(), 200);
        let mut late = c.late_ns.clone();
        late.sort_unstable();
        // The first window-full goes out on time; the fourth round waits
        // for three rounds of replies.
        assert!(late[0] < 5_000_000, "{}", late[0]);
        assert!(late[199] >= 3 * 20_000_000, "{}", late[199]);
        // Latency from due time covers the lateness plus the service
        // delay.
        let mut lat = c.latency_ns.clone();
        lat.sort_unstable();
        assert!(lat[199] >= late[199] + 20_000_000);
        for (l, (_, rtt)) in c.latency_ns.iter().zip(&c.rtt_ns) {
            assert!(l >= rtt);
        }
    }

    #[test]
    fn grouped_quantiles_follow_due_order() {
        // Two connections interleave due times; 3,000 requests make one
        // full group of 2,000 whose p99 sees the slow tail, the rest is
        // a partial group and dropped.
        let mut a = ConnOut::default();
        let mut b = ConnOut::default();
        for i in 0..3_000u64 {
            let c = if i % 2 == 0 { &mut a } else { &mut b };
            c.due_ns.push(i);
            c.latency_ns
                .push(if i % 100 == 99 { 1_000 } else { i % 100 });
        }
        let out = PhaseOut {
            conns: vec![a, b],
            threads: 2,
        };
        assert_eq!(out.grouped_quantile(0.99, 2_000), vec![98.0]);
        assert_eq!(out.grouped_quantile(0.5, 1_000).len(), 3);
    }

    #[test]
    fn unanswered_requests_count_as_failed() {
        // A server that never answers: every request fails after grace.
        let fake = Arc::new(Fake::default());
        let mut gens = vec![ConnGen::new(
            1,
            Mix::Null,
            0,
            1,
            fake_connector(&fake, Duration::from_secs(3600)),
            false,
        )];
        let t = Timing {
            warmup_ns: 0,
            measure_ns: 20_000_000,
            grace_ns: 30_000_000,
            window_ns: 10_000_000,
        };
        let (out, ()) = run_phase(&mut gens, &Load::Open(vec![vec![1_000_000; 10]]), t, |_| ());
        assert_eq!(out.sum(|c| c.attempted), 10);
        assert_eq!(out.sum(|c| c.failed), 10);
        assert_eq!(out.sum(|c| c.ok), 0);
    }
}
