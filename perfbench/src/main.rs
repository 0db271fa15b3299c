//! The replica benchmark: starts a 3-replica cluster per workload, drives
//! it from an in-process load generator, checks every reply, and prints
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics of a
//! traced run (`--trace 1`). The last line of standard output is one JSON
//! object; a human-readable account goes to standard error.
//!
//! ```text
//! perfbench --workload <null-mem|kv-wal|kv-tcp|failover|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! how to read a trace.

mod cluster;
mod gen;
mod layers;
mod replay;
mod rng;
mod stats;
mod tcp_client;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cluster::Cluster;
use gen::{run_phase, ConnGen, Load, PhaseOut, Timing};
use layers::Delta;
use stats::{lower_quartile, median_f64, ns_to_ms, quantile, tail_quantile, upper_quartile};
use trace::Tracer;
use workload::{LogicalClient, Transport, Workload, CONNS, WORKLOADS};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// The untraced run cycles light, load and closed phases this many times,
/// so that each metric samples the whole run rather than one stretch of
/// it (the host's background load comes and goes).
const ROUNDS: u64 = 4;
/// Unmeasured lead-in of a phase on a fresh cluster.
const WARMUP_NS: u64 = 500_000_000;
/// Unmeasured lead-in of later rounds, once the cluster is warm.
const REWARM_NS: u64 = 100_000_000;
/// A closed-loop run this long precedes every measurement on a fresh
/// cluster: it writes most KV keys, so the maps, the WAL and the snapshots
/// reach their steady size before anything is timed.
const FILL_NS: u64 = 1_000_000_000;
/// How long a phase waits for replies after it stops sending.
const GRACE_NS: u64 = 3_000_000_000;
/// Closed-loop throughput is the upper quartile over windows this wide.
const WINDOW_NS: u64 = 250_000_000;
/// Without a crash, `unavailable_ms` is the lower quartile over windows
/// this wide of each window's longest interval with no completed reply.
const STALL_WINDOW_NS: u64 = 100_000_000;
/// `load_p99_ms` is the lower quartile of the p99 of each run of this
/// many consecutive requests (20 samples lie beyond each p99).
const P99_GROUP: usize = 2_000;
/// Failover: the leader is isolated this far into the measured part of
/// the first light phase...
const CRASH_AFTER_NS: u64 = 500_000_000;
/// ...which lasts at least this long, so the outage (about 0.5 s) ends
/// inside it whatever `--seconds` is.
const CRASH_PHASE_NS: u64 = 2_000_000_000;
/// How long replicas get to agree on the state after a phase.
const AGREE_WITHIN: Duration = Duration::from_secs(10);
/// Where runs keep WAL directories and traces, under the working
/// directory.
const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 12,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if args.seconds < 3 {
        return Err("--seconds must be at least 3".into());
    }
    Ok(args)
}

/// A metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

/// The outcome of one run.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    /// Wrong replies and replica disagreements.
    errors: Vec<String>,
    metrics: Vec<Metric>,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Counts a phase and keeps its wrong replies.
    fn absorb(&mut self, phase: &str, out: &PhaseOut) {
        self.attempted += out.sum(|c| c.attempted);
        self.failed += out.sum(|c| c.failed) + out.sum(|c| c.wrong.len() as u64);
        for c in &out.conns {
            for w in &c.wrong {
                self.errors.push(format!("{phase}: wrong reply: {w}"));
            }
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Per-run paths under [`OUT_DIR`].
struct Paths {
    root: PathBuf,
    tag: String,
    workload: &'static str,
}

impl Paths {
    fn new(w: &Workload, seed: u64, trace: bool) -> Self {
        Paths {
            root: PathBuf::from(OUT_DIR),
            tag: format!(
                "{}-seed{seed}-trace{}-{}",
                w.name,
                u8::from(trace),
                std::process::id()
            ),
            workload: w.name,
        }
    }

    fn data(&self, k: impl std::fmt::Display) -> PathBuf {
        self.root.join("data").join(format!("{}-{k}", self.tag))
    }

    /// The latest traced run of a workload replaces the previous one.
    fn trace_file(&self) -> PathBuf {
        self.root
            .join("traces")
            .join(format!("{}.tsv", self.workload))
    }
}

/// Starts a cluster and waits for its first correct reply.
fn timed_setup(
    w: &Workload,
    tracer: Option<&Arc<Tracer>>,
    data: PathBuf,
) -> Result<(Cluster, f64), String> {
    let t = Instant::now();
    let cluster = Cluster::start(w, tracer, Some(data))?;
    cluster::first_reply(&cluster.connector(), w.mix, 1, Duration::from_secs(20))?;
    Ok((cluster, t.elapsed().as_secs_f64()))
}

fn generators(w: &Workload, seed: u64, cluster: &Cluster) -> Vec<ConnGen> {
    let conns = CONNS.min(gen::nproc());
    (0..conns)
        .map(|c| {
            ConnGen::new(
                seed,
                w.mix,
                c,
                conns,
                cluster.connector(),
                w.transport == Transport::Tcp,
            )
        })
        .collect()
}

fn timing(warmup_ns: u64, measure_ns: u64) -> Timing {
    Timing {
        warmup_ns,
        measure_ns,
        grace_ns: GRACE_NS,
        window_ns: WINDOW_NS,
    }
}

/// Open-loop schedules: each connection carries an independent Poisson
/// stream of `rate / conns`, so their union is Poisson at `rate`.
fn open_load(seed: u64, phase: u64, rate: f64, conns: usize, t: Timing) -> Load {
    Load::Open(
        (0..conns)
            .map(|c| {
                rng::poisson_schedule(
                    seed,
                    phase * 100 + c as u64,
                    rate / conns as f64,
                    t.warmup_ns + t.measure_ns,
                )
            })
            .collect(),
    )
}

/// What the failover controller saw, in ms after the crash.
#[derive(Default, Clone, Copy)]
struct Failover {
    detect_ms: f64,
    first_decide_ms: f64,
}

/// Isolates the leader [`CRASH_AFTER_NS`] into the measured phase, then
/// polls the survivors until one names a new leader and it decides a new
/// slot.
fn crash_controller(cluster: &mut Cluster, t0: Instant) -> Failover {
    let at = t0 + Duration::from_nanos(WARMUP_NS + CRASH_AFTER_NS);
    std::thread::sleep(at.saturating_duration_since(Instant::now()));
    let Some(old) = cluster.leader() else {
        return Failover::default();
    };
    cluster.crash(old);
    let crashed_at = Instant::now();
    let mut f = Failover::default();
    let give_up = crashed_at + Duration::from_secs(10);
    let mut new_leader = None;
    while Instant::now() < give_up {
        let survivors = cluster.replicas.iter().filter(|r| r.id() != old);
        if let Some(r) = survivors.into_iter().find(|r| r.shared().leader() != old) {
            f.detect_ms = crashed_at.elapsed().as_secs_f64() * 1e3;
            new_leader = Some(r.shared().leader());
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let Some(l) = new_leader else { return f };
    let decided = cluster.replicas[l.index()].shared().decided_upto();
    while Instant::now() < give_up {
        if cluster.replicas[l.index()].shared().decided_upto() > decided {
            f.first_decide_ms = crashed_at.elapsed().as_secs_f64() * 1e3;
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    f
}

/// The timing of light phase `round`: the one with the crash lasts at
/// least [`CRASH_PHASE_NS`].
fn crash_timing(w: &Workload, round: u64, t: Timing) -> Timing {
    if w.crash && round == 0 {
        timing(t.warmup_ns, t.measure_ns.max(CRASH_PHASE_NS))
    } else {
        t
    }
}

/// Runs the unmeasured closed-loop fill ([`FILL_NS`]); its requests are
/// checked and counted like any other.
fn fill(gens: &mut [ConnGen], report: &mut Report) {
    let t = timing(FILL_NS, 0);
    let (out, ()) = run_phase(gens, &Load::Closed, t, |_| ());
    describe("fill", &out);
    report.absorb("fill", &out);
}

/// Runs light phase `round`; the first isolates the leader if the
/// workload asks.
fn light_phase(
    w: &Workload,
    seed: u64,
    round: u64,
    cluster: &mut Cluster,
    gens: &mut [ConnGen],
    t: Timing,
) -> (PhaseOut, Failover) {
    let load = open_load(seed, 10 * round + 1, w.light_rate, gens.len(), t);
    run_phase(gens, &load, t, |t0| {
        if w.crash && round == 0 {
            crash_controller(cluster, t0)
        } else {
            Failover::default()
        }
    })
}

/// Checks that the live replicas agree, and (when every request was
/// answered) that they hold exactly the generator's model state.
fn verify(w: &Workload, cluster: &Cluster, gens: &[ConnGen], report: &mut Report) {
    match cluster.await_agreement(AGREE_WITHIN) {
        Ok(h) => {
            if report.failed == 0 && report.errors.is_empty() {
                let clients: Vec<&LogicalClient> =
                    gens.iter().flat_map(|g| g.clients.iter()).collect();
                let want = workload::model_service(w.mix, &clients).state_hash();
                if h != want {
                    report.errors.push(format!(
                        "replicas hold state {h:x}, the model expects {want:x}"
                    ));
                }
            }
        }
        Err(hashes) => report
            .errors
            .push(format!("replicas disagree on the state: {hashes:x?}")),
    }
}

fn describe(phase: &str, out: &PhaseOut) {
    let late = out.sorted(|c| c.late_ns.clone());
    let lat = out.sorted(|c| c.latency_ns.clone());
    let ms = |v: Option<u64>| v.map_or("n/a".to_string(), |x| format!("{:.3}", ns_to_ms(x)));
    eprintln!(
        "  {phase:<8} threads {} attempted {:>7} ok {:>7} failed {:>3} resends {:>4} redirects {:>4} | \
         latency p50 {} p99 {} ms (n={}) | generator late p50 {} p99 {} ms (n={})",
        out.threads,
        out.sum(|c| c.attempted),
        out.sum(|c| c.ok),
        out.sum(|c| c.failed),
        out.sum(|c| c.resends),
        out.sum(|c| c.redirects),
        ms(quantile(&lat, 0.5)),
        ms(tail_quantile(&lat, 0.99)),
        lat.len(),
        ms(quantile(&late, 0.5)),
        ms(tail_quantile(&late, 0.99)),
        late.len(),
    );
}

/// The untraced run: the end-to-end metrics.
fn run_untraced(w: &Workload, seed: u64, seconds: u64) -> Result<Report, String> {
    let paths = Paths::new(w, seed, false);
    let phase_ns = seconds * 1_000_000_000 / 3;
    let mut report = Report::default();

    let mut setups = Vec::with_capacity(SETUPS);
    let mut cluster = None;
    for k in 0..SETUPS {
        if let Some(c) = cluster.take() {
            Cluster::shutdown(c);
        }
        let (c, s) = timed_setup(w, None, paths.data(k))?;
        setups.push(s);
        cluster = Some(c);
    }
    let mut cluster = cluster.expect("at least one set-up");
    eprintln!("{} (untraced, seed {seed}): set-up {:?} s", w.name, setups);
    let mut gens = generators(w, seed, &cluster);
    fill(&mut gens, &mut report);

    let (mut lights, mut loads, mut closeds) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        let warmup = if round == 0 { WARMUP_NS } else { REWARM_NS };
        let t = timing(warmup, phase_ns / ROUNDS);
        let t_light = crash_timing(w, round, t);
        let (light, _) = light_phase(w, seed, round, &mut cluster, &mut gens, t_light);
        describe("light", &light);
        report.absorb("light", &light);
        lights.push((light, t_light));

        let load = open_load(seed, 10 * round + 2, w.load_rate, gens.len(), t);
        let (loaded, ()) = run_phase(&mut gens, &load, t, |_| ());
        describe("load", &loaded);
        report.absorb("load", &loaded);
        loads.push((loaded, t));

        let (closed, ()) = run_phase(&mut gens, &Load::Closed, t, |_| ());
        describe("closed", &closed);
        report.absorb("closed", &closed);
        closeds.push((closed, t));
    }
    verify(w, &cluster, &gens, &mut report);
    cluster.shutdown();

    let pooled = |phases: &[(PhaseOut, Timing)]| {
        let mut v: Vec<u64> = phases
            .iter()
            .flat_map(|(p, _)| p.sorted(|c| c.latency_ns.clone()))
            .collect();
        v.sort_unstable();
        v
    };
    let p50 = |phases: &[(PhaseOut, Timing)], what: &str| {
        quantile(&pooled(phases), 0.5)
            .map(ns_to_ms)
            .ok_or(format!("{what}: no samples"))
    };
    let p99s: Vec<f64> = loads
        .iter()
        .flat_map(|(p, _)| p.grouped_quantile(0.99, P99_GROUP))
        .collect();
    if p99s.is_empty() {
        return Err("load_p99_ms: too few samples for the percentile".into());
    }
    let rps: Vec<f64> = closeds
        .iter()
        .flat_map(|(p, _)| p.window_rps(WINDOW_NS))
        .collect();
    let bad = report.failed as f64 / report.attempted.max(1) as f64;
    report.put("setup_s", median_f64(&setups), "s");
    report.put("light_p50_ms", p50(&lights, "light_p50_ms")?, "ms");
    report.put("load_p50_ms", p50(&loads, "load_p50_ms")?, "ms");
    // The shared host's stalls only ever add latency and take away
    // throughput. Windowed figures therefore take the quartile on the side
    // those stalls cannot reach: the figure the replica sets in its
    // undisturbed stretches. A change to the program that moves more than
    // a quarter of the windows still shows.
    report.put("load_p99_ms", lower_quartile(&p99s) / 1e6, "ms");
    report.put("closed_rps", upper_quartile(&rps), "req/s");
    report.put("ok_frac", 1.0 - bad, "ratio");
    report.put("unavailable_ms", unavailable_ms(w, &lights), "ms");
    Ok(report)
}

/// The longest interval with no completed reply in the light phases.
/// With a crash it is taken over the whole first light phase, so it spans
/// the outage; without one it is the lower quartile over
/// [`STALL_WINDOW_NS`] windows of each window's longest interval, the
/// steady stall the outage compares with.
fn unavailable_ms(w: &Workload, lights: &[(PhaseOut, Timing)]) -> f64 {
    if w.crash {
        let (light, t) = &lights[0];
        let (from, to) = t.span();
        return ns_to_ms(light.longest_gap_ns(from, to));
    }
    let gaps: Vec<f64> = lights
        .iter()
        .flat_map(|(light, t)| {
            let (from, to) = t.span();
            (from..to)
                .step_by(STALL_WINDOW_NS as usize)
                .map(move |a| light.longest_gap_ns(a, (a + STALL_WINDOW_NS).min(to)) as f64)
        })
        .collect();
    lower_quartile(&gaps) / 1e6
}

/// One phase on a fresh cluster, so that snapshot differences and
/// histograms cover exactly that phase: its output, the difference of the
/// snapshots of replica 0 (the leader at the start), the spans with their
/// self times, the slots replica 0 decided, and what the failover
/// controller saw. With `sample` set, every seam is decorated and one
/// request in `sample` keeps its spans.
struct Traced {
    out: PhaseOut,
    delta: Delta,
    spans: Vec<trace::Span>,
    selfs: Vec<u64>,
    tracer: Arc<Tracer>,
    slots: u64,
    failover: Failover,
}

#[allow(clippy::too_many_arguments)]
fn fresh_phase(
    w: &Workload,
    seed: u64,
    paths: &Paths,
    name: &str,
    sample: Option<u64>,
    closed: bool,
    t: Timing,
    report: &mut Report,
) -> Result<Traced, String> {
    let tracer = Tracer::new(sample.unwrap_or(1));
    let traced = sample.is_some().then_some(&tracer);
    let (mut cluster, _) = timed_setup(w, traced, paths.data(name))?;
    let mut gens = generators(w, seed, &cluster);
    fill(&mut gens, report);
    tracer.reset();
    let before = cluster.replicas[0].metrics_snapshot();
    let slots0 = cluster.replicas[0].shared().decided_upto().0;
    let (out, failover) = if closed {
        let (out, ()) = run_phase(&mut gens, &Load::Closed, t, |_| ());
        (out, Failover::default())
    } else {
        light_phase(w, seed, 0, &mut cluster, &mut gens, t)
    };
    describe(name, &out);
    report.absorb(name, &out);
    let after = cluster.replicas[0].metrics_snapshot();
    let slots = cluster.replicas[0].shared().decided_upto().0 - slots0;
    verify(w, &cluster, &gens, report);
    cluster.shutdown();
    let spans = tracer.spans();
    let selfs = trace::self_times(&spans);
    if traced.is_some() {
        trace::write_spans(&paths.trace_file(), name, &spans, &selfs)
            .map_err(|e| format!("writing the trace: {e}"))?;
    }
    Ok(Traced {
        out,
        delta: Delta { before, after },
        spans,
        selfs,
        tracer,
        slots,
        failover,
    })
}

/// The traced run: the per-layer metrics.
fn run_traced(w: &Workload, seed: u64, seconds: u64) -> Result<Report, String> {
    let paths = Paths::new(w, seed, true);
    let _ = std::fs::remove_file(paths.trace_file());
    // Traced phases are shorter than untraced ones: spans cost memory.
    let t = timing(WARMUP_NS, seconds * 1_000_000_000 / 4);
    let mut report = Report::default();
    eprintln!("{} (traced, seed {seed})", w.name);

    // A: the light phase, every span kept: the stage breakdown of
    // light_p50_ms. B: the closed phase untraced, then C: traced, for the
    // overhead; C runs at ~50x A's request rate, so it keeps one request
    // in eight.
    let a = fresh_phase(
        w,
        seed,
        &paths,
        "light",
        Some(1),
        false,
        crash_timing(w, 0, t),
        &mut report,
    )?;
    let b = fresh_phase(
        w,
        seed,
        &paths,
        "closed-untraced",
        None,
        true,
        t,
        &mut report,
    )?
    .out;
    let c = fresh_phase(w, seed, &paths, "closed", Some(8), true, t, &mut report)?;

    let ms = |v: Option<u64>| v.map_or(0.0, ns_to_ms);

    // Client edge and the stage breakdown of the light phase (A).
    let rtt_a: Vec<(u64, u64)> = a.out.conns.iter().flat_map(|c| c.rtt_ns.clone()).collect();
    let mut rtts: Vec<u64> = rtt_a.iter().map(|(_, r)| *r).collect();
    rtts.sort_unstable();
    let lat = a.out.sorted(|c| c.latency_ns.clone());
    let late = a.out.sorted(|c| c.late_ns.clone());
    let (paired_rtt, residence) = rtt_and_residence(&a.spans, &rtt_a);
    let residence_p50 = ms(quantile(&residence, 0.5));
    let unattributed = ms(quantile(&paired_rtt, 0.5)) - residence_p50;
    let stage = |h: &str| a.delta.hist_mean_ms(h);

    // The capacity regime (C): who is busy, who waits, what an op costs.
    let d = &c.delta;
    let ops = c.out.sum(|x| x.ok).max(1) as f64;
    let per_op = |v: u64| v as f64 / ops;
    let cnt = |f: fn(&trace::Counters) -> &std::sync::atomic::AtomicU64| {
        c.tracer.count(f(&c.tracer.counters))
    };
    let both = |f: fn(&trace::Counters) -> &std::sync::atomic::AtomicU64| {
        cnt(f) + a.tracer.count(f(&a.tracer.counters))
    };
    let p50_self = |name: &str, replica: Option<u16>| {
        quantile(
            &trace::self_times_of(&c.spans, &c.selfs, name, replica),
            0.5,
        )
        .unwrap_or(0) as f64
    };
    let ratio = |x: u64, y: u64| x as f64 / y.max(1) as f64;
    let (cio_busy, cio_wait) = d.busiest("ClientIO");
    let (proto_busy, proto_wait) = d.busiest("Protocol");
    let reqs = d.queue("RequestQueue").popped;
    let batches = d.queue("ProposalQueue").popped;
    let untraced = median_f64(&b.window_rps(WINDOW_NS));
    let traced = median_f64(&c.out.window_rps(WINDOW_NS));

    let mut metrics: Vec<(String, f64, &'static str)> = [
        ("client.rtt_p50_ms", ms(quantile(&rtts, 0.5)), "ms"),
        ("client.rtt_p99_ms", ms(tail_quantile(&rtts, 0.99)), "ms"),
        ("client.light_p99_ms", ms(tail_quantile(&lat, 0.99)), "ms"),
        (
            "client.gen_late_p99_ms",
            ms(tail_quantile(&late, 0.99)),
            "ms",
        ),
        ("client.unattributed_p50_ms", unattributed, "ms"),
        ("client.intake_to_reply_p50_ms", residence_p50, "ms"),
        (
            "stage.intake_to_sealed_ms",
            stage("stage.intake_to_sealed"),
            "ms",
        ),
        (
            "stage.sealed_to_proposed_ms",
            stage("stage.sealed_to_proposed"),
            "ms",
        ),
        (
            "stage.proposed_to_decided_ms",
            stage("stage.proposed_to_decided"),
            "ms",
        ),
        (
            "stage.decided_to_executed_ms",
            stage("stage.decided_to_executed"),
            "ms",
        ),
        (
            "stage.executed_to_reply_ms",
            stage("stage.executed_to_reply"),
            "ms",
        ),
        (
            "stage.intake_to_reply_ms",
            stage("stage.intake_to_reply"),
            "ms",
        ),
        ("client_io.busy_frac", cio_busy, "ratio"),
        ("client_io.wait_frac", cio_wait, "ratio"),
        (
            "client_io.recv_calls_per_req",
            ratio(cnt(|k| &k.recv_calls), cnt(|k| &k.recv_frames)),
            "count",
        ),
        (
            "client_io.reply_send_us_p50",
            p50_self("client_io.reply_send", Some(0)) / 1e3,
            "us",
        ),
        ("batcher.reqs_per_batch", ratio(reqs, batches), "count"),
        (
            "batcher.bytes_per_batch",
            ratio(cnt(|k| &k.propose_batch_bytes), cnt(|k| &k.propose_frames)),
            "B",
        ),
        (
            "batcher.intake_to_sealed_mean_ms",
            d.hist_mean_ms("stage.intake_to_sealed"),
            "ms",
        ),
        ("batcher.busy_frac", d.busiest("Batcher").0, "ratio"),
        (
            "protocol.sealed_to_proposed_mean_ms",
            d.hist_mean_ms("stage.sealed_to_proposed"),
            "ms",
        ),
        (
            "protocol.proposed_to_decided_mean_ms",
            d.hist_mean_ms("stage.proposed_to_decided"),
            "ms",
        ),
        ("protocol.busy_frac", proto_busy, "ratio"),
        ("protocol.wait_frac", proto_wait, "ratio"),
        (
            "protocol.msgs_per_slot",
            ratio(cnt(|k| &k.net_frames), c.slots),
            "count",
        ),
        ("net.frames_per_op", per_op(cnt(|k| &k.net_frames)), "count"),
        ("net.bytes_per_op", per_op(cnt(|k| &k.net_bytes)), "B"),
        ("net.send_us_p50", p50_self("net.send_to", None) / 1e3, "us"),
        (
            "net.send_drops",
            d.counter("net.send_drops") as f64,
            "count",
        ),
        (
            "net.replica_io_busy_frac",
            d.busiest("ReplicaIO").0,
            "ratio",
        ),
    ]
    .into_iter()
    .map(|(n, v, u)| (n.to_string(), v, u))
    .collect();
    for (short, name) in [
        ("request_q", "RequestQueue"),
        ("proposal_q", "ProposalQueue"),
        ("dispatcher_q", "DispatcherQueue"),
        ("decision_q", "DecisionQueue"),
        ("send_q", "SendQueue"),
        ("reply_q", "ReplyQueue"),
    ] {
        let q = d.queue(name);
        metrics.push((
            format!("queue.{short}.push_waits_per_kop"),
            per_op(q.push_waits) * 1e3,
            "count",
        ));
        metrics.push((
            format!("queue.{short}.pop_waits_per_kop"),
            per_op(q.pop_waits) * 1e3,
            "count",
        ));
        metrics.push((
            format!("queue.{short}.high_watermark"),
            q.high_watermark as f64,
            "count",
        ));
    }

    // Replays at the observed batch size, on the seed's own requests.
    let k = ratio(reqs, batches).round().max(1.0) as usize;
    let r = replay::run(
        seed,
        w.mix,
        k,
        replay_state(w, seed).as_ref(),
        &paths.data("replay"),
    )?;
    let rest = [
        (
            "storage.bytes_per_op",
            per_op(d.counter("wal.appended_bytes")),
            "B",
        ),
        (
            "exec.execute_ns_p50",
            p50_self("service.execute", Some(0)),
            "ns",
        ),
        (
            "exec.decided_to_executed_mean_ms",
            d.hist_mean_ms("stage.decided_to_executed"),
            "ms",
        ),
        (
            "exec.service_manager_busy_frac",
            d.busiest("Replica").0,
            "ratio",
        ),
        (
            "reply_cache.lookup_ns_p50",
            p50_self("reply_cache.lookup", Some(0)),
            "ns",
        ),
        (
            "reply_cache.record_ns_p50",
            p50_self("reply_cache.record", Some(0)),
            "ns",
        ),
        (
            "reply_cache.hit_frac",
            ratio(both(|k| &k.cache_hits), both(|k| &k.cache_lookups)),
            "ratio",
        ),
        ("failover.detect_ms", a.failover.detect_ms, "ms"),
        ("failover.first_decide_ms", a.failover.first_decide_ms, "ms"),
        (
            "failover.client_retries",
            a.out.sum(|x| x.resends) as f64,
            "count",
        ),
        (
            "trace.overhead_frac",
            1.0 - traced / untraced.max(1.0),
            "ratio",
        ),
        ("wire.batch_encode_ns", r.batch_encode_ns, "ns"),
        ("wire.batch_decode_ns", r.batch_decode_ns, "ns"),
        ("wire.crc32_gib_s", r.crc32_gib_s, "GiB/s"),
        ("batcher.push_ns_per_req", r.push_ns_per_req, "ns"),
        ("paxos.handle_ns_per_slot", r.handle_ns_per_slot, "ns"),
        ("storage.append_us_p50", r.append_us_p50, "us"),
        ("storage.append_us_p99", r.append_us_p99, "us"),
        ("storage.sync_us_p50", r.sync_us_p50, "us"),
        ("storage.sync_us_p99", r.sync_us_p99, "us"),
        ("storage.snapshot_ms", r.snapshot_ms, "ms"),
    ];
    metrics.extend(rest.into_iter().map(|(n, v, u)| (n.to_string(), v, u)));
    report.metrics = metrics;

    eprintln!(
        "  trace: {} spans written to {} ({} not kept)",
        a.spans.len() + c.spans.len(),
        paths.trace_file().display(),
        both(|k| &k.spans_dropped)
    );
    Ok(report)
}

/// Pairs each measured request's client round trip with its server
/// residence: from the `client_io.recv` span that read it to the end of
/// the `client_io.reply_send` span that wrote its reply, on the replica
/// that replied. Returns both lists sorted, over the requests traced on
/// both sides.
fn rtt_and_residence(spans: &[trace::Span], measured: &[(u64, u64)]) -> (Vec<u64>, Vec<u64>) {
    use std::collections::HashMap;
    let mut recv: HashMap<(u16, u64), u64> = HashMap::new();
    let mut sent: HashMap<u64, (u16, u64)> = HashMap::new();
    for s in spans.iter().filter(|s| s.key != 0) {
        match s.name {
            "client_io.recv" => {
                recv.entry((s.replica, s.key)).or_insert(s.start_ns);
            }
            "client_io.reply_send" => {
                sent.insert(s.key, (s.replica, s.end_ns));
            }
            _ => {}
        }
    }
    let (mut rtt, mut res): (Vec<u64>, Vec<u64>) = measured
        .iter()
        .filter_map(|&(k, rtt)| {
            let (r, end) = sent.get(&k)?;
            Some((rtt, end.saturating_sub(*recv.get(&(*r, k))?)))
        })
        .unzip();
    rtt.sort_unstable();
    res.sort_unstable();
    (rtt, res)
}

/// The service state at the end of a run of `w`, rebuilt from the seed's
/// request streams, for the snapshot replay: every KV key written once.
fn replay_state(w: &Workload, seed: u64) -> Box<dyn smr_core::SnapshotService> {
    let total = CONNS * workload::WINDOW;
    let mut clients: Vec<LogicalClient> = (0..total)
        .map(|i| LogicalClient::new(seed, w.mix, i, total))
        .collect();
    if let workload::Mix::Kv { .. } = w.mix {
        // Enough requests that nearly every key has been written.
        for _ in 0..(workload::KEYS as usize / total) * 12 {
            for c in &mut clients {
                c.next_request();
            }
        }
    }
    let refs: Vec<&LogicalClient> = clients.iter().collect();
    workload::model_service(w.mix, &refs)
}

fn run_one(w: &Workload, args: &Args) -> Result<Report, String> {
    if args.trace {
        run_traced(w, args.seed, args.seconds)
    } else {
        run_untraced(w, args.seed, args.seconds)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let chosen: Vec<Workload> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        match workload::find(&args.workload) {
            Some(w) => vec![w],
            None => {
                eprintln!("perfbench: unknown workload {}", args.workload);
                return ExitCode::from(2);
            }
        }
    };
    let mut all = Report::default();
    for w in &chosen {
        let report = match run_one(w, &args) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", w.name);
                return ExitCode::from(1);
            }
        };
        if chosen.len() > 1 {
            println!("{}:", w.name);
            for (n, v, u) in &report.metrics {
                println!("  {n:<40} {v:>14.4} {u}");
            }
        }
        for e in &report.errors {
            eprintln!("perfbench: {}: {e}", w.name);
        }
        all.attempted += report.attempted;
        all.failed += report.failed;
        all.errors.extend(report.errors);
        for (n, v, u) in report.metrics {
            let name = if chosen.len() > 1 {
                format!("{}.{n}", w.name)
            } else {
                n
            };
            all.metrics.push((name, v, u));
        }
    }
    println!("{}", all.json());
    if all.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
