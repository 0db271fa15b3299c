//! Differences of `Replica::metrics_snapshot()` taken before and after a
//! phase: thread busy and wait shares, counters, queue waits and stage
//! histogram means over exactly that phase.

use smr_metrics::{MetricsSnapshot, QueueSnapshot, ThreadProfile};

/// Two snapshots of one replica around a phase.
pub struct Delta {
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
}

/// Summed changes of the queues sharing a name prefix.
#[derive(Debug, Default)]
pub struct QueueDelta {
    pub popped: u64,
    pub push_waits: u64,
    pub pop_waits: u64,
    /// Highest depth any of them reached (since the replica started).
    pub high_watermark: u64,
}

impl Delta {
    fn thread_before(&self, name: &str) -> Option<&ThreadProfile> {
        self.before.threads.iter().find(|t| t.name == name)
    }

    /// Busy and waiting shares of the phase for the busiest thread whose
    /// name starts with `prefix` (several ClientIO or ReplicaIO threads
    /// share a prefix; the busiest is the one that saturates first).
    pub fn busiest(&self, prefix: &str) -> (f64, f64) {
        self.after
            .threads
            .iter()
            .filter(|t| t.name.starts_with(prefix))
            .map(|t| {
                let zero = ThreadProfile {
                    wall_ns: 0,
                    busy_ns: 0,
                    waiting_ns: 0,
                    ..t.clone()
                };
                let b = self.thread_before(&t.name).unwrap_or(&zero);
                let wall = t.wall_ns.saturating_sub(b.wall_ns).max(1) as f64;
                (
                    t.busy_ns.saturating_sub(b.busy_ns) as f64 / wall,
                    t.waiting_ns.saturating_sub(b.waiting_ns) as f64 / wall,
                )
            })
            .fold((0.0, 0.0), |best, x| if x.0 > best.0 { x } else { best })
    }

    pub fn counter(&self, name: &str) -> u64 {
        let b = self.before.counter(name).unwrap_or(0);
        self.after.counter(name).unwrap_or(0).saturating_sub(b)
    }

    pub fn queue(&self, prefix: &str) -> QueueDelta {
        let before = |name: &str| -> Option<&QueueSnapshot> {
            self.before.queues.iter().find(|q| q.name == name)
        };
        let mut d = QueueDelta::default();
        for q in self
            .after
            .queues
            .iter()
            .filter(|q| q.name.starts_with(prefix))
        {
            let b = before(&q.name).cloned().unwrap_or_default();
            d.popped += q.popped.saturating_sub(b.popped);
            d.push_waits += q.push_waits.saturating_sub(b.push_waits);
            d.pop_waits += q.pop_waits.saturating_sub(b.pop_waits);
            d.high_watermark = d.high_watermark.max(q.high_watermark as u64);
        }
        d
    }

    /// Mean of histogram `name` over the phase, in ms. The histograms
    /// bucket by powers of two, so their percentiles are only good to a
    /// factor of two; the mean is exact.
    pub fn hist_mean_ms(&self, name: &str) -> f64 {
        let total = |s: &MetricsSnapshot| {
            s.histogram(name)
                .map_or((0.0, 0), |h| (h.mean_ns * h.count as f64, h.count))
        };
        let (s0, c0) = total(&self.before);
        let (s1, c1) = total(&self.after);
        if c1 <= c0 {
            0.0
        } else {
            (s1 - s0) / (c1 - c0) as f64 / 1e6
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr_metrics::HistogramSummary;

    fn thread(name: &str, busy: u64, wait: u64, wall: u64) -> ThreadProfile {
        ThreadProfile {
            name: name.into(),
            busy_ns: busy,
            blocked_ns: 0,
            waiting_ns: wait,
            other_ns: 0,
            wall_ns: wall,
        }
    }

    fn hist(count: u64, mean: f64) -> HistogramSummary {
        HistogramSummary {
            name: "stage.x".into(),
            count,
            mean_ns: mean,
            p50_ns: 0.0,
            p95_ns: 0.0,
            p99_ns: 0.0,
            max_ns: 0,
        }
    }

    #[test]
    fn differences_cover_only_the_phase() {
        let before = MetricsSnapshot {
            threads: vec![
                thread("ClientIO-0", 100, 0, 1_000),
                thread("ClientIO-1", 0, 0, 1_000),
            ],
            counters: vec![("c".into(), 5)],
            histograms: vec![hist(10, 1e6)],
            ..MetricsSnapshot::default()
        };
        let after = MetricsSnapshot {
            threads: vec![
                thread("ClientIO-0", 600, 200, 2_000),
                thread("ClientIO-1", 250, 0, 2_000),
            ],
            counters: vec![("c".into(), 12)],
            histograms: vec![hist(20, 2e6)],
            ..MetricsSnapshot::default()
        };
        let d = Delta { before, after };
        assert_eq!(d.busiest("ClientIO"), (0.5, 0.2));
        assert_eq!(d.counter("c"), 7);
        // 10 samples at 1 ms then 10 more averaging 3 ms.
        assert!((d.hist_mean_ms("stage.x") - 3.0).abs() < 1e-9);
    }
}
