//! Seeded randomness: every input the benchmark generates derives from the
//! `--seed` argument through this generator, so one seed always yields the
//! same arrival schedule and the same request streams.

/// SplitMix64: tiny, fast, and good enough for workload generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` of `seed`. Different streams of one seed
    /// are independent (one per connection, per logical client, ...).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// An exponentially distributed gap, in nanoseconds, for a Poisson
    /// process of `rate` events per second.
    pub fn exp_gap_ns(&mut self, rate: f64) -> u64 {
        let u = 1.0 - self.unit(); // (0, 1]
        (-u.ln() / rate * 1e9) as u64
    }
}

/// Due times (ns from phase start) of a Poisson arrival process of `rate`
/// requests per second over `duration_ns`.
pub fn poisson_schedule(seed: u64, stream: u64, rate: f64, duration_ns: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed, stream);
    let mut out = Vec::with_capacity((rate * duration_ns as f64 / 1e9 * 1.1) as usize + 16);
    let mut t = rng.exp_gap_ns(rate);
    while t < duration_ns {
        out.push(t);
        t += rng.exp_gap_ns(rate);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_identical_for_the_same_seed() {
        let a = poisson_schedule(7, 1, 2_000.0, 2_000_000_000);
        let b = poisson_schedule(7, 1, 2_000.0, 2_000_000_000);
        assert_eq!(a, b);
        let c = poisson_schedule(8, 1, 2_000.0, 2_000_000_000);
        assert_ne!(a, c, "another seed gives another schedule");
        let d = poisson_schedule(7, 2, 2_000.0, 2_000_000_000);
        assert_ne!(a, d, "another stream gives another schedule");
    }

    #[test]
    fn schedule_has_the_requested_rate() {
        let s = poisson_schedule(3, 0, 10_000.0, 2_000_000_000);
        let n = s.len() as f64;
        assert!((n - 20_000.0).abs() < 600.0, "{n} arrivals");
        assert!(s.windows(2).all(|w| w[0] <= w[1]), "sorted");
        assert!(*s.last().unwrap() < 2_000_000_000);
    }
}
