//! Time, order statistics and process facts shared by every workload.
//!
//! Time is read through [`ClockHandle`], so the benchmark's own tests can
//! drive it with a `VirtualClock`, and summaries go through
//! `cutelock_store::agg`, the workspace's one statistics kernel.

use std::time::Duration;

use cutelock_core::clock::{ClockHandle, Instant};
use cutelock_store::agg;

/// A started interval on a clock.
pub struct Stopwatch<'a> {
    clock: &'a ClockHandle,
    start: Instant,
}

impl<'a> Stopwatch<'a> {
    /// Starts timing now.
    pub fn start(clock: &'a ClockHandle) -> Self {
        Self {
            clock,
            start: clock.now(),
        }
    }

    /// Time since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.clock.now().duration_since(self.start)
    }
}

/// A bag of durations, summarised by median and nearest-rank percentile.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    nanos: Vec<u64>,
}

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, d: Duration) {
        self.nanos
            .push(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.nanos.len()
    }

    fn sorted(&self) -> Vec<u64> {
        let mut v = self.nanos.clone();
        v.sort_unstable();
        v
    }

    /// Median (zero when empty).
    pub fn median(&self) -> Duration {
        Duration::from_nanos(agg::median_u64(&self.sorted()).unwrap_or(0))
    }

    /// Median in milliseconds (0 when empty).
    pub fn median_ms(&self) -> f64 {
        agg::median_u64(&self.sorted()).map_or(0.0, ns_to_ms)
    }

    /// Nearest-rank `p`-th percentile in milliseconds (0 when empty).
    pub fn percentile_ms(&self, p: f64) -> f64 {
        agg::percentile_u64(&self.sorted(), p).map_or(0.0, ns_to_ms)
    }

    /// Sum in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.nanos.iter().map(|&n| ns_to_ms(n)).sum()
    }
}

impl FromIterator<Duration> for Samples {
    fn from_iter<I: IntoIterator<Item = Duration>>(iter: I) -> Self {
        let mut s = Samples::default();
        for d in iter {
            s.push(d);
        }
        s
    }
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's own seed expander. Every seeded choice the
/// benchmark makes (lock seeds, key draws, stimuli, request order) comes
/// from here, so the program under test only ever sees generated inputs.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A stable 64-bit salt for a string (FNV-1a).
pub fn salt(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A deterministic stream of pseudo-random bits.
pub struct BitStream {
    state: u64,
    word: u64,
    left: u32,
}

impl BitStream {
    /// A stream seeded by `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed,
            word: 0,
            left: 0,
        }
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(1);
        mix(self.state, 0x5354_494d) // "STIM"
    }

    /// The next random bit.
    pub fn bit(&mut self) -> bool {
        if self.left == 0 {
            self.word = self.next_u64();
            self.left = 64;
        }
        self.left -= 1;
        (self.word >> self.left) & 1 == 1
    }

    /// `n` random bits.
    pub fn bits(&mut self, n: usize) -> Vec<bool> {
        (0..n).map(|_| self.bit()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutelock_core::clock::VirtualClock;

    #[test]
    fn stopwatch_reads_the_injected_clock() {
        let vc = VirtualClock::new();
        let clock = vc.handle();
        let sw = Stopwatch::start(&clock);
        vc.advance(Duration::from_millis(7));
        assert_eq!(sw.elapsed(), Duration::from_millis(7));
    }

    #[test]
    fn samples_use_nearest_rank_percentiles() {
        let vc = VirtualClock::new();
        let clock = vc.handle();
        let mut s = Samples::default();
        for ms in 1..=10 {
            let sw = Stopwatch::start(&clock);
            vc.advance(Duration::from_millis(ms));
            s.push(sw.elapsed());
        }
        assert_eq!(s.len(), 10);
        assert_eq!(s.median_ms(), 5.5);
        assert_eq!(s.percentile_ms(90.0), 9.0);
        assert_eq!(s.total_ms(), 55.0);
        assert_eq!(Samples::default().median_ms(), 0.0);
    }

    #[test]
    fn seeded_streams_repeat() {
        assert_eq!(BitStream::new(3).bits(100), BitStream::new(3).bits(100));
        assert_ne!(BitStream::new(3).bits(100), BitStream::new(4).bits(100));
        assert_ne!(mix(1, salt("a")), mix(1, salt("b")));
    }
}
