//! Small self-contained helpers: the benchmark's own random numbers,
//! digests, percentiles and an in-memory span recorder. They live here,
//! not in the measured crates, so that an edit to the program can never
//! change what the benchmark generates or how it computes its figures.

use std::time::{Duration, Instant};

/// SplitMix64: a tiny, well-mixed generator seeded per purpose.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` under the run's `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// 64-bit FNV-1a over a stream of 32-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Fold one word in, byte by byte (little-endian).
    pub fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// Fold a slice of words in.
    pub fn words(&mut self, ws: &[u32]) {
        for &w in ws {
            self.word(w);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a slice of words.
pub fn digest(ws: &[u32]) -> u64 {
    let mut h = Fnv::default();
    h.words(ws);
    h.finish()
}

/// Exact percentile `p` in `[0, 1]` of `samples`, by linear
/// interpolation between the closest ranks (0 when empty).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The tail percentile of `samples`: p99 once there are 1000 of them,
/// else the highest percentile with at least ten samples beyond it (at
/// least the median). Returns the percentile and its value.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let p = (1.0 - 10.0 / samples.len().max(1) as f64).clamp(0.5, 0.99);
    (p, percentile(samples, p))
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One recorded interval around a call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the call belongs to (crate name).
    pub layer: &'static str,
    /// The public function called.
    pub name: &'static str,
    /// Offset of the start from the recorder's origin.
    pub start: Duration,
    /// Offset of the end from the recorder's origin.
    pub end: Duration,
}

/// Spans kept in memory and summarised when the run ends. A disabled
/// recorder only runs the closures.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder whose clock starts now.
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Time since the recorder's origin.
    pub fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    /// Run `f` inside a span named `layer`/`name`.
    pub fn span<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(layer, name, start, end);
        out
    }

    fn record(&mut self, layer: &'static str, name: &'static str, start: Duration, end: Duration) {
        if self.enabled {
            self.spans.push(Span {
                layer,
                name,
                start,
                end,
            });
        }
    }

    /// Append spans recorded by another recorder sharing this origin.
    pub fn extend(&mut self, spans: Vec<Span>) {
        if self.enabled {
            self.spans.extend(spans);
        }
    }

    /// The recorder's origin, for recorders on other threads.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Busy time per layer: the union of that layer's spans, so that
    /// concurrent calls from several client threads are not counted
    /// twice. The benchmark's spans do not nest, so this is each
    /// layer's self time.
    pub fn layer_busy(&self) -> Vec<(&'static str, Duration)> {
        let mut layers: Vec<&'static str> = self.spans.iter().map(|s| s.layer).collect();
        layers.sort_unstable();
        layers.dedup();
        layers
            .into_iter()
            .map(|layer| {
                let mut iv: Vec<(Duration, Duration)> = self
                    .spans
                    .iter()
                    .filter(|s| s.layer == layer)
                    .map(|s| (s.start, s.end))
                    .collect();
                (layer, union_len(&mut iv))
            })
            .collect()
    }

    /// Total time covered by any span.
    pub fn covered(&self) -> Duration {
        let mut iv: Vec<(Duration, Duration)> =
            self.spans.iter().map(|s| (s.start, s.end)).collect();
        union_len(&mut iv)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

fn union_len(iv: &mut [(Duration, Duration)]) -> Duration {
    iv.sort_unstable();
    let mut total = Duration::ZERO;
    let mut cur: Option<(Duration, Duration)> = None;
    for &(s, e) in iv.iter() {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 4.0);
        assert_eq!(percentile(&s, 0.5), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let s: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&s).0, 0.9);
        let s: Vec<f64> = (0..5000).map(f64::from).collect();
        assert_eq!(tail(&s).0, 0.99);
        assert_eq!(tail(&[1.0, 2.0, 3.0]).0, 0.5);
    }

    #[test]
    fn union_merges_overlaps() {
        let d = Duration::from_millis;
        let mut iv = vec![(d(0), d(10)), (d(5), d(15)), (d(20), d(30))];
        assert_eq!(union_len(&mut iv), d(25));
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7, 1);
        assert_eq!(a[0], r.next_u64());
        assert_ne!(Rng::new(7, 2).next_u64(), Rng::new(7, 1).next_u64());
    }
}
