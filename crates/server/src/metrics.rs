//! Atomic-counter metrics for the server: connection/request/byte
//! counters plus a per-verb latency histogram, all lock-free (`AtomicU64`
//! everywhere) so the hot path never serializes behind a mutex. Rendered
//! as `key value` lines by the `STATS` verb.

use std::sync::atomic::{AtomicU64, Ordering};

use hypoquery_storage::IndexCounters;

use crate::proto::Verb;

const BUCKETS: usize = 22;

/// A power-of-two latency histogram: bucket `b` counts observations in
/// `[2^(b-1), 2^b)` microseconds (bucket 0 is `< 1 µs`, the last bucket
/// absorbs everything ≥ ~2 s). Quantiles come back as the upper bound of
/// the bucket the quantile falls in — coarse, but monotone and cheap.
#[derive(Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Histogram {
    fn bucket_of(us: u64) -> usize {
        if us == 0 {
            0
        } else {
            ((u64::BITS - us.leading_zeros()) as usize).min(BUCKETS - 1)
        }
    }

    /// Record one observation, in microseconds.
    pub fn record_us(&self, us: u64) {
        self.buckets[Self::bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.sum_us
            .load(Ordering::Relaxed)
            .checked_div(self.count())
            .unwrap_or(0)
    }

    /// The upper bound (µs) of the bucket holding quantile `q` ∈ [0, 1].
    pub fn quantile_us(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (b, slot) in self.buckets.iter().enumerate() {
            seen += slot.load(Ordering::Relaxed);
            if seen >= rank {
                return if b == 0 { 1 } else { 1u64 << b };
            }
        }
        1u64 << (BUCKETS - 1)
    }
}

/// One verb's counters.
#[derive(Default)]
pub struct VerbMetrics {
    /// Requests carrying this verb.
    pub count: AtomicU64,
    /// How many of them answered with `ERR`.
    pub errors: AtomicU64,
    /// Request-handling latency.
    pub latency: Histogram,
}

/// The server-wide registry. Shared (`Arc`) between all workers and the
/// `STATS` verb.
#[derive(Default)]
pub struct Metrics {
    /// Client connections served since start (shutdown wake-ups and
    /// connections accepted into shutdown are not counted).
    pub connections: AtomicU64,
    /// Connections currently being served.
    pub active: AtomicU64,
    /// Request frames received (well-formed or not).
    pub requests: AtomicU64,
    /// Requests answered with `ERR` (any code).
    pub errors: AtomicU64,
    /// Request bytes read off the wire (frames incl. length prefixes).
    pub bytes_in: AtomicU64,
    /// Reply + greeting bytes written (frames incl. length prefixes).
    pub bytes_out: AtomicU64,
    verbs: [VerbMetrics; Verb::ALL.len()],
}

impl Metrics {
    /// Fresh, all-zero registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// The counters for one verb.
    pub fn verb(&self, v: Verb) -> &VerbMetrics {
        &self.verbs[v.index()]
    }

    /// Record one handled request.
    pub fn record_request(&self, verb: Option<Verb>, latency_us: u64, errored: bool) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if errored {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(v) = verb {
            let vm = self.verb(v);
            vm.count.fetch_add(1, Ordering::Relaxed);
            if errored {
                vm.errors.fetch_add(1, Ordering::Relaxed);
            }
            vm.latency.record_us(latency_us);
        }
    }

    /// Render the whole registry as `key value` lines — the `STATS`
    /// reply body. Verbs with zero traffic are omitted. The served
    /// database's secondary-index counters `idx` ride along as `index.*`
    /// lines: `hits` are probes answered from cache, `builds` are probes
    /// that found no cached index and built one.
    pub fn render(&self, idx: IndexCounters) -> String {
        let mut out = String::new();
        for (key, val) in [
            ("server.connections", &self.connections),
            ("server.active", &self.active),
            ("server.requests", &self.requests),
            ("server.errors", &self.errors),
            ("server.bytes_in", &self.bytes_in),
            ("server.bytes_out", &self.bytes_out),
        ] {
            out.push_str(key);
            out.push(' ');
            out.push_str(&val.load(Ordering::Relaxed).to_string());
            out.push('\n');
        }
        for (key, val) in [("index.hits", idx.hits), ("index.builds", idx.builds)] {
            out.push_str(key);
            out.push(' ');
            out.push_str(&val.to_string());
            out.push('\n');
        }
        for v in Verb::ALL {
            let vm = self.verb(v);
            let count = vm.count.load(Ordering::Relaxed);
            if count == 0 {
                continue;
            }
            let name = v.name();
            out.push_str(&format!("verb.{name}.count {count}\n"));
            out.push_str(&format!(
                "verb.{name}.errors {}\n",
                vm.errors.load(Ordering::Relaxed)
            ));
            out.push_str(&format!("verb.{name}.mean_us {}\n", vm.latency.mean_us()));
            out.push_str(&format!(
                "verb.{name}.p50_us {}\n",
                vm.latency.quantile_us(0.50)
            ));
            out.push_str(&format!(
                "verb.{name}.p99_us {}\n",
                vm.latency.quantile_us(0.99)
            ));
        }
        out.trim_end().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        assert_eq!(h.quantile_us(0.5), 0); // empty
        for us in [0, 1, 1, 2, 3, 100, 1000, 100_000] {
            h.record_us(us);
        }
        assert_eq!(h.count(), 8);
        assert!(h.mean_us() > 0);
        // Monotone in q, and the tail lands in a high bucket.
        let p50 = h.quantile_us(0.5);
        let p99 = h.quantile_us(0.99);
        assert!(p50 <= p99, "{p50} vs {p99}");
        assert!(p99 >= 100_000, "{p99}");
        // Tiny latencies resolve to the 1 µs floor.
        assert_eq!(h.quantile_us(0.01), 1);
    }

    #[test]
    fn bucket_of_is_monotone_and_bounded() {
        let mut prev = 0;
        for us in [0u64, 1, 2, 3, 4, 7, 8, 1000, u64::MAX] {
            let b = Histogram::bucket_of(us);
            assert!(b >= prev, "{us}");
            assert!(b < BUCKETS);
            prev = b;
        }
    }

    #[test]
    fn render_reconciles_counts() {
        let m = Metrics::new();
        m.record_request(Some(Verb::Query), 120, false);
        m.record_request(Some(Verb::Query), 80, true);
        m.record_request(Some(Verb::Ping), 5, false);
        m.record_request(None, 1, true); // malformed frame: no verb
        let idx = IndexCounters { hits: 3, builds: 1 };
        let text = m.render(idx);
        assert!(text.contains("server.requests 4"), "{text}");
        assert!(text.contains("server.errors 2"), "{text}");
        assert!(text.contains("verb.QUERY.count 2"), "{text}");
        assert!(text.contains("verb.QUERY.errors 1"), "{text}");
        assert!(text.contains("verb.PING.count 1"), "{text}");
        // Untouched verbs are omitted.
        assert!(!text.contains("verb.DUMP"), "{text}");
        // Index cache counters are always present.
        assert!(text.contains("index.hits 3\n"), "{text}");
        assert!(text.contains("index.builds 1\n"), "{text}");
        // Every line is `key value`.
        for line in text.lines() {
            let mut parts = line.split(' ');
            assert!(parts.next().is_some());
            assert!(parts.next().unwrap().parse::<u64>().is_ok(), "{line}");
            assert!(parts.next().is_none(), "{line}");
        }
    }
}
