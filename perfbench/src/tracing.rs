//! The benchmark's tracer. Fine-grained events (one per predictor call or
//! wire frame) are aggregated in memory into a count, a total and a log2
//! histogram per name; coarse spans (workload, setup, phase, request) are
//! kept individually with their parent. [`Tracer::write_jsonl`] writes
//! both out once the run has ended.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Buckets of [`Agg::hist`]: bucket `i` counts events of `[2^i, 2^(i+1))` ns.
const HIST_BUCKETS: usize = 40;

/// Count, total and log2 histogram of one fine-grained event name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Agg {
    /// Events recorded.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Log2-nanosecond histogram.
    pub hist: [u64; HIST_BUCKETS],
}

impl Default for Agg {
    fn default() -> Self {
        Self {
            count: 0,
            total_ns: 0,
            hist: [0; HIST_BUCKETS],
        }
    }
}

impl Agg {
    /// Records one event that lasted `ns` nanoseconds.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        let bucket = (63 - ns.max(1).leading_zeros()) as usize;
        self.hist[bucket.min(HIST_BUCKETS - 1)] += 1;
    }

    /// Records the time elapsed since `t0`.
    #[inline]
    pub fn record_since(&mut self, t0: Instant) {
        self.record(elapsed_ns(t0));
    }

    /// Adds every event of `other`.
    pub fn merge(&mut self, other: &Agg) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        for (a, b) in self.hist.iter_mut().zip(&other.hist) {
            *a += b;
        }
    }

    /// Mean duration per event, nanoseconds (`0.0` when empty).
    pub fn mean_ns(&self) -> f64 {
        crate::stats::ratio(self.total_ns as f64, self.count as f64)
    }
}

/// Nanoseconds since `t0`, saturating.
#[inline]
pub fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Identifier of a recorded span; `0` is "no parent".
pub type SpanId = usize;

/// One coarse span: a named interval and the span that caused it.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: SpanId,
    start_ns: u64,
    end_ns: u64,
}

/// Spans and aggregates of one benchmark run, relative to its epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    aggs: BTreeMap<&'static str, Agg>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            aggs: BTreeMap::new(),
        }
    }

    /// Opens a span under `parent` (`0` for a root) and returns its id.
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let now = elapsed_ns(self.epoch);
        self.spans.push(Span {
            name,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len()
    }

    /// Closes span `id` now and returns its duration.
    pub fn close(&mut self, id: SpanId) -> Duration {
        let now = elapsed_ns(self.epoch);
        let span = &mut self.spans[id - 1];
        span.end_ns = now;
        Duration::from_nanos(now - span.start_ns)
    }

    /// Records a span that has already happened: it started at `start`
    /// and lasted `dur` (request spans timed on the client's own clock).
    pub fn record(&mut self, name: &'static str, parent: SpanId, start: Instant, dur: Duration) {
        let start_ns =
            u64::try_from(start.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(0);
        let dur_ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns.saturating_add(dur_ns),
        });
    }

    /// Merges an aggregate into the one kept under `name`.
    pub fn merge_agg(&mut self, name: &'static str, agg: &Agg) {
        self.aggs.entry(name).or_default().merge(agg);
    }

    /// Writes every span and aggregate as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"span\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                i + 1,
                s.name,
                s.parent,
                s.start_ns,
                s.end_ns
            )?;
        }
        for (name, agg) in &self.aggs {
            let hist: Vec<String> = agg.hist.iter().map(u64::to_string).collect();
            writeln!(
                out,
                "{{\"agg\":\"{name}\",\"count\":{},\"total_ns\":{},\"log2_ns_hist\":[{}]}}",
                agg.count,
                agg.total_ns,
                hist.join(",")
            )?;
        }
        out.flush()
    }
}

/// Measured cost of one `Instant::now()` read, nanoseconds.
pub fn timer_cost_ns() -> f64 {
    const READS: u32 = 200_000;
    let t0 = Instant::now();
    let mut last = t0;
    for _ in 0..READS {
        last = std::hint::black_box(Instant::now());
    }
    (last - t0).as_nanos() as f64 / f64::from(READS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agg_buckets_by_log2() {
        let mut a = Agg::default();
        a.record(1);
        a.record(1000);
        a.record(1023);
        assert_eq!(a.count, 3);
        assert_eq!(a.total_ns, 2024);
        assert_eq!(a.hist[0], 1);
        assert_eq!(a.hist[9], 2);
    }

    #[test]
    fn spans_keep_their_parent() {
        let mut t = Tracer::new();
        let root = t.open("phase", 0);
        let child = t.open("child", root);
        t.close(child);
        t.close(root);
        assert_eq!(t.spans[child - 1].parent, root);
        assert!(t.spans[root - 1].end_ns >= t.spans[child - 1].end_ns);
    }
}
