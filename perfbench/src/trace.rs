//! Spans around each layer call, recorded from the benchmark's side
//! into an in-memory `bsml-obs` sink and exported at the end as a
//! Chrome trace (loadable in Perfetto).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bsml_obs::{SpanGuard, SpanRecord, Telemetry};

/// Track the benchmark's own spans are recorded on. Layer telemetry
/// (server sessions, rank threads) records on tracks of its own.
const BENCH_TRACK: &str = "bench";

/// The in-memory span sink of one traced segment. Clones share it.
#[derive(Clone, Debug)]
pub struct Tracer {
    sink: Telemetry,
    bench: Telemetry,
    op: Arc<AtomicU64>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A fresh wall-clock sink.
    #[must_use]
    pub fn new() -> Tracer {
        let sink = Telemetry::enabled();
        let bench = sink.track(BENCH_TRACK);
        Tracer {
            sink,
            bench,
            op: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The sink, for layers that record their own telemetry.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.sink
    }

    /// Opens the span of a new op; later [`Tracer::span`]s carry its id.
    #[must_use]
    pub fn op(&self, name: &'static str) -> SpanGuard {
        let id = self.op.fetch_add(1, Ordering::Relaxed) + 1;
        let mut g = self.bench.span(name);
        g.set("op", id);
        g
    }

    /// The id of the op opened last.
    #[must_use]
    pub fn current_op(&self) -> u64 {
        self.op.load(Ordering::Relaxed)
    }

    /// Opens a layer span inside the current op.
    #[must_use]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let mut g = self.bench.span(name);
        g.set("op", self.current_op());
        g
    }

    /// Records an already-timed span on a named track (open-loop
    /// requests, which overlap, each go on their tenant's track).
    pub fn record(&self, track: &str, name: &'static str, start_us: u64, end_us: u64, op: u64) {
        let t = self.sink.track(track);
        t.record_span(
            t.current_track(),
            name,
            None,
            start_us,
            end_us,
            vec![("op", op.into())],
        );
    }

    /// Microseconds since the sink was created.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        self.sink.now_us()
    }

    /// Every span named `name`, on any track.
    #[must_use]
    pub fn spans_named(&self, name: &str) -> Vec<SpanRecord> {
        self.sink
            .spans()
            .into_iter()
            .filter(|s| s.name == name)
            .collect()
    }

    /// Durations (µs) of every span named `name`.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans_named(name)
            .iter()
            .map(|s| s.duration_us() as f64)
            .collect()
    }

    /// Self time (µs) per span name on the benchmark track: each
    /// span's duration minus the part its direct children cover.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let track = self.bench.current_track();
        let mut spans: Vec<SpanRecord> = self
            .sink
            .spans()
            .into_iter()
            .filter(|s| s.track == track)
            .collect();
        spans.sort_by_key(|s| s.start_seq);
        let mut children_us = vec![0u64; spans.len()];
        let mut open: Vec<usize> = Vec::new();
        for i in 0..spans.len() {
            while open
                .last()
                .is_some_and(|&top| spans[top].end_seq < spans[i].start_seq)
            {
                open.pop();
            }
            if let Some(&parent) = open.last() {
                children_us[parent] += spans[i].duration_us();
            }
            open.push(i);
        }
        let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for (s, child) in spans.iter().zip(children_us) {
            let e = out.entry(s.name).or_default();
            e.0 += s.duration_us().saturating_sub(child) as f64;
            e.1 += 1;
        }
        out
    }

    /// Writes the Chrome trace-event JSON.
    ///
    /// # Errors
    ///
    /// The I/O error of creating the directory or writing the file.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.sink.to_chrome_trace())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = Tracer::new();
        {
            let _op = t.op("op");
            {
                let _a = t.span("a");
                let _b = t.span("b");
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
        }
        let st = t.self_times();
        let (op_self, n) = st["op"];
        assert_eq!(n, 1);
        let total = t.durations("op")[0];
        let a = t.durations("a")[0];
        assert!((op_self - (total - a)).abs() < 1e-9);
        assert!(st["b"].0 >= 3000.0);
        assert_eq!(t.spans_named("b")[0].field("op"), Some(&1u64.into()));
    }
}
