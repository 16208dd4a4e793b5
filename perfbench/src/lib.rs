//! The repository benchmark: four seeded workloads driven through the
//! public API of each layer, with oracle-checked outputs, end-to-end
//! metrics from untraced runs and per-layer metrics from a traced run.
//!
//! Layers are named after the modules they time: `syntax`, `infer`,
//! `eval` (the big-step engine under the lockstep `BspMachine`),
//! `bsp.threads` (threaded `DistMachine`), `bsp.procs` (one process
//! per rank), `server`, `server.wal` and `session`.

pub mod jobs;
pub mod rank;
pub mod serve;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod typecheck;

use std::time::{Duration, Instant};

pub use trace::Tracer;

/// The workloads, in the order a traced run visits them.
pub const WORKLOADS: [&str; 4] = [
    "typecheck",
    "threads_exchange",
    "procs_launch",
    "serve_sessions",
];

/// Set-ups timed per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// What one measured segment of a workload observed.
#[derive(Debug, Default)]
pub struct Segment {
    /// Latency of every finished op, µs (failed ops included).
    pub op_us: Vec<f64>,
    /// Ops started.
    pub attempted: u64,
    /// Ops whose result disagreed with the oracle, errored, or were
    /// refused admission.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Wall time from the first op to the last result.
    pub wall: Duration,
    /// Process CPU time (children included) over the same interval.
    pub cpu: Duration,
}

impl Segment {
    /// Records one failed op.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// Times a segment: wall clock and CPU around `body`.
pub fn timed(body: impl FnOnce(&mut Segment)) -> Segment {
    let mut seg = Segment::default();
    let cpu0 = sys::cpu_time();
    let t0 = Instant::now();
    body(&mut seg);
    seg.wall = t0.elapsed();
    seg.cpu = sys::cpu_time().saturating_sub(cpu0);
    seg
}

/// A deliberately wrong expectation, planted to prove the oracle
/// check reports it instead of passing over it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Plant {
    /// Every expectation is the true one.
    #[default]
    None,
    /// The first input's expected answer is falsified.
    WrongFirstExpectation,
}

/// One set-up workload: a measured loop, per-layer metrics, teardown.
pub trait Workload {
    /// Runs ops for `budget`, checking each against its oracle.
    fn measure(&mut self, budget: Duration) -> Segment;

    /// Per-layer metrics of the segment just measured (traced when the
    /// workload was set up with a tracer).
    fn layers(&mut self, out: &mut Metrics);

    /// Releases resources and checks end-of-run invariants.
    ///
    /// # Errors
    ///
    /// A broken invariant (for the server: exact request accounting).
    fn teardown(self: Box<Self>) -> Result<(), String>;
}

/// Generates a workload's inputs and oracle answers from `seed` and
/// warms it up. With a tracer, later segments record spans into it.
///
/// # Errors
///
/// An unknown workload name, or a set-up failure (a missing rank
/// worker, an oracle that cannot be computed).
pub fn setup(
    workload: &str,
    seed: u64,
    plant: Plant,
    tracer: Option<&Tracer>,
) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "typecheck" => Box::new(typecheck::Typecheck::new(seed, plant, tracer)),
        "threads_exchange" => Box::new(jobs::Jobs::new(
            jobs::Backend::Threads,
            seed,
            plant,
            tracer,
        )?),
        "procs_launch" => Box::new(jobs::Jobs::new(jobs::Backend::Procs, seed, plant, tracer)?),
        "serve_sessions" => Box::new(serve::Serve::new(seed, plant, tracer)?),
        other => return Err(format!("unknown workload {other:?} (one of {WORKLOADS:?})")),
    })
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// The `metrics` object of the result line.
    #[must_use]
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { -1.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Latency percentiles of a segment, in ms.
#[must_use]
pub fn op_ms(seg: &Segment, q: f64) -> f64 {
    stats::quantile(&seg.op_us, q) / 1000.0
}

/// The end-to-end metrics of one untraced segment.
#[must_use]
pub fn end_to_end(seg: &Segment, setup_s: &[f64]) -> Metrics {
    let ops = seg.op_us.len().max(1) as f64;
    let mut m = Metrics::default();
    m.put("setup_s", stats::median(setup_s), "s");
    m.put("op_ms_p50", op_ms(seg, 0.50), "ms");
    m.put("op_ms_p95", op_ms(seg, 0.95), "ms");
    m.put(
        "ops_per_s",
        seg.op_us.len() as f64 / seg.wall.as_secs_f64(),
        "1/s",
    );
    m.put("cpu_ms_per_op", seg.cpu.as_secs_f64() * 1000.0 / ops, "ms");
    let attempted = seg.attempted.max(1) as f64;
    m.put(
        "ok_frac",
        (attempted - seg.failed as f64) / attempted,
        "ratio",
    );
    m.put("peak_rss_mb", sys::peak_rss_mb(), "MB");
    m
}
