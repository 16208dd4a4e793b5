//! `threads_exchange` and `procs_launch`: closed loop, one client;
//! `DistMachine::run` on threads or on `Execution::Processes` runs
//! ASTs that were parsed, type-checked and run once on the lockstep
//! `BspMachine` during set-up. That lockstep run is the oracle: the
//! value, `S` and the words sent must equal it, and PSRS output is
//! also checked sorted directly.
//!
//! Why `threads_exchange`: the exchange loop dominates the
//! superstep-bound jobs while the engine dominates PSRS, and infer and
//! launch are outside the timed path. Why `procs_launch`: it is the
//! only workload where spawn and handshake matter; most jobs have zero
//! or one superstep, so exchange is a small share.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use bsml_ast::Expr;
use bsml_bsp::{BspMachine, BspParams, DistMachine, Execution, ProcessConfig};
use bsml_eval::Value;
use bsml_std::{algorithms, combinators, workloads};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{rank, stats, timed, Metrics, Plant, Segment, Tracer, Workload};

/// Machine width of every job.
pub const P: usize = 2;

/// Where the ranks of a job run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// One thread per rank (`Execution::InProcess`).
    Threads,
    /// One process per rank (`Execution::Processes`).
    Procs,
}

impl Backend {
    fn layer(self) -> &'static str {
        match self {
            Backend::Threads => "bsp.threads",
            Backend::Procs => "bsp.procs",
        }
    }

    fn run_span(self) -> &'static str {
        match self {
            Backend::Threads => "bsp.threads.run",
            Backend::Procs => "bsp.procs.run",
        }
    }
}

/// One job with its lockstep oracle.
#[derive(Clone, Debug)]
pub struct Job {
    /// What the job is.
    pub label: String,
    /// The checked program.
    pub ast: Expr,
    /// Rendered lockstep value.
    pub value: String,
    /// Supersteps `S`.
    pub supersteps: u64,
    /// Total words sent, all processors and supersteps.
    pub words: u64,
    /// `H` of equation (1): Σ over supersteps of the h-relation.
    pub h: u64,
    /// `W` of equation (1): Σ over supersteps of the busiest work.
    pub work: u64,
    /// Median lockstep run time, µs.
    pub lockstep_us: f64,
    /// For PSRS: the number of keys the sorted output must hold.
    pub sorted_len: Option<usize>,
}

fn payload_shifts(rounds: usize, words: usize) -> String {
    combinators::prelude(
        &[combinators::SHIFT_DEF, combinators::MAKE_LIST_DEF],
        &format!(
            "let rec go n v = if n = 0 then v else go (n - 1) (shift v) in
             go {rounds} (mkpar (fun i -> make_list {words} i))"
        ),
    )
}

/// The seeded job mix of a backend, as (label, source, psrs keys).
fn mix(backend: Backend, seed: u64) -> Vec<(String, String, Option<usize>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let words = |rng: &mut StdRng, base: usize| base + rng.gen_range(0..base / 16 + 1);
    let zero = workloads::parfun_square();
    match backend {
        Backend::Threads => {
            for k in [2, 4, 8, 16] {
                out.push((
                    format!("ping_rounds({k})"),
                    workloads::ping_rounds(k).source,
                    None,
                ));
            }
            for (k, s) in [(2, 64), (4, 16), (8, 32)] {
                let s = words(&mut rng, s);
                out.push((format!("shift_chain({k},{s})"), payload_shifts(k, s), None));
            }
            for base in [1, 16, 64, 256] {
                let s = words(&mut rng, base);
                let root = rng.gen_range(0..P);
                out.push((
                    format!("bcast_direct({root},{s})"),
                    workloads::bcast_direct_payload(root, s).source,
                    None,
                ));
                out.push((
                    format!("bcast_log({s})"),
                    workloads::bcast_log_payload(s).source,
                    None,
                ));
            }
            // Two equal sorts: ~10 % of ops, so the p95 sits inside them.
            for _ in 0..2 {
                out.push((
                    "psrs_sort(48)".into(),
                    algorithms::psrs_sort(48).source,
                    Some(48 * P),
                ));
            }
            out.push((zero.name, zero.source, None));
        }
        Backend::Procs => {
            for _ in 0..3 {
                out.push((zero.name.clone(), zero.source.clone(), None));
            }
            for base in [1, 64, 256, 1024] {
                let s = words(&mut rng, base);
                let root = rng.gen_range(0..P);
                out.push((
                    format!("bcast_direct({root},{s})"),
                    workloads::bcast_direct_payload(root, s).source,
                    None,
                ));
            }
            out.push((
                "total_exchange".into(),
                workloads::total_exchange().source,
                None,
            ));
            out.push((
                "ping_rounds(16)".into(),
                workloads::ping_rounds(16).source,
                None,
            ));
            let s = words(&mut rng, 16);
            out.push((format!("shift_chain(16,{s})"), payload_shifts(16, s), None));
        }
    }
    for i in (1..out.len()).rev() {
        out.swap(i, rng.gen_range(0..i + 1));
    }
    out
}

/// Parses, type-checks and runs one program on the lockstep machine.
fn oracle(label: String, source: &str, sorted_len: Option<usize>) -> Result<Job, String> {
    let ast = bsml_syntax::parse(source).map_err(|e| format!("{label}: {}", e.render(source)))?;
    bsml_infer::infer(&ast).map_err(|e| format!("{label}: rejected: {e}"))?;
    let lockstep = BspMachine::new(BspParams::new(P, 1, 1));
    let mut times = Vec::new();
    let mut report = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let r = lockstep
            .run(&ast)
            .map_err(|e| format!("{label}: lockstep: {e}"))?;
        times.push(t0.elapsed().as_secs_f64() * 1e6);
        report = Some(r);
    }
    let r = report.expect("three lockstep runs");
    Ok(Job {
        value: r.value.to_string(),
        supersteps: r.cost.supersteps,
        words: r.trace.iter().map(|s| s.sent.iter().sum::<u64>()).sum(),
        h: r.cost.h_relation,
        work: r.cost.work,
        lockstep_us: stats::median(&times),
        sorted_len,
        label,
        ast,
    })
}

/// The integers of a list value, or `None` for anything else.
fn ints(v: &Value) -> Option<Vec<i64>> {
    let mut out = Vec::new();
    let mut cur = v;
    loop {
        match cur {
            Value::Nil => return Some(out),
            Value::Cons(h, t) => {
                let Value::Int(n) = **h else { return None };
                out.push(n);
                cur = t;
            }
            _ => return None,
        }
    }
}

/// Checks a PSRS result directly: every block sorted, blocks in
/// order, and no key lost.
fn check_sorted(v: &Value, keys: usize) -> Result<(), String> {
    let Value::Vector(blocks) = v else {
        return Err(format!("psrs result is not a parallel vector: {v}"));
    };
    let mut all = Vec::new();
    for b in blocks.iter() {
        all.extend(ints(b).ok_or_else(|| format!("psrs block is not an int list: {b}"))?);
    }
    if all.len() != keys {
        return Err(format!("psrs kept {} of {keys} keys", all.len()));
    }
    if all.windows(2).any(|w| w[0] > w[1]) {
        return Err("psrs output is not sorted".into());
    }
    Ok(())
}

/// One finished job: which one, and its run time.
#[derive(Clone, Copy, Debug)]
struct Sample {
    job: usize,
    run_us: f64,
}

/// The `threads_exchange` / `procs_launch` workload state.
#[derive(Debug)]
pub struct Jobs {
    backend: Backend,
    jobs: Vec<Job>,
    machine: DistMachine,
    sock_dir: Option<PathBuf>,
    next: usize,
    samples: Vec<Sample>,
    tracer: Option<Tracer>,
}

impl Jobs {
    /// Set-up for a backend: oracle every job, locate the rank worker,
    /// warm up with one run of each job.
    ///
    /// # Errors
    ///
    /// An oracle failure, a missing or stale rank worker, or a warm-up
    /// run that disagrees with its oracle.
    pub fn new(
        backend: Backend,
        seed: u64,
        plant: Plant,
        tracer: Option<&Tracer>,
    ) -> Result<Jobs, String> {
        let mut jobs = mix(backend, seed)
            .into_iter()
            .map(|(label, src, keys)| oracle(label, &src, keys))
            .collect::<Result<Vec<Job>, String>>()?;
        if plant == Plant::WrongFirstExpectation {
            jobs[0].supersteps += 1;
        }
        let (machine, sock_dir) = match backend {
            Backend::Threads => (DistMachine::new(P), None),
            Backend::Procs => {
                let worker = rank::locate()?;
                let dir = PathBuf::from(format!(".bench_out/ranks-{}", std::process::id()));
                let cfg = ProcessConfig {
                    socket_dir: Some(dir.clone()),
                    rank_binary: Some(worker),
                    ..ProcessConfig::default()
                };
                (
                    DistMachine::new(P).with_execution(Execution::Processes(cfg)),
                    Some(dir),
                )
            }
        };
        let w = Jobs {
            backend,
            jobs,
            machine,
            sock_dir,
            next: 0,
            samples: Vec::new(),
            tracer: tracer.cloned(),
        };
        for i in 0..w.jobs.len() {
            w.machine
                .run(&w.jobs[i].ast)
                .map_err(|e| format!("warm-up {}: {e}", w.jobs[i].label))?;
        }
        Ok(w)
    }

    /// Runs job `i` once and checks it against its oracle.
    fn run_one(&self, i: usize) -> (f64, Result<(), String>) {
        let job = &self.jobs[i];
        let _op = self.tracer.as_ref().map(|t| t.op("op"));
        if let (Some(t), Backend::Threads) = (&self.tracer, self.backend) {
            let _s = t.span("eval.lockstep");
            let _ = std::hint::black_box(BspMachine::new(BspParams::new(P, 1, 1)).run(&job.ast));
        }
        let t0 = Instant::now();
        let out = {
            let _s = self
                .tracer
                .as_ref()
                .map(|t| t.span(self.backend.run_span()));
            self.machine.run(&job.ast)
        };
        let us = t0.elapsed().as_secs_f64() * 1e6;
        let check = match out {
            Err(e) => Err(format!("{}: {e}", job.label)),
            Ok(o) => {
                let mut problems = Vec::new();
                if o.value.to_string() != job.value {
                    problems.push(format!("value {} != lockstep {}", o.value, job.value));
                }
                if o.supersteps != job.supersteps {
                    problems.push(format!("S {} != lockstep {}", o.supersteps, job.supersteps));
                }
                if o.total_words_sent != job.words {
                    problems.push(format!(
                        "words {} != lockstep {}",
                        o.total_words_sent, job.words
                    ));
                }
                if let Some(keys) = job.sorted_len {
                    if let Err(e) = check_sorted(&o.value, keys) {
                        problems.push(e);
                    }
                }
                if problems.is_empty() {
                    Ok(())
                } else {
                    Err(format!("{}: {}", job.label, problems.join("; ")))
                }
            }
        };
        (us, check)
    }

    /// Fits `(g, l)` of equation (1) by least squares over each
    /// exchange job's median `(W, H, S, run)`, and reports the pooled
    /// per-superstep time over the zero-superstep baseline, net of the
    /// lockstep engine time. PSRS is left out of the fit: it is there
    /// for the engine, whose time swamps its exchange time.
    fn calibrate(&self, out: &mut Metrics) {
        let layer = self.backend.layer();
        let mut by_job: Vec<Vec<f64>> = vec![Vec::new(); self.jobs.len()];
        for s in &self.samples {
            by_job[s.job].push(s.run_us);
        }
        let mut points = Vec::new();
        let mut net = Vec::new();
        for (job, runs) in self.jobs.iter().zip(&by_job) {
            if runs.is_empty() {
                continue;
            }
            let run = stats::median(runs);
            println!(
                "# {layer} job {:<22} S {:>3} H {:>5} W {:>6} lockstep_us {:>9.1} run_us {:>9.1}",
                job.label, job.supersteps, job.h, job.work, job.lockstep_us, run
            );
            if job.sorted_len.is_none() {
                points.push([job.work as f64, job.h as f64, job.supersteps as f64, run]);
                net.push((job.supersteps as f64, run - job.lockstep_us));
            }
        }
        let base = stats::median(
            &net.iter()
                .filter(|n| n.0 == 0.0)
                .map(|n| n.1)
                .collect::<Vec<_>>(),
        );
        let (steps, extra) = net
            .iter()
            .filter(|n| n.0 > 0.0)
            .fold((0.0, 0.0), |(s, e), &(ns, y)| (s + ns, e + y - base));
        let fit = stats::fit_cost(&points);
        let get = |f: fn(&stats::CostFit) -> f64| fit.as_ref().map_or(f64::NAN, f);
        out.put(format!("{layer}.g_us"), get(|f| f.g), "us");
        out.put(format!("{layer}.l_us"), get(|f| f.l), "us");
        out.put(format!("{layer}.w_us"), get(|f| f.w), "us");
        out.put(
            format!("{layer}.fit_err_frac"),
            get(|f| f.err_frac),
            "ratio",
        );
        out.put(format!("{layer}.superstep_us"), extra / steps, "us");
    }

    fn runs_where(&self, keep: impl Fn(&Job) -> bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| keep(&self.jobs[s.job]))
            .map(|s| s.run_us)
            .collect()
    }
}

impl Workload for Jobs {
    fn measure(&mut self, budget: Duration) -> Segment {
        let mut samples = Vec::new();
        let seg = timed(|seg| {
            let end = Instant::now() + budget;
            while Instant::now() < end {
                let i = self.next % self.jobs.len();
                self.next += 1;
                seg.attempted += 1;
                let (run_us, check) = self.run_one(i);
                seg.op_us.push(run_us);
                samples.push(Sample { job: i, run_us });
                if let Err(msg) = check {
                    seg.fail(msg);
                }
            }
        });
        self.samples = samples;
        seg
    }

    fn layers(&mut self, out: &mut Metrics) {
        self.calibrate(out);
        match self.backend {
            Backend::Threads => {
                let Some(t) = self.tracer.clone() else { return };
                out.put(
                    "bsp.threads.run_us_p50",
                    stats::quantile(&t.durations("bsp.threads.run"), 0.5),
                    "us",
                );
                out.put(
                    "bsp.threads.empty_run_us_p50",
                    stats::quantile(&self.runs_where(|j| j.supersteps == 0), 0.5),
                    "us",
                );
                out.put(
                    "eval.lockstep_us_p50",
                    stats::quantile(&t.durations("eval.lockstep"), 0.5),
                    "us",
                );
                // Exact counts over one pass of the job mix, from the
                // machine's own telemetry.
                let tel = t.telemetry().track("counting");
                let counted = self.machine.clone().with_telemetry(tel.clone());
                for job in &self.jobs {
                    let _ = counted.run(&job.ast);
                }
                out.put(
                    "eval.work",
                    self.jobs.iter().map(|j| j.work as f64).sum(),
                    "count",
                );
                for c in ["bsp.supersteps", "bsp.words_sent", "net.frames_sent"] {
                    out.put(c, tel.counter_value(c) as f64, "count");
                }
                let wait = tel
                    .metrics()
                    .histograms
                    .get("bsp.barrier_wait_us")
                    .copied()
                    .unwrap_or_default();
                out.put("bsp.barrier_wait_us_p50", wait.p50_bound as f64, "us");
            }
            Backend::Procs => {
                out.put(
                    "bsp.procs.run_us_p50",
                    stats::quantile(&self.runs_where(|_| true), 0.5),
                    "us",
                );
                out.put(
                    "bsp.procs.launch_us_p50",
                    stats::quantile(&self.runs_where(|j| j.supersteps == 0), 0.5),
                    "us",
                );
            }
        }
    }

    fn teardown(self: Box<Self>) -> Result<(), String> {
        if let Some(dir) = &self.sock_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        Ok(())
    }
}
