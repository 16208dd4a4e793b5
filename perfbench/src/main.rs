//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the named workload untraced and reports the
//! end-to-end metrics. `--trace 1` visits every workload, each for an
//! untraced and a traced share of the time, reports the per-layer
//! metrics and writes one Chrome trace per workload under
//! `.bench_out/`. The last line of standard output is the JSON result.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use bsml_perfbench::{
    end_to_end, op_ms, setup, sys, Metrics, Plant, Segment, Tracer, Workload, SETUP_REPEATS,
    WORKLOADS,
};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Totals over every segment of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    broken: Vec<String>,
}

impl Tally {
    fn add(&mut self, workload: &str, seg: &Segment) {
        self.attempted += seg.attempted;
        self.failed += seg.failed;
        for f in &seg.failures {
            println!("# FAILED {workload}: {f}");
        }
    }

    fn teardown(&mut self, workload: &str, result: Result<(), String>) {
        if let Err(e) = result {
            println!("# BROKEN {workload}: {e}");
            self.broken.push(e);
        }
    }
}

/// Untraced run: set up several times, measure once.
fn untraced(args: &Args, tally: &mut Tally) -> Result<Metrics, String> {
    let mut setup_s = Vec::new();
    let mut w: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(prev) = w.take() {
            tally.teardown(&args.workload, prev.teardown());
        }
        let t0 = Instant::now();
        w = Some(setup(&args.workload, args.seed, Plant::None, None)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut w = w.expect("at least one set-up");
    let seg = w.measure(Duration::from_secs_f64(args.seconds));
    tally.add(&args.workload, &seg);
    tally.teardown(&args.workload, w.teardown());
    println!("# {} ops; setup_s samples {setup_s:?}", seg.op_us.len());
    Ok(end_to_end(&seg, &setup_s))
}

/// Traced run: every workload, an untraced then a traced share each.
fn traced(args: &Args, tally: &mut Tally) -> Result<Metrics, String> {
    let share = Duration::from_secs_f64(args.seconds / (2 * WORKLOADS.len()) as f64);
    let mut out = Metrics::default();
    for name in WORKLOADS {
        let mut plain = setup(name, args.seed, Plant::None, None)?;
        let plain_seg = plain.measure(share);
        tally.add(name, &plain_seg);
        tally.teardown(name, plain.teardown());

        let tracer = Tracer::new();
        let mut w = setup(name, args.seed, Plant::None, Some(&tracer))?;
        let seg = w.measure(share);
        tally.add(name, &seg);
        w.layers(&mut out);
        tally.teardown(name, w.teardown());

        let overhead = op_ms(&seg, 0.5) / op_ms(&plain_seg, 0.5) - 1.0;
        println!(
            "# {name}: traced p50 {:.3} ms vs untraced {:.3} ms",
            op_ms(&seg, 0.5),
            op_ms(&plain_seg, 0.5)
        );
        if name == args.workload {
            out.put("trace.overhead_frac", overhead, "ratio");
        }
        // Self time of each layer span per op; the `op` spans' own
        // self time is the benchmark's overhead and is only printed.
        let ops = seg.op_us.len().max(1) as f64;
        for (span, (self_us, n)) in tracer.self_times() {
            println!("# {name}: self time {span:<20} {self_us:>12.0} us over {n} spans");
            if span != "op" {
                out.put(format!("self.{span}_us"), self_us / ops, "us");
            }
        }
        let path =
            std::path::PathBuf::from(format!(".bench_out/trace-{name}-seed{}.json", args.seed));
        tracer
            .write(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# {name}: trace written to {}", path.display());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    println!(
        "# host nproc={} profile={} commit={} source={} workload={} seed={} seconds={} trace={}",
        sys::nproc(),
        sys::profile(),
        env("BENCH_COMMIT"),
        env("BENCH_SOURCE_DIGEST"),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut tally = Tally::default();
    let result = if args.trace {
        traced(&args, &mut tally)
    } else {
        untraced(&args, &mut tally)
    };
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (name, value, unit) in &metrics.0 {
        println!("# {name:<32} {value:>14.4} {unit}");
    }
    let correct = tally.failed == 0 && tally.broken.is_empty() && tally.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted.max(1),
        tally.failed,
        metrics.to_json()
    );
    ExitCode::SUCCESS
}
