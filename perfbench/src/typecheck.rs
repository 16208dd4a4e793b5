//! `typecheck`: closed loop, one client; programs go through
//! `bsml_syntax::parse` and `bsml_infer::infer` to a verdict.
//!
//! Why: `infer` does almost all the work (PSRS takes tens of ms to
//! check and a fraction of a ms to parse) and nothing is evaluated, so
//! exchange, launch and server are bypassed. The deck mixes programs
//! heavy on locality constraints with plain Damas–Milner ones.

use std::time::{Duration, Instant};

use bsml_obs::Telemetry;
use bsml_repro::testgen::{self, Adversarial};
use bsml_std::{algorithms, paper_corpus, workloads, Verdict};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{stats, timed, Metrics, Plant, Segment, Tracer, Workload};

/// Where a deck entry comes from; each family knows its verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// A paper example, labelled accept or reject by the corpus.
    Corpus,
    /// A std collective (always accepted).
    Collective,
    /// Parallel sample sort (accepted).
    Psrs,
    /// Matrix–vector product (accepted).
    Matvec,
    /// `testgen::well_typed_source` (accepted by construction).
    Generated,
    /// `testgen::adversarial` nesting, locality and type errors
    /// (rejected by construction).
    Adversarial,
}

/// One program of the deck with the verdict its family promises.
#[derive(Clone, Debug)]
pub struct Entry {
    /// What the program is.
    pub label: String,
    /// Its family.
    pub family: Family,
    /// Concrete source, handed to the parser.
    pub source: String,
    /// `true` when the program must be accepted.
    pub accept: bool,
    /// Whether the program mentions a parallel primitive.
    pub parallel: bool,
}

/// PSRS and matvec programs per deck: the heaviest ~7 % of entries,
/// so the p95 falls inside this locality-heavy cluster.
const PSRS: usize = 5;
const MATVEC: usize = 10;
/// Generated programs per deck. With the rejects they make up the
/// light half of the deck, so the p50 falls inside the rejects, whose
/// shapes are fixed by their family.
const GENERATED: usize = 120;
/// Adversarial programs per rejecting family per deck.
const ADVERSARIAL_EACH: usize = 16;

/// The seeded deck: every paper example and std collective, PSRS and
/// matvec programs, generated well-typed programs and adversarial rejects,
/// in a seeded order. The seed varies the generated programs and the
/// sizes only within narrow ranges, so every seed offers the same mix.
#[must_use]
pub fn deck(seed: u64) -> Vec<Entry> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut push = |label: String, family: Family, source: String, accept: bool| {
        out.push(Entry {
            label,
            family,
            source,
            accept,
            parallel: false,
        });
    };
    for c in paper_corpus() {
        push(
            c.name.to_string(),
            Family::Corpus,
            c.source,
            c.verdict == Verdict::Accept,
        );
    }
    for w in workloads::all_basic() {
        push(w.name, Family::Collective, w.source, true);
    }
    for _ in 0..PSRS {
        let n = rng.gen_range(44..53usize);
        push(
            format!("psrs({n})"),
            Family::Psrs,
            algorithms::psrs_sort(n).source,
            true,
        );
    }
    for _ in 0..MATVEC {
        let (r, c) = (rng.gen_range(2..4usize), rng.gen_range(2..4usize));
        push(
            format!("matvec({r},{c})"),
            Family::Matvec,
            algorithms::matvec(r, c).source,
            true,
        );
    }
    for i in 0..GENERATED {
        // `well_typed_source` picks int, bool or int-par from `s % 3`:
        // exact thirds keep the sequential share the same for every seed.
        let s = 3 * rng.gen_range(0..u64::MAX / 6) + i as u64 % 3;
        let depth = 3;
        push(
            format!("generated({s},{depth})"),
            Family::Generated,
            testgen::well_typed_source(s, depth),
            true,
        );
    }
    for family in [
        Adversarial::NestingBreach,
        Adversarial::LocalityBreach,
        Adversarial::IllTyped,
    ] {
        for _ in 0..ADVERSARIAL_EACH {
            let s = rng.gen_range(0..u64::MAX / 2);
            push(
                format!("{family:?}({s})"),
                Family::Adversarial,
                as_program(&testgen::adversarial(s, family)),
                false,
            );
        }
    }
    for i in (1..out.len()).rev() {
        out.swap(i, rng.gen_range(0..i + 1));
    }
    for e in &mut out {
        e.parallel = bsml_syntax::parse(&e.source).is_ok_and(|ast| ast.mentions_parallelism());
    }
    out
}

/// Turns toplevel phrases (`let x = e` …) into one closed program
/// whose body is the last bound name, so it goes through `parse`.
fn as_program(phrases: &str) -> String {
    let module = bsml_syntax::parse_module(phrases).expect("adversarial phrases parse");
    let last = module
        .decls
        .last()
        .expect("at least one phrase")
        .name
        .clone();
    let body = bsml_ast::build::var(last.as_str());
    let folded = module.decls.iter().rev().fold(body, |acc, d| {
        bsml_ast::build::let_(d.name.as_str(), d.expr.clone(), acc)
    });
    bsml_ast::pretty::to_source(&folded)
}

/// The typecheck workload's state.
#[derive(Debug)]
pub struct Typecheck {
    deck: Vec<Entry>,
    next: usize,
    tracer: Option<Tracer>,
}

impl Typecheck {
    /// Checks one entry; `Err` describes a disagreement with the oracle.
    fn check(&self, e: &Entry) -> Result<(), String> {
        let ast = {
            let _s = self.tracer.as_ref().map(|t| t.span("syntax.parse"));
            bsml_syntax::parse(&e.source)
        }
        .map_err(|err| format!("{}: parse error {}", e.label, err.render(&e.source)))?;
        let accepted = {
            let mut s = self.tracer.as_ref().map(|t| t.span("infer.infer"));
            let ok = std::hint::black_box(bsml_infer::infer(&ast)).is_ok();
            if let Some(s) = &mut s {
                s.set("parallel", e.parallel);
                s.set("accepted", ok);
            }
            ok
        };
        if accepted == e.accept {
            Ok(())
        } else {
            Err(format!(
                "{}: verdict {} but the {:?} family promises {}",
                e.label,
                verdict(accepted),
                e.family,
                verdict(e.accept)
            ))
        }
    }
}

fn verdict(accept: bool) -> &'static str {
    if accept {
        "accept"
    } else {
        "reject"
    }
}

impl Typecheck {
    /// Builds the deck and warms up with one pass over it.
    #[must_use]
    pub fn new(seed: u64, plant: Plant, tracer: Option<&Tracer>) -> Typecheck {
        let mut deck = deck(seed);
        if plant == Plant::WrongFirstExpectation {
            deck[0].accept = !deck[0].accept;
        }
        // Warm-up: one pass over the deck (allocator, caches).
        for e in &deck {
            if let Ok(ast) = bsml_syntax::parse(&e.source) {
                std::hint::black_box(bsml_infer::infer(&ast).is_ok());
            }
        }
        Typecheck {
            deck,
            next: 0,
            tracer: tracer.cloned(),
        }
    }
}

impl Workload for Typecheck {
    fn measure(&mut self, budget: Duration) -> Segment {
        timed(|seg| {
            let end = Instant::now() + budget;
            while Instant::now() < end {
                let i = self.next % self.deck.len();
                self.next += 1;
                seg.attempted += 1;
                let t0 = Instant::now();
                let result = {
                    let _op = self.tracer.as_ref().map(|t| t.op("op"));
                    self.check(&self.deck[i])
                };
                seg.op_us.push(t0.elapsed().as_secs_f64() * 1e6);
                if let Err(msg) = result {
                    seg.fail(msg);
                }
            }
        })
    }

    fn layers(&mut self, out: &mut Metrics) {
        let Some(t) = &self.tracer else { return };
        let ops = t.durations("op").len().max(1) as f64;
        let per_deck = self.deck.len() as f64 / ops;
        let parse = t.durations("syntax.parse");
        out.put("syntax.parse_us_p50", stats::quantile(&parse, 0.5), "us");
        out.put(
            "syntax.parse_us_sum",
            parse.iter().sum::<f64>() * per_deck,
            "us",
        );
        let infer_spans = t.spans_named("infer.infer");
        let dur = |keep: &dyn Fn(&bsml_obs::SpanRecord) -> bool| -> Vec<f64> {
            infer_spans
                .iter()
                .filter(|s| keep(s))
                .map(|s| s.duration_us() as f64)
                .collect()
        };
        let flag = |s: &bsml_obs::SpanRecord, k: &str| s.field(k) == Some(&true.into());
        let all = dur(&|_| true);
        out.put("infer.infer_us_p50", stats::quantile(&all, 0.5), "us");
        out.put("infer.infer_us_p95", stats::quantile(&all, 0.95), "us");
        out.put(
            "infer.infer_us_sum",
            all.iter().sum::<f64>() * per_deck,
            "us",
        );
        let par = dur(&|s| flag(s, "parallel") && flag(s, "accepted"));
        let seq = dur(&|s| !flag(s, "parallel") && flag(s, "accepted"));
        let rej = dur(&|s| !flag(s, "accepted"));
        out.put("infer.par_us_p50", stats::quantile(&par, 0.5), "us");
        out.put("infer.seq_us_p50", stats::quantile(&seq, 0.5), "us");
        out.put("infer.reject_us_p50", stats::quantile(&rej, 0.5), "us");
        // Exact engine counters over one pass of the deck.
        let counting = Telemetry::enabled_logical();
        for e in &self.deck {
            if let Ok(ast) = bsml_syntax::parse(&e.source) {
                let _ = bsml_infer::Inferencer::new()
                    .with_telemetry(counting.clone())
                    .run(&bsml_infer::initial_env(), &ast);
            }
        }
        for c in [
            "infer.unifications",
            "infer.occurs_checks",
            "infer.solver_iterations",
        ] {
            out.put(c, counting.counter_value(c) as f64, "count");
        }
    }

    fn teardown(self: Box<Self>) -> Result<(), String> {
        Ok(())
    }
}
