//! The solved-form inferencer against its definitional oracle.
//!
//! By default every typing rule passes on `Solve`'s residual of its
//! constraint; with derivation recording on, rules pass on the raw
//! formulas the paper's Figures 8–10 display. The two engines must
//! agree on the verdict, on the rejecting rule, and on the printed
//! toplevel scheme. `tests/data/typecheck.txt` and
//! `tests/data/typefail.txt` pin the schemes and rejecting rules
//! themselves; regenerate them with
//! `cargo test --release --test solved_form -- --ignored regenerate_data_pairs`.

use std::path::PathBuf;

use bsml_ast::Expr;
use bsml_infer::{initial_env, Inference, Inferencer, TypeError};
use bsml_repro::testgen::{self, Adversarial, GenTy};
use bsml_std::{algorithms, combinators, paper_corpus, workloads, Verdict};

/// Seeds per depth for `testgen::well_typed_source`.
const WELL_TYPED: u64 = 2_500;
/// Seeds per (`GenTy`, depth) for `testgen::generate`.
const GENERATED: u64 = 500;
/// Seeds per rejecting adversarial family.
const ADVERSARIAL: u64 = 400;
const GEN_TYS: [GenTy; 4] = [GenTy::Int, GenTy::Bool, GenTy::IntPar, GenTy::BoolPar];
const REJECTING: [Adversarial; 3] = [
    Adversarial::NestingBreach,
    Adversarial::LocalityBreach,
    Adversarial::IllTyped,
];

// At least 10k generated programs go through the differential check.
const _: () =
    assert!(2 * WELL_TYPED + 2 * GEN_TYS.len() as u64 * GENERATED + 3 * ADVERSARIAL >= 10_000);

/// What a program's inference is observed as: the printed scheme, or
/// the rejecting rule (or error kind for non-locality errors).
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Scheme(String),
    Rejected(String),
}

fn rejection(err: &TypeError) -> String {
    match err {
        TypeError::LocalityViolation { rule, .. } => (*rule).to_string(),
        TypeError::Mismatch { context, .. } => format!("mismatch in {context}"),
        TypeError::Unbound { name, .. } => format!("unbound {name}"),
    }
}

fn observe(result: &Result<Inference, TypeError>) -> Outcome {
    match result {
        Ok(inf) => Outcome::Scheme(inf.scheme().to_string()),
        Err(err) => Outcome::Rejected(rejection(err)),
    }
}

fn solved(e: &Expr) -> Result<Inference, TypeError> {
    Inferencer::new().run(&initial_env(), e)
}

fn raw(e: &Expr) -> Result<Inference, TypeError> {
    Inferencer::new()
        .with_derivation(true)
        .run(&initial_env(), e)
}

/// Folds toplevel phrases (`let x = e` …) into one closed program
/// whose body is the last bound name.
fn as_program(phrases: &str) -> Expr {
    let mut module = bsml_syntax::parse_module(phrases).expect("adversarial phrases parse");
    let last = module
        .decls
        .last()
        .expect("at least one phrase")
        .name
        .clone();
    module.body = Some(bsml_ast::build::var(last.as_str()));
    module.to_expr().expect("module has a body")
}

/// The named programs: paper corpus, std collectives, every prelude
/// combinator on its own (so its polymorphic constrained scheme is
/// the result), PSRS and matvec at the given sizes.
fn named_programs(psrs: &[usize], matvec: &[(usize, usize)]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = paper_corpus()
        .into_iter()
        .map(|c| (c.name.to_string(), c.source))
        .collect();
    out.extend(
        workloads::all_basic()
            .into_iter()
            .map(|w| (w.name, w.source)),
    );
    for (i, def) in combinators::ALL_DEFS.iter().enumerate() {
        let name = def
            .trim_start_matches("let ")
            .trim_start_matches("rec ")
            .split_whitespace()
            .next()
            .expect("a definition names its binding");
        out.push((
            format!("combinator {name}"),
            combinators::prelude(&combinators::ALL_DEFS[..=i], name),
        ));
    }
    for (name, def) in [
        ("psrs", algorithms::PSRS_DEF),
        ("matvec", algorithms::MATVEC_DEF),
    ] {
        out.push((
            format!("algorithm {name}"),
            combinators::prelude(
                &[
                    combinators::TOTAL_EXCHANGE_DEF,
                    algorithms::LIST_TOOLBOX_DEF,
                    def,
                ],
                name,
            ),
        ));
    }
    for &n in psrs {
        out.push((format!("psrs({n})"), algorithms::psrs_sort(n).source));
    }
    for &(r, c) in matvec {
        out.push((format!("matvec({r},{c})"), algorithms::matvec(r, c).source));
    }
    out
}

/// Runs both engines over `programs` and fails on any disagreement,
/// or if fewer than `at_least` programs were checked.
fn assert_agree(programs: impl IntoIterator<Item = (String, Expr)>, at_least: usize) {
    let mut checked = 0;
    let mut diffs = Vec::new();
    for (label, e) in programs {
        checked += 1;
        let (fast, oracle) = (observe(&solved(&e)), observe(&raw(&e)));
        if fast != oracle {
            diffs.push(format!("{label}: solved form {fast:?}, oracle {oracle:?}"));
        }
    }
    assert!(checked >= at_least, "only {checked} programs checked");
    assert!(
        diffs.is_empty(),
        "{} of {checked} programs differ:\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}

#[test]
fn paper_and_library_programs_agree() {
    let matvec: Vec<(usize, usize)> = (1..5).flat_map(|r| (1..5).map(move |c| (r, c))).collect();
    let psrs: Vec<usize> = (40..56).collect();
    let programs: Vec<(String, Expr)> = named_programs(&psrs, &matvec)
        .into_iter()
        .map(|(label, src)| {
            let e = bsml_syntax::parse(&src).unwrap_or_else(|err| panic!("{label}: {err}"));
            (label, e)
        })
        .collect();
    let n = programs.len();
    assert_agree(programs, n);
}

#[test]
fn well_typed_sources_agree() {
    let programs = [3, 4].into_iter().flat_map(|depth| {
        (0..WELL_TYPED).map(move |seed| {
            let src = testgen::well_typed_source(seed, depth);
            let e = bsml_syntax::parse(&src).expect("generated source parses");
            (format!("well_typed_source({seed}, {depth})"), e)
        })
    });
    assert_agree(programs, 2 * WELL_TYPED as usize);
}

#[test]
fn generated_programs_of_every_type_agree() {
    let programs = GEN_TYS.into_iter().flat_map(|ty| {
        [3, 4].into_iter().flat_map(move |depth| {
            (0..GENERATED).map(move |seed| {
                (
                    format!("generate({seed}, {ty:?}, {depth})"),
                    testgen::generate(seed, ty, depth),
                )
            })
        })
    });
    assert_agree(programs, 2 * GEN_TYS.len() * GENERATED as usize);
}

#[test]
fn adversarial_rejects_agree() {
    let programs = REJECTING.into_iter().flat_map(|family| {
        (0..ADVERSARIAL).map(move |seed| {
            (
                format!("{family:?}({seed})"),
                as_program(&testgen::adversarial(seed, family)),
            )
        })
    });
    assert_agree(programs, REJECTING.len() * ADVERSARIAL as usize);
}

/// Rejections report the rule-local constraint over solved premises:
/// raised by the same rule as the raw-formula oracle, no longer than
/// the oracle's formula and under 200 characters, and still showing
/// where the absurdity comes from — an `L(τ par)` atom, or `⇒ False`
/// where `Solve` already reduced a premise's `L(τ par)` (or for
/// (Ifat)'s own side condition `L(τ) ⇒ False`).
#[test]
fn corpus_rejections_keep_their_rule_and_stay_short() {
    let rejects: Vec<_> = paper_corpus()
        .into_iter()
        .filter(|c| c.verdict == Verdict::Reject)
        .collect();
    assert!(!rejects.is_empty());
    for c in rejects {
        let e = c.ast();
        let Err(TypeError::LocalityViolation {
            rule, constraint, ..
        }) = solved(&e)
        else {
            panic!("{}: not rejected by a locality violation", c.name);
        };
        let Err(TypeError::LocalityViolation {
            rule: oracle_rule,
            constraint: oracle_constraint,
            ..
        }) = raw(&e)
        else {
            panic!(
                "{}: the oracle does not report a locality violation",
                c.name
            );
        };
        assert_eq!(rule, oracle_rule, "{}: rule changed", c.name);
        let text = constraint.to_string();
        let len = text.chars().count();
        assert!(len < 200, "{}: {len} characters: {text}", c.name);
        assert!(
            len <= oracle_constraint.to_string().chars().count(),
            "{}: longer than the raw formula: {text}",
            c.name
        );
        assert!(
            text.contains("par") || text.contains("False"),
            "{}: {text}",
            c.name
        );
    }
}

// ---------- checked-in accept/reject data pairs ----------

fn data_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name)
}

/// Reads `### label` / source lines / `==> expected` records.
fn read_pairs(name: &str) -> Vec<(String, String, String)> {
    let path = data_path(name);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|err| panic!("{}: {err}", path.display()));
    let mut out = Vec::new();
    let mut record: Option<(String, Vec<&str>)> = None;
    for line in text.lines() {
        if let Some(label) = line.strip_prefix("### ") {
            assert!(record.is_none(), "{name}: `{label}` starts inside a record");
            record = Some((label.to_string(), Vec::new()));
        } else if let Some(expected) = line.strip_prefix("==> ") {
            let (label, source) = record
                .take()
                .unwrap_or_else(|| panic!("{name}: `==> {expected}` outside a record"));
            out.push((label, source.join("\n"), expected.to_string()));
        } else if let Some((_, source)) = &mut record {
            source.push(line);
        }
    }
    assert!(record.is_none(), "{name}: unterminated record");
    out
}

/// Checks every pair of a data file; `verdict` is `accept` or
/// `reject`, the verdict all of its programs share.
fn check_pairs(name: &str, verdict: &str, at_least: usize) {
    let pairs = read_pairs(name);
    assert!(
        pairs.len() >= at_least,
        "{name}: only {} pairs",
        pairs.len()
    );
    let mut diffs = Vec::new();
    for (label, source, expected) in &pairs {
        let e = bsml_syntax::parse(source).unwrap_or_else(|err| panic!("{label}: {err}"));
        let got = match observe(&solved(&e)) {
            Outcome::Scheme(s) => format!("accept {s}"),
            Outcome::Rejected(r) => format!("reject {r}"),
        };
        let want = format!("{verdict} {expected}");
        if got != want {
            diffs.push(format!("{label}: got `{got}`, want `{want}`"));
        }
    }
    assert!(diffs.is_empty(), "{name}:\n{}", diffs.join("\n"));
}

#[test]
fn typecheck_pairs_keep_their_schemes() {
    check_pairs("typecheck.txt", "accept", 300);
}

#[test]
fn typefail_pairs_keep_their_rules() {
    check_pairs("typefail.txt", "reject", 100);
}

/// Every program of the data pairs, as concrete source.
fn data_programs() -> Vec<(String, String)> {
    let mut out = named_programs(&[40, 48, 55], &[(1, 1), (2, 3), (3, 3), (4, 4)]);
    for seed in 0..120 {
        out.push((
            format!("well_typed_source({seed}, 3)"),
            testgen::well_typed_source(seed, 3),
        ));
    }
    for ty in GEN_TYS {
        for seed in 0..40 {
            let e = testgen::generate(seed, ty, 4);
            out.push((
                format!("generate({seed}, {ty:?}, 4)"),
                bsml_ast::pretty::to_source(&e),
            ));
        }
    }
    for family in REJECTING {
        for seed in 0..40 {
            let e = as_program(&testgen::adversarial(seed, family));
            out.push((
                format!("{family:?}({seed})"),
                bsml_ast::pretty::to_source(&e),
            ));
        }
    }
    out
}

/// Rewrites both data files from the current inferencer.
#[test]
#[ignore = "rewrites tests/data; run by hand"]
fn regenerate_data_pairs() {
    let mut accepted = String::from(
        "# Source → printed toplevel scheme, read by tests/solved_form.rs.\n\
         # Records: `### label`, the source lines, `==> scheme`.\n",
    );
    let mut rejected = String::from(
        "# Source → rejecting rule (or error kind), read by tests/solved_form.rs.\n\
         # Records: `### label`, the source lines, `==> rule`.\n",
    );
    for (label, source) in data_programs() {
        let source = source.trim_end();
        let e = bsml_syntax::parse(source).unwrap_or_else(|err| panic!("{label}: {err}"));
        let (file, expected) = match observe(&solved(&e)) {
            Outcome::Scheme(s) => (&mut accepted, s),
            Outcome::Rejected(r) => (&mut rejected, r),
        };
        file.push_str(&format!("### {label}\n{source}\n==> {expected}\n"));
    }
    std::fs::create_dir_all(data_path("")).unwrap();
    std::fs::write(data_path("typecheck.txt"), accepted).unwrap();
    std::fs::write(data_path("typefail.txt"), rejected).unwrap();
}
