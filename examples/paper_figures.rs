//! Regenerates the paper's figures mechanically:
//!
//! * Figure 6 — the `TC` table of constant/operator schemes,
//! * Figures 8–10 — the typing judgments of `example2` and the two
//!   mixed projections,
//! * the complete §2.1/§4 example corpus with verdicts.
//!
//! ```sh
//! cargo run --example paper_figures
//! ```

use bsml_ast::Op;
use bsml_bsp::BspParams;
use bsml_core::{Bsml, BsmlError};
use bsml_infer::env::op_scheme;
use bsml_std::{paper_corpus, Verdict};

fn main() {
    let bsml = Bsml::new(BspParams::new(3, 10, 1000));

    println!("=== Figure 6: the initial environment TC ===\n");
    for op in Op::ALL {
        println!("  TC({:<7}) = {}", op.to_string(), op_scheme(op));
    }

    println!("\n=== Figure 9: fst (mkpar (fun i -> i), 1) — accepted ===\n");
    match bsml.derivation("fst (mkpar (fun i -> i), 1)") {
        Ok(d) => print!("{d}"),
        Err(e) => println!("unexpected: {e}"),
    }

    println!("\n=== Figure 10: fst (1, mkpar (fun i -> i)) — rejected ===\n");
    show_rejection(&bsml, "fst (1, mkpar (fun i -> i))");

    println!("\n=== Figure 8: example2 — rejected ===\n");
    show_rejection(
        &bsml,
        "mkpar (fun pid -> let this = mkpar (fun pid -> pid) in pid)",
    );
    println!("\n(the inner let in isolation, with pid at int — the exact Figure 8 judgment)\n");
    show_rejection(&bsml, "(fun pid -> let this = mkpar (fun i -> i) in pid) 7");

    println!("\n=== The full paper corpus ===\n");
    for entry in paper_corpus() {
        let verdict = match (entry.verdict, bsml.check(&entry.source)) {
            (Verdict::Accept, Ok(check)) => {
                format!("accepted : {}", check.scheme())
            }
            (Verdict::Reject, Err(BsmlError::Type(err))) => {
                format!("rejected : {err}")
            }
            (expected, got) => format!(
                "MISMATCH: paper says {expected:?}, checker says {}",
                match got {
                    Ok(c) => format!("accept at {}", c.inference.ty),
                    Err(e) => format!("error {e}"),
                }
            ),
        };
        println!(
            "  {:<28} [{}]\n      {verdict}\n",
            entry.name, entry.paper_ref
        );
    }
}

/// Checks with derivation recording on, so the reported constraint is
/// the raw formula the paper's figure shows (e.g. `L(int) ⇒ L(int par)`)
/// rather than the solved form the default checker reports.
fn show_rejection(bsml: &Bsml, source: &str) {
    match bsml.derivation(source) {
        Err(err) => println!("{}", err.render(source)),
        Ok(tree) => println!("unexpectedly accepted:\n{tree}"),
    }
}
