//! The oracle checks must catch a wrong answer, not pass over it: a
//! planted wrong expectation has to surface as a failed op, and the
//! same run without the plant has to come out clean.

use std::time::Duration;

use bsml_perfbench::{setup, Plant};

/// Sets up `workload`, measures for `budget`, tears down; returns the
/// failure count and descriptions.
fn run(workload: &str, plant: Plant, budget: Duration) -> (u64, Vec<String>) {
    let mut w = setup(workload, 7, plant, None).expect("set-up");
    let seg = w.measure(budget);
    w.teardown().expect("end-of-run invariants hold");
    assert!(seg.attempted > 0, "{workload}: nothing ran");
    (seg.failed, seg.failures)
}

fn assert_caught(workload: &str, budget: Duration, needle: &str) {
    let (failed, failures) = run(workload, Plant::WrongFirstExpectation, budget);
    assert!(failed >= 1, "{workload}: planted wrong expectation passed");
    assert!(
        failures.iter().any(|f| f.contains(needle)),
        "{workload}: unexpected failure text {failures:?}"
    );
    let (clean, failures) = run(workload, Plant::None, budget);
    assert_eq!(clean, 0, "{workload}: clean run failed: {failures:?}");
}

#[test]
fn typecheck_reports_a_planted_wrong_verdict() {
    assert_caught("typecheck", Duration::from_millis(50), "family promises");
}

#[test]
fn threads_exchange_reports_a_planted_wrong_superstep_count() {
    assert_caught("threads_exchange", Duration::from_millis(50), "!= lockstep");
}

#[test]
fn serve_sessions_reports_a_planted_wrong_outcome_class() {
    // The plant sits on the first request after the 48 library
    // phrases, so the run must offer more than 48 requests.
    let budget = Duration::from_secs_f64(60.0 / bsml_perfbench::serve::RATE);
    assert_caught("serve_sessions", budget, "promised");
}
