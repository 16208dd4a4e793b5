//! `serve_sessions`: open loop at one fixed rate, one generator thread
//! submitting on schedule and polling `Ticket::try_wait`.
//!
//! Eight tenants on a durable server (a fresh write-ahead-log
//! directory per set-up, two workers). Each tenant first defines a
//! combinator library as phrases, then interleaves uses of it,
//! generated well-typed bindings, static rejects and heavy
//! (preemptible) phrases. No phrase diverges, so every request has a
//! class its family promises.
//!
//! Why: `infer` runs per phrase against a growing session
//! environment, and the run adds admission, DRR slicing and WAL
//! append + fsync (on `Done`, none on static rejects). Exchange and
//! launch are bypassed: sessions run the lockstep machine.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use bsml_bsp::BspParams;
use bsml_repro::testgen::{self, Adversarial};
use bsml_serve::{Outcome, Server, ServerConfig, ServerStats, Ticket};
use bsml_std::combinators;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{stats, timed, Metrics, Plant, Segment, Tracer, Workload};

/// Offered requests per second: well below saturation, so latency
/// reflects service and preemption rather than a growing backlog.
pub const RATE: f64 = 40.0;
/// How long before a request is due the generator stops sleeping and
/// spins.
const SPIN: Duration = Duration::from_micros(300);
/// Tenants sharing the server.
pub const TENANTS: usize = 8;
/// Server worker threads.
pub const WORKERS: usize = 2;

/// The library every tenant defines first, one phrase per request.
const LIBRARY: [&str; 6] = [
    combinators::REPLICATE_DEF,
    combinators::BCAST_DIRECT_DEF,
    combinators::SHIFT_DEF,
    combinators::FOLD_PLUS_DEF,
    combinators::MAKE_LIST_DEF,
    combinators::BCAST_LOG_DEF,
];

/// The outcome a request's family promises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Parsed, checked, evaluated and committed.
    Done,
    /// Refused by the parser or the type checker.
    Static,
}

/// Where a request comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    /// A combinator definition of the tenant's library.
    Library,
    /// A use of the library.
    Use,
    /// A generated well-typed binding.
    Generated,
    /// A parse, nesting, locality or type error.
    Reject,
    /// A heavy terminating loop, preempted across fuel slices.
    Heavy,
}

/// One scheduled request.
#[derive(Clone, Debug)]
pub struct Offer {
    /// Which tenant sends it.
    pub tenant: String,
    /// The phrase source.
    pub source: String,
    /// Its family.
    pub family: Family,
    /// The promised class.
    pub class: Class,
}

/// Requests of each family in every block of 20 after the library
/// phase: 8 library uses, 7 generated bindings, 3 static rejects and
/// 2 heavy phrases. Exact shares keep every seed's mix the same.
const BLOCK: [(Family, usize); 4] = [
    (Family::Use, 8),
    (Family::Generated, 7),
    (Family::Reject, 3),
    (Family::Heavy, 2),
];

/// Draws the `n`-th request of a family.
fn draw(rng: &mut StdRng, family: Family, n: usize) -> (String, Class) {
    let s = rng.gen_range(0..u64::MAX / 2);
    let k = rng.gen_range(1..50i64);
    let root = rng.gen_range(0..2usize);
    let words = rng.gen_range(4..33usize);
    match family {
        Family::Library | Family::Use => {
            let src = match n % 5 {
                0 => format!("let b{n} = bcast {root} (mkpar (fun i -> i * {k}))"),
                1 => format!("let s{n} = shift (mkpar (fun i -> i + {k}))"),
                2 => format!("let f{n} = fold_plus (mkpar (fun i -> i * {k}))"),
                3 => format!("let l{n} = bcast_log (mkpar (fun i -> make_list {words} i))"),
                _ => format!(
                    "let m{n} = bcast {root} (mkpar (fun i -> make_list {words} (i + {k})))"
                ),
            };
            (src, Class::Done)
        }
        Family::Generated => {
            // Generated parallel programs address pids below
            // `testgen::P` (3), beyond this 2-wide machine, so only the
            // sequential int/bool seeds (`s % 3 != 2`) are drawn:
            // nothing in them can fail at run time.
            let s = 3 * (s / 3) + n as u64 % 2;
            (
                format!("let v{n} = {}", testgen::well_typed_source(s, 2)),
                Class::Done,
            )
        }
        Family::Reject => {
            let family = [
                Adversarial::NestingBreach,
                Adversarial::LocalityBreach,
                Adversarial::IllTyped,
                Adversarial::ParseError,
            ][n % 4];
            (testgen::adversarial(s, family), Class::Static)
        }
        Family::Heavy => (testgen::adversarial(s, Adversarial::Heavy), Class::Done),
    }
}

/// The seeded schedule: every tenant's library, then `n` requests in
/// shuffled blocks of [`BLOCK`], each from a seeded tenant.
#[must_use]
pub fn offers(seed: u64, n: usize) -> Vec<Offer> {
    let mut rng = StdRng::seed_from_u64(seed);
    let tenant = |t: usize| format!("tenant{t}");
    let mut out = Vec::new();
    for def in LIBRARY {
        for t in 0..TENANTS {
            out.push(Offer {
                tenant: tenant(t),
                source: def.to_string(),
                family: Family::Library,
                class: Class::Done,
            });
        }
    }
    let mut i = 0;
    while i < n {
        let mut block: Vec<Family> = BLOCK
            .iter()
            .flat_map(|&(f, count)| std::iter::repeat_n(f, count))
            .collect();
        for j in (1..block.len()).rev() {
            block.swap(j, rng.gen_range(0..j + 1));
        }
        for family in block.into_iter().take(n - i) {
            let (source, class) = draw(&mut rng, family, i);
            out.push(Offer {
                tenant: tenant(rng.gen_range(0..TENANTS)),
                source,
                family,
                class,
            });
            i += 1;
        }
    }
    out
}

/// Checks a completion against its promised class.
fn check(offer: &Offer, outcome: &Outcome) -> Result<(), String> {
    let ok = match offer.class {
        Class::Done => matches!(outcome, Outcome::Done { .. }),
        Class::Static => matches!(outcome, Outcome::Static { .. }),
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{} `{}`: promised {:?}, got {outcome:?}",
            offer.tenant, offer.source, offer.class
        ))
    }
}

/// One request in flight.
struct Pending {
    offer: usize,
    /// The tracer's op id (0 untraced).
    op: u64,
    due: Instant,
    admitted: Instant,
    ticket: Ticket,
}

/// The `serve_sessions` workload state.
pub struct Serve {
    seed: u64,
    plant: Plant,
    server: Option<Server>,
    wal_dir: PathBuf,
    tracer: Option<Tracer>,
    service_us: Vec<f64>,
    late_us: Vec<f64>,
}

/// Distinguishes the WAL directories of set-ups within one process.
static SETUPS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl Serve {
    /// Starts a durable server on a fresh WAL directory and warms it
    /// up with one tenant's library.
    ///
    /// # Errors
    ///
    /// The WAL directory cannot be created, the server did not arm
    /// durability, or the warm-up library was not committed.
    pub fn new(seed: u64, plant: Plant, tracer: Option<&Tracer>) -> Result<Serve, String> {
        let k = SETUPS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let wal_dir = PathBuf::from(format!(".bench_out/wal-{}-{k}", std::process::id()));
        let _ = std::fs::remove_dir_all(&wal_dir);
        std::fs::create_dir_all(&wal_dir).map_err(|e| format!("{}: {e}", wal_dir.display()))?;
        let config = ServerConfig::new(BspParams::new(2, 1, 10))
            .with_workers(WORKERS)
            .with_fuel_slice(5_000, 20_000)
            .with_durable_dir(&wal_dir);
        let telemetry =
            tracer.map_or_else(bsml_obs::Telemetry::disabled, |t| t.telemetry().clone());
        let server = Server::start(config, telemetry);
        if !server.durable() {
            return Err(format!(
                "server did not arm its WAL in {}",
                wal_dir.display()
            ));
        }
        for def in LIBRARY {
            let done = server
                .submit("warmup", def)
                .map_err(|e| format!("warm-up refused: {e}"))?
                .wait();
            if !done.outcome.is_success() {
                return Err(format!("warm-up phrase failed: {:?}", done.outcome));
            }
        }
        Ok(Serve {
            seed,
            plant,
            server: Some(server),
            wal_dir,
            tracer: tracer.cloned(),
            service_us: Vec::new(),
            late_us: Vec::new(),
        })
    }

    fn server(&self) -> &Server {
        self.server.as_ref().expect("server runs until teardown")
    }
}

impl Workload for Serve {
    fn measure(&mut self, budget: Duration) -> Segment {
        let n = (RATE * budget.as_secs_f64()) as usize;
        let mut offers = offers(self.seed, n.saturating_sub(LIBRARY.len() * TENANTS));
        if self.plant == Plant::WrongFirstExpectation {
            let first = LIBRARY.len() * TENANTS;
            if let Some(o) = offers.get_mut(first) {
                o.class = match o.class {
                    Class::Done => Class::Static,
                    Class::Static => Class::Done,
                };
            }
        }
        let interval = Duration::from_secs_f64(1.0 / RATE);
        let mut service_us = Vec::new();
        let mut late_us = Vec::new();
        let mut by_family: std::collections::BTreeMap<Family, Vec<f64>> =
            std::collections::BTreeMap::new();
        let seg = timed(|seg| {
            let start = Instant::now();
            let mut next = 0;
            let mut pending: Vec<Pending> = Vec::new();
            while next < offers.len() || !pending.is_empty() {
                let now = Instant::now();
                while next < offers.len() && start + interval * next as u32 <= now {
                    let due = start + interval * next as u32;
                    let o = &offers[next];
                    let submitted = Instant::now();
                    late_us.push(submitted.duration_since(due).as_secs_f64() * 1e6);
                    seg.attempted += 1;
                    let result = {
                        let _s = self.tracer.as_ref().map(|t| t.op("server.submit"));
                        self.server().submit(&o.tenant, &o.source)
                    };
                    match result {
                        Ok(ticket) => pending.push(Pending {
                            offer: next,
                            op: self.tracer.as_ref().map_or(0, Tracer::current_op),
                            due,
                            admitted: Instant::now(),
                            ticket,
                        }),
                        Err(e) => seg.fail(format!("{} refused: {e}", o.tenant)),
                    }
                    next += 1;
                }
                pending.retain(|p| {
                    let Some(done) = p.ticket.try_wait() else {
                        return true;
                    };
                    let op = p.admitted.duration_since(p.due) + done.latency;
                    seg.op_us.push(op.as_secs_f64() * 1e6);
                    by_family
                        .entry(offers[p.offer].family)
                        .or_default()
                        .push(op.as_secs_f64() * 1e6);
                    service_us.push(done.latency.as_secs_f64() * 1e6);
                    if let Some(t) = &self.tracer {
                        let end = t.now_us();
                        let us = |d: Duration| u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
                        t.record(
                            &offers[p.offer].tenant,
                            "request",
                            end.saturating_sub(us(op)),
                            end,
                            p.op,
                        );
                    }
                    if let Err(msg) = check(&offers[p.offer], &done.outcome) {
                        seg.fail(msg);
                    }
                    false
                });
                // Sleep towards the next due time, but wake early and
                // spin the last stretch: a late timer wake-up would
                // otherwise be charged to every request as latency.
                let poll = Instant::now() + Duration::from_millis(1);
                let wake = if next < offers.len() {
                    (start + interval * next as u32).min(poll)
                } else {
                    poll
                };
                let left = wake.saturating_duration_since(Instant::now());
                if left > SPIN {
                    std::thread::sleep(left - SPIN);
                } else {
                    std::hint::spin_loop();
                }
            }
        });
        for (family, us) in &by_family {
            println!(
                "# serve_sessions {family:?}: {} requests, p50 {:.2} ms, p95 {:.2} ms",
                us.len(),
                stats::quantile(us, 0.5) / 1000.0,
                stats::quantile(us, 0.95) / 1000.0
            );
        }
        self.service_us = service_us;
        self.late_us = late_us;
        seg
    }

    fn layers(&mut self, out: &mut Metrics) {
        let Some(t) = self.tracer.clone() else { return };
        let tel = t.telemetry();
        let m = tel.metrics();
        out.put(
            "server.submit_us_p50",
            stats::quantile(&t.durations("server.submit"), 0.5),
            "us",
        );
        out.put(
            "server.service_us_p50",
            stats::quantile(&self.service_us, 0.5),
            "us",
        );
        out.put(
            "server.service_us_p95",
            stats::quantile(&self.service_us, 0.95),
            "us",
        );
        out.put(
            "server.gen_late_us_p95",
            stats::quantile(&self.late_us, 0.95),
            "us",
        );
        let hist = |name: &str| m.histograms.get(name).copied().unwrap_or_default();
        out.put(
            "server.queue_depth_p95",
            hist("server.queue_depth").p95_bound as f64,
            "count",
        );
        out.put(
            "server.slices_per_request_p95",
            hist("server.slices_per_request").p95_bound as f64,
            "count",
        );
        out.put(
            "server.preemptions",
            self.server().stats().preemptions as f64,
            "count",
        );
        out.put(
            "server.wal_bytes",
            tel.counter_value("server.wal_bytes") as f64,
            "bytes",
        );
        out.put(
            "session.phrase_us_p50",
            stats::quantile(&t.durations("phrase"), 0.5),
            "us",
        );
        out.put(
            "session.infer_us_sum",
            t.durations("infer").iter().sum(),
            "us",
        );
    }

    fn teardown(mut self: Box<Self>) -> Result<(), String> {
        let stats: ServerStats = self
            .server
            .take()
            .expect("server runs until teardown")
            .shutdown();
        let _ = std::fs::remove_dir_all(&self.wal_dir);
        if stats.offered != stats.admitted + stats.rejected() || stats.admitted != stats.completed {
            return Err(format!(
                "server accounting broken: offered {} admitted {} rejected {} completed {}",
                stats.offered,
                stats.admitted,
                stats.rejected(),
                stats.completed
            ));
        }
        Ok(())
    }
}
