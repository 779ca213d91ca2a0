//! `local_eval`: one client, one in-process Session, a closed loop of
//! fixed texts over in-memory sources — a 20k-row `samples` table and a
//! `genes` table in the `Lab` source, and the nested publications in the
//! `Pubs` source. Every plan is a cache hit and no source has latency, so
//! CPU evaluation does the work: filter/project scans, a hash join, an
//! aggregate, flattens of nested data, and a streamed prefix.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use bio_data::MemorySource;
use kleisli::Session;
use kleisli_core::{MetricsSnapshot, Value};
use kleisli_opt::OptConfig;

use crate::calib::Calibration;
use crate::common::{
    driver_layers, eval_layers, finish_traced, Args, Class, Op, Outcome, Phase, Setup,
};
use crate::design::local as d;
use crate::rng::Rng;
use crate::stats::ratio;
use crate::trace::Tracer;

const ORGANISMS: [&str; 5] = ["human", "mouse", "rat", "yeast", "fly"];

/// A query of the mix: its text, and whether it is a prefix request.
struct Query {
    text: String,
    prefix: bool,
}

/// The fixed texts. Their literals are constants: the seed varies the
/// data, and over 20k rows each filter keeps nearly the same share of
/// rows whatever the seed, so the work per query hardly varies.
fn queries() -> Vec<Query> {
    let (score, join_score, org, year, prefix_score) = (50, 20, "mouse", 1987, 500);
    let q = |text: String, prefix| Query { text, prefix };
    let scan = format!(
        r#"{{[i = s.id, g = s.gene] | \s <- Lab([table = "samples"]), s.score < {score}}}"#
    );
    let prefix = format!(
        r#"{{[i = s.id, g = s.gene] | \s <- Lab([table = "samples"]), s.score > {prefix_score}}}"#
    );
    // The cycle: three cheap operations, three scans of the 20k-row
    // table and three heavier ones, so the median falls in the middle of
    // the scans' latencies and p99 among the heavy operations, not on a
    // boundary between two kinds.
    vec![
        q(scan.clone(), false),
        q(
            r#"{[t = t, k = k] | [title = \t, keywd = \kk, ...] <- Pubs([table = "publications"]), \k <- kk}"#
                .to_string(),
            false,
        ),
        q(
            format!(r#"sum({{s.len | \s <- Lab([table = "samples"]), s.organism = "{org}"}})"#),
            false,
        ),
        q(prefix, true),
        q(scan.clone(), false),
        q(
            format!(
                r#"{{[i = s.id, c = g.chrom] | \s <- Lab([table = "samples"]), \g <- Lab([table = "genes"]), s.gene = g.gene, s.score < {join_score}}}"#
            ),
            false,
        ),
        q(
            format!(
                r#"{{[n = a.name, y = p.year] | \p <- Pubs([table = "publications"]), p.year > {year}, \a <- p.authors}}"#
            ),
            false,
        ),
        q(scan, false),
        q(
            r#"count({s.gene | \s <- Lab([table = "samples"]), s.len > 500})"#.to_string(),
            false,
        ),
    ]
}

fn samples(seed: u64) -> Value {
    let mut rng = Rng::derive(seed, 12);
    Value::set(
        (0..d::SAMPLES as i64)
            .map(|i| {
                Value::record_from(vec![
                    ("id", Value::Int(i)),
                    (
                        "gene",
                        Value::str(format!("G{}", rng.below(d::GENES as u64))),
                    ),
                    ("organism", Value::str(ORGANISMS[rng.below(5) as usize])),
                    ("score", Value::Int(rng.below(1000) as i64)),
                    ("len", Value::Int(100 + rng.below(900) as i64)),
                ])
            })
            .collect(),
    )
}

fn genes(seed: u64) -> Value {
    let mut rng = Rng::derive(seed, 13);
    Value::set(
        (0..d::GENES)
            .map(|g| {
                Value::record_from(vec![
                    ("gene", Value::str(format!("G{g}"))),
                    ("chrom", Value::str(format!("{}", 1 + rng.below(22)))),
                ])
            })
            .collect(),
    )
}

struct Env {
    lab: Arc<MemorySource>,
    pubs: Arc<MemorySource>,
    session: Session,
}

fn build(seed: u64, mix: &[Query]) -> Env {
    let lab = Arc::new(
        MemorySource::new("Lab")
            .with_table("samples", samples(seed))
            .with_table("genes", genes(seed)),
    );
    let pubs = Arc::new(MemorySource::publications(d::PUBLICATIONS, seed));
    let mut session = Session::new();
    session.register_driver(lab.clone());
    session.register_driver(pubs.clone());
    for q in mix {
        session
            .query(&q.text)
            .expect("fixed text evaluates during warm-up");
    }
    Env { lab, pubs, session }
}

fn snapshot(s: &Session) -> (MetricsSnapshot, MetricsSnapshot) {
    (
        s.driver_metrics("Lab").expect("Lab registered"),
        s.driver_metrics("Pubs").expect("Pubs registered"),
    )
}

/// What must repeat exactly every time one text runs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Counts {
    lab_requests: u64,
    lab_rows: u64,
    pubs_requests: u64,
    rows_out: usize,
}

struct Checks {
    /// Full reference result per text (for a prefix request, the full
    /// result its rows must come from).
    expected: Vec<Value>,
    counts: HashMap<usize, Counts>,
    problems: Vec<String>,
}

pub fn run(args: &Args) -> Outcome {
    let mix = queries();
    let mut setup = Setup::new(|| build(args.seed, &mix));
    let env = setup.start();

    // References from an unoptimized session over the same sources.
    let checked_at = Instant::now();
    let mut reference = Session::new();
    reference.register_driver(env.lab.clone());
    reference.register_driver(env.pubs.clone());
    reference.set_opt_config(OptConfig::none());
    let mut checks = Checks {
        expected: Vec::new(),
        counts: HashMap::new(),
        problems: Vec::new(),
    };
    for q in &mix {
        let want = reference.query(&q.text).expect("reference evaluates");
        if !q.prefix {
            let got = env.session.query(&q.text).expect("fixed text evaluates");
            if got != want || got.to_string() != want.to_string() {
                checks.problems.push(format!(
                    "differs from the unoptimized reference: {}",
                    q.text
                ));
            }
        }
        checks.expected.push(want);
    }

    let mut out = Outcome {
        notes: vec![format!(
            "reference results computed in {:.2} s",
            checked_at.elapsed().as_secs_f64()
        )],
        limit_ms: d::LIMIT_MS,
        ..Outcome::default()
    };
    let mut step = 0usize;
    out.phase = phase(
        args,
        &env,
        &mix,
        &mut step,
        &mut checks,
        &Tracer::new(false),
    );
    if args.trace {
        let tracer = Tracer::new(true);
        let plan0 = env.session.plan_cache_stats();
        let (lab0, _) = snapshot(&env.session);
        let traced = phase(args, &env, &mix, &mut step, &mut checks, &tracer);
        let plan1 = env.session.plan_cache_stats();
        let (lab1, _) = snapshot(&env.session);
        let spans = tracer.take();
        let n = traced.ops.len();
        let l = &mut out.layers;
        eval_layers(l, &spans);
        let hits = (plan1.hits - plan0.hits) as f64;
        let misses = (plan1.misses - plan0.misses) as f64;
        l.insert(
            "kleisli.plan_cache_hit_ratio".into(),
            ratio(hits, hits + misses),
        );
        l.insert(
            "kleisli.plan_cache_evictions".into(),
            (plan1.evictions - plan0.evictions) as f64,
        );
        driver_layers(l, "Lab", &lab0, &lab1, n);
        let threads = env.session.executor().threads_spawned();
        finish_traced(&mut out, threads, &traced, spans);
    }
    setup.finish(&mut out);
    let stats = env.session.plan_cache_stats();
    let distinct = mix
        .iter()
        .map(|q| &q.text)
        .collect::<std::collections::HashSet<_>>()
        .len();
    if stats.misses != distinct as u64 {
        checks.problems.push(format!(
            "plan-cache misses {} != distinct texts issued {distinct}",
            stats.misses
        ));
    }
    out.notes.push(format!(
        "plan cache: {} misses for {distinct} distinct texts, {} hits",
        stats.misses, stats.hits
    ));
    // Runs with the same seed must print the same digest.
    let counts: std::collections::BTreeMap<&usize, &Counts> = checks.counts.iter().collect();
    out.notes.push(format!(
        "per-text counts digest: {:016x}",
        crate::stats::digest(&counts)
    ));
    out.problems.append(&mut checks.problems);
    out
}

fn phase(
    args: &Args,
    env: &Env,
    mix: &[Query],
    step: &mut usize,
    checks: &mut Checks,
    tracer: &Tracer,
) -> Phase {
    let session = &env.session;
    let mut ops = Vec::new();
    let mut rows_out = 0;
    let cpu0 = crate::stats::cpu_seconds();
    let start = Instant::now();
    let calib = Calibration::new(start);
    let mut last_calib = None;
    let deadline = start + args.phase();
    while Instant::now() < deadline {
        let which = *step % mix.len();
        *step += 1;
        let q = &mix[which];
        let (l0, p0) = snapshot(session);
        calib.tick(&mut last_calib);
        let cpu_s = crate::stats::cpu_seconds() - cpu0 - calib.cpu_s();
        let t = Instant::now();
        let (_, result) = tracer.op("bench.op", || {
            if q.prefix {
                tracer
                    .span("kleisli.query_first_n", || {
                        session.query_first_n(&q.text, d::FIRST_N)
                    })
                    .map(Value::list)
            } else {
                let handle = tracer.span("kleisli.submit", || session.submit(&q.text));
                handle.and_then(|h| tracer.span("kleisli.wait", || h.wait()))
            }
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let (l1, p1) = snapshot(session);
        let mut ok = result.is_ok();
        if let Err(e) = &result {
            checks
                .problems
                .push(format!("query failed: {e}: {}", q.text));
        }
        if let Ok(v) = &result {
            let want = &checks.expected[which];
            let right = if q.prefix {
                prefix_of(v, want, d::FIRST_N)
            } else {
                v == want
            };
            if !right {
                ok = false;
                checks
                    .problems
                    .push(format!("wrong answer for: {}", q.text));
            }
            let counts = Counts {
                lab_requests: l1.requests - l0.requests,
                lab_rows: l1.rows_shipped - l0.rows_shipped,
                pubs_requests: p1.requests - p0.requests,
                rows_out: v.len().unwrap_or(1),
            };
            rows_out += counts.rows_out;
            let first = *checks.counts.entry(which).or_insert(counts);
            if first != counts {
                checks.problems.push(format!(
                    "counts did not repeat for {}: {first:?} then {counts:?}",
                    q.text
                ));
            }
        }
        ops.push(Op {
            at_s: t.duration_since(start).as_secs_f64(),
            class: if q.prefix {
                Class::FirstRow
            } else {
                Class::Query
            },
            kind: which,
            ms,
            ok,
            cpu_s,
        });
    }
    Phase {
        ops,
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: crate::stats::cpu_seconds() - cpu0 - calib.cpu_s(),
        rows_out,
        calib: calib.samples(),
    }
}

/// A prefix answer is right when it holds `min(n, |full|)` distinct rows,
/// each one a row of the full reference result.
fn prefix_of(prefix: &Value, full: &Value, n: usize) -> bool {
    let (Some(rows), Some(all)) = (prefix.elements(), full.elements()) else {
        return false;
    };
    let mut seen: Vec<&Value> = Vec::new();
    for r in rows {
        if seen.contains(&r) || !all.contains(r) {
            return false;
        }
        seen.push(r);
    }
    rows.len() == n.min(all.len())
}
