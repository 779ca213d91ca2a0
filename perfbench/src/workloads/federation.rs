//! `federation_remote`: two Sessions sharing the GDB and GenBank driver
//! instances, each running a closed loop of the paper's queries against
//! sources with real per-request and per-row latency. Plans are hot, so
//! the time goes to waiting on drivers: SQL pushdown (Loci22), pushdown
//! plus path extraction and batched links (the DOE query), a cached
//! subquery (CACHEABLE), per-uid link loops (batching), a two-source
//! overlap, and a `first_n` prefix over a scan (prefetch and laziness).

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use bio_data::{GdbConfig, GenBankConfig};
use kleisli::{bio_federation, BioFederation, Session};
use kleisli_core::{LatencyModel, MetricsSnapshot, Value};
use kleisli_opt::OptConfig;

use crate::calib::Calibration;
use crate::common::{
    driver_layers, eval_layers, finish_traced, Args, Class, Op, Outcome, Phase, Setup,
};
use crate::design::federation as d;
use crate::stats::ratio;
use crate::trace::Tracer;

/// Loci22, on chromosome `{CHROM}`.
const LOCI22: &str = r#"{[locus_symbol = x, genbank_ref = y] |
    [locus_symbol = \x, locus_id = \a, ...] <- GDB-Tab("locus"),
    [genbank_ref = \y, object_id = a, object_class_key = 1, ...] <- GDB-Tab("object_genbank_eref"),
    [loc_cyto_chrom_num = "{CHROM}", locus_cyto_location_id = a, ...] <- GDB-Tab("locus_cyto_location")}"#;

/// The DOE query with its `Loci`, `ASN-IDs` and `NA-Links` views
/// written in place, on chromosome `{CHROM}`.
const DOE: &str = r#"{[locus = locus, homologs =
        {l | \l <- GenBank([db = "na", link = uid]), not (l.organism = "Homo sapiens")}] |
    \locus <- {[locus_symbol = x, genbank_ref = y] |
        [locus_symbol = \x, locus_id = \a, ...] <- GDB-Tab("locus"),
        [genbank_ref = \y, object_id = a, object_class_key = 1, ...] <- GDB-Tab("object_genbank_eref"),
        [loc_cyto_chrom_num = "{CHROM}", locus_cyto_location_id = a, ...] <- GDB-Tab("locus_cyto_location")},
    \uid <- flatten(GenBank([db = "na", select = "accession " ^ locus.genbank_ref,
                             path = "Seq-entry.seq.id..giim"]))}"#;

/// CACHEABLE over the first loci: the count subquery does not depend on
/// the outer locus, so it is fetched once and cached.
const CACHEABLE: &str = r#"{[s = l.locus_symbol,
       n = count({e | \e <- GDB-Tab("object_genbank_eref"), e.object_class_key = 1})] |
    \l <- GDB-Tab("locus"), l.locus_id < 13}"#;

/// The two-source overlap over four times the uids: the heaviest query,
/// issued rarely.
const TWO_SOURCE_WIDE: &str = r#"{[u = uid,
       links = count(GenBank([db = "na", link = uid])),
       loci = count({l | \l <- GDB-Tab("locus"), l.locus_id = uid})] |
    \uid <- WIDE_UIDS}"#;

/// Per-uid link lookups (batched into multi-uid requests).
const LINKS: &str = r#"{[u = uid, n = count(GenBank([db = "na", link = uid]))] | \uid <- UIDS}"#;

/// Per-uid requests to both sources at once.
const TWO_SOURCE: &str = r#"{[u = uid,
       links = count(GenBank([db = "na", link = uid])),
       loci = count({l | \l <- GDB-Tab("locus"), l.locus_id = uid})] |
    \uid <- UIDS}"#;

/// A prefix request over a full scan.
const PREFIX: &str = r#"{[s = l.locus_symbol] | \l <- GDB-Tab("locus")}"#;

/// The mix: (name, text) per query.
fn queries(chrom: &str) -> Vec<(&'static str, String)> {
    vec![
        ("loci22", LOCI22.replace("{CHROM}", chrom)),
        ("doe", DOE.replace("{CHROM}", chrom)),
        ("cacheable", CACHEABLE.to_string()),
        ("links", LINKS.to_string()),
        ("two_source", TWO_SOURCE.to_string()),
        ("first_n", PREFIX.to_string()),
        ("two_source_wide", TWO_SOURCE_WIDE.to_string()),
    ]
}

/// The chromosome whose Loci22 answer is closest to `LOCI_ON_CHROMOSOME`
/// rows, so the chromosome queries do about the same work whatever the
/// seed (and the DOE query has enough uids to batch its links).
fn chromosome(seed: u64) -> String {
    let data = bio_data::GdbData::generate(&gdb_config(seed));
    let mut names: Vec<&str> = data.loci.iter().map(|l| l.chromosome.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .min_by_key(|c| data.expected_loci(c).len().abs_diff(d::LOCI_ON_CHROMOSOME))
        .expect("the federation has loci")
        .to_string()
}

fn gdb_config(seed: u64) -> GdbConfig {
    GdbConfig {
        loci: d::LOCI,
        seed,
        ..Default::default()
    }
}
const PREFIX_INDEX: usize = 5;

/// The cycle each session walks (indexes into the mix), starting at a
/// different offset per session. The batched link loop takes the middle
/// third of the latency distribution, so the median falls inside its
/// block rather than on a boundary between two queries.
const CYCLE: [usize; 9] = [0, 3, 1, 5, 3, 2, 4, 3, 0];

/// Every `HEAVY_EVERY`-th operation of a session is the heaviest query
/// instead (about 2% of operations), so p99 falls inside its latencies
/// rather than in the tail of a more frequent query.
const HEAVY_EVERY: usize = 45;
const HEAVY_INDEX: usize = 6;

fn federation(seed: u64, latency: fn() -> LatencyModel) -> BioFederation {
    bio_federation(
        &gdb_config(seed),
        &GenBankConfig {
            extra_entries: d::GENBANK_EXTRA,
            links_per_entry: 3,
            seq_len: 40,
            seed,
        },
        latency(),
        latency(),
    )
    .expect("federation generates")
}

fn remote() -> LatencyModel {
    LatencyModel::real(d::PER_REQUEST, d::PER_ROW)
}

fn session(fed: &BioFederation, config: OptConfig) -> Session {
    let mut s = Session::new();
    s.register_driver(fed.gdb.clone());
    s.register_driver(fed.genbank.clone());
    let uids = |n: usize| {
        let uids = fed.genbank_data.entries.iter().take(n);
        Value::set(uids.map(|e| Value::Int(e.uid)).collect())
    };
    s.bind_value("UIDS", uids(d::UIDS));
    s.bind_value("WIDE_UIDS", uids(4 * d::UIDS));
    s.set_opt_config(config);
    s
}

struct Env {
    fed: BioFederation,
    sessions: Vec<Session>,
}

fn build(seed: u64, queries: &[(&str, String)]) -> Env {
    let fed = federation(seed, remote);
    let sessions: Vec<Session> = (0..d::SESSIONS)
        .map(|_| session(&fed, OptConfig::default()))
        .collect();
    for s in &sessions {
        for (_, text) in queries {
            s.query(text).expect("query evaluates during warm-up");
        }
    }
    Env { fed, sessions }
}

fn run_query(
    session: &Session,
    tracer: &Tracer,
    text: &str,
    which: usize,
) -> kleisli_core::KResult<Value> {
    if which == PREFIX_INDEX {
        tracer
            .span("kleisli.query_first_n", || {
                session.query_first_n(text, d::FIRST_N)
            })
            .map(Value::list)
    } else {
        let handle = tracer.span("kleisli.submit", || session.submit(text));
        handle.and_then(|h| tracer.span("kleisli.wait", || h.wait()))
    }
}

fn right(which: usize, got: &Value, want: &Value) -> bool {
    if which != PREFIX_INDEX {
        return got == want;
    }
    // A prefix: FIRST_N distinct rows of the full result.
    match (got.elements(), want.elements()) {
        (Some(rows), Some(all)) => {
            rows.len() == d::FIRST_N.min(all.len())
                && rows.iter().all(|r| all.contains(r))
                && rows.iter().enumerate().all(|(i, r)| !rows[..i].contains(r))
        }
        _ => false,
    }
}

/// (least, most) seen.
type MinMax = (u64, u64);

struct Shared<'a> {
    queries: &'a [(&'static str, String)],
    expected: &'a [Value],
    problems: Mutex<Vec<String>>,
    /// Requests to GDB and to GenBank per execution, by query.
    requests: Mutex<BTreeMap<usize, (MinMax, MinMax)>>,
}

pub fn run(args: &Args) -> Outcome {
    let queries = queries(&chromosome(args.seed));
    let mut setup = Setup::new(|| build(args.seed, &queries));
    let env = setup.start();

    // References: the same data behind instant sources, unoptimized.
    let checked_at = Instant::now();
    let reference_fed = federation(args.seed, LatencyModel::instant);
    let reference = session(&reference_fed, OptConfig::none());
    let expected: Vec<Value> = queries
        .iter()
        .map(|(_, text)| reference.query(text).expect("reference evaluates"))
        .collect();
    let shared = Shared {
        queries: &queries,
        expected: &expected,
        problems: Mutex::new(Vec::new()),
        requests: Mutex::new(BTreeMap::new()),
    };
    let mut alone = Vec::new();
    for (which, (name, text)) in queries.iter().enumerate() {
        let s = &env.sessions[0];
        let (g0, b0) = requests(s);
        let got = if which == PREFIX_INDEX {
            s.query_first_n(text, d::FIRST_N).map(Value::list)
        } else {
            s.query(text)
        };
        let (g1, b1) = requests(s);
        alone.push(format!("{name}: GDB {}, GenBank {}", g1 - g0, b1 - b0));
        match got {
            Ok(v)
                if right(which, &v, &expected[which])
                    && (which == PREFIX_INDEX || v.to_string() == expected[which].to_string()) => {}
            _ => lock(&shared.problems)
                .push(format!("{name} differs from the unoptimized reference")),
        }
    }
    let mut out = Outcome {
        limit_ms: d::LIMIT_MS,
        notes: vec![format!(
            "reference results computed in {:.2} s",
            checked_at.elapsed().as_secs_f64()
        )],
        ..Outcome::default()
    };

    out.phase = phase(args, &env, &shared, &Tracer::new(false));
    if args.trace {
        let tracer = Tracer::new(true);
        let snap = |e: &Env| -> (MetricsSnapshot, MetricsSnapshot, u64, u64, u64) {
            let s = &e.sessions[0];
            let plans = e.sessions.iter().map(|s| s.plan_cache_stats());
            let (hits, misses) = plans.fold((0, 0), |(h, m), p| (h + p.hits, m + p.misses));
            let sleep =
                e.fed.gdb.latency().virtual_elapsed() + e.fed.genbank.latency().virtual_elapsed();
            (
                s.driver_metrics("GDB").expect("GDB registered"),
                s.driver_metrics("GenBank").expect("GenBank registered"),
                hits,
                misses,
                sleep.as_nanos() as u64,
            )
        };
        let (g0, b0, h0, m0, sleep0) = snap(&env);
        let traced = phase(args, &env, &shared, &tracer);
        let (g1, b1, h1, m1, sleep1) = snap(&env);
        let spans = tracer.take();
        let n = traced.ops.len();
        let l = &mut out.layers;
        driver_layers(l, "GDB", &g0, &g1, n);
        driver_layers(l, "GenBank", &b0, &b1, n);
        l.insert(
            "core.driver_sleep_ms_per_query".into(),
            ratio((sleep1 - sleep0) as f64 / 1e6, n as f64),
        );
        eval_layers(l, &spans);
        let (hits, misses) = ((h1 - h0) as f64, (m1 - m0) as f64);
        l.insert(
            "kleisli.plan_cache_hit_ratio".into(),
            ratio(hits, hits + misses),
        );
        let threads = env.sessions[0].executor().threads_spawned();
        finish_traced(&mut out, threads, &traced, spans);
    }
    setup.finish(&mut out);
    // Two sessions share the drivers, so the traffic seen while one query
    // runs depends on what the other session does at the same time (and
    // on coalescing): report its spread instead of requiring it to repeat.
    out.notes.push(format!(
        "requests per query, one session alone: {}",
        alone.join("; ")
    ));
    for (which, ((gmin, gmax), (bmin, bmax))) in lock(&shared.requests).iter() {
        out.notes.push(format!(
            "{:<10} requests during one run, both sessions: GDB {gmin}..{gmax}, GenBank {bmin}..{bmax}",
            queries[*which].0
        ));
    }
    out.problems.append(&mut lock(&shared.problems));
    out
}

fn requests(s: &Session) -> (u64, u64) {
    (
        s.driver_metrics("GDB").expect("GDB registered").requests,
        s.driver_metrics("GenBank")
            .expect("GenBank registered")
            .requests,
    )
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("a session thread panicked while holding the lock")
}

fn phase(args: &Args, env: &Env, shared: &Shared, tracer: &Tracer) -> Phase {
    let cpu0 = crate::stats::cpu_seconds();
    let start = Instant::now();
    let calib = &Calibration::new(start);
    let deadline = start + args.phase();
    let per_session: Vec<(Vec<Op>, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = env
            .sessions
            .iter()
            .enumerate()
            .map(|(k, session)| {
                scope.spawn(move || {
                    let mut ops = Vec::new();
                    let mut rows_out = 0;
                    let mut step = k * 3;
                    let mut last_calib = None;
                    while Instant::now() < deadline {
                        let which = if step % HEAVY_EVERY == HEAVY_EVERY - 1 {
                            HEAVY_INDEX
                        } else {
                            CYCLE[step % CYCLE.len()]
                        };
                        step += 1;
                        let (gdb0, gb0) = requests(session);
                        calib.tick(&mut last_calib);
                        let cpu_s = crate::stats::cpu_seconds() - cpu0 - calib.cpu_s();
                        let t = Instant::now();
                        let (_, result) = tracer.op("bench.op", || {
                            run_query(session, tracer, &shared.queries[which].1, which)
                        });
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        let (gdb1, gb1) = requests(session);
                        let (gdb, gb) = (gdb1 - gdb0, gb1 - gb0);
                        let ok = match &result {
                            Ok(v) => {
                                rows_out += v.len().unwrap_or(1);
                                right(which, v, &shared.expected[which])
                            }
                            Err(_) => false,
                        };
                        if !ok {
                            lock(&shared.problems).push(format!(
                                "{}: {}",
                                shared.queries[which].0,
                                result
                                    .err()
                                    .map_or("wrong answer".into(), |e| e.to_string())
                            ));
                        }
                        let mut req = lock(&shared.requests);
                        let e = req.entry(which).or_insert(((gdb, gdb), (gb, gb)));
                        e.0 = (e.0 .0.min(gdb), e.0 .1.max(gdb));
                        e.1 = (e.1 .0.min(gb), e.1 .1.max(gb));
                        drop(req);
                        ops.push(Op {
                            at_s: t.duration_since(start).as_secs_f64(),
                            class: if which == PREFIX_INDEX {
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
                    (ops, rows_out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect()
    });
    let rows_out = per_session.iter().map(|(_, r)| r).sum();
    Phase {
        ops: per_session.into_iter().flat_map(|(ops, _)| ops).collect(),
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: crate::stats::cpu_seconds() - cpu0 - calib.cpu_s(),
        rows_out,
        calib: calib.samples(),
    }
}
