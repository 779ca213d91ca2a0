//! `adhoc_compile`: one client, one in-process Session, a closed loop of
//! ad hoc CPL texts over the GDB and GenBank sims at instant latency.
//! A hot set of texts repeats and hits the plan cache; a tail of fresh
//! texts never repeats, so every one of them compiles and the tail
//! overflows the 64-entry cache. Results are small, so compilation does
//! most of the work.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

use bio_data::{GdbConfig, GenBankConfig};
use kleisli::{bio_federation, BioFederation, Session};
use kleisli_core::{DriverRef, LatencyModel, MetricsSnapshot, Value};
use kleisli_opt::OptConfig;

use crate::calib::Calibration;
use crate::common::{
    driver_layers, finish_traced, stage_layers, Args, Class, Op, Outcome, Phase, Setup, StageSplit,
};
use crate::design::adhoc as d;
use crate::rng::Rng;
use crate::stats::ratio;
use crate::trace::Tracer;

const CHROMOSOMES: [&str; 24] = [
    "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15", "16", "17",
    "18", "19", "20", "21", "22", "X", "Y",
];
/// Templates drawn uniformly for the hot set and the tail. Two more only
/// build other texts: the DOE query (`DOE`), and a report (`REPORT`)
/// that joins the tail, one text in `REPORT_EVERY`.
const TEMPLATES: u64 = 5;
const DOE: u64 = TEMPLATES;
const REPORT: u64 = TEMPLATES + 1;

/// Query text `kind` with the seeded literal `lit` and a literal `uniq`
/// that makes the text distinct without changing its answer.
fn template(kind: u64, lit: u64, uniq: u64, accessions: &[String]) -> String {
    let chrom = CHROMOSOMES[(lit % 24) as usize];
    match kind {
        // Loci22-shaped: three-table join, pushed down as one SQL query.
        0 => format!(
            r#"{{[locus_symbol = x, genbank_ref = y] |
    [locus_symbol = \x, locus_id = \a, ...] <- GDB-Tab("locus"),
    [genbank_ref = \y, object_id = a, object_class_key = 1, ...] <- GDB-Tab("object_genbank_eref"),
    [loc_cyto_chrom_num = "{chrom}", locus_cyto_location_id = a, ...] <- GDB-Tab("locus_cyto_location"),
    a < {uniq}}}"#
        ),
        // Two-table join with a bound band, pushed down.
        1 => format!(
            r#"{{[sym = x, band = b] |
    [locus_symbol = \x, locus_id = \a, ...] <- GDB-Tab("locus"),
    [loc_cyto_chrom_num = "{chrom}", locus_cyto_location_id = a, loc_cyto_band = \b, ...] <- GDB-Tab("locus_cyto_location"),
    a < {uniq}}}"#
        ),
        // Nested comprehensions with aggregates over small constants.
        2 => {
            let (p, q, r) = (lit % 5 + 1, lit % 7 + 2, lit % 3 + 4);
            format!(
                r#"{{[k = x, total = sum({{y * 3 | \y <- {{1, 2, 3, 4, 5, 6}}, y mod 4 = x mod 4}}),
    evens = {{[v = y, w = y + x] | \y <- {{1, 2, 3, 4}}, y mod 2 = 0, y < {uniq}}},
    odd = {{[v = y, w = y * x] | \y <- {{1, 3, 5}}, y > x}},
    big = count({{z | \z <- {{2, 4, 6}}, z > x}})] | \x <- {{{p}, {q}, {r}}}}}"#
            )
        }
        // Record patterns over a constant relation.
        3 => {
            let year = 1985 + lit % 10;
            format!(
                r#"{{[t = p.title, y = p.year] |
    [title = \t, year = \y, ...] <- {{[title = "a", year = {year}], [title = "b", year = {y2}], [title = "c", year = 1989]}},
    \p <- {{[title = t, year = y + 1]}}, y > 1986, y < {uniq}}}"#,
                y2 = year + 2
            )
        }
        // GenBank: path extraction on an accession, then each uid's links.
        4 => {
            let acc = &accessions[(lit as usize) % accessions.len()];
            format!(
                r#"{{[u = i, n = count(GenBank([db = "na", link = i]))] |
    \i <- flatten(GenBank([db = "na", select = "accession {acc}", path = "Seq-entry.seq.id..giim"])),
    i < {uniq}}}"#
            )
        }
        // A report: one record holding four of the queries above.
        REPORT => format!(
            "[loci = {}, bands = {}, stats = {}, doe = {}]",
            template(0, lit, uniq, accessions),
            template(1, lit + 1, uniq, accessions),
            template(2, lit, uniq, accessions),
            template(DOE, lit + 2, uniq, accessions)
        ),
        // The DOE query with its views written in place.
        _ => format!(
            r#"{{[locus = locus, homologs =
        {{l | \l <- GenBank([db = "na", link = uid]), not (l.organism = "Homo sapiens")}}] |
    \locus <- {{[locus_symbol = x, genbank_ref = y] |
        [locus_symbol = \x, locus_id = \a, ...] <- GDB-Tab("locus"),
        [genbank_ref = \y, object_id = a, object_class_key = 1, ...] <- GDB-Tab("object_genbank_eref"),
        [loc_cyto_chrom_num = "{chrom}", locus_cyto_location_id = a, ...] <- GDB-Tab("locus_cyto_location"),
        a < {uniq}}},
    \uid <- flatten(GenBank([db = "na", select = "accession " ^ locus.genbank_ref,
                             path = "Seq-entry.seq.id..giim"]))}}"#
        ),
    }
}

struct Env {
    fed: BioFederation,
    session: Session,
}

fn federation(seed: u64) -> BioFederation {
    bio_federation(
        &GdbConfig {
            loci: d::LOCI,
            seed,
            ..Default::default()
        },
        &GenBankConfig {
            extra_entries: d::GENBANK_EXTRA,
            links_per_entry: 3,
            seq_len: 40,
            seed,
        },
        LatencyModel::instant(),
        LatencyModel::instant(),
    )
    .expect("federation generates")
}

fn build(seed: u64, hot: &[String]) -> Env {
    let fed = federation(seed);
    let mut session = Session::new();
    session.register_driver(fed.gdb.clone());
    session.register_driver(fed.genbank.clone());
    for text in hot {
        session
            .query(text)
            .expect("hot text evaluates during warm-up");
    }
    Env { fed, session }
}

fn reference(env: &Env) -> Session {
    let mut r = Session::new();
    r.register_driver(env.fed.gdb.clone());
    r.register_driver(env.fed.genbank.clone());
    r.set_opt_config(OptConfig::none());
    r
}

/// Driver traffic and result size of one execution: what must repeat
/// exactly every time the same text runs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Counts {
    gdb_requests: u64,
    genbank_requests: u64,
    batch_requests: u64,
    rows_out: usize,
}

fn snapshot(s: &Session) -> (MetricsSnapshot, MetricsSnapshot) {
    (
        s.driver_metrics("GDB").expect("GDB registered"),
        s.driver_metrics("GenBank").expect("GenBank registered"),
    )
}

struct Schedule {
    rng: Rng,
    accessions: Vec<String>,
    hot: Vec<String>,
    next_hot: usize,
    tail_issued: u64,
    step: usize,
}

impl Schedule {
    fn next(&mut self) -> (bool, u64, String) {
        let is_hot = d::CYCLE[self.step % d::CYCLE.len()];
        self.step += 1;
        if is_hot {
            let i = self.next_hot % self.hot.len();
            self.next_hot += 1;
            (true, i as u64 % TEMPLATES, self.hot[i].clone())
        } else {
            self.tail_issued += 1;
            let kind = if self.rng.below(d::REPORT_EVERY) == 0 {
                REPORT
            } else {
                self.rng.below(TEMPLATES)
            };
            let lit = self.rng.next_u64() % 1000;
            let text = template(kind, lit, 1_000_000 + self.tail_issued, &self.accessions);
            (false, kind, text)
        }
    }
}

struct Checks {
    expected: HashMap<String, Value>,
    counts: HashMap<String, Counts>,
    tail_kept: Vec<(String, Value)>,
    problems: Vec<String>,
}

pub fn run(args: &Args) -> Outcome {
    // The accessions are a function of the seed; read them off one
    // generated federation before the timed set-ups.
    let accessions: Vec<String> = federation(args.seed)
        .genbank_data
        .entries
        .iter()
        .map(|e| e.accession.clone())
        .collect();
    let mut rng = Rng::derive(args.seed, 1);
    let hot: Vec<String> = (0..d::HOT_TEXTS as u64)
        .map(|i| {
            template(
                i % TEMPLATES,
                rng.next_u64() % 1000,
                999_000 + i,
                &accessions,
            )
        })
        .collect();
    let mut setup = Setup::new(|| build(args.seed, &hot));
    let env = setup.start();

    // References for the hot texts, outside any timed region.
    let reference_session = reference(&env);
    let mut checks = Checks {
        expected: HashMap::new(),
        counts: HashMap::new(),
        tail_kept: Vec::new(),
        problems: Vec::new(),
    };
    for text in &hot {
        let got = env.session.query(text).expect("hot text evaluates");
        let want = reference_session.query(text).expect("reference evaluates");
        if got != want || got.to_string() != want.to_string() {
            checks.problems.push(format!(
                "hot text differs from the unoptimized reference: {text}"
            ));
        }
        checks.expected.insert(text.clone(), want);
    }

    let mut sched = Schedule {
        rng: Rng::derive(args.seed, 2),
        accessions,
        hot: hot.clone(),
        next_hot: 0,
        tail_issued: 0,
        step: 0,
    };
    let split_drivers: Vec<(DriverRef, &[&str])> = vec![
        (
            env.fed.gdb.clone(),
            &["locus", "object_genbank_eref", "locus_cyto_location"],
        ),
        (env.fed.genbank.clone(), &[]),
    ];
    let mut split = StageSplit::new(&split_drivers);

    let mut out = Outcome {
        limit_ms: d::LIMIT_MS,
        ..Outcome::default()
    };
    let untraced = Tracer::new(false);
    out.phase = phase(args, &env, &mut sched, &mut checks, &untraced, None).0;
    if args.trace {
        let tracer = Tracer::new(true);
        let plan0 = env.session.plan_cache_stats();
        let (g0, b0) = snapshot(&env.session);
        let (traced, misses, fired) = phase(
            args,
            &env,
            &mut sched,
            &mut checks,
            &tracer,
            Some(&mut split),
        );
        let plan1 = env.session.plan_cache_stats();
        let (g1, b1) = snapshot(&env.session);
        let spans = tracer.take();
        let l = &mut out.layers;
        let n = traced.ops.len();
        stage_layers(l, &spans, &fired);
        let submit_on_miss: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "kleisli.submit" && misses.contains(&s.op))
            .map(|s| s.dur_us())
            .collect();
        l.insert(
            "kleisli.compile_us".into(),
            crate::stats::mean(&submit_on_miss),
        );
        let mut hit_eval = BTreeMap::<u64, f64>::new();
        for s in spans.iter().filter(|s| !misses.contains(&s.op)) {
            if s.name == "kleisli.submit" || s.name == "kleisli.wait" {
                *hit_eval.entry(s.op).or_default() += s.dur_us();
            }
        }
        let hit_eval: Vec<f64> = hit_eval.into_values().collect();
        l.insert("kleisli.eval_wait_us".into(), crate::stats::mean(&hit_eval));
        let hits = (plan1.hits - plan0.hits) as f64;
        let miss = (plan1.misses - plan0.misses) as f64;
        l.insert(
            "kleisli.plan_cache_hit_ratio".into(),
            ratio(hits, hits + miss),
        );
        l.insert(
            "kleisli.plan_cache_evictions".into(),
            (plan1.evictions - plan0.evictions) as f64,
        );
        driver_layers(l, "GDB", &g0, &g1, n);
        driver_layers(l, "GenBank", &b0, &b1, n);
        let op_total: f64 = spans
            .iter()
            .filter(|s| s.name == "bench.op")
            .map(|s| s.dur_us())
            .sum();
        let wait_total: f64 = spans
            .iter()
            .filter(|s| s.name == "kleisli.wait")
            .map(|s| s.dur_us())
            .sum();
        l.insert(
            "kleisli.compile_share".into(),
            ratio(submit_on_miss.iter().sum(), op_total),
        );
        l.insert(
            "kleisli.eval_wait_share".into(),
            ratio(wait_total, op_total),
        );
        out.notes.push(format!(
            "traced: {} ops, {} compiles, plan cache {} hits / {} misses",
            n,
            misses.len(),
            hits,
            miss
        ));
        let threads = env.session.executor().threads_spawned();
        finish_traced(&mut out, threads, &traced, spans);
    }

    setup.finish(&mut out);
    // Tail sample, checked against the unoptimized reference.
    for (text, got) in &checks.tail_kept {
        match reference_session.query(text) {
            Ok(want) if want == *got && want.to_string() == got.to_string() => {}
            _ => {
                out.wrong_after += 1;
                checks.problems.push(format!(
                    "tail text differs from the unoptimized reference: {text}"
                ));
            }
        }
    }
    // Every tail text is distinct by construction (its `uniq` literal
    // counts up), so the texts issued are the hot set plus the tail.
    let distinct = d::HOT_TEXTS as u64 + sched.tail_issued;
    let stats = env.session.plan_cache_stats();
    if stats.misses != distinct {
        checks.problems.push(format!(
            "plan-cache misses {} != distinct texts issued {distinct}",
            stats.misses
        ));
    }
    out.notes.push(format!(
        "plan cache: {} misses = {distinct} distinct texts; {} evictions; {} tail texts checked",
        stats.misses,
        stats.evictions,
        checks.tail_kept.len()
    ));
    // Runs with the same seed must print the same digest.
    let counts: std::collections::BTreeMap<&String, &Counts> = checks.counts.iter().collect();
    out.notes.push(format!(
        "hot-text counts digest: {:016x}",
        crate::stats::digest(&counts)
    ));
    out.problems.append(&mut checks.problems);
    out
}

/// One measured phase. Returns the phase, the op ids that compiled, and
/// the rules fired by each compile split (traced phase only).
fn phase(
    args: &Args,
    env: &Env,
    sched: &mut Schedule,
    checks: &mut Checks,
    tracer: &Tracer,
    split: Option<&mut StageSplit>,
) -> (Phase, HashSet<u64>, Vec<usize>) {
    let mut ops = Vec::new();
    let mut misses = HashSet::new();
    let mut fired = Vec::new();
    let session = &env.session;
    let cpu0 = crate::stats::cpu_seconds();
    let start = Instant::now();
    let calib = Calibration::new(start);
    let mut last_calib = None;
    let deadline = start + args.phase() * d::TIME_CAP;
    let budget = ((d::OPS_PER_SECOND as f64 * args.phase().as_secs_f64()) as usize).max(1);
    let mut tail_seen = 0usize;
    let mut rows_out = 0;
    let mut to_split = Vec::new();
    while ops.len() < budget && Instant::now() < deadline {
        let (is_hot, kind, text) = sched.next();
        let misses0 = session.plan_cache_stats().misses;
        let (g0, b0) = snapshot(session);
        calib.tick(&mut last_calib);
        let cpu_s = crate::stats::cpu_seconds() - cpu0 - calib.cpu_s();
        let t = Instant::now();
        let (op, result) = tracer.op("bench.op", || {
            let handle = tracer.span("kleisli.submit", || session.submit(&text));
            handle.and_then(|h| tracer.span("kleisli.wait", || h.wait()))
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let (g1, b1) = snapshot(session);
        let compiled = session.plan_cache_stats().misses > misses0;
        let mut ok = result.is_ok();
        if let Err(e) = &result {
            checks.problems.push(format!("query failed: {e}: {text}"));
        }
        if let Ok(v) = &result {
            let counts = Counts {
                gdb_requests: g1.requests - g0.requests,
                genbank_requests: b1.requests - b0.requests,
                batch_requests: (g1.batch_requests - g0.batch_requests)
                    + (b1.batch_requests - b0.batch_requests),
                rows_out: v.len().unwrap_or(1),
            };
            rows_out += counts.rows_out;
            if is_hot {
                if checks.expected.get(&text) != Some(v) {
                    ok = false;
                    checks
                        .problems
                        .push(format!("wrong answer for hot text: {text}"));
                }
                let first = *checks.counts.entry(text.clone()).or_insert(counts);
                if first != counts {
                    checks.problems.push(format!(
                        "counts did not repeat for {text}: {first:?} then {counts:?}"
                    ));
                }
            } else {
                tail_seen += 1;
                if tail_seen.is_multiple_of(d::TAIL_CHECK_EVERY)
                    && checks.tail_kept.len() < d::TAIL_CHECK_MAX
                {
                    checks.tail_kept.push((text.clone(), v.clone()));
                }
            }
        }
        if compiled {
            misses.insert(op);
            if split.is_some() && misses.len() % d::SPLIT_EVERY == 0 {
                to_split.push((op, text));
            }
        }
        ops.push(Op {
            at_s: t.duration_since(start).as_secs_f64(),
            class: if is_hot {
                Class::HotRead
            } else {
                Class::ColdRead
            },
            kind: kind as usize + if is_hot { 0 } else { REPORT as usize + 1 },
            ms,
            ok,
            cpu_s,
        });
    }
    let phase = Phase {
        ops,
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: crate::stats::cpu_seconds() - cpu0 - calib.cpu_s(),
        rows_out,
        calib: calib.samples(),
    };
    // Split the compiles into stages after the phase, so the re-invoked
    // work does not disturb the operations' own timing.
    if let Some(split) = split {
        for (op, text) in &to_split {
            fired.push(split.run(tracer, *op, text));
        }
    }
    (phase, misses, fired)
}
