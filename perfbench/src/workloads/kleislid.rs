//! `kleislid_mix`: an in-process kleislid under an open-loop load at a
//! fixed offered rate. Two threads share one connection: one sends each
//! request when it is due, whether or not earlier replies have arrived
//! (requests are pipelined; a call-and-response client would turn the
//! connection into a closed loop), the other reads the replies. Latency
//! is timed from the due time, so a stall also charges the requests
//! queued behind it. The mix:
//!
//! * hot reads — a fixed set of texts whose results, tiny to tens of KB,
//!   fit the result-cache budget and are served from the shared caches;
//! * cold reads — fresh literals, so each one is compiled and evaluated;
//! * refreshes — `MemorySource::replace_table` on the `Lab` source, then
//!   a wire FLUSH of it, so the next hot reads of `Lab` go cold.
//!
//! Every reply is checked after the run against the in-process value of
//! the same text on the same table generation; a read issued after a
//! refresh completed that returns pre-refresh rows is a failure.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bio_data::{GdbConfig, GenBankConfig, MemorySource};
use kleisli::Session;
use kleisli_core::{
    read_exchange, write_exchange, Driver, DriverRef, Executor, LatencyModel, Value,
};
use kleisli_server::proto::{decode_response, encode_request, read_frame, write_frame};
use kleisli_server::{serve_ephemeral, Registrar, Request, Response, ServerConfig, ServerHandle};

use crate::calib::Calibration;
use crate::common::{
    finish_traced, mean_span_us, wait_until, Args, Class, Op, Outcome, Phase, Setup,
};
use crate::design::kleislid as d;
use crate::rng::Rng;
use crate::stats::{digest, mean, ratio};
use crate::trace::Tracer;

const ORGANISMS: [&str; 5] = ["human", "mouse", "rat", "yeast", "fly"];

/// Hot texts; the first four read the refreshed `Lab` source.
const HOT: [&str; 8] = [
    r#"count(Lab([table = "samples"]))"#,
    r#"sum({s.score | \s <- Lab([table = "samples"]), s.organism = "mouse"})"#,
    r#"{[i = s.id, g = s.gene, n = s.gen] | \s <- Lab([table = "samples"]), s.score < 100}"#,
    r#"{s | \s <- Lab([table = "samples"]), s.organism = "human"}"#,
    r#"count(Ref([table = "genes"]))"#,
    r#"{[g = x.gene, c = x.chrom] | \x <- Ref([table = "genes"]), x.chrom = "7"}"#,
    r#"{x | \x <- Ref([table = "genes"]), x.len > 800}"#,
    r#"max({x.len | \x <- Ref([table = "genes"])})"#,
];
const LAB_HOT: usize = 4;
/// How often each hot text is drawn. The two results of tens of KB take
/// most hot reads, so the median falls inside their latencies (where the
/// exchange format's cost shows) rather than on the boundary between
/// tiny and large replies.
const HOT_WEIGHTS: [u64; 8] = [1, 1, 1, 8, 1, 1, 8, 1];

/// The `samples` table of `Lab` at refresh generation `generation`: its
/// size and contents differ from one generation to the next, and each
/// row carries the generation, so a stale answer shows.
fn lab_table(seed: u64, generation: u64) -> Value {
    let mut rng = Rng::derive(seed, 1000 + generation);
    let rows = d::LAB_ROWS + (generation % 50) as usize;
    Value::set(
        (0..rows as i64)
            .map(|i| {
                Value::record_from(vec![
                    ("id", Value::Int(i)),
                    ("gene", Value::str(format!("G{}", rng.below(500)))),
                    ("organism", Value::str(ORGANISMS[rng.below(5) as usize])),
                    ("score", Value::Int(rng.below(1000) as i64)),
                    ("gen", Value::Int(generation as i64)),
                ])
            })
            .collect(),
    )
}

fn ref_table(seed: u64) -> Value {
    let mut rng = Rng::derive(seed, 999);
    Value::set(
        (0..d::REF_ROWS)
            .map(|g| {
                Value::record_from(vec![
                    ("gene", Value::str(format!("G{g}"))),
                    ("chrom", Value::str(format!("{}", 1 + rng.below(22)))),
                    ("len", Value::Int(100 + rng.below(900) as i64)),
                ])
            })
            .collect(),
    )
}

/// A fresh text for the `k`-th cold read: a literal never used before,
/// so each one is compiled and evaluated — against the remote GDB source,
/// as a mediator's cold reads are.
fn cold_text(k: u64) -> String {
    format!(
        r#"{{[s = l.locus_symbol, i = l.locus_id] | \l <- GDB-Tab("locus"), l.locus_id = {}, l.locus_id < {}}}"#,
        k % d::GDB_LOCI as u64 + 1,
        1_000_000 + k
    )
}

/// The GDB source the cold reads query, with the given latency.
fn gdb(seed: u64, latency: LatencyModel) -> DriverRef {
    let fed = kleisli::bio_federation(
        &GdbConfig {
            loci: d::GDB_LOCI,
            seed,
            ..Default::default()
        },
        &GenBankConfig {
            extra_entries: 0,
            links_per_entry: 0,
            seq_len: 10,
            seed,
        },
        latency,
        LatencyModel::instant(),
    )
    .expect("GDB generates");
    fed.gdb
}

/// The sources that do not change during a run.
struct Fixed {
    reference: Arc<MemorySource>,
    remote_gdb: DriverRef,
}

fn registrar(lab: &Arc<MemorySource>, fixed: &Fixed) -> Arc<Registrar> {
    let (lab, reference, gdb) = (
        lab.clone(),
        fixed.reference.clone(),
        fixed.remote_gdb.clone(),
    );
    Arc::new(move |s: &mut Session| {
        s.register_driver(lab.clone());
        s.register_driver(reference.clone());
        s.register_driver(gdb.clone());
    })
}

struct Env {
    // The connection before the server: it closes before the server drains.
    send: Mutex<TcpStream>,
    recv: Mutex<TcpStream>,
    server: ServerHandle,
    lab: Arc<MemorySource>,
}

fn build(seed: u64, fixed: &Fixed) -> Env {
    let lab = Arc::new(MemorySource::new("Lab").with_table("samples", lab_table(seed, 0)));
    let config = ServerConfig {
        result_cache_budget: d::RESULT_CACHE_BUDGET,
        writer_queue_frames: d::WRITER_QUEUE_FRAMES,
        queue_depth_per_connection: d::QUEUE_DEPTH,
        ..ServerConfig::default()
    };
    let server = serve_ephemeral(config, registrar(&lab, fixed)).expect("kleislid starts");
    let stream = TcpStream::connect(server.addr()).expect("client connects");
    stream.set_nodelay(true).expect("TCP_NODELAY");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut recv = stream.try_clone().expect("socket clones");
    let mut send = stream;
    for (i, text) in HOT.iter().enumerate() {
        let id = i as u64 + 1;
        let frame = encode_request(&Request::Query {
            id,
            src: text.to_string(),
        });
        write_frame(&mut send, &frame).expect("warm-up request sends");
        match next_response(&mut recv) {
            Ok(Response::Result { .. }) => {}
            other => panic!("hot text failed during warm-up: {other:?}"),
        }
    }
    Env {
        send: Mutex::new(send),
        recv: Mutex::new(recv),
        server,
        lab,
    }
}

fn next_response(recv: &mut TcpStream) -> std::io::Result<Response> {
    match read_frame(recv)? {
        Some(payload) => decode_response(&payload),
        None => Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        )),
    }
}

#[derive(Clone, Copy)]
enum Kind {
    Hot(usize),
    Cold(u64),
    Refresh,
}

/// The seeded operation schedule.
fn schedule(seed: u64, len: usize) -> Vec<Kind> {
    let mut rng = Rng::derive(seed, 20);
    (0..len)
        .map(|i| {
            let r = rng.below(100);
            if r < d::REFRESH_PCT {
                Kind::Refresh
            } else if r < d::REFRESH_PCT + d::COLD_PCT {
                Kind::Cold(i as u64)
            } else {
                let total: u64 = HOT_WEIGHTS.iter().sum();
                let mut pick = rng.below(total);
                let h = HOT_WEIGHTS
                    .iter()
                    .position(|&w| {
                        let hit = pick < w;
                        pick = pick.saturating_sub(w);
                        hit
                    })
                    .expect("the pick is below the total weight");
                Kind::Hot(h)
            }
        })
        .collect()
}

/// One read's reply, kept for the check after the run.
struct Reply {
    text: Arc<str>,
    /// Refresh generations completed before the read was sent, and
    /// started before its reply arrived: the answer must match one of
    /// them.
    generations: (u64, u64),
    digest: u64,
}

/// A request sent and not yet answered.
struct Pending {
    due: Instant,
    sent: Instant,
    class: Class,
    entry: usize,
    text: Arc<str>,
    reads_lab: bool,
    /// For a read: generations completed at send. For a refresh: the
    /// generation it installs.
    generation: u64,
    op: u64,
    /// Process CPU time since the phase began, at send.
    cpu_s: f64,
}

#[derive(Default)]
struct Log {
    ops: Vec<Op>,
    calib: Vec<(f64, f64)>,
    replies: Vec<Reply>,
    lag_ms: Vec<f64>,
    busy: usize,
    errors: Vec<String>,
    /// Traced phase: per hot read, the round trip and the latency from
    /// due time, in µs.
    hot_round_trip_us: Vec<f64>,
    hot_due_us: Vec<f64>,
    token_bytes: Vec<f64>,
    rows_out: usize,
}

struct Generations {
    started: AtomicU64,
    done: AtomicU64,
}

pub fn run(args: &Args) -> Outcome {
    let fixed = Fixed {
        reference: Arc::new(MemorySource::new("Ref").with_table("genes", ref_table(args.seed))),
        remote_gdb: gdb(
            args.seed,
            LatencyModel::real(d::COLD_SOURCE_LATENCY, Duration::ZERO),
        ),
    };
    let mut setup = Setup::new(|| build(args.seed, &fixed));
    let env = setup.start();
    let generations = Generations {
        started: AtomicU64::new(0),
        done: AtomicU64::new(0),
    };
    let ops = (d::RATE_QPS * args.seconds as f64) as usize + 1;
    let schedule = schedule(args.seed, ops);
    let mut cursor = 0usize;
    let mut next_id = HOT.len() as u64 + 1;
    let mut out = Outcome {
        limit_ms: d::LIMIT_MS,
        ..Outcome::default()
    };
    let gen = Generator {
        args,
        env: &env,
        schedule: &schedule,
        generations: &generations,
    };
    let (mut log, wall_s, cpu_s) = gen.phase(&mut cursor, &mut next_id, &Tracer::new(false));
    out.phase = Phase {
        ops: std::mem::take(&mut log.ops),
        wall_s,
        cpu_s,
        rows_out: log.rows_out,
        calib: std::mem::take(&mut log.calib),
    };
    out.notes.push(format!(
        "offered {} ops/s on one pipelined connection; generator lag mean {:.4} ms; {} busy refusals",
        d::RATE_QPS,
        mean(&log.lag_ms),
        log.busy
    ));
    let mut logs = vec![log];

    if args.trace {
        let tracer = Tracer::new(true);
        let stats0 = env.server.stats_json();
        let rc0 = env.server.result_cache().stats();
        let pc0 = env.server.plan_cache().stats();
        let lab0 = env.lab.metrics();
        let (mut log, wall_s, cpu_s) = gen.phase(&mut cursor, &mut next_id, &tracer);
        let stats1 = env.server.stats_json();
        let rc1 = env.server.result_cache().stats();
        let pc1 = env.server.plan_cache().stats();
        let lab1 = env.lab.metrics();
        let spans = tracer.take();
        let traced = Phase {
            ops: std::mem::take(&mut log.ops),
            wall_s,
            cpu_s,
            rows_out: log.rows_out,
            calib: std::mem::take(&mut log.calib),
        };
        let n = traced.ops.len();
        let l = &mut out.layers;
        l.insert("server.round_trip_us".into(), mean(&log.hot_round_trip_us));
        l.insert(
            "server.hot_round_trip_share".into(),
            ratio(
                log.hot_round_trip_us.iter().sum(),
                log.hot_due_us.iter().sum(),
            ),
        );
        l.insert(
            "token.encode_us".into(),
            mean_span_us(&spans, "token.encode"),
        );
        l.insert(
            "token.decode_us".into(),
            mean_span_us(&spans, "token.decode"),
        );
        l.insert("token.result_bytes".into(), mean(&log.token_bytes));
        l.insert(
            "server.flush_us".into(),
            mean_span_us(&spans, "server.flush"),
        );
        l.insert("server.generator_lag_ms".into(), mean(&log.lag_ms));
        let count = |json: &str, key: &str| stat(json, "queries", key) as f64;
        let cached = count(&stats1, "served_cached") - count(&stats0, "served_cached");
        let fresh = count(&stats1, "served_fresh") - count(&stats0, "served_fresh");
        l.insert(
            "server.served_cached_ratio".into(),
            ratio(cached, cached + fresh),
        );
        l.insert(
            "server.rejected".into(),
            count(&stats1, "rejected") - count(&stats0, "rejected"),
        );
        let (rh, rm) = (
            (rc1.hits - rc0.hits) as f64,
            (rc1.misses - rc0.misses) as f64,
        );
        l.insert("exec.result_cache_hit_ratio".into(), ratio(rh, rh + rm));
        l.insert(
            "exec.result_cache_evictions".into(),
            (rc1.evictions - rc0.evictions) as f64,
        );
        l.insert("exec.result_cache_peak_bytes".into(), rc1.peak_bytes as f64);
        let (ph, pm) = (
            (pc1.hits - pc0.hits) as f64,
            (pc1.misses - pc0.misses) as f64,
        );
        l.insert("kleisli.plan_cache_hit_ratio".into(), ratio(ph, ph + pm));
        l.insert(
            "kleisli.plan_cache_evictions".into(),
            (pc1.evictions - pc0.evictions) as f64,
        );
        l.insert(
            "core.Lab.rows_shipped_per_query".into(),
            ratio((lab1.rows_shipped - lab0.rows_shipped) as f64, n as f64),
        );
        finish_traced(
            &mut out,
            Executor::shared().threads_spawned(),
            &traced,
            spans,
        );
        logs.push(log);
    }

    setup.finish(&mut out);
    // Check every reply against the in-process value of its text on the
    // table generation(s) it may have seen.
    let checked_at = Instant::now();
    let wrong = check(args.seed, &fixed.reference, &logs);
    out.notes.push(format!(
        "{} replies checked against in-process values in {:.2} s; {} refreshes",
        logs.iter().map(|l| l.replies.len()).sum::<usize>(),
        checked_at.elapsed().as_secs_f64(),
        generations.done.load(Ordering::SeqCst)
    ));
    for l in &logs {
        out.problems.extend(l.errors.iter().cloned());
    }
    if wrong > 0 {
        out.problems
            .push(format!("{wrong} replies differ from the in-process value"));
    }
    out.wrong_after = wrong;
    out
}

/// Read `"key":<n>` inside the `"section":{...}` object of a stats JSON.
fn stat(json: &str, section: &str, key: &str) -> u64 {
    json.split_once(&format!("\"{section}\":{{"))
        .and_then(|(_, rest)| rest.split_once(&format!("\"{key}\":")))
        .and_then(|(_, rest)| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

struct Generator<'a> {
    args: &'a Args,
    env: &'a Env,
    schedule: &'a [Kind],
    generations: &'a Generations,
}

impl Generator<'_> {
    /// One measured phase: the sender issues the schedule from `cursor`
    /// at the offered rate for the phase's length while this thread
    /// reads the replies. Returns the log, the phase's wall time (first
    /// due time to last reply) and the process CPU time it used.
    fn phase(&self, cursor: &mut usize, next_id: &mut u64, tracer: &Tracer) -> (Log, f64, f64) {
        let cpu0 = crate::stats::cpu_seconds();
        let interval = Duration::from_secs_f64(1.0 / d::RATE_QPS);
        let count = ((self.args.phase().as_secs_f64() * d::RATE_QPS) as usize)
            .min(self.schedule.len() - *cursor);
        let kinds = &self.schedule[*cursor..*cursor + count];
        *cursor += count;
        let first_id = *next_id;
        *next_id += count as u64;
        let pending: Mutex<HashMap<u64, Pending>> = Mutex::new(HashMap::new());
        let start = Instant::now() + Duration::from_millis(5);
        let calib = Calibration::new(start);
        let mut log = Log::default();
        let lag = std::thread::scope(|scope| {
            let sender = scope.spawn(|| {
                let mut lag = Vec::with_capacity(count);
                let mut send = self.env.send.lock().expect("sender lock");
                let mut next_table = None;
                let mut last_calib = None;
                for (i, kind) in kinds.iter().enumerate() {
                    let due = start + interval * i as u32;
                    wait_until(due);
                    lag.push(due.elapsed().as_secs_f64() * 1e3);
                    let id = first_id + i as u64;
                    let op = tracer.new_op();
                    let (request, mut p) = self.request(*kind, id, due, op, &mut next_table);
                    p.cpu_s = crate::stats::cpu_seconds() - cpu0 - calib.cpu_s();
                    lock(&pending).insert(id, p);
                    if let Err(e) = write_frame(&mut *send, &encode_request(&request)) {
                        lock(&pending).remove(&id);
                        return (lag, Some(format!("send failed: {e}")));
                    }
                    if matches!(kind, Kind::Refresh) {
                        // Build the next generation's table while idle,
                        // so building it is not charged to a refresh.
                        let g = self.generations.started.load(Ordering::SeqCst) + 1;
                        next_table = Some(lab_table(self.args.seed, g));
                    }
                    calib.tick(&mut last_calib);
                }
                (lag, None)
            });
            let mut recv = self.env.recv.lock().expect("receiver lock");
            for _ in 0..count {
                match next_response(&mut recv) {
                    Ok(response) => self.answered(response, &pending, tracer, start, &mut log),
                    Err(e) => {
                        log.errors.push(format!("receive failed: {e}"));
                        break;
                    }
                }
            }
            let (lag, failed) = sender.join().expect("sender thread panicked");
            log.errors.extend(failed);
            lag
        });
        for p in lock(&pending).drain().map(|(_, p)| p) {
            log.errors.push(format!("no reply for: {}", p.text));
            let ms = p.due.elapsed().as_secs_f64() * 1e3;
            let at_s = p.due.duration_since(start).as_secs_f64();
            log.ops.push(Op {
                at_s,
                class: p.class,
                kind: p.entry,
                ms,
                ok: false,
                cpu_s: p.cpu_s,
            });
        }
        log.lag_ms = lag;
        log.calib = calib.samples();
        let wall = start.elapsed().as_secs_f64();
        (
            log,
            wall,
            crate::stats::cpu_seconds() - cpu0 - calib.cpu_s(),
        )
    }

    /// The request for one scheduled operation. A refresh replaces the
    /// `Lab` table here, just before its FLUSH is sent.
    fn request(
        &self,
        kind: Kind,
        id: u64,
        due: Instant,
        op: u64,
        next_table: &mut Option<Value>,
    ) -> (Request, Pending) {
        let g = self.generations;
        let pending = |class, entry, text: Arc<str>, reads_lab, generation| Pending {
            due,
            sent: Instant::now(),
            class,
            entry,
            text,
            reads_lab,
            generation,
            op,
            cpu_s: 0.0,
        };
        match kind {
            Kind::Refresh => {
                let generation = g.started.load(Ordering::SeqCst) + 1;
                let table = next_table
                    .take()
                    .unwrap_or_else(|| lab_table(self.args.seed, generation));
                g.started.store(generation, Ordering::SeqCst);
                self.env.lab.replace_table("samples", table);
                let p = pending(
                    Class::Refresh,
                    HOT.len() + 1,
                    Arc::from("FLUSH Lab"),
                    true,
                    generation,
                );
                (
                    Request::Flush {
                        id,
                        source: "Lab".into(),
                    },
                    p,
                )
            }
            Kind::Hot(h) => {
                let p = pending(
                    Class::HotRead,
                    h,
                    Arc::from(HOT[h]),
                    h < LAB_HOT,
                    g.done.load(Ordering::SeqCst),
                );
                (
                    Request::Query {
                        id,
                        src: HOT[h].to_string(),
                    },
                    p,
                )
            }
            Kind::Cold(k) => {
                let text: Arc<str> = Arc::from(cold_text(k));
                let p = pending(Class::ColdRead, HOT.len(), text.clone(), false, 0);
                (
                    Request::Query {
                        id,
                        src: text.to_string(),
                    },
                    p,
                )
            }
        }
    }

    fn answered(
        &self,
        response: Response,
        pending: &Mutex<HashMap<u64, Pending>>,
        tracer: &Tracer,
        start: Instant,
        log: &mut Log,
    ) {
        let now = Instant::now();
        let id = match &response {
            Response::Result { id, .. }
            | Response::Error { id, .. }
            | Response::Stats { id, .. }
            | Response::Flushed { id, .. } => *id,
        };
        let Some(p) = lock(pending).remove(&id) else {
            log.errors.push(format!("reply to unknown request {id}"));
            return;
        };
        let ms = now.duration_since(p.due).as_secs_f64() * 1e3;
        let root = tracer.interval("bench.op", 0, p.op, p.due, now);
        let call = if p.class == Class::Refresh {
            "server.flush"
        } else {
            "server.query"
        };
        tracer.interval(call, root, p.op, p.sent, now);
        let ok = match response {
            Response::Flushed { .. } => {
                self.generations
                    .done
                    .fetch_max(p.generation, Ordering::SeqCst);
                true
            }
            Response::Result { value, .. } => {
                let hi = self.generations.started.load(Ordering::SeqCst);
                if tracer.on() && p.class == Class::HotRead {
                    log.hot_round_trip_us
                        .push(now.duration_since(p.sent).as_secs_f64() * 1e6);
                    log.hot_due_us.push(ms * 1e3);
                    let bytes = tracer.detached("split.token", p.op, || {
                        let text = tracer.span("token.encode", || write_exchange(&value));
                        let back = tracer.span("token.decode", || read_exchange(&text));
                        std::hint::black_box(back).map(|_| text.len()).unwrap_or(0)
                    });
                    log.token_bytes.push(bytes as f64);
                }
                log.rows_out += value.len().unwrap_or(1);
                log.replies.push(Reply {
                    text: p.text,
                    generations: if p.reads_lab {
                        (p.generation, hi)
                    } else {
                        (0, 0)
                    },
                    digest: digest(&value),
                });
                true
            }
            Response::Error { message, .. } if message.starts_with("busy:") => {
                log.busy += 1;
                false
            }
            other => {
                log.errors.push(format!("{}: {other:?}", p.text));
                false
            }
        };
        let at_s = p.due.duration_since(start).as_secs_f64();
        log.ops.push(Op {
            at_s,
            class: p.class,
            kind: p.entry,
            ms,
            ok,
            cpu_s: p.cpu_s,
        });
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("a generator thread panicked while holding the lock")
}

/// Compare every reply with the in-process value of its text, on each
/// table generation it may have seen. Returns the number that match none.
fn check(seed: u64, reference: &Arc<MemorySource>, logs: &[Log]) -> usize {
    // The same GDB data without latency.
    let gdb = gdb(seed, LatencyModel::instant());
    // Which (generation, text) pairs are needed, grouped by generation so
    // one in-process session per generation answers them all.
    let mut need: BTreeMap<u64, BTreeSet<Arc<str>>> = BTreeMap::new();
    for r in logs.iter().flat_map(|l| l.replies.iter()) {
        for g in r.generations.0..=r.generations.1 {
            need.entry(g).or_default().insert(r.text.clone());
        }
    }
    let mut want: HashMap<(u64, Arc<str>), u64> = HashMap::new();
    for (g, texts) in need {
        let lab = Arc::new(MemorySource::new("Lab").with_table("samples", lab_table(seed, g)));
        let mut s = Session::new();
        s.register_driver(lab);
        s.register_driver(reference.clone());
        s.register_driver(gdb.clone());
        for text in texts {
            let d = s.query(&text).map(|v| digest(&v)).unwrap_or(0);
            want.insert((g, text), d);
        }
    }
    logs.iter()
        .flat_map(|l| l.replies.iter())
        .filter(|r| {
            !(r.generations.0..=r.generations.1)
                .any(|g| want.get(&(g, r.text.clone())) == Some(&r.digest))
        })
        .count()
}
