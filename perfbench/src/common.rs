//! What every workload shares: the run arguments, the outcome it
//! reports, set-up timing, driver counter deltas, and the compile-stage
//! split used by the traced run.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cpl::Definitions;
use kleisli_core::{DriverRef, MetricsSnapshot};
use kleisli_opt::{optimize_shared, OptConfig, StaticCatalog};
use nrc::{Expr, Interner, TypeEnv};

use crate::design::{SETUPS, SETUP_MIN_CPU_S};
use crate::stats::{quantile, ratio, sorted};
use crate::trace::{self_times_us, Span, Tracer};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    /// How long one measured phase lasts. A traced run measures an
    /// untraced and a traced phase, each half the run, so the tracing
    /// overhead comes from the same process and inputs.
    pub fn phase(&self) -> Duration {
        let total = Duration::from_secs(self.seconds.max(1));
        if self.trace {
            total / 2
        } else {
            total
        }
    }
}

/// The kinds of operation a workload issues; each gets its own latency
/// line in the printed summary.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Class {
    Query,
    HotRead,
    ColdRead,
    Refresh,
    FirstRow,
}

impl Class {
    pub fn metric(self) -> &'static str {
        match self {
            Class::Query => "query_p50_ms",
            Class::HotRead => "hot_read_p50_ms",
            Class::ColdRead => "cold_read_p50_ms",
            Class::Refresh => "refresh_p50_ms",
            Class::FirstRow => "first_row_p50_ms",
        }
    }
}

#[derive(Clone, Copy)]
pub struct Op {
    /// When the operation started (was due, in an open loop), in
    /// seconds from the start of its phase.
    pub at_s: f64,
    pub class: Class,
    /// Which text or template of the workload's mix the op ran.
    pub kind: usize,
    pub ms: f64,
    pub ok: bool,
    /// CPU time the whole process had used since its phase began, less
    /// the calibration kernel's, when the operation started (was sent, in
    /// an open loop), in seconds.
    pub cpu_s: f64,
}

/// One measured phase: every operation attempted, over `wall_s`.
#[derive(Default)]
pub struct Phase {
    pub ops: Vec<Op>,
    pub wall_s: f64,
    /// Process CPU time the phase used, less the calibration kernel's.
    pub cpu_s: f64,
    /// Rows (elements) in the results the operations returned.
    pub rows_out: usize,
    /// Calibration kernel runs: start (seconds into the phase) and CPU
    /// seconds.
    pub calib: Vec<(f64, f64)>,
}

impl Phase {
    pub fn latencies(&self) -> Vec<f64> {
        sorted(&self.ops.iter().map(|o| o.ms).collect::<Vec<_>>())
    }

    pub fn p50(&self) -> f64 {
        quantile(&self.latencies(), 0.5)
    }

    pub fn ok(&self) -> usize {
        self.ops.iter().filter(|o| o.ok).count()
    }

    /// Median and p99 latency, and count, per mix entry.
    pub fn kind_latency(&self) -> BTreeMap<usize, (f64, f64, usize)> {
        let mut by: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for o in &self.ops {
            by.entry(o.kind).or_default().push(o.ms);
        }
        by.into_iter()
            .map(|(k, v)| {
                let s = sorted(&v);
                (k, (quantile(&s, 0.5), quantile(&s, 0.99), v.len()))
            })
            .collect()
    }

    /// The phase cut into `n` equal slices of time, by operation start.
    pub fn windows(&self, n: usize) -> Vec<Vec<Op>> {
        let mut w = vec![Vec::new(); n];
        for o in &self.ops {
            let i = (o.at_s / self.wall_s * n as f64) as usize;
            w[i.min(n - 1)].push(*o);
        }
        w
    }

    /// The calibration kernel's CPU times, in ms, in the same slices as
    /// [`Phase::windows`].
    pub fn calib_windows(&self, n: usize) -> Vec<Vec<f64>> {
        let mut w = vec![Vec::new(); n];
        for &(at_s, cpu_s) in &self.calib {
            let i = (at_s / self.wall_s * n as f64) as usize;
            w[i.min(n - 1)].push(cpu_s * 1e3);
        }
        w
    }

    pub fn class_p50(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut by: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
        for o in &self.ops {
            by.entry(o.class).or_default().push(o.ms);
        }
        by.into_iter()
            .map(|(c, v)| (c.metric(), (quantile(&sorted(&v), 0.5), v.len())))
            .collect()
    }
}

/// Everything a workload run reports back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// The measured phase (the untraced one in a traced run).
    pub phase: Phase,
    pub setup_s: f64,
    /// Peak resident memory at the end of the measured run.
    pub rss_peak_mib: f64,
    /// Latency limit for `goodput_qps`.
    pub limit_ms: f64,
    /// Output or count checks that failed, one line each.
    pub problems: Vec<String>,
    /// Answers found wrong or stale by checks made after the run, whose
    /// operations were counted as successful when they ran.
    pub wrong_after: usize,
    /// Per-layer metrics (traced run only).
    pub layers: BTreeMap<String, f64>,
    /// Spans of the traced phase, written out at the end.
    pub spans: Vec<Span>,
    /// Extra lines for the printed summary.
    pub notes: Vec<String>,
    /// Operations of the traced phase (they count as attempted too).
    pub traced_attempted: usize,
    pub traced_failed: usize,
}

/// Times the workload's set-up: builds it at least `SETUPS` times, and
/// until the builds have used `SETUP_MIN_CPU_S`, before the run, and
/// keeps the last build. Each build is timed in process CPU time, and
/// the calibration kernel runs before each one; `setup_s` is the median
/// build's CPU time at the kernel's reference speed (see `calib`). Wall
/// time is printed.
pub struct Setup<T, F: FnMut() -> T> {
    build: F,
    cpu: Vec<f64>,
    kernel_ms: Vec<f64>,
    wall: Vec<f64>,
}

impl<T, F: FnMut() -> T> Setup<T, F> {
    pub fn new(build: F) -> Setup<T, F> {
        Setup {
            build,
            cpu: Vec::new(),
            kernel_ms: Vec::new(),
            wall: Vec::new(),
        }
    }

    fn timed(&mut self) -> T {
        self.kernel_ms.push(crate::calib::kernel_ms());
        let cpu0 = crate::stats::cpu_seconds();
        let t = Instant::now();
        let env = (self.build)();
        self.wall.push(t.elapsed().as_secs_f64());
        self.cpu.push(crate::stats::cpu_seconds() - cpu0);
        env
    }

    /// The environment the run uses.
    pub fn start(&mut self) -> T {
        loop {
            let env = self.timed();
            if self.cpu.len() >= SETUPS && self.cpu.iter().sum::<f64>() >= SETUP_MIN_CPU_S {
                return env;
            }
            // Each build is dropped before the next one starts.
            drop(env);
        }
    }

    /// Record the run's peak memory and the set-up time; sets
    /// `out.rss_peak_mib` and `out.setup_s`.
    pub fn finish(&self, out: &mut Outcome) {
        out.rss_peak_mib = crate::stats::rss_peak_mib();
        let median = |v: &[f64]| quantile(&sorted(v), 0.5);
        let slowdown = median(&self.kernel_ms) / crate::calib::REFERENCE_MS;
        out.setup_s = median(&self.cpu) / slowdown;
        out.notes.push(format!(
            "set-up (median of {}): {:.4} s CPU, {:.4} s wall, machine slow-down {slowdown:.3}x",
            self.cpu.len(),
            median(&self.cpu),
            median(&self.wall),
        ));
    }
}

/// Counter deltas of one driver over a phase, as per-query figures.
pub fn driver_layers(
    layers: &mut BTreeMap<String, f64>,
    name: &str,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    queries: usize,
) {
    let q = queries.max(1) as f64;
    let d = |f: fn(&MetricsSnapshot) -> u64| f(after).saturating_sub(f(before)) as f64;
    let batch_requests = d(|m| m.batch_requests);
    let mut put = |k: &str, v: f64| {
        layers.insert(format!("core.{name}.{k}"), v);
    };
    put("requests_per_query", d(|m| m.requests) / q);
    put("rows_shipped_per_query", d(|m| m.rows_shipped) / q);
    put("bytes_shipped_per_query", d(|m| m.bytes_shipped) / q);
    put("batch_requests", batch_requests / q);
    put(
        "keys_per_batch",
        ratio(d(|m| m.batched_keys), batch_requests),
    );
    put(
        "prefetch_useful_ratio",
        ratio(d(|m| m.rows_pulled), d(|m| m.rows_prefetched)),
    );
    put("blocks_shipped", d(|m| m.blocks_shipped) / q);
    put("retries", d(|m| m.retries) / q);
    put("timeouts", d(|m| m.timeouts) / q);
    put("hedges_fired", d(|m| m.hedges_fired) / q);
}

/// Mean duration, in µs, of the spans named `name`.
pub fn mean_span_us(spans: &[Span], name: &str) -> f64 {
    let (n, total) = spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0usize, 0.0), |(n, t), s| (n + 1, t + s.dur_us()));
    ratio(total, n as f64)
}

/// Session evaluation figures from the spans of in-process queries:
/// submit→wait per full query, `first_n` per prefix request, and the
/// share of operation time the two take.
pub fn eval_layers(layers: &mut BTreeMap<String, f64>, spans: &[Span]) {
    let mut per_op: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| s.name == "kleisli.submit" || s.name == "kleisli.wait")
    {
        *per_op.entry(s.op).or_default() += s.dur_us();
    }
    let eval: Vec<f64> = per_op.into_values().collect();
    let first_n: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "kleisli.query_first_n")
        .map(|s| s.dur_us())
        .collect();
    let op_total: f64 = spans
        .iter()
        .filter(|s| s.name == "bench.op")
        .map(|s| s.dur_us())
        .sum();
    layers.insert("kleisli.eval_wait_us".into(), crate::stats::mean(&eval));
    layers.insert("kleisli.first_n_us".into(), crate::stats::mean(&first_n));
    layers.insert(
        "kleisli.eval_wait_share".into(),
        ratio(
            eval.iter().sum::<f64>() + first_n.iter().sum::<f64>(),
            op_total,
        ),
    );
}

/// Per-operation self time of the layers real operations pass through
/// (the compile split re-invokes work after the fact under its own
/// layers, so it does not count here).
pub fn self_time_layers(layers: &mut BTreeMap<String, f64>, spans: &[Span], ops: usize) {
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times_us(spans)) {
        *by_layer.entry(s.layer()).or_default() += t;
    }
    for layer in ["bench", "kleisli", "server"] {
        let v = by_layer.get(layer).copied().unwrap_or(0.0);
        layers.insert(format!("{layer}.self_us"), v / ops.max(1) as f64);
    }
}

/// Re-invokes the public compile stages on a query text, so the traced
/// run can split a compile into parse, desugar, infer, intern, optimize
/// and hash. Mirrors what a session does: definitions for each
/// registered driver, a catalog from the drivers' advertised
/// capabilities and table statistics, and one interner kept across
/// compiles.
pub struct StageSplit {
    defs: Definitions,
    catalog: StaticCatalog,
    interner: Interner,
    config: OptConfig,
}

impl StageSplit {
    pub fn new(drivers: &[(DriverRef, &[&str])]) -> StageSplit {
        let mut defs = Definitions::new();
        let mut catalog = StaticCatalog::new();
        for (driver, tables) in drivers {
            let name: nrc::Name = Arc::from(driver.name());
            let caps = driver.capabilities();
            let req = nrc::fresh("req");
            defs.insert(
                Arc::clone(&name),
                Expr::Lambda {
                    var: Arc::clone(&req),
                    body: Arc::new(Expr::RemoteApp {
                        driver: Arc::clone(&name),
                        arg: Arc::new(Expr::Var(req)),
                    }),
                },
            );
            if caps.sql {
                let t = nrc::fresh("table");
                defs.insert(
                    Arc::from(format!("{name}-Tab")),
                    Expr::Lambda {
                        var: Arc::clone(&t),
                        body: Arc::new(Expr::RemoteApp {
                            driver: Arc::clone(&name),
                            arg: Arc::new(Expr::Record(vec![(
                                Arc::from("table"),
                                Arc::new(Expr::Var(t)),
                            )])),
                        }),
                    },
                );
            }
            catalog.add_driver(driver.name(), caps);
            for table in tables.iter() {
                if let Some(stats) = driver.table_stats(table) {
                    catalog.add_table(driver.name(), *table, stats);
                }
            }
        }
        StageSplit {
            defs,
            catalog,
            interner: Interner::new(),
            config: OptConfig::default(),
        }
    }

    /// Compile `text` stage by stage under `op`'s id; returns the number
    /// of rewrite rules fired.
    pub fn run(&mut self, tracer: &Tracer, op: u64, text: &str) -> usize {
        tracer.detached("split.compile", op, || {
            let ast = tracer
                .span("cpl.parse", || cpl::parse_expr(text))
                .expect("a text the session compiled parses");
            let raw = tracer
                .span("cpl.desugar", || cpl::desugar(&ast, &self.defs))
                .expect("a text the session compiled desugars");
            tracer
                .span("nrc.infer", || nrc::infer(&raw, &TypeEnv::new()))
                .expect("a text the session compiled type-checks");
            let shared = tracer.span("nrc.intern", || self.interner.intern(&Arc::new(raw)));
            let (optimized, fired) = tracer.span("opt.optimize", || {
                optimize_shared(shared, &self.catalog, &self.config)
            });
            std::hint::black_box(tracer.span("nrc.plan_hash", || nrc::plan_hash(&optimized)));
            fired.len()
        })
    }
}

/// The stage metrics of the compile split, from its spans.
pub fn stage_layers(layers: &mut BTreeMap<String, f64>, spans: &[Span], rules_fired: &[usize]) {
    for (metric, span) in [
        ("cpl.parse_us", "cpl.parse"),
        ("cpl.desugar_us", "cpl.desugar"),
        ("nrc.infer_us", "nrc.infer"),
        ("nrc.intern_us", "nrc.intern"),
        ("nrc.plan_hash_us", "nrc.plan_hash"),
        ("opt.optimize_us", "opt.optimize"),
    ] {
        layers.insert(metric.to_string(), mean_span_us(spans, span));
    }
    let fired: Vec<f64> = rules_fired.iter().map(|&n| n as f64).collect();
    layers.insert("opt.rules_fired".into(), crate::stats::mean(&fired));
}

/// Sleep until `due`. The sleep's overshoot lands in the latency timed
/// from due time and in the generator lag; the generator does not spin
/// or yield through the last stretch, because CPU burnt waiting would be
/// charged to `cpu_ms_per_op` and would shrink as the machine gets busier.
pub fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// The per-layer metrics every traced run reports: tracing overhead
/// against the untraced phase, spans per operation, layer self times,
/// the share of operation time not backed by this process's CPU (time
/// spent waiting), and executor threads. Keeps the spans for writing.
pub fn finish_traced(out: &mut Outcome, executor_threads: usize, traced: &Phase, spans: Vec<Span>) {
    let n = traced.ops.len();
    out.traced_attempted = n;
    out.traced_failed = n - traced.ok();
    let l = &mut out.layers;
    l.insert(
        "trace.overhead_pct".into(),
        (ratio(traced.p50(), out.phase.p50()) - 1.0) * 100.0,
    );
    l.insert(
        "trace.spans_per_op".into(),
        ratio(spans.len() as f64, n as f64),
    );
    l.insert(
        "exec.rows_out".into(),
        ratio(traced.rows_out as f64, n as f64),
    );
    self_time_layers(l, &spans, n);
    let busy_s: f64 = traced.ops.iter().map(|o| o.ms / 1e3).sum();
    l.insert(
        "core.driver_wait_share".into(),
        (1.0 - ratio(traced.cpu_s, busy_s)).max(0.0),
    );
    l.insert("core.executor_threads".into(), executor_threads as f64);
    out.spans = spans;
}
