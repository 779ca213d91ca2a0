//! The benchmark's fixed design: workload parameters, cache sizes against
//! working sets, latency limits, the metric lists and the layer →
//! end-to-end mapping. `perfbench --design` prints this record as JSON.

use std::time::Duration;

/// Set-ups timed before the run: at least `SETUPS`, and until they have
/// used `SETUP_MIN_CPU_S` of CPU, so a set-up of a few ms is timed often
/// enough for a steady median. All come before the run: one timed after
/// it would start from the run's larger heap, fault in fewer fresh pages,
/// and so cost less CPU than one before it.
pub const SETUPS: usize = 9;
pub const SETUP_MIN_CPU_S: f64 = 0.5;

/// Slices of the run each timing, and the CPU time per operation, is
/// taken over. On a shared machine contention comes in episodes of
/// seconds; the median over slices keeps one episode from moving a run's
/// figures, and with steady conditions it equals the whole-run figure.
pub const WINDOWS: usize = 10;

/// The plan cache every session and the server use (the system default).
pub const PLAN_CACHE_ENTRIES: usize = 64;

pub mod adhoc {
    /// Distinct hot texts; repeated round-robin (well under the plan cache).
    pub const HOT_TEXTS: usize = 16;
    /// The op cycle: `true` = next hot text, `false` = a fresh tail text.
    /// Between two uses of one hot text the cycle issues 15 other hot
    /// texts and 32 tail texts, 47 distinct plans < 64, so hot plans are
    /// never evicted while the tail overflows the cache.
    pub const CYCLE: [bool; 3] = [true, false, false];
    pub const LOCI: usize = 48;
    pub const GENBANK_EXTRA: usize = 30;
    /// Operations per second of requested run time. The run issues this
    /// many times `--seconds` operations (about `--seconds` of work at
    /// seed 1 on a 2-vCPU VM), so the number of compiles, and the
    /// interner memory they leave behind, does not depend on the speed
    /// of the build. A run stops early at `TIME_CAP` times `--seconds`.
    pub const OPS_PER_SECOND: usize = 2_000;
    pub const TIME_CAP: u32 = 3;
    /// One tail text in this many is a report of four queries, the
    /// largest text: about 3% of operations, several times slower than
    /// the rest, so p99 falls inside its latencies rather than in the
    /// scheduling noise at the very tail.
    pub const REPORT_EVERY: u64 = 20;
    /// The traced run splits one compile in this many into its stages
    /// (the re-invoked stages keep an interner of their own, which costs
    /// memory as the session's does).
    pub const SPLIT_EVERY: usize = 4;
    /// Every this-many tail ops, one is kept and checked after the run.
    pub const TAIL_CHECK_EVERY: usize = 40;
    pub const TAIL_CHECK_MAX: usize = 40;
    pub const LIMIT_MS: f64 = 5.0;
}

pub mod local {
    pub const SAMPLES: usize = 20_000;
    pub const GENES: usize = 200;
    pub const PUBLICATIONS: usize = 400;
    /// Rows a prefix request asks for.
    pub const FIRST_N: usize = 10;
    pub const LIMIT_MS: f64 = 60.0;
}

pub mod federation {
    use std::time::Duration;
    pub const LOCI: usize = 96;
    pub const GENBANK_EXTRA: usize = 24;
    /// Loci22 runs on the chromosome whose answer is nearest this size.
    pub const LOCI_ON_CHROMOSOME: usize = 6;
    pub const PER_REQUEST: Duration = Duration::from_millis(2);
    pub const PER_ROW: Duration = Duration::from_micros(20);
    /// Uids bound as `UIDS` for the per-uid link loops.
    pub const UIDS: usize = 8;
    pub const FIRST_N: usize = 5;
    pub const SESSIONS: usize = 2;
    pub const LIMIT_MS: f64 = 100.0;
}

pub mod kleislid {
    /// Offered load, operations per second over both connections: about
    /// a fifth of the saturation point measured at seed 1 (some 2 300
    /// ops/s on 2 CPUs with the same mix).
    pub const RATE_QPS: f64 = 500.0;
    /// Goodput counts replies within this limit, timed from due time.
    pub const LIMIT_MS: f64 = 50.0;
    /// Operation shares in percent: hot reads, cold reads, refreshes.
    pub const HOT_PCT: u64 = 92;
    pub const COLD_PCT: u64 = 5;
    pub const REFRESH_PCT: u64 = 3;
    /// Rows of the refreshed table (varies by generation around this).
    pub const LAB_ROWS: usize = 900;
    pub const REF_ROWS: usize = 2_000;
    /// Cold reads query a GDB source of this many loci with this latency
    /// per request: slow enough, at 5% of operations, that p99 falls
    /// inside the cold reads' latencies rather than among the reads a
    /// stall of the machine delays (such stalls last up to tens of ms).
    pub const GDB_LOCI: usize = 200;
    pub const COLD_SOURCE_LATENCY: std::time::Duration = std::time::Duration::from_millis(25);
    /// Result-cache budget; the hot results take a small part of it.
    pub const RESULT_CACHE_BUDGET: u64 = 4 * 1024 * 1024;
    /// Replies the server queues for the connection before it condemns
    /// the client as a non-reader. The default (64) is 128 ms of replies
    /// at the offered rate; a pause of the load generator's reading
    /// thread that long, which a loaded machine can cause, must not end
    /// the run, so the queue holds 2 s of replies.
    pub const WRITER_QUEUE_FRAMES: usize = 1_000;
    /// Queries the connection may have waiting for its gate before the
    /// server refuses more with `busy:`. The default (16) is 32 ms of
    /// offered load; when the host stalls the server for longer, the
    /// queries that pile up (the hot reads a refresh has made cold among
    /// them) must wait rather than fail, so the queue holds 2 s of load
    /// too.
    pub const QUEUE_DEPTH: usize = 1_000;
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics gated by `BENCHMARK.json`: reported by every
/// workload with tracing off, in the result line. They are the figures
/// that stay steady on a shared machine: CPU time leaves out the time the
/// host (or another process) ran instead of this one, and the
/// calibration kernel divides out how fast the CPU ran meanwhile.
pub const END_TO_END: &[Metric] = &[
    m("cpu_ms_per_op", "ms"),
    m("rss_peak_mib", "MiB"),
    m("setup_s", "s"),
];

/// End-to-end metrics printed by every workload with tracing off, but not
/// in the result line and not gated. The wall-clock ones, on CPU-bound
/// work, move with contention on the host (10-40% between runs of the
/// same code on a shared 2-vCPU VM), more than any bound could allow;
/// the unscaled CPU time and the kernel's slow-down show what
/// `cpu_ms_per_op` was computed from.
pub const NOT_GATED: &[Metric] = &[
    m("latency_p50_ms", "ms"),
    m("latency_p99_ms", "ms"),
    m("throughput_qps", "1/s"),
    m("goodput_qps", "1/s"),
    m("cpu_ms_per_op_unscaled", "ms"),
    m("cpu_slowdown", "x"),
];

/// Per-layer metrics, reported by every workload in a traced run (0 where
/// the workload does not pass through the layer).
pub const PER_LAYER: &[Metric] = &[
    // compile: cpl, nrc, opt, kleisli plan cache
    m("cpl.parse_us", "us"),
    m("cpl.desugar_us", "us"),
    m("nrc.infer_us", "us"),
    m("nrc.intern_us", "us"),
    m("nrc.plan_hash_us", "us"),
    m("opt.optimize_us", "us"),
    m("opt.rules_fired", "count"),
    m("kleisli.compile_us", "us"),
    m("kleisli.plan_cache_hit_ratio", "ratio"),
    m("kleisli.plan_cache_evictions", "count"),
    // evaluation: kleisli session, exec, local source
    m("kleisli.eval_wait_us", "us"),
    m("kleisli.first_n_us", "us"),
    m("exec.rows_out", "per_query"),
    m("core.Lab.rows_shipped_per_query", "per_query"),
    // remote drivers
    m("core.GDB.requests_per_query", "per_query"),
    m("core.GDB.rows_shipped_per_query", "per_query"),
    m("core.GDB.bytes_shipped_per_query", "per_query"),
    m("core.GDB.batch_requests", "per_query"),
    m("core.GDB.keys_per_batch", "count"),
    m("core.GDB.prefetch_useful_ratio", "ratio"),
    m("core.GDB.blocks_shipped", "per_query"),
    m("core.GDB.retries", "per_query"),
    m("core.GDB.timeouts", "per_query"),
    m("core.GDB.hedges_fired", "per_query"),
    m("core.GenBank.requests_per_query", "per_query"),
    m("core.GenBank.rows_shipped_per_query", "per_query"),
    m("core.GenBank.bytes_shipped_per_query", "per_query"),
    m("core.GenBank.batch_requests", "per_query"),
    m("core.GenBank.keys_per_batch", "count"),
    m("core.GenBank.prefetch_useful_ratio", "ratio"),
    m("core.GenBank.blocks_shipped", "per_query"),
    m("core.GenBank.retries", "per_query"),
    m("core.GenBank.timeouts", "per_query"),
    m("core.GenBank.hedges_fired", "per_query"),
    m("core.executor_threads", "count"),
    m("core.driver_sleep_ms_per_query", "ms"),
    // kleislid: exchange format, server, result cache
    m("token.encode_us", "us"),
    m("token.decode_us", "us"),
    m("token.result_bytes", "bytes"),
    m("server.round_trip_us", "us"),
    m("server.served_cached_ratio", "ratio"),
    m("server.rejected", "count"),
    m("server.generator_lag_ms", "ms"),
    m("server.flush_us", "us"),
    m("exec.result_cache_hit_ratio", "ratio"),
    m("exec.result_cache_evictions", "count"),
    m("exec.result_cache_peak_bytes", "bytes"),
    // where an operation's time goes (checks the workload design)
    m("kleisli.compile_share", "ratio"),
    m("kleisli.eval_wait_share", "ratio"),
    m("core.driver_wait_share", "ratio"),
    m("server.hot_round_trip_share", "ratio"),
    m("bench.self_us", "us"),
    m("kleisli.self_us", "us"),
    m("server.self_us", "us"),
    // the cost of tracing itself
    m("trace.overhead_pct", "%"),
    m("trace.spans_per_op", "count"),
];

/// The design record printed by `--design`.
pub fn record_json() -> String {
    use federation as f;
    use kleislid as k;
    let secs = |d: Duration| d.as_secs_f64() * 1e3;
    format!(
        r#"{{
  "workloads": {{
    "adhoc_compile": {{
      "loop": "closed, 1 client, 1 in-process Session",
      "heavy": ["cpl", "nrc", "opt", "kleisli"],
      "light": ["exec", "core", "server"],
      "why": "ad hoc texts: a repeating hot set hits the plan cache, a never-repeating tail compiles every time; interner growth shows in rss_peak_mib",
      "sources": "GDB ({loci} loci) and GenBank sims at instant latency",
      "ops": "{ops} per second of --seconds, a fixed amount of work, so the compile count (and the memory it leaves) does not depend on speed",
      "plan_cache": {{"entries": {pc}, "hot_texts": {hot}, "hot_share": "1 op in 3", "tail": "2 ops in 3, never repeats; 1 tail text in {re} is a four-query report, the slowest operation, where p99 falls", "distinct_plans_between_hot_reuses": 47}},
      "latency_limit_ms": {al}
    }},
    "local_eval": {{
      "loop": "closed, 1 client, 1 in-process Session",
      "mix": "a 9-op cycle: 3 cheap (flattens of the publications, a first_n prefix), 3 scans of the 20k-row table (the median), 3 heavier (aggregate, hash join, distinct count)",
      "heavy": ["exec", "core::block"],
      "light": ["cpl", "nrc", "opt", "server", "remote drivers"],
      "why": "CPU evaluation over a {samples}-row MemorySource and nested publications; fixed texts, so every plan is a cache hit and nothing waits",
      "plan_cache": {{"entries": {pc}, "texts": 7}},
      "latency_limit_ms": {ll}
    }},
    "federation_remote": {{
      "loop": "closed, {fs} Sessions sharing the GDB and GenBank driver instances",
      "heavy": ["core driver/pool/batch/resilience"],
      "light": ["cpl", "nrc", "opt", "exec", "server"],
      "why": "paper queries over sources with real per-request ({fr} ms) and per-row ({fw} ms) latency; plans are hot",
      "mix": "Loci22, DOE, CACHEABLE, per-uid links, two-source overlap, first_n prefix; the link loop is the middle third (the median), a two-source overlap over 32 uids is 1 op in 45 (where p99 falls)",
      "latency_limit_ms": {fl}
    }},
    "kleislid_mix": {{
      "loop": "open, {rate} ops/s offered on one connection, requests pipelined by a sender thread, replies read by a second thread, latency timed from due time",
      "heavy": ["server", "core::token", "exec result cache"],
      "light": ["remote drivers"],
      "why": "wire reads: hot results served from the caches, cold texts compiled and evaluated against a remote GDB ({cl} ms per request), refreshes replace a table and FLUSH it",
      "shares_pct": {{"hot_read": {hp}, "cold_read": {cp}, "refresh": {rp}}},
      "hot_weights": "the two results of tens of KB are drawn 8 times as often as each other hot text, so the median falls among them",
      "plan_cache": {{"entries": {pc}, "hot_texts": 8, "cold_texts": "every one fresh"}},
      "result_cache": {{"budget_bytes": {budget}, "hot_results": "8 texts, tiny to tens of KB, about 0.2 MB resident at seed 1 (exec.result_cache_peak_bytes)"}},
      "server_queues": {{"writer_queue_frames": {wq}, "queue_depth_per_connection": {qd}, "why": "2 s of offered load each, so a stall of the host delays operations instead of failing them"}},
      "latency_limit_ms": {kl}
    }}
  }},
  "gated": {{
    "cpu_ms_per_op": "CPU time of the whole process (client, executor, drivers, server) per operation, at the calibration kernel's reference speed ({ref_ms} ms per kernel run): the median over {windows} equal slices of the run of the CPU used between the first and the last operation started in the slice, over the operations started in between, divided by the median kernel time in the slice over the reference",
    "rss_peak_mib": "VmHWM at the end of the run",
    "setup_s": "CPU time of one set-up (sources generated and loaded, server started, plans warmed), at the calibration kernel's reference speed: the median of at least {setups} set-ups made before the run, and as many more as take {setup_min} s of CPU"
  }},
  "layer_to_end_to_end": [
    {{"layers": ["cpl.*", "nrc.*", "opt.*", "kleisli.compile_us", "kleisli.plan_cache_*"],
      "moves": {{"adhoc_compile": ["cpu_ms_per_op", "rss_peak_mib", "latency_p50_ms*", "throughput_qps*"], "kleislid_mix": ["cpu_ms_per_op (5% of ops compile)", "cold_read_p50_ms* (a small share: cold reads wait on GDB)"]}},
      "no_change": ["local_eval", "federation_remote"]}},
    {{"layers": ["kleisli.eval_wait_us", "kleisli.first_n_us", "exec.rows_out", "core.Lab.rows_shipped_per_query"],
      "moves": {{"local_eval": ["cpu_ms_per_op", "latency_p50_ms*", "latency_p99_ms*", "throughput_qps*"]}},
      "no_change": ["adhoc_compile"]}},
    {{"layers": ["core.GDB.*", "core.GenBank.*", "core.executor_threads"],
      "moves": {{"federation_remote": ["cpu_ms_per_op (requests, rows and thread hand-offs per query)", "latency_p50_ms*", "latency_p99_ms*", "first_row_p50_ms*"]}},
      "no_change": ["local_eval", "adhoc_compile"]}},
    {{"layers": ["token.*", "server.round_trip_us", "server.served_cached_ratio", "server.rejected", "server.generator_lag_ms"],
      "moves": {{"kleislid_mix": ["cpu_ms_per_op", "hot_read_p50_ms*", "latency_p99_ms*", "goodput_qps*"]}},
      "no_change": ["adhoc_compile", "local_eval", "federation_remote"]}},
    {{"layers": ["exec.result_cache_*", "server.flush_us"],
      "moves": {{"kleislid_mix": ["cpu_ms_per_op", "refresh_p50_ms*", "cold_read_p50_ms*"]}}}}
  ],
  "printed_not_gated": "* marks a wall-clock figure, printed per workload but not gated. latency_p50_ms, latency_p99_ms, throughput_qps and goodput_qps moved 20-80% between sets of runs of the same code on a shared 2-vCPU VM, on every workload whose operations are CPU-bound or hand off between threads; hot_read_p50_ms, cold_read_p50_ms, refresh_p50_ms, first_row_p50_ms and error_rate do not exist, or are 0, on some workloads"
}}"#,
        windows = WINDOWS,
        ref_ms = crate::calib::REFERENCE_MS,
        setups = SETUPS,
        setup_min = SETUP_MIN_CPU_S,
        loci = adhoc::LOCI,
        ops = adhoc::OPS_PER_SECOND,
        re = adhoc::REPORT_EVERY,
        cl = secs(k::COLD_SOURCE_LATENCY),
        pc = PLAN_CACHE_ENTRIES,
        hot = adhoc::HOT_TEXTS,
        al = adhoc::LIMIT_MS,
        samples = local::SAMPLES,
        ll = local::LIMIT_MS,
        fs = f::SESSIONS,
        fr = secs(f::PER_REQUEST),
        fw = secs(f::PER_ROW),
        fl = f::LIMIT_MS,
        rate = k::RATE_QPS,
        hp = k::HOT_PCT,
        cp = k::COLD_PCT,
        rp = k::REFRESH_PCT,
        budget = k::RESULT_CACHE_BUDGET,
        kl = k::LIMIT_MS,
        wq = k::WRITER_QUEUE_FRAMES,
        qd = k::QUEUE_DEPTH,
    )
}
