//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <adhoc_compile|local_eval|federation_remote|kleislid_mix|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --design
//! ```
//!
//! Each workload builds its inputs from the seed, sets up its sources
//! (several times; `setup_s` is the median), checks its outputs against a
//! reference, and measures for the given seconds (`adhoc_compile` issues
//! a fixed number of operations per requested second instead; see
//! `design::adhoc::OPS_PER_SECOND`). The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. The end-to-end metrics in that line are the
//! ones that stay steady on a shared machine: CPU time per operation,
//! peak memory, and set-up CPU time. Wall-clock latency, throughput and
//! goodput are printed above it. A traced run measures an untraced and a
//! traced phase of half the time each, reports the difference as the
//! tracing overhead, and writes its spans to
//! `.perfbench/trace-<workload>-<seed>.jsonl`.
//!
//! `--workload all` runs the four workloads one after another, each in its
//! own process, and passes their output through. `--design` prints the
//! design record: parameters, cache sizes against working sets, and which
//! layer metric should move which end-to-end metric on which workload.

mod calib;
mod common;
mod design;
mod rng;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use common::{Args, Outcome};
use design::{END_TO_END, NOT_GATED, PER_LAYER, WINDOWS};
use stats::{quantile, ratio};

const WORKLOADS: [&str; 4] = [
    "adhoc_compile",
    "local_eval",
    "federation_remote",
    "kleislid_mix",
];

/// The share of operation time each workload is built to spend in its
/// heavy layer; a traced run prints whether it does.
const DESIGN_SHARES: [(&str, &str); 4] = [
    ("adhoc_compile", "kleisli.compile_share"),
    ("local_eval", "kleisli.eval_wait_share"),
    ("federation_remote", "core.driver_wait_share"),
    ("kleislid_mix", "server.hot_round_trip_share"),
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --design",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?,
            "--trace" => args.trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--design") {
        println!("{}", design::record_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return usage();
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let out = match args.workload.as_str() {
        "adhoc_compile" => workloads::adhoc::run(&args),
        "local_eval" => workloads::local::run(&args),
        "federation_remote" => workloads::federation::run(&args),
        _ => workloads::kleislid::run(&args),
    };
    report(&args, out)
}

fn report(args: &Args, out: Outcome) -> ExitCode {
    let phase = &out.phase;
    let lat = phase.latencies();
    let n = lat.len();
    let attempted = n + out.traced_attempted;
    let failed = (n - phase.ok()) + out.traced_failed + out.wrong_after;
    let e2e = end_to_end(&out);

    println!(
        "workload {} seed {} seconds {}{}",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { " (traced)" } else { "" }
    );
    println!(
        "  operations: {n} measured, {} beyond p99",
        n - (0.99 * n as f64).ceil() as usize
    );
    for m in END_TO_END {
        println!("  {:<28} {:>14.4} {}", m.name, e2e[m.name], m.unit);
    }
    for m in NOT_GATED {
        println!(
            "  {:<28} {:>14.4} {}  (not gated)",
            m.name, e2e[m.name], m.unit
        );
    }
    for (name, (p50, count)) in phase.class_p50() {
        println!("  {name:<28} {p50:>14.4} ms  ({count} ops)");
    }
    for (kind, (p50, p99, count)) in phase.kind_latency() {
        println!("  mix entry {kind:<3} p50 {p50:>10.4} ms  p99 {p99:>10.4} ms  ({count} ops)");
    }
    println!(
        "  {:<28} {:>14.6}",
        "error_rate",
        ratio(failed as f64, attempted as f64)
    );
    println!(
        "  {:<28} {:>14.4} ms",
        "latency_limit (goodput)", out.limit_ms
    );
    for note in &out.notes {
        println!("  {note}");
    }
    if args.trace {
        for m in PER_LAYER {
            let v = out.layers.get(m.name).copied().unwrap_or(0.0);
            println!("  {:<40} {:>14.4} {}", m.name, v, m.unit);
        }
        if let Some((_, metric)) = DESIGN_SHARES.iter().find(|(w, _)| *w == args.workload) {
            let share = out.layers.get(*metric).copied().unwrap_or(0.0);
            println!(
                "  design: {metric} = {share:.3}, {}",
                if share > 0.5 {
                    "most of the operation time, as built"
                } else {
                    "NOT most of the operation time"
                }
            );
        }
        let path = std::path::PathBuf::from(format!(
            ".perfbench/trace-{}-{}.jsonl",
            args.workload, args.seed
        ));
        match trace::write_spans(&path, &out.spans) {
            Ok(()) => println!("  spans: {} written to {}", out.spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    for p in out.problems.iter().take(20) {
        println!("  CHECK FAILED: {p}");
    }
    let correct = out.problems.is_empty();
    let metrics: Vec<String> = if args.trace {
        PER_LAYER
            .iter()
            .map(|m| {
                metric_json(
                    m.name,
                    out.layers.get(m.name).copied().unwrap_or(0.0),
                    m.unit,
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| metric_json(m.name, e2e[m.name], m.unit))
            .collect()
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The end-to-end metrics of a measured phase: each timing, and the CPU
/// time per operation, is the median over `WINDOWS` equal slices of the
/// phase of that slice's figure. A slice's CPU time per operation is
/// divided by its slow-down: the median CPU time of the calibration
/// kernel in that slice over the kernel's reference time. p99 uses fewer,
/// larger slices when needed so that each keeps at least ten samples
/// beyond its p99.
fn end_to_end(out: &Outcome) -> BTreeMap<&'static str, f64> {
    let phase = &out.phase;
    let slice_s = phase.wall_s / WINDOWS as f64;
    let mut p50 = Vec::new();
    let mut thr = Vec::new();
    let mut good = Vec::new();
    let mut cpu = Vec::new();
    let mut cpu_raw = Vec::new();
    let mut slowdown = Vec::new();
    let kernel = phase.calib_windows(WINDOWS);
    let all_kernel: Vec<f64> = kernel.iter().flatten().copied().collect();
    for (w, k) in phase.windows(WINDOWS).iter().zip(&kernel) {
        let lat = stats::sorted(&w.iter().map(|o| o.ms).collect::<Vec<_>>());
        let k = if k.is_empty() { &all_kernel } else { k };
        let s = quantile(&stats::sorted(k), 0.5) / calib::REFERENCE_MS;
        p50.push(quantile(&lat, 0.5));
        thr.push(w.iter().filter(|o| o.ok).count() as f64 / slice_s);
        good.push(w.iter().filter(|o| o.ok && o.ms <= out.limit_ms).count() as f64 / slice_s);
        let raw = cpu_ms_per_op(w);
        cpu_raw.push(raw);
        cpu.push(raw / s);
        slowdown.push(s);
    }
    let p99_windows = (phase.ops.len() / 1000).clamp(1, WINDOWS);
    let p99: Vec<f64> = phase
        .windows(p99_windows)
        .iter()
        .map(|w| {
            quantile(
                &stats::sorted(&w.iter().map(|o| o.ms).collect::<Vec<_>>()),
                0.99,
            )
        })
        .collect();
    let median = |v: &[f64]| quantile(&stats::sorted(v), 0.5);
    let mut e2e = BTreeMap::new();
    e2e.insert("latency_p50_ms", median(&p50));
    e2e.insert("latency_p99_ms", median(&p99));
    e2e.insert("throughput_qps", median(&thr));
    e2e.insert("goodput_qps", median(&good));
    e2e.insert("cpu_ms_per_op", median(&cpu));
    e2e.insert("cpu_ms_per_op_unscaled", median(&cpu_raw));
    e2e.insert("cpu_slowdown", median(&slowdown));
    e2e.insert("rss_peak_mib", out.rss_peak_mib);
    e2e.insert("setup_s", out.setup_s);
    e2e
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
}

/// Run every workload in its own process, passing each one's output
/// through; fails if any of them does.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    for w in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        all_ok &= status.is_ok_and(|s| s.success());
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Process CPU time per operation over a slice of a phase: the CPU the
/// process used between the first and the last operation's start,
/// divided by the operations started in between.
fn cpu_ms_per_op(w: &[common::Op]) -> f64 {
    let mut marks: Vec<(f64, f64)> = w.iter().map(|o| (o.at_s, o.cpu_s)).collect();
    marks.sort_by(|a, b| a.0.total_cmp(&b.0));
    match (marks.first(), marks.last()) {
        (Some(first), Some(last)) if marks.len() > 1 => {
            (last.1 - first.1) * 1e3 / (marks.len() - 1) as f64
        }
        _ => 0.0,
    }
}
