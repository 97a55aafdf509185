//! tspdb's benchmark: one command, four closed-loop workloads, every
//! answer verified.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <view_build|serve_point|serve_analytic|stream_ingest> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
//! end-to-end ones; with `--trace 1` the run measures untraced and traced
//! halves, reports the tracing overhead between them, and adds the
//! per-layer metrics of a traced pass over every layer. Lines before it
//! (prefixed `#`) record the environment, the input sizes and the metrics
//! under the names the README uses per workload.

mod common;
mod layers;
mod metrics;
mod serve;
mod stats;
mod stream;
mod trace;
mod view_build;

use std::time::{Duration, Instant};
use tspdb_core::SharedEngine;

use common::{Fixture, LoopResult};
use metrics::{Report, END_TO_END, PER_LAYER};
use trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &[
    "view_build",
    "serve_point",
    "serve_analytic",
    "stream_ingest",
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// One set-up workload.
#[derive(Debug)]
enum Bench {
    ViewBuild(view_build::ViewBuild),
    Serve(serve::Serve),
    Stream(stream::Stream),
}

impl Bench {
    fn setup(workload: &str, seed: u64) -> Result<Bench, String> {
        let serve = |mode, readings| {
            serve::Serve::setup(
                mode,
                serve::Params {
                    seed,
                    readings,
                    miss_pool: 2048,
                    corrupt: false,
                },
            )
            .map(Bench::Serve)
        };
        match workload {
            "view_build" => view_build::ViewBuild::setup(view_build::Params {
                seed,
                readings: 1000,
                corrupt: false,
            })
            .map(Bench::ViewBuild),
            "serve_point" => serve(serve::Mode::Point, 2000),
            "serve_analytic" => serve(serve::Mode::Analytic, 3000),
            "stream_ingest" => stream::Stream::setup(stream::Params {
                seed,
                initial_rows: 300,
                corrupt: false,
            })
            .map(Bench::Stream),
            other => Err(format!("unknown workload {other}")),
        }
    }

    fn run(&mut self, dur: Duration, tracer: Option<&Tracer>) -> LoopResult {
        match self {
            Bench::ViewBuild(w) => w.run(dur, tracer),
            Bench::Serve(w) => w.run(dur, tracer),
            Bench::Stream(w) => w.run(dur, tracer),
        }
    }

    fn fixture(&self) -> Fixture<'_> {
        match self {
            Bench::ViewBuild(w) => w.fixture(),
            Bench::Serve(w) => w.fixture(),
            Bench::Stream(w) => w.fixture(),
        }
    }

    fn sizes(&self) -> Vec<(&'static str, String)> {
        match self {
            Bench::ViewBuild(w) => w.sizes(),
            Bench::Serve(w) => w.sizes(),
            Bench::Stream(w) => w.sizes(),
        }
    }
}

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => match value.parse() {
                Ok(s) if s > 0 => args.seconds = s,
                _ => usage(),
            },
            "--trace" => match value.as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                _ => usage(),
            },
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        usage();
    }
    args
}

/// Sets up [`SETUPS`] times, keeping the last; returns it with the median
/// set-up time in seconds.
fn setup(workload: &str, seed: u64) -> Result<(Bench, f64), String> {
    let mut times = Vec::new();
    let mut bench = None;
    for _ in 0..SETUPS {
        drop(bench.take());
        let t0 = Instant::now();
        bench = Some(Bench::setup(workload, seed)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    println!(
        "# setup_s runs: {}",
        times
            .iter()
            .map(|t| format!("{t:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    Ok((bench.expect("SETUPS > 0"), stats::median(&mut times)))
}

fn print_named(label: &str, r: &LoopResult) {
    for (name, value, unit) in &r.named {
        println!("# {label}{name} = {value:.4} {unit}");
    }
}

/// The numbers a loop result contributes to the end-to-end metrics.
fn loop_metrics(r: &LoopResult) -> [(&'static str, f64); 4] {
    [
        ("ops_per_s", r.ops_per_s),
        ("p50_ms", r.p50_ms),
        ("tail_ms", r.tail_ms),
        ("aux_p50_ms", r.aux_p50_ms),
    ]
}

fn plan_cache(engine: &SharedEngine) -> (u64, u64) {
    let s = engine.plan_cache_stats();
    (s.hits, s.hits + s.misses)
}

fn main() {
    let args = parse_args();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "# env nproc={} commit={} rustc=\"{}\" profile={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env!("PERFBENCH_COMMIT"),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
    );
    let dur = Duration::from_secs(args.seconds);
    let result = if args.trace {
        traced_run(&args, dur)
    } else {
        untraced_run(&args, dur)
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let _ = std::fs::remove_dir(common::work_root());
    println!("{}", report.to_json());
}

fn untraced_run(args: &Args, dur: Duration) -> Result<Report, String> {
    let (mut bench, setup_s) = setup(&args.workload, args.seed)?;
    print_sizes(&bench);
    let r = bench.run(dur, None);
    print_named("", &r);
    let mut report = Report {
        attempted: r.attempted,
        failed: r.failed,
        ..Report::default()
    };
    report.set(END_TO_END, "setup_s", setup_s);
    report.set(END_TO_END, "peak_rss_mb", common::peak_rss_mb());
    for (name, value) in loop_metrics(&r) {
        report.set(END_TO_END, name, value);
    }
    debug_assert!(report.missing(END_TO_END).is_empty());
    drop(bench);
    Ok(report)
}

fn print_sizes(bench: &Bench) {
    let sizes: Vec<String> = bench
        .sizes()
        .into_iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("# sizes {}", sizes.join(" "));
}

/// Half the time untraced, half traced on a fresh set-up, then the
/// per-layer pass.
fn traced_run(args: &Args, dur: Duration) -> Result<Report, String> {
    let half = dur / 2;
    let mut bench = Bench::setup(&args.workload, args.seed)?;
    print_sizes(&bench);
    let untraced = bench.run(half, None);
    drop(bench);
    let mut bench = Bench::setup(&args.workload, args.seed)?;

    let tracer = Tracer::new();
    let engine = bench.fixture().engine.clone();
    let plan_before = plan_cache(&engine);
    let pages_before = engine.storage().map(|s| s.cache_stats());
    let traced = bench.run(half, Some(&tracer));
    let pages_after = engine.storage().map(|s| s.cache_stats());

    print_named("untraced ", &untraced);
    print_named("traced ", &traced);
    println!("# tracing overhead (traced vs untraced, same length):");
    for ((name, u), (_, t)) in loop_metrics(&untraced)
        .into_iter()
        .zip(loop_metrics(&traced))
    {
        println!(
            "#   {name}: untraced {u:.4} traced {t:.4} difference {:+.4} ({:+.2}%)",
            t - u,
            (t - u) / u * 100.0
        );
    }

    let (layers, probe_failed) = layers::measure(&bench.fixture(), &tracer)?;
    let plan_after = plan_cache(&engine);
    let mut report = Report {
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed + probe_failed,
        ..Report::default()
    };
    for (name, value) in layers {
        report.set(PER_LAYER, name, value);
    }
    let lookups = plan_after.1 - plan_before.1;
    report.set(
        PER_LAYER,
        "probdb.plan_cache_hit_ratio",
        (plan_after.0 - plan_before.0) as f64 / lookups.max(1) as f64,
    );
    // The workload's own page traffic, where it reads from disk.
    if let (Some(b), Some(a)) = (pages_before, pages_after) {
        let (hits, misses) = (a.hits - b.hits, a.misses - b.misses);
        if hits + misses > 0 {
            report.set(
                PER_LAYER,
                "storage.page_hit_ratio",
                hits as f64 / (hits + misses) as f64,
            );
            report.set(
                PER_LAYER,
                "storage.pages_read_per_query",
                misses as f64 / traced.attempted.max(1) as f64,
            );
        }
    }
    for &(name, value) in &traced.layer {
        report.set(PER_LAYER, name, value);
    }
    report.set(
        PER_LAYER,
        "trace.p50_overhead_pct",
        (traced.p50_ms - untraced.p50_ms) / untraced.p50_ms * 100.0,
    );
    for (name, value, unit) in &report.metrics {
        println!("# layer {name} = {value:.4} {unit}");
    }
    let missing = report.missing(PER_LAYER);
    if !missing.is_empty() {
        report
            .check_failures
            .push(format!("per-layer metrics not measured: {missing:?}"));
    }

    let traces = common::work_root().join("traces");
    let path = traces.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    match std::fs::create_dir_all(&traces).and_then(|_| tracer.write_jsonl(&path)) {
        Ok(()) => println!("# {} spans written to {}", tracer.len(), path.display()),
        Err(e) => eprintln!("perfbench: writing spans: {e}"),
    }
    drop(bench);
    Ok(report)
}
