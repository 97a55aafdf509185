//! Inputs, answers and plumbing shared by the workloads.

use std::path::{Path, PathBuf};
use std::time::Duration;
use tspdb_core::{SharedEngine, ViewBuilderConfig};
use tspdb_probdb::{QueryOutput, Relation, Value};
use tspdb_server::{Server, ServerConfig, ServerHandle};
use tspdb_timeseries::generate::TemperatureGenerator;
use tspdb_timeseries::TimeSeries;

use crate::stats::{supports, Samples};
use crate::trace::Tracer;

/// Server worker threads and load threads: the benchmark host has two
/// cores, and every workload stays within them.
pub const THREADS: usize = 2;

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`, so the same seed gives the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The seeded temperature series every workload reads.
pub fn series(seed: u64, n: usize) -> TimeSeries {
    TemperatureGenerator {
        seed,
        ..TemperatureGenerator::default()
    }
    .generate(n)
}

/// FNV-1a over a byte string: the fingerprint answers are compared by.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// Flips one bit of an expected answer: what the corrupted-answer tests
/// use to prove a wrong answer is counted as failed.
pub fn corrupt(bytes: &mut [u8]) {
    if let Some(b) = bytes.last_mut() {
        *b ^= 1;
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Where the benchmark keeps data directories and traces: inside the
/// working directory (the checkout it runs from).
pub fn work_root() -> PathBuf {
    PathBuf::from(".perfbench_data")
}

/// A directory removed (with its contents) when dropped.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates a fresh, empty directory `<work root>/<name>-<pid>`.
    pub fn new(name: &str) -> std::io::Result<ScratchDir> {
        let path = work_root().join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Starts an in-process server on an ephemeral port with [`THREADS`]
/// workers.
pub fn start_server(engine: &SharedEngine) -> Result<ServerHandle, String> {
    Server::bind(
        "127.0.0.1:0",
        engine.clone(),
        ServerConfig {
            workers: THREADS,
            ..ServerConfig::default()
        },
    )
    .and_then(Server::spawn)
    .map_err(|e| format!("server start: {e}"))
}

/// The rows of a deterministic table, cloned out of the catalog.
pub fn table_rows(engine: &SharedEngine, name: &str) -> Result<Vec<Vec<Value>>, String> {
    let snap = engine.read().snapshot(name).map_err(|e| e.to_string())?;
    match snap.relation.as_ref() {
        Relation::Deterministic(t) => Ok(t.rows().to_vec()),
        Relation::Probabilistic(_) => Err(format!("{name} is not a deterministic table")),
    }
}

/// Rows (tuples, for a view) a relation holds.
pub fn relation_len(engine: &SharedEngine, name: &str) -> Option<usize> {
    let snap = engine.read().snapshot(name).ok()?;
    Some(match snap.relation.as_ref() {
        Relation::Deterministic(t) => t.len(),
        Relation::Probabilistic(t) => t.len(),
    })
}

/// Fingerprint of a whole view's tuples and probabilities.
pub fn view_fingerprint(engine: &SharedEngine, view: &str) -> Result<u64, String> {
    let snap = engine.read().snapshot(view).map_err(|e| e.to_string())?;
    match snap.relation.as_ref() {
        Relation::Probabilistic(t) => Ok(fnv1a(&tspdb_wire::canonical_result_bytes(
            &QueryOutput::ProbRows(t.clone()),
        ))),
        Relation::Deterministic(_) => Err(format!("{view} is not a probabilistic view")),
    }
}

/// Statement kinds the layer probe times separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Row-returning restriction: the point path.
    Point,
    /// Exact aggregate: the count/sum DP kernels.
    Exact,
    /// Monte-Carlo `WITH WORLDS`.
    Worlds,
    /// `WITH SYNOPSIS`, answered or fallen back.
    Synopsis,
}

impl Kind {
    /// Span tag.
    pub fn tag(self) -> &'static str {
        match self {
            Kind::Point => "point",
            Kind::Exact => "exact",
            Kind::Worlds => "worlds",
            Kind::Synopsis => "synopsis",
        }
    }
}

/// What a workload hands the layer probe: its engine and the SQL it runs.
#[derive(Debug)]
pub struct Fixture<'a> {
    /// The workload's engine, after its timed loop.
    pub engine: &'a SharedEngine,
    /// The view-builder defaults that engine was made with.
    pub config: ViewBuilderConfig,
    /// Deterministic source table `(t INT, r FLOAT)`.
    pub source: &'a str,
    /// A probabilistic view over it.
    pub view: &'a str,
    /// The `CREATE VIEW` statements the workload builds; the first is its
    /// inference-heavy one, the last its generation-heavy one.
    pub view_sql: Vec<String>,
    /// Read statements of every [`Kind`], the workload's own where it has
    /// them.
    pub statements: Vec<(Kind, String)>,
}

/// Default read statements of every kind over `view`, restricted to the
/// time range `[lo, hi)`, for workloads whose own traffic lacks a kind.
pub fn default_statements(view: &str, lo: i64, hi: i64, width: i64) -> Vec<(Kind, String)> {
    vec![
        (
            Kind::Point,
            format!("SELECT * FROM {view} WHERE t >= {lo} AND t < {hi} THRESHOLD 0.2"),
        ),
        (
            Kind::Exact,
            format!("SELECT COUNT(*) FROM {view} WHERE t >= {lo} AND t < {hi}"),
        ),
        (
            Kind::Worlds,
            format!(
                "SELECT COUNT(*) FROM {view} WHERE t >= {lo} AND t < {hi} WITH WORLDS 1000 SEED 1"
            ),
        ),
        (
            Kind::Synopsis,
            format!("SELECT COUNT(*) FROM {view} GROUP BY WINDOW(t, {width}) WITH SYNOPSIS"),
        ),
    ]
}

/// One workload run's end-to-end numbers, before set-up and memory are
/// added.
#[derive(Debug, Clone, Default)]
pub struct LoopResult {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or answered wrong.
    pub failed: u64,
    /// `ops_per_s`.
    pub ops_per_s: f64,
    /// `p50_ms`.
    pub p50_ms: f64,
    /// `tail_ms`.
    pub tail_ms: f64,
    /// `aux_p50_ms`.
    pub aux_p50_ms: f64,
    /// The same numbers under the names the workload's documentation
    /// uses, plus any it reports only for reading: `(name, value, unit)`.
    pub named: Vec<(String, f64, &'static str)>,
    /// Per-layer values only the timed loop can observe.
    pub layer: Vec<(&'static str, f64)>,
}

impl LoopResult {
    /// Adds a named reading.
    pub fn name(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.named.push((name.into(), value, unit));
    }
}

/// The fixed tail level of one latency class, with a note when the run
/// drew too few samples to support it.
pub fn tail(samples: &Samples, level: f64, what: &str) -> f64 {
    if !supports(samples.len(), level) {
        eprintln!(
            "perfbench: {what}: {} samples do not support p{level} (fewer than {} beyond it)",
            samples.len(),
            crate::stats::MIN_BEYOND
        );
    }
    samples.percentile(level)
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Records a top-level span around `f` when tracing.
pub fn traced<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    tag: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => {
            let start = std::time::Instant::now();
            let out = f();
            t.record(name, tag, None, start, std::time::Instant::now());
            out
        }
        None => f(),
    }
}
