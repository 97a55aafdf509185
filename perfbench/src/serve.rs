//! `serve_point` and `serve_analytic`: closed-loop wire traffic from
//! [`THREADS`] connections against an in-process server, every answer
//! compared byte for byte with an in-process reference computed at set-up.
//!
//! * `serve_point` serves a resident view of about 12k tuples with cheap
//!   statements — time-range restrictions, top-k by probability, synopsis
//!   aggregates, `EXPLAIN`, prepared executes, and ad-hoc texts of which
//!   some repeat (plan-cache hits) and some come from a pool larger than
//!   the 1024-entry plan cache (misses). Fixed per-request costs dominate.
//! * `serve_analytic` serves a view checkpointed and evicted to disk whose
//!   pages outnumber the 1024-page cache, with exact windowed and ranged
//!   aggregates, `HAVING`, Monte-Carlo and a synopsis statement that falls
//!   back to exact. The strategy kernels and the page read path dominate.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tspdb_client::Client;
use tspdb_core::{SharedEngine, ViewBuilderConfig};
use tspdb_server::ServerHandle;
use tspdb_wire::canonical_result_bytes;

use crate::common::{
    self, default_statements, ms, traced, Fixture, Kind, LoopResult, Rng, ScratchDir, THREADS,
};
use crate::stats::Samples;
use crate::trace::Tracer;

/// Which of the two serving workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Resident view, cheap statements.
    Point,
    /// Evicted view, kernel-heavy statements.
    Analytic,
}

/// Sizes of one serving run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Workload seed.
    pub seed: u64,
    /// Readings in the source series.
    pub readings: usize,
    /// Distinct ad-hoc texts in the plan-cache-miss pool (point only).
    pub miss_pool: usize,
    /// Flip every expected answer (tests only).
    pub corrupt: bool,
}

/// One statement of the mix with its expected answer.
#[derive(Debug)]
struct Stmt {
    sql: String,
    expected: Vec<u8>,
    kind: Option<Kind>,
    class: &'static str,
    prepared: bool,
}

/// One slot of a connection's round.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// A fixed statement (ad hoc or prepared).
    Fixed(usize),
    /// The next text of the shared miss pool.
    Miss,
}

/// A running server over a loaded engine, with the mix and its answers.
#[derive(Debug)]
pub struct Serve {
    mode: Mode,
    engine: SharedEngine,
    config: ViewBuilderConfig,
    server: Option<ServerHandle>,
    stmts: Vec<Stmt>,
    round: Vec<Slot>,
    miss: Vec<usize>,
    next_miss: AtomicUsize,
    view: &'static str,
    view_sql: String,
    times: Vec<i64>,
    sizes: Vec<(&'static str, String)>,
    _dir: Option<ScratchDir>,
}

/// `serve_point`'s view: the paper's default over ~2k readings.
const POINT_VIEW_SQL: &str = "CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=6 FROM raw";
/// `serve_analytic`'s view: forty cells per timestamp, so ~3k readings
/// give more pages than the page cache holds.
const ANALYTIC_VIEW_SQL: &str =
    "CREATE VIEW av AS DENSITY r OVER t OMEGA delta=0.1, n=40 FROM raw USING METRIC vt";

impl Serve {
    /// Builds the view (and for `serve_analytic` checkpoints and evicts
    /// it), computes every expected answer in-process, and starts the
    /// server.
    pub fn setup(mode: Mode, p: Params) -> Result<Serve, String> {
        let series = common::series(p.seed, p.readings);
        let times: Vec<i64> = series.iter().map(|o| o.time).collect();
        let config = ViewBuilderConfig::default();
        let (engine, dir, view, view_sql) = match mode {
            Mode::Point => (SharedEngine::new(config), None, "pv", POINT_VIEW_SQL),
            Mode::Analytic => {
                let dir = ScratchDir::new("serve_analytic").map_err(|e| e.to_string())?;
                let engine =
                    SharedEngine::open_persistent(dir.path(), config).map_err(|e| e.to_string())?;
                (engine, Some(dir), "av", ANALYTIC_VIEW_SQL)
            }
        };
        engine
            .load_series("raw", "r", &series)
            .map_err(|e| e.to_string())?;
        engine.execute(view_sql).map_err(|e| e.to_string())?;
        let mut sizes = vec![
            ("readings", p.readings.to_string()),
            (
                "view_tuples",
                common::relation_len(&engine, view).map_or("?".into(), |n| n.to_string()),
            ),
        ];
        if mode == Mode::Analytic {
            engine.evict_to_disk(view).map_err(|e| e.to_string())?;
            let storage = engine.storage().ok_or("persistent engine has no storage")?;
            let before = storage.cache_stats();
            storage.scan(view).map_err(|e| e.to_string())?;
            let after = storage.cache_stats();
            let pages = (after.hits + after.misses) - (before.hits + before.misses);
            sizes.push(("view_pages", pages.to_string()));
            sizes.push((
                "page_cache_pages",
                tspdb_storage::DEFAULT_CACHE_PAGES.to_string(),
            ));
        }

        let mut rng = Rng::new(p.seed, mode as u64 + 1);
        let (mut stmts, round, miss) = match mode {
            Mode::Point => point_mix(&times, &mut rng, p.miss_pool),
            Mode::Analytic => analytic_mix(&times, &mut rng),
        };
        if mode == Mode::Point {
            sizes.push(("distinct_adhoc_miss_texts", miss.len().to_string()));
            sizes.push(("plan_cache_entries", "1024".into()));
        }
        for s in &mut stmts {
            let out = engine
                .query(&s.sql)
                .map_err(|e| format!("{}: {e}", s.sql))?;
            s.expected = canonical_result_bytes(&out);
            if p.corrupt {
                common::corrupt(&mut s.expected);
            }
        }
        let server = common::start_server(&engine)?;
        Ok(Serve {
            mode,
            engine,
            config,
            server: Some(server),
            stmts,
            round,
            miss,
            next_miss: AtomicUsize::new(0),
            view,
            view_sql: view_sql.to_string(),
            times,
            sizes,
            _dir: dir,
        })
    }

    /// Input sizes for the result record.
    pub fn sizes(&self) -> Vec<(&'static str, String)> {
        self.sizes.clone()
    }

    /// Runs [`THREADS`] closed-loop connections for `dur`.
    pub fn run(&mut self, dur: Duration, tracer: Option<&Tracer>) -> LoopResult {
        let addr = self
            .server
            .as_ref()
            .expect("server runs until shutdown")
            .addr()
            .to_string();
        // (class, latency ms, ok) per request, across connections.
        let records: Mutex<Vec<(&'static str, f64, bool)>> = Mutex::new(Vec::new());
        let errors = AtomicUsize::new(0);
        let started = Instant::now();
        let deadline = started + dur;
        let this = &*self;
        std::thread::scope(|scope| {
            for conn in 0..THREADS {
                let (addr, records, errors) = (&addr, &records, &errors);
                scope.spawn(move || {
                    let mut local = Vec::new();
                    if let Err(e) = this.connection(addr, conn, deadline, tracer, &mut local) {
                        eprintln!("perfbench: connection {conn}: {e}");
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                    records.lock().expect("record list poisoned").extend(local);
                });
            }
        });
        let wall = started.elapsed().as_secs_f64();
        let records = records.into_inner().expect("record list poisoned");
        let mut out = LoopResult {
            attempted: records.len() as u64 + errors.load(Ordering::Relaxed) as u64,
            failed: records.iter().filter(|r| !r.2).count() as u64
                + errors.load(Ordering::Relaxed) as u64,
            ..LoopResult::default()
        };
        let all = Samples::new(records.iter().map(|r| r.1).collect());
        let (aux_class, tail_level) = match self.mode {
            Mode::Point => ("miss", 95.0),
            Mode::Analytic => ("count", 90.0),
        };
        let aux = Samples::new(
            records
                .iter()
                .filter(|r| r.0 == aux_class)
                .map(|r| r.1)
                .collect(),
        );
        out.ops_per_s = all.len() as f64 / wall;
        out.p50_ms = all.median();
        out.tail_ms = common::tail(&all, tail_level, "wire queries");
        out.aux_p50_ms = aux.median();
        out.name("qps", out.ops_per_s, "1/s");
        out.name("query_p50_ms", out.p50_ms, "ms");
        for level in [90.0, 95.0, 99.0] {
            out.name(format!("query_p{level}_ms"), all.percentile(level), "ms");
        }
        out.name(format!("{aux_class}_p50_ms"), out.aux_p50_ms, "ms");
        out.name("queries", all.len() as f64, "count");
        out
    }

    /// One connection's closed loop: prepare, then walk the round from a
    /// per-connection offset until the deadline.
    fn connection(
        &self,
        addr: &str,
        conn: usize,
        deadline: Instant,
        tracer: Option<&Tracer>,
        records: &mut Vec<(&'static str, f64, bool)>,
    ) -> Result<(), String> {
        let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
        let mut handles = vec![None; self.stmts.len()];
        for (i, s) in self.stmts.iter().enumerate().filter(|(_, s)| s.prepared) {
            handles[i] = Some(client.prepare(&s.sql).map_err(|e| e.to_string())?);
        }
        let mut step = conn * self.round.len() / THREADS;
        let mut reported = false;
        while Instant::now() < deadline {
            let idx = match self.round[step % self.round.len()] {
                Slot::Fixed(i) => i,
                Slot::Miss => {
                    self.miss[self.next_miss.fetch_add(1, Ordering::Relaxed) % self.miss.len()]
                }
            };
            step += 1;
            let s = &self.stmts[idx];
            let t0 = Instant::now();
            let res = traced(tracer, "wire.query", s.class, || match handles[idx] {
                Some(h) => client.execute(h),
                None => client.query(&s.sql),
            });
            let took = ms(t0.elapsed());
            let ok = match res {
                Ok(out) => canonical_result_bytes(&out) == s.expected,
                Err(e) => {
                    eprintln!("perfbench: {}: {e}", s.sql);
                    false
                }
            };
            if !ok && !reported {
                eprintln!("perfbench: wrong answer to {}", s.sql);
                reported = true;
            }
            records.push((s.class, took, ok));
        }
        client.close().map_err(|e| e.to_string())
    }

    /// The engine and statements the layer probe replays: the mix's own
    /// statement of each kind, defaults for kinds the mix lacks.
    pub fn fixture(&self) -> Fixture<'_> {
        let n = self.times.len();
        let step = self.times[1] - self.times[0];
        let (lo, hi) = (self.times[n / 3], self.times[(n / 3 + 100).min(n - 1)]);
        let statements = default_statements(self.view, lo, hi, 64 * step)
            .into_iter()
            .map(|(kind, default)| {
                let own = self.stmts.iter().find(|s| s.kind == Some(kind));
                (kind, own.map_or(default, |s| s.sql.clone()))
            })
            .collect();
        Fixture {
            engine: &self.engine,
            config: self.config,
            source: "raw",
            view: self.view,
            view_sql: vec![self.view_sql.clone()],
            statements,
        }
    }

    /// Stops the server.
    pub fn shutdown(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn stmt(sql: String, kind: Option<Kind>, class: &'static str, prepared: bool) -> Stmt {
    Stmt {
        sql,
        expected: Vec::new(),
        kind,
        class,
        prepared,
    }
}

/// A seeded time range of `len` readings: `(start, end)` timestamps.
fn range(times: &[i64], rng: &mut Rng, len: usize) -> (i64, i64) {
    let first = rng.below(times.len() - len);
    (times[first], times[first + len])
}

/// `serve_point`'s mix. One round: four repeated ad-hoc texts, two
/// prepared executes, and one text from the miss pool.
fn point_mix(times: &[i64], rng: &mut Rng, pool: usize) -> (Vec<Stmt>, Vec<Slot>, Vec<usize>) {
    let step = times[1] - times[0];
    let (a, b) = range(times, rng, 20);
    let (c, d) = range(times, rng, 40);
    let k = 5 + rng.below(10);
    let mut stmts = vec![
        stmt(
            format!("SELECT * FROM pv WHERE t >= {a} AND t < {b} THRESHOLD 0.3"),
            Some(Kind::Point),
            "hit",
            false,
        ),
        stmt(
            format!("SELECT t, lambda FROM pv ORDER BY prob DESC LIMIT {k}"),
            None,
            "hit",
            false,
        ),
        stmt(
            "SELECT COUNT(*), SUM(lambda) FROM pv WITH SYNOPSIS".into(),
            Some(Kind::Synopsis),
            "hit",
            false,
        ),
        stmt(
            format!(
                "EXPLAIN SELECT COUNT(*) FROM pv GROUP BY WINDOW(t, {}) WITH SYNOPSIS",
                64 * step
            ),
            None,
            "hit",
            false,
        ),
        stmt(
            format!("SELECT * FROM pv WHERE t >= {c} AND t < {d} THRESHOLD 0.2"),
            None,
            "hit",
            true,
        ),
        stmt(
            "SELECT COUNT(*) FROM pv WITH SYNOPSIS BUCKETS 32".into(),
            None,
            "hit",
            true,
        ),
    ];
    let mut round: Vec<Slot> = (0..stmts.len()).map(Slot::Fixed).collect();
    round.push(Slot::Miss);
    // Distinct texts: every start reading once, at seeded widths and
    // thresholds, shuffled so consecutive misses touch unrelated ranges.
    let mut starts: Vec<usize> = (0..times.len() - 12).collect();
    for i in (1..starts.len()).rev() {
        starts.swap(i, rng.below(i + 1));
    }
    let mut miss = Vec::with_capacity(pool);
    for &first in starts.iter().cycle().take(pool) {
        let len = 2 + rng.below(10);
        let tau = 0.05 * (1 + rng.below(10)) as f64;
        let sql = format!(
            "SELECT * FROM pv WHERE t >= {} AND t < {} THRESHOLD {tau:.2}",
            times[first],
            times[first + len]
        );
        miss.push(stmts.len());
        stmts.push(stmt(sql, None, "miss", false));
    }
    (stmts, round, miss)
}

/// `serve_analytic`'s mix: three seeded ranges for each of five statement
/// shapes, walked in order.
fn analytic_mix(times: &[i64], rng: &mut Rng) -> (Vec<Stmt>, Vec<Slot>, Vec<usize>) {
    let step = times[1] - times[0];
    let mut stmts = Vec::new();
    for _ in 0..3 {
        let (a, b) = range(times, rng, 300);
        let (c, d) = range(times, rng, 150);
        let (e, f) = range(times, rng, 150);
        let (g, h) = range(times, rng, 150);
        let width = 60 * step;
        let having = 80 + rng.below(40);
        let seed = rng.below(1000);
        stmts.push(stmt(
            format!(
                "SELECT COUNT(*), SUM(lambda) FROM av WHERE t >= {a} AND t < {b} GROUP BY WINDOW(t, {width})"
            ),
            None,
            "window",
            false,
        ));
        stmts.push(stmt(
            format!("SELECT COUNT(*) FROM av WHERE t >= {c} AND t < {d}"),
            Some(Kind::Exact),
            "count",
            false,
        ));
        stmts.push(stmt(
            format!(
                "SELECT COUNT(*) FROM av WHERE t >= {e} AND t < {f} HAVING COUNT(*) >= {having}"
            ),
            None,
            "having",
            false,
        ));
        stmts.push(stmt(
            format!(
                "SELECT COUNT(*) FROM av WHERE t >= {g} AND t < {h} WITH WORLDS 2000 SEED {seed}"
            ),
            Some(Kind::Worlds),
            "worlds",
            false,
        ));
        stmts.push(stmt(
            format!("SELECT SUM(lambda) FROM av GROUP BY WINDOW(t, {width}) WITH SYNOPSIS"),
            Some(Kind::Synopsis),
            "synopsis",
            false,
        ));
    }
    let round = (0..stmts.len()).map(Slot::Fixed).collect();
    (stmts, round, Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(mode: Mode, corrupt: bool) -> LoopResult {
        let p = Params {
            seed: 5,
            readings: if mode == Mode::Point { 200 } else { 400 },
            miss_pool: 16,
            corrupt,
        };
        let mut s = Serve::setup(mode, p).unwrap();
        let r = s.run(Duration::from_millis(300), None);
        s.shutdown();
        r
    }

    #[test]
    fn serve_point_counts_corrupted_answers_as_failed() {
        let ok = smoke(Mode::Point, false);
        assert!(ok.attempted > 0);
        assert_eq!(ok.failed, 0);
        let bad = smoke(Mode::Point, true);
        assert!(bad.attempted > 0);
        assert_eq!(bad.failed, bad.attempted);
    }

    #[test]
    fn serve_analytic_counts_corrupted_answers_as_failed() {
        let ok = smoke(Mode::Analytic, false);
        assert!(ok.attempted > 0);
        assert_eq!(ok.failed, 0);
        let bad = smoke(Mode::Analytic, true);
        assert!(bad.attempted > 0);
        assert_eq!(bad.failed, bad.attempted);
    }
}
