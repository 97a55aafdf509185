//! `view_build`: the paper's own pipeline, `CREATE VIEW … AS DENSITY`,
//! run over and over on one seeded temperature series.
//!
//! Two statements alternate. The paper's default (ARMA-GARCH, a coarse Ω
//! lattice) spends most of its time in density inference; the variable-
//! thresholding one with a fine lattice spends most of its time in σ-cache
//! probability generation and catalog registration. No wire and no
//! strategy kernel is involved, so this is the bypass case for every
//! query-path change.

use std::time::{Duration, Instant};
use tspdb_core::{SharedEngine, ViewBuilderConfig};

use crate::common::{self, default_statements, ms, traced, Fixture, LoopResult};
use crate::stats::Samples;
use crate::trace::Tracer;

/// Inference-heavy: the paper's default metric and lattice.
const GARCH_SQL: &str = "CREATE VIEW vb_garch AS DENSITY r OVER t OMEGA delta=0.5, n=6 FROM raw";
/// Generation-heavy: cheap inference, forty Ω cells per timestamp.
const FINE_SQL: &str =
    "CREATE VIEW vb_fine AS DENSITY r OVER t OMEGA delta=0.1, n=40 FROM raw USING METRIC vt";
const VIEWS: [(&str, &str); 2] = [("vb_garch", GARCH_SQL), ("vb_fine", FINE_SQL)];
/// Tail level of the GARCH builds: supported from 34 builds, and a run
/// builds each statement about 45 times.
const TAIL_LEVEL: f64 = 70.0;

/// Sizes of one `view_build` run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Workload seed.
    pub seed: u64,
    /// Readings in the source series.
    pub readings: usize,
    /// Flip the expected fingerprints (tests only).
    pub corrupt: bool,
}

/// A loaded engine plus the fingerprint each statement's first build had.
#[derive(Debug)]
pub struct ViewBuild {
    engine: SharedEngine,
    expected: [u64; 2],
    built: [bool; 2],
    readings: usize,
    times: Vec<i64>,
}

impl ViewBuild {
    /// Loads the series and builds each view once, keeping its fingerprint
    /// as the answer every later build must reproduce.
    pub fn setup(p: Params) -> Result<ViewBuild, String> {
        let series = common::series(p.seed, p.readings);
        let times: Vec<i64> = series.iter().map(|o| o.time).collect();
        let engine = SharedEngine::new(ViewBuilderConfig::default());
        engine
            .load_series("raw", "r", &series)
            .map_err(|e| e.to_string())?;
        let mut expected = [0u64; 2];
        for (slot, (name, sql)) in VIEWS.iter().enumerate() {
            engine.execute(sql).map_err(|e| e.to_string())?;
            expected[slot] = common::view_fingerprint(&engine, name)?;
            if p.corrupt {
                expected[slot] ^= 1;
            }
        }
        Ok(ViewBuild {
            engine,
            expected,
            built: [true; 2],
            readings: p.readings,
            times,
        })
    }

    /// Input sizes for the result record.
    pub fn sizes(&self) -> Vec<(&'static str, String)> {
        let tuples =
            |name| common::relation_len(&self.engine, name).map_or("?".into(), |n| n.to_string());
        vec![
            ("readings", self.readings.to_string()),
            ("garch_view_tuples", tuples("vb_garch")),
            ("fine_view_tuples", tuples("vb_fine")),
        ]
    }

    /// Alternates the two statements until `dur` has passed. Each build is
    /// timed alone; dropping the previous copy and fingerprinting the new
    /// one are not.
    pub fn run(&mut self, dur: Duration, tracer: Option<&Tracer>) -> LoopResult {
        let mut lat: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
        let mut out = LoopResult::default();
        let started = Instant::now();
        let mut i = 0usize;
        while started.elapsed() < dur {
            let slot = i % 2;
            i += 1;
            let (name, sql) = VIEWS[slot];
            out.attempted += 1;
            if self.built[slot] {
                if let Err(e) = self.engine.execute(&format!("DROP VIEW {name}")) {
                    eprintln!("perfbench: drop {name}: {e}");
                    out.failed += 1;
                    continue;
                }
                self.built[slot] = false;
            }
            let t0 = Instant::now();
            let res = traced(tracer, "core.create_view", name, || {
                self.engine.execute(sql)
            });
            let took = t0.elapsed();
            match res {
                Ok(_) => {
                    self.built[slot] = true;
                    lat[slot].push(ms(took));
                    match common::view_fingerprint(&self.engine, name) {
                        Ok(fp) if fp == self.expected[slot] => {}
                        Ok(_) => {
                            eprintln!("perfbench: {name} differs from its first build");
                            out.failed += 1;
                        }
                        Err(e) => {
                            eprintln!("perfbench: fingerprint {name}: {e}");
                            out.failed += 1;
                        }
                    }
                }
                Err(e) => {
                    eprintln!("perfbench: {sql}: {e}");
                    out.failed += 1;
                }
            }
        }
        let wall = started.elapsed().as_secs_f64();
        let [garch, fine] = lat.map(Samples::new);
        out.ops_per_s = (garch.len() + fine.len()) as f64 / wall;
        out.p50_ms = garch.median();
        out.tail_ms = common::tail(&garch, TAIL_LEVEL, "view_build GARCH builds");
        out.aux_p50_ms = fine.median();
        out.name("view_garch_ms", out.p50_ms, "ms");
        out.name("view_fine_ms", out.aux_p50_ms, "ms");
        out.name(format!("view_garch_p{TAIL_LEVEL}_ms"), out.tail_ms, "ms");
        out.name("builds_per_s", out.ops_per_s, "1/s");
        out.name("garch_builds", garch.len() as f64, "count");
        out.name("fine_builds", fine.len() as f64, "count");
        out
    }

    /// The engine and statements the layer probe replays.
    pub fn fixture(&self) -> Fixture<'_> {
        let n = self.times.len();
        let (lo, hi) = (self.times[n / 2], self.times[(n / 2 + 100).min(n - 1)]);
        let step = self.times[1] - self.times[0];
        Fixture {
            engine: &self.engine,
            config: ViewBuilderConfig::default(),
            source: "raw",
            view: "vb_garch",
            view_sql: vec![GARCH_SQL.into(), FINE_SQL.into()],
            statements: default_statements("vb_garch", lo, hi, 64 * step),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_fingerprint_counts_as_failed() {
        let p = Params {
            seed: 3,
            readings: 150,
            corrupt: false,
        };
        let mut ok = ViewBuild::setup(p).unwrap();
        let r = ok.run(Duration::from_millis(200), None);
        assert!(r.attempted >= 2);
        assert_eq!(r.failed, 0);

        let mut bad = ViewBuild::setup(Params { corrupt: true, ..p }).unwrap();
        let r = bad.run(Duration::from_millis(200), None);
        assert!(r.attempted >= 2);
        assert_eq!(r.failed, r.attempted);
    }
}
