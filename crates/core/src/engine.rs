//! The offline mode's building blocks: SQL in, probabilistic views out.
//!
//! [`crate::concurrent::SharedEngine`] is the engine. It owns a
//! [`tspdb_probdb::Database`], loads time series as `raw_values`-style
//! tables and executes the paper's SQL-like statements. This module holds
//! what it uses for the Fig. 7 `CREATE VIEW … AS DENSITY …` query: the
//! spec-to-view build over the [`OmegaViewBuilder`], the series ↔ table
//! conversions, and the diagnostics of the last build. This is the
//! "offline mode" of the framework; the "online mode" lives in
//! [`crate::online`].

use crate::builder::{BuildReport, OmegaViewBuilder, ViewBuilderConfig};
use crate::error::CoreError;
use crate::metrics::MetricKind;
use crate::omega::OmegaSpec;
use tspdb_probdb::{
    CmpOp, ColumnType, Conjunction, Database, DbError, DensityViewSpec, ProbTable, Schema, Table,
    Value,
};
use tspdb_timeseries::TimeSeries;

/// Build diagnostics of the most recent `CREATE VIEW … AS DENSITY`. The
/// view itself lives only in the catalog.
#[derive(Debug, Clone)]
pub struct LastBuild {
    /// Name of the created view.
    pub view_name: String,
    /// The builder's diagnostics.
    pub built: BuildReport,
}

/// Fulfils a density-view spec against a database snapshot. It only reads
/// the source table, so [`crate::concurrent::SharedEngine`] runs it under
/// the catalog's *read* lock.
pub(crate) fn build_density_view(
    db: &Database,
    defaults: ViewBuilderConfig,
    spec: &DensityViewSpec,
) -> Result<(ProbTable, BuildReport), CoreError> {
    let source = db.table(&spec.source_table)?;
    let series = table_to_series(source, &spec.time_column, &spec.value_column)?;
    let omega = OmegaSpec::new(spec.delta, spec.n)?;
    let bounds = time_bounds_from_predicate(&spec.predicate, &spec.time_column)?;

    let mut config = defaults;
    if let Some(name) = &spec.metric {
        config.metric = MetricKind::parse(name)?;
    }
    if let Some(w) = spec.window {
        config.window = w;
    }
    OmegaViewBuilder::new(config)?.build(&series, omega, &spec.view_name, bounds)
}

/// Builds the `(t INT, <value_col> FLOAT)` table representation of a time
/// series (see [`crate::concurrent::SharedEngine::load_series`]).
pub(crate) fn series_to_table(
    table_name: &str,
    value_column: &str,
    series: &TimeSeries,
) -> Result<Table, CoreError> {
    let schema = Schema::new(vec![
        ("t".to_string(), ColumnType::Int),
        (value_column.to_string(), ColumnType::Float),
    ]);
    let mut table = Table::new(table_name.to_string(), schema);
    for obs in series.iter() {
        table.insert(vec![Value::Int(obs.time), Value::Float(obs.value)])?;
    }
    Ok(table)
}

/// Converts a `(time, value)` table into a [`TimeSeries`], sorting by the
/// time column.
pub fn table_to_series(
    table: &Table,
    time_column: &str,
    value_column: &str,
) -> Result<TimeSeries, CoreError> {
    let t_idx = table.schema().index_of(time_column)?;
    let v_idx = table.schema().index_of(value_column)?;
    let mut pairs: Vec<(i64, f64)> = Vec::with_capacity(table.len());
    for row in table.rows() {
        let t = row[t_idx].as_i64().ok_or_else(|| {
            CoreError::Db(DbError::TypeMismatch {
                column: time_column.to_string(),
                expected: ColumnType::Int,
                got: row[t_idx].column_type(),
            })
        })?;
        let v = row[v_idx].as_f64().ok_or_else(|| {
            CoreError::Db(DbError::TypeMismatch {
                column: value_column.to_string(),
                expected: ColumnType::Float,
                got: row[v_idx].column_type(),
            })
        })?;
        pairs.push((t, v));
    }
    pairs.sort_by_key(|&(t, _)| t);
    if pairs.windows(2).any(|w| w[0].0 == w[1].0) {
        return Err(CoreError::InvalidConfig(format!(
            "duplicate timestamps in {}.{time_column}",
            table.name()
        )));
    }
    let (timestamps, values): (Vec<i64>, Vec<f64>) = pairs.into_iter().unzip();
    Ok(TimeSeries::from_parts(
        value_column.to_string(),
        timestamps,
        values,
    ))
}

/// Reduces a conjunction over the time column into inclusive `(lo, hi)`
/// bounds. Only comparisons on the time column are allowed in a density
/// view's `WHERE` clause (the paper's queries restrict time intervals).
pub fn time_bounds_from_predicate(
    pred: &Conjunction,
    time_column: &str,
) -> Result<Option<(i64, i64)>, CoreError> {
    if pred.is_empty() {
        return Ok(None);
    }
    let mut lo = i64::MIN;
    let mut hi = i64::MAX;
    for cmp in pred {
        if cmp.column != time_column {
            return Err(CoreError::InvalidConfig(format!(
                "density view WHERE clauses may only reference the time column \
                 {time_column:?}, found {:?}",
                cmp.column
            )));
        }
        let v = cmp
            .value
            .as_i64()
            .or_else(|| cmp.value.as_f64().map(|f| f as i64));
        let v = v.ok_or_else(|| {
            CoreError::InvalidConfig("time predicate literal must be numeric".into())
        })?;
        match cmp.op {
            CmpOp::Ge => lo = lo.max(v),
            CmpOp::Gt => lo = lo.max(v.saturating_add(1)),
            CmpOp::Le => hi = hi.min(v),
            CmpOp::Lt => hi = hi.min(v.saturating_sub(1)),
            CmpOp::Eq => {
                lo = lo.max(v);
                hi = hi.min(v);
            }
            CmpOp::Ne => {
                return Err(CoreError::InvalidConfig(
                    "'!=' is not meaningful for a time interval".into(),
                ))
            }
        }
    }
    Ok(Some((lo, hi)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrent::SharedEngine;
    use crate::metrics::MetricConfig;
    use tspdb_probdb::Comparison;
    use tspdb_timeseries::generate::TemperatureGenerator;

    fn engine_with_series(n: usize) -> SharedEngine {
        let e = SharedEngine::new(ViewBuilderConfig {
            window: 60,
            metric_config: MetricConfig {
                p: 1,
                ..MetricConfig::default()
            },
            ..ViewBuilderConfig::default()
        });
        let s = TemperatureGenerator::default().generate(n);
        e.load_series("raw_values", "r", &s).unwrap();
        e
    }

    #[test]
    fn end_to_end_density_view_via_sql() {
        let e = engine_with_series(150);
        e.execute("CREATE VIEW prob_view AS DENSITY r OVER t OMEGA delta=0.5, n=6 FROM raw_values")
            .unwrap();
        let out = e.execute("SELECT * FROM prob_view LIMIT 6").unwrap();
        let rows = out.prob_rows().unwrap();
        assert_eq!(rows.len(), 6);
        let lb = e.last_build().unwrap();
        assert_eq!(lb.view_name, "prob_view");
        assert_eq!(lb.built.model.len(), 90);
    }

    #[test]
    fn where_clause_limits_time_interval() {
        let e = engine_with_series(200);
        // Timestamps are 0, 120, 240, …; pick an interval covering 5 ticks
        // past the warm-up window of 60 samples (t = 7200 s).
        e.execute(
            "CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=1, n=4 \
             FROM raw_values WHERE t >= 12000 AND t <= 12480",
        )
        .unwrap();
        let catalog = e.read();
        let view = catalog.prob_table("pv").unwrap();
        assert_eq!(view.len(), 5 * 4);
        for (row, _) in view.iter() {
            let t = row[0].as_i64().unwrap();
            assert!((12000..=12480).contains(&t));
        }
    }

    #[test]
    fn using_metric_and_window_override_defaults() {
        let e = engine_with_series(150);
        e.execute(
            "CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=1, n=4 \
             FROM raw_values USING METRIC vt WINDOW 80",
        )
        .unwrap();
        // Window 80 ⇒ 150 − 80 = 70 model rows.
        assert_eq!(e.last_build().unwrap().built.model.len(), 70);
    }

    #[test]
    fn unknown_metric_is_reported() {
        let e = engine_with_series(120);
        let err = e
            .execute(
                "CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=1, n=4 \
                 FROM raw_values USING METRIC bogus",
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::UnknownMetric(_)));
    }

    #[test]
    fn non_time_predicate_is_rejected() {
        let e = engine_with_series(120);
        let err = e
            .execute(
                "CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=1, n=4 \
                 FROM raw_values WHERE r >= 1",
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig(_)));
    }

    #[test]
    fn time_bounds_reduction() {
        let pred = vec![
            Comparison::new("t", CmpOp::Ge, 10i64),
            Comparison::new("t", CmpOp::Le, 20i64),
            Comparison::new("t", CmpOp::Gt, 11i64),
            Comparison::new("t", CmpOp::Lt, 20i64),
        ];
        let bounds = time_bounds_from_predicate(&pred, "t").unwrap();
        assert_eq!(bounds, Some((12, 19)));
        assert_eq!(time_bounds_from_predicate(&Vec::new(), "t").unwrap(), None);
        let eq = vec![Comparison::new("t", CmpOp::Eq, 5i64)];
        assert_eq!(time_bounds_from_predicate(&eq, "t").unwrap(), Some((5, 5)));
        let ne = vec![Comparison::new("t", CmpOp::Ne, 5i64)];
        assert!(time_bounds_from_predicate(&ne, "t").is_err());
    }

    #[test]
    fn table_to_series_sorts_and_validates() {
        let schema = Schema::of(&[("t", ColumnType::Int), ("r", ColumnType::Float)]);
        let mut table = Table::new("raw", schema.clone());
        table
            .insert(vec![Value::Int(3), Value::Float(3.0)])
            .unwrap();
        table
            .insert(vec![Value::Int(1), Value::Float(1.0)])
            .unwrap();
        table
            .insert(vec![Value::Int(2), Value::Float(2.0)])
            .unwrap();
        let s = table_to_series(&table, "t", "r").unwrap();
        assert_eq!(s.values(), &[1.0, 2.0, 3.0]);

        let mut dup = Table::new("raw", schema);
        dup.insert(vec![Value::Int(1), Value::Float(1.0)]).unwrap();
        dup.insert(vec![Value::Int(1), Value::Float(2.0)]).unwrap();
        assert!(table_to_series(&dup, "t", "r").is_err());
    }

    #[test]
    fn ordinary_sql_still_works_through_engine() {
        let e = SharedEngine::default();
        e.execute("CREATE TABLE x (a INT)").unwrap();
        e.execute("INSERT INTO x VALUES (1), (2)").unwrap();
        let out = e.execute("SELECT * FROM x WHERE a > 1").unwrap();
        assert_eq!(out.rows().unwrap().len(), 1);
    }

    #[test]
    fn query_takes_shared_reference_and_rejects_writes() {
        let e = engine_with_series(150);
        e.execute("CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=6 FROM raw_values")
            .unwrap();
        // Read path only.
        let shared: &SharedEngine = &e;
        let out = shared.query("SELECT * FROM pv LIMIT 3").unwrap();
        assert_eq!(out.prob_rows().unwrap().len(), 3);
        // Writes are refused on the read path.
        assert!(shared.query("DROP TABLE raw_values").is_err());
        assert!(shared
            .query("INSERT INTO raw_values VALUES (1, 1.0)")
            .is_err());
        // …and still work through the write path.
        assert!(e.execute("DROP VIEW pv").is_ok());
    }

    #[test]
    fn with_worlds_query_runs_against_a_density_view() {
        let e = engine_with_series(150);
        e.execute("CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=6 FROM raw_values")
            .unwrap();
        e.set_worlds_threads(2);
        let out = e
            .query("SELECT * FROM pv THRESHOLD 0.2 WITH WORLDS 4000 SEED 17")
            .unwrap();
        let w = out.worlds().unwrap();
        assert_eq!(w.worlds, 4000);
        assert_eq!(w.seed, 17);
        assert!(w.matching_tuples > 0);
        // Exact cross-check on the same sub-relation.
        let sub = e
            .query("SELECT * FROM pv THRESHOLD 0.2")
            .unwrap()
            .prob_rows()
            .unwrap()
            .clone();
        let exact = tspdb_probdb::query::event_probability(&sub, &Vec::new()).unwrap();
        assert!(
            (w.event_probability - exact).abs() < 3.0 * w.event_ci_half_width + 1e-3,
            "MC {} vs exact {exact}",
            w.event_probability
        );
    }

    #[test]
    fn aggregate_queries_run_through_the_planner_on_views() {
        let e = engine_with_series(150);
        e.execute("CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=6 FROM raw_values")
            .unwrap();
        // Exact grouped aggregate: E[count | t] = Σ prob over the 6 cells.
        let out = e.query("SELECT t, COUNT(*) FROM pv GROUP BY t").unwrap();
        let agg = out.aggregate().unwrap();
        assert_eq!(agg.strategy, "exact");
        assert_eq!(agg.groups.len(), 90);
        // The MC strategy answers the same plan within tolerance.
        let mc = e
            .query("SELECT COUNT(*) FROM pv WITH WORLDS 4000 SEED 5")
            .unwrap();
        let mc = mc.aggregate().unwrap();
        let exact = e.query("SELECT COUNT(*) FROM pv").unwrap();
        let exact = exact.aggregate().unwrap();
        let tol = 4.0 * mc.groups[0].values[0].ci_half_width.unwrap() + 1e-3;
        assert!(
            (mc.groups[0].values[0].value - exact.groups[0].values[0].value).abs() <= tol,
            "MC {} vs exact {}",
            mc.groups[0].values[0].value,
            exact.groups[0].values[0].value
        );
        // EXPLAIN reports the plan without executing it.
        let report = e
            .execute("EXPLAIN SELECT t, COUNT(*) FROM pv GROUP BY t")
            .unwrap();
        let report = report.explain().unwrap();
        assert!(report.logical.contains("Aggregate [COUNT(*)] GROUP BY t"));
        assert!(report.strategy.starts_with("exact"));
    }

    #[test]
    fn fig1_style_query_on_view() {
        // Downstream probabilistic query over the created view: the most
        // probable range per timestamp (the "which room is Alice in" shape).
        let e = engine_with_series(130);
        e.execute("CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=4 FROM raw_values")
            .unwrap();
        let catalog = e.read();
        let view = catalog.prob_table("pv").unwrap();
        let best = tspdb_probdb::query::most_probable_per_group(view, "t").unwrap();
        assert_eq!(best.len(), 70);
        // The winning cell must be adjacent to the mean (λ ∈ {−1, 0}).
        for (row, _) in best.iter() {
            let lambda = row[1].as_i64().unwrap();
            assert!((-1..=0).contains(&lambda), "winning λ = {lambda}");
        }
    }
}
