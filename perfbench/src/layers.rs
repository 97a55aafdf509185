//! The traced run's per-layer pass: after the workload's traced loop, it
//! calls each layer's public functions from here, inside spans, on the
//! workload's own engine, view and statements (or a twin of them), and
//! turns span self times and layer counters into the per-layer metrics.
//!
//! Every workload gets every number, so a change to one layer shows on
//! the workload that exercises it and stays flat on the ones that do not.

use std::time::{Duration, Instant};
use tspdb_client::Client;
use tspdb_core::{SharedEngine, ViewBuilderConfig};
use tspdb_ingest::{Appender, AppenderConfig, TailRegistry};
use tspdb_probdb::{parse, Database, Planner, Relation, Statement, Value};
use tspdb_storage::{JournalOp, Storage, StorageOptions};
use tspdb_wire::{decode_message, write_frame, Response};

use crate::common::{self, Fixture, Kind, ScratchDir};
use crate::stats::median;
use crate::trace::Tracer;

/// Replays of each row-returning statement (cheap) and of each aggregate.
const POINT_REPS: usize = 10;
const HEAVY_REPS: usize = 3;
/// Append batches timed on the twins.
const APPEND_BATCHES: usize = 5;
const MAINTAIN_BATCHES: usize = 3;
/// Rows per timed append batch: the stream workload's flush size.
const BATCH: usize = crate::stream::BATCH;

/// Per-layer values in the [`crate::metrics::PER_LAYER`] catalogue.
pub type Layers = Vec<(&'static str, f64)>;

fn median_of(durations: &[Duration], scale: f64) -> f64 {
    median(
        &mut durations
            .iter()
            .map(|d| d.as_secs_f64() * scale)
            .collect::<Vec<_>>(),
    )
}

const US: f64 = 1e6;
const MS: f64 = 1e3;

/// Runs every recipe; returns the values plus the number of recipe calls
/// that failed (each is reported on stderr).
pub fn measure(fx: &Fixture, tracer: &Tracer) -> Result<(Layers, u64), String> {
    let mut out: Layers = Vec::new();
    let mut failed = 0u64;
    statements(fx, tracer, &mut out, &mut failed)?;
    let relation = fx
        .engine
        .read()
        .snapshot(fx.view)
        .map_err(|e| e.to_string())?
        .relation;
    register(&relation, tracer, &mut out)?;
    let source_rows = common::table_rows(fx.engine, fx.source)?;
    storage(fx, &relation, &source_rows, tracer, &mut out)?;
    twins(fx, &source_rows, tracer, &mut out)?;
    Ok((out, failed))
}

/// Replays each statement in-process — parse, plan, execute, encode,
/// decode, each its own span under one statement span — and over the
/// wire, and checks `EXPLAIN` for synopsis fallbacks.
fn statements(
    fx: &Fixture,
    tracer: &Tracer,
    out: &mut Layers,
    failed: &mut u64,
) -> Result<(), String> {
    let server = common::start_server(fx.engine)?;
    let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
    let mut bytes = Vec::new();
    let mut overheads = Vec::new();
    let mut fallbacks = 0usize;
    let mut synopses = 0usize;
    for &(kind, ref sql) in &fx.statements {
        let tag = kind.tag();
        let reps = if kind == Kind::Point {
            POINT_REPS
        } else {
            HEAVY_REPS
        };
        for _ in 0..reps {
            let res = tracer.span("probdb.statement", tag, None, |parent| {
                let stmt = tracer
                    .span("probdb.parse", tag, parent, |_| parse(sql))
                    .map_err(|e| e.to_string())?;
                let Statement::Select(sel) = stmt else {
                    return Err(format!("not a SELECT: {sql}"));
                };
                let planned = tracer
                    .span("probdb.plan", tag, parent, |_| Planner::plan(&sel))
                    .map_err(|e| e.to_string())?;
                let result = tracer
                    .span("probdb.execute", tag, parent, |_| {
                        fx.engine.read().execute_planned(&planned)
                    })
                    .map_err(|e| e.to_string())?;
                let mut frame = Vec::new();
                tracer
                    .span("wire.encode", tag, parent, |_| {
                        write_frame(&mut frame, &Response::Result(result))
                    })
                    .map_err(|e| e.to_string())?;
                tracer
                    .span("wire.decode", tag, parent, |_| {
                        decode_message::<Response>(&frame[4..])
                    })
                    .map_err(|e| e.to_string())?;
                Ok::<usize, String>(frame.len())
            });
            match res {
                Ok(n) => bytes.push(n as f64),
                Err(e) => {
                    eprintln!("perfbench: layer replay of {sql}: {e}");
                    *failed += 1;
                }
            }
        }
        let mut wire = Vec::new();
        for _ in 0..reps {
            let t0 = Instant::now();
            let res = tracer.span("server.round_trip", tag, None, |_| client.query(sql));
            wire.push(t0.elapsed().as_secs_f64() * US);
            if let Err(e) = res {
                eprintln!("perfbench: wire replay of {sql}: {e}");
                *failed += 1;
            }
        }
        // Server overhead of this statement: wire latency minus the
        // in-process parse + plan + execute + encode of the same text.
        let inproc: f64 = [
            "probdb.parse",
            "probdb.plan",
            "probdb.execute",
            "wire.encode",
        ]
        .iter()
        .map(|name| median_of(&tracer.self_times(name, Some(tag)), US))
        .sum();
        overheads.push(median(&mut wire) - inproc);
        if kind == Kind::Synopsis {
            synopses += 1;
            match fx.engine.query(&format!("EXPLAIN {sql}")) {
                Ok(o) => {
                    if o.explain()
                        .is_some_and(|r| r.strategy.contains("falls back"))
                    {
                        fallbacks += 1;
                    }
                }
                Err(e) => {
                    eprintln!("perfbench: EXPLAIN {sql}: {e}");
                    *failed += 1;
                }
            }
        }
    }
    let _ = client.close();
    server.shutdown();

    out.push((
        "probdb.parse_us",
        median_of(&tracer.self_times("probdb.parse", None), US),
    ));
    out.push((
        "probdb.plan_us",
        median_of(&tracer.self_times("probdb.plan", None), US),
    ));
    let exec = |kind: Kind, scale| {
        median_of(
            &tracer.self_times("probdb.execute", Some(kind.tag())),
            scale,
        )
    };
    out.push(("probdb.exec_point_us", exec(Kind::Point, US)));
    out.push(("probdb.exact_ms", exec(Kind::Exact, MS)));
    out.push(("probdb.worlds_ms", exec(Kind::Worlds, MS)));
    out.push(("probdb.synopsis_ms", exec(Kind::Synopsis, MS)));
    out.push((
        "probdb.synopsis_fallback_ratio",
        fallbacks as f64 / synopses.max(1) as f64,
    ));
    out.push((
        "wire.encode_us",
        median_of(&tracer.self_times("wire.encode", None), US),
    ));
    out.push((
        "wire.decode_us",
        median_of(&tracer.self_times("wire.decode", None), US),
    ));
    out.push(("wire.response_bytes", median(&mut bytes)));
    out.push(("server.overhead_us", median(&mut overheads)));
    Ok(())
}

/// `register_prob_table` of the workload's view into a fresh database.
fn register(relation: &Relation, tracer: &Tracer, out: &mut Layers) -> Result<(), String> {
    let Relation::Probabilistic(table) = relation else {
        return Err("the fixture view is not probabilistic".into());
    };
    for _ in 0..HEAVY_REPS {
        let mut db = Database::new();
        let copy = table.clone();
        tracer
            .span("probdb.register", "", None, |_| {
                db.register_prob_table(copy)
            })
            .map_err(|e| e.to_string())?;
    }
    out.push((
        "probdb.register_ms",
        median_of(&tracer.self_times("probdb.register", None), MS),
    ));
    Ok(())
}

/// On a scratch store (fsync on): `scan` of the view written there, and
/// `log_batch` of one flush's append. The checkpoint is the workload's
/// own engine's when it is persistent, else a scratch engine's.
fn storage(
    fx: &Fixture,
    relation: &Relation,
    source_rows: &[Vec<Value>],
    tracer: &Tracer,
    out: &mut Layers,
) -> Result<(), String> {
    let dir = ScratchDir::new("probe-store").map_err(|e| e.to_string())?;
    let (store, _) =
        Storage::open(dir.path(), StorageOptions::default()).map_err(|e| e.to_string())?;
    store
        .checkpoint(std::slice::from_ref(relation))
        .map_err(|e| e.to_string())?;
    let before = store.cache_stats();
    for _ in 0..HEAVY_REPS {
        tracer
            .span("storage.scan", "", None, |_| store.scan(fx.view))
            .map_err(|e| e.to_string())?;
    }
    let after = store.cache_stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    out.push((
        "storage.scan_ms",
        median_of(&tracer.self_times("storage.scan", None), MS),
    ));
    out.push((
        "storage.page_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    ));
    out.push((
        "storage.pages_read_per_query",
        misses as f64 / HEAVY_REPS as f64,
    ));

    let batch: Vec<Vec<Value>> = source_rows.iter().take(BATCH).cloned().collect();
    for _ in 0..10 {
        let ops = [JournalOp::AppendRows {
            table: fx.source.to_string(),
            rows: batch.clone(),
            probs: None,
        }];
        tracer
            .span("storage.wal_commit", "", None, |_| store.log_batch(&ops))
            .map_err(|e| e.to_string())?;
    }
    out.push((
        "storage.wal_commit_ms",
        median_of(&tracer.self_times("storage.wal_commit", None), MS),
    ));
    drop(store);

    if fx.engine.storage().is_some() {
        tracer
            .span("storage.checkpoint", "", None, |_| fx.engine.checkpoint())
            .map_err(|e| e.to_string())?;
    } else {
        let dir = ScratchDir::new("probe-checkpoint").map_err(|e| e.to_string())?;
        let engine =
            SharedEngine::open_persistent(dir.path(), fx.config).map_err(|e| e.to_string())?;
        load(&engine, fx.source, source_rows)?;
        engine.execute(&fx.view_sql[0]).map_err(|e| e.to_string())?;
        tracer
            .span("storage.checkpoint", "", None, |_| engine.checkpoint())
            .map_err(|e| e.to_string())?;
    }
    out.push((
        "storage.checkpoint_ms",
        median_of(&tracer.self_times("storage.checkpoint", None), MS),
    ));
    Ok(())
}

/// An in-memory engine holding a copy of the source table.
fn twin(
    config: ViewBuilderConfig,
    source: &str,
    rows: &[Vec<Value>],
) -> Result<SharedEngine, String> {
    let engine = SharedEngine::new(config);
    load(&engine, source, rows)?;
    Ok(engine)
}

fn load(engine: &SharedEngine, source: &str, rows: &[Vec<Value>]) -> Result<(), String> {
    engine
        .execute(&format!("CREATE TABLE {source} (t INT, r FLOAT)"))
        .map_err(|e| e.to_string())?;
    engine
        .append_rows(source, rows.to_vec())
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// The view name a `CREATE VIEW <name> …` statement creates.
fn view_name(sql: &str) -> &str {
    sql.split_whitespace().nth(2).unwrap_or_default()
}

/// The timestamp of a source row.
fn time_of(row: &[Value]) -> i64 {
    match row.first() {
        Some(Value::Int(t)) => *t,
        _ => 0,
    }
}

/// The spacing of the source's timestamps.
fn time_step(rows: &[Vec<Value>]) -> i64 {
    match rows {
        [a, b, ..] => time_of(b) - time_of(a),
        _ => 1,
    }
}

/// `count` rows continuing the source past its last timestamp.
fn next_rows(rows: &[Vec<Value>], from: usize, count: usize) -> Vec<Vec<Value>> {
    let last = rows.last().map_or(0, |r| time_of(r));
    let step = time_step(rows);
    (from..from + count)
        .map(|i| {
            let mut row = rows[i % rows.len()].clone();
            row[0] = Value::Int(last + step * (i as i64 + 1));
            row
        })
        .collect()
}

/// Density inference, generation and the σ-cache from builds of the
/// workload's view statements on a twin; apply, view maintenance and TAIL
/// polling from group commits of one flush's rows on twins without and
/// with the dependent view.
fn twins(
    fx: &Fixture,
    rows: &[Vec<Value>],
    tracer: &Tracer,
    out: &mut Layers,
) -> Result<(), String> {
    let with_view = twin(fx.config, fx.source, rows)?;
    let mut infer = Vec::new();
    let mut generate = Vec::new();
    let (mut hits, mut lookups) = (0u64, 0u64);
    let last = fx.view_sql.len() - 1;
    for (i, sql) in fx.view_sql.iter().enumerate() {
        for _ in 0..2 {
            tracer
                .span("core.create_view", "", None, |_| with_view.execute(sql))
                .map_err(|e| e.to_string())?;
            let built = with_view.last_build().ok_or("no build diagnostics")?.built;
            if i == 0 {
                infer.push(built.inference_time);
            }
            if i == last {
                generate.push(built.generation_time);
                if let Some(stats) = built.cache_stats {
                    hits += stats.hits;
                    lookups += stats.total();
                }
            }
            with_view
                .execute(&format!("DROP VIEW {}", view_name(sql)))
                .map_err(|e| e.to_string())?;
        }
    }
    out.push(("models.infer_ms", median_of(&infer, MS)));
    out.push(("core.generate_ms", median_of(&generate, MS)));
    out.push(("core.sigma_hit_ratio", hits as f64 / lookups.max(1) as f64));

    // Apply alone, with TAIL polled after every group commit.
    let plain = twin(fx.config, fx.source, rows)?;
    let registry = TailRegistry::new();
    registry
        .subscribe_sql(&format!(
            "TAIL SELECT COUNT(*), SUM(r) FROM {} GROUP BY WINDOW(t, {})",
            fx.source,
            BATCH as i64 * time_step(rows)
        ))
        .map_err(|e| e.to_string())?;
    registry.poll(&plain);
    let config = AppenderConfig {
        max_rows: BATCH,
        max_delay: Duration::from_secs(3600),
    };
    let mut appender = Appender::new(plain.clone(), config);
    let mut polls_with_frames = Vec::new();
    for b in 0..APPEND_BATCHES {
        let batch = next_rows(rows, b * BATCH, BATCH);
        tracer
            .span("core.apply", "", None, |_| {
                batch
                    .into_iter()
                    .try_for_each(|row| appender.append(fx.source, row).map(|_| ()))
            })
            .map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let events = tracer.span("ingest.tail_poll", "", None, |_| registry.poll(&plain));
        if !events.is_empty() {
            polls_with_frames.push(t0.elapsed());
        }
    }
    let stats = appender.stats();
    let apply_ms = median_of(&tracer.self_times("core.apply", None), MS);
    out.push(("core.apply_ms", apply_ms));
    out.push((
        "ingest.tail_poll_ms",
        median_of(&tracer.self_times("ingest.tail_poll", None), MS),
    ));
    out.push(("ingest.tail_lag_ms", median_of(&polls_with_frames, MS)));
    out.push((
        "ingest.rows_per_flush",
        stats.rows as f64 / stats.flushes.max(1) as f64,
    ));

    // The same commits with the dependent view in place.
    with_view
        .execute(&fx.view_sql[0])
        .map_err(|e| e.to_string())?;
    let mut appender = Appender::new(with_view.clone(), config);
    for b in 0..MAINTAIN_BATCHES {
        let batch = next_rows(rows, b * BATCH, BATCH);
        tracer
            .span("core.apply_with_view", "", None, |_| {
                batch
                    .into_iter()
                    .try_for_each(|row| appender.append(fx.source, row).map(|_| ()))
            })
            .map_err(|e| e.to_string())?;
    }
    let with_view_ms = median_of(&tracer.self_times("core.apply_with_view", None), MS);
    out.push(("core.view_maintain_ms", with_view_ms - apply_ms));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_rows_continue_the_time_axis() {
        let rows: Vec<Vec<Value>> = (0..3)
            .map(|i| vec![Value::Int(i * 120), Value::Float(i as f64)])
            .collect();
        let next = next_rows(&rows, 0, 4);
        let times: Vec<i64> = next
            .iter()
            .map(|r| match r[0] {
                Value::Int(t) => t,
                _ => -1,
            })
            .collect();
        assert_eq!(times, vec![360, 480, 600, 720]);
        assert_eq!(next[3][1], Value::Float(0.0));
        assert_eq!(view_name("CREATE VIEW pv AS DENSITY r OVER t"), "pv");
    }
}
