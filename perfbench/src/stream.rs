//! `stream_ingest`: group-committed appends beside reads on a persistent,
//! fsync-on data directory.
//!
//! One [`Appender`] lands rows as fast as it can, flushing every
//! [`BATCH`] rows (size-triggered only). The rows go into a source table
//! with one dependent Ω-view built with the default configuration, so
//! every flush also maintains that view. One wire connection holds a
//! `TAIL … GROUP BY WINDOW` subscription on the source and, between
//! frames, reads the newest part of the view. Both loops are closed: the
//! appender waits for each group commit, the reader for each answer.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tspdb_client::{Client, TailId, TailNotice};
use tspdb_core::{SharedEngine, ViewBuilderConfig};
use tspdb_ingest::{Appender, AppenderConfig};
use tspdb_probdb::{QueryOutput, Value};
use tspdb_server::ServerHandle;
use tspdb_wire::canonical_result_bytes;

use crate::common::{self, default_statements, ms, Fixture, LoopResult, ScratchDir};
use crate::stats::Samples;
use crate::trace::Tracer;

/// Rows per group commit: the flush policy, size-triggered only.
pub const BATCH: usize = 64;
/// TAIL window width, in timestamps (one row per timestamp).
const BUCKET: i64 = 64;
const TABLE_SQL: &str = "CREATE TABLE stream (t INT, r FLOAT)";
const VIEW_SQL: &str = "CREATE VIEW sv AS DENSITY r OVER t OMEGA delta=0.5, n=6 FROM stream";
const TAIL_SQL: &str = "TAIL SELECT COUNT(*), SUM(r) FROM stream GROUP BY WINDOW(t, 64)";
const ONESHOT_SQL: &str = "SELECT COUNT(*), SUM(r) FROM stream GROUP BY WINDOW(t, 64)";
/// Timestamps a view read covers, back from the newest.
const READ_SPAN: i64 = 512;
/// Ω cells per timestamp in the view (`n=6`).
const CELLS: f64 = 6.0;
/// Distinct readings generated; later timestamps reuse them cyclically.
const VALUES: usize = 16_384;
/// The appender's think time after each group commit. Without it the
/// appender re-takes the catalog write lock before a reader woken by its
/// release runs, every time, and view reads starve for seconds (two reads
/// in ten seconds, measured); with it, each flush is followed by a window
/// in which several reads complete.
const THINK_TIME: Duration = Duration::from_millis(30);

/// Sizes of one `stream_ingest` run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Workload seed.
    pub seed: u64,
    /// Rows in the source table before the view is created.
    pub initial_rows: usize,
    /// Flip the expected TAIL frames (tests only).
    pub corrupt: bool,
}

/// A received TAIL frame.
#[derive(Debug)]
struct Frame {
    bucket: f64,
    fingerprint: String,
    received: Instant,
}

/// The persistent engine, its server, and the TAIL subscriber.
#[derive(Debug)]
pub struct Stream {
    engine: SharedEngine,
    server: Option<ServerHandle>,
    subscriber: Option<(Client, TailId)>,
    values: Vec<f64>,
    initial_rows: usize,
    next_t: i64,
    frames: Vec<Frame>,
    corrupt: bool,
    _dir: ScratchDir,
}

impl Stream {
    /// Creates the source table with its initial rows and the dependent
    /// view, starts the server and subscribes, and takes in the frames of
    /// the buckets the initial rows already closed.
    pub fn setup(p: Params) -> Result<Stream, String> {
        let dir = ScratchDir::new("stream_ingest").map_err(|e| e.to_string())?;
        let engine = SharedEngine::open_persistent(dir.path(), ViewBuilderConfig::default())
            .map_err(|e| e.to_string())?;
        let values: Vec<f64> = common::series(p.seed, VALUES)
            .iter()
            .map(|o| o.value)
            .collect();
        engine.execute(TABLE_SQL).map_err(|e| e.to_string())?;
        let rows = (0..p.initial_rows as i64)
            .map(|t| row(&values, t))
            .collect();
        engine
            .append_rows("stream", rows)
            .map_err(|e| e.to_string())?;
        engine.execute(VIEW_SQL).map_err(|e| e.to_string())?;
        let server = common::start_server(&engine)?;
        let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
        let tail = client.tail(TAIL_SQL).map_err(|e| e.to_string())?;
        let mut s = Stream {
            engine,
            server: Some(server),
            subscriber: None,
            values,
            initial_rows: p.initial_rows,
            next_t: p.initial_rows as i64,
            frames: Vec::new(),
            corrupt: p.corrupt,
            _dir: dir,
        };
        let history = closed_buckets(s.next_t) as usize;
        while s.frames.len() < history {
            if !take_one(&mut client, &mut s.frames, Duration::from_secs(5))? {
                return Err("TAIL history did not arrive".into());
            }
        }
        s.subscriber = Some((client, tail));
        Ok(s)
    }

    /// Input sizes for the result record.
    pub fn sizes(&self) -> Vec<(&'static str, String)> {
        vec![
            ("initial_rows", self.initial_rows.to_string()),
            ("rows_per_commit", BATCH.to_string()),
            ("tail_window_rows", BUCKET.to_string()),
        ]
    }

    /// Appends for `dur` while the subscriber reads, then checks the row
    /// count, every TAIL frame, and the view against a rebuild.
    pub fn run(&mut self, dur: Duration, tracer: Option<&Tracer>) -> LoopResult {
        let (mut client, tail) = self
            .subscriber
            .take()
            .expect("subscriber kept between runs");
        let first_frame = self.frames.len();
        let stop = AtomicBool::new(false);
        let latest = AtomicI64::new(self.next_t - 1);
        // (first t, last t, start, end) of every group commit.
        let flushes: Mutex<Vec<(i64, i64, Instant, Instant)>> = Mutex::new(Vec::new());
        let mut commits = Vec::new();
        let mut rows_per_flush = f64::NAN;
        let started = Instant::now();
        let mut appended = 0usize;
        let mut failed = 0u64;
        let mut attempted = 0u64;

        let reader = std::thread::scope(|scope| {
            let reader =
                scope.spawn(|| read_loop(&mut client, &stop, &latest, &mut self.frames, tracer));
            let mut appender = Appender::new(
                self.engine.clone(),
                AppenderConfig {
                    max_rows: BATCH,
                    max_delay: Duration::from_secs(3600),
                },
            );
            while started.elapsed() < dur {
                let first = self.next_t;
                let t0 = Instant::now();
                attempted += 1;
                let res = common::traced(tracer, "ingest.commit", "", || {
                    let mut flushed = 0;
                    for t in first..first + BATCH as i64 {
                        flushed += appender.append("stream", row(&self.values, t))?;
                    }
                    Ok::<usize, tspdb_core::CoreError>(flushed)
                });
                let end = Instant::now();
                self.next_t += BATCH as i64;
                match res {
                    Ok(n) if n == BATCH => {
                        appended += n;
                        commits.push(ms(end - t0));
                        flushes.lock().expect("flush list poisoned").push((
                            first,
                            self.next_t - 1,
                            t0,
                            end,
                        ));
                        latest.store(self.next_t - 1, Ordering::SeqCst);
                        std::thread::sleep(THINK_TIME);
                    }
                    Ok(n) => {
                        eprintln!("perfbench: a {BATCH}-row batch flushed {n} rows");
                        failed += 1;
                    }
                    Err(e) => {
                        eprintln!("perfbench: append: {e}");
                        failed += 1;
                    }
                }
            }
            let stats = appender.stats();
            rows_per_flush = stats.rows as f64 / stats.flushes.max(1) as f64;
            stop.store(true, Ordering::SeqCst);
            reader.join().expect("reader thread panicked")
        });
        let wall = started.elapsed().as_secs_f64();
        let (reads, read_failures) = match reader {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: reader: {e}");
                (Vec::new(), 1)
            }
        };
        attempted += reads.len() as u64 + read_failures;
        failed += read_failures;

        let flushes = flushes.into_inner().expect("flush list poisoned");
        let lags: Vec<f64> = self.frames[first_frame..]
            .iter()
            .filter_map(|f| {
                let closing = f.bucket as i64 + BUCKET;
                flushes
                    .iter()
                    .find(|(lo, hi, _, _)| (*lo..=*hi).contains(&closing))
                    .map(|(_, _, _, end)| ms(f.received.saturating_duration_since(*end)))
            })
            .collect();

        let (checked, wrong) = self.verify();
        attempted += checked;
        failed += wrong;
        self.subscriber = Some((client, tail));

        // A read sent while a group commit holds the write lock waits it
        // out; the others cost only the read itself. Their medians are
        // steadier than any percentile of the mixture, whose share of
        // waiting reads moves with how fast the reads run.
        let (waiting, free): (Vec<(Instant, f64)>, Vec<_>) = reads
            .iter()
            .copied()
            .partition(|(sent, _)| flushes.iter().any(|(_, _, s, e)| (*s..=*e).contains(sent)));
        let [waiting, free] =
            [waiting, free].map(|r| Samples::new(r.iter().map(|&(_, took)| took).collect()));
        let commits = Samples::new(commits);
        let reads = Samples::new(reads.into_iter().map(|(_, took)| took).collect());
        let lags = Samples::new(lags);
        let mut out = LoopResult {
            attempted,
            failed,
            ops_per_s: appended as f64 / wall,
            p50_ms: commits.median(),
            tail_ms: waiting.median(),
            aux_p50_ms: free.median(),
            ..LoopResult::default()
        };
        out.name("ingest_rows_s", out.ops_per_s, "1/s");
        out.name("commit_p50_ms", out.p50_ms, "ms");
        out.name("tail_lag_p50_ms", lags.median(), "ms");
        out.name("read_p50_ms", reads.median(), "ms");
        out.name("read_p90_ms", reads.percentile(90.0), "ms");
        out.name("read_waiting_p50_ms", out.tail_ms, "ms");
        out.name("read_free_p50_ms", out.aux_p50_ms, "ms");
        out.name("commits", commits.len() as f64, "count");
        out.name("reads", reads.len() as f64, "count");
        out.name("reads_waiting", waiting.len() as f64, "count");
        out.name("tail_frames", lags.len() as f64, "count");
        out.layer.push(("ingest.rows_per_flush", rows_per_flush));
        out.layer.push(("ingest.tail_lag_ms", lags.median()));
        out
    }

    /// Post-run checks, each one attempted operation: the source holds
    /// every appended row; every TAIL frame equals the one-shot windowed
    /// query's group for its bucket, buckets arrive in order and none is
    /// missing; the maintained view equals a rebuild over the same rows.
    fn verify(&self) -> (u64, u64) {
        let mut checked = 0u64;
        let mut wrong = 0u64;
        let mut check = |ok: bool, what: &str| {
            checked += 1;
            if !ok {
                wrong += 1;
                eprintln!("perfbench: stream_ingest check failed: {what}");
            }
        };

        let rows = common::relation_len(&self.engine, "stream");
        check(rows == Some(self.next_t as usize), "source row count");

        let oneshot = self.engine.query(ONESHOT_SQL).ok();
        let groups = oneshot.as_ref().and_then(QueryOutput::aggregate);
        let expected: Vec<(f64, String)> = closed_frames(groups, self.next_t, self.corrupt);
        check(
            self.frames.len() == expected.len(),
            "one TAIL frame per closed bucket",
        );
        for (got, want) in self.frames.iter().zip(&expected) {
            check(
                got.bucket.to_bits() == want.0.to_bits() && got.fingerprint == want.1,
                "TAIL frame equals the one-shot query",
            );
        }

        let twin = SharedEngine::new(ViewBuilderConfig::default());
        let rebuilt = twin
            .execute(TABLE_SQL)
            .and_then(|_| {
                twin.append_rows(
                    "stream",
                    (0..self.next_t).map(|t| row(&self.values, t)).collect(),
                )
            })
            .and_then(|_| twin.execute(VIEW_SQL));
        let probe = "SELECT * FROM sv";
        let same = rebuilt.is_ok()
            && match (self.engine.query(probe), twin.query(probe)) {
                (Ok(a), Ok(b)) => canonical_result_bytes(&a) == canonical_result_bytes(&b),
                _ => false,
            };
        check(same, "maintained view equals a rebuild");
        (checked, wrong)
    }

    /// The engine and statements the layer probe replays.
    pub fn fixture(&self) -> Fixture<'_> {
        let hi = self.next_t;
        Fixture {
            engine: &self.engine,
            config: ViewBuilderConfig::default(),
            source: "stream",
            view: "sv",
            view_sql: vec![VIEW_SQL.into()],
            statements: default_statements("sv", (hi - 100).max(0), hi, BUCKET),
        }
    }

    /// Ends the subscription and stops the server.
    pub fn shutdown(&mut self) {
        if let Some((mut client, tail)) = self.subscriber.take() {
            let _ = client.tail_stop(tail);
            let _ = client.close();
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Drop for Stream {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The reading at timestamp `t`.
fn row(values: &[f64], t: i64) -> Vec<Value> {
    vec![
        Value::Int(t),
        Value::Float(values[t as usize % values.len()]),
    ]
}

/// Buckets closed once rows `0..rows` exist: every bucket below the one
/// holding the last row.
fn closed_buckets(rows: i64) -> i64 {
    if rows == 0 {
        0
    } else {
        (rows - 1) / BUCKET
    }
}

/// The frames the one-shot query says should have arrived: one per closed
/// bucket, its groups' fingerprint.
fn closed_frames(
    agg: Option<&tspdb_probdb::AggregateResult>,
    rows: i64,
    corrupt: bool,
) -> Vec<(f64, String)> {
    let Some(agg) = agg else {
        return Vec::new();
    };
    (0..closed_buckets(rows))
        .map(|k| {
            let bucket = (k * BUCKET) as f64;
            let mut one = agg.clone();
            one.groups.retain(|g| {
                g.key.first().and_then(Value::as_f64).map(f64::to_bits) == Some(bucket.to_bits())
            });
            let mut fingerprint = one.fingerprint();
            if corrupt {
                fingerprint.push('!');
            }
            (bucket, fingerprint)
        })
        .collect()
}

/// Takes in one pushed TAIL notice, waiting up to `wait`; returns whether
/// one arrived.
fn take_one(client: &mut Client, frames: &mut Vec<Frame>, wait: Duration) -> Result<bool, String> {
    match client.tail_next(Some(wait)).map_err(|e| e.to_string())? {
        Some(TailNotice::Frame(f)) => {
            frames.push(Frame {
                bucket: f.bucket,
                fingerprint: f.result.fingerprint(),
                received: Instant::now(),
            });
            Ok(true)
        }
        Some(TailNotice::Stopped { reason, .. }) => Err(format!("TAIL stopped: {reason}")),
        None => Ok(false),
    }
}

/// Takes in pushed TAIL notices until none arrives within `wait`.
fn pump(client: &mut Client, frames: &mut Vec<Frame>, wait: Duration) -> Result<(), String> {
    while take_one(client, frames, wait)? {}
    Ok(())
}

/// The subscriber connection: take in frames, then read the view's newest
/// [`READ_SPAN`] timestamps; repeat until stopped. Returns when each read was
/// sent with its latency, and the number of failed reads.
fn read_loop(
    client: &mut Client,
    stop: &AtomicBool,
    latest: &AtomicI64,
    frames: &mut Vec<Frame>,
    tracer: Option<&Tracer>,
) -> Result<(Vec<(Instant, f64)>, u64), String> {
    let mut reads = Vec::new();
    let mut failed = 0u64;
    let mut read = |client: &mut Client| {
        let lo = latest.load(Ordering::SeqCst) - READ_SPAN;
        let sql = format!("SELECT COUNT(*), SUM(lambda) FROM sv WHERE t >= {lo}");
        let t0 = Instant::now();
        let res = common::traced(tracer, "wire.query", "read", || client.query(&sql));
        let took = ms(t0.elapsed());
        // The view changes under the reader, so the answer is checked for
        // shape: one exact group whose expected count is at most the
        // tuples the asked range can hold.
        let most = (READ_SPAN + 1) as f64 * CELLS;
        let ok = match res {
            Ok(QueryOutput::Aggregate(a)) => {
                a.strategy == "exact"
                    && a.groups.len() == 1
                    && a.groups[0]
                        .values
                        .first()
                        .is_some_and(|c| (0.0..=most).contains(&c.value))
            }
            Ok(other) => {
                eprintln!("perfbench: view read answered {}", other.variant_name());
                false
            }
            Err(e) => {
                eprintln!("perfbench: view read: {e}");
                false
            }
        };
        reads.push((t0, took));
        if !ok {
            failed += 1;
        }
    };
    while !stop.load(Ordering::SeqCst) {
        pump(client, frames, Duration::from_millis(1))?;
        read(client);
    }
    // Workers poll TAIL after each request: one more read pushes the
    // frame the last flush closed.
    read(client);
    pump(client, frames, Duration::from_millis(300))?;
    Ok((reads, failed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(corrupt: bool) -> LoopResult {
        let mut s = Stream::setup(Params {
            seed: 9,
            initial_rows: 130,
            corrupt,
        })
        .unwrap();
        let r = s.run(Duration::from_millis(400), None);
        s.shutdown();
        r
    }

    #[test]
    fn corrupted_tail_frames_count_as_failed() {
        let ok = smoke(false);
        assert!(ok.attempted > 0);
        assert_eq!(ok.failed, 0);
        let bad = smoke(true);
        assert!(bad.failed > 0);
    }

    #[test]
    fn closed_buckets_follow_the_watermark_rule() {
        assert_eq!(closed_buckets(0), 0);
        assert_eq!(closed_buckets(64), 0);
        assert_eq!(closed_buckets(65), 1);
        assert_eq!(closed_buckets(300), 4);
    }
}
