//! The persistent storage engine end-to-end: WAL crash points, recovery
//! ≡ never-crashed equivalence, and the determinism-across-media contract
//! (bit-identical fingerprints whether a tuple came from RAM, the page
//! cache, a cold disk read, or a post-crash replay).

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use tspdb::core::storage::{CheckpointCrashPoint, CrashPoint};
use tspdb::probdb::{QueryOutput, Value};
use tspdb::timeseries::generate::TemperatureGenerator;
use tspdb::{MetricConfig, SharedEngine, ViewBuilderConfig};
use tspdb_ingest::{TailEvent, TailRegistry};

/// Minimal self-cleaning temp dir (no external crates in the offline
/// build).
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> TempDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "tspdb-persistence-test-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn config() -> ViewBuilderConfig {
    ViewBuilderConfig {
        window: 60,
        metric_config: MetricConfig {
            p: 1,
            q: 0,
            ..MetricConfig::default()
        },
        ..ViewBuilderConfig::default()
    }
}

fn reopen(dir: &TempDir) -> SharedEngine {
    SharedEngine::open_persistent(dir.path(), config()).unwrap()
}

/// Render-based fingerprint: any drift in values, bits, ordering or
/// probabilities changes the string.
fn fingerprint(out: &QueryOutput) -> String {
    match out {
        QueryOutput::Rows(t) => t.render(usize::MAX),
        QueryOutput::ProbRows(t) => t.render(usize::MAX),
        QueryOutput::Worlds(w) => w.fingerprint(),
        QueryOutput::Aggregate(a) => a.fingerprint(),
        QueryOutput::Explain(e) => e.to_string(),
        QueryOutput::None => "none".to_string(),
    }
}

fn row_count(engine: &SharedEngine, table: &str) -> usize {
    engine
        .query(&format!("SELECT * FROM {table}"))
        .unwrap()
        .rows()
        .unwrap()
        .len()
}

#[test]
fn committed_writes_survive_reopen() {
    let dir = TempDir::new();
    {
        let engine = reopen(&dir);
        engine.execute("CREATE TABLE t (x INT)").unwrap();
        engine
            .execute("INSERT INTO t VALUES (1), (2), (3)")
            .unwrap();
    }
    let engine = reopen(&dir);
    assert_eq!(row_count(&engine, "t"), 3);
    // And the WAL is empty after the boot checkpoint: a second reopen
    // replays nothing and still sees the data.
    drop(engine);
    let engine = reopen(&dir);
    assert_eq!(row_count(&engine, "t"), 3);
}

#[test]
fn wal_crash_points_recover_exactly_the_committed_prefix() {
    let dir = TempDir::new();
    {
        let engine = reopen(&dir);
        engine.execute("CREATE TABLE t (x INT)").unwrap();
        engine.execute("INSERT INTO t VALUES (1)").unwrap();
    }

    // Pre-commit: the dying write never reached the log — it is lost, and
    // the handle is poisoned for everything after it.
    {
        let engine = reopen(&dir);
        engine
            .storage()
            .unwrap()
            .set_crash_point(Some(CrashPoint::PreCommit));
        assert!(engine.execute("INSERT INTO t VALUES (2)").is_err());
        assert!(engine.execute("INSERT INTO t VALUES (3)").is_err());
        // Reads still work on the poisoned engine: the catalog is intact.
        assert_eq!(row_count(&engine, "t"), 1);
    }
    assert_eq!(row_count(&reopen(&dir), "t"), 1);

    // Mid-record: a torn tail on disk. Recovery must detect it via the
    // checksum and discard it.
    {
        let engine = reopen(&dir);
        engine
            .storage()
            .unwrap()
            .set_crash_point(Some(CrashPoint::MidRecord));
        assert!(engine.execute("INSERT INTO t VALUES (2)").is_err());
    }
    assert_eq!(row_count(&reopen(&dir), "t"), 1);

    // Post-commit: the record was written and fsynced before the crash —
    // it is committed, and recovery must redo it even though the dying
    // process never applied it in memory.
    {
        let engine = reopen(&dir);
        engine
            .storage()
            .unwrap()
            .set_crash_point(Some(CrashPoint::PostCommit));
        assert!(engine.execute("INSERT INTO t VALUES (2)").is_err());
        // The dying process never saw the row...
        assert_eq!(row_count(&engine, "t"), 1);
    }
    // ...but recovery replays it.
    assert_eq!(row_count(&reopen(&dir), "t"), 2);
}

/// A fingerprint of a query's outcome, errors included: resident and
/// disk-backed execution must agree on *which* error a query raises too.
fn outcome(engine: &SharedEngine, sql: &str) -> String {
    match engine.query(sql) {
        Ok(out) => fingerprint(&out),
        Err(e) => format!("error: {e}"),
    }
}

/// An Ω-view of 40 cells per timestamp over 300 readings: about 10k
/// tuples, over a hundred leaves on disk.
fn build_wide_view(engine: &SharedEngine) {
    let series = TemperatureGenerator::default().generate(300);
    engine.load_series("raw_values", "r", &series).unwrap();
    engine
        .execute("CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=40 FROM raw_values")
        .unwrap();
}

/// `(min t, max t)` of every leaf of the on-disk `pv`, in leaf order.
fn leaf_time_bounds(engine: &SharedEngine) -> Vec<(i64, i64)> {
    let layout = engine.storage().unwrap().layout("pv").expect("pv on disk");
    layout
        .leaves
        .iter()
        .map(|leaf| {
            let t = leaf.zone.column(0).expect("t is numeric");
            (t.min as i64, t.max as i64)
        })
        .collect()
}

/// The `k` of `EXPLAIN`'s "k of n leaves after pruning" note.
fn explained_leaves(engine: &SharedEngine, sql: &str) -> (usize, usize) {
    let report = fingerprint(&engine.query(&format!("EXPLAIN {sql}")).unwrap());
    let note = report
        .split(", ")
        .find(|part| part.contains(" leaves after pruning"))
        .unwrap_or_else(|| panic!("EXPLAIN must report leaf pruning: {report}"));
    let mut words = note.split_whitespace();
    let k = words.next().unwrap().parse().unwrap();
    assert_eq!(words.next(), Some("of"));
    let n = words.next().unwrap().parse().unwrap();
    (k, n)
}

#[test]
fn disk_backed_scans_are_bit_identical_to_resident_ones() {
    let dir = TempDir::new();
    let engine = reopen(&dir);
    build_wide_view(&engine);
    engine.checkpoint().unwrap();
    let leaves = leaf_time_bounds(&engine);
    assert!(leaves.len() >= 50, "only {} leaves", leaves.len());
    let (first, last) = (leaves[0].0, leaves[leaves.len() - 1].1);
    let mid = leaves.len() / 2;
    let (lo, hi) = leaves[mid];
    let (lo2, hi2) = leaves[mid + 7];

    // Every statement shape, including Monte-Carlo with a pinned seed and
    // the synopsis strategy — the strategies that would expose any drift
    // in tuple bits or ordering — then ranged predicates that prune every
    // leaf, none, and exactly the leaves at a boundary literal.
    let queries = vec![
        "SELECT * FROM raw_values ORDER BY r DESC LIMIT 20".to_string(),
        "SELECT * FROM pv WHERE prob >= 0.1 ORDER BY prob DESC".to_string(),
        "SELECT t, lambda FROM pv THRESHOLD 0.05".to_string(),
        "SELECT COUNT(*) FROM pv GROUP BY WINDOW(t, 25)".to_string(),
        "SELECT * FROM pv WITH WORLDS 500 SEED 42".to_string(),
        "SELECT COUNT(*), SUM(lambda) FROM pv HAVING COUNT(*) >= 2 WITH WORLDS 400 SEED 7"
            .to_string(),
        "SELECT COUNT(*) FROM pv WITH SYNOPSIS".to_string(),
        // Prune every leaf / none.
        format!("SELECT COUNT(*) FROM pv WHERE t > {last}"),
        format!("SELECT COUNT(*) FROM pv WHERE t < {first}"),
        "SELECT COUNT(*) FROM pv WHERE prob > 1.0".to_string(),
        format!("SELECT COUNT(*), SUM(lambda) FROM pv WHERE t >= {first}"),
        format!("SELECT * FROM pv WHERE t <= {last} ORDER BY prob DESC LIMIT 30"),
        // Literals equal to a leaf's min or max keep that leaf.
        format!("SELECT COUNT(*) FROM pv WHERE t = {lo}"),
        format!("SELECT COUNT(*) FROM pv WHERE t = {hi}"),
        format!("SELECT * FROM pv WHERE t >= {lo} AND t <= {hi}"),
        format!("SELECT COUNT(*) FROM pv WHERE t > {hi} AND t < {lo2}"),
        format!("SELECT COUNT(*) FROM pv WHERE t >= {hi} AND t <= {lo2}"),
        format!("SELECT COUNT(*) FROM pv WHERE t <> {lo}"),
        // FLOAT literals against the INT time column, prob and THRESHOLD.
        format!("SELECT COUNT(*) FROM pv WHERE t >= {lo}.5 AND t < {hi2}.0"),
        format!("SELECT COUNT(*) FROM pv WHERE t > {}.999", hi - 1),
        format!("SELECT COUNT(*) FROM pv WHERE t >= {lo} AND prob >= 0.05"),
        format!("SELECT * FROM pv WHERE t >= {lo} AND t < {hi2} THRESHOLD 0.2"),
        format!("SELECT * FROM pv WHERE t >= {lo} THRESHOLD 0.2 TOP 5"),
        "SELECT COUNT(*) FROM pv THRESHOLD 0.999".to_string(),
        // An unresolvable column before a prunable comparison errors; after
        // one, rows are rejected before it is ever evaluated.
        format!("SELECT COUNT(*) FROM pv WHERE bogus > 1 AND t > {last}"),
        format!("SELECT COUNT(*) FROM pv WHERE t > {last} AND bogus > 1"),
        format!("SELECT COUNT(*) FROM pv WHERE t > {hi} AND bogus > 1"),
        format!("SELECT COUNT(*) FROM pv WHERE t > {last} AND bogus > 1 THRESHOLD 0.5"),
        // Ranged Monte-Carlo: sampling follows the restricted tuples.
        format!("SELECT COUNT(*) FROM pv WHERE t >= {lo} AND t < {hi2} WITH WORLDS 300 SEED 9"),
        format!("SELECT lambda FROM pv WHERE t >= {lo} AND t <= {hi} WITH WORLDS 200 SEED 3"),
        format!("SELECT * FROM pv WHERE t >= {lo} THRESHOLD 0.1 TOP 8 WITH WORLDS 100 SEED 5"),
        format!("SELECT bogus FROM pv WHERE nope > 1 AND t > {last} WITH WORLDS 50 SEED 1"),
        format!("SELECT * FROM raw_values WHERE t >= {lo} AND t <= {hi}"),
        // On a deterministic table `prob` is an ordinary (here unknown)
        // column, so it errors before the time comparison could prune.
        format!("SELECT * FROM raw_values WHERE prob > 0.5 AND t > {last}"),
        "SELECT * FROM raw_values WITH WORLDS 10 SEED 1".to_string(),
    ];
    let resident: Vec<String> = queries.iter().map(|q| outcome(&engine, q)).collect();
    // Exactly the five probes written to fail do: two `bogus`
    // comparisons that some row reaches, the WITH WORLDS projection of
    // `bogus`, `prob` on a deterministic table, and WITH WORLDS over one.
    let errors: Vec<&String> = resident.iter().filter(|o| o.starts_with("error")).collect();
    assert_eq!(errors.len(), 5, "{errors:?}");

    // Evict the view: its scans now come from disk through the page
    // cache, behind the same scan leaf. (Evicting checkpoints first, and
    // a checkpoint re-materializes everything — so evict `pv` last.)
    engine.evict_to_disk("raw_values").unwrap();
    engine.evict_to_disk("pv").unwrap();
    let report = engine.query("EXPLAIN SELECT * FROM pv").unwrap();
    let report = fingerprint(&report);
    assert!(
        report.contains("on disk (via scan source)"),
        "explain must show the disk-backed scan: {report}"
    );
    for (q, expected) in queries.iter().zip(&resident) {
        assert_eq!(
            &outcome(&engine, q),
            expected,
            "evicted scan differs for {q}"
        );
    }

    // EXPLAIN reports the pruning the zone maps allow, from the layout.
    let n = leaves.len();
    let touching = |a: i64, b: i64| leaves.iter().filter(|&&(x, y)| x <= b && y >= a).count();
    for (sql, want) in [
        (format!("SELECT COUNT(*) FROM pv WHERE t > {last}"), 0),
        (format!("SELECT COUNT(*) FROM pv WHERE t >= {first}"), n),
        ("SELECT COUNT(*) FROM pv".to_string(), n),
        (
            format!("SELECT COUNT(*) FROM pv WHERE t = {lo}"),
            touching(lo, lo),
        ),
        (
            format!("SELECT COUNT(*) FROM pv WHERE t = {hi}"),
            touching(hi, hi),
        ),
        (
            format!("SELECT COUNT(*) FROM pv WHERE t >= {lo} AND t <= {hi2}"),
            touching(lo, hi2),
        ),
        // A synopsis that answers from the whole relation reads it all.
        ("SELECT COUNT(*) FROM pv WITH SYNOPSIS".to_string(), n),
    ] {
        assert_eq!(explained_leaves(&engine, &sql), (want, n), "{sql}");
    }

    // Cold reboot: pages come from a fresh file read, then the cache.
    drop(engine);
    let engine = reopen(&dir);
    for (q, expected) in queries.iter().zip(&resident) {
        assert_eq!(
            &outcome(&engine, q),
            expected,
            "post-reboot scan differs for {q}"
        );
    }

    // And once more evicted after the reboot — cold disk read path.
    engine.evict_to_disk("pv").unwrap();
    for (q, expected) in queries.iter().zip(&resident) {
        assert_eq!(
            &outcome(&engine, q),
            expected,
            "post-reboot evicted scan differs for {q}"
        );
    }
}

/// Runs `read` and counts the pages it requested through the cache.
fn page_requests<T>(engine: &SharedEngine, read: impl FnOnce() -> T) -> (u64, T) {
    let storage = engine.storage().unwrap();
    let before = storage.cache_stats();
    let out = read();
    let after = storage.cache_stats();
    let requested = (after.hits + after.misses) - (before.hits + before.misses);
    (requested, out)
}

/// Zone maps make a ranged query over an evicted view read only the
/// leaves its `WHERE` can match — whichever read path runs it: a one-shot
/// query, the engine's read method, or a TAIL poll. An unfiltered one
/// requests every leaf, and no interior page, through the page cache. A
/// query an evicted deterministic table must refuse reads no page at all.
#[test]
fn ranged_scans_request_only_the_leaves_their_where_can_match() {
    let dir = TempDir::new();
    let engine = reopen(&dir);
    build_wide_view(&engine);
    let refused = [
        "SELECT * FROM raw_values THRESHOLD 0.5",
        "SELECT * FROM raw_values WITH WORLDS 10 SEED 1",
    ];
    let resident: Vec<String> = refused.iter().map(|q| outcome(&engine, q)).collect();
    // Evict `pv` last: evicting checkpoints first (see above).
    engine.evict_to_disk("raw_values").unwrap();
    engine.evict_to_disk("pv").unwrap();
    let leaves = leaf_time_bounds(&engine);
    let n = leaves.len() as u64;
    let (first, last) = (leaves[0].0, leaves[leaves.len() - 1].1);
    let requests = |sql: &str| page_requests(&engine, || engine.query(sql).unwrap()).0;

    assert_eq!(requests("SELECT COUNT(*) FROM pv"), n);
    let span = last - first;
    let a = first + span / 2;
    let b = a + span / 20;
    let ranged = format!("SELECT COUNT(*) FROM pv WHERE t >= {a} AND t < {b}");
    let one_shot = requests(&ranged);
    assert!(
        one_shot * 10 <= n,
        "a 5% range requested {one_shot} of {n} leaves"
    );
    assert!(one_shot > 0, "the range holds tuples");

    // The engine's one read method, fed a plan from the plan cache.
    let plan = engine.read().plan_read(&ranged).unwrap();
    let (read, _) = page_requests(&engine, || engine.execute_read(&plan, None).unwrap());
    assert_eq!(
        read, one_shot,
        "the read method requested {read} of {n} leaves"
    );

    // A TAIL poll re-runs its ranged standing query the same way.
    let tails = TailRegistry::new();
    tails
        .subscribe_sql(&format!(
            "TAIL SELECT COUNT(*) FROM pv WHERE t >= {a} AND t < {b} GROUP BY WINDOW(t, 1)"
        ))
        .unwrap();
    let (polled, events) = page_requests(&engine, || tails.poll(&engine));
    assert!(!events.is_empty(), "the range closes buckets");
    for event in &events {
        assert!(matches!(event, TailEvent::Frame(_)), "{event:?}");
    }
    assert_eq!(
        polled, one_shot,
        "a TAIL poll requested {polled} of {n} leaves"
    );

    // The deterministic table refuses THRESHOLD and WITH WORLDS before
    // reading a page, with the error it raises when resident.
    for (q, expected) in refused.iter().zip(&resident) {
        assert!(expected.starts_with("error"), "{q}: {expected}");
        assert_eq!(
            page_requests(&engine, || outcome(&engine, q)),
            (0, expected.clone()),
            "{q}"
        );
    }
}

#[test]
fn drop_of_a_checkpointed_relation_stays_dropped() {
    let dir = TempDir::new();
    {
        let engine = reopen(&dir);
        engine.execute("CREATE TABLE t (x INT)").unwrap();
        engine.execute("INSERT INTO t VALUES (1)").unwrap();
        engine.checkpoint().unwrap();
        engine.execute("DROP TABLE t").unwrap();
        // The pages are still in the checkpoint file, but the scan source
        // must not resurrect the relation.
        assert!(engine.query("SELECT * FROM t").is_err());
    }
    let engine = reopen(&dir);
    assert!(
        engine.query("SELECT * FROM t").is_err(),
        "drop must survive recovery"
    );
}

#[test]
fn load_series_is_journaled() {
    let dir = TempDir::new();
    let series = TemperatureGenerator::default().generate(80);
    let expected;
    {
        let engine = reopen(&dir);
        engine.load_series("raw_values", "r", &series).unwrap();
        expected = fingerprint(&engine.query("SELECT * FROM raw_values").unwrap());
    }
    let engine = reopen(&dir);
    let got = fingerprint(&engine.query("SELECT * FROM raw_values").unwrap());
    assert_eq!(
        got, expected,
        "a programmatic load must replay bit-identically"
    );
}

/// Deterministic `(t INT, r FLOAT)` rows continuing a temperature series
/// past its generated prefix — timestamps strictly increase, so appends
/// take the suffix view-maintenance path.
fn synthetic_rows(range: std::ops::Range<i64>) -> Vec<Vec<Value>> {
    range
        .map(|t| {
            vec![
                Value::Int(t),
                Value::Float(20.0 + (t as f64 * 0.37).sin() * 5.0),
            ]
        })
        .collect()
}

/// The crash-point matrix for incremental checkpoints: whichever window of
/// the shadow-write protocol the process dies in — half a data page on
/// disk, all data pages durable but the meta slot not yet committed, or
/// the meta committed but the WAL not yet reset — recovery must equal an
/// engine that never crashed, bit-for-bit, across all three evaluation
/// strategies (exact, Monte-Carlo worlds with a pinned seed, synopsis).
#[test]
fn checkpoint_crash_points_recover_bit_identical_state() {
    let queries = [
        "SELECT * FROM raw_values ORDER BY r DESC LIMIT 20",
        "SELECT * FROM pv WHERE prob >= 0.1 ORDER BY prob DESC",
        "SELECT t, lambda FROM pv THRESHOLD 0.05",
        "SELECT COUNT(*) FROM pv GROUP BY WINDOW(t, 25)",
        "SELECT * FROM pv WITH WORLDS 500 SEED 42",
        "SELECT COUNT(*), SUM(lambda) FROM pv HAVING COUNT(*) >= 2 WITH WORLDS 400 SEED 7",
        "SELECT COUNT(*) FROM pv WITH SYNOPSIS",
    ];
    let series = TemperatureGenerator::default().generate(90);
    for point in [
        CheckpointCrashPoint::MidPage,
        CheckpointCrashPoint::AfterPages,
        CheckpointCrashPoint::AfterMeta,
    ] {
        let dir = TempDir::new();
        {
            let engine = reopen(&dir);
            engine.load_series("raw_values", "r", &series).unwrap();
            engine
                .execute("CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=6 FROM raw_values")
                .unwrap();
            // First checkpoint: full writes, establishes the on-disk base.
            engine.checkpoint().unwrap();
            // Dirty the table again so the dying checkpoint has append
            // pages to write, then die at the injected window.
            engine
                .append_rows("raw_values", synthetic_rows(90..120))
                .unwrap();
            engine
                .storage()
                .unwrap()
                .set_checkpoint_crash_point(Some(point));
            assert!(
                engine.checkpoint().is_err(),
                "{point:?}: the injected crash must surface"
            );
        }
        let recovered = reopen(&dir);
        let twin = SharedEngine::new(config());
        twin.load_series("raw_values", "r", &series).unwrap();
        twin.execute("CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=6 FROM raw_values")
            .unwrap();
        twin.append_rows("raw_values", synthetic_rows(90..120))
            .unwrap();
        for q in &queries {
            assert_eq!(
                fingerprint(&recovered.query(q).unwrap()),
                fingerprint(&twin.query(q).unwrap()),
                "{point:?}: recovery diverged from the never-crashed twin for {q}"
            );
        }
    }
}

/// A checkpointed page whose bytes rot on disk must surface as a
/// checksummed storage error naming the page — never as silently wrong
/// tuples.
#[test]
fn torn_checkpointed_page_is_reported_with_its_page_id() {
    const PAGE_SIZE: usize = 4096;
    const LEAF_TAG: u8 = 4;
    let dir = TempDir::new();
    {
        let engine = reopen(&dir);
        engine.execute("CREATE TABLE t (x INT)").unwrap();
        for chunk in 0..4 {
            let values: Vec<String> = (chunk * 50..(chunk + 1) * 50)
                .map(|v| format!("({v})"))
                .collect();
            engine
                .execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
                .unwrap();
        }
        engine.checkpoint().unwrap();
    }
    // Flip payload bytes inside the first leaf page of the database file.
    let db_file = dir.path().join(tspdb::core::storage::DB_FILE);
    let mut bytes = std::fs::read(&db_file).unwrap();
    let leaf_off = (0..bytes.len())
        .step_by(PAGE_SIZE)
        .find(|&off| bytes[off] == LEAF_TAG)
        .expect("checkpoint file holds at least one leaf page");
    let page_id = (leaf_off / PAGE_SIZE) as u64;
    for delta in 100..108 {
        bytes[leaf_off + delta] ^= 0xFF;
    }
    std::fs::write(&db_file, &bytes).unwrap();

    let err = SharedEngine::open_persistent(dir.path(), config())
        .expect_err("recovery must refuse the corrupt page");
    let msg = format!("{err}");
    assert!(
        msg.contains(&format!("page {page_id}")) && msg.contains("corrupt"),
        "error must name the corrupt page: {msg}"
    );
}

/// Byte offset of page `id` in the database file.
fn page_offset(id: u64) -> usize {
    id as usize * tspdb::core::storage::page::PAGE_SIZE
}

/// Re-seals a page image edited in place: recomputes its CRC-32 over the
/// image with the checksum field zeroed, as the page codec does.
fn reseal(image: &mut [u8]) {
    image[4..8].fill(0);
    let crc = tspdb::core::storage::codec::crc32(image);
    image[4..8].copy_from_slice(&crc.to_be_bytes());
}

/// A leaf that rots inside the range a query reads is still reported by
/// its checksum, page id included; zone maps skip only leaves the range
/// cannot match, so a query elsewhere never touches it.
#[test]
fn corrupt_leaf_inside_the_queried_range_is_reported() {
    let dir = TempDir::new();
    let engine = reopen(&dir);
    build_wide_view(&engine);
    engine.evict_to_disk("pv").unwrap();
    let layout = engine.storage().unwrap().layout("pv").unwrap();
    let leaves = leaf_time_bounds(&engine);
    let mid = leaves.len() / 2;
    let victim = layout.leaves[mid].id;
    {
        use std::io::{Seek, SeekFrom, Write};
        let mut file = std::fs::OpenOptions::new()
            .write(true)
            .open(dir.path().join(tspdb::core::storage::DB_FILE))
            .unwrap();
        file.seek(SeekFrom::Start(page_offset(victim) as u64 + 100))
            .unwrap();
        file.write_all(&[0xA5; 8]).unwrap();
        file.sync_all().unwrap();
    }

    let (lo, hi) = leaves[mid];
    let err = engine
        .query(&format!(
            "SELECT COUNT(*) FROM pv WHERE t >= {lo} AND t <= {hi}"
        ))
        .expect_err("the corrupt leaf lies inside the range");
    let msg = format!("{err}");
    assert!(
        msg.contains(&format!("page {victim}")) && msg.contains("corrupt"),
        "error must name the corrupt page: {msg}"
    );
    let (first_lo, _) = leaves[0];
    let (_, first_hi) = leaves[1];
    assert!(first_hi < lo, "the first leaves lie well before the victim");
    engine
        .query(&format!(
            "SELECT COUNT(*) FROM pv WHERE t >= {first_lo} AND t < {first_hi}"
        ))
        .expect("a range clear of the corrupt leaf never reads it");
}

/// An interior entry whose tuple count no longer adds up to the
/// catalog's row count fails the open, even with a valid checksum.
#[test]
fn tampered_interior_count_fails_the_row_count_check() {
    let dir = TempDir::new();
    let interior = {
        let engine = reopen(&dir);
        build_wide_view(&engine);
        engine.checkpoint().unwrap();
        engine.storage().unwrap().layout("pv").unwrap().interior
    };
    let db_file = dir.path().join(tspdb::core::storage::DB_FILE);
    let mut bytes = std::fs::read(&db_file).unwrap();
    let page = &mut bytes[page_offset(interior[0])..page_offset(interior[0] + 1)];
    // First entry: leaf id (8 bytes), then its tuple count (u32, BE).
    let count_at = tspdb::core::storage::page::HEADER_LEN + 8;
    let count = u32::from_be_bytes(page[count_at..count_at + 4].try_into().unwrap());
    page[count_at..count_at + 4].copy_from_slice(&(count + 1).to_be_bytes());
    reseal(page);
    std::fs::write(&db_file, &bytes).unwrap();

    let err = SharedEngine::open_persistent(dir.path(), config())
        .expect_err("the open must refuse the inconsistent layout");
    let msg = format!("{err}");
    assert!(
        msg.contains("catalog records") && msg.contains("interior entries hold"),
        "error must name the row-count mismatch: {msg}"
    );
}

/// A v2 database file (interior entries without counts or zone maps) is
/// refused with the format-version message, not misread.
#[test]
fn v2_database_file_is_refused_with_the_version_message() {
    let dir = TempDir::new();
    {
        let engine = reopen(&dir);
        engine.execute("CREATE TABLE t (x INT)").unwrap();
        engine.execute("INSERT INTO t VALUES (1)").unwrap();
        engine.checkpoint().unwrap();
    }
    let db_file = dir.path().join(tspdb::core::storage::DB_FILE);
    let mut bytes = std::fs::read(&db_file).unwrap();
    // Both meta slots: payload = magic (8 bytes), then the version (u32).
    let version_at = tspdb::core::storage::page::HEADER_LEN + 8;
    for slot in 0..2 {
        let page = &mut bytes[page_offset(slot)..page_offset(slot + 1)];
        page[version_at..version_at + 4].copy_from_slice(&2u32.to_be_bytes());
        reseal(page);
    }
    std::fs::write(&db_file, &bytes).unwrap();

    let err =
        SharedEngine::open_persistent(dir.path(), config()).expect_err("a v2 file must be refused");
    let msg = format!("{err}");
    assert!(
        msg.contains("database format v2, this build reads v3"),
        "error must give the format versions: {msg}"
    );
}

proptest! {
    /// Random interleavings of append flushes, incremental checkpoints,
    /// evictions and reboots never drift from an in-memory twin that saw
    /// exactly the same appends — the canonical rendering of every query
    /// matches at every step.
    #[test]
    fn interleaved_checkpoints_evictions_and_reboots_track_the_twin(
        steps in proptest::collection::vec(
            (0u32..4, proptest::collection::vec(-100i64..100, 1..6)),
            1..10,
        ),
    ) {
        let dir = TempDir::new();
        let mut engine = reopen(&dir);
        engine.execute("CREATE TABLE t (x INT)").unwrap();
        let twin = SharedEngine::new(config());
        twin.execute("CREATE TABLE t (x INT)").unwrap();
        for (op, vals) in steps {
            match op {
                0 => {
                    let rows: Vec<Vec<Value>> =
                        vals.iter().map(|v| vec![Value::Int(*v)]).collect();
                    engine.append_rows("t", rows.clone()).unwrap();
                    twin.append_rows("t", rows).unwrap();
                }
                1 => engine.checkpoint().unwrap(),
                // Eviction checkpoints first, so later appends resurrect
                // the relation from disk before extending it. Evicting an
                // already-evicted relation reports it unknown (not
                // resident); any other failure is a real bug.
                2 => {
                    if let Err(e) = engine.evict_to_disk("t") {
                        prop_assert!(
                            format!("{e}").contains("unknown table"),
                            "unexpected eviction failure: {}", e
                        );
                    }
                }
                _ => {
                    drop(engine);
                    engine = reopen(&dir);
                }
            }
            for sql in ["SELECT * FROM t", "SELECT COUNT(*) FROM t GROUP BY WINDOW(x, 64)"] {
                prop_assert_eq!(
                    fingerprint(&engine.query(sql).unwrap()),
                    fingerprint(&twin.query(sql).unwrap()),
                    "divergence after op {} at {}", op, sql
                );
            }
        }
    }

    /// Recovery ≡ never-crashed: for any prefix of committed inserts and
    /// any crash point on the next one, the recovered database equals an
    /// in-memory engine that executed exactly the committed prefix and
    /// never crashed.
    #[test]
    fn recovery_equals_never_crashed_state(
        values in proptest::collection::vec(-1_000i64..1_000, 1..16),
        crash_at in 0usize..16,
        point_sel in 0u32..3,
    ) {
        let crash_at = crash_at % values.len();
        let point = match point_sel {
            0 => CrashPoint::PreCommit,
            1 => CrashPoint::MidRecord,
            _ => CrashPoint::PostCommit,
        };

        let dir = TempDir::new();
        {
            let engine = reopen(&dir);
            engine.execute("CREATE TABLE t (x INT)").unwrap();
            for (i, v) in values.iter().enumerate() {
                let stmt = format!("INSERT INTO t VALUES ({v})");
                if i == crash_at {
                    engine.storage().unwrap().set_crash_point(Some(point));
                    prop_assert!(engine.execute(&stmt).is_err());
                    break;
                }
                engine.execute(&stmt).unwrap();
            }
        }
        let recovered = reopen(&dir);
        let got = fingerprint(&recovered.query("SELECT * FROM t").unwrap());

        // The committed prefix: everything before the crash, plus the
        // dying statement itself iff it crashed *after* the WAL fsync.
        let committed = crash_at + usize::from(point == CrashPoint::PostCommit);
        let reference = SharedEngine::new(config());
        reference.execute("CREATE TABLE t (x INT)").unwrap();
        for v in &values[..committed] {
            reference.execute(&format!("INSERT INTO t VALUES ({v})")).unwrap();
        }
        let want = fingerprint(&reference.query("SELECT * FROM t").unwrap());
        prop_assert_eq!(got, want);
    }
}
