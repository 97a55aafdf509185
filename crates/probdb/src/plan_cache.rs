//! Shared, generation-keyed plan cache.
//!
//! Planning is a pure function of the `SELECT` statement, so one planned
//! query can serve every session that submits the same statement. The
//! catalog owns one `PlanCache` and keys it two ways:
//!
//! * the **raw statement text**, so an exact textual repeat skips the
//!   parser entirely, and
//! * the **normalized text** (`SelectStmt`'s `Display`, which the parser
//!   round-trips), so textual variants of one statement — spacing, case
//!   of keywords — share a single cached plan across sessions.
//!
//! Entries hold immutable [`Arc<PlannedQuery>`] snapshots in the σ-cache
//! idiom: the mutex only guards the index, never a plan, and a hit is an
//! `Arc` clone executed entirely outside the lock. Every entry records
//! the catalog **DDL generation** it was planned under; any DDL bumps the
//! generation, and lookups lazily evict entries from older generations.
//! Tuple-only writes (INSERT, the streaming append path) bump a separate
//! *data* generation instead, so a hot statement stays planned across a
//! stream of appends — today's planner never reads the catalog, so a plan
//! over new tuples is exactly the plan over the old ones.
//!
//! At capacity the cache evicts per entry rather than clearing whole: the
//! victim is the entry with the fewest recorded hits (breaking ties
//! towards the least-recently-used), so a one-off statement storm cannot
//! wash out the standing hot set the way the old clear-on-full policy did.

use crate::plan::PlannedQuery;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Entry cap; reaching it evicts the coldest entry (fewest hits, then
/// least recently used) to make room.
const PLAN_CACHE_CAPACITY: usize = 1024;

/// Counters describing plan-cache effectiveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Statements that had to be planned fresh.
    pub misses: u64,
    /// Entries evicted because the catalog generation moved on.
    pub invalidations: u64,
    /// Entries evicted at capacity to make room (coldest-first).
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

#[derive(Debug)]
struct CachedPlan {
    plan: Arc<PlannedQuery>,
    generation: u64,
    /// Hits this entry has served — the primary eviction key.
    hits: u64,
    /// Logical clock tick of the last touch — the LRU tie-break.
    last_used: u64,
}

/// The cache itself. Interior-mutable so read-locked catalog handles can
/// record hits and insert fresh plans.
#[derive(Debug, Default)]
pub(crate) struct PlanCache {
    inner: Mutex<HashMap<String, CachedPlan>>,
    /// Logical clock: bumped on every touch, stamped into entries.
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    evictions: AtomicU64,
}

impl PlanCache {
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Returns the plan cached under `key` if it was planned at
    /// `generation`; lazily evicts (and counts) stale entries. A hit
    /// bumps the entry's hit count and recency stamp.
    pub(crate) fn lookup(&self, key: &str, generation: u64) -> Option<Arc<PlannedQuery>> {
        let now = self.tick();
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        match inner.get_mut(key) {
            Some(cached) if cached.generation == generation => {
                cached.hits += 1;
                cached.last_used = now;
                let plan = Arc::clone(&cached.plan);
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(plan)
            }
            Some(_) => {
                inner.remove(key);
                drop(inner);
                self.invalidations.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => None,
        }
    }

    /// Records that a statement had to be planned fresh.
    pub(crate) fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Stores `plan` under every key in `keys` at `generation`, evicting
    /// the coldest entries first when the cache is full. The O(n) victim
    /// scan only runs on the miss path, which already paid for a parse
    /// and a plan; hits never touch it.
    pub(crate) fn insert(&self, keys: &[&str], plan: &Arc<PlannedQuery>, generation: u64) {
        let now = self.tick();
        let mut evicted = 0u64;
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        for key in keys {
            while inner.len() >= PLAN_CACHE_CAPACITY && !inner.contains_key(*key) {
                let victim = inner
                    .iter()
                    .min_by_key(|(_, e)| (e.hits, e.last_used))
                    .map(|(k, _)| k.clone());
                match victim {
                    Some(k) => {
                        inner.remove(&k);
                        evicted += 1;
                    }
                    None => break,
                }
            }
            inner.insert(
                (*key).to_string(),
                CachedPlan {
                    plan: Arc::clone(plan),
                    generation,
                    hits: 0,
                    last_used: now,
                },
            );
        }
        drop(inner);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Effectiveness counters plus the current entry count.
    pub(crate) fn stats(&self) -> PlanCacheStats {
        let entries = self.inner.lock().unwrap_or_else(|e| e.into_inner()).len();
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::catalog::Database;
    use crate::error::DbError;

    fn db_with_table() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE kv (k INT, v FLOAT)").unwrap();
        db.execute("INSERT INTO kv VALUES (1, 1.5), (2, 2.5)")
            .unwrap();
        db
    }

    #[test]
    fn textual_variants_share_one_plan() {
        let db = db_with_table();
        let a = "SELECT k FROM kv WHERE k >= 1";
        let b = "select   k from kv where k >= 1";
        db.query(a).unwrap();
        let stats = db.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        // The variant parses to the same normalized statement: a hit, and
        // its raw text is aliased for next time.
        db.query(b).unwrap();
        let stats = db.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // Exact repeats of either spelling skip the parser (raw-key hit).
        db.query(a).unwrap();
        db.query(b).unwrap();
        assert_eq!(db.plan_cache_stats().hits, 3);
    }

    #[test]
    fn appends_keep_cached_plans_but_bump_the_data_generation() {
        let mut db = db_with_table();
        let sql = "SELECT k FROM kv";
        db.query(sql).unwrap();
        let (g, dg) = (db.generation(), db.data_generation());
        db.execute("INSERT INTO kv VALUES (3, 3.5)").unwrap();
        assert_eq!(
            db.generation(),
            g,
            "a tuple-only write must not move the DDL generation"
        );
        assert!(
            db.data_generation() > dg,
            "a tuple-only write must move the data generation"
        );
        // The plan survived — and it serves the post-append answer,
        // because execution resolves the relation at run time.
        assert!(db.cached_plan(sql).is_some(), "append evicted the plan");
        let out = db.query(sql).unwrap();
        assert_eq!(out.rows().unwrap().len(), 3);
        let stats = db.plan_cache_stats();
        assert_eq!((stats.misses, stats.invalidations), (1, 0));
    }

    #[test]
    fn drop_table_invalidates_and_errors_resurface() {
        let mut db = db_with_table();
        let sql = "SELECT k FROM kv";
        db.query(sql).unwrap();
        db.execute("DROP TABLE kv").unwrap();
        assert!(db.cached_plan(sql).is_none());
        assert!(matches!(db.query(sql), Err(DbError::UnknownTable(_))));
        // Re-created with a different schema: the cached SELECT must plan
        // fresh and see the new shape, not replay the old answer.
        db.execute("CREATE TABLE kv (kk INT)").unwrap();
        db.execute("INSERT INTO kv VALUES (7)").unwrap();
        assert!(matches!(db.query(sql), Err(DbError::UnknownColumn(_))));
    }

    #[test]
    fn eviction_is_coldest_first_and_capacity_bounded() {
        let db = db_with_table();
        let hot = "SELECT k FROM kv WHERE k >= 0";
        db.query(hot).unwrap();
        // Keep the hot statement warm while a storm of one-off statements
        // churns through every cache slot many times over.
        for i in 0..4_000 {
            db.query(&format!("SELECT k FROM kv WHERE k = {i}"))
                .unwrap();
            if i % 16 == 0 {
                db.query(hot).unwrap();
            }
        }
        let stats = db.plan_cache_stats();
        assert!(stats.entries <= 1024, "{} entries", stats.entries);
        assert!(stats.evictions > 0, "the storm must have forced evictions");
        // The hot entry outlived thousands of cold insertions.
        assert!(
            db.cached_plan(hot).is_some(),
            "hot statement was evicted by one-off statements"
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// One step of an interleaved read/write workload.
        fn apply(db: &mut Database, cached: bool, op: u32, x: i64) -> Result<String, String> {
            let sql = match op {
                0 => format!("INSERT INTO kv VALUES ({x}, {}.5)", x % 7),
                1 => "DROP TABLE kv".to_string(),
                2 => "CREATE TABLE kv (k INT, v FLOAT)".to_string(),
                3 => format!("SELECT k, v FROM kv WHERE k >= {} ORDER BY k ASC", x % 5),
                4 => "SELECT COUNT(*), SUM(v) FROM kv".to_string(),
                _ => format!("SELECT v FROM kv WHERE k = {}", x % 5),
            };
            let out = if op <= 2 {
                db.execute(&sql).map(|o| format!("{o:?}"))
            } else if cached {
                db.query(&sql).map(|o| format!("{o:?}"))
            } else {
                // `execute` plans a SELECT fresh, bypassing the cache.
                db.execute(&sql).map(|o| format!("{o:?}"))
            };
            out.map_err(|e| format!("{e:?}"))
        }

        proptest! {
            #[test]
            fn cached_answers_match_fresh_answers_under_interleaved_writes(
                ops in proptest::collection::vec((0u32..6, 0i64..40), 0..60)
            ) {
                let mut cached_db = db_with_table();
                let mut fresh_db = db_with_table();
                for (op, x) in ops {
                    let a = apply(&mut cached_db, true, op, x);
                    let b = apply(&mut fresh_db, false, op, x);
                    prop_assert_eq!(a, b);
                }
            }
        }
    }
}
