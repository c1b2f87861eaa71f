//! Content-addressed caching of solvability results.
//!
//! Proposition 3.1 makes bounded wait-free solvability a **pure function**
//! of the task `T = (Iⁿ, Oⁿ, Δ)` and the round bound `b`: a decision map
//! `δ : SDS^b(I) → O` either exists or it does not, and Lemma 3.3 pins the
//! protocol complex the search runs on to the iterated standard chromatic
//! subdivision — a canonical object with a deterministic construction.
//! Because this repository's searches are additionally *engine-, strategy-,
//! and thread-count-independent* (DESIGN.md §7/§8: the parallel split only
//! cancels subtrees the sequential order would never have preferred), the
//! entire `(report, witness)` answer is content-addressable: two requests
//! for the same `(task, max_rounds)` pair must receive bit-identical
//! answers, no matter who computed them, when, or with how many threads.
//!
//! This module provides the key derivation ([`cache_key`]), the canonical
//! record encoding ([`report_to_json`] / [`report_from_json`]), and the
//! cache-aware sweep entry point ([`solve_up_to_cached`]) used by
//! `iis solve --store` and the `iis serve` solve service. The persistent
//! backing store lives in `iis-store`; any [`SolveCache`] implementor works
//! (a plain `HashMap` gives a process-local memo).
//!
//! # What is cacheable
//!
//! Only **decided** sweeps are stored: a witness was found, or every round
//! `0..=max_rounds` was exactly refuted. A sweep cut short by a node budget
//! or a wall-clock timeout decides nothing (`Exhausted`/`TimedOut` are
//! inconclusive verdicts) and is never persisted — a cache must not launder
//! "we gave up" into "unsolvable".
//!
//! # Integrity
//!
//! Records store only the data that cannot be recomputed cheaply: the
//! per-round verdict vector and the witness's round count and vertex map.
//! The subdivision the witness lives on is **rebuilt from the task** (as a
//! flat arena, memoized process-wide — Lemma 3.3 makes `SDS^b(I)` a pure
//! function of `(I, b)`) and the map is re-validated against Proposition
//! 3.1's three conditions, so a corrupted or adversarial store entry is
//! detected and treated as a miss rather than trusted.

use crate::solvability::{
    solve_up_to_opts, validate_decision_map_arena, DecisionMap, SolvabilityReport, SolveOptions,
};
use iis_obs::{Json, ToJson};
use iis_tasks::Task;
use iis_topology::arena::{arena_sds_tower, ArenaSds};
use iis_topology::{SimplicialMap, Subdivision};
use std::sync::{Arc, Mutex, OnceLock};

/// Version tag mixed into every [`cache_key`]. Bump it whenever the record
/// encoding or the canonical task serialization changes shape — old store
/// segments then age out as misses instead of deserializing garbage.
pub const CACHE_SCHEMA: &str = "iis-solve-v1";

/// 64-bit FNV-1a over `bytes` — the workspace's content-address hash.
///
/// # Examples
///
/// ```
/// use iis_core::cache::fnv1a64;
/// assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
/// assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
/// ```
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The content address of a `(task, max_rounds)` solvability question.
///
/// The preimage is `CACHE_SCHEMA \0 <canonical task JSON> \0 <max_rounds>`.
/// The task's JSON form is canonical (BTreeMap-ordered `Δ`, construction-
/// ordered vertices), so structurally equal tasks collide on purpose — a
/// task loaded from a file and the same task rebuilt from a library spec
/// address the same record. Search options (budget, jobs, kernel, strategy)
/// are deliberately **not** part of the key: they never change a decided
/// verdict or witness, only the time to find it.
pub fn cache_key(task: &Task, max_rounds: usize) -> u64 {
    let mut preimage = Vec::new();
    preimage.extend_from_slice(CACHE_SCHEMA.as_bytes());
    preimage.push(0);
    preimage.extend_from_slice(task.canonical_json().as_bytes());
    preimage.push(0);
    preimage.extend_from_slice(max_rounds.to_string().as_bytes());
    fnv1a64(&preimage)
}

/// A key in the fixed-width hex form replies and store records spell it.
pub fn key_hex(key: u64) -> String {
    format!("{key:016x}")
}

/// A rebuilt `SDS^b(I)` kept for revalidation: the flat arena form the
/// validator walks, plus its (bit-identical) reference `Subdivision`
/// conversion shared by every witness loaded against it.
struct RebuiltTower {
    arena: ArenaSds,
    subdivision: Arc<Subdivision>,
}

/// Entries the tower memo holds before the least-recently-used one is
/// evicted. Towers for the handful of tasks a serve process answers
/// repeatedly fit easily; a workload cycling through more distinct
/// `(task, b)` towers sheds the coldest entry per insert instead of
/// cliff-dropping the whole memo.
const TOWER_CACHE_CAP: usize = 64;

/// The tower memo: entries carry the logical clock tick of their last use.
/// Eviction is an O(n) min-tick scan at `n ≤ TOWER_CACHE_CAP` — cheap
/// enough to keep the lock section trivial, no linked-list bookkeeping.
struct TowerMemo {
    entries: std::collections::HashMap<(u64, usize), (Arc<RebuiltTower>, u64)>,
    tick: u64,
}

fn tower_memo() -> &'static Mutex<TowerMemo> {
    static TOWERS: OnceLock<Mutex<TowerMemo>> = OnceLock::new();
    TOWERS.get_or_init(|| {
        Mutex::new(TowerMemo {
            entries: std::collections::HashMap::new(),
            tick: 0,
        })
    })
}

/// `SDS^b(I)` for `task`, memoized process-wide with LRU eviction.
///
/// Lemma 3.3 makes the tower a pure function of `(I, b)`, and the arena
/// construction is deterministic, so sharing one instance across requests
/// changes no observable bytes — it only deletes the rebuild from every
/// warm reply after the first. Keyed by the task's content address (tasks
/// sharing an input complex but differing in `Δ` rebuild redundantly;
/// the cap bounds that waste). Evictions are counted in
/// `cache.tower_evictions`.
fn rebuilt_tower(task: &Task, b: usize) -> Arc<RebuiltTower> {
    let towers = tower_memo();
    let key = (fnv1a64(task.canonical_json().as_bytes()), b);
    {
        let mut memo = towers.lock().expect("tower cache poisoned");
        memo.tick += 1;
        let tick = memo.tick;
        if let Some((t, used)) = memo.entries.get_mut(&key) {
            *used = tick;
            iis_obs::metrics::add("cache.tower_hits", 1);
            return Arc::clone(t);
        }
    }
    let arena = arena_sds_tower(task.input(), b);
    let subdivision = Arc::new(arena.to_subdivision());
    let entry = Arc::new(RebuiltTower { arena, subdivision });
    iis_obs::metrics::add("cache.tower_builds", 1);
    let mut memo = towers.lock().expect("tower cache poisoned");
    if !memo.entries.contains_key(&key) && memo.entries.len() >= TOWER_CACHE_CAP {
        if let Some(coldest) = memo
            .entries
            .iter()
            .min_by_key(|(_, (_, used))| *used)
            .map(|(k, _)| *k)
        {
            memo.entries.remove(&coldest);
            iis_obs::metrics::add("cache.tower_evictions", 1);
        }
    }
    memo.tick += 1;
    let tick = memo.tick;
    memo.entries
        .entry(key)
        .or_insert_with(|| (Arc::clone(&entry), tick));
    entry
}

/// A key-value cache of serialized solvability records.
///
/// Implementors must be **first-write-wins**: once a key holds a value,
/// later `put`s for the same key are ignored. Combined with the canonical
/// record encoding this guarantees every hit for a key returns the same
/// bytes forever — the bit-identity the solve service advertises.
pub trait SolveCache {
    /// The record stored under `key`, if any.
    fn get(&mut self, key: u64) -> Option<String>;
    /// Stores `value` under `key` unless the key is already present.
    fn put(&mut self, key: u64, value: &str);
    /// Syncs any buffered writes to durable storage. Drain paths call this
    /// before shutdown; the default is a no-op for in-memory caches.
    fn flush(&mut self) {}
}

/// A process-local memo — the cache used when no `--store DIR` is given.
impl SolveCache for std::collections::HashMap<u64, String> {
    fn get(&mut self, key: u64) -> Option<String> {
        std::collections::HashMap::get(self, &key).cloned()
    }

    fn put(&mut self, key: u64, value: &str) {
        self.entry(key).or_insert_with(|| value.to_string());
    }
}

/// The outcome of a cache-aware sweep: the report plus where it came from.
pub struct CachedSolve {
    /// The sweep result (identical whether computed or replayed).
    pub report: SolvabilityReport,
    /// `true` iff the report was served from the cache.
    pub hit: bool,
    /// The content address the question was filed under.
    pub key: u64,
}

/// Canonical record encoding of a report:
/// `{"results": [[b, ok], …], "task": name, "witness": null | {"b": b,
/// "map": [[v, w], …]}}` with `Json::obj` insertion order fixed here and
/// the map in sorted source order — serializing the same report always
/// yields the same bytes.
pub fn report_to_json(report: &SolvabilityReport) -> Json {
    let witness = match report.witness() {
        Some(w) => Json::obj([("b", w.rounds().to_json()), ("map", w.map().to_json())]),
        None => Json::Null,
    };
    Json::obj([
        ("results", report.results().to_vec().to_json()),
        ("task", report.task_name().to_json()),
        ("witness", witness),
    ])
}

/// Decodes and **re-validates** a record produced by [`report_to_json`].
///
/// The witness's subdivision is rebuilt from `task` (Lemma 3.3: `SDS^b(I)`
/// is canonical) in flat arena form — `iis_topology::arena` — and the
/// stored vertex map must pass
/// [`validate_decision_map_arena`] on it: the same Proposition 3.1
/// conditions as the reference validator (simpliciality, color
/// preservation, `δ(s) ∈ Δ(carrier(s))` for every simplex), checked
/// against CSR facet slices instead of a materialized `BTreeSet` face
/// poset. The returned witness's [`crate::solvability::DecisionMap`] holds
/// the reference `Subdivision`, converted from the arena bit-identically.
/// The whole rebuild+revalidate is timed into the `cache.revalidate_ns`
/// histogram — the dominant cost of a warm `iis serve` reply.
///
/// # Errors
///
/// Returns a description of the first structural or semantic defect; the
/// caller should treat any error as a cache miss.
pub fn report_from_json(task: &Task, v: &Json) -> Result<SolvabilityReport, String> {
    let results = Vec::<(usize, bool)>::from_json(v.field("results").map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let name = String::from_json(v.field("task").map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let witness = match v.field("witness").map_err(|e| e.to_string())? {
        Json::Null => None,
        w => {
            let b = usize::from_json(w.field("b").map_err(|e| e.to_string())?)
                .map_err(|e| e.to_string())?;
            let map = SimplicialMap::from_json(w.field("map").map_err(|e| e.to_string())?)
                .map_err(|e| e.to_string())?;
            let _timer = iis_obs::span::span("cache.revalidate_ns");
            let tower = rebuilt_tower(task, b);
            validate_decision_map_arena(task, &tower.arena, &map)
                .map_err(|e| format!("stored witness invalid: {e}"))?;
            if results.last() != Some(&(b, true)) {
                return Err("witness round disagrees with verdict vector".to_string());
            }
            Some(DecisionMap::from_parts(
                b,
                Arc::clone(&tower.subdivision),
                map,
            ))
        }
    };
    if witness.is_none() && results.iter().any(|(_, ok)| *ok) {
        return Err("solvable verdict without a witness".to_string());
    }
    Ok(SolvabilityReport::from_parts(name, results, witness))
}

use iis_obs::json::FromJson;

/// `true` iff the sweep reached a verdict that may be persisted: a witness,
/// or an exact refutation of every round `0..=max_rounds`.
pub fn decided(report: &SolvabilityReport, max_rounds: usize) -> bool {
    report.witness().is_some() || report.results().len() == max_rounds + 1
}

/// [`crate::solvability::solve_up_to`] through a cache: answer from `cache`
/// when the `(task, max_rounds)` record exists and validates, otherwise run
/// the sweep with `opts` and persist the result if it decided.
///
/// The counters `solve.cache_store_hits` / `solve.cache_store_misses`
/// account every call.
///
/// # Examples
///
/// ```
/// use iis_core::cache::solve_up_to_cached;
/// use iis_core::solvability::SolveOptions;
/// use iis_tasks::library::approximate_agreement;
/// use std::collections::HashMap;
///
/// let task = approximate_agreement(1, 3);
/// let mut cache = HashMap::new();
/// let cold = solve_up_to_cached(&task, 2, &SolveOptions::new(), &mut cache);
/// let warm = solve_up_to_cached(&task, 2, &SolveOptions::new(), &mut cache);
/// assert!(!cold.hit && warm.hit);
/// assert_eq!(
///     cold.report.first_solvable(),
///     warm.report.first_solvable()
/// );
/// ```
pub fn solve_up_to_cached(
    task: &Task,
    max_rounds: usize,
    opts: &SolveOptions,
    cache: &mut dyn SolveCache,
) -> CachedSolve {
    let key = cache_key(task, max_rounds);
    if let Some(text) = cache.get(key) {
        match Json::parse(&text)
            .map_err(|e| e.to_string())
            .and_then(|v| report_from_json(task, &v))
        {
            Ok(report) => {
                iis_obs::metrics::add("solve.cache_store_hits", 1);
                return CachedSolve {
                    report,
                    hit: true,
                    key,
                };
            }
            Err(e) => {
                // a bad record is a miss, not a crash — recompute and let
                // first-write-wins keep the (bad) bytes from being replaced
                // silently; the trace records what happened
                iis_obs::trace::event(
                    "cache.invalid_record",
                    task.name(),
                    &[("error", Json::Str(e))],
                );
            }
        }
    }
    iis_obs::metrics::add("solve.cache_store_misses", 1);
    let report = solve_up_to_opts(task, max_rounds, opts);
    if decided(&report, max_rounds) {
        cache.put(key, &report_to_json(&report).to_string());
    }
    CachedSolve {
        report,
        hit: false,
        key,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iis_tasks::library::{approximate_agreement, consensus, trivial};
    use std::collections::HashMap;

    #[test]
    fn key_is_stable_and_option_independent() {
        let t = approximate_agreement(1, 3);
        assert_eq!(cache_key(&t, 2), cache_key(&t, 2));
        assert_ne!(cache_key(&t, 1), cache_key(&t, 2));
        assert_ne!(cache_key(&t, 2), cache_key(&consensus(1, &[0, 1]), 2));
        // a task round-tripped through JSON addresses the same record
        let back: iis_tasks::Task = Json::parse_as(&t.to_json().to_string()).unwrap();
        assert_eq!(cache_key(&t, 2), cache_key(&back, 2));
    }

    #[test]
    fn warm_record_is_bit_identical_across_thread_counts() {
        // the satellite acceptance: a cache hit replays the exact bytes a
        // fresh solve at any job count would have produced
        let t = approximate_agreement(1, 3);
        let mut cold_cache = HashMap::new();
        let cold = solve_up_to_cached(&t, 2, &SolveOptions::new(), &mut cold_cache);
        let cold_bytes = report_to_json(&cold.report).to_string();
        for jobs in [1usize, 4] {
            let mut cache = HashMap::new();
            let fresh = solve_up_to_cached(&t, 2, &SolveOptions::new().jobs(jobs), &mut cache);
            assert!(!fresh.hit);
            assert_eq!(
                report_to_json(&fresh.report).to_string(),
                cold_bytes,
                "jobs={jobs} must produce the canonical record"
            );
            let warm = solve_up_to_cached(&t, 2, &SolveOptions::new().jobs(jobs), &mut cache);
            assert!(warm.hit);
            assert_eq!(report_to_json(&warm.report).to_string(), cold_bytes);
        }
    }

    #[test]
    fn refutations_are_cached_too() {
        let t = consensus(1, &[0, 1]);
        let mut cache = HashMap::new();
        let cold = solve_up_to_cached(&t, 2, &SolveOptions::new(), &mut cache);
        assert!(!cold.hit && cold.report.first_solvable().is_none());
        let warm = solve_up_to_cached(&t, 2, &SolveOptions::new(), &mut cache);
        assert!(warm.hit);
        assert_eq!(warm.report.results(), cold.report.results());
    }

    #[test]
    fn inconclusive_sweeps_are_not_cached() {
        // a zero node budget exhausts immediately (the one-shot IS task
        // needs actual search nodes, unlike propagation-refuted consensus)
        // — nothing may be stored
        let t = iis_tasks::library::one_shot_immediate_snapshot_task(1);
        let mut cache = HashMap::new();
        let out = solve_up_to_cached(&t, 2, &SolveOptions::new().budget(0), &mut cache);
        assert!(!out.hit);
        assert!(cache.is_empty(), "exhausted sweeps must not be persisted");
    }

    #[test]
    fn corrupt_records_fall_back_to_a_fresh_solve() {
        let t = trivial(1);
        let key = cache_key(&t, 1);
        let mut cache = HashMap::new();
        // structural garbage
        SolveCache::put(&mut cache, key, "{\"nope\": 1}");
        let out = solve_up_to_cached(&t, 1, &SolveOptions::new(), &mut cache);
        assert!(!out.hit, "garbage record must be a miss");
        assert_eq!(out.report.first_solvable(), Some(0));
        // semantic garbage: a witness whose map is not color preserving
        let mut cache = HashMap::new();
        SolveCache::put(
            &mut cache,
            key,
            "{\"results\": [[0, true]], \"task\": \"trivial\", \
             \"witness\": {\"b\": 0, \"map\": [[0, 1], [1, 0]]}}",
        );
        let out = solve_up_to_cached(&t, 1, &SolveOptions::new(), &mut cache);
        assert!(!out.hit, "invalid witness must be a miss");
    }

    #[test]
    fn tower_memo_evicts_lru_instead_of_clearing() {
        // cycle more distinct (task, b) keys than the cap: the memo must
        // stay bounded and keep the recently-used entries, evicting only
        // the coldest. b=0 towers are cheap, so the pressure is realistic.
        let tasks: Vec<_> = (2..2 + TOWER_CACHE_CAP as u64 + 8)
            .map(|k| approximate_agreement(1, k))
            .collect();
        let hot = trivial(1);
        for t in &tasks {
            rebuilt_tower(&hot, 0); // keep one entry hot throughout
            rebuilt_tower(t, 0);
        }
        let memo = tower_memo().lock().unwrap();
        assert!(
            memo.entries.len() <= TOWER_CACHE_CAP,
            "memo exceeded its cap: {}",
            memo.entries.len()
        );
        let hot_key = (fnv1a64(hot.canonical_json().as_bytes()), 0usize);
        assert!(
            memo.entries.contains_key(&hot_key),
            "the constantly-reused entry must survive eviction pressure"
        );
    }

    #[test]
    fn record_roundtrip_preserves_the_witness() {
        let t = approximate_agreement(1, 3);
        let report = solve_up_to_opts(&t, 2, &SolveOptions::new());
        let json = report_to_json(&report);
        let back = report_from_json(&t, &json).unwrap();
        assert_eq!(back.first_solvable(), report.first_solvable());
        let (w, wb) = (report.witness().unwrap(), back.witness().unwrap());
        assert_eq!(w.rounds(), wb.rounds());
        assert_eq!(w.map().pairs(), wb.map().pairs());
    }
}
