//! The traced run's per-layer numbers: HTTP probes against the live
//! cluster, counter ratios from its merged `/metrics`, and an in-process
//! replay of the same questions through each layer's public functions,
//! every call wrapped in a span.

use crate::client::Conn;
use crate::cluster::Cluster;
use crate::drive::{router, Counters, Ctx, Metric};
use crate::oracle::{check_reply, server_options, Expected};
use crate::stats::median;
use crate::trace::self_times_by_name;
use crate::workload::Question;
use iis_cluster::question_key;
use iis_core::cache::{cache_key, report_from_json, report_to_json};
use iis_core::solvability::{solve_up_to_opts, Solver};
use iis_obs::json::FromJson as _;
use iis_obs::Json;
use iis_store::Store;
use iis_tasks::library::parse_spec;
use iis_tasks::Task;
use iis_topology::arena::arena_sds_tower;
use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

/// Repetitions of each replayed question.
const REPS: usize = 3;
/// `GET /healthz` round trips timed for `http.rtt_us`.
const RTT_SAMPLES: usize = 200;
/// Questions re-solved in process for the `solve.*` timings.
const SOLVE_SAMPLE: usize = 24;

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// p50 of `reps` closed-loop posts of every replay question to `addr_of`.
fn post_p50(
    replay: &[(&Question, &Expected)],
    addr_of: impl Fn(&Expected) -> String,
    errors: &mut Vec<String>,
) -> f64 {
    let mut conns: Vec<(String, Conn)> = Vec::new();
    let mut lat = Vec::new();
    for _ in 0..REPS {
        for (q, exp) in replay {
            let addr = addr_of(exp);
            let idx = match conns.iter().position(|(a, _)| *a == addr) {
                Some(i) => i,
                None => {
                    conns.push((addr.clone(), Conn::new(&addr)));
                    conns.len() - 1
                }
            };
            let t = Instant::now();
            let reply = conns[idx].1.post("/solve", &q.body);
            lat.push(t.elapsed().as_secs_f64() * 1e6);
            let judged = reply.map_err(|e| e.to_string()).and_then(|(s, text)| {
                let body = Json::parse(&text).map_err(|e| e.to_string())?;
                check_reply(s, &body, exp)
            });
            if let Err(e) = judged {
                errors.push(format!("probe {}@{} via {addr}: {e}", q.spec, q.b));
            }
        }
    }
    med(&lat)
}

/// Every per-layer metric for one workload. Probes the live cluster, stops
/// it, then replays `replay` in process against the stores it left.
///
/// `questions` and `batches` are the measured phase's counts, the bases of
/// the counter ratios; `e2e_p50_us` its `latency_p50_us`.
///
/// # Errors
///
/// A failed probe or an unreadable store.
#[allow(clippy::too_many_arguments)]
pub fn measure(
    ctx: &Ctx,
    cluster: Cluster,
    replay: &[(&Question, &Expected)],
    counters: &Counters,
    questions: f64,
    batches: f64,
    e2e_p50_us: f64,
    errors: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let route = router(cluster.backends());
    let owner = |exp: &Expected| route.replicas_for(exp.key)[0];

    // --- obs::http and cluster: probes against the live processes
    let mut rtt = Vec::new();
    let mut conn = Conn::new(&cluster.gateway.addr);
    for _ in 0..RTT_SAMPLES {
        let t = Instant::now();
        conn.get("/healthz").map_err(|e| format!("/healthz: {e}"))?;
        rtt.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(conn);
    let rtt_us = med(&rtt);
    let shard_addrs = cluster.backends();
    let direct_us = post_p50(replay, |exp| shard_addrs[owner(exp)].clone(), errors);
    let gateway_us = post_p50(replay, |_| cluster.gateway.addr.clone(), errors);
    let stores_dirs = cluster.stores.clone();
    if !cluster.stop() {
        errors.push("a server did not shut down cleanly".to_string());
    }

    // --- store: open, get, put on the stores the run left behind
    let mut open_ms = Vec::new();
    let mut stores = Vec::new();
    let (mut bytes, mut records) = (0u64, 0usize);
    for dir in &stores_dirs {
        let mut last = None;
        for _ in 0..REPS {
            let t = Instant::now();
            let s = Store::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            open_ms.push(t.elapsed().as_secs_f64() * 1e3);
            last = Some(s);
        }
        let s = last.expect("REPS > 0");
        bytes += dir_bytes(dir);
        records += s.len();
        stores.push(s);
    }

    // --- in-process replay of every warm stage, one span per stage
    let tracer = &ctx.tracer;
    let mut seen_towers = BTreeSet::new();
    let (mut reval_cold, mut shard_sum, mut path_sum) = (Vec::new(), Vec::new(), Vec::new());
    let mut records_text = Vec::new();
    for (q, exp) in replay {
        let req = exp.key;
        for rep in 0..REPS {
            let root = tracer.open("replay", None, req);
            let p = Some(root);
            let (task, parse_us) = if q.inline {
                let v = Json::parse(&q.body).expect("valid body");
                let t = v.get("task").expect("inline body");
                tracer.time("tasks.from_json", p, req, || Task::from_json(t))
            } else {
                let (t, us) = tracer.time("tasks.parse_spec", p, req, || parse_spec(&q.spec));
                (t.map_err(iis_obs::JsonError::new), us)
            };
            let task = task.map_err(|e| format!("{}: {e}", q.spec))?;
            let qjson = q.json();
            let (routed, qkey_us) =
                tracer.time("cluster.question_key", p, req, || question_key(&qjson));
            let (key, key_us) = tracer.time("cache.key", p, req, || cache_key(&task, q.b));
            if routed != Ok(key) {
                return Err(format!("{}@{}: gateway and shard keys differ", q.spec, q.b));
            }
            let (_, route_us) = tracer.time("cluster.route", p, req, || route.replicas_for(key));
            let shard = owner(exp);
            let (text, get_us) = tracer.time("store.get", p, req, || stores[shard].get(key));
            let text = text
                .map_err(|e| format!("store get: {e}"))?
                .ok_or_else(|| format!("{}@{} missing from its owner's store", q.spec, q.b))?;
            let witness_b = Json::parse(&text)
                .ok()
                .and_then(|v| v.get("witness")?.get("b")?.as_u64());
            let cold =
                rep == 0 && witness_b.is_some() && seen_towers.insert((q.spec.clone(), witness_b));
            let name = if cold {
                "cache.revalidate_cold"
            } else {
                "cache.revalidate"
            };
            let (report, reval_us) = tracer.time(name, p, req, || {
                Json::parse(&text)
                    .map_err(|e| e.to_string())
                    .and_then(|v| report_from_json(&task, &v))
            });
            let report = report.map_err(|e| format!("{}@{} revalidate: {e}", q.spec, q.b))?;
            let (_, render_us) = tracer.time("cache.render", p, req, || {
                report_to_json(&report).to_string()
            });
            tracer.close(root);
            if cold {
                reval_cold.push(reval_us);
            }
            if rep > 0 {
                let shard = parse_us + key_us + get_us + reval_us + render_us;
                shard_sum.push(shard);
                path_sum.push(shard + qkey_us + route_us);
            }
            if rep == 0 {
                records_text.push((key, text));
            }
        }
    }
    let mut put_us = Vec::new();
    let put_dir = ctx.dir.join("put-probe");
    let mut put_store = Store::open(&put_dir).map_err(|e| format!("{}: {e}", put_dir.display()))?;
    for (key, text) in &records_text {
        let t = Instant::now();
        put_store.put(*key, text).map_err(|e| format!("put: {e}"))?;
        put_store.flush().map_err(|e| format!("flush: {e}"))?;
        put_us.push(t.elapsed().as_secs_f64() * 1e6);
    }

    // --- topology and solvability, in process
    let mut tower_us = Vec::new();
    let mut towers = BTreeSet::new();
    let (mut sweep_ms, mut round_ms) = (Vec::new(), Vec::new());
    for (i, (q, exp)) in replay.iter().enumerate() {
        let task = parse_spec(&q.spec)?;
        if let Some(wb) = exp.record.get("witness").and_then(|w| w.get("b")?.as_u64()) {
            if towers.insert((q.spec.clone(), wb)) {
                let (_, us) = tracer.time("sds.tower", None, exp.key, || {
                    arena_sds_tower(task.input(), wb as usize)
                });
                tower_us.push(us);
            }
        }
        if i < SOLVE_SAMPLE {
            let (_, us) = tracer.time("solve.sweep", None, exp.key, || {
                solve_up_to_opts(&task, q.b, &server_options())
            });
            sweep_ms.push(us / 1e3);
            let mut solver = Solver::new(&task, server_options());
            for _ in 0..=q.b {
                let (out, us) = tracer.time("solve.round", None, exp.key, || solver.step());
                round_ms.push(us / 1e3);
                if !matches!(out, iis_core::solvability::BoundedOutcome::Unsolvable) {
                    break;
                }
            }
        }
    }

    // --- self times and the warm-path budget
    let by_name = self_times_by_name(&tracer.spans());
    let stage = |name: &str| med(by_name.get(name).map_or(&[][..], Vec::as_slice));
    let shard_path = med(&shard_sum);
    let mut out: Vec<Metric> = vec![
        ("http.rtt_us", rtt_us, "us"),
        ("http.shard_direct_us", direct_us, "us"),
        (
            "http.upstream_per_question",
            ratio(counters.upstream_calls(), questions),
            "ratio",
        ),
        (
            "http.reuse_ratio",
            ratio(
                counters.d("http_client_reused"),
                counters.d("http_client_requests"),
            ),
            "ratio",
        ),
        (
            "cluster.question_key_us",
            stage("cluster.question_key"),
            "us",
        ),
        ("cluster.route_us", stage("cluster.route"), "us"),
        ("cluster.hop_us", gateway_us - direct_us, "us"),
        (
            "cluster.fanout_per_batch",
            ratio(counters.d("gateway_fanout"), batches),
            "count",
        ),
        (
            "cluster.failovers",
            counters.d("gateway_failovers"),
            "count",
        ),
        ("tasks.parse_spec_us", stage("tasks.parse_spec"), "us"),
        ("tasks.from_json_us", stage("tasks.from_json"), "us"),
        (
            "serve.hit_ratio",
            ratio(counters.d("serve_cache_hits"), questions),
            "ratio",
        ),
        (
            "serve.coalesced_per_batch",
            ratio(counters.d("serve_coalesced"), batches),
            "count",
        ),
        ("serve.rejected", counters.d("serve_rejected"), "count"),
        ("serve.residual_us", direct_us - rtt_us - shard_path, "us"),
        ("cache.key_us", stage("cache.key"), "us"),
        ("cache.revalidate_us", stage("cache.revalidate"), "us"),
        ("cache.revalidate_cold_us", med(&reval_cold), "us"),
        ("cache.render_us", stage("cache.render"), "us"),
        (
            "cache.tower_hit_ratio",
            ratio(
                counters.d("cache_tower_hits"),
                counters.d("cache_tower_hits") + counters.d("cache_tower_builds"),
            ),
            "ratio",
        ),
        ("store.get_us", stage("store.get"), "us"),
        ("store.put_us", med(&put_us), "us"),
        ("store.open_ms", med(&open_ms), "ms"),
        (
            "store.bytes_per_record",
            ratio(bytes as f64, records as f64),
            "B",
        ),
        ("sds.tower_us", med(&tower_us), "us"),
        (
            "sds.builds_per_question",
            ratio(counters.d("sds_builds"), questions),
            "ratio",
        ),
        ("solve.sweep_ms", med(&sweep_ms), "ms"),
        ("solve.round_ms", med(&round_ms), "ms"),
        (
            "solve.nodes_per_question",
            ratio(counters.d("solve_nodes"), questions),
            "ratio",
        ),
        (
            "solve.propagations_per_question",
            ratio(counters.d("solve_propagations"), questions),
            "ratio",
        ),
        ("trace.stage_sum_us", med(&path_sum), "us"),
        ("trace.shard_path_us", shard_path, "us"),
        ("trace.replay_self_us", stage("replay"), "us"),
        ("trace.e2e_p50_us", e2e_p50_us, "us"),
        ("count.questions", questions, "count"),
        ("count.solve_nodes", counters.d("solve_nodes"), "count"),
        (
            "count.serve_cache_hits",
            counters.d("serve_cache_hits"),
            "count",
        ),
        ("count.upstream_calls", counters.upstream_calls(), "count"),
    ];
    for m in &mut out {
        if !m.1.is_finite() {
            m.1 = 0.0;
        }
    }
    Ok(out)
}

/// Total bytes of the regular files directly under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
