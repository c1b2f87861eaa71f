//! The gateway core: rendezvous routing of solve questions over a shard
//! fleet, batch scatter-gather, failover, and metrics aggregation.
//!
//! **Why sharding is sound at all.** Bounded solvability is a pure
//! function of `(task, max_rounds)` (Prop 3.1), and every shard's store is
//! content-addressed and first-write-wins over the same canonical record
//! encoding. So *any* replica may answer *any* question correctly; routing
//! only decides which shard's cache gets warm. A retried or failed-over
//! question returns byte-identical bytes wherever it lands — which is what
//! makes aggressive failover safe.
//!
//! **Routing.** Each question is read by `iis_core::wire`, the parser the
//! shards use, and hashes to its `cache_key`; the key's replica set is the
//! top `R` shards by rendezvous (highest random weight) hashing. HRW gives
//! minimal disruption: adding or removing a shard only moves the keys that
//! shard owns, with no ring to rebalance. Within the replica set, attempts
//! go Ready shards first, read-only (quarantine-degraded) shards next,
//! Down shards as a last resort.
//!
//! **Batching.** A batch of questions is grouped by primary shard and
//! fanned out on a bounded worker pool, one upstream `POST /solve`
//! `{"questions": […]}` call per group — so a 100-question sweep costs a
//! handful of round trips, not 100. Answers return as one array in
//! question order; per-question failures fail over individually without
//! disturbing the rest of the batch.

use crate::health::{HealthRegistry, ShardHealth};
use crate::transport::{Transport, TransportResponse};
use iis_core::cache::fnv1a64;
use iis_core::wire::{batch_envelope, parse_body, Answer, Question, SolveBody};
use iis_obs::{Json, ToJson as _};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Gateway configuration.
pub struct GatewayConfig {
    /// Backend shard addresses (`host:port`), the routing universe.
    pub backends: Vec<String>,
    /// Replica-set size per key (clamped to the backend count).
    pub replicas: usize,
    /// Worker threads for batch fan-out.
    pub workers: usize,
}

/// The gateway: routing + health + scatter-gather over a [`Transport`].
pub struct Gateway {
    transport: Arc<dyn Transport>,
    health: HealthRegistry,
    backends: Vec<String>,
    /// Per-shard rendezvous salt (FNV of the address), fixed at startup.
    salts: Vec<u64>,
    replicas: usize,
    workers: usize,
}

/// SplitMix64 finalizer: the rendezvous weight of (key, salt).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The error when every replica of a key failed.
const NO_REPLICA: &str = "no replica answered";

/// A question's routing key: [`Question::key`] of the body read by
/// [`Question::from_json`], the parser the shards use too.
///
/// # Errors
///
/// Returns the parser's message for a malformed question.
pub fn question_key(q: &Json) -> Result<u64, String> {
    Question::from_json(q).map(|q| q.key())
}

impl Gateway {
    /// A gateway over `transport` for `cfg.backends`.
    pub fn new(transport: Arc<dyn Transport>, cfg: GatewayConfig) -> Gateway {
        // register the gateway counters at zero so a scrape before first
        // traffic still shows the full family
        for name in [
            "gateway.requests",
            "gateway.batch_requests",
            "gateway.fanout",
            "gateway.retries",
            "gateway.failovers",
            "gateway.shard_down",
            "gateway.unroutable",
        ] {
            iis_obs::metrics::Counter::handle(name);
        }
        let salts = cfg.backends.iter().map(|a| fnv1a64(a.as_bytes())).collect();
        Gateway {
            health: HealthRegistry::new(&cfg.backends),
            salts,
            replicas: cfg.replicas.clamp(1, cfg.backends.len().max(1)),
            workers: cfg.workers.max(1),
            backends: cfg.backends,
            transport,
        }
    }

    /// The backend addresses, in configuration order.
    pub fn backends(&self) -> &[String] {
        &self.backends
    }

    /// The health registry (the prober thread and tests drive it).
    pub fn health(&self) -> &HealthRegistry {
        &self.health
    }

    /// One `/readyz` probing pass over every shard.
    pub fn probe(&self) {
        self.health.probe_all(self.transport.as_ref());
    }

    /// The key's replica set in attempt order: top-`R` shards by
    /// rendezvous weight, then Ready before read-only before Down
    /// (stable, so the HRW order breaks ties).
    pub fn replicas_for(&self, key: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.backends.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(mix(key ^ self.salts[i])));
        order.truncate(self.replicas);
        order.sort_by_key(|&i| self.health.health_of(i));
        order
    }

    /// The key's *owner* (rendezvous winner, health ignored) — used for
    /// the `/cluster` ownership report, not for routing.
    fn owner_of(&self, key: u64) -> Option<usize> {
        (0..self.backends.len()).max_by_key(|&i| mix(key ^ self.salts[i]))
    }

    /// Posts one question to its replicas in order until one answers.
    /// A 4xx relays as-is (the question itself is bad — no replica will
    /// disagree); transport errors and 5xx answers fail over to the next
    /// replica. `None` when every replica failed.
    fn relay(
        &self,
        body: &str,
        replicas: &[usize],
        skip: Option<usize>,
    ) -> Option<TransportResponse> {
        let mut attempts = 0u32;
        for &idx in replicas {
            if Some(idx) == skip {
                continue;
            }
            if attempts > 0 {
                iis_obs::metrics::add("gateway.retries", 1);
            }
            attempts += 1;
            match self.transport.post(&self.backends[idx], "/solve", body) {
                Ok(r) if r.status < 500 => {
                    self.health.report_success(idx);
                    if attempts > 1 || skip.is_some() {
                        iis_obs::metrics::add("gateway.failovers", 1);
                    }
                    return Some(r);
                }
                Ok(_) | Err(_) => self.health.report_failure(idx),
            }
        }
        None
    }

    /// [`Gateway::relay`] as a batch-envelope element.
    fn answer_via_replicas(&self, body: &str, replicas: &[usize], skip: Option<usize>) -> Answer {
        match self.relay(body, replicas, skip) {
            Some(r) => Answer {
                status: r.status,
                body: Json::parse(&r.body).unwrap_or(Json::Str(r.body)),
            },
            None => Answer::error(503, NO_REPLICA),
        }
    }

    /// `POST /solve`: a single question is routed and relayed with the
    /// backend's reply bytes untouched; a `{"questions": […]}` batch is
    /// scattered and gathered by [`Gateway::solve_batch`]. The body is
    /// parsed once, by the same [`iis_core::wire`] rules the shards apply,
    /// so a question refused here would be refused there with the same
    /// message.
    pub fn solve(&self, body: &str) -> (u16, String) {
        let error = |status: u16, msg: &str| (status, Answer::error(status, msg).body.to_string());
        let q = match parse_body(body) {
            Ok(SolveBody::Batch(questions)) => return (200, self.solve_batch(&questions)),
            Ok(SolveBody::One(q)) => q,
            Err(e) => return error(400, &e),
        };
        iis_obs::metrics::add("gateway.requests", 1);
        let key = match question_key(&q) {
            Ok(k) => k,
            Err(e) => return error(400, &e),
        };
        let replicas = self.replicas_for(key);
        if replicas.is_empty() {
            iis_obs::metrics::add("gateway.unroutable", 1);
            return error(503, "no backends configured");
        }
        match self.relay(body, &replicas, None) {
            Some(r) => (r.status, r.body),
            None => error(503, NO_REPLICA),
        }
    }

    /// `POST /solve` with a `{"questions": […]}` batch body: scatter by
    /// primary shard, coalesce same-shard questions into one upstream
    /// batch call, gather one ordered answer array.
    pub fn solve_batch(&self, questions: &[Json]) -> String {
        iis_obs::metrics::add("gateway.batch_requests", 1);
        iis_obs::metrics::add("gateway.requests", questions.len() as u64);
        let mut answers: Vec<Option<Answer>> = vec![None; questions.len()];
        // route every question; invalid ones answer 400 without a trip
        let mut routed: Vec<(usize, Vec<usize>)> = Vec::new();
        for (i, q) in questions.iter().enumerate() {
            match question_key(q).map(|key| self.replicas_for(key)) {
                Ok(replicas) if replicas.is_empty() => {
                    iis_obs::metrics::add("gateway.unroutable", 1);
                    answers[i] = Some(Answer::error(503, "no backends configured"));
                }
                Ok(replicas) => routed.push((i, replicas)),
                Err(e) => answers[i] = Some(Answer::error(400, &e)),
            }
        }
        // group by primary shard
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (pos, (_, replicas)) in routed.iter().enumerate() {
            groups.entry(replicas[0]).or_default().push(pos);
        }
        iis_obs::metrics::add("gateway.fanout", groups.len() as u64);
        let groups: Vec<(usize, Vec<usize>)> = groups.into_iter().collect();
        let answers = Mutex::new(answers);
        let next = AtomicUsize::new(0);
        let drain = || loop {
            let g = next.fetch_add(1, Ordering::Relaxed);
            let Some((shard, members)) = groups.get(g) else {
                return;
            };
            let got = self.dispatch_group(questions, &routed, *shard, members);
            let mut slots = answers.lock().unwrap_or_else(PoisonError::into_inner);
            for (pos, answer) in members.iter().zip(got) {
                slots[routed[*pos].0] = Some(answer);
            }
        };
        // the calling thread is worker zero — a small batch (or workers=1)
        // dispatches inline with no thread spawned at all, so batching is
        // never slower than the sequential loop it replaces
        let helpers = self.workers.min(groups.len()).saturating_sub(1);
        if helpers == 0 {
            drain();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..helpers {
                    scope.spawn(drain);
                }
                drain();
            });
        }
        let answers: Vec<Answer> = answers
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .into_iter()
            .map(|a| a.unwrap_or_else(|| Answer::error(500, "answer lost")))
            .collect();
        batch_envelope(&answers)
    }

    /// Sends one group's questions to its primary shard (one coalesced
    /// batch call when the group has more than one question), failing over
    /// per question on shard or per-question failure.
    fn dispatch_group(
        &self,
        questions: &[Json],
        routed: &[(usize, Vec<usize>)],
        shard: usize,
        members: &[usize],
    ) -> Vec<Answer> {
        let failover = |pos: usize| {
            let (qi, replicas) = &routed[pos];
            self.answer_via_replicas(&questions[*qi].to_string(), replicas, Some(shard))
        };
        if members.len() == 1 {
            let (qi, replicas) = &routed[members[0]];
            return vec![self.answer_via_replicas(&questions[*qi].to_string(), replicas, None)];
        }
        let body = Json::obj([(
            "questions",
            Json::Arr(
                members
                    .iter()
                    .map(|&p| questions[routed[p].0].clone())
                    .collect(),
            ),
        )])
        .to_string();
        let upstream = match self.transport.post(&self.backends[shard], "/solve", &body) {
            Ok(r) if r.status == 200 => Answer::parse_envelope(&r.body, members.len()),
            Ok(_) | Err(_) => None,
        };
        match upstream {
            Some(got) => {
                self.health.report_success(shard);
                // per-question 5xx inside a healthy envelope fails over
                // individually (e.g. that one question hit a full queue)
                got.into_iter()
                    .enumerate()
                    .map(|(j, a)| {
                        if a.status >= 500 {
                            failover(members[j])
                        } else {
                            a
                        }
                    })
                    .collect()
            }
            None => {
                // the shard (or its envelope) failed wholesale: mark it
                // and re-route every member individually
                self.health.report_failure(shard);
                members.iter().map(|&p| failover(p)).collect()
            }
        }
    }

    /// `GET /cluster`: per-shard health, failure streaks, and the share of
    /// the key space each shard owns under rendezvous hashing (sampled at
    /// 256 points).
    pub fn cluster_json(&self) -> String {
        const SAMPLES: u64 = 256;
        let mut owned = vec![0u64; self.backends.len()];
        for s in 0..SAMPLES {
            if let Some(w) = self.owner_of(mix(s)) {
                owned[w] += 1;
            }
        }
        let shards: Vec<Json> = self
            .health
            .snapshot()
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("addr", Json::Str(s.addr.clone())),
                    ("health", Json::Str(s.health.name().to_string())),
                    ("consecutive_failures", s.consecutive_failures.to_json()),
                    ("ownership", Json::Num(owned[i] as f64 / SAMPLES as f64)),
                ])
            })
            .collect();
        Json::obj([
            ("shards", Json::Arr(shards)),
            ("replicas", self.replicas.to_json()),
        ])
        .to_string_pretty()
    }

    /// `GET /metrics`: the gateway's own counters plus the *sum* of every
    /// reachable shard's Prometheus text, family by family — one scrape
    /// shows cluster-wide totals.
    pub fn metrics_text(&self) -> String {
        let mut texts = vec![iis_obs::http::prometheus_text(&iis_obs::metrics::snapshot())];
        for s in self.health.snapshot() {
            if s.health == ShardHealth::Down {
                continue;
            }
            if let Ok(r) = self.transport.get(&s.addr, "/metrics") {
                if r.status == 200 {
                    texts.push(r.body);
                }
            }
        }
        merge_prometheus(&texts)
    }
}

/// Merges Prometheus text expositions by summing series with identical
/// names (labels included). `# TYPE` lines are kept once per family;
/// families and series render in sorted order. Histogram families merge
/// soundly because every series (`_bucket{le}`, `_sum`, `_count`) is
/// itself a sum.
pub fn merge_prometheus(texts: &[String]) -> String {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut series: BTreeMap<String, f64> = BTreeMap::new();
    for text in texts {
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                if let Some((family, ty)) = rest.rsplit_once(' ') {
                    types
                        .entry(family.to_string())
                        .or_insert_with(|| ty.to_string());
                }
                continue;
            }
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let Some((name, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(v) = value.parse::<f64>() else {
                continue;
            };
            *series.entry(name.to_string()).or_insert(0.0) += v;
        }
    }
    let mut out = String::new();
    let mut last_family = String::new();
    for (name, v) in &series {
        let family = name.split('{').next().unwrap_or(name);
        // a series family may carry suffixes (_bucket/_sum/_count map to
        // the histogram family); emit the TYPE line when we enter it
        let base = family
            .strip_suffix("_bucket")
            .or_else(|| family.strip_suffix("_sum"))
            .or_else(|| family.strip_suffix("_count"))
            .filter(|b| types.contains_key(*b))
            .unwrap_or(family);
        if base != last_family {
            if let Some(ty) = types.get(base) {
                out.push_str(&format!("# TYPE {base} {ty}\n"));
            }
            last_family = base.to_string();
        }
        if v.fract() == 0.0 && v.abs() < 9e15 {
            out.push_str(&format!("{name} {}\n", *v as i64));
        } else {
            out.push_str(&format!("{name} {v}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::TransportResponse;

    #[test]
    fn rendezvous_is_stable_and_balanced() {
        let cfg = GatewayConfig {
            backends: vec!["a:1".into(), "b:1".into(), "c:1".into()],
            replicas: 2,
            workers: 2,
        };
        let gw = Gateway::new(Arc::new(NullTransport), cfg);
        let mut counts = [0usize; 3];
        for k in 0..600u64 {
            let r = gw.replicas_for(mix(k));
            assert_eq!(r.len(), 2);
            assert_ne!(r[0], r[1]);
            counts[r[0]] += 1;
            // same key, same replica set — routing is a pure function
            assert_eq!(r, gw.replicas_for(mix(k)));
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (100..300).contains(&c),
                "shard {i} owns {c}/600 keys — rendezvous should balance"
            );
        }
    }

    #[test]
    fn removing_a_shard_only_moves_its_own_keys() {
        let three = Gateway::new(
            Arc::new(NullTransport),
            GatewayConfig {
                backends: vec!["a:1".into(), "b:1".into(), "c:1".into()],
                replicas: 1,
                workers: 1,
            },
        );
        let two = Gateway::new(
            Arc::new(NullTransport),
            GatewayConfig {
                backends: vec!["a:1".into(), "b:1".into()],
                replicas: 1,
                workers: 1,
            },
        );
        for k in 0..400u64 {
            let key = mix(k);
            let before = three.replicas_for(key)[0];
            let after = two.replicas_for(key)[0];
            if before != 2 {
                // keys not owned by the removed shard must not move:
                // the minimal-disruption property of rendezvous hashing
                assert_eq!(before, after, "key {key:x} moved needlessly");
            }
        }
    }

    #[test]
    fn unhealthy_replicas_sort_to_the_back() {
        let gw = Gateway::new(
            Arc::new(NullTransport),
            GatewayConfig {
                backends: vec!["a:1".into(), "b:1".into(), "c:1".into()],
                replicas: 3,
                workers: 1,
            },
        );
        let key = 0xfeed_beef;
        let healthy = gw.replicas_for(key);
        gw.health().report_failure(healthy[0]);
        let rerouted = gw.replicas_for(key);
        assert_eq!(
            rerouted.last(),
            Some(&healthy[0]),
            "a Down shard must be the last resort"
        );
        // the surviving order still follows HRW
        assert_eq!(
            rerouted[..2],
            healthy
                .iter()
                .copied()
                .filter(|&i| i != healthy[0])
                .collect::<Vec<_>>()[..]
        );
    }

    #[test]
    fn question_key_is_the_shard_key_for_every_library_spec() {
        use iis_core::cache::cache_key;
        use iis_tasks::library::parse_spec;
        let specs = [
            "trivial:0",
            "trivial:1",
            "trivial:2",
            "consensus:1",
            "consensus:2",
            "kset:2:1",
            "kset:2:2",
            "renaming:1:3",
            "renaming:2:5",
            "eps:1:3",
            "eps:1:9",
            "eps:2:2",
            "oneshot:1",
            "oneshot:2",
        ];
        for spec in specs {
            let task = parse_spec(spec).unwrap();
            for b in 0..=3usize {
                let by_spec = Json::obj([
                    ("spec", Json::Str(spec.to_string())),
                    ("max_rounds", b.to_json()),
                ]);
                let inline = Json::obj([("task", task.to_json()), ("max_rounds", b.to_json())]);
                let expect = cache_key(&task, b);
                for q in [by_spec, inline] {
                    assert_eq!(question_key(&q), Ok(expect), "{spec} b={b}");
                    assert_eq!(
                        Question::from_json(&q).unwrap().key(),
                        expect,
                        "{spec} b={b}"
                    );
                }
            }
        }
    }

    #[test]
    fn merge_prometheus_sums_families() {
        let a = "# TYPE serve_requests_total counter\nserve_requests_total 3\n\
                 # TYPE x_ns histogram\nx_ns_bucket{le=\"1\"} 2\nx_ns_bucket{le=\"+Inf\"} 4\n\
                 x_ns_sum 9\nx_ns_count 4\n"
            .to_string();
        let b = "# TYPE serve_requests_total counter\nserve_requests_total 5\n\
                 # TYPE x_ns histogram\nx_ns_bucket{le=\"1\"} 1\nx_ns_bucket{le=\"+Inf\"} 1\n\
                 x_ns_sum 2\nx_ns_count 1\n"
            .to_string();
        let merged = merge_prometheus(&[a, b]);
        assert!(merged.contains("serve_requests_total 8\n"), "{merged}");
        assert!(merged.contains("x_ns_bucket{le=\"1\"} 3\n"), "{merged}");
        assert!(merged.contains("x_ns_bucket{le=\"+Inf\"} 5\n"), "{merged}");
        assert!(merged.contains("x_ns_sum 11\n"), "{merged}");
        assert!(merged.contains("x_ns_count 5\n"), "{merged}");
        // exactly one TYPE line per family
        assert_eq!(
            merged.matches("# TYPE x_ns histogram").count(),
            1,
            "{merged}"
        );
    }

    /// A transport that never answers — for routing-only tests.
    struct NullTransport;

    impl Transport for NullTransport {
        fn get(&self, _: &str, _: &str) -> Result<TransportResponse, String> {
            Err("null".into())
        }
        fn post(&self, _: &str, _: &str, _: &str) -> Result<TransportResponse, String> {
            Err("null".into())
        }
    }

    /// An in-memory "cluster" answering the solve-service protocol with
    /// pure, deterministic answers, optionally dropping whole shards.
    struct FakeCluster {
        dead: Vec<String>,
    }

    fn canned_answer(q: &Json) -> Json {
        let key = question_key(q).unwrap();
        Json::obj([
            ("cached", Json::Bool(false)),
            ("key", Json::Str(format!("{key:016x}"))),
            (
                "result",
                Json::obj([("verdict", Json::Bool(key.is_multiple_of(2)))]),
            ),
        ])
    }

    impl Transport for FakeCluster {
        fn get(&self, shard: &str, path: &str) -> Result<TransportResponse, String> {
            if self.dead.iter().any(|d| d == shard) {
                return Err("connection refused".into());
            }
            match path {
                "/readyz" => Ok(TransportResponse {
                    status: 200,
                    body: "{\"ready\": true}".into(),
                }),
                _ => Ok(TransportResponse {
                    status: 404,
                    body: "not found".into(),
                }),
            }
        }

        fn post(&self, shard: &str, _path: &str, body: &str) -> Result<TransportResponse, String> {
            if self.dead.iter().any(|d| d == shard) {
                return Err("connection refused".into());
            }
            let v = Json::parse(body).map_err(|e| e.to_string())?;
            let body = match v.get("questions") {
                Some(Json::Arr(qs)) => {
                    let answers: Vec<Json> = qs
                        .iter()
                        .map(|q| {
                            Json::obj([("status", Json::Num(200.0)), ("body", canned_answer(q))])
                        })
                        .collect();
                    Json::obj([("answers", Json::Arr(answers))]).to_string()
                }
                _ => canned_answer(&v).to_string(),
            };
            Ok(TransportResponse { status: 200, body })
        }
    }

    fn questions(n: usize) -> Vec<Json> {
        let specs = [
            "trivial:1",
            "trivial:2",
            "eps:1:3",
            "eps:1:5",
            "consensus:1",
            "kset:2:2",
        ];
        (0..n)
            .map(|i| {
                Json::obj([
                    ("spec", Json::Str(specs[i % specs.len()].to_string())),
                    ("max_rounds", Json::Num(((i % 2) + 1) as f64)),
                ])
            })
            .collect()
    }

    #[test]
    fn batch_scatter_gather_preserves_order_and_answers() {
        let gw = Gateway::new(
            Arc::new(FakeCluster { dead: vec![] }),
            GatewayConfig {
                backends: vec!["a:1".into(), "b:1".into(), "c:1".into()],
                replicas: 2,
                workers: 3,
            },
        );
        let qs = questions(6);
        let out = gw.solve_batch(&qs);
        let v = Json::parse(&out).unwrap();
        let Some(Json::Arr(answers)) = v.get("answers") else {
            panic!("{out}");
        };
        assert_eq!(answers.len(), 6);
        for (q, a) in qs.iter().zip(answers) {
            assert_eq!(a.get("status"), Some(&Json::Num(200.0)), "{a:?}");
            let key = question_key(q).unwrap();
            assert_eq!(
                a.get("body").unwrap().get("key").unwrap().as_str(),
                Some(format!("{key:016x}").as_str()),
                "answer out of order"
            );
        }
    }

    #[test]
    fn dead_primary_fails_over_with_identical_answers() {
        let qs = questions(6);
        let healthy = Gateway::new(
            Arc::new(FakeCluster { dead: vec![] }),
            GatewayConfig {
                backends: vec!["a:1".into(), "b:1".into(), "c:1".into()],
                replicas: 2,
                workers: 2,
            },
        );
        let degraded = Gateway::new(
            Arc::new(FakeCluster {
                dead: vec!["b:1".into()],
            }),
            GatewayConfig {
                backends: vec!["a:1".into(), "b:1".into(), "c:1".into()],
                replicas: 2,
                workers: 2,
            },
        );
        let before = Json::parse(&healthy.solve_batch(&qs)).unwrap();
        let after = Json::parse(&degraded.solve_batch(&qs)).unwrap();
        let (Some(Json::Arr(b)), Some(Json::Arr(a))) =
            (before.get("answers"), after.get("answers"))
        else {
            panic!();
        };
        for (x, y) in b.iter().zip(a) {
            assert_eq!(x.get("status"), Some(&Json::Num(200.0)));
            assert_eq!(y.get("status"), Some(&Json::Num(200.0)), "{y:?}");
            // purity: the failed-over answer is byte-identical
            assert_eq!(
                x.get("body").unwrap().to_string(),
                y.get("body").unwrap().to_string()
            );
        }
        // the dead shard was noticed
        assert!(degraded
            .health()
            .snapshot()
            .iter()
            .any(|s| s.health == ShardHealth::Down));
    }

    #[test]
    fn every_shard_dead_answers_503_per_question() {
        let gw = Gateway::new(
            Arc::new(FakeCluster {
                dead: vec!["a:1".into(), "b:1".into()],
            }),
            GatewayConfig {
                backends: vec!["a:1".into(), "b:1".into()],
                replicas: 2,
                workers: 2,
            },
        );
        let qs = questions(3);
        let v = Json::parse(&gw.solve_batch(&qs)).unwrap();
        let Some(Json::Arr(answers)) = v.get("answers") else {
            panic!();
        };
        assert_eq!(answers.len(), 3);
        for a in answers {
            assert_eq!(a.get("status"), Some(&Json::Num(503.0)), "{a:?}");
        }
    }

    #[test]
    fn malformed_questions_answer_400_without_a_round_trip() {
        let gw = Gateway::new(
            Arc::new(FakeCluster { dead: vec![] }),
            GatewayConfig {
                backends: vec!["a:1".into()],
                replicas: 1,
                workers: 1,
            },
        );
        let qs = vec![
            Json::parse(r#"{"spec": "trivial:1"}"#).unwrap(),
            Json::parse(r#"{"nope": 1}"#).unwrap(),
        ];
        let v = Json::parse(&gw.solve_batch(&qs)).unwrap();
        let Some(Json::Arr(answers)) = v.get("answers") else {
            panic!();
        };
        assert_eq!(answers[0].get("status"), Some(&Json::Num(200.0)));
        assert_eq!(answers[1].get("status"), Some(&Json::Num(400.0)));
    }
}
