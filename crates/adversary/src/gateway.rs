//! Fault injection for the cluster gateway: a deterministic transport
//! wrapper plus an in-memory mock cluster, driving [`iis_cluster::Gateway`]
//! through drops, delays, short reads, and dead shards.
//!
//! The soundness claim under test is the routing corollary of solvability
//! purity (Prop 3.1): a question's answer is a pure function of its cache
//! key, so retries, failovers, and replica choice can change *when* and
//! *where* a question is answered but never *what* the answer is. The
//! oracle therefore accepts exactly two outcomes per question — the
//! byte-identical canned answer for its key, or an honest `503` — and
//! rejects everything else: a wrong body, a misaligned answer (one
//! question served another's result), a dropped or duplicated slot.
//!
//! Faults derive from `(seed, op_index)` exactly like the storage layer's
//! [`crate::FaultyIo`]: each transport call rolls
//! [`derive_seed`]`(seed, op)` and misbehaves on the `1/denom` lane. The
//! gateway is driven with one worker so transport ops are issued in a
//! deterministic order and a failing case replays bit-identically.

use crate::adversary::derive_seed;
use crate::oracle::OracleFailure;
use iis_cluster::{
    batch_envelope, question_key, Answer, Gateway, GatewayConfig, Transport, TransportError,
    TransportResponse,
};
use iis_core::wire::{parse_body, SolveBody};
use iis_obs::{Json, Rng, ToJson};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The injectable transport fault kinds.
///
/// All three surface to the gateway as a transport error, because that is
/// what the real `obs::http` client reports for each: a refused connection
/// (drop), a missed deadline (delay), and a body shorter than its declared
/// `Content-Length` (short read). The distinction is kept for the fault
/// log so shrunken reports say *which* misbehavior broke routing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportFault {
    /// The connection never opens.
    Drop,
    /// The reply misses the per-request deadline.
    Delay,
    /// The reply body is truncated mid-stream.
    ShortRead,
}

/// A mock shard fleet answering the backend solve protocol from a pure
/// function of the question key — no HTTP, no worker pool, no cache.
///
/// Because [`canned_body`] is a function of the key alone, every shard
/// agrees on every answer, exactly as purity guarantees for real
/// `iis serve` replicas; any disagreement observed downstream must have
/// been introduced by the transport or the gateway.
pub struct MockCluster {
    /// Shards that never answer (connection refused), by index.
    dead: Vec<bool>,
}

/// The canned single-question response body for `key` — the mock's stand-in
/// for the deterministic solver output all replicas share.
pub fn canned_body(key: u64) -> String {
    format!(
        "{{\"cached\":true,\"key\":\"{key:016x}\",\"result\":{{\"tag\":{}}}}}",
        key % 1_000_003
    )
}

impl MockCluster {
    fn shard_index(shard: &str) -> usize {
        shard
            .rsplit('-')
            .next()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0)
    }

    fn answer(&self, q: &Json) -> Answer {
        match question_key(q) {
            Ok(key) => Answer {
                status: 200,
                body: Json::parse(&canned_body(key)).expect("canned bodies are JSON"),
            },
            Err(e) => Answer::error(400, &e),
        }
    }

    fn respond(&self, shard: &str, path: &str, body: &str) -> Result<TransportResponse, String> {
        if *self.dead.get(Self::shard_index(shard)).unwrap_or(&false) {
            return Err(format!("{shard}: connection refused (dead shard)"));
        }
        match path {
            "/readyz" | "/healthz" => Ok(TransportResponse {
                status: 200,
                body: "{\"status\":\"ok\"}".to_string(),
            }),
            "/metrics" => Ok(TransportResponse {
                status: 200,
                body: String::new(),
            }),
            "/solve" => match parse_body(body) {
                Ok(SolveBody::Batch(questions)) => {
                    let answers: Vec<Answer> = questions.iter().map(|q| self.answer(q)).collect();
                    Ok(TransportResponse {
                        status: 200,
                        body: batch_envelope(&answers),
                    })
                }
                Ok(SolveBody::One(q)) => {
                    let a = self.answer(&q);
                    Ok(TransportResponse {
                        status: a.status,
                        body: a.body.to_string(),
                    })
                }
                Err(e) => Err(format!("{shard}: unreadable request: {e}")),
            },
            _ => Ok(TransportResponse {
                status: 404,
                body: "not found".to_string(),
            }),
        }
    }
}

/// A deterministic fault-injecting [`Transport`] over a [`MockCluster`].
///
/// Each call (GET or POST alike) takes the next op index from a shared
/// counter and rolls `derive_seed(seed, op)`; on the `1/denom` lane the
/// call fails with the [`TransportFault`] the roll selects instead of
/// reaching the shard. `denom == 0` disables injection — the control
/// configuration the oracle is calibrated against.
pub struct FaultyTransport {
    cluster: MockCluster,
    seed: u64,
    denom: u64,
    ops: AtomicU64,
}

impl FaultyTransport {
    /// Wraps `cluster` with faults derived from `(seed, op_index)`.
    pub fn new(cluster: MockCluster, seed: u64, denom: u64) -> FaultyTransport {
        FaultyTransport {
            cluster,
            seed,
            denom,
            ops: AtomicU64::new(0),
        }
    }

    /// Rolls the fault lane for the next op.
    fn roll(&self) -> Option<TransportFault> {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        if self.denom == 0 {
            return None;
        }
        let r = derive_seed(self.seed, op);
        r.is_multiple_of(self.denom).then_some(match (r >> 8) % 3 {
            0 => TransportFault::Drop,
            1 => TransportFault::Delay,
            _ => TransportFault::ShortRead,
        })
    }

    fn faulted(&self, shard: &str, fault: TransportFault) -> TransportError {
        match fault {
            TransportFault::Drop => format!("{shard}: connection refused (injected)"),
            TransportFault::Delay => format!("{shard}: deadline exceeded (injected)"),
            TransportFault::ShortRead => {
                format!("{shard}: short read: body ended before Content-Length (injected)")
            }
        }
    }
}

impl Transport for FaultyTransport {
    fn get(&self, shard: &str, path: &str) -> Result<TransportResponse, TransportError> {
        match self.roll() {
            Some(fault) => Err(self.faulted(shard, fault)),
            None => self.cluster.respond(shard, path, ""),
        }
    }

    fn post(
        &self,
        shard: &str,
        path: &str,
        body: &str,
    ) -> Result<TransportResponse, TransportError> {
        match self.roll() {
            Some(fault) => Err(self.faulted(shard, fault)),
            None => self.cluster.respond(shard, path, body),
        }
    }
}

/// One gateway fuzz case: a seeded cluster shape and fault plan. The
/// question list, dead-shard set, and every transport fault derive from
/// these numbers alone.
#[derive(Clone, Debug)]
pub struct GatewayCase {
    /// The case seed (already mixed from `(sweep_seed, index)`).
    pub seed: u64,
    /// Questions in the batch.
    pub questions: usize,
    /// Shards in the fleet.
    pub shards: usize,
    /// Replicas per key.
    pub replicas: usize,
    /// Fault density: roughly one transport fault per `fault_denom` calls
    /// (`0` disables injection).
    pub fault_denom: u64,
}

impl ToJson for GatewayCase {
    fn to_json(&self) -> Json {
        Json::obj([
            ("seed", Json::Num(self.seed as f64)),
            ("questions", Json::Num(self.questions as f64)),
            ("shards", Json::Num(self.shards as f64)),
            ("replicas", Json::Num(self.replicas as f64)),
            ("fault_denom", Json::Num(self.fault_denom as f64)),
        ])
    }
}

/// The case at `index` of the sweep seeded by `sweep_seed`.
pub fn gateway_case_at(sweep_seed: u64, index: usize) -> GatewayCase {
    let seed = derive_seed(sweep_seed, index as u64);
    let mut rng = Rng::seed_from_u64(seed);
    let shards = rng.random_range(2usize..6);
    GatewayCase {
        seed,
        questions: rng.random_range(3usize..12),
        shards,
        replicas: rng.random_range(1usize..shards + 1),
        fault_denom: if rng.random_bool(0.8) {
            rng.random_range(2u64..9)
        } else {
            0
        },
    }
}

/// Simpler variants of `case` for the shrinker: fewer questions, no
/// faults, sparser faults, one replica.
pub fn gateway_candidates(case: &GatewayCase) -> Vec<GatewayCase> {
    let mut out = Vec::new();
    if case.questions > 1 {
        let mut c = case.clone();
        c.questions /= 2;
        out.push(c);
        let mut c = case.clone();
        c.questions -= 1;
        out.push(c);
    }
    if case.fault_denom > 0 {
        let mut c = case.clone();
        c.fault_denom = 0;
        out.push(c);
        let mut c = case.clone();
        c.fault_denom *= 4;
        out.push(c);
    }
    if case.replicas > 1 {
        let mut c = case.clone();
        c.replicas = 1;
        out.push(c);
    }
    out
}

fn fail(failures: &mut Vec<OracleFailure>, detail: String) {
    failures.push(OracleFailure::GatewayRouting { detail });
}

/// The spec pool questions draw from — distinct tasks, so distinct cache
/// keys, so a misrouted answer is detectable by its body.
const SPECS: [&str; 6] = [
    "trivial:1",
    "trivial:2",
    "eps:1:3",
    "eps:1:5",
    "consensus:1",
    "kset:2:2",
];

/// The seeded question list for `case` — valid single-question bodies with
/// duplicates allowed (a repeated key must still answer per slot).
fn case_questions(case: &GatewayCase) -> Vec<Json> {
    let mut rng = Rng::seed_from_u64(derive_seed(case.seed, 0xCA5E));
    (0..case.questions)
        .map(|_| {
            Json::obj([
                (
                    "spec",
                    Json::Str(SPECS[rng.random_range(0usize..SPECS.len())].to_string()),
                ),
                ("max_rounds", Json::Num(rng.random_range(1usize..4) as f64)),
            ])
        })
        .collect()
}

/// Checks one envelope slot against purity: the slot must hold either the
/// canned answer for *its own* key, byte-identical, or an honest `503`.
fn check_answer(failures: &mut Vec<OracleFailure>, i: usize, key: u64, slot: &Json) {
    let status = slot.get("status").and_then(Json::as_f64);
    let body = slot.get("body");
    match (status, body) {
        (Some(200.0), Some(body)) => {
            let expect = canned_body(key);
            let got = body.to_string();
            if got != expect {
                fail(
                    failures,
                    format!(
                        "question {i} (key {key:016x}) answered with the wrong \
                         bytes: expected {expect}, got {got}"
                    ),
                );
            }
        }
        (Some(503.0), _) => {} // late, honestly refused — allowed
        (Some(s), _) => fail(
            failures,
            format!("question {i} (key {key:016x}) answered status {s}: {slot}"),
        ),
        (None, _) => fail(failures, format!("question {i}: malformed slot {slot}")),
    }
}

/// Runs one gateway fuzz case and returns every violated invariant.
///
/// Builds a seeded fleet (each shard dead with probability 0.15), wraps it
/// in a [`FaultyTransport`], and drives a one-worker [`Gateway`] through
/// the full batch plus a single-question call, asserting:
///
/// 1. the batch envelope parses and has exactly one slot per question, in
///    order — no dropped, duplicated, or misaligned answers;
/// 2. every `200` slot is byte-identical to the canned answer for that
///    question's own key — never another question's, never garbled;
/// 3. every non-`200` slot is a `503` — under transport faults the
///    gateway may answer late or not at all, never wrongly;
/// 4. the single-question path obeys the same dichotomy;
/// 5. with `fault_denom == 0` and a fully live fleet, nothing is allowed
///    to fail at all (the control calibration).
pub fn run_gateway_case(case: &GatewayCase) -> Vec<OracleFailure> {
    let mut failures = Vec::new();
    let mut rng = Rng::seed_from_u64(derive_seed(case.seed, 0xDEAD));
    let dead: Vec<bool> = (0..case.shards).map(|_| rng.random_bool(0.15)).collect();
    let any_dead = dead.iter().any(|&d| d);
    let transport = FaultyTransport::new(MockCluster { dead }, case.seed, case.fault_denom);
    let gateway = Gateway::new(
        Arc::new(transport),
        GatewayConfig {
            backends: (0..case.shards).map(|i| format!("shard-{i}")).collect(),
            replicas: case.replicas,
            // one worker: transport ops issue in deterministic order, so
            // the fault plan — and hence the verdict — replays exactly
            workers: 1,
        },
    );

    let questions = case_questions(case);
    let keys: Vec<u64> = questions
        .iter()
        .map(|q| question_key(q).expect("generated questions are valid"))
        .collect();
    // a dead shard can orphan a whole replica set (replicas < shards), so
    // the zero-failure calibration needs a fully live, fault-free fleet
    let fault_free = case.fault_denom == 0 && !any_dead;

    let envelope = gateway.solve_batch(&questions);
    match Json::parse(&envelope) {
        Err(e) => fail(&mut failures, format!("unparseable envelope: {e}")),
        Ok(parsed) => match parsed.get("answers") {
            Some(Json::Arr(slots)) => {
                if slots.len() != questions.len() {
                    fail(
                        &mut failures,
                        format!(
                            "{} questions got {} answer slots",
                            questions.len(),
                            slots.len()
                        ),
                    );
                } else {
                    for (i, slot) in slots.iter().enumerate() {
                        check_answer(&mut failures, i, keys[i], slot);
                        if fault_free {
                            let status = slot.get("status").and_then(Json::as_f64);
                            if status != Some(200.0) {
                                fail(
                                    &mut failures,
                                    format!(
                                        "question {i} failed ({slot}) with no faults \
                                         injected and live shards available"
                                    ),
                                );
                            }
                        }
                    }
                }
            }
            _ => fail(
                &mut failures,
                format!("envelope has no answers: {envelope}"),
            ),
        },
    }

    // the single-question path must obey the same dichotomy
    let (status, body) = gateway.solve(&questions[0].to_string());
    match status {
        200 => {
            let expect = canned_body(keys[0]);
            if body != expect {
                fail(
                    &mut failures,
                    format!(
                        "single-question answer for key {:016x} has the wrong \
                         bytes: expected {expect}, got {body}",
                        keys[0]
                    ),
                );
            }
        }
        503 => {
            if fault_free {
                fail(
                    &mut failures,
                    format!("single question refused ({body}) with no faults injected"),
                );
            }
        }
        s => fail(
            &mut failures,
            format!("single question answered status {s}: {body}"),
        ),
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_derive_deterministically() {
        for index in 0..10 {
            let a = gateway_case_at(42, index);
            let b = gateway_case_at(42, index);
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.questions, b.questions);
            assert_eq!(a.shards, b.shards);
            assert_eq!(a.replicas, b.replicas);
            assert_eq!(a.fault_denom, b.fault_denom);
            assert!(a.replicas >= 1 && a.replicas <= a.shards);
        }
    }

    #[test]
    fn verdicts_replay_bit_identically() {
        for index in 0..12 {
            let case = gateway_case_at(7, index);
            let a = run_gateway_case(&case);
            let b = run_gateway_case(&case);
            assert_eq!(a, b, "case {index} did not replay");
        }
    }

    #[test]
    fn fault_free_sweeps_are_clean_and_faulty_sweeps_never_answer_wrongly() {
        let mut refused = 0usize;
        for index in 0..40 {
            let case = gateway_case_at(3, index);
            let failures = run_gateway_case(&case);
            assert!(failures.is_empty(), "case {index} ({case:?}): {failures:?}");
            refused += usize::from(case.fault_denom > 0);
        }
        assert!(refused > 0, "the sweep never exercised fault injection");
    }

    #[test]
    fn the_oracle_catches_a_wrong_answer() {
        // a transport that swaps every answer body for a constant — the
        // purity oracle must flag every 200 slot
        struct LyingTransport(MockCluster);
        impl Transport for LyingTransport {
            fn get(&self, shard: &str, path: &str) -> Result<TransportResponse, TransportError> {
                self.0.respond(shard, path, "")
            }
            fn post(
                &self,
                shard: &str,
                path: &str,
                body: &str,
            ) -> Result<TransportResponse, TransportError> {
                let mut resp = self.0.respond(shard, path, body)?;
                resp.body = resp.body.replace("\"cached\":true", "\"cached\":false");
                Ok(resp)
            }
        }
        let case = GatewayCase {
            seed: 1,
            questions: 3,
            shards: 2,
            replicas: 2,
            fault_denom: 0,
        };
        let gateway = Gateway::new(
            Arc::new(LyingTransport(MockCluster {
                dead: vec![false, false],
            })),
            GatewayConfig {
                backends: vec!["shard-0".into(), "shard-1".into()],
                replicas: 2,
                workers: 1,
            },
        );
        let questions = case_questions(&case);
        let envelope = gateway.solve_batch(&questions);
        let parsed = Json::parse(&envelope).unwrap();
        let Some(Json::Arr(slots)) = parsed.get("answers") else {
            panic!("{envelope}");
        };
        let mut failures = Vec::new();
        for (i, slot) in slots.iter().enumerate() {
            let key = question_key(&questions[i]).unwrap();
            check_answer(&mut failures, i, key, slot);
        }
        assert_eq!(failures.len(), slots.len(), "{failures:?}");
        assert!(failures.iter().all(|f| f.kind() == "gateway_routing"));
    }

    #[test]
    fn every_shard_dead_refuses_honestly() {
        let case = GatewayCase {
            seed: 9,
            questions: 4,
            shards: 3,
            replicas: 2,
            fault_denom: 0,
        };
        let transport = FaultyTransport::new(
            MockCluster {
                dead: vec![true, true, true],
            },
            case.seed,
            0,
        );
        let gateway = Gateway::new(
            Arc::new(transport),
            GatewayConfig {
                backends: vec!["shard-0".into(), "shard-1".into(), "shard-2".into()],
                replicas: 2,
                workers: 1,
            },
        );
        let questions = case_questions(&case);
        let envelope = gateway.solve_batch(&questions);
        let parsed = Json::parse(&envelope).unwrap();
        let Some(Json::Arr(slots)) = parsed.get("answers") else {
            panic!("{envelope}");
        };
        assert_eq!(slots.len(), 4);
        for slot in slots {
            assert_eq!(slot.get("status").and_then(Json::as_f64), Some(503.0));
        }
    }
}
