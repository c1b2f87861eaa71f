//! The answer oracle: every reply the service gives is checked against a
//! record computed in process (with `solve_up_to` + `report_to_json`) before
//! timing starts.
//!
//! Envelope fields (`cached`, `job`, `coalesced`) legitimately differ
//! between cold, warm and coalesced replies, so only the status, the
//! `key` and the parsed `result` are compared — never envelope bytes.

use crate::workload::Question;
use iis_core::cache::{cache_key, report_to_json};
use iis_core::solvability::{solve_up_to_opts, SolveOptions};
use iis_obs::Json;
use iis_tasks::library::parse_spec;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// What a correct reply to one question carries.
#[derive(Clone, Debug)]
pub struct Expected {
    /// `cache_key` of the question.
    pub key: u64,
    /// The same key as the 16-digit hex the service replies with.
    pub key_hex: String,
    /// The canonical record `solve_up_to` + `report_to_json` produce.
    pub record: Json,
}

/// The search options `iis serve` applies to a question that sets none:
/// the default node budget, one thread, the compiled kernel.
pub fn server_options() -> SolveOptions {
    SolveOptions::new().budget(1_000_000).jobs(1)
}

/// The expected answer to `q`, computed in process with the options the
/// service uses, so a question the service could not decide fails here.
///
/// # Errors
///
/// When the in-process sweep contradicts a fact the paper proves (see
/// [`check_paper_facts`]) — the oracle itself must be right.
pub fn expect(q: &Question) -> Result<Expected, String> {
    let task = parse_spec(&q.spec)?;
    let report = solve_up_to_opts(&task, q.b, &server_options());
    let record = report_to_json(&report);
    check_paper_facts(&q.spec, q.b, &record)?;
    let key = cache_key(&task, q.b);
    Ok(Expected {
        key,
        key_hex: format!("{key:016x}"),
        record,
    })
}

/// [`expect`] for every question, on `threads` threads.
///
/// # Errors
///
/// The first question whose oracle record fails its paper-fact check.
pub fn expect_all(qs: &[Question], threads: usize) -> Result<Vec<Expected>, String> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<Result<Expected, String>>>> = Mutex::new(vec![None; qs.len()]);
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(q) = qs.get(i) else { return };
                let e = expect(q);
                out.lock().expect("oracle slot lock")[i] = Some(e);
            });
        }
    });
    out.into_inner()
        .expect("oracle slot lock")
        .into_iter()
        .map(|e| e.expect("every question computed"))
        .collect()
}

/// The `results` verdict vector of a record, as `(b, solvable)` pairs.
fn verdicts(record: &Json) -> Option<Vec<(u64, bool)>> {
    record
        .get("results")?
        .as_array()?
        .iter()
        .map(|r| {
            let pair = r.as_array()?;
            let b = pair.first()?.as_u64()?;
            let ok = match pair.get(1)? {
                Json::Bool(ok) => *ok,
                _ => return None,
            };
            Some((b, ok))
        })
        .collect()
}

/// `⌈log₃ g⌉`: the round at which `eps:1:g` first becomes solvable.
pub fn ceil_log3(g: u64) -> u64 {
    let (mut b, mut reach) = (0, 1u64);
    while reach < g {
        reach *= 3;
        b += 1;
    }
    b
}

/// The facts the paper proves about the library tasks, checked on a
/// record for `spec` at `max_rounds`:
///
/// - `consensus:*` is refuted at every round;
/// - `eps:1:G` first becomes solvable at `⌈log₃ G⌉`;
/// - `oneshot:n` is solvable at exactly one round;
/// - `trivial:n` is solvable with no communication at all.
///
/// Every record must also be decided: a witness, or an exact refutation
/// of every round `0..=max_rounds`.
///
/// # Errors
///
/// A description of the violated fact.
pub fn check_paper_facts(spec: &str, max_rounds: usize, record: &Json) -> Result<(), String> {
    let v = verdicts(record).ok_or("record has no verdict vector")?;
    let first = v.iter().find(|(_, ok)| *ok).map(|(b, _)| *b);
    let witness_b = record
        .get("witness")
        .and_then(|w| w.get("b"))
        .and_then(Json::as_u64);
    if first != witness_b {
        return Err(format!(
            "{spec}: first solvable round {first:?} but witness at {witness_b:?}"
        ));
    }
    let decided = first.is_some() || v.len() == max_rounds + 1;
    if !decided {
        return Err(format!("{spec}@{max_rounds}: undecided record"));
    }
    if v.iter().enumerate().any(|(i, (b, _))| *b != i as u64) {
        return Err(format!("{spec}: verdict rounds out of order"));
    }
    let parts: Vec<&str> = spec.split(':').collect();
    let want: Option<Option<u64>> = match parts.as_slice() {
        ["consensus", _] => Some(None),
        ["eps", "1", g] => {
            let g: u64 = g.parse().map_err(|_| format!("bad spec {spec}"))?;
            let at = ceil_log3(g);
            Some((at <= max_rounds as u64).then_some(at))
        }
        ["oneshot", _] => Some((max_rounds >= 1).then_some(1)),
        ["trivial", _] => Some(Some(0)),
        _ => None,
    };
    match want {
        Some(want) if want != first => Err(format!(
            "{spec}@{max_rounds}: first solvable round {first:?}, the paper says {want:?}"
        )),
        _ => Ok(()),
    }
}

/// Checks one single-question reply: status 200, the right `key`, and a
/// `result` structurally equal to the expected record.
///
/// # Errors
///
/// What was wrong with the reply.
pub fn check_reply(status: u16, body: &Json, exp: &Expected) -> Result<(), String> {
    if status != 200 {
        return Err(format!("status {status}: {body}"));
    }
    let key = body.get("key").and_then(Json::as_str);
    if key != Some(exp.key_hex.as_str()) {
        return Err(format!("key {key:?}, expected {}", exp.key_hex));
    }
    match body.get("result") {
        Some(r) if *r == exp.record => Ok(()),
        Some(r) => Err(format!(
            "result differs from the oracle record: got {}, expected {}",
            abbreviate(&r.to_string()),
            abbreviate(&exp.record.to_string())
        )),
        None => Err("reply has no result".to_string()),
    }
}

/// Checks a batch envelope `{"answers": [{"status", "body"}, …]}` against
/// the expected records, in order. Returns one verdict per question.
///
/// # Errors
///
/// When the envelope itself is malformed or has the wrong length.
pub fn check_batch(body: &Json, exps: &[&Expected]) -> Result<Vec<Result<(), String>>, String> {
    let answers = body
        .get("answers")
        .and_then(Json::as_array)
        .ok_or("batch reply has no answers array")?;
    if answers.len() != exps.len() {
        return Err(format!(
            "batch of {} answered with {} answers",
            exps.len(),
            answers.len()
        ));
    }
    Ok(answers
        .iter()
        .zip(exps)
        .map(|(a, exp)| {
            let status = a.get("status").and_then(Json::as_u64).unwrap_or(0) as u16;
            match a.get("body") {
                Some(b) => check_reply(status, b, exp),
                None => Err("answer has no body".to_string()),
            }
        })
        .collect())
}

fn abbreviate(s: &str) -> String {
    if s.len() <= 160 {
        s.to_string()
    } else {
        let cut = (0..=160)
            .rev()
            .find(|&i| s.is_char_boundary(i))
            .unwrap_or(0);
        format!("{}…", &s[..cut])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Question;

    fn reply_for(exp: &Expected) -> Json {
        Json::obj([
            ("cached", Json::Bool(true)),
            ("key", Json::Str(exp.key_hex.clone())),
            ("result", exp.record.clone()),
        ])
    }

    fn set_field(v: &Json, name: &str, value: Json) -> Json {
        let Json::Obj(fields) = v else {
            panic!("not an object")
        };
        Json::Obj(
            fields
                .iter()
                .map(|(k, x)| (k.clone(), if k == name { value.clone() } else { x.clone() }))
                .collect(),
        )
    }

    #[test]
    fn accepts_a_correct_reply_whatever_the_envelope_says() {
        let exp = expect(&Question::new("eps:1:9", 3, false, "t")).unwrap();
        let reply = reply_for(&exp);
        assert!(check_reply(200, &reply, &exp).is_ok());
        let cold = set_field(&reply, "cached", Json::Bool(false));
        assert!(check_reply(200, &cold, &exp).is_ok());
        assert!(check_reply(503, &reply, &exp).is_err());
    }

    #[test]
    fn rejects_a_flipped_verdict() {
        let exp = expect(&Question::new("eps:1:9", 3, false, "t")).unwrap();
        let flipped_results = Json::parse("[[0,false],[1,false],[2,false]]").unwrap();
        let record = set_field(&exp.record, "results", flipped_results);
        let record = set_field(&record, "witness", Json::Null);
        let reply = set_field(&reply_for(&exp), "result", record.clone());
        assert!(check_reply(200, &reply, &exp).is_err());
        assert!(check_paper_facts("eps:1:9", 3, &record).is_err());
    }

    #[test]
    fn rejects_a_refutation_filed_under_another_key() {
        // the misfiled record: consensus:1's refutation under eps:1:9's key
        let eps = expect(&Question::new("eps:1:9", 3, false, "t")).unwrap();
        let cons = expect(&Question::new("consensus:1", 3, false, "t")).unwrap();
        let misfiled = Json::obj([
            ("cached", Json::Bool(true)),
            ("key", Json::Str(eps.key_hex.clone())),
            ("result", cons.record.clone()),
        ]);
        assert!(check_reply(200, &misfiled, &eps).is_err());
        assert!(check_paper_facts("eps:1:9", 3, &cons.record).is_err());
    }

    #[test]
    fn rejects_a_truncated_witness_map() {
        let exp = expect(&Question::new("eps:1:9", 3, false, "t")).unwrap();
        let witness = exp.record.get("witness").unwrap();
        let Some(Json::Arr(map)) = witness.get("map") else {
            panic!("witness has a map")
        };
        let short = Json::Arr(map[..map.len() - 1].to_vec());
        let record = set_field(&exp.record, "witness", set_field(witness, "map", short));
        let reply = set_field(&reply_for(&exp), "result", record);
        assert!(check_reply(200, &reply, &exp).is_err());
    }

    #[test]
    fn batch_checks_align_answers_with_questions() {
        let a = expect(&Question::new("trivial:1", 1, false, "t")).unwrap();
        let b = expect(&Question::new("consensus:1", 2, true, "t")).unwrap();
        let answer =
            |e: &Expected| Json::obj([("status", Json::Num(200.0)), ("body", reply_for(e))]);
        let env = Json::obj([("answers", Json::Arr(vec![answer(&a), answer(&b)]))]);
        let ok = check_batch(&env, &[&a, &b]).unwrap();
        assert!(ok.iter().all(Result::is_ok));
        let swapped = check_batch(&env, &[&b, &a]).unwrap();
        assert!(swapped.iter().all(Result::is_err));
        assert!(check_batch(&env, &[&a]).is_err());
    }

    #[test]
    fn paper_facts_hold_on_the_oracle() {
        for (spec, b) in [
            ("eps:1:27", 4),
            ("eps:1:28", 4),
            ("oneshot:2", 3),
            ("trivial:2", 1),
        ] {
            assert!(
                expect(&Question::new(spec, b, false, "t")).is_ok(),
                "{spec}"
            );
        }
        assert_eq!(ceil_log3(1), 0);
        assert_eq!(ceil_log3(3), 1);
        assert_eq!(ceil_log3(27), 3);
        assert_eq!(ceil_log3(28), 4);
    }
}
