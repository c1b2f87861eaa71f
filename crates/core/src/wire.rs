//! The solve protocol's wire format: the one place a `POST /solve` body is
//! read, and the batch envelope its answers travel in.
//!
//! Proposition 3.1 makes a decided answer a pure function of
//! `(task, max_rounds)`, so the code that reads a question off the wire
//! *is* the content address. `iis gateway` routes by [`Question::key`] and
//! an `iis serve` shard files its record under the same key because both
//! read questions with [`Question::from_json`].
//!
//! The rules are strict; a question that breaks one is refused, never
//! guessed at:
//!
//! - exactly one of `"spec"`, a library spec ([`parse_spec`], never a
//!   file path), or `"task"`, an inline serialized [`Task`];
//! - `"max_rounds"`, `"budget"` and `"jobs"` are non-negative JSON
//!   integers within their caps: `-1`, `2.7` and `"2"` are refused, not
//!   clamped or truncated;
//! - `"kernel"` names a [`Kernel`] and `"wait"` is a boolean;
//! - any other field is refused, so a misspelled option cannot silently
//!   fall back to its default.

use crate::cache::cache_key;
use crate::solvability::{Kernel, SolveOptions};
use iis_obs::json::FromJson as _;
use iis_obs::Json;
use iis_tasks::library::parse_spec;
use iis_tasks::Task;

/// Rounds swept when a question names no `max_rounds`.
pub const DEFAULT_MAX_ROUNDS: usize = 2;
/// The largest `max_rounds`: `SDS^7` of even a small input is an
/// astronomically large complex.
pub const MAX_ROUNDS: usize = 6;
/// Search nodes a question may spend when it names no `budget`.
pub const DEFAULT_BUDGET: u64 = 1_000_000;
/// Search threads when a question names no `jobs`.
pub const DEFAULT_JOBS: usize = 1;
/// The most search threads one question may ask for (the `--workers`
/// ceiling of `iis serve` and `iis gateway`).
pub const MAX_JOBS: usize = 64;
/// Whether a question blocks for its answer when it names no `wait`.
pub const DEFAULT_WAIT: bool = true;
/// Most questions in one batch body. Past this the body is malformed
/// rather than shed: a well-behaved client splits its sweep.
pub const MAX_BATCH: usize = 256;

/// One solvability question, as read off the wire.
#[derive(Clone, Debug)]
pub struct Question {
    /// How the question named its task: the library spec, or
    /// `@inline:<name>` for an inline task.
    pub spec: String,
    /// The task asked about.
    pub task: Task,
    /// The round bound `b` of the sweep `0..=b`.
    pub max_rounds: usize,
    /// Budget, jobs and kernel: they change the time to a decided answer,
    /// never the answer, so they stay out of the key.
    pub opts: SolveOptions,
    /// `false`: acknowledge with a job id instead of blocking.
    pub wait: bool,
}

impl Question {
    /// Reads one question under the rules in the [module docs](self).
    ///
    /// # Errors
    ///
    /// Returns a client-facing message naming the first defect.
    pub fn from_json(v: &Json) -> Result<Question, String> {
        let Json::Obj(members) = v else {
            return Err("a question must be a JSON object".to_string());
        };
        let known = [
            "spec",
            "task",
            "max_rounds",
            "budget",
            "jobs",
            "kernel",
            "wait",
        ];
        if let Some((field, _)) = members.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            return Err(format!("unknown field \"{field}\""));
        }
        let (spec, task) = match (v.get("spec"), v.get("task")) {
            (Some(s), None) => {
                let s = s.as_str().ok_or("\"spec\" must be a string")?;
                if s.starts_with('@') {
                    // never a server-side file read, and no error text
                    // that could tell an existing path from a missing one
                    return Err("\"spec\" names a library task; @FILE is CLI-only".to_string());
                }
                (s.to_string(), parse_spec(s)?)
            }
            (None, Some(t)) => {
                let task = Task::from_json(t).map_err(|e| format!("bad \"task\": {e}"))?;
                (format!("@inline:{}", task.name()), task)
            }
            (Some(_), Some(_)) => return Err("give \"spec\" or \"task\", not both".to_string()),
            (None, None) => return Err("body needs a \"spec\" or a \"task\"".to_string()),
        };
        let max_rounds = uint(
            v,
            "max_rounds",
            DEFAULT_MAX_ROUNDS as u64,
            MAX_ROUNDS as u64,
        )?;
        // a JSON number is an exact integer only up to 2^53
        let budget = uint(v, "budget", DEFAULT_BUDGET, 1 << 53)?;
        let jobs = uint(v, "jobs", DEFAULT_JOBS as u64, MAX_JOBS as u64)?;
        let kernel = match v.get("kernel") {
            None | Some(Json::Null) => Kernel::default(),
            Some(k) => k.as_str().ok_or("\"kernel\" must be a string")?.parse()?,
        };
        let wait = match v.get("wait") {
            None | Some(Json::Null) => DEFAULT_WAIT,
            Some(Json::Bool(b)) => *b,
            Some(_) => return Err("\"wait\" must be a boolean".to_string()),
        };
        let opts = SolveOptions::new().budget(budget).jobs(jobs as usize);
        Ok(Question {
            spec,
            task,
            max_rounds: max_rounds as usize,
            opts: opts.kernel(kernel),
            wait,
        })
    }

    /// The question's content address, [`cache_key`]`(task, max_rounds)`.
    pub fn key(&self) -> u64 {
        cache_key(&self.task, self.max_rounds)
    }
}

/// Field `field` of `v` as an integer in `0..=max`; `default` when absent
/// or `null`.
fn uint(v: &Json, field: &str, default: u64, max: u64) -> Result<u64, String> {
    match v.get(field) {
        None | Some(Json::Null) => Ok(default),
        Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => {
            if *n <= max as f64 {
                Ok(*n as u64)
            } else {
                Err(format!("\"{field}\" must be at most {max}"))
            }
        }
        Some(_) => Err(format!("\"{field}\" must be a non-negative integer")),
    }
}

/// A `POST /solve` body, parsed once. Its questions are still unread, so
/// one bad question in a batch costs only its own answer.
#[derive(Debug)]
pub enum SolveBody {
    /// A single question.
    One(Json),
    /// A batch's questions, in order.
    Batch(Vec<Json>),
}

/// Parses a `POST /solve` body: a `{"questions": […]}` batch of at most
/// [`MAX_BATCH`] questions, or else a single question.
///
/// # Errors
///
/// Returns a client-facing message for a body that is not JSON, or a
/// batch that is not an array, is over the cap, or has other fields.
pub fn parse_body(body: &str) -> Result<SolveBody, String> {
    let mut v = Json::parse(body).map_err(|e| format!("bad JSON body: {e}"))?;
    let Json::Obj(members) = &mut v else {
        return Ok(SolveBody::One(v));
    };
    let Some(at) = members.iter().position(|(k, _)| k == "questions") else {
        return Ok(SolveBody::One(v));
    };
    let (_, questions) = members.remove(at);
    match questions {
        _ if !members.is_empty() => Err("a batch body carries only \"questions\"".to_string()),
        Json::Arr(qs) if qs.len() > MAX_BATCH => Err(format!(
            "batch of {} questions exceeds the {MAX_BATCH}-question cap",
            qs.len()
        )),
        Json::Arr(qs) => Ok(SolveBody::Batch(qs)),
        _ => Err("\"questions\" must be an array".to_string()),
    }
}

/// One answer in a batch envelope: the status and body the question
/// would have gotten on its own.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    /// The per-question HTTP status.
    pub status: u16,
    /// The single-question response body.
    pub body: Json,
}

impl Answer {
    /// An error answer with body `{"error": msg}`.
    pub fn error(status: u16, msg: &str) -> Answer {
        let body = Json::obj([("error", Json::Str(msg.to_string()))]);
        Answer { status, body }
    }

    /// Parses a batch envelope of exactly `expect` answers; `None` for
    /// anything else, so that a truncated or garbled reply is treated as
    /// a failure and never as a misaligned answer array.
    pub fn parse_envelope(body: &str, expect: usize) -> Option<Vec<Answer>> {
        let v = Json::parse(body).ok()?;
        let items = v.get("answers")?.as_array()?;
        let answer = |item: &Json| {
            Some(Answer {
                status: u16::try_from(item.get("status")?.as_u64()?).ok()?,
                body: item.get("body")?.clone(),
            })
        };
        (items.len() == expect).then(|| items.iter().map(answer).collect())?
    }
}

/// Renders the batch envelope `{"answers": [{"status": N, "body": …}, …]}`.
pub fn batch_envelope(answers: &[Answer]) -> String {
    let element = |a: &Answer| {
        Json::obj([
            ("status", Json::Num(f64::from(a.status))),
            ("body", a.body.clone()),
        ])
    };
    Json::obj([("answers", Json::Arr(answers.iter().map(element).collect()))]).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(body: &str) -> Result<Question, String> {
        Question::from_json(&Json::parse(body).unwrap())
    }

    #[test]
    fn defaults_apply_when_fields_are_absent_or_null() {
        for body in [
            r#"{"spec": "eps:1:3"}"#,
            r#"{"spec": "eps:1:3", "max_rounds": null, "budget": null, "jobs": null,
                "kernel": null, "wait": null}"#,
        ] {
            let q = read(body).unwrap();
            assert_eq!(q.max_rounds, DEFAULT_MAX_ROUNDS);
            assert!(q.wait);
            assert_eq!(q.spec, "eps:1:3");
            let d = SolveOptions::new()
                .budget(DEFAULT_BUDGET)
                .jobs(DEFAULT_JOBS)
                .kernel(Kernel::Compiled);
            assert_eq!(format!("{:?}", q.opts), format!("{d:?}"));
        }
    }

    #[test]
    fn integer_fields_are_exact_and_bounded() {
        for (body, wanted) in [
            (
                r#"{"spec": "trivial:1", "max_rounds": -1}"#,
                "non-negative integer",
            ),
            (
                r#"{"spec": "trivial:1", "max_rounds": 2.7}"#,
                "non-negative integer",
            ),
            (
                r#"{"spec": "trivial:1", "max_rounds": "2"}"#,
                "non-negative integer",
            ),
            (r#"{"spec": "trivial:1", "max_rounds": 7}"#, "at most 6"),
            (r#"{"spec": "trivial:1", "max_rounds": 1e300}"#, "at most 6"),
            (
                r#"{"spec": "trivial:1", "budget": -1}"#,
                "non-negative integer",
            ),
            (r#"{"spec": "trivial:1", "budget": 1e300}"#, "at most"),
            (r#"{"spec": "trivial:1", "jobs": 65}"#, "at most 64"),
            (r#"{"spec": "trivial:1", "jobs": 1e30}"#, "at most 64"),
            (
                r#"{"spec": "trivial:1", "jobs": -0.5}"#,
                "non-negative integer",
            ),
        ] {
            let e = read(body).unwrap_err();
            assert!(e.contains(wanted), "{body}: {e}");
        }
        let q = read(r#"{"spec": "trivial:1", "max_rounds": 6, "budget": 0, "jobs": 64}"#).unwrap();
        assert_eq!(q.max_rounds, MAX_ROUNDS);
        let jobs = SolveOptions::new().budget(0).jobs(MAX_JOBS);
        assert_eq!(format!("{:?}", q.opts), format!("{jobs:?}"));
    }

    #[test]
    fn spec_is_never_a_file_path() {
        let a = read(r#"{"spec": "@/etc/hostname"}"#).unwrap_err();
        let b = read(r#"{"spec": "@/no/such/file"}"#).unwrap_err();
        assert_eq!(a, b, "the reply must not depend on the path");
        assert!(a.contains("CLI-only"), "{a}");
    }

    #[test]
    fn malformed_questions_are_refused() {
        for body in [
            "[]",
            "3",
            "{}",
            r#"{"spec": "nope:9"}"#,
            r#"{"spec": 3}"#,
            r#"{"spec": "eps:1:3", "task": {}}"#,
            r#"{"task": {"nope": 1}}"#,
            r#"{"spec": "eps:1:3", "wait": "yes"}"#,
            r#"{"spec": "eps:1:3", "kernel": "fast"}"#,
            r#"{"spec": "eps:1:3", "kernel": 1}"#,
            r#"{"spec": "eps:1:3", "max_round": 3}"#,
        ] {
            assert!(read(body).is_err(), "{body} must be refused");
        }
    }

    #[test]
    fn inline_tasks_key_like_their_spec() {
        use iis_obs::ToJson as _;
        let t = iis_tasks::library::approximate_agreement(1, 3);
        let inline = Json::obj([
            ("task", t.to_json()),
            ("kernel", Json::Str("reference".into())),
        ]);
        let q = Question::from_json(&inline).unwrap();
        assert_eq!(q.spec, "@inline:eps-agreement");
        assert_eq!(q.key(), read(r#"{"spec": "eps:1:3"}"#).unwrap().key());
        assert_eq!(q.key(), cache_key(&t, DEFAULT_MAX_ROUNDS));
    }

    #[test]
    fn bodies_split_into_one_or_a_capped_batch() {
        assert!(matches!(
            parse_body(r#"{"spec": "trivial:1"}"#),
            Ok(SolveBody::One(_))
        ));
        assert!(matches!(parse_body("[1]"), Ok(SolveBody::One(_))));
        assert!(
            matches!(parse_body(r#"{"questions": []}"#), Ok(SolveBody::Batch(q)) if q.is_empty())
        );
        let full = format!("{{\"questions\": [{}]}}", vec!["{}"; MAX_BATCH].join(","));
        assert!(matches!(parse_body(&full), Ok(SolveBody::Batch(q)) if q.len() == MAX_BATCH));
        let over = format!(
            "{{\"questions\": [{}]}}",
            vec!["{}"; MAX_BATCH + 1].join(",")
        );
        assert!(parse_body(&over).unwrap_err().contains("cap"));
        assert!(parse_body(r#"{"questions": 3}"#).is_err());
        assert!(parse_body(r#"{"questions": [], "spec": "trivial:1"}"#).is_err());
        assert!(parse_body("not json")
            .unwrap_err()
            .starts_with("bad JSON body"));
    }

    #[test]
    fn envelopes_round_trip_and_refuse_misalignment() {
        let answers = vec![
            Answer {
                status: 200,
                body: Json::obj([("cached", Json::Bool(true))]),
            },
            Answer::error(400, "bad"),
        ];
        let text = batch_envelope(&answers);
        assert_eq!(
            text,
            r#"{"answers":[{"status":200,"body":{"cached":true}},{"status":400,"body":{"error":"bad"}}]}"#
        );
        assert_eq!(Answer::parse_envelope(&text, 2), Some(answers));
        assert_eq!(Answer::parse_envelope(&text, 3), None);
        assert_eq!(
            Answer::parse_envelope(r#"{"answers":[{"status":-1,"body":1}]}"#, 1),
            None
        );
        assert_eq!(Answer::parse_envelope("{\"answers\":[", 0), None);
    }
}
