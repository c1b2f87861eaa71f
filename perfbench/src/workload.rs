//! The three workloads' question sets and the seeded generators that order
//! them.
//!
//! Every key set and every class share is fixed; the seed chooses only the
//! order questions are asked in and the open-loop arrival jitter. So two
//! seeds ask the same mix, and one seed always asks the same sequence.

use iis_obs::{Json, ToJson as _};
use iis_tasks::library::parse_spec;

/// One solvability question as the benchmark sends it.
#[derive(Clone, Debug)]
pub struct Question {
    /// Library task specifier (`eps:1:27`, `consensus:1`, …).
    pub spec: String,
    /// `max_rounds` of the question.
    pub b: usize,
    /// `true`: the body carries the task as inline JSON (`"task"`), not
    /// the spec string.
    pub inline: bool,
    /// Key class this question counts under.
    pub class: &'static str,
    /// The exact `POST /solve` body.
    pub body: String,
}

impl Question {
    /// A question for `spec` at `b`, with its body rendered once.
    ///
    /// # Panics
    ///
    /// On a spec the library cannot parse (the key sets below are fixed).
    pub fn new(spec: &str, b: usize, inline: bool, class: &'static str) -> Question {
        let task_field = if inline {
            let task = parse_spec(spec).expect("benchmark specs are valid");
            ("task", task.to_json())
        } else {
            ("spec", Json::Str(spec.to_string()))
        };
        let body = Json::obj([task_field, ("max_rounds", b.to_json())]).to_string();
        Question {
            spec: spec.to_string(),
            b,
            inline,
            class,
            body,
        }
    }

    /// The question as a JSON value (a batch element).
    pub fn json(&self) -> Json {
        Json::parse(&self.body).expect("question bodies are valid JSON")
    }
}

/// SplitMix64: the benchmark's only source of randomness.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `warm-hot` keys: 40 questions, answered during setup. Three quarters
/// carry a spec, one quarter the inline task (every fourth key).
pub fn warm_hot_keys() -> Vec<Question> {
    let mut raw: Vec<(String, usize, &'static str)> = Vec::new();
    for n in 1..=2 {
        for b in 0..=3 {
            raw.push((format!("trivial:{n}"), b, "cheap"));
        }
    }
    for b in 0..=6 {
        raw.push(("consensus:1".to_string(), b, "cheap"));
    }
    for b in 3..=6 {
        raw.push(("eps:1:27".to_string(), b, "parse"));
    }
    for g in [12, 18, 24] {
        raw.push((format!("eps:1:{g}"), 4, "parse"));
    }
    for n in 1..=2 {
        for b in 1..=3 {
            raw.push((format!("oneshot:{n}"), b, "parse"));
        }
    }
    for (g, bs) in [(2, 1..=4), (3, 2..=5), (4, 2..=5)] {
        for b in bs {
            raw.push((format!("eps:2:{g}"), b, "revalidate"));
        }
    }
    raw.into_iter()
        .enumerate()
        .map(|(i, (spec, b, class))| Question::new(&spec, b, i % 4 == 3, class))
        .collect()
}

/// `cold-sweep` keys: decided-only classes, each key asked once per run.
pub fn cold_sweep_keys() -> Vec<Question> {
    let mut qs = Vec::new();
    for g in 10..=250 {
        for b in 3..=5 {
            qs.push(Question::new(&format!("eps:1:{g}"), b, false, "eps1"));
        }
    }
    for g in [3, 4] {
        qs.push(Question::new(&format!("eps:2:{g}"), 2, false, "eps2"));
    }
    for g in [5, 7, 9] {
        qs.push(Question::new(&format!("eps:2:{g}"), 3, false, "eps2"));
    }
    for b in 3..=6 {
        qs.push(Question::new("consensus:1", b, false, "consensus"));
    }
    for b in 2..=3 {
        qs.push(Question::new("consensus:2", b, false, "consensus"));
    }
    for b in 1..=6 {
        qs.push(Question::new("oneshot:2", b, false, "oneshot"));
    }
    qs
}

/// `batch-mixed` working set, answered during setup: 246 keys whose
/// witnesses live on 145 distinct `SDS^b(I)` towers — about 72 per
/// shard, more than one shard's 64-entry revalidation memo holds.
pub fn batch_working_set() -> Vec<Question> {
    let mut qs = Vec::new();
    for g in 2..=81 {
        for b in 4..=5 {
            qs.push(Question::new(&format!("eps:1:{g}"), b, false, "working"));
        }
    }
    for g in 82..=140 {
        qs.push(Question::new(&format!("eps:1:{g}"), 5, false, "working"));
    }
    for g in 2..=4 {
        for b in 2..=3 {
            qs.push(Question::new(&format!("eps:2:{g}"), b, false, "working"));
        }
    }
    for b in 0..=6 {
        qs.push(Question::new("consensus:1", b, false, "working"));
    }
    for n in 1..=2 {
        for b in 0..=3 {
            qs.push(Question::new(&format!("trivial:{n}"), b, false, "working"));
        }
        for b in 1..=3 {
            qs.push(Question::new(&format!("oneshot:{n}"), b, false, "working"));
        }
    }
    qs
}

/// `batch-mixed` new keys: cheap `eps:1:G` questions outside the working
/// set — `G ≤ 200` at `b ≤ 4`, plus `b = 6` where the sweep stops at a
/// witness by round 4 — in a seed-chosen order. A key's cost grows with
/// `G`, so the keys are grouped in bands of 20 values of `G` and the bands
/// interleaved: every prefix the run asks holds the same cost mix. The run
/// stops early if it asks them all.
pub fn batch_new_keys(seed: u64) -> Vec<Question> {
    let mut raw = Vec::new();
    for g in 2..=200 {
        for b in 1..=6 {
            let in_working_set = g <= 81 && (b == 4 || b == 5);
            let cheap = b <= 4 || g <= 81;
            if cheap && !in_working_set && b != 5 {
                raw.push((g, b));
            }
        }
    }
    let mut rng = Rng::new(seed, 3);
    let mut bands: Vec<Vec<usize>> = vec![Vec::new(); 10];
    for (i, &(g, _)) in raw.iter().enumerate() {
        bands[(g - 1) / 20].push(i);
    }
    for band in &mut bands {
        rng.shuffle(band);
    }
    interleave(&bands)
        .into_iter()
        .map(|i| {
            let (g, b) = raw[i];
            Question::new(&format!("eps:1:{g}"), b, false, "new")
        })
        .collect()
}

/// Merges per-class index lists so every prefix of the result holds each
/// class in (nearly) its overall share: element `j` of a class of size
/// `n` sits at fractional position `(j + ½) / n`, ties broken by class
/// order. Within a class the order is the caller's.
pub fn interleave(classes: &[Vec<usize>]) -> Vec<usize> {
    let mut slots: Vec<(f64, usize, usize)> = Vec::new();
    for (c, members) in classes.iter().enumerate() {
        let n = members.len() as f64;
        for (j, &idx) in members.iter().enumerate() {
            slots.push(((j as f64 + 0.5) / n, c, idx));
        }
    }
    slots.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    slots.into_iter().map(|(_, _, idx)| idx).collect()
}

/// Groups question indices by class, in first-seen class order.
fn by_class(qs: &[Question]) -> Vec<Vec<usize>> {
    let mut names: Vec<&str> = Vec::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, q) in qs.iter().enumerate() {
        match names.iter().position(|&n| n == q.class) {
            Some(c) => groups[c].push(i),
            None => {
                names.push(q.class);
                groups.push(vec![i]);
            }
        }
    }
    groups
}

/// The order `cold-sweep` asks its keys in: each class shuffled by the
/// seed, then interleaved so class shares hold in every prefix.
pub fn cold_order(qs: &[Question], seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed, 1);
    let mut classes = by_class(qs);
    for c in &mut classes {
        rng.shuffle(c);
    }
    interleave(&classes)
}

/// One open-loop arrival: when it is due (µs after the step starts) and
/// which question it asks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// Due time, microseconds from the start of the ladder.
    pub due_us: u64,
    /// Index into the key list.
    pub question: usize,
    /// Ladder step (0, 1, 2).
    pub step: usize,
}

/// The `warm-hot` open-loop schedule: for each ladder rate, `step_secs`
/// of evenly spaced arrivals, each jittered by up to ±¼ of the gap. The
/// questions cycle through seed-shuffled rounds of every key, so each
/// key (and so each class) is asked equally often.
pub fn warm_hot_schedule(n_keys: usize, rates: &[f64], step_secs: f64, seed: u64) -> Vec<Arrival> {
    let mut rng = Rng::new(seed, 2);
    let mut round: Vec<usize> = Vec::new();
    let mut out = Vec::new();
    let mut step_start = 0.0f64;
    for (step, &rate) in rates.iter().enumerate() {
        let gap = 1e6 / rate;
        let count = (rate * step_secs).round() as usize;
        for i in 0..count {
            if round.is_empty() {
                round = (0..n_keys).collect();
                rng.shuffle(&mut round);
            }
            let jitter = (rng.unit() - 0.5) * 0.5 * gap;
            let due = step_start + (i as f64 + 0.5) * gap + jitter;
            out.push(Arrival {
                due_us: due.max(0.0) as u64,
                question: round.pop().expect("refilled above"),
                step,
            });
        }
        step_start += step_secs * 1e6;
    }
    out
}

/// Questions per `batch-mixed` batch, and how they split.
pub const BATCH: usize = 24;
/// Working-set re-asks per batch (about ⅔).
pub const BATCH_WARM: usize = 16;
/// New keys per batch (¼).
pub const BATCH_NEW: usize = 6;
/// In-batch duplicates per batch (1/12).
pub const BATCH_DUP: usize = BATCH - BATCH_WARM - BATCH_NEW;

/// One batch's questions: indices into the working set or the new-key
/// list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    /// A working-set key.
    Warm(usize),
    /// A new key (asked for the first time in this run, or its in-batch
    /// duplicate).
    New(usize),
}

/// Batch `n` of the `batch-mixed` plan: [`BATCH_WARM`] working-set keys
/// (seed-chosen, distinct within the batch), the next [`BATCH_NEW`] new
/// keys, and [`BATCH_DUP`] copies of questions already in the batch, in
/// a seed-shuffled order. Batches are independent of each other, so any
/// sender thread can build batch `n` without the ones before it.
pub fn batch_plan(n: usize, working: usize, seed: u64) -> Vec<Slot> {
    let mut rng = Rng::new(seed ^ (n as u64).wrapping_mul(0xa076_1d64_78bd_642f), 4);
    let mut slots: Vec<Slot> = Vec::with_capacity(BATCH);
    while slots.len() < BATCH_WARM {
        let s = Slot::Warm(rng.below(working));
        if !slots.contains(&s) {
            slots.push(s);
        }
    }
    for j in 0..BATCH_NEW {
        slots.push(Slot::New(n * BATCH_NEW + j));
    }
    for _ in 0..BATCH_DUP {
        let pick = slots[rng.below(BATCH_WARM + BATCH_NEW)];
        slots.push(pick);
    }
    rng.shuffle(&mut slots);
    slots
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        let a = warm_hot_schedule(42, &[100.0, 200.0], 1.0, 7);
        assert_eq!(a, warm_hot_schedule(42, &[100.0, 200.0], 1.0, 7));
        assert_ne!(a, warm_hot_schedule(42, &[100.0, 200.0], 1.0, 8));
        let qs = cold_sweep_keys();
        assert_eq!(cold_order(&qs, 3), cold_order(&qs, 3));
        assert_ne!(cold_order(&qs, 3), cold_order(&qs, 4));
        assert_eq!(batch_plan(5, 250, 9), batch_plan(5, 250, 9));
        assert_ne!(batch_plan(5, 250, 9), batch_plan(5, 250, 10));
        let specs = |s| -> Vec<String> {
            batch_new_keys(s)
                .iter()
                .map(|q| format!("{}@{}", q.spec, q.b))
                .collect()
        };
        assert_eq!(specs(1), specs(1));
        assert_ne!(specs(1), specs(2));
    }

    #[test]
    fn class_shares_do_not_depend_on_the_seed() {
        let qs = cold_sweep_keys();
        let share = |seed: u64, prefix: usize| {
            let order = cold_order(&qs, seed);
            let mut counts = std::collections::BTreeMap::new();
            for &i in &order[..prefix] {
                *counts.entry(qs[i].class).or_insert(0usize) += 1;
            }
            counts
        };
        // the whole sweep is a permutation: identical multisets
        assert_eq!(share(1, qs.len()), share(99, qs.len()));
        // and every prefix keeps each class within one of its share
        for prefix in [37, 200, 512] {
            let (a, b) = (share(1, prefix), share(99, prefix));
            for (class, &n) in &a {
                assert!(n.abs_diff(b[class]) <= 1, "{class} at {prefix}");
            }
        }
        // warm-hot asks every key equally often in whole rounds
        let keys = warm_hot_keys().len();
        for seed in [1, 2] {
            let sched = warm_hot_schedule(keys, &[keys as f64], 2.0, seed);
            let mut counts = vec![0; keys];
            for a in &sched {
                counts[a.question] += 1;
            }
            assert!(counts.iter().all(|&c| c == 2), "{counts:?}");
        }
        // every batch has the same composition
        for seed in [1, 2] {
            for n in 0..20 {
                let plan = batch_plan(n, 250, seed);
                assert_eq!(plan.len(), BATCH);
                let new = plan.iter().filter(|s| matches!(s, Slot::New(_))).count();
                let warm = BATCH - new;
                assert!(new >= BATCH_NEW && warm >= BATCH_WARM);
                let mut distinct = plan.clone();
                distinct.sort_by_key(|s| format!("{s:?}"));
                distinct.dedup();
                assert_eq!(distinct.len(), BATCH_WARM + BATCH_NEW);
            }
        }
    }

    #[test]
    fn key_sets_are_distinct_and_inline_share_is_a_quarter() {
        let warm = warm_hot_keys();
        assert!(warm.len() >= 40 && warm.len() <= 64, "{}", warm.len());
        let inline = warm.iter().filter(|q| q.inline).count();
        assert_eq!(inline, warm.len() / 4);
        for set in [warm, cold_sweep_keys(), batch_working_set()] {
            let mut names: Vec<String> =
                set.iter().map(|q| format!("{}@{}", q.spec, q.b)).collect();
            let n = names.len();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), n);
        }
    }

    #[test]
    fn interleave_spreads_each_class() {
        let order = interleave(&[vec![0, 1, 2, 3], vec![10, 11]]);
        assert_eq!(order, vec![0, 10, 1, 2, 11, 3]);
    }
}
