//! Drives each workload against a live cluster: setup, the measured phase,
//! the oracle check of every answer, and the exact counter checks.

use crate::client::Conn;
use crate::cluster::{delta, Cluster, SHARDS};
use crate::layers;
use crate::oracle::{check_batch, check_reply, expect_all, Expected};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workload::{
    batch_new_keys, batch_plan, batch_working_set, cold_order, cold_sweep_keys, warm_hot_keys,
    warm_hot_schedule, Question, Slot, BATCH, BATCH_NEW,
};
use iis_cluster::{Gateway, GatewayConfig, HttpTransport};
use iis_obs::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// `warm-hot` open-loop ladder, questions per second: about ¼, ½ and ¾ of
/// the warm capacity (~400 q/s with two client connections) measured at
/// the commit that introduced this benchmark on a 2-vCPU host during its
/// slower stretches. Frozen, so every later commit is offered the same
/// load.
pub const WARM_RATES: [f64; 3] = [100.0, 200.0, 300.0];

/// A `warm-hot` ladder rate is met when its p99 latency (timed from when
/// each request was due) stays under this limit, in µs.
pub const P99_LIMIT_US: f64 = 50_000.0;

/// Times the cluster is set up per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Questions per preload batch.
const PRELOAD_BATCH: usize = 24;

/// What one run needs to know.
pub struct Ctx {
    /// The `iis-cli` release binary.
    pub bin: PathBuf,
    /// Scratch directory for this run's stores.
    pub dir: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Client threads and connections (≤ nproc).
    pub threads: usize,
    /// Span recorder (on in traced runs).
    pub tracer: Tracer,
}

/// Answer accounting for one run.
#[derive(Default)]
pub struct Tally {
    /// Questions asked in the measured phase.
    pub attempted: u64,
    /// Answers that were not 200, or never came.
    pub failed: u64,
    /// 200 answers the oracle rejected.
    pub wrong: u64,
    /// Oracle, counter and setup problems (first few of each kind).
    pub errors: Vec<String>,
}

impl Tally {
    fn note(&mut self, msg: String) {
        if self.errors.len() < 20 {
            self.errors.push(msg);
        }
    }

    fn count(&mut self, verdict: &Verdict) {
        self.attempted += 1;
        match verdict {
            Verdict::Ok => {}
            Verdict::Failed(e) => {
                self.failed += 1;
                self.note(format!("failed: {e}"));
            }
            Verdict::Wrong(e) => {
                self.wrong += 1;
                self.note(format!("wrong answer: {e}"));
            }
        }
    }

    /// Checks a counter identity; a mismatch is a benchmark error.
    fn expect_count(&mut self, what: &str, got: f64, want: f64) {
        if got != want {
            self.note(format!("counter check {what}: got {got}, expected {want}"));
        }
    }
}

/// One named metric value.
pub type Metric = (&'static str, f64, &'static str);

/// The result of one workload run.
pub struct Run {
    /// Answer accounting and errors.
    pub tally: Tally,
    /// End-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
}

/// The oracle's verdict on one answer.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// Correct.
    Ok,
    /// Not answered, or answered with a non-200 status.
    Failed(String),
    /// Answered 200 with the wrong content.
    Wrong(String),
}

fn verdict(status: u16, body: &Json, exp: &Expected) -> Verdict {
    if status != 200 {
        return Verdict::Failed(format!("status {status}"));
    }
    match check_reply(status, body, exp) {
        Ok(()) => Verdict::Ok,
        Err(e) => Verdict::Wrong(e),
    }
}

/// Posts one single-question body and judges the reply.
fn ask_one(conn: &mut Conn, q: &Question, exp: &Expected) -> Verdict {
    match conn.post("/solve", &q.body) {
        Ok((status, text)) => match Json::parse(&text) {
            Ok(body) => verdict(status, &body, exp),
            Err(e) => Verdict::Failed(format!("unparsable reply ({status}): {e}")),
        },
        Err(e) => Verdict::Failed(format!("transport: {e}")),
    }
}

/// Posts one batch and judges every answer in it.
fn ask_batch(conn: &mut Conn, qs: &[&Question], exps: &[&Expected]) -> Vec<Verdict> {
    let body = Json::obj([(
        "questions",
        Json::Arr(qs.iter().map(|q| q.json()).collect()),
    )])
    .to_string();
    let reply = conn
        .post("/solve", &body)
        .map_err(|e| format!("transport: {e}"));
    let parsed = reply.and_then(|(status, text)| {
        if status != 200 {
            return Err(format!("batch status {status}"));
        }
        let v = Json::parse(&text).map_err(|e| format!("unparsable batch reply: {e}"))?;
        check_batch(&v, exps)
    });
    match parsed {
        Ok(per_question) => per_question
            .into_iter()
            .zip(qs)
            .map(|(r, _)| match r {
                Ok(()) => Verdict::Ok,
                Err(e) if e.starts_with("status ") => Verdict::Failed(e),
                Err(e) => Verdict::Wrong(e),
            })
            .collect(),
        Err(e) => vec![Verdict::Failed(e); qs.len()],
    }
}

/// Preloads `qs` through the gateway in batches, checking every answer.
fn preload(addr: &str, qs: &[Question], exps: &[Expected], tally: &mut Tally) {
    let mut conn = Conn::new(addr);
    for (chunk, echunk) in qs.chunks(PRELOAD_BATCH).zip(exps.chunks(PRELOAD_BATCH)) {
        let qrefs: Vec<&Question> = chunk.iter().collect();
        let erefs: Vec<&Expected> = echunk.iter().collect();
        for (q, v) in chunk.iter().zip(ask_batch(&mut conn, &qrefs, &erefs)) {
            if !matches!(v, Verdict::Ok) {
                tally.note(format!("preload {}@{}: {v:?}", q.spec, q.b));
            }
        }
    }
}

/// Sleeps until shortly before `due`, then spins the rest of the way: a
/// thread woken by the scheduler on a busy host can be a millisecond late,
/// which would count against the service in an open-loop latency.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(300);
    if let Some(wait) = due.checked_duration_since(Instant::now() + SPIN) {
        std::thread::sleep(wait);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// One timed request (or batch).
struct Timed<T> {
    index: usize,
    sent: Instant,
    done: Instant,
    out: T,
}

/// Runs `f(conn, i)` for `i = 0, 1, …` on `threads` client threads, each
/// with its own connection to `addr`, pulling the next index as soon as it
/// is free, until `more(i)` says stop. Results come back in index order.
fn pull<T: Send>(
    threads: usize,
    addr: &str,
    more: impl Fn(usize) -> bool + Sync,
    f: impl Fn(&mut Conn, usize) -> (Instant, T) + Sync,
) -> Vec<Timed<T>> {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| {
                let mut conn = Conn::new(addr);
                let mut mine = Vec::new();
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if !more(index) {
                        break;
                    }
                    let (sent, out) = f(&mut conn, index);
                    mine.push(Timed {
                        index,
                        sent,
                        done: Instant::now(),
                        out,
                    });
                }
                out.lock().expect("result lock").extend(mine);
            });
        }
    });
    let mut all = out.into_inner().expect("result lock");
    all.sort_by_key(|t| t.index);
    all
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Records a `client.request` span for even-numbered requests in traced
/// runs; odd ones stay untraced so the run can compare the two. `req` is
/// the question's cache key (the replay's spans for it carry the same id),
/// or the batch number.
fn trace_request<T>(ctx: &Ctx, t: &Timed<T>, req: u64) {
    if t.index.is_multiple_of(2) {
        ctx.tracer
            .record("client.request", t.sent, t.done, None, req);
    }
}

/// Traced-vs-untraced p50 difference, in % of the untraced p50.
fn trace_overhead(lat: &[(usize, f64)]) -> f64 {
    let pick = |parity| -> Vec<f64> {
        lat.iter()
            .filter(|(i, _)| i % 2 == parity)
            .map(|&(_, l)| l)
            .collect()
    };
    match (median(&pick(0)), median(&pick(1))) {
        (Some(t), Some(u)) if u > 0.0 => (t - u) / u * 100.0,
        _ => 0.0,
    }
}

/// The counters every workload reads from the gateway's merged `/metrics`.
pub struct Counters {
    before: BTreeMap<String, f64>,
    after: BTreeMap<String, f64>,
}

impl Counters {
    /// Δ of a counter family's `_total` series over the measured phase.
    pub fn d(&self, family: &str) -> f64 {
        delta(&self.before, &self.after, &format!("{family}_total"))
    }

    /// Upstream calls the gateway made for solves: every client request
    /// minus the shard `/metrics` fetches of the first scrape (the second
    /// scrape's own fetches happen after its snapshot is taken).
    pub fn upstream_calls(&self) -> f64 {
        self.d("http_client_requests") - SHARDS as f64
    }
}

/// The in-process twin of the cluster's gateway: same backend list, so
/// the same rendezvous routing.
pub fn router(backends: Vec<String>) -> Gateway {
    Gateway::new(
        Arc::new(HttpTransport::new(Duration::from_secs(1))),
        GatewayConfig {
            backends,
            replicas: 2,
            workers: 1,
        },
    )
}

/// One measured phase on one freshly set-up cluster.
struct Sub {
    setup_s: f64,
    /// `(request index, latency µs)`; the index parity splits traced from
    /// untraced requests.
    lat: Vec<(usize, f64)>,
    ok: u64,
    elapsed_s: f64,
    /// `warm-hot`: the highest ladder rate met; closed loops: throughput.
    rate: f64,
    rss_mb: f64,
    lag_us: Vec<f64>,
    counters: Counters,
    questions: f64,
    batches: f64,
}

impl Sub {
    fn throughput(&self) -> f64 {
        self.ok as f64 / self.elapsed_s.max(1e-9)
    }
}

/// Sets a cluster up (spawn → every `/readyz` 200 → `preload` answered
/// and checked) and runs `measure` on it, [`SETUPS`] times, each time on
/// fresh stores. The last cluster is returned still running.
fn subruns(
    ctx: &Ctx,
    preload_qs: &[Question],
    preload_exps: &[Expected],
    tally: &mut Tally,
    mut measure: impl FnMut(&Cluster, &mut Tally) -> Result<Sub, String>,
) -> Result<(Vec<Sub>, Cluster), String> {
    let mut subs = Vec::new();
    for i in 0..SETUPS {
        let dir = ctx.dir.join(format!("setup{i}"));
        let started = Instant::now();
        let cluster = Cluster::start(&ctx.bin, &dir)?;
        preload(&cluster.gateway.addr, preload_qs, preload_exps, tally);
        let setup_s = started.elapsed().as_secs_f64();
        let mut sub = measure(&cluster, tally)?;
        sub.setup_s = setup_s;
        subs.push(sub);
        if i + 1 == SETUPS {
            return Ok((subs, cluster));
        }
        if !cluster.stop() {
            tally.note(format!("setup {i}: a server did not shut down cleanly"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    unreachable!("SETUPS > 0")
}

/// The end-to-end metrics: medians over the sub-runs of per-sub-run
/// values, and the workload's own `latency_p50_us`.
fn e2e(subs: &[Sub], p50_us: f64) -> Vec<Metric> {
    let of = |f: &dyn Fn(&Sub) -> f64| -> f64 {
        median(&subs.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    vec![
        ("setup_s", of(&|s| s.setup_s), "s"),
        ("latency_p50_us", p50_us, "us"),
        ("throughput_qps", of(&Sub::throughput), "1/s"),
        ("max_rate_qps", of(&|s| s.rate), "1/s"),
        ("rss_peak_mb", of(&|s| s.rss_mb), "MiB"),
    ]
}

/// The median over sub-runs of each sub-run's median latency.
fn median_of_medians(subs: &[Sub]) -> f64 {
    let p50s: Vec<f64> = subs
        .iter()
        .filter_map(|s| median(&s.lat.iter().map(|l| l.1).collect::<Vec<_>>()))
        .collect();
    median(&p50s).unwrap_or(0.0)
}

/// Finishes a run: the end-to-end metrics, and in traced runs the
/// per-layer metrics measured on the last cluster (which this stops).
fn finish(
    ctx: &Ctx,
    mut tally: Tally,
    subs: Vec<Sub>,
    cluster: Cluster,
    replay: &[(&Question, &Expected)],
    p50_us: f64,
) -> Result<Run, String> {
    let mut layer = Vec::new();
    if ctx.tracer.on() {
        let last = subs.last().expect("SETUPS > 0");
        let lat: Vec<(usize, f64)> = subs.iter().flat_map(|s| s.lat.iter().copied()).collect();
        let lags: Vec<f64> = subs.iter().flat_map(|s| s.lag_us.iter().copied()).collect();
        let pooled: Vec<f64> = lat.iter().map(|l| l.1).collect();
        // p99 pools every sub-run's samples; on a noisy host it is too
        // unsteady run to run to gate on, so it is reported per layer
        layer.push((
            "latency_p99_us",
            percentile(&pooled, 99.0).unwrap_or(0.0),
            "us",
        ));
        layer.push((
            "gen.lag_p99_us",
            percentile(&lags, 99.0).unwrap_or(0.0),
            "us",
        ));
        layer.push(("trace.overhead_pct", trace_overhead(&lat), "%"));
        let mut errs = Vec::new();
        layer.extend(layers::measure(
            ctx,
            cluster,
            replay,
            &last.counters,
            last.questions,
            last.batches,
            p50_us,
            &mut errs,
        )?);
        errs.into_iter().for_each(|e| tally.note(e));
    } else if !cluster.stop() {
        tally.note("a server did not shut down cleanly".to_string());
    }
    layer.push(("fail_ratio", fail_ratio(&tally), "ratio"));
    Ok(Run {
        e2e: e2e(&subs, p50_us),
        tally,
        layers: layer,
    })
}

fn fail_ratio(t: &Tally) -> f64 {
    (t.failed + t.wrong) as f64 / t.attempted.max(1) as f64
}

/// Counts every verdict into `tally`; returns how many were correct.
fn count_all<'a>(tally: &mut Tally, verdicts: impl IntoIterator<Item = &'a Verdict>) -> u64 {
    let mut ok = 0;
    for v in verdicts {
        tally.count(v);
        ok += u64::from(matches!(v, Verdict::Ok));
    }
    ok
}

/// `warm-hot`: open-loop single questions at three frozen rates, every key
/// answered during setup.
pub fn warm_hot(ctx: &Ctx) -> Result<Run, String> {
    let keys = warm_hot_keys();
    let exps = expect_all(&keys, ctx.threads)?;
    let step_secs = ctx.seconds / (SETUPS * WARM_RATES.len()) as f64;
    let sched = warm_hot_schedule(keys.len(), &WARM_RATES, step_secs, ctx.seed);
    let mut tally = Tally::default();
    let (subs, cluster) = subruns(ctx, &keys, &exps, &mut tally, |cluster, tally| {
        let before = cluster.metrics()?;
        let start = Instant::now() + Duration::from_millis(5);
        let due = |i: usize| start + Duration::from_micros(sched[i].due_us);
        let results = pull(
            ctx.threads,
            &cluster.gateway.addr,
            |i| i < sched.len(),
            |conn, i| {
                wait_until(due(i));
                let q = sched[i].question;
                (Instant::now(), ask_one(conn, &keys[q], &exps[q]))
            },
        );
        let counters = Counters {
            before,
            after: cluster.metrics()?,
        };
        let ok = count_all(tally, results.iter().map(|t| &t.out));
        if ctx.tracer.on() {
            for t in &results {
                trace_request(ctx, t, exps[sched[t.index].question].key);
            }
        }
        // per ladder step: (index, latency from due, send lag)
        let mut steps: Vec<Vec<(usize, f64, f64)>> = vec![Vec::new(); WARM_RATES.len()];
        for t in &results {
            let lat = us(t.done - due(t.index));
            let lag = us(t.sent.saturating_duration_since(due(t.index)));
            steps[sched[t.index].step].push((t.index, lat, lag));
        }
        // the highest ladder rate whose p99 meets the limit with no growing
        // backlog (the last quarter of the step is not running late),
        // reported as the rate actually delivered in that step
        let mut rate = 0.0;
        for (k, step) in steps.iter().enumerate() {
            let lats: Vec<f64> = step.iter().map(|s| s.1).collect();
            let tail: Vec<f64> = step[step.len() * 3 / 4..].iter().map(|s| s.2).collect();
            let p99 = percentile(&lats, 99.0).unwrap_or(f64::INFINITY);
            let tail_lag = median(&tail).unwrap_or(f64::INFINITY);
            if p99 <= P99_LIMIT_US && tail_lag <= P99_LIMIT_US / 2.0 {
                let first_due = start + Duration::from_secs_f64(k as f64 * step_secs);
                let done = results
                    .iter()
                    .filter(|t| sched[t.index].step == k)
                    .map(|t| t.done);
                let step_done = done.max().unwrap_or(first_due);
                rate = step.len() as f64 / (step_done - first_due).as_secs_f64();
            }
        }
        let n = results.len() as f64;
        tally.expect_count("warm-hot solve_nodes Δ", counters.d("solve_nodes"), 0.0);
        tally.expect_count(
            "warm-hot serve_cache_hits Δ",
            counters.d("serve_cache_hits"),
            n,
        );
        tally.expect_count(
            "warm-hot gateway_failovers Δ",
            counters.d("gateway_failovers"),
            0.0,
        );
        tally.expect_count("warm-hot upstream calls", counters.upstream_calls(), n);
        let last_done = results.iter().map(|t| t.done).max().unwrap_or(start);
        let mid = &steps[WARM_RATES.len() / 2];
        Ok(Sub {
            setup_s: 0.0,
            lat: mid.iter().map(|s| (s.0, s.1)).collect(),
            ok,
            elapsed_s: (last_done - start).as_secs_f64(),
            rate,
            rss_mb: cluster.rss_peak_mb(),
            lag_us: mid.iter().map(|s| s.2).collect(),
            counters,
            questions: n,
            batches: 0.0,
        })
    })?;
    // every key is asked equally often, and the key classes answer in
    // separate latency clusters; a plain median lands between clusters and
    // jumps from one to the other, so p50 is taken per key (pooled over the
    // sub-runs) and averaged over the keys
    let mut per_key: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(i, l) in subs.iter().flat_map(|s| &s.lat) {
        per_key.entry(sched[i].question).or_default().push(l);
    }
    let key_p50: Vec<f64> = per_key.values().filter_map(|v| median(v)).collect();
    let p50_us = key_p50.iter().sum::<f64>() / key_p50.len().max(1) as f64;
    let replay: Vec<(&Question, &Expected)> = keys.iter().zip(&exps).collect();
    finish(ctx, tally, subs, cluster, &replay, p50_us)
}

/// Longest one `cold-sweep` pass may take before the run is abandoned.
fn cold_cap(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds * 2.0).clamp(20.0, 45.0))
}

/// `cold-sweep`: closed loop, every question a key the cluster has never
/// been asked. One pass over the fixed key set per sub-run is the measured
/// work.
pub fn cold_sweep(ctx: &Ctx) -> Result<Run, String> {
    let keys = cold_sweep_keys();
    iis_obs::set_enabled(true);
    let nodes_before = iis_obs::metrics::snapshot();
    let exps = expect_all(&keys, ctx.threads)?;
    let oracle_nodes = iis_obs::metrics::snapshot()
        .delta_since(&nodes_before)
        .counters
        .get("solve.nodes")
        .copied()
        .unwrap_or(0);
    iis_obs::set_enabled(false);
    let order = cold_order(&keys, ctx.seed);
    let cap = cold_cap(ctx.seconds);
    let mut tally = Tally::default();
    let (subs, cluster) = subruns(ctx, &[], &[], &mut tally, |cluster, tally| {
        let before = cluster.metrics()?;
        let start = Instant::now();
        let results = pull(
            ctx.threads,
            &cluster.gateway.addr,
            |i| i < order.len() && start.elapsed() < cap,
            |conn, i| {
                let q = order[i];
                (Instant::now(), ask_one(conn, &keys[q], &exps[q]))
            },
        );
        let counters = Counters {
            before,
            after: cluster.metrics()?,
        };
        if results.len() < order.len() {
            tally.note(format!(
                "cold-sweep asked {} of {} keys within {cap:?}",
                results.len(),
                order.len()
            ));
        }
        let ok = count_all(tally, results.iter().map(|t| &t.out));
        if ctx.tracer.on() {
            for t in &results {
                trace_request(ctx, t, exps[order[t.index]].key);
            }
        }
        let n = results.len() as f64;
        tally.expect_count(
            "cold-sweep solve_nodes Δ (the in-process oracle sweep of the same keys)",
            counters.d("solve_nodes"),
            oracle_nodes as f64,
        );
        tally.expect_count(
            "cold-sweep gateway_failovers Δ",
            counters.d("gateway_failovers"),
            0.0,
        );
        tally.expect_count("cold-sweep upstream calls", counters.upstream_calls(), n);
        let last_done = results.iter().map(|t| t.done).max().unwrap_or(start);
        let elapsed_s = (last_done - start).as_secs_f64();
        Ok(Sub {
            setup_s: 0.0,
            lat: results
                .iter()
                .map(|t| (t.index, us(t.done - t.sent)))
                .collect(),
            ok,
            elapsed_s,
            rate: ok as f64 / elapsed_s.max(1e-9),
            rss_mb: cluster.rss_peak_mb(),
            lag_us: Vec::new(),
            counters,
            questions: n,
            batches: 0.0,
        })
    })?;
    // replay a class-stratified prefix of the sweep
    let replay: Vec<(&Question, &Expected)> = order
        .iter()
        .take(40)
        .map(|&i| (&keys[i], &exps[i]))
        .collect();
    let p50_us = median_of_medians(&subs);
    finish(ctx, tally, subs, cluster, &replay, p50_us)
}

/// `batch-mixed`: closed loop of 24-question batches mixing working-set
/// re-asks, new cheap keys and in-batch duplicates.
pub fn batch_mixed(ctx: &Ctx) -> Result<Run, String> {
    let working = batch_working_set();
    let fresh = batch_new_keys(ctx.seed);
    let mut all: Vec<Question> = working.clone();
    all.extend(fresh.iter().cloned());
    let exps = expect_all(&all, ctx.threads)?;
    let (wexps, fexps) = exps.split_at(working.len());
    let resolve = |s: &Slot| -> (&Question, &Expected) {
        match *s {
            Slot::Warm(i) => (&working[i], &wexps[i]),
            Slot::New(i) => (&fresh[i], &fexps[i]),
        }
    };
    let max_batches = fresh.len() / BATCH_NEW;
    let window = Duration::from_secs_f64(ctx.seconds / SETUPS as f64);
    let mut tally = Tally::default();
    let (subs, cluster) = subruns(ctx, &working, wexps, &mut tally, |cluster, tally| {
        let route = router(cluster.backends());
        let before = cluster.metrics()?;
        let start = Instant::now();
        let results = pull(
            ctx.threads,
            &cluster.gateway.addr,
            |n| n < max_batches && start.elapsed() < window,
            |conn, n| {
                let plan = batch_plan(n, working.len(), ctx.seed);
                let (qs, es): (Vec<&Question>, Vec<&Expected>) = plan.iter().map(resolve).unzip();
                (Instant::now(), (plan, ask_batch(conn, &qs, &es)))
            },
        );
        let counters = Counters {
            before,
            after: cluster.metrics()?,
        };
        let ok = count_all(tally, results.iter().flat_map(|t| &t.out.1));
        if ctx.tracer.on() {
            results
                .iter()
                .for_each(|t| trace_request(ctx, t, t.index as u64));
        }
        // one upstream call per shard owning a question of the batch
        let owners: usize = results
            .iter()
            .map(|t| {
                let owned: BTreeSet<usize> = t
                    .out
                    .0
                    .iter()
                    .map(|s| route.replicas_for(resolve(s).1.key)[0])
                    .collect();
                owned.len()
            })
            .sum();
        tally.expect_count(
            "batch-mixed upstream calls (one per owning shard per batch)",
            counters.upstream_calls(),
            owners as f64,
        );
        tally.expect_count(
            "batch-mixed gateway_fanout Δ",
            counters.d("gateway_fanout"),
            owners as f64,
        );
        tally.expect_count(
            "batch-mixed gateway_failovers Δ",
            counters.d("gateway_failovers"),
            0.0,
        );
        let last_done = results.iter().map(|t| t.done).max().unwrap_or(start);
        let elapsed_s = (last_done - start).as_secs_f64();
        Ok(Sub {
            setup_s: 0.0,
            lat: results
                .iter()
                .map(|t| (t.index, us(t.done - t.sent)))
                .collect(),
            ok,
            elapsed_s,
            rate: ok as f64 / elapsed_s.max(1e-9),
            rss_mb: cluster.rss_peak_mb(),
            lag_us: Vec::new(),
            counters,
            questions: (results.len() * BATCH) as f64,
            batches: results.len() as f64,
        })
    })?;
    // every fourth working-set key plus the first new keys asked
    let mut replay: Vec<(&Question, &Expected)> = working.iter().zip(wexps).step_by(4).collect();
    replay.extend(fresh.iter().zip(fexps).take(24));
    let p50_us = median_of_medians(&subs);
    finish(ctx, tally, subs, cluster, &replay, p50_us)
}
