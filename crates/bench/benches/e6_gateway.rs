//! E6c — the cluster gateway: batch scatter-gather vs sequential singles.
//!
//! Paper-shape claim: Proposition 3.1 makes every answer a pure function
//! of `(task, max_rounds)`, so a gateway may route, coalesce, and retry
//! questions freely — the only cost that varies is transport. This bench
//! drives real loopback HTTP against two live `iis serve` shards (warm
//! caches, so every answer is a replay-and-revalidate): a twelve-question
//! batch fanned out as one coalesced upstream call per shard, against the
//! same twelve questions as sequential single-question requests, plus a
//! pure round-trip control (`rtt/12_healthz`).
//!
//! What amortization looks like here: the batch path answers 12 questions
//! in 2 `http.client_requests` instead of 12 — compare the
//! `http.client_requests` counter across the two cases. The *wall-clock*
//! gap depends on the host: warm answers still pay witness re-validation
//! server-side (~the e6_serve warm cost), and on a single-core runner the
//! two shards cannot overlap, so wall-clock converges to parity there and
//! the 6× transport amortization is the signal; multi-core runners see the
//! batch also win wall-clock as the per-shard work overlaps.

use iis_bench::harness::Bench;
use iis_cluster::{Gateway, GatewayConfig, HttpTransport};
use iis_obs::Json;
use std::hint::black_box;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn spawn_shard() -> (SocketAddr, std::thread::JoinHandle<()>) {
    let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("bind probe");
    let addr = probe.local_addr().expect("probe addr");
    drop(probe);
    let args: Vec<String> = vec!["--addr".into(), addr.to_string()];
    let handle = std::thread::spawn(move || {
        iis_cli::cmd_serve(&args).expect("shard exits cleanly");
    });
    for _ in 0..200 {
        if TcpStream::connect(addr).is_ok() {
            return (addr, handle);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("shard never came up on {addr}");
}

fn shutdown(addr: SocketAddr) {
    use std::io::Write as _;
    if let Ok(mut s) = TcpStream::connect(addr) {
        let _ = write!(
            s,
            "POST /shutdown HTTP/1.1\r\nHost: b\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
        );
        let _ = std::io::copy(&mut s, &mut std::io::sink());
    }
}

const SPECS: [&str; 6] = [
    "trivial:1",
    "trivial:2",
    "eps:1:3",
    "eps:1:5",
    "eps:1:9",
    "oneshot:1",
];

fn questions() -> Vec<Json> {
    // 6 specs × 2 round bounds = 12 distinct cache keys, so the rendezvous
    // split across 2 shards concentrates near 6/6 and the batch path's
    // shard-parallelism is actually exercised
    SPECS
        .iter()
        .flat_map(|s| {
            [1.0, 2.0].map(|b| {
                Json::obj([
                    ("spec", Json::Str(s.to_string())),
                    ("max_rounds", Json::Num(b)),
                ])
            })
        })
        .collect()
}

fn batch_vs_sequential(bench: &mut Bench, gateway: &Gateway, transport: &HttpTransport) {
    let qs = questions();
    let mut g = bench.group("e6_gateway");
    g.sample_size(10);
    use iis_cluster::Transport as _;
    let shard = gateway.backends()[0].clone();
    g.bench_function("rtt/12_healthz", || {
        for _ in 0..12 {
            let r = transport.get(&shard, "/healthz").unwrap();
            black_box(&r);
        }
    });
    // batch: one POST to the gateway's scatter-gather — same-shard
    // questions coalesce into a single upstream call, shards in parallel
    g.bench_function("batch/12q_2shards", || {
        let envelope = gateway.solve_batch(&qs);
        black_box(&envelope);
        assert!(envelope.contains("\"answers\""), "{envelope}");
    });
    // sequential: the same twelve questions as twelve single-question requests —
    // twelve connects, twelve headers, twelve parses
    g.bench_function("sequential/12q_2shards", || {
        for q in &qs {
            let (status, body) = gateway.solve(&q.to_string());
            assert_eq!(status, 200, "{body}");
            black_box(&body);
        }
    });
}

fn main() {
    let (shard_a, join_a) = spawn_shard();
    let (shard_b, join_b) = spawn_shard();
    let transport = Arc::new(HttpTransport::new(Duration::from_secs(10)));
    let gateway = Gateway::new(
        transport.clone(),
        GatewayConfig {
            backends: vec![shard_a.to_string(), shard_b.to_string()],
            replicas: 2,
            workers: 4,
        },
    );
    gateway.probe();
    // warm every shard's cache on every question so the timed sections
    // measure transport and dispatch, not the first-solve search
    for q in &questions() {
        let (status, body) = gateway.solve(&q.to_string());
        assert_eq!(status, 200, "warmup failed: {body}");
    }
    eprintln!(
        "\n[E6c report] 2 shards ({shard_a}, {shard_b}), 12 questions, replicas=2\n  \
         batch coalesces the 12 questions into one upstream call per owning \
         shard (≤2), vs 12 sequential requests — watch http.client_requests"
    );

    let mut bench = Bench::from_env("e6_gateway");
    batch_vs_sequential(&mut bench, &gateway, &transport);
    bench.finish();

    shutdown(shard_a);
    shutdown(shard_b);
    let _ = join_a.join();
    let _ = join_b.join();
}
