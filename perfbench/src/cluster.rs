//! The system under test as child processes: two `iis serve` shards with
//! fresh stores and one `iis gateway` in front of them.

use crate::client::{get_once, post_once};
use iis_obs::Json;
use std::collections::BTreeMap;
use std::io::{BufRead as _, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Shards in the cluster.
pub const SHARDS: usize = 2;

/// The gateway's background `/readyz` prober period. Set far beyond any
/// run so that every upstream call the gateway makes during a run is a
/// solve (or a `/metrics` scrape the benchmark itself asked for), which
/// keeps the upstream-call counter checks exact.
const PROBE_MS: &str = "3600000";

/// One child server process.
pub struct Proc {
    child: Child,
    /// `host:port` the process bound.
    pub addr: String,
    stderr: Option<JoinHandle<Vec<String>>>,
}

impl Proc {
    /// Spawns `bin args…` and waits for the line `<banner> http://ADDR` on
    /// its stderr.
    fn spawn(bin: &Path, args: &[&str], banner: &str) -> Result<Proc, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        let prefix = format!("{banner} http://");
        let reader = std::thread::spawn(move || {
            let mut lines = Vec::new();
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix(&prefix) {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr.trim().to_string());
                    }
                }
                lines.push(line);
            }
            lines
        });
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(addr) => Ok(Proc {
                child,
                addr,
                stderr: Some(reader),
            }),
            Err(_) => {
                let _ = child.kill();
                let _ = child.wait();
                let lines = reader.join().unwrap_or_default();
                Err(format!("{banner}: no address printed; stderr: {lines:?}"))
            }
        }
    }

    /// Peak resident set size (`VmHWM`) in MiB, from `/proc`.
    pub fn vm_hwm_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// Asks the process to shut down, waits up to `grace`, kills it past
    /// that, and reaps it. Returns `true` on a clean exit.
    fn stop(&mut self, grace: Duration) -> bool {
        let _ = post_once(&self.addr, "/shutdown", "");
        let started = Instant::now();
        let clean = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status.success(),
                Ok(None) if started.elapsed() < grace => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break false;
                }
            }
        };
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
        clean
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
    }
}

/// Two shards and a gateway.
pub struct Cluster {
    /// The shard processes, in `--backends` order.
    pub shards: Vec<Proc>,
    /// The gateway process.
    pub gateway: Proc,
    /// Each shard's store directory, in shard order.
    pub stores: Vec<PathBuf>,
}

impl Cluster {
    /// Starts the shards on fresh stores under `dir`, waits until each
    /// answers `/readyz` with 200, then starts the gateway and waits until
    /// it reports every shard ready.
    ///
    /// The order matters: the gateway probes its backends once at startup
    /// and, with the prober parked, would route around a shard that was
    /// still starting for the whole run.
    ///
    /// # Errors
    ///
    /// A process that fails to start or to become ready within 30 s.
    pub fn start(bin: &Path, dir: &Path) -> Result<Cluster, String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut shards = Vec::new();
        let mut stores = Vec::new();
        for i in 0..SHARDS {
            let store = dir.join(format!("shard{i}"));
            std::fs::create_dir_all(&store).map_err(|e| format!("{}: {e}", store.display()))?;
            let s = store.to_string_lossy().to_string();
            shards.push(Proc::spawn(
                bin,
                &["serve", "--addr", "127.0.0.1:0", "--store", &s],
                "serving on",
            )?);
            stores.push(store);
        }
        for shard in &shards {
            wait_until(deadline, &shard.addr, "/readyz", |_| true)?;
        }
        let backends: Vec<&str> = shards.iter().map(|p| p.addr.as_str()).collect();
        let backends = backends.join(",");
        let gateway = Proc::spawn(
            bin,
            &[
                "gateway",
                "--addr",
                "127.0.0.1:0",
                "--backends",
                &backends,
                "--probe-ms",
                PROBE_MS,
            ],
            "gateway on",
        )?;
        wait_until(deadline, &gateway.addr, "/cluster", |body| {
            let health = Json::parse(body).ok().and_then(|v| {
                let shards = v.get("shards")?.as_array()?;
                Some(
                    shards
                        .iter()
                        .all(|s| s.get("health").and_then(Json::as_str) == Some("ready")),
                )
            });
            health == Some(true)
        })?;
        Ok(Cluster {
            shards,
            gateway,
            stores,
        })
    }

    /// The shard addresses, in `--backends` order.
    pub fn backends(&self) -> Vec<String> {
        self.shards.iter().map(|p| p.addr.clone()).collect()
    }

    /// The gateway's merged `/metrics` (its own counters plus every
    /// shard's), as series name → value.
    ///
    /// # Errors
    ///
    /// A failed scrape.
    pub fn metrics(&self) -> Result<BTreeMap<String, f64>, String> {
        match get_once(&self.gateway.addr, "/metrics") {
            Ok((200, text)) => Ok(parse_prometheus(&text)),
            Ok((status, _)) => Err(format!("/metrics answered {status}")),
            Err(e) => Err(format!("/metrics: {e}")),
        }
    }

    /// Sum of `VmHWM` over the three server processes, in MiB.
    pub fn rss_peak_mb(&self) -> f64 {
        self.shards
            .iter()
            .chain([&self.gateway])
            .filter_map(Proc::vm_hwm_mb)
            .sum()
    }

    /// Shuts the gateway down, then the shards (which drain and flush
    /// their stores). Returns `true` when all three exited cleanly.
    pub fn stop(mut self) -> bool {
        let grace = Duration::from_secs(15);
        let mut clean = self.gateway.stop(grace);
        for s in &mut self.shards {
            clean &= s.stop(grace);
        }
        clean
    }
}

/// Polls `GET path` on `addr` until it answers 200 with a body `ok`
/// accepts, or `deadline` passes.
fn wait_until(
    deadline: Instant,
    addr: &str,
    path: &str,
    ok: impl Fn(&str) -> bool,
) -> Result<(), String> {
    loop {
        match get_once(addr, path) {
            Ok((200, body)) if ok(&body) => return Ok(()),
            _ if Instant::now() > deadline => {
                return Err(format!("{addr}{path} never became ready"));
            }
            _ => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Parses Prometheus text exposition into series → value (comments and
/// unparsable lines skipped).
pub fn parse_prometheus(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// `after[name] - before[name]`, with absent series read as 0.
pub fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_counters_and_histogram_series() {
        let text = "# TYPE a_total counter\na_total 3\nh_bucket{le=\"+Inf\"} 2\nh_sum 7.5\n";
        let m = parse_prometheus(text);
        assert_eq!(m["a_total"], 3.0);
        assert_eq!(m["h_bucket{le=\"+Inf\"}"], 2.0);
        let before = BTreeMap::new();
        assert_eq!(delta(&before, &m, "h_sum"), 7.5);
        assert_eq!(delta(&before, &m, "absent"), 0.0);
    }
}
