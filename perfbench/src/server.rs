//! The system under test as its own processes: `bear preprocess` writes
//! the index and `bear serve` answers HTTP, both run from the
//! repository's `bear` binary (`perfbench/run.sh` builds it).

use crate::client;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Server settings every workload shares (see `perfbench/manifest.json`).
pub const HTTP_THREADS: usize = 2;
pub const ENGINE_THREADS: usize = 2;
pub const BLOCK_WIDTH: usize = 8;
/// A server left behind by a killed benchmark exits by itself.
const SERVE_FOR_MS: &str = "170000";
const READY_TIMEOUT: Duration = Duration::from_secs(60);

pub type Error = Box<dyn std::error::Error>;

/// The repository workspace's release `bear` executable, under
/// `CARGO_TARGET_DIR` or `target/` (relative to the repository root).
pub fn bear_binary() -> Result<PathBuf, Error> {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let bin = target.join("release").join("bear");
    if !bin.is_file() {
        return Err(format!("no bear binary at {}", bin.display()).into());
    }
    Ok(bin)
}

fn run_to_end(cmd: &mut Command) -> Result<(), Error> {
    let out = cmd.stdin(Stdio::null()).output()?;
    if !out.status.success() {
        return Err(format!(
            "{cmd:?} failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )
        .into());
    }
    Ok(())
}

/// `bear preprocess` with the benchmark's thread count; `out_of_core`
/// writes the sharded v3 layout.
pub fn preprocess(graph: &Path, index: &Path, out_of_core: bool) -> Result<(), Error> {
    let mut cmd = Command::new(bear_binary()?);
    cmd.arg("preprocess").arg(graph).arg(index);
    cmd.args(["--threads", &ENGINE_THREADS.to_string()]);
    if out_of_core {
        cmd.arg("--out-of-core");
    }
    run_to_end(&mut cmd)
}

/// A running `bear serve` process, killed and reaped on drop.
pub struct ServerProc {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Starts `bear serve g=<index>` on an ephemeral port and waits for
    /// the first `200` from `/readyz`.
    pub fn start(index: &Path, resident_mb: Option<u64>) -> Result<ServerProc, Error> {
        let mut cmd = Command::new(bear_binary()?);
        cmd.arg("serve").arg(format!("g={}", index.display()));
        cmd.args(["--addr", "127.0.0.1:0", "--for-ms", SERVE_FOR_MS]);
        cmd.args(["--http-threads", &HTTP_THREADS.to_string()]);
        cmd.args(["--threads", &ENGINE_THREADS.to_string()]);
        cmd.args(["--block-width", &BLOCK_WIDTH.to_string()]);
        if let Some(mb) = resident_mb {
            cmd.args(["--resident-mb", &mb.to_string()]);
        }
        let mut child = cmd.stdin(Stdio::null()).stdout(Stdio::piped()).spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().ok_or("serve stdout not piped")?);
        let addr = loop {
            let mut line = String::new();
            if stdout.read_line(&mut line)? == 0 {
                let status = child.wait()?;
                return Err(format!("bear serve exited early ({status})").into());
            }
            if let Some(rest) = line.split("http://").nth(1) {
                break rest.split_whitespace().next().ok_or("no address")?.parse()?;
            }
        };
        let server = ServerProc { child, _stdout: stdout, addr };
        let deadline = Instant::now() + READY_TIMEOUT;
        while !matches!(client::one_shot(addr, "GET", "/readyz"), Ok(r) if r.status == 200) {
            if Instant::now() > deadline {
                return Err("server never became ready".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        Ok(server)
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, Error> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmHWM in /proc status")?;
        Ok(kb / 1024.0)
    }

    /// Counters from `/metrics` for graph `g`, by metric name.
    pub fn metrics(&self) -> Result<Vec<(String, f64)>, Error> {
        let reply = client::one_shot(self.addr, "GET", "/metrics")?;
        let text = String::from_utf8(reply.body)?;
        Ok(text
            .lines()
            .filter_map(|line| {
                let (name, value) = line.rsplit_once(' ')?;
                let name = name.trim_end_matches("{graph=\"g\"}");
                Some((name.to_string(), value.parse().ok()?))
            })
            .collect())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Looks one counter up in a `/metrics` scrape (0 when absent).
pub fn counter(scrape: &[(String, f64)], name: &str) -> f64 {
    scrape.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v)
}
