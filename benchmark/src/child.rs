//! The daemon under test as a child process, so it can be `kill -9`'d and
//! relaunched, plus the scratch directory its data lives in. Both clean up
//! on drop: a failed run leaves no process and no file behind.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

use uniclean_client::{Client, ClientConfig};

/// A directory removed, with everything in it, when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Create `path` afresh (an earlier run's leftovers are removed).
    pub fn create(path: PathBuf) -> std::io::Result<ScratchDir> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh, empty subdirectory path (not yet created; the daemon
    /// creates its own data dir).
    pub fn sub(&self, name: &str) -> PathBuf {
        let p = self.0.join(name);
        let _ = std::fs::remove_dir_all(&p);
        p
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One `uniclean serve` child: durable, fsync on, one shard, default
/// snapshot cadence. Killed and reaped on drop.
pub struct Daemon {
    child: Child,
    /// Held so the daemon's stdout never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    /// Launch on `data_dir` (as a standby of `replicate_from` if given) and
    /// wait for the listen banner. The banner precedes recovery: a request
    /// sent right away waits in the accept queue until the daemon serves.
    pub fn spawn(
        bin: &Path,
        data_dir: &Path,
        replicate_from: Option<&str>,
    ) -> Result<Daemon, String> {
        let mut cmd = Command::new(bin);
        cmd.args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--shards",
            "1",
            "--data-dir",
        ])
        .arg(data_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
        if let Some(primary) = replicate_from {
            cmd.args(["--replicate-from", primary]);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot launch {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let addr = match stdout.read_line(&mut banner) {
            Ok(n) if n > 0 => banner
                .split("listening on ")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next())
                .map(str::to_string),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("daemon printed no listen banner: {banner:?}"));
        };
        Ok(Daemon {
            child,
            _stdout: stdout,
            addr,
        })
    }

    /// `kill -9` and reap (what dropping does, said out loud).
    pub fn kill9(self) {}

    /// `(VmRSS, VmHWM)` of the child in MB.
    pub fn rss_mb(&self) -> (f64, f64) {
        rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// A client of this daemon alone.
    pub fn client(&self) -> Client {
        Client::new(client_config(&self.addr))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // `Child::kill` is SIGKILL; `wait` reaps, so no zombie outlives us.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Client settings of the load generator: the crate's defaults (fixed
/// jitter seed included) with an io deadline long enough to wait out a
/// recovery in the accept queue.
pub fn client_config(addr: &str) -> ClientConfig {
    let mut cfg = ClientConfig::new(addr);
    cfg.io_timeout = Duration::from_secs(120);
    cfg
}

/// `(VmRSS, VmHWM)` in MB from a `/proc/<pid>/status` file (0 if absent).
pub fn rss_mb(status_path: &str) -> (f64, f64) {
    let text = std::fs::read_to_string(status_path).unwrap_or_default();
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kb| kb.parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// Peak resident set of this process in MB.
pub fn own_peak_rss_mb() -> f64 {
    rss_mb("/proc/self/status").1
}
