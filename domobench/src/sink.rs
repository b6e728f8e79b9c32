//! The `domo-sink serve` child and the client side of its protocols.

use crate::json::Metrics;
use crate::Outcome;
use domo_sink::QueryClient;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Where children keep their data dirs: inside the working directory,
/// removed again when the last child is gone.
const SCRATCH: &str = ".domobench-tmp";

/// Runs `serve` in the background and kills it once standard input
/// closes. The benchmark holds the write end, so the `serve` process
/// ends with the benchmark on every path, even a signal that skips
/// destructors.
const WATCHDOG: &str =
    r#""$@" >/dev/null & pid=$!; echo "$pid"; read -r _; kill "$pid" 2>/dev/null; wait "$pid""#;

/// A durable `serve` child on OS-assigned loopback ports. Dropping it
/// stops the child, waits for it, and removes its data dir, so no exit
/// path leaves a process or a directory behind.
pub struct SinkChild {
    watchdog: Child,
    pid: u32,
    dir: PathBuf,
    pub ingest: String,
    pub query: String,
}

impl SinkChild {
    /// Spawns `bin serve --data-dir … --queue-cap <queue_cap>` with the
    /// default fsync, shard and checkpoint settings. `trace_sample`
    /// sets `DOMO_TRACE_SAMPLE=1/N` in the child.
    pub fn spawn(bin: &Path, queue_cap: usize, trace_sample: Option<u32>) -> Result<Self, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = Path::new(SCRATCH).join(format!("{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let log =
            std::fs::File::create(dir.join("serve.log")).map_err(|e| format!("serve.log: {e}"))?;
        let addr_file = dir.join("addr");
        let mut cmd = Command::new("bash");
        cmd.args(["-c", WATCHDOG, "watchdog"])
            .arg(bin)
            .arg("serve")
            .args(["--ingest-port", "0", "--query-port", "0"])
            .arg("--data-dir")
            .arg(dir.join("data"))
            .arg("--addr-file")
            .arg(&addr_file)
            .args(["--queue-cap", &queue_cap.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(log);
        match trace_sample {
            Some(n) => cmd.env("DOMO_TRACE_SAMPLE", format!("1/{n}")),
            None => cmd.env_remove("DOMO_TRACE_SAMPLE"),
        };
        let mut watchdog = cmd
            .spawn()
            .map_err(|e| format!("spawn {} serve: {e}", bin.display()))?;
        let mut pid = String::new();
        if let Some(out) = watchdog.stdout.take() {
            let _ = BufReader::new(out).read_line(&mut pid);
        }
        let mut sink = SinkChild {
            pid: pid.trim().parse().unwrap_or(0),
            watchdog,
            dir,
            ingest: String::new(),
            query: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                let mut lines = text.lines().map(|a| a.replace("0.0.0.0", "127.0.0.1"));
                if let (Some(ingest), Some(query)) = (lines.next(), lines.next()) {
                    sink.ingest = ingest;
                    sink.query = query;
                    return Ok(sink);
                }
            }
            if sink.pid == 0 || !Path::new(&format!("/proc/{}", sink.pid)).exists() {
                let log = std::fs::read_to_string(sink.dir.join("serve.log")).unwrap_or_default();
                return Err(format!("serve exited before listening: {log}"));
            }
            if Instant::now() > deadline {
                return Err("serve never published its addresses".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn pid(&self) -> u32 {
        self.pid
    }
}

impl Drop for SinkChild {
    fn drop(&mut self) {
        // Closing stdin makes the watchdog stop `serve` and wait for it.
        drop(self.watchdog.stdin.take());
        let _ = self.watchdog.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
        // Succeeds only once no other child's dir is left.
        let _ = std::fs::remove_dir(SCRATCH);
    }
}

/// Removes data dirs left by benchmark processes that were killed
/// before their destructors ran (their watchdogs already stopped the
/// `serve` children).
pub fn remove_stale_dirs() {
    let Ok(entries) = std::fs::read_dir(SCRATCH) else {
        return;
    };
    for e in entries.flatten() {
        let name = e.file_name().to_string_lossy().into_owned();
        let owner = name.split('-').next().unwrap_or("");
        if !Path::new(&format!("/proc/{owner}")).exists() {
            let _ = std::fs::remove_dir_all(e.path());
        }
    }
    let _ = std::fs::remove_dir(SCRATCH);
}

/// Peak resident set (`VmHWM`) of a process (`"self"` or a pid), MB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}

/// One query over a persistent connection, with `ERR` replies turned
/// into errors.
pub fn request(q: &mut QueryClient, cmd: &str) -> Result<Vec<String>, String> {
    let reply = q.request(cmd).map_err(|e| format!("{cmd}: {e}"))?;
    if let Some(err) = reply.iter().find(|l| l.starts_with("ERR")) {
        return Err(format!("{cmd}: {err}"));
    }
    Ok(reply)
}

/// The `STATS` reply as name → value (non-numeric lines skipped).
pub fn stats(q: &mut QueryClient) -> Result<std::collections::BTreeMap<String, u64>, String> {
    Ok(request(q, "STATS")?
        .iter()
        .filter_map(|l| {
            let (k, v) = l.split_once(' ')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect())
}

/// The ingest barrier: polls `STATS` until the sink has accepted (or
/// quarantined) `sent` packets, so a following `DRAIN` covers all of
/// them. Returns the final counters. Gives up when the counters stop
/// moving for ten seconds.
pub fn wait_ingested(
    q: &mut QueryClient,
    sent: u64,
) -> Result<std::collections::BTreeMap<String, u64>, String> {
    let mut last = (u64::MAX, Instant::now());
    loop {
        let s = stats(q)?;
        let seen =
            s.get("ingested").copied().unwrap_or(0) + s.get("quarantined").copied().unwrap_or(0);
        if seen >= sent {
            return Ok(s);
        }
        if seen != last.0 {
            last = (seen, Instant::now());
        } else if last.1.elapsed() > Duration::from_secs(10) {
            return Ok(s);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A `SUBSCRIBE` connection read by a thread of its own, stamping each
/// `packet` line with the instant it arrived.
pub struct Subscriber {
    stream: TcpStream,
    received: Arc<AtomicUsize>,
    thread: JoinHandle<Vec<(Instant, String)>>,
}

impl Subscriber {
    /// Subscribes to every reconstruction and waits for the `OK` line.
    pub fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("subscribe connect: {e}"))?;
        let _ = stream.set_nodelay(true);
        let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        (&stream)
            .write_all(b"SUBSCRIBE\n")
            .map_err(|e| format!("subscribe: {e}"))?;
        let mut ok = String::new();
        reader
            .read_line(&mut ok)
            .map_err(|e| format!("subscribe: {e}"))?;
        if !ok.starts_with("OK subscribed") {
            return Err(format!("SUBSCRIBE answered `{}`", ok.trim_end()));
        }
        let received = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&received);
        let thread = std::thread::spawn(move || {
            let mut events = Vec::new();
            let mut line = String::new();
            loop {
                line.clear();
                // EOF or a reset: `finish` closed the stream (or the
                // child died, which the accounting then shows).
                if !matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
                    return events;
                }
                let now = Instant::now();
                let l = line.trim_end();
                if l == "END" {
                    return events;
                }
                // `lagged`/`SHED` lines mean events were dropped; the
                // exactly-once accounting counts the missing packets.
                if l.starts_with("packet ") {
                    events.push((now, l.to_string()));
                    counter.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        Ok(Self {
            stream,
            received,
            thread,
        })
    }

    /// Events received so far.
    pub fn received(&self) -> usize {
        self.received.load(Ordering::Relaxed)
    }

    /// Waits until `want` events arrived (or ten seconds without one),
    /// then closes the stream and returns every event.
    pub fn finish(self, want: usize) -> Result<Vec<(Instant, String)>, String> {
        let mut last = (self.received(), Instant::now());
        while self.received() < want && last.1.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(1));
            let n = self.received();
            if n != last.0 {
                last = (n, Instant::now());
            }
        }
        let _ = (&self.stream).write_all(b"QUIT\n");
        let _ = self.stream.shutdown(Shutdown::Both);
        self.thread
            .join()
            .map_err(|_| "subscriber thread panicked".to_string())
    }
}

/// Reads the child's per-layer numbers: per-stage latencies from the
/// `domo_trace_stage_seconds` histograms, estimator and solver counters
/// from `METRICS JSON`, and store sizes from `STORE STATS`.
pub fn sink_layers(q: &mut QueryClient, out: &mut Outcome) -> Result<(), String> {
    let m = Metrics::parse(&request(q, "METRICS JSON")?.join("\n"))?;
    // `reactor_read` is every journey's first stamp, so its histogram
    // (time since the previous stamp) is always empty.
    const STAGES: [(&str, &str, &str); 9] = [
        (
            "batch_submit",
            "stage.batch_submit.p50_ms",
            "stage.batch_submit.p99_ms",
        ),
        (
            "wal_append",
            "stage.wal_append.p50_ms",
            "stage.wal_append.p99_ms",
        ),
        (
            "shard_enqueue",
            "stage.shard_enqueue.p50_ms",
            "stage.shard_enqueue.p99_ms",
        ),
        (
            "shard_dequeue",
            "stage.shard_dequeue.p50_ms",
            "stage.shard_dequeue.p99_ms",
        ),
        ("flush", "stage.flush.p50_ms", "stage.flush.p99_ms"),
        (
            "window_solve",
            "stage.window_solve.p50_ms",
            "stage.window_solve.p99_ms",
        ),
        (
            "result_append",
            "stage.result_append.p50_ms",
            "stage.result_append.p99_ms",
        ),
        ("publish", "stage.publish.p50_ms", "stage.publish.p99_ms"),
        (
            "subscriber_send",
            "stage.subscriber_send.p50_ms",
            "stage.subscriber_send.p99_ms",
        ),
    ];
    let stage = "domo_trace_stage_seconds";
    for (s, p50, p99) in STAGES {
        out.set(p50, 1e3 * m.hist_quantile(stage, Some(("stage", s)), 0.5));
        out.set(p99, 1e3 * m.hist_quantile(stage, Some(("stage", s)), 0.99));
    }
    let window = "domo_estimator_window_solve_seconds";
    out.set("estimator.solve_s", m.hist_sum(window, None));
    out.set(
        "estimator.windows",
        m.counter("domo_estimator_windows_total", None),
    );
    out.set(
        "estimator.ladder_fallbacks",
        m.counter("domo_estimator_ladder_fallbacks_total", None),
    );
    out.set(
        "estimator.window_p50_ms",
        1e3 * m.hist_quantile(window, None, 0.5),
    );
    out.set(
        "estimator.window_p99_ms",
        1e3 * m.hist_quantile(window, None, 0.99),
    );
    out.set(
        "solver.iterations",
        m.hist_sum("domo_solver_iterations", None),
    );
    out.set(
        "solver.capped_solves",
        m.counter("domo_solver_solves_total", Some(("status", "max_iter"))),
    );
    out.set(
        "solver.polish_rejected",
        m.counter("domo_solver_polish_total", Some(("outcome", "rejected"))),
    );
    out.set(
        "store.checkpoints",
        m.counter("domo_store_checkpoints_saved_total", None),
    );
    out.set(
        "store.wal_bytes",
        m.counter("domo_store_wal_bytes_total", None),
    );
    out.set(
        "query.agg_backfills",
        m.counter("domo_sink_agg_backfills_total", None),
    );
    let store = request(q, "STORE STATS")?;
    let result_bytes = store
        .iter()
        .find_map(|l| l.strip_prefix("result_bytes "))
        .and_then(|v| v.parse::<f64>().ok())
        .ok_or("STORE STATS has no result_bytes")?;
    out.set("store.result_bytes", result_bytes);
    Ok(())
}
