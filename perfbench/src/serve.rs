//! `serve-paced`: the `sos-serve` daemon in full detail with the SOS
//! policy, the evaluation cache off and an empty snapshot directory of its
//! own, driven by a single-threaded open-loop client over one TCP
//! connection.
//!
//! The client submits at a fixed host-time rate below the daemon's
//! capacity. Right after each submit reply it sends one read verb, cycling
//! `status`, `stats` and `metrics`; it ends with `drain` and `shutdown`.
//! Each request goes out in a single write on a default socket, and is
//! timed from when it was due: a submit is due on the schedule, its read as
//! soon as the submit's reply is in.

use crate::spans::{self, Spans};
use crate::{jobs, stats, sub_seed, Args, Outcome};
use serde_json::JsonValue;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Offered load, in submits per host second.
pub const RATE_PER_S: f64 = 5.0;
/// Mean solo length of a job, in cycles.
pub const MEAN_JOB_CYCLES: f64 = 300_000.0;
pub const PHASED_SHARE: f64 = 0.25;
const READ_VERBS: [&str; 3] = ["status", "stats", "metrics"];
/// Daemon start-ups whose median is `setup_s`.
const SETUP_REPEATS: usize = 5;
/// The daemon's `--seed` (its solo-IPC calibration and engine RNG): the
/// same for every run seed, which varies the submitted jobs instead.
pub const DAEMON_SEED: u64 = 0x5E54E;

/// Builds `sos-serve` from the checkout and returns its path.
fn build_daemon(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let target = std::env::var("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| root.join("perfbench").join("target"));
    let target = if target.is_absolute() {
        target
    } else {
        root.join(target)
    };
    let status = Command::new(cargo)
        .current_dir(root)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "sos-bench",
            "--bin",
            "sos-serve",
        ])
        .arg("--target-dir")
        .arg(&target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building sos-serve failed: {status}"));
    }
    Ok(target.join("release").join("sos-serve"))
}

/// A running daemon.
struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Drop for Daemon {
    /// A daemon that was not shut down (an error cut the session short) is
    /// killed and reaped, so no process outlives the benchmark.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Spawns the daemon on a fresh, empty snapshot directory and waits for its
/// `listening` line; returns it with the spawn-to-listening time.
fn spawn(exe: &Path, snapshot_dir: &Path, seed: u64) -> Result<(Daemon, f64), String> {
    if snapshot_dir.exists() {
        std::fs::remove_dir_all(snapshot_dir).map_err(|e| format!("clear snapshot dir: {e}"))?;
    }
    std::fs::create_dir_all(snapshot_dir).map_err(|e| format!("snapshot dir: {e}"))?;
    let t = Instant::now();
    let mut child = Command::new(exe)
        .env("SOS_CACHE", "off")
        .args([
            "--port",
            "0",
            "--policy",
            "sos",
            "--seed",
            &seed.to_string(),
        ])
        .arg("--snapshot-dir")
        .arg(snapshot_dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    loop {
        line.clear();
        match stdout.read_line(&mut line) {
            Ok(0) | Err(_) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err("daemon exited before listening".into());
            }
            Ok(_) => {
                if let Some(addr) = line.trim().strip_prefix("sos-serve listening on ") {
                    let elapsed = t.elapsed().as_secs_f64();
                    let addr = addr.to_string();
                    return Ok((
                        Daemon {
                            child,
                            _stdout: stdout,
                            addr,
                        },
                        elapsed,
                    ));
                }
            }
        }
    }
}

/// One connection speaking the JSON-lines protocol.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("read timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Client { stream, reader })
    }

    /// Sends one request line in a single write and waits for the reply.
    fn request(&mut self, line: &str) -> Result<JsonValue, String> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.stream
            .write_all(&buf)
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => serde_json::from_str(reply.trim_end()).map_err(|e| format!("bad reply: {e}")),
            Err(e) => Err(format!("no reply: {e}")),
        }
    }

    /// A request whose reply must say `ok`.
    fn ok(&mut self, line: &str) -> Result<JsonValue, String> {
        let v = self.request(line)?;
        if v.get("ok").and_then(JsonValue::as_bool) == Some(true) {
            Ok(v)
        } else {
            let err = v.get("error").and_then(JsonValue::as_str).unwrap_or("?");
            Err(format!("error reply: {err}"))
        }
    }
}

fn verb(cmd: &str) -> String {
    format!("{{\"cmd\":\"{cmd}\"}}")
}

/// The open-loop schedule: submit `i` is due at `i / RATE_PER_S` seconds.
pub fn due_offsets(submits: usize) -> Vec<Duration> {
    (0..submits)
        .map(|i| Duration::from_secs_f64(i as f64 / RATE_PER_S))
        .collect()
}

/// Latency from the due time, and how late the request went out.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    pub latency_ms: f64,
    pub lateness_ms: f64,
    pub round_trip_ms: f64,
}

/// Times one request: due at `due`, sent at `sent`, answered at `done`.
pub fn timing(due: Instant, sent: Instant, done: Instant) -> Timing {
    let ms = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e3;
    Timing {
        latency_ms: ms(due, done),
        lateness_ms: ms(due, sent),
        round_trip_ms: ms(sent, done),
    }
}

/// What one session against one daemon measured.
#[derive(Default)]
struct Session {
    submits: Vec<Timing>,
    reads: Vec<Timing>,
    /// Per exchange: submit due time to read reply.
    exchange_ms: Vec<f64>,
    failed: u64,
    accepted: u64,
    wall_s: f64,
    problems: Vec<String>,
}

/// Runs the schedule against the daemon at `addr`, recording a span per
/// request when `spans` is given.
fn session(client: &mut Client, jobs: &[jobs::Job], spans: Option<&Spans>) -> Session {
    let mut s = Session::default();
    let start = Instant::now();
    for (i, (job, offset)) in jobs.iter().zip(due_offsets(jobs.len())).enumerate() {
        let due = start + offset;
        let group = i as u64;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
            if let Some(sp) = spans {
                sp.record("client.idle", "wait", group, None, now, Instant::now());
            }
        }
        let line = format!(
            "{{\"cmd\":\"submit\",\"bench\":\"{}\",\"cycles\":{},\"phased\":{}}}",
            job.benchmark.name(),
            job.cycles,
            job.phased
        );
        let sent = Instant::now();
        let result = client.ok(&line);
        let done = Instant::now();
        if let Some(sp) = spans {
            sp.record("serve.submit", "submit", group, None, sent, done);
        }
        s.submits.push(timing(due, sent, done));
        match result {
            Ok(_) => s.accepted += 1,
            Err(e) => {
                s.failed += 1;
                s.problems.push(format!("submit {i}: {e}"));
            }
        }
        let read = READ_VERBS[i % READ_VERBS.len()];
        let read_due = done;
        let sent = Instant::now();
        let result = client.ok(&verb(read));
        let read_done = Instant::now();
        if let Some(sp) = spans {
            sp.record("serve.read", "read", group, None, sent, read_done);
        }
        s.reads.push(timing(read_due, sent, read_done));
        s.exchange_ms
            .push(read_done.duration_since(due).as_secs_f64() * 1e3);
        if let Err(e) = result {
            s.failed += 1;
            s.problems.push(format!("{read} {i}: {e}"));
        }
    }
    let t = Instant::now();
    if let Err(e) = client.ok(&verb("drain")) {
        s.problems.push(format!("drain: {e}"));
    }
    if let Some(sp) = spans {
        sp.record(
            "serve.drain",
            "drain",
            jobs.len() as u64,
            None,
            t,
            Instant::now(),
        );
    }
    s.wall_s = start.elapsed().as_secs_f64();
    s
}

/// Mean handler time of the given verbs from the daemon's
/// `serve.request_us.<verb>` histograms, in microseconds, with the count.
/// The histograms keep a sliding window of simulated time, so this is the
/// mean over the requests still in the window when the session ends.
fn handler_us(metrics: &JsonValue, verbs: &[&str]) -> (f64, u64) {
    let mut sum = 0u64;
    let mut count = 0u64;
    for v in verbs {
        let h = metrics
            .get("metrics")
            .and_then(|m| m.get("snapshot"))
            .and_then(|s| s.get("histograms"))
            .and_then(|h| h.get(&format!("serve.request_us.{v}")));
        sum += h
            .and_then(|h| h.get("sum"))
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        count += h
            .and_then(|h| h.get("count"))
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
    }
    (
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        },
        count,
    )
}

fn snapshot_num(metrics: &JsonValue, kind: &str, name: &str) -> f64 {
    metrics
        .get("metrics")
        .and_then(|m| m.get("snapshot"))
        .and_then(|s| s.get(kind))
        .and_then(|c| c.get(name))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0)
}

/// Closing queries after the drain, then `shutdown`; checks the daemon
/// exits 0. Returns the `metrics` reply and the daemon's CPU seconds
/// before shutdown.
fn close(
    mut daemon: Daemon,
    client: &mut Client,
    accepted: u64,
    out: &mut Outcome,
) -> (Option<JsonValue>, Option<f64>) {
    let pid = daemon.child.id().to_string();
    let cpu_s = crate::host::cpu_seconds(&pid);
    let metrics = client.ok(&verb("metrics")).ok();
    let status = client.ok(&verb("status")).ok();
    let stats = client.ok(&verb("stats")).ok();
    let rss = crate::host::peak_rss_mb(&pid);
    let field = |v: &Option<JsonValue>, sect: &str, k: &str| {
        v.as_ref()
            .and_then(|v| v.get(sect))
            .and_then(|s| s.get(k))
            .and_then(JsonValue::as_u64)
    };
    out.check(
        "daemon restored nothing (status.restored == 0)",
        field(&status, "status", "restored") == Some(0),
    );
    out.check(
        "completed equals accepted",
        field(&status, "status", "completed") == Some(accepted),
    );
    out.check(
        "daemon's evaluation cache served no hits",
        field(&stats, "stats", "cache_hits") == Some(0),
    );
    let shutdown = client.ok(&verb("shutdown")).is_ok();
    let exit = daemon.child.wait().map(|s| s.success()).unwrap_or(false);
    out.check("daemon shut down and exited 0", shutdown && exit);
    out.set("peak_rss_mb", rss.unwrap_or(0.0));
    (metrics, cpu_s)
}

pub fn run(args: &Args, out: &mut Outcome) {
    let exe = match build_daemon(&args.root) {
        Ok(e) => e,
        Err(e) => {
            out.check(format!("build sos-serve: {e}"), false);
            return;
        }
    };
    let runs = args
        .root
        .join("perfbench")
        .join("out")
        .join(format!("serve-{}", std::process::id()));
    let result = drive(args, &exe, &runs, DAEMON_SEED, out);
    let _ = std::fs::remove_dir_all(&runs);
    if let Err(e) = result {
        out.check(format!("serve session: {e}"), false);
    }
}

fn drive(args: &Args, exe: &Path, runs: &Path, seed: u64, out: &mut Outcome) -> Result<(), String> {
    // Set-up: daemon start-ups (spawn to `listening`); all but the last are
    // shut down straight away.
    let mut setup = Vec::new();
    let mut last = None;
    for k in 0..SETUP_REPEATS {
        let (d, s) = spawn(exe, &runs.join(format!("snap-{k}")), seed)?;
        setup.push(s);
        if k + 1 < SETUP_REPEATS {
            let mut d = d;
            Client::connect(&d.addr)?.ok(&verb("shutdown"))?;
            d.child.wait().map_err(|e| format!("wait: {e}"))?;
        } else {
            last = Some(d);
        }
    }
    out.set("setup_s", stats::median(&setup));
    let daemon = last.expect("set-up spawned a daemon");
    let timed_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let submits = (RATE_PER_S * timed_seconds).round().max(1.0) as usize;
    let lengths = jobs::exponential_quantiles(submits, MEAN_JOB_CYCLES);
    let job_list = jobs::jobs(lengths, PHASED_SHARE, sub_seed(args.seed, 1));
    out.lines.push(format!(
        "schedule: {submits} submits at {RATE_PER_S}/s (mean {MEAN_JOB_CYCLES} solo cycles, {:.0}% phased), one read after each, cycling {}",
        PHASED_SHARE * 100.0,
        READ_VERBS.join("/")
    ));
    // The daemon stamps arrivals with its own clock, so simulated response
    // times depend on host timing; the digest covers what is exact: the
    // submitted jobs and how many completed.
    for j in &job_list {
        out.digest
            .write(format!("{}:{}:{};", j.benchmark.name(), j.cycles, j.phased).as_bytes());
    }
    let mut client = Client::connect(&daemon.addr)?;
    let cpu_before = crate::host::cpu_seconds(&daemon.child.id().to_string());
    let s = session(&mut client, &job_list, None);
    out.digest.write(&s.accepted.to_le_bytes());
    let (metrics, cpu_after) = close(daemon, &mut client, s.accepted, out);
    let daemon_cpu_s = cpu_after.zip(cpu_before).map(|(a, b)| a - b);
    record(&s, metrics.as_ref(), daemon_cpu_s, out);

    if args.trace {
        let spans = Spans::new();
        let (daemon, _) = spawn(exe, &runs.join("snap-traced"), seed)?;
        let mut client = Client::connect(&daemon.addr)?;
        let t = Instant::now();
        let traced = session(&mut client, &job_list, Some(&spans));
        let wall_ns = t.elapsed().as_nanos() as u64;
        let mut scratch = Outcome::default();
        let _ = close(daemon, &mut client, traced.accepted, &mut scratch);
        out.check(
            "traced session passes its checks",
            scratch.correct() && traced.failed == 0,
        );
        out.set(
            "trace.overhead_pct",
            100.0 * (stats::median(&traced.exchange_ms) / stats::median(&s.exchange_ms) - 1.0),
        );
        let table = spans::layer_table(&spans.snapshot(), wall_ns);
        crate::finish_trace(args, &spans, table, out);
    }
    Ok(())
}

/// Books one session's figures into the outcome. `daemon_cpu_s` is the CPU
/// time the daemon spent during the session.
fn record(s: &Session, metrics: Option<&JsonValue>, daemon_cpu_s: Option<f64>, out: &mut Outcome) {
    out.attempted += (s.submits.len() + s.reads.len()) as u64;
    out.failed += s.failed;
    out.check("no request failed or was refused", s.problems.is_empty());
    for p in s.problems.iter().take(5) {
        out.lines.push(format!("problem: {p}"));
    }
    // The session's wall time is set by the client's fixed schedule, so
    // accepted jobs over wall time cannot show a slower daemon until its
    // capacity falls below the offered rate. Throughput is therefore jobs
    // per second of daemon CPU time, which the daemon alone sets.
    match daemon_cpu_s {
        Some(cpu) if cpu > 0.0 => {
            out.set("throughput_per_s", s.accepted as f64 / cpu);
            out.lines.push(format!(
                "daemon CPU during the session: {cpu:.2} s for {} jobs",
                s.accepted
            ));
        }
        _ => out.check("daemon CPU time readable from /proc", false),
    }
    out.set("jobs_per_s", s.accepted as f64 / s.wall_s);
    crate::set_latency(
        out,
        "submit then read, from the submit's due time",
        std::slice::from_ref(&s.exchange_ms),
    );
    let lat = |t: &[Timing]| t.iter().map(|x| x.latency_ms).collect::<Vec<f64>>();
    let (submit_ms, read_ms) = (lat(&s.submits), lat(&s.reads));
    out.set("submit_p50_ms", stats::median(&submit_ms));
    out.set(
        "submit_tail_ms",
        stats::tail(&submit_ms).map_or(0.0, |t| t.value),
    );
    out.set("read_p50_ms", stats::median(&read_ms));
    out.set(
        "read_tail_ms",
        stats::tail(&read_ms).map_or(0.0, |t| t.value),
    );
    out.lines.push(stats::describe("submit", "ms", &submit_ms));
    out.lines.push(stats::describe("read", "ms", &read_ms));
    let lateness: Vec<f64> = s.submits.iter().map(|t| t.lateness_ms).collect();
    out.set("serve.lateness_ms", stats::mean(&lateness));
    out.lines
        .push(stats::describe("generator lateness", "ms", &lateness));

    let Some(m) = metrics else {
        out.check("metrics verb answered", false);
        return;
    };
    let (submit_us, n_submit) = handler_us(m, &["submit"]);
    let (read_us, n_read) = handler_us(m, &READ_VERBS);
    out.set("serve.handle_us.submit", submit_us);
    out.set("serve.handle_us.read", read_us);
    let round_trip: Vec<f64> = s
        .submits
        .iter()
        .chain(&s.reads)
        .map(|t| t.round_trip_ms)
        .collect();
    let handled = (n_submit + n_read).max(1) as f64;
    out.set(
        "serve.outside_handler_ms",
        stats::mean(&round_trip)
            - (submit_us * n_submit as f64 + read_us * n_read as f64) / handled / 1e3,
    );
    out.set(
        "serve.backpressure",
        snapshot_num(m, "counters", "serve.errors.backpressure"),
    );
    out.set(
        "serve.snapshot_write_us",
        snapshot_num(m, "gauges", "serve.snapshot_write_us"),
    );
    out.set(
        "metrics.exposition_bytes",
        m.get("metrics")
            .and_then(|x| x.get("prometheus"))
            .and_then(JsonValue::as_str)
            .map_or(0.0, |p| p.len() as f64),
    );
    out.set(
        "online.timeslices",
        snapshot_num(m, "counters", "engine.timeslices"),
    );
    out.set(
        "online.sampling_slices",
        snapshot_num(m, "counters", "engine.sampling_slices"),
    );
    out.set(
        "online.resamples",
        snapshot_num(m, "counters", "engine.resamples"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_the_due_time() {
        // A synthetic schedule: due at 0, 200, 400 ms; the second request
        // is sent 40 ms late because the first one stalled.
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let dues = due_offsets(3);
        assert_eq!(dues[1], Duration::from_millis(200));
        let first = timing(at(0), at(0), at(240));
        let second = timing(at(200), at(240), at(250));
        let third = timing(at(400), at(400), at(405));
        assert!((first.latency_ms - 240.0).abs() < 1e-9);
        // The stall shows in the late request's latency, not only its own
        // 10 ms round trip.
        assert!((second.latency_ms - 50.0).abs() < 1e-9);
        assert!((second.round_trip_ms - 10.0).abs() < 1e-9);
        assert!((second.lateness_ms - 40.0).abs() < 1e-9);
        assert!((third.lateness_ms).abs() < 1e-9);
    }

    #[test]
    fn schedule_rate_is_fixed() {
        let d = due_offsets(11);
        assert_eq!(d.len(), 11);
        assert_eq!(d[10], Duration::from_secs(2));
    }
}
