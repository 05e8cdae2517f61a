//! Driving the shipped `obda` binary from outside: `obda build`, an
//! `obda serve` process and its HTTP endpoints, one-shot `obda answer`
//! processes, and the `/proc` and `rusage` readings of their cost.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Where the inputs live and which binary to run.
pub struct Env {
    pub obda: PathBuf,
    pub ontology: PathBuf,
    pub data: PathBuf,
    pub snapshot: PathBuf,
}

/// Runs `obda build`, failing on a non-zero exit.
pub fn build_snapshot(env: &Env) -> Result<(), String> {
    let out = Command::new(&env.obda)
        .arg("build")
        .arg("--ontology")
        .arg(&env.ontology)
        .arg("--data")
        .arg(&env.data)
        .arg("-o")
        .arg(&env.snapshot)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run obda build: {e}"))?;
    if !out.status.success() {
        return Err(format!("obda build failed: {}", String::from_utf8_lossy(&out.stderr)));
    }
    Ok(())
}

/// A running `obda serve`. Dropping it kills and reaps the process, so no
/// error path leaves a server behind.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
}

impl Server {
    /// Boots `obda serve` over the snapshot on a free loopback port and
    /// waits until `/readyz` answers 200.
    pub fn boot(env: &Env) -> Result<Server, String> {
        let mut child = Command::new(&env.obda)
            .arg("serve")
            .arg("--ontology")
            .arg(&env.ontology)
            .arg("--db")
            .arg(&env.snapshot)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot run obda serve: {e}"))?;
        let mut line = String::new();
        if let Some(stdout) = child.stdout.take() {
            let _ = BufReader::new(stdout).read_line(&mut line);
        }
        let addr = line.trim().strip_prefix("listening on http://").and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("obda serve did not announce its address: {line:?}"));
        };
        let mut server = Server { child, addr };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(r) = http(server.addr, "GET", "/readyz", "") {
                if r.status == 200 {
                    return Ok(server);
                }
            }
            if Instant::now() > deadline {
                return Err("obda serve never became ready".into());
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("obda serve exited during boot: {status}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `/metrics` as a name → value map (histogram series included).
    pub fn metrics(&self) -> Result<BTreeMap<String, f64>, String> {
        let r = http(self.addr, "GET", "/metrics", "")?;
        if r.status != 200 {
            return Err(format!("/metrics answered {}", r.status));
        }
        Ok(r.body
            .lines()
            .filter_map(|l| {
                let (name, value) = l.rsplit_once(' ')?;
                Some((name.to_owned(), value.parse().ok()?))
            })
            .collect())
    }

    /// Drains through `POST /shutdown` and requires a clean exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        http(self.addr, "POST", "/shutdown", "")?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("obda serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => return Err("obda serve did not drain".into()),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One HTTP exchange, split the way the client sees it.
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: String,
    /// `connect()` returned.
    pub connect: Duration,
    /// Request written → first response byte.
    pub wait: Duration,
    /// First response byte → EOF.
    pub read: Duration,
    /// Start of `connect()` → EOF.
    pub total: Duration,
}

impl Response {
    /// 200, or the failure as the status and the body's first line.
    pub fn outcome(&self) -> Result<u16, String> {
        match self.status {
            200 => Ok(200),
            code => Err(format!("status {code}: {}", self.body.lines().next().unwrap_or(""))),
        }
    }

    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }
}

/// One request on a fresh connection; `obda serve` closes every
/// connection after its response, so EOF ends the exchange.
pub fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<Response, String> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let t1 = Instant::now();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nX-Obda-Tenant: bench\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).map_err(|e| format!("send: {e}"))?;
    let t2 = Instant::now();
    let mut raw = Vec::with_capacity(16 * 1024);
    let mut first = None;
    let mut buf = [0u8; 64 * 1024];
    loop {
        let n = stream.read(&mut buf).map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            break;
        }
        first.get_or_insert_with(Instant::now);
        raw.extend_from_slice(&buf[..n]);
    }
    let t4 = Instant::now();
    let t3 = first.ok_or("empty response")?;
    let text = String::from_utf8(raw).map_err(|_| "response is not UTF-8")?;
    let (head, body) = text.split_once("\r\n\r\n").ok_or("response without header end")?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or("bad status line")?;
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_owned(), v.trim().to_owned()))
        .collect();
    Ok(Response {
        status,
        headers,
        body: body.to_owned(),
        connect: t1 - t0,
        wait: t3 - t2,
        read: t4 - t3,
        total: t4 - t0,
    })
}

/// User + system CPU seconds of a live process, all of its threads
/// (exited ones included), from `/proc/<pid>/stat`.
pub fn proc_cpu_seconds(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(") ").ok_or("bad /proc stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => Ok((u + s) / CLOCK_TICKS),
        _ => Err("bad /proc stat fields".into()),
    }
}

/// `USER_HZ`, fixed at 100 by the Linux ABI for `/proc` tick counts.
const CLOCK_TICKS: f64 = 100.0;

/// Peak resident set (`VmHWM`) of a live process, in MiB.
pub fn proc_peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM".into())
}

/// The outcome of one `obda answer` process.
pub struct Oneshot {
    pub exit_code: i32,
    pub stdout: String,
    pub stderr: String,
    /// Spawn call → `spawn()` returned.
    pub spawn: Duration,
    /// `spawn()` returned → first stdout byte (or EOF).
    pub wait: Duration,
    /// First stdout byte → process reaped.
    pub read: Duration,
    /// Spawn → reaped.
    pub total: Duration,
    pub cpu_seconds: f64,
    pub max_rss_mb: f64,
}

impl Oneshot {
    /// The operation's outcome as an HTTP-like status: 200 on exit 0.
    pub fn status(&self) -> Result<u16, String> {
        match self.exit_code {
            0 => Ok(200),
            code => Err(format!("exit {code}")),
        }
    }
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of the Linux 64-bit ABI: two timevals then fourteen
/// longs, the first of which is `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Reaps `child` with `wait4`, returning (exit code or -signal, rusage).
fn reap(child: &Child) -> Result<(i32, Rusage), String> {
    let pid = i32::try_from(child.id()).map_err(|_| "pid out of range")?;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is our own unreaped child (std has not waited on
        // it), and both out-pointers are valid, exclusively borrowed
        // locals whose layout matches the C ABI structs above.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        if std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4: {}", std::io::Error::last_os_error()));
        }
    }
    let code = if status & 0x7f == 0 { (status >> 8) & 0xff } else { -(status & 0x7f) };
    Ok((code, usage))
}

/// Runs `obda answer --db` once for the query file.
pub fn oneshot(env: &Env, query: &Path) -> Result<Oneshot, String> {
    let t0 = Instant::now();
    let mut child = Command::new(&env.obda)
        .arg("answer")
        .arg("--ontology")
        .arg(&env.ontology)
        .arg("--query")
        .arg(query)
        .arg("--db")
        .arg(&env.snapshot)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot run obda answer: {e}"))?;
    let t1 = Instant::now();
    let mut stdout = child.stdout.take().ok_or("no stdout")?;
    let mut stderr = child.stderr.take().ok_or("no stderr")?;
    // stderr is drained on a scoped thread so a chatty stderr can never
    // block the child while stdout is read here.
    let (out, err, first) = std::thread::scope(|s| {
        let err = s.spawn(move || {
            let mut e = String::new();
            let _ = stderr.read_to_string(&mut e);
            e
        });
        let mut raw = Vec::new();
        let mut buf = [0u8; 64 * 1024];
        let mut first = None;
        while let Ok(n) = stdout.read(&mut buf) {
            if n == 0 {
                break;
            }
            first.get_or_insert_with(Instant::now);
            raw.extend_from_slice(&buf[..n]);
        }
        (raw, err.join().unwrap_or_default(), first)
    });
    let reaped = reap(&child);
    let t4 = Instant::now();
    let (code, usage) = reaped?;
    let t3 = first.unwrap_or(t4);
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Ok(Oneshot {
        exit_code: code,
        stdout: String::from_utf8(out).map_err(|_| "stdout is not UTF-8")?,
        stderr: err,
        spawn: t1 - t0,
        wait: t3 - t1,
        read: t4 - t3,
        total: t4 - t0,
        cpu_seconds: secs(&usage.utime) + secs(&usage.stime),
        max_rss_mb: usage.maxrss as f64 / 1024.0,
    })
}

/// Seconds the hypervisor has stolen from this machine's CPUs, summed.
pub fn host_steal_seconds() -> f64 {
    host_cpu_ticks().1 / 100.0
}

/// The host's CPU time counters (`/proc/stat` first line): (total, steal)
/// in ticks. Steal is time the hypervisor gave this machine's CPUs away.
pub fn host_cpu_ticks() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.iter().take(8).sum(), fields.get(7).copied().unwrap_or(0.0))
}
