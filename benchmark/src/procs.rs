//! The program under test as child processes: locating the release
//! binaries, dumping archives, booting servers, timing report runs and
//! reading each child's peak resident set. Every child and every scratch
//! directory is owned by a guard that kills, reaps or removes it on drop.

use crate::client::Conn;
use std::fs;
use std::io::{self, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The command that builds the binaries the benchmark drives.
pub const BUILD_COMMAND: &str = "cargo build --release --workspace --bins";

/// How long a server may take from spawn to its first `/healthz` 200.
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);

/// The program's release binaries, found next to the benchmark's own
/// executable, and the benchmark's scratch directory beside them.
pub struct Bins {
    /// `lacnet-gen`.
    pub gen: PathBuf,
    /// `vzla-report`.
    pub report: PathBuf,
    /// `lacnet-serve`.
    pub serve: PathBuf,
    /// Scratch space for archives, port files and span files.
    pub work: PathBuf,
}

impl Bins {
    /// Locate the three binaries next to the running executable.
    pub fn locate() -> Result<Bins, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
        let dir = exe
            .parent()
            .ok_or("own executable has no directory")?
            .to_path_buf();
        let find = |name: &str| -> Result<PathBuf, String> {
            let path = dir.join(name);
            if path.is_file() {
                Ok(path)
            } else {
                Err(format!(
                    "{name} not found in {}; build the program first: {BUILD_COMMAND}",
                    dir.display()
                ))
            }
        };
        Ok(Bins {
            gen: find("lacnet-gen")?,
            report: find("vzla-report")?,
            serve: find("lacnet-serve")?,
            work: dir.join("lacnet-benchmark-work"),
        })
    }
}

/// A scratch directory under [`Bins::work`], removed with everything in
/// it when dropped.
pub struct TempDir(PathBuf);

impl TempDir {
    /// A fresh, empty directory tagged `tag`.
    pub fn new(work: &Path, tag: &str) -> Result<TempDir, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = work.join(format!("tmp-{}-{n}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(TempDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// A child process that is killed and reaped when dropped.
struct Guarded(Child);

impl Drop for Guarded {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The child's peak resident set (`VmHWM`) in KiB, while it is alive.
pub fn peak_rss_kib(pid: u32) -> Option<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Dump the default world for `seed` as a columnar archive under `out`,
/// returning the `lacnet-gen` wall time.
pub fn dump_archive(bins: &Bins, out: &Path, seed: u64, test_world: bool) -> Result<f64, String> {
    let mut cmd = Command::new(&bins.gen);
    cmd.arg("--out").arg(out);
    cmd.args(["--shard-format", "columnar"]);
    if test_world {
        cmd.arg("--test-world");
    }
    cmd.args(["--seed", &seed.to_string()]);
    let t0 = Instant::now();
    let output = cmd
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run lacnet-gen: {e}"))?;
    let wall = t0.elapsed().as_secs_f64();
    if !output.status.success() {
        return Err(format!(
            "lacnet-gen failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    Ok(wall)
}

/// One finished `vzla-report` run.
pub struct ReportRun {
    /// Wall time from spawn to exit, in seconds.
    pub wall: f64,
    /// Exit status.
    pub status: ExitStatus,
    /// Everything it printed to standard output.
    pub stdout: Vec<u8>,
    /// Last `VmHWM` read while it ran, polled every 10 ms.
    pub peak_rss_kib: Option<u64>,
}

/// Run `vzla-report --from-archive archive` to completion.
pub fn run_report(bins: &Bins, archive: &Path) -> Result<ReportRun, String> {
    let t0 = Instant::now();
    let child = Command::new(&bins.report)
        .arg("--from-archive")
        .arg(archive)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot run vzla-report: {e}"))?;
    let mut child = Guarded(child);
    let pid = child.0.id();
    let mut pipe = child.0.stdout.take().expect("stdout was piped");
    let exited = AtomicBool::new(false);
    let (status, stdout, rss) = std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let mut out = Vec::new();
            pipe.read_to_end(&mut out).map(|_| out)
        });
        let poller = scope.spawn(|| {
            let mut last = None;
            while !exited.load(Ordering::Relaxed) {
                last = peak_rss_kib(pid).or(last);
                std::thread::sleep(Duration::from_millis(10));
            }
            last
        });
        let status = child.0.wait();
        let wall = t0.elapsed().as_secs_f64();
        exited.store(true, Ordering::Relaxed);
        let stdout = reader.join().expect("stdout reader panicked");
        let rss = poller.join().expect("rss poller panicked");
        (status.map(|s| (s, wall)), stdout, rss)
    });
    let (status, wall) = status.map_err(|e| format!("vzla-report wait failed: {e}"))?;
    Ok(ReportRun {
        wall,
        status,
        stdout: stdout.map_err(|e| format!("reading vzla-report output: {e}"))?,
        peak_rss_kib: rss,
    })
}

/// A running `lacnet-serve --threads 2` over one archive, killed on drop.
pub struct Server {
    child: Guarded,
    /// Where it listens.
    pub addr: SocketAddr,
    /// Seconds from spawn to the first `/healthz` 200.
    pub setup: f64,
}

impl Server {
    /// Spawn a server over `archive` and wait until `/healthz` answers.
    /// The port file goes into the archive's own scratch directory, which
    /// the loader ignores. The readiness probe uses its own connection and
    /// closes it before returning, so no idle connection pins a worker.
    pub fn boot(bins: &Bins, archive: &Path) -> Result<Server, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let port_file = archive.join(format!("port-{}", NEXT.fetch_add(1, Ordering::Relaxed)));
        let _ = fs::remove_file(&port_file);
        let t0 = Instant::now();
        let child = Command::new(&bins.serve)
            .arg("--archive")
            .arg(archive)
            .args(["--port", "0", "--threads", "2", "--port-file"])
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot run lacnet-serve: {e}"))?;
        let mut child = Guarded(child);
        let port: u16 = loop {
            if let Ok(Some(status)) = child.0.try_wait() {
                return Err(format!("lacnet-serve exited during boot ({status})"));
            }
            if let Some(port) = fs::read_to_string(&port_file)
                .ok()
                .and_then(|s| s.trim().parse().ok())
            {
                break port;
            }
            if t0.elapsed() > BOOT_TIMEOUT {
                return Err("lacnet-serve did not bind within the boot timeout".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        loop {
            let probe = Conn::open(addr).and_then(|mut c| c.get("/healthz"));
            if matches!(probe, Ok(r) if r.status == 200) {
                break;
            }
            if t0.elapsed() > BOOT_TIMEOUT {
                return Err("lacnet-serve never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(Server {
            setup: t0.elapsed().as_secs_f64(),
            child,
            addr,
        })
    }

    /// The server's peak resident set in MiB so far.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        peak_rss_kib(self.child.0.id()).map(|kib| kib as f64 / 1024.0)
    }
}

/// FNV-1a over every file of the tree at `root` (paths and contents, in
/// sorted path order): equal trees hash equal.
pub fn tree_hash(root: &Path) -> io::Result<u64> {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> io::Result<()> {
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(&path, files)?;
            } else {
                files.push(path);
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    walk(root, &mut files)?;
    files.sort();
    let mut acc = Vec::with_capacity(files.len() * 24);
    for path in &files {
        let rel = path.strip_prefix(root).unwrap_or(path);
        acc.extend_from_slice(rel.to_string_lossy().as_bytes());
        acc.extend_from_slice(&lacnet_types::codec::fnv1a64(&fs::read(path)?).to_le_bytes());
    }
    Ok(lacnet_types::codec::fnv1a64(&acc))
}
