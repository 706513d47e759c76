//! Every workload runs in a child process under a hard deadline. A child
//! that overruns is killed together with everything it forked, its
//! segment files are removed, and the ops it never finished are reported
//! as failed — a liveness bug in a runtime costs one result, never a hang.

use std::io::{BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Lines a child writes on stdout.
pub const PLAN: &str = "@plan ";
pub const DONE: &str = "@done ";
pub const RESULT: &str = "@result ";

/// Where a run keeps what it writes: under the build's target directory
/// (the binary's grandparent), so inside the checkout and never committed.
pub struct Dirs {
    /// Segment files of `ProcCluster` (`BGP_SHM_DIR`).
    pub shm: PathBuf,
    /// Trace artifacts and results files.
    pub out: PathBuf,
}

impl Dirs {
    pub fn locate() -> std::io::Result<Dirs> {
        let exe = std::env::current_exe()?;
        let target = exe
            .parent()
            .and_then(Path::parent)
            .ok_or_else(|| std::io::Error::other("binary has no target directory"))?;
        let dirs = Dirs {
            shm: target.join("bgp-bench-shm"),
            out: target.join("bgp-bench-out"),
        };
        std::fs::create_dir_all(&dirs.shm)?;
        std::fs::create_dir_all(&dirs.out)?;
        Ok(dirs)
    }

    /// Remove segment files a killed child left behind.
    pub fn sweep_segments(&self) {
        let Ok(entries) = std::fs::read_dir(&self.shm) else {
            return;
        };
        for e in entries.flatten() {
            let name = e.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("bgp-proc-") && name.ends_with(".seg") {
                let _ = std::fs::remove_file(e.path());
            }
        }
    }
}

/// How a child ended.
#[derive(Debug)]
pub enum ChildEnd {
    /// It printed its result line and exited 0.
    Result(String),
    /// It exited (or was killed by something else) without a result.
    Died {
        planned: u64,
        done: u64,
        status: String,
    },
    /// The deadline passed; it and its process group were killed.
    TimedOut { planned: u64, done: u64 },
}

extern "C" {
    /// `kill(2)` from the C library std already links.
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGKILL: i32 = 9;

/// Kill process group `pgid` and wait until no member is left (bounded).
fn kill_group(pgid: i32) {
    // SAFETY: plain syscalls on a process group this process created; a
    // negative pid addresses the group, signal 0 only probes for members.
    unsafe {
        kill(-pgid, SIGKILL);
        let give_up = Instant::now() + Duration::from_secs(5);
        while kill(-pgid, 0) == 0 && Instant::now() < give_up {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// Run this binary again with `args` as a child in its own process group,
/// until it ends or `deadline` passes.
pub fn run_child(args: &[String], deadline: Duration, dirs: &Dirs) -> std::io::Result<ChildEnd> {
    let mut child = Command::new(std::env::current_exe()?)
        .args(args)
        .env("BGP_SHM_DIR", &dirs.shm)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .process_group(0)
        .spawn()?;
    let pgid = child.id() as i32;
    let stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = mpsc::channel::<String>();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if tx.send(line).is_err() {
                break;
            }
        }
    });

    let start = Instant::now();
    let (mut planned, mut done) = (0u64, 0u64);
    let mut result = None;
    let timed_out = loop {
        let left = deadline.saturating_sub(start.elapsed());
        match rx.recv_timeout(left) {
            Ok(line) => {
                if let Some(n) = line.strip_prefix(PLAN) {
                    planned = n.trim().parse().unwrap_or(0);
                } else if let Some(n) = line.strip_prefix(DONE) {
                    done = n.trim().parse().unwrap_or(done);
                } else if let Some(json) = line.strip_prefix(RESULT) {
                    result = Some(json.to_string());
                }
            }
            // The child closed stdout: it has exited or is about to.
            Err(mpsc::RecvTimeoutError::Disconnected) => break false,
            Err(mpsc::RecvTimeoutError::Timeout) => break true,
        }
    };
    if timed_out {
        kill_group(pgid);
    }
    let status = child.wait()?;
    // Forked workers outlive a child that died on its own; none may
    // outlive this call.
    kill_group(pgid);
    let _ = reader.join();
    dirs.sweep_segments();
    Ok(match (timed_out, result) {
        (true, _) => ChildEnd::TimedOut { planned, done },
        (false, Some(json)) if status.success() => ChildEnd::Result(json),
        (false, _) => ChildEnd::Died {
            planned,
            done,
            status: status.to_string(),
        },
    })
}
