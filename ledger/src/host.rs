//! What the harness reads from the host: CPU time, peak memory, the
//! machine facts a report records, and the scratch directory.

use cmg_obs::Json;
use std::path::{Path, PathBuf};

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`,
/// fixed at 100 on every Linux ABI).
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds consumed so far by this process (all threads, exited
/// ones included) and by the children it has reaped — the net engine's
/// worker processes once a run has collected them.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CpuClock {
    /// User-mode seconds.
    pub user_s: f64,
    /// Kernel-mode seconds.
    pub sys_s: f64,
}

impl CpuClock {
    /// Reads `/proc/self/stat`; all zeros where that file does not exist.
    pub fn now() -> CpuClock {
        std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| parse_stat(&s))
            .unwrap_or_default()
    }

    /// User plus kernel seconds.
    pub fn total_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// Seconds consumed since `earlier`.
    pub fn since(&self, earlier: &CpuClock) -> CpuClock {
        CpuClock {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// `utime + cutime` and `stime + cstime` of one `/proc/<pid>/stat` line.
fn parse_stat(line: &str) -> Option<CpuClock> {
    // The command name (field 2) may hold spaces and parentheses; the
    // numeric fields start after its closing parenthesis, at field 3.
    let rest = &line[line.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |field_no: usize| fields.get(field_no - 3)?.parse::<f64>().ok();
    Some(CpuClock {
        user_s: (tick(14)? + tick(16)?) / TICKS_PER_S,
        sys_s: (tick(15)? + tick(17)?) / TICKS_PER_S,
    })
}

/// Peak resident set of this process in MiB (`VmHWM`) since it started;
/// worker processes of the net engine are separate processes and are
/// not included.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Machine facts recorded with every report.
pub fn machine_facts() -> Json {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map(|s| s.trim().to_string())
            .unwrap_or_default()
    };
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default();
    Json::obj(vec![
        (
            "nproc",
            Json::UInt(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("kernel", Json::Str(read("/proc/sys/kernel/osrelease"))),
        ("rustc", Json::Str(rustc)),
        (
            "worker_binary",
            Json::Str(
                std::env::current_exe()
                    .map(|p| p.display().to_string())
                    .unwrap_or_default(),
            ),
        ),
    ])
}

/// The harness's scratch directory, relative to the working directory
/// so that everything written stays inside the checkout and Unix
/// socket paths stay short.
pub const SCRATCH_ROOT: &str = ".ledger_tmp";

/// A per-process directory under [`SCRATCH_ROOT`], removed on drop.
/// While it lives, `TMPDIR` points at it, which is where the net
/// engine (and the workers it spawns, which inherit the variable) put
/// their socket directories.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Creates the directory and points `TMPDIR` at it. Call before any
    /// thread is started: the environment is process-global.
    pub fn create() -> std::io::Result<Scratch> {
        let dir = Path::new(SCRATCH_ROOT).join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        std::env::set_var("TMPDIR", &dir);
        Ok(Scratch { dir })
    }

    /// A path inside the directory.
    pub fn path(&self, file: &str) -> PathBuf {
        self.dir.join(file)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_awkward_command_name_parses() {
        let line = "42 (a b) c) S 1 42 42 0 -1 4194560 100 200 0 0 \
                    150 25 50 75 20 0 3 0 1000 1 2";
        let c = parse_stat(line).expect("parses");
        assert_eq!(c.user_s, 2.0);
        assert_eq!(c.sys_s, 1.0);
        assert_eq!(c.total_s(), 3.0);
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn cpu_clock_differences() {
        let a = CpuClock {
            user_s: 1.0,
            sys_s: 0.5,
        };
        let b = CpuClock {
            user_s: 1.75,
            sys_s: 0.75,
        };
        assert_eq!(
            b.since(&a),
            CpuClock {
                user_s: 0.75,
                sys_s: 0.25
            }
        );
    }
}
