//! The rank-worker executable: one OS process running one rank of a
//! net-engine run. Spawned by the supervisor as
//! `cmg-net-worker <sock_dir> <rank>`; everything else — the partition
//! slice, the task, the run options — arrives over the socket.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args_os().skip(1);
    let (Some(dir), Some(rank)) = (args.next(), args.next()) else {
        eprintln!("usage: cmg-net-worker <sock_dir> <rank>");
        return ExitCode::from(2);
    };
    let rank = match rank.to_string_lossy().parse::<u32>() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cmg-net-worker: rank must be a number: {e}");
            return ExitCode::from(2);
        }
    };
    match cmg_net::worker_main(&PathBuf::from(dir), rank) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cmg-net-worker rank {rank}: {e}");
            ExitCode::FAILURE
        }
    }
}
