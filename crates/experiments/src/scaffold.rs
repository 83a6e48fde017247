//! Scaffolding the fleet-layer binaries share: the paper's measured
//! device rate, section headlines, a pacing observer, an asserting
//! HTTP probe, and both halves of a process-backed shard conversation.

use dedisp_fleet::obs;
use dedisp_fleet::proc::serve_stdio;
use dedisp_fleet::{GridObserver, ProcConfig, TickBatch};
use std::net::SocketAddr;
use std::time::Duration;

/// The paper's measured HD7970 time for one 2,000-DM beam-second
/// (Section V-D: "0.106 seconds to dedisperse one second of data").
pub const MEASURED_SECONDS_PER_BEAM: f64 = 0.106;

/// Prints a scenario's section heading.
pub fn headline(title: &str) {
    println!("\n=== {title} ===");
}

/// A pacing observer: sleeps `pace` of real time per event so a run —
/// which otherwise finishes in milliseconds of wall clock — stays alive
/// long enough for mid-run polls to mean something. Pacing real time
/// never touches virtual time, so ledgers are unchanged.
pub struct Throttle {
    /// Real time slept per event.
    pub pace: Duration,
}

impl GridObserver for Throttle {
    fn observe_grid_batch(&self, _shard: Option<usize>, batch: &TickBatch) {
        for _ in 0..batch.len() {
            std::thread::sleep(self.pace);
        }
    }
}

/// `GET path` from the operator plane at `addr`, asserting a 200.
///
/// # Panics
///
/// Panics if the request fails or answers anything but 200.
pub fn get_ok(addr: SocketAddr, path: &str) -> obs::Fetched {
    let fetched = obs::get(addr, path).unwrap_or_else(|e| panic!("GET {path} failed: {e}"));
    assert_eq!(fetched.status, 200, "GET {path} must answer 200");
    fetched
}

/// The child half: serve one shard conversation over stdio. Chaos
/// and tracing arrive inside the spec the supervisor sends.
///
/// # Panics
///
/// Panics if the conversation fails.
pub fn run_child() {
    serve_stdio().expect("child shard conversation failed");
}

/// The supervisor config: the running binary, re-executed with
/// `--child`.
///
/// # Panics
///
/// Panics if the running binary's path cannot be resolved.
pub fn child_config() -> ProcConfig {
    ProcConfig::current_exe()
        .expect("the running binary resolves")
        .arg("--child")
}
