//! Scriptable report output for the experiment binaries.
//!
//! Every fleet-layer binary (`fleet`, `grid`, `chaos`, `admission`,
//! `capture`, `cluster`, `observe`, `algorithms`, `trace`) accepts
//! `--json <path>` (or `--json=<path>`) and writes its machine-readable
//! report there, so runs are scriptable without scraping stdout:
//!
//! ```text
//! cargo run --release -p experiments --bin chaos -- --json chaos.json
//! ```
//!
//! The stdout text output is unchanged either way (`tests/golden.rs`
//! pins it byte for byte), apart from a one-line note naming the
//! written file.

use serde::Serialize;
use std::path::PathBuf;

/// Parses `--json <path>` / `--json=<path>` out of the process
/// arguments; `None` when the flag is absent.
///
/// # Panics
///
/// Panics (with a usage message) if `--json` is given without a path —
/// the binaries are self-asserting harnesses, and a silently dropped
/// report would defeat the flag's purpose.
pub fn json_path() -> Option<PathBuf> {
    json_path_from(std::env::args().skip(1))
}

/// [`json_path`] over an explicit argument list (testable core).
pub fn json_path_from(args: impl IntoIterator<Item = String>) -> Option<PathBuf> {
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if let Some(path) = arg.strip_prefix("--json=") {
            return Some(PathBuf::from(path));
        }
        if arg == "--json" {
            let path = args.next().expect("--json requires a path argument");
            return Some(PathBuf::from(path));
        }
    }
    None
}

/// Writes `report` as pretty JSON to the `--json` path, if one was
/// given, and prints a one-line note saying so.
///
/// # Panics
///
/// Panics if serialization or the write fails — these binaries
/// self-assert, and a lost report must be loud.
pub fn write_json_report<T: Serialize + ?Sized>(report: &T) {
    if let Some(path) = json_path() {
        let json = serde_json::to_string_pretty(report).expect("report serializes");
        std::fs::write(&path, json)
            .unwrap_or_else(|e| panic!("failed to write --json report to {}: {e}", path.display()));
        println!("\nwrote JSON report to {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn json_flag_parses_both_spellings_and_absence() {
        assert_eq!(json_path_from(strings(&[])), None);
        assert_eq!(json_path_from(strings(&["--verbose"])), None);
        assert_eq!(
            json_path_from(strings(&["--json", "out.json"])),
            Some(PathBuf::from("out.json"))
        );
        assert_eq!(
            json_path_from(strings(&["x", "--json=r/report.json"])),
            Some(PathBuf::from("r/report.json"))
        );
    }

    #[test]
    #[should_panic(expected = "--json requires a path")]
    fn json_flag_without_a_path_is_loud() {
        let _ = json_path_from(strings(&["--json"]));
    }
}
