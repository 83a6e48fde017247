//! The golden gate: every deterministic experiment's output, pinned
//! across commits.
//!
//! The paper's evaluation is a pure function of the code (DESIGN.md §2),
//! and so is every fleet scenario these bins replay in virtual time.
//! This test runs each of `reproduce`, `ablation`, `fleet`, `grid`,
//! `chaos`, `admission`, `capture` and `algorithms` twice, every run in
//! a fresh temporary working directory (so `reproduce`'s
//! `tuned_configurations.json` lands there, not in the tree), the six
//! fleet-layer bins with `--json report.json`. Both runs must equal the
//! committed files in `tests/golden/`:
//!
//! - `reproduce.txt` and `ablation.txt`: those two bins' stdout, as
//!   text, so a changed figure is a readable diff;
//! - `bins.json`: the byte count and 64-bit FNV-1a of every other file
//!   a run leaves — the six fleet-layer bins' stdout and report, and
//!   `reproduce`'s `tuned_configurations.json`.
//!
//! `observe`, `cluster` and `trace` are not pinned here: they bind a
//! port, spawn child processes or read the wall clock, and keep their
//! own CI jobs.
//!
//! An intended change regenerates the goldens, from the repo root:
//!
//! ```text
//! cargo build --release -p experiments
//! root=$PWD; tmp=$(mktemp -d)
//! for b in reproduce ablation; do
//!     (cd "$tmp" && "$root/target/release/$b") > "crates/experiments/tests/golden/$b.txt"
//! done
//! cargo test -p experiments --test golden   # a mismatch prints the new bins.json
//! ```

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::thread;

/// Every pinned bin, in the order `bins.json` lists their files.
const BINS: [(&str, &str); 8] = [
    ("reproduce", env!("CARGO_BIN_EXE_reproduce")),
    ("ablation", env!("CARGO_BIN_EXE_ablation")),
    ("fleet", env!("CARGO_BIN_EXE_fleet")),
    ("grid", env!("CARGO_BIN_EXE_grid")),
    ("chaos", env!("CARGO_BIN_EXE_chaos")),
    ("admission", env!("CARGO_BIN_EXE_admission")),
    ("capture", env!("CARGO_BIN_EXE_capture")),
    ("algorithms", env!("CARGO_BIN_EXE_algorithms")),
];

/// The bins whose stdout is pinned as text; the rest write `--json`.
const TEXT_BINS: [&str; 2] = ["reproduce", "ablation"];

/// What one run leaves, by name: `<bin>/stdout`, then every file the
/// run wrote in its working directory.
type Artifacts = Vec<(String, Vec<u8>)>;

/// A fresh working directory, removed when dropped.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("experiments-golden-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// One run of `bin` in a fresh directory.
fn run(bin: &str, exe: &str, tag: usize) -> Artifacts {
    let dir = TempDir::new(&format!("{bin}-{tag}"));
    let mut cmd = Command::new(exe);
    cmd.current_dir(&dir.0);
    if !TEXT_BINS.contains(&bin) {
        cmd.args(["--json", "report.json"]);
    }
    let out = cmd.output().unwrap();
    assert!(
        out.status.success(),
        "{bin} failed ({}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let mut files: Vec<_> = fs::read_dir(&dir.0)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    let mut artifacts = vec![(format!("{bin}/stdout"), out.stdout)];
    for file in files {
        let bytes = fs::read(dir.0.join(&file)).unwrap();
        artifacts.push((format!("{bin}/{file}"), bytes));
    }
    artifacts
}

fn golden(file: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Fails naming the first line where `actual` leaves the golden `file`.
fn assert_text_golden(file: &str, actual: &[u8]) {
    let expected = golden(file);
    let actual = std::str::from_utf8(actual).unwrap();
    if expected == actual {
        return;
    }
    let (old, new) = (expected.lines(), actual.lines());
    let line = old
        .clone()
        .zip(new.clone())
        .position(|(e, a)| e != a)
        .unwrap_or(old.clone().count().min(new.clone().count()));
    panic!(
        "{file} differs from the golden at line {}:\n  golden: {:?}\n  now:    {:?}\n\
         (an intended change regenerates it: see the module doc)",
        line + 1,
        expected.lines().nth(line),
        actual.lines().nth(line)
    );
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn every_deterministic_bin_matches_its_golden_twice() {
    // Both runs of every bin at once: sixteen children, no more.
    let runs: Vec<[Artifacts; 2]> = thread::scope(|s| {
        let handles: Vec<_> = BINS
            .iter()
            .map(|&(bin, exe)| [0, 1].map(|tag| s.spawn(move || run(bin, exe, tag))))
            .collect();
        handles
            .into_iter()
            .map(|pair| pair.map(|h| h.join().unwrap()))
            .collect()
    });

    let mut fingerprints = Vec::new();
    for ((bin, _), [first, second]) in BINS.iter().zip(&runs) {
        assert_eq!(
            first.len(),
            second.len(),
            "{bin}: two runs wrote different files"
        );
        for ((name, one), (other, two)) in first.iter().zip(second) {
            assert!(name == other && one == two, "{name}: two runs differ");
            if TEXT_BINS.contains(bin) && name.ends_with("/stdout") {
                assert_text_golden(&format!("{bin}.txt"), one);
            } else {
                fingerprints.push(format!(
                    "  \"{name}\": {{ \"bytes\": {}, \"fnv1a64\": \"{:016x}\" }}",
                    one.len(),
                    fnv1a64(one)
                ));
            }
        }
    }
    let now = format!("{{\n{}\n}}\n", fingerprints.join(",\n"));
    assert!(
        golden("bins.json") == now,
        "tests/golden/bins.json differs from this tree's output; if the change is \
         intended, this is the replacement:\n{now}"
    );
}

#[test]
fn reproduce_fails_when_it_cannot_write_the_tuned_db() {
    let dir = TempDir::new("unwritable-db");
    let out = Command::new(BINS[0].1)
        .current_dir(&dir.0)
        .env("DEDISP_TUNED_DB", dir.0.join("missing/tuned.json"))
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "reproduce lost its tuned-tuple database and still exited 0:\n{stderr}"
    );
    assert!(stderr.contains("could not write"), "{stderr}");
}
