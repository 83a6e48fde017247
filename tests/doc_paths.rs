//! The docs cite only source files that exist: every back-ticked token
//! in README.md and DESIGN.md that contains a `/` and ends in `.rs` must
//! name a file in the tree, matched as a path suffix (so
//! `bench/benches/telemetry.rs` finds `crates/bench/benches/telemetry.rs`).
//! EXPERIMENTS.md is a log of past runs and is not checked.

use std::fs;
use std::path::Path;

/// Every `.rs` file under `dir`, `/`-joined and relative to the root,
/// skipping build output and version control.
fn rust_files(dir: &Path, prefix: &str, out: &mut Vec<String>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let file = path.file_name().unwrap().to_string_lossy();
        let name = format!("{prefix}{file}");
        if path.is_dir() && file != "target" && file != ".git" {
            rust_files(&path, &format!("{name}/"), out);
        } else if name.ends_with(".rs") {
            out.push(name);
        }
    }
}

#[test]
fn every_cited_source_file_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(root, "", &mut files);
    let mut missing = Vec::new();
    let mut checked = 0;
    for doc in ["README.md", "DESIGN.md"] {
        let text = fs::read_to_string(root.join(doc)).unwrap();
        // Blank the fenced blocks, keeping the line count.
        let mut prose = String::new();
        let mut fenced = false;
        for line in text.lines() {
            let fence = line.trim_start().starts_with("```");
            fenced ^= fence;
            if !fenced && !fence {
                prose.push_str(line);
            }
            prose.push('\n');
        }
        // Inline code spans are the odd pieces between back-ticks.
        let mut line = 1;
        for (i, token) in prose.split('`').enumerate() {
            if i % 2 == 1 && token.contains('/') && token.ends_with(".rs") {
                checked += 1;
                let suffix = format!("/{token}");
                if !files.iter().any(|f| f == token || f.ends_with(&suffix)) {
                    missing.push(format!("{doc}:{line} `{token}`"));
                }
            }
            line += token.matches('\n').count();
        }
    }
    println!("{checked} citations checked");
    assert!(checked > 0, "no citations found; the scan is broken");
    assert!(
        missing.is_empty(),
        "cited files that are not in the tree:\n{}",
        missing.join("\n")
    );
}
