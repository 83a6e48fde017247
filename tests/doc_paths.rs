//! The docs cite only source files and targets that exist: every
//! back-ticked token in README.md and DESIGN.md that contains a `/` and
//! ends in `.rs` must name a file in the tree, matched as a path suffix
//! (so `bench/benches/telemetry.rs` finds
//! `crates/bench/benches/telemetry.rs`), and every `--bin <name>` and
//! `--example <name>`, fenced blocks included, must name a
//! `src/bin/<name>.rs` or `examples/<name>.rs`. EXPERIMENTS.md is a log
//! of past runs and is not checked.

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

/// Every `.rs` file in the tree, relative to the repo root.
fn tree() -> Vec<String> {
    let mut files = Vec::new();
    rust_files(Path::new(env!("CARGO_MANIFEST_DIR")), "", &mut files);
    files
}

fn read_doc(name: &str) -> String {
    fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(name)).unwrap()
}

#[test]
fn every_cited_source_file_exists() {
    let files = tree();
    let mut missing = Vec::new();
    let mut checked = 0;
    for doc in ["README.md", "DESIGN.md"] {
        let text = read_doc(doc);
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

/// The targets `flag` names in `text`, with their lines: `flag name`,
/// `flag=name`, and `flag {a, b}` (a brace list may wrap lines). A flag
/// followed by anything else names nothing.
fn targets(text: &str, flag: &str) -> Vec<(usize, String)> {
    let mut found = Vec::new();
    for (at, _) in text.match_indices(flag) {
        let rest = &text[at + flag.len()..];
        if !rest.starts_with([' ', '=']) {
            continue;
        }
        let rest = rest.trim_start_matches([' ', '=']);
        let names: Vec<&str> = match rest.strip_prefix('{') {
            Some(list) => list.split('}').next().unwrap().split(',').collect(),
            None => vec![rest],
        };
        let line = 1 + text[..at].matches('\n').count();
        for name in names.into_iter().map(str::trim) {
            let end = name
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-'))
                .unwrap_or(name.len());
            if end > 0 {
                found.push((line, name[..end].to_string()));
            }
        }
    }
    found
}

#[test]
fn every_named_bin_and_example_exists() {
    let files = tree();
    let mut missing = Vec::new();
    let mut checked = 0;
    for doc in ["README.md", "DESIGN.md"] {
        let text = read_doc(doc);
        for (flag, dir) in [("--bin", "src/bin"), ("--example", "examples")] {
            for (line, name) in targets(&text, flag) {
                checked += 1;
                let path = format!("{dir}/{name}.rs");
                let suffix = format!("/{path}");
                if !files.iter().any(|f| *f == path || f.ends_with(&suffix)) {
                    missing.push(format!("{doc}:{line} `{flag} {name}`"));
                }
            }
        }
    }
    println!("{checked} targets checked");
    assert!(checked > 0, "no targets found; the scan is broken");
    assert!(
        missing.is_empty(),
        "named targets that are not in the tree:\n{}",
        missing.join("\n")
    );
}
