//! Every file `README.md` names must exist: each backticked path ending
//! in `.rs`, `.json`, `.toml` or `.yml` has to match an existing file of
//! the repository as a path suffix (`optimizer.rs`, `bridge/src/compile.rs`
//! and `crates/bridge/src/compile.rs` all name the same file).
//!
//! Braces expand (`tests/{chaos,props}.rs` names two files) and `*`
//! matches within one path component (`BENCH_*.json` must match at least
//! one file). Two forms are skipped on purpose: a `<placeholder>`
//! (`BENCH_<pr>.json`), and a git object name `<rev>:<path>`
//! (`0474e50^:BENCH_24.json`), which is how the README cites a file that
//! only git history still holds.

use std::fs;
use std::path::Path;

const EXTENSIONS: [&str; 4] = [".rs", ".json", ".toml", ".yml"];

/// Repository-relative paths of every file, `/`-separated, skipping build
/// output and the git directory.
fn repo_files(root: &Path, dir: &Path, out: &mut Vec<String>) {
    for entry in fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().unwrap().to_string_lossy();
        if path.is_dir() {
            if name != "target" && name != ".git" {
                repo_files(root, &path, out);
            }
        } else {
            let rel = path.strip_prefix(root).unwrap();
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
}

/// Backticked spans of `text` that look like a file path.
fn named_paths(text: &str) -> Vec<&str> {
    text.split('`')
        .skip(1)
        .step_by(2)
        .filter(|span| !span.contains(char::is_whitespace))
        .filter(|span| EXTENSIONS.iter().any(|ext| span.ends_with(ext)))
        .collect()
}

/// `a/{b,c}.rs` → `a/b.rs`, `a/c.rs` (one brace group at a time).
fn expand_braces(path: &str) -> Vec<String> {
    let (Some(open), Some(close)) = (path.find('{'), path.find('}')) else {
        return vec![path.to_string()];
    };
    path[open + 1..close]
        .split(',')
        .flat_map(|alt| expand_braces(&format!("{}{alt}{}", &path[..open], &path[close + 1..])))
        .collect()
}

/// Whether `pattern` matches `text`, `*` standing for any run of
/// characters other than `/`.
fn glob_match(pattern: &str, text: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == text,
        Some((head, tail)) => {
            let Some(rest) = text.strip_prefix(head) else {
                return false;
            };
            rest.char_indices()
                .take_while(|&(_, c)| c != '/')
                .map(|(i, _)| i)
                .chain(std::iter::once(rest.find('/').unwrap_or(rest.len())))
                .any(|i| glob_match(tail, &rest[i..]))
        }
    }
}

/// Whether `pattern` names `file` as a whole-component path suffix.
fn names(pattern: &str, file: &str) -> bool {
    let depth = pattern.split('/').count();
    let parts: Vec<&str> = file.split('/').collect();
    parts.len() >= depth && glob_match(pattern, &parts[parts.len() - depth..].join("/"))
}

#[test]
fn every_path_the_readme_names_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = fs::read_to_string(root.join("README.md")).expect("README.md");
    let mut files = Vec::new();
    repo_files(root, root, &mut files);
    let mut checked = 0;
    let mut missing = Vec::new();
    for span in named_paths(&readme) {
        if span.contains('<') || span.contains(':') {
            continue;
        }
        for path in expand_braces(span) {
            checked += 1;
            if !files.iter().any(|f| names(&path, f)) {
                missing.push(path);
            }
        }
    }
    assert!(checked > 0, "the README names no file paths");
    assert!(
        missing.is_empty(),
        "README.md names files that do not exist: {missing:?}"
    );
}

#[test]
fn path_matching_follows_components_braces_and_globs() {
    assert_eq!(
        expand_braces("tests/{chaos,props}.rs"),
        ["tests/chaos.rs", "tests/props.rs"]
    );
    assert!(names("compile.rs", "crates/bridge/src/compile.rs"));
    assert!(names(
        "bridge/src/compile.rs",
        "crates/bridge/src/compile.rs"
    ));
    assert!(!names("ile.rs", "crates/bridge/src/compile.rs"));
    assert!(names(
        "crates/*/tests/props.rs",
        "crates/core/tests/props.rs"
    ));
    assert!(!names("crates/*/props.rs", "crates/core/tests/props.rs"));
    assert!(names("BENCH_*.json", "BENCH_25.json"));
    assert!(!names("BENCH_*.json", "BENCHMARK.json"));
    assert_eq!(named_paths("see `a.rs` and `b c.rs`, not `d.md`"), ["a.rs"]);
}
