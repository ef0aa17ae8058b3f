//! Repository determinism lint.
//!
//! The reproduction's headline property is that the production engine
//! and its oracle replay the *identical* schedule — bit-identical cycle counts, stats and
//! output on every run, on every machine.  That property dies quietly
//! the first time schedule-order code iterates a `HashMap`, timestamps a
//! modeled event, or grows an unreviewed `unsafe` block.  This lint
//! walks the modeled crates (`crates/sim`, `crates/noc`) and rejects:
//!
//! - `HashMap` / `HashSet` — iteration order is randomized per process;
//!   use `Vec`, `BTreeMap` or index-keyed arenas in modeled code.
//! - `Instant::now` / `SystemTime` — wall-clock must never reach a
//!   modeled path; cycle counts are the only clock.
//! - `unsafe` — both crates also forbid it at compile time.
//!
//! Exemptions live in `tests/repo_lint_allowlist.txt` (`path token`
//! pairs) so every exception is visible in review.  The scan strips
//! `//` line comments and matches on word boundaries, so prose about
//! hash maps and the `#![forbid(unsafe_code)]` attribute token do not
//! trip it.

use std::fs;
use std::path::{Path, PathBuf};

/// Tokens that must not appear in modeled code.
const BANNED: [&str; 5] = ["HashMap", "HashSet", "Instant::now", "SystemTime", "unsafe"];

/// Crates whose sources are schedule-order (modeled) code.
const LINTED_ROOTS: [&str; 2] = ["crates/sim/src", "crates/noc/src"];

fn repo_root() -> PathBuf {
    // tests/ lives at the workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("linted directory exists") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `path token` pairs from the allowlist file; `#` starts a comment.
fn allowlist(root: &Path) -> Vec<(String, String)> {
    let text = fs::read_to_string(root.join("tests/repo_lint_allowlist.txt"))
        .expect("tests/repo_lint_allowlist.txt exists");
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (path, token) = l
                .split_once(' ')
                .expect("allowlist lines are `path token` pairs");
            (path.to_string(), token.trim().to_string())
        })
        .collect()
}

/// Strips `//` comments (doc comments included) from one line of code.
/// String literals are not parsed — none of the banned tokens appears in
/// a string in the linted crates, and a new one would fail visibly here
/// rather than silently pass.
fn strip_line_comment(line: &str) -> &str {
    match line.find("//") {
        Some(idx) => &line[..idx],
        None => line,
    }
}

/// Whether `token` occurs in `code` on word boundaries (so the `unsafe`
/// scan does not match the `unsafe_code` attribute token).
fn contains_token(code: &str, token: &str) -> bool {
    let is_word = |c: char| c.is_alphanumeric() || c == '_';
    let mut start = 0;
    while let Some(pos) = code[start..].find(token) {
        let at = start + pos;
        let before_ok = at == 0 || !code[..at].chars().next_back().is_some_and(is_word);
        let after = at + token.len();
        let after_ok = after >= code.len() || !code[after..].chars().next().is_some_and(is_word);
        if before_ok && after_ok {
            return true;
        }
        start = at + token.len();
    }
    false
}

#[test]
fn modeled_crates_stay_deterministic() {
    let root = repo_root();
    let allow = allowlist(&root);
    let mut files = Vec::new();
    for linted in LINTED_ROOTS {
        rust_sources(&root.join(linted), &mut files);
    }
    files.sort();
    assert!(
        files.len() >= 10,
        "lint walked only {} files — roots moved?",
        files.len()
    );

    let mut violations = Vec::new();
    for file in &files {
        let rel = file
            .strip_prefix(&root)
            .expect("file under repo root")
            .to_string_lossy()
            .replace('\\', "/");
        let text = fs::read_to_string(file).expect("source file is UTF-8");
        let mut block_comment = false;
        for (num, raw) in text.lines().enumerate() {
            // Cheap block-comment tracking: a line that opens `/*` without
            // closing it comments out following lines until `*/`.
            let mut line = strip_line_comment(raw).to_string();
            if block_comment {
                match line.find("*/") {
                    Some(end) => {
                        line = line[end + 2..].to_string();
                        block_comment = false;
                    }
                    None => continue,
                }
            }
            while let Some(open) = line.find("/*") {
                match line[open + 2..].find("*/") {
                    Some(close) => {
                        line = format!("{}{}", &line[..open], &line[open + 2 + close + 2..]);
                    }
                    None => {
                        line = line[..open].to_string();
                        block_comment = true;
                        break;
                    }
                }
            }
            for token in BANNED {
                if contains_token(&line, token)
                    && !allow.iter().any(|(p, t)| p == &rel && t == token)
                {
                    violations.push(format!("{rel}:{}: banned token `{token}`", num + 1));
                }
            }
        }
    }

    assert!(
        violations.is_empty(),
        "determinism lint failed — use ordered containers / cycle counts, or \
         justify an entry in tests/repo_lint_allowlist.txt:\n{}",
        violations.join("\n")
    );
}

#[test]
fn allowlist_entries_point_at_real_files() {
    let root = repo_root();
    for (path, token) in allowlist(&root) {
        assert!(
            root.join(&path).is_file(),
            "stale allowlist entry: {path} (token {token}) is not a file"
        );
        assert!(
            BANNED.contains(&token.as_str()),
            "allowlist entry for {path} names unknown token {token}"
        );
    }
}

#[test]
fn the_lint_matcher_respects_word_boundaries() {
    assert!(contains_token("let x = unsafe { y };", "unsafe"));
    assert!(!contains_token("#![deny(unsafe_code)]", "unsafe"));
    assert!(!contains_token("a_HashMap_like_name", "HashMap"));
    assert!(contains_token("use std::collections::HashMap;", "HashMap"));
    assert!(contains_token("Instant::now()", "Instant::now"));
    assert!(strip_line_comment("let a = 1; // unsafe note") == "let a = 1; ");
}
