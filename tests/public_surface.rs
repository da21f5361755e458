//! Keeps the workspace's public surface from growing names nothing
//! calls: the public-name census as a tier-1 budget.
//!
//! A candidate is every name declared `pub fn|struct|enum|trait|const|
//! type|static` at the start of a line under `crates/*/src`. It is
//! *uncalled* when no other `.rs` file of the repository names it as a
//! whole identifier token — not its own file, not its crate's `lib.rs`
//! (which only re-exports), and not this file; `target/` and hidden
//! directories are skipped. `benchmark/`, `examples/` and `tests/` count
//! as callers. The uncalled names at the last cut are listed in
//! `public_surface.txt` beside this file; the count may fall, never
//! rise. A failure prints the names that are not on that list: make
//! each private, delete it, or call it.
//!
//! Reads the sources as text, so a name that is also a common word
//! elsewhere never shows: every name listed is unused outside its own
//! file, but not every such name is listed.

use std::collections::{BTreeSet, HashSet};
use std::fs;
use std::path::Path;

/// Every `.rs` file under `dir`, as a path relative to `root` with `/`
/// separators, paired with its text.
fn rust_files(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            rust_files(root, &path, out);
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).unwrap();
            let rel: Vec<_> = rel.iter().map(|part| part.to_string_lossy()).collect();
            out.push((rel.join("/"), fs::read_to_string(&path).unwrap()));
        }
    }
}

/// The name a line declares public, if it does: `pub`, then optionally
/// `const` and `unsafe`, then the item keyword and the identifier.
fn declared(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let qualified = rest.strip_prefix("const ").unwrap_or(rest);
    let qualified = qualified.strip_prefix("unsafe ").unwrap_or(qualified);
    [qualified, rest].into_iter().find_map(|rest| {
        let keywords = ["fn", "struct", "enum", "trait", "const", "type", "static"];
        let (keyword, tail) = rest.split_once(' ')?;
        if !keywords.contains(&keyword) {
            return None;
        }
        let end = tail
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(tail.len());
        let ident = &tail[..end];
        ident
            .starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
            .then_some(ident)
    })
}

/// The whole identifier tokens of a text.
fn tokens(text: &str) -> HashSet<&str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|t| !t.is_empty())
        .collect()
}

#[test]
fn uncalled_public_names_stay_within_budget() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(root, root, &mut files);
    assert!(files.len() > 100, "found only {} sources", files.len());
    let this = "tests/public_surface.rs";
    let words: Vec<(&str, HashSet<&str>)> = files
        .iter()
        .filter(|(rel, _)| rel != this)
        .map(|(rel, text)| (rel.as_str(), tokens(text)))
        .collect();

    let mut candidates = BTreeSet::new();
    for (rel, text) in &files {
        if rel.starts_with("crates/") && rel.contains("/src/") {
            candidates.extend(text.lines().filter_map(declared).map(|n| (n, rel)));
        }
    }
    let uncalled: Vec<String> = candidates
        .into_iter()
        .filter(|&(name, rel)| {
            let lib = format!("{}/src/lib.rs", &rel[..rel.find("/src/").unwrap()]);
            !words
                .iter()
                .any(|(other, toks)| *other != rel && *other != lib && toks.contains(name))
        })
        .map(|(name, rel)| format!("{name} {rel}"))
        .collect();

    let listed = include_str!("public_surface.txt");
    let listed: BTreeSet<&str> = listed.lines().filter(|l| !l.is_empty()).collect();
    let new: Vec<&String> = uncalled
        .iter()
        .filter(|n| !listed.contains(n.as_str()))
        .collect();
    assert!(
        uncalled.len() <= listed.len(),
        "{} public names are called by no other file, budget {}; not on the list: {new:#?}",
        uncalled.len(),
        listed.len()
    );
}
