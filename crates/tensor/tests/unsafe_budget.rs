//! Keeps the workspace's `unsafe` where it is: two sites, both in this
//! crate — the lifetime erasure in `pool::run` and the row segment in
//! `kernel::routine::SlabMut::row`. A third site, an `unsafe fn` or
//! `unsafe impl`, or a crate that drops its `forbid`, fails the tier-1
//! line here rather than waiting for a reviewer to notice.
//!
//! Reads the sources as text (`//` comments stripped), so it sees code
//! behind every `cfg` too.

use std::fs;
use std::path::{Path, PathBuf};

/// Crates that allow no `unsafe` at all.
const FORBID: [&str; 9] = [
    "core", "dropback", "nn", "prng", "quantile", "search", "serve", "sim", "sparse",
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The file's code: every line cut at its first `//`.
fn code_of(path: &Path) -> String {
    let text = fs::read_to_string(path).unwrap();
    let lines = text.lines().map(|l| l.split("//").next().unwrap_or(""));
    lines.collect::<Vec<_>>().join("\n")
}

/// Occurrences of `unsafe` as a word of its own (`unsafe_code` is not).
fn unsafe_keywords(code: &str) -> usize {
    let word = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices("unsafe")
        .filter(|&(at, hit)| {
            !code[..at].ends_with(word) && !code[at + hit.len()..].starts_with(word)
        })
        .count()
}

#[test]
fn unsafe_stays_in_the_pool_and_the_slab_view() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let mut sources = Vec::new();
    for entry in fs::read_dir(crates).unwrap() {
        let src = entry.unwrap().path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut sources);
        }
    }
    assert!(sources.len() > 50, "found only {} sources", sources.len());

    let mut allowed = Vec::new();
    for path in &sources {
        let code = code_of(path);
        let name = path.strip_prefix(crates).unwrap().display().to_string();
        for form in ["unsafe fn", "unsafe impl", "unsafe trait", "unsafe extern"] {
            assert!(!code.contains(form), "{name} has an `{form}`");
        }
        let allows = code.matches("#[allow(unsafe_code)]").count();
        assert!(!code.contains("#![allow(unsafe_code)]"), "{name}");
        assert_eq!(
            unsafe_keywords(&code),
            allows,
            "{name}: one `unsafe` block under each `#[allow(unsafe_code)]`, none elsewhere"
        );
        allowed.extend(std::iter::repeat_n(name, allows));
    }
    allowed.sort();
    assert_eq!(
        allowed,
        ["tensor/src/kernel/routine.rs", "tensor/src/pool.rs"],
        "the unsafe budget is two sites; see the comment above `deny` in tensor/src/lib.rs"
    );

    let row = code_of(&crates.join("tensor/src/kernel/routine.rs"));
    let site = row.find("#[allow(unsafe_code)]").unwrap();
    let next_fn = row[site..].find("fn ").unwrap();
    assert!(
        row[site + next_fn..].starts_with("fn row("),
        "the view's allowance belongs to `SlabMut::row`"
    );

    for name in FORBID {
        let root = code_of(&crates.join(name).join("src/lib.rs"));
        assert!(root.contains("#![forbid(unsafe_code)]"), "{name}");
    }
    let tensor = code_of(&crates.join("tensor/src/lib.rs"));
    assert!(tensor.contains("#![deny(unsafe_code)]"));
}
