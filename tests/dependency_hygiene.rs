//! Every `[dependencies]` entry of the workspace's packages is used:
//! a dependency `a-b` must appear as the identifier `a_b` somewhere in
//! the declaring package's `src/`. One that only tests use belongs in
//! `[dev-dependencies]`; one nothing uses goes.

use std::fs;
use std::path::{Path, PathBuf};

/// The package directories checked: the facade (the repository root)
/// and every crate under `crates/`.
fn packages() -> Vec<PathBuf> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut dirs = vec![root.clone()];
    for entry in fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let dir = entry.expect("crates/ entry").path();
        if dir.join("Cargo.toml").is_file() {
            dirs.push(dir);
        }
    }
    dirs.sort();
    dirs
}

/// Names declared in the manifest's `[dependencies]` table.
fn dependencies(manifest: &str) -> Vec<String> {
    let mut in_table = false;
    let mut names = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_table = line == "[dependencies]";
        } else if in_table && !line.is_empty() && !line.starts_with('#') {
            let end = line.find(['.', '=', ' ']).unwrap_or(line.len());
            names.push(line[..end].to_string());
        }
    }
    names
}

/// The Rust sources under `dir`, skipping nested packages (a directory
/// with a `Cargo.toml` of its own declares its own dependencies).
fn sources(dir: &Path, out: &mut String) {
    for entry in fs::read_dir(dir).expect("source directory is readable") {
        let path = entry.expect("source entry").path();
        if path.is_dir() {
            if !path.join("Cargo.toml").exists() {
                sources(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push_str(&fs::read_to_string(&path).expect("source is UTF-8"));
            out.push('\n');
        }
    }
}

/// `ident` occurs in `text` as a whole identifier.
fn names_ident(text: &str, ident: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(ident).any(|(i, _)| {
        let before = text[..i].chars().next_back();
        let after = text[i + ident.len()..].chars().next();
        !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
    })
}

#[test]
fn every_declared_dependency_is_used_by_its_sources() {
    let mut unused = Vec::new();
    for dir in packages() {
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("manifest");
        let mut src = String::new();
        sources(&dir.join("src"), &mut src);
        for dep in dependencies(&manifest) {
            if !names_ident(&src, &dep.replace('-', "_")) {
                unused.push(format!("{}: {dep}", dir.display()));
            }
        }
    }
    assert!(
        unused.is_empty(),
        "declared in [dependencies] but never named in src/:\n  {}",
        unused.join("\n  ")
    );
}

#[test]
fn the_manifest_reader_sees_only_the_dependencies_table() {
    let manifest = "[package]\nname = \"x\"\n\n[dependencies]\n# a comment\n\
                    automon-core.workspace = true\nserde = { path = \"s\" }\n\n\
                    [dev-dependencies]\nproptest.workspace = true\n";
    assert_eq!(dependencies(manifest), ["automon-core", "serde"]);
    assert!(names_ident("use serde::Serialize;", "serde"));
    assert!(!names_ident("use serde_json::Value;", "serde"));
    assert!(!names_ident("let rand_x = 1;", "rand"));
}
