//! The mutant catalogue still applies to the tree.
//!
//! `tests/mutants/catalogue.txt` lists source-level mutants, each with the
//! test that must fail once it is applied; `scripts/mutants.py` applies them
//! one at a time and runs those tests, which takes a rebuild per mutant. This
//! check takes no build: every entry's id is unique, its file exists, its
//! `old` text occurs there exactly once, its `new` text differs, and the test
//! it names exists. A refactor that moves mutated code fails here on every
//! run, not only in the slow job.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

/// One catalogue entry, parsed the way `scripts/mutants.py` parses it.
#[derive(Debug, Default)]
struct Mutant {
    id: String,
    file: String,
    test: String,
    old: String,
    new: String,
}

/// Entries start at `== <id>` lines; `old:` opens the text to replace and
/// `new:` its replacement, which runs to the next entry, trailing blank lines
/// dropped. Anything above the first entry is commentary.
fn parse(text: &str) -> Vec<Mutant> {
    let mut entries: Vec<Mutant> = Vec::new();
    let mut block: Option<Vec<&str>> = None;
    let mut in_old = false;
    let finish = |entry: &mut Mutant, lines: Vec<&str>, in_old: bool| {
        let mut lines = lines;
        while lines.last() == Some(&"") {
            lines.pop();
        }
        if in_old {
            entry.old = lines.join("\n");
        } else {
            entry.new = lines.join("\n");
        }
    };
    for line in text.lines() {
        if let Some(id) = line.strip_prefix("== ") {
            if let (Some(entry), Some(lines)) = (entries.last_mut(), block.take()) {
                finish(entry, lines, in_old);
            }
            entries.push(Mutant { id: id.trim().to_string(), ..Mutant::default() });
            continue;
        }
        let Some(entry) = entries.last_mut() else { continue };
        if line == "old:" || line == "new:" {
            if let Some(lines) = block.take() {
                finish(entry, lines, in_old);
            }
            in_old = line == "old:";
            block = Some(Vec::new());
        } else if let Some(lines) = block.as_mut() {
            lines.push(line);
        } else if let Some(file) = line.strip_prefix("file:") {
            entry.file = file.trim().to_string();
        } else if let Some(test) = line.strip_prefix("test:") {
            entry.test = test.trim().to_string();
        }
    }
    if let (Some(entry), Some(lines)) = (entries.last_mut(), block) {
        finish(entry, lines, in_old);
    }
    entries
}

/// The directory of the workspace package named `package`.
fn package_dir(root: &Path, package: &str) -> Option<PathBuf> {
    if package == "ddpolice" {
        return Some(root.to_path_buf());
    }
    let parents = [root.join("crates"), root.join("crates/compat")];
    let dirs = parents.iter().filter_map(|p| fs::read_dir(p).ok()).flatten().flatten();
    dirs.map(|d| d.path()).find(|dir| {
        fs::read_to_string(dir.join("Cargo.toml"))
            .is_ok_and(|m| m.lines().any(|l| l == format!("name = \"{package}\"")))
    })
}

/// Every `.rs` file under `dir`.
fn sources(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            out.extend(sources(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out
}

/// Why `invocation` does not name an existing test, if it does not. It must
/// read `cargo test [-p PACKAGE] (--lib | --test TARGET) FILTER`.
fn missing_test(root: &Path, invocation: &str) -> Option<String> {
    let words: Vec<&str> = invocation.split_whitespace().collect();
    if words.get(..2) != Some(&["cargo", "test"][..]) {
        return Some("is not a `cargo test` invocation".into());
    }
    let (mut package, mut target, mut filter) = ("ddpolice", None, None);
    let mut rest = words[2..].iter();
    while let Some(&word) = rest.next() {
        match word {
            "-p" => package = rest.next().copied().unwrap_or(""),
            "--test" => target = rest.next().map(|t| format!("tests/{t}.rs")),
            "--lib" => target = Some("src".into()),
            _ if word.starts_with('-') => {}
            _ => filter = Some(word),
        }
    }
    let Some(dir) = package_dir(root, package) else {
        return Some(format!("names no workspace package {package:?}"));
    };
    let (Some(target), Some(filter)) = (target, filter) else {
        return Some("needs `--lib` or `--test TARGET`, and a test name".into());
    };
    let target = dir.join(target);
    let files = if target.is_dir() { sources(&target) } else { vec![target.clone()] };
    let defines =
        |f: &PathBuf| fs::read_to_string(f).is_ok_and(|s| s.contains(&format!("fn {filter}(")));
    if !target.exists() {
        Some(format!("names a target that does not exist: {}", target.display()))
    } else if !files.iter().any(defines) {
        Some(format!("names no test `{filter}` in {}", target.display()))
    } else {
        None
    }
}

#[test]
fn every_catalogued_mutant_still_applies() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let text = fs::read_to_string(root.join("tests/mutants/catalogue.txt"))
        .expect("tests/mutants/catalogue.txt exists");
    let mutants = parse(&text);
    assert!(mutants.len() >= 20, "only {} catalogued mutants", mutants.len());

    let mut problems = Vec::new();
    let mut ids = HashSet::new();
    for m in &mutants {
        let mut problem = |what: String| problems.push(format!("{}: {what}", m.id));
        if m.id.is_empty() || !ids.insert(m.id.as_str()) {
            problem("the id is empty or not unique".into());
        }
        match fs::read_to_string(root.join(&m.file)) {
            Err(e) => problem(format!("cannot read {:?}: {e}", m.file)),
            Ok(source) => match source.matches(m.old.as_str()).count() {
                _ if m.old.is_empty() => problem("has no `old` text".into()),
                1 => {}
                n => problem(format!("its `old` text occurs {n} times in {}", m.file)),
            },
        }
        if m.new == m.old {
            problem("its `new` text is its `old` text".into());
        }
        if let Some(why) = missing_test(&root, &m.test) {
            problem(format!("`{}` {why}", m.test));
        }
    }
    assert!(problems.is_empty(), "the catalogue no longer applies:\n{}", problems.join("\n"));
}
