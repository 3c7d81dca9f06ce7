//! In-repo static analysis for the TSS workspace.
//!
//! `cargo run -p xtask -- lint` runs seven rule families that turn the
//! repo's doc-comment contracts into red builds:
//!
//! | rule          | contract it guards                                          |
//! |---------------|-------------------------------------------------------------|
//! | `hash-iter`   | engine crates never observe `HashMap`/`HashSet` order       |
//! | `hasher`      | no `DefaultHasher`/`RandomState` (pinned FNV-1a everywhere) |
//! | `panic-path`  | per-crate unwrap/expect/panic! counts only ratchet down     |
//! | `process`     | `Command`/`process::exit` only in `core::ipc` + worker bins |
//! | `thread`      | threads start only in the claim loop + the IPC pipe reader  |
//! | `time-source` | wall clocks only in `bench` and waived Metrics.cpu sites    |
//! | `unwind`      | `catch_unwind` only inside the shard executor module        |
//!
//! Waiver syntax (line comment on the finding's line or the line above,
//! reason mandatory): `// lint:allow(<rule>): <why>`.

#![forbid(unsafe_code)]

pub mod findings;
pub mod lexer;
pub mod rules {
    pub mod determinism;
    pub mod panics;
    pub mod process;
    pub mod thread;
    pub mod timesrc;
    pub mod unwind;
}

use findings::Finding;
use std::path::{Path, PathBuf};

/// Every rule family id, in report order.
pub const ALL_RULES: &[&str] = &[
    "hash-iter",
    "hasher",
    "panic-path",
    "process",
    "thread",
    "time-source",
    "unwind",
];

/// Runs the requested rule families (`None` = all) over the workspace at
/// `root`. Findings come back sorted by `(path, line, rule)`.
pub fn lint(root: &Path, only: Option<&str>) -> Vec<Finding> {
    let run = |rule: &str| only.is_none_or(|r| r == rule);
    let mut out = Vec::new();

    // File-scoped rules share one lex per file.
    for file in workspace_files(root) {
        let Ok(src) = std::fs::read_to_string(&file) else {
            continue;
        };
        let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
        let lexed = lexer::lex(&src);
        if run("hash-iter") && in_engine_crate_src(&rel) {
            rules::determinism::hash_iter(&file, &rel, &lexed, &mut out);
        }
        if run("hasher") {
            rules::determinism::hasher_ban(&rel, &lexed, &mut out);
        }
        if run("process") {
            rules::process::check(&rel, &lexed, &mut out);
        }
        if run("thread") {
            rules::thread::check(&rel, &lexed, &mut out);
        }
        if run("time-source") {
            rules::timesrc::check(&rel, &lexed, &mut out);
        }
        if run("unwind") {
            rules::unwind::check(&rel, &lexed, &mut out);
        }
    }
    if run("panic-path") {
        rules::panics::check(root, &mut out);
    }

    out.sort();
    out.dedup();
    out
}

/// All lintable `.rs` files: the crates, the facade (`src/`, `tests/`,
/// `examples/`) and xtask's own sources. `vendor/` and `target/` are never
/// linted (offline stand-ins, build output), nor are test fixtures.
fn workspace_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "xtask/src"] {
        files.extend(findings::rust_files(&root.join(dir)));
    }
    files.sort();
    files
}

/// True iff `rel` is shipping source of an engine crate — the scope of the
/// `hash-iter` determinism contract (PR 4/5 byte-identity).
fn in_engine_crate_src(rel: &Path) -> bool {
    let s = rel.to_string_lossy().replace('\\', "/");
    rules::determinism::ENGINE_CRATES
        .iter()
        .any(|c| s.starts_with(&format!("crates/{c}/src/")))
}

/// Workspace root when running via `cargo run -p xtask` (the manifest dir's
/// parent).
pub fn default_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask sits one level below the workspace root") // lint:allow(panic-path): compile-time layout invariant
        .to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_crate_scope() {
        assert!(in_engine_crate_src(Path::new("crates/core/src/stss.rs")));
        assert!(in_engine_crate_src(Path::new("crates/poset/src/dag.rs")));
        assert!(!in_engine_crate_src(Path::new(
            "crates/bench/src/runner.rs"
        )));
        assert!(!in_engine_crate_src(Path::new("crates/datagen/src/lib.rs")));
        assert!(!in_engine_crate_src(Path::new(
            "crates/rtree/tests/reference_point.rs"
        )));
    }
}
