//! Rule family 8 — thread fencing.
//!
//! Starting threads is the shard executor's job, and *only* its job:
//! `crates/core/src/executor.rs` owns the claim loop whose scoped workers
//! run shard jobs, and `crates/core/src/ipc/supervisor.rs` owns the pipe
//! reader thread of each worker process. The claim loop is the engines'
//! one thread fan-out, so the thread count schedules shard jobs and
//! changes nothing else; a second fan-out anywhere else would be a second
//! scheduler to keep deterministic. `thread::scope`, `thread::spawn` and
//! `thread::Builder`, however qualified (and the same names imported from
//! a `thread::{…}` group), are banned outside those two modules. A
//! `.spawn()` method call is not flagged: it starts nothing without one of
//! the three. A genuinely new thread site carries
//! `// lint:allow(thread): <why>`.

use crate::findings::{Finding, Waivers};
use crate::lexer::{Lexed, Tok};
use std::path::Path;

/// Modules allowed to start threads: the executor's claim loop and the
/// supervisor's pipe reader.
const ALLOWED_FILES: &[&str] = &[
    "crates/core/src/executor.rs",
    "crates/core/src/ipc/supervisor.rs",
];

/// Items of `std::thread` that start a thread.
const THREAD_STARTERS: &[&str] = &["scope", "spawn", "Builder"];

pub fn allowed(rel: &Path) -> bool {
    let s = rel.to_string_lossy().replace('\\', "/");
    ALLOWED_FILES.iter().any(|f| s == *f)
}

pub fn check(rel: &Path, lexed: &Lexed, out: &mut Vec<Finding>) {
    if allowed(rel) {
        return;
    }
    let toks = &lexed.toks;
    let waivers = Waivers::parse(&lexed.comments);
    let mut flag = |t: &Tok| {
        if waivers.covers("thread", t.line) {
            return;
        }
        out.push(Finding {
            path: rel.to_path_buf(),
            line: t.line,
            rule: "thread",
            msg: format!(
                "`thread::{}` outside the shard executor — the executor's \
                 claim loop (crates/core/src/executor.rs) is the one thread \
                 fan-out, so the thread count schedules shard jobs and \
                 changes nothing else; a genuinely new thread site carries \
                 `// lint:allow(thread): <why>`",
                t.text
            ),
        });
    };
    let starter = |t: &Tok| THREAD_STARTERS.iter().any(|s| t.is_ident(s));
    for i in 0..toks.len() {
        if !(toks[i].is_ident("thread")
            && i + 3 < toks.len()
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':'))
        {
            continue;
        }
        let next = &toks[i + 3];
        if starter(next) {
            flag(next);
        } else if next.is_punct('{') {
            // `use std::thread::{self, scope};`: every starter in the group.
            let mut depth = 0usize;
            for t in &toks[i + 3..] {
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if depth == 1 && starter(t) {
                    flag(t);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use std::path::PathBuf;

    fn findings(rel: &str, src: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        check(&PathBuf::from(rel), &lex(src), &mut out);
        out
    }

    #[test]
    fn flags_every_qualification_outside_the_executor() {
        let f = findings(
            "crates/core/src/parallel.rs",
            "std::thread::scope(|s| { s.spawn(|| 1); });\n\
             let h = thread::spawn(|| 2);\n\
             let b = ::std::thread::Builder::new();\n\
             use std::thread::{self, scope, available_parallelism};",
        );
        let lines: Vec<u32> = f.iter().map(|x| x.line).collect();
        assert_eq!(lines, vec![1, 2, 3, 4], "{f:?}");
        assert!(f.iter().all(|x| x.rule == "thread"));
        assert!(f[2].msg.contains("`thread::Builder`"));
    }

    #[test]
    fn the_claim_loop_and_the_pipe_reader_pass() {
        let src = "std::thread::scope(|s| s.spawn(|| ()));\nstd::thread::spawn(move || ());";
        for file in ALLOWED_FILES {
            assert!(findings(file, src).is_empty(), "{file}");
        }
    }

    #[test]
    fn spawn_methods_other_thread_items_and_waivers_pass() {
        let src = "let child = Command::new(p).spawn()?;\n\
             let n = std::thread::available_parallelism();\n\
             std::thread::park();\n\
             // lint:allow(thread): a watchdog outside the shard jobs\n\
             std::thread::spawn(watch);\n\
             // thread::spawn in a comment\n\
             let s = \"std::thread::scope\";";
        assert!(findings("crates/bench/src/runner.rs", src).is_empty());
    }
}
