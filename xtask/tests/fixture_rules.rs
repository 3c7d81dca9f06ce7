//! Fixture corpus: each rule family exercised on violation, clean and
//! waived miniature workspaces under `tests/fixtures/`.

use std::path::PathBuf;
use xtask::findings::Finding;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lint(name: &str, rule: &str) -> Vec<Finding> {
    xtask::lint(&fixture(name), Some(rule))
}

#[test]
fn hash_iter_flags_for_loops_method_iters_and_drain() {
    let f = lint("hash_iter_violation", "hash-iter");
    assert_eq!(f.len(), 3, "{f:#?}");
    assert!(f.iter().all(|x| x.rule == "hash-iter"));
    assert!(f.iter().all(|x| x.path.ends_with("crates/core/src/lib.rs")));
    let msgs: Vec<&str> = f.iter().map(|x| x.msg.as_str()).collect();
    assert!(msgs
        .iter()
        .any(|m| m.contains("`buckets`") || m.contains("buckets.iter()")));
    assert!(msgs.iter().any(|m| m.contains("`seen`")));
    assert!(msgs.iter().any(|m| m.contains("drain")));
}

#[test]
fn hash_iter_passes_probes_vecs_and_cfg_test() {
    let f = lint("hash_iter_clean", "hash-iter");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn hash_iter_honours_reasoned_waivers() {
    let f = lint("hash_iter_waived", "hash-iter");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn hasher_ban_flags_defaulthasher() {
    let f = lint("hasher_violation", "hasher");
    assert_eq!(f.len(), 2, "use + constructor: {f:#?}");
    assert!(f.iter().all(|x| x.msg.contains("DefaultHasher")));
}

#[test]
fn panic_ratchet_passes_at_the_baseline() {
    let f = lint("panic_ok", "panic-path");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn panic_ratchet_rejects_growth() {
    let f = lint("panic_regression", "panic-path");
    assert_eq!(f.len(), 1, "{f:#?}");
    assert!(f[0]
        .msg
        .contains("grew its panic paths: 2 sites vs baseline 1"));
}

#[test]
fn panic_ratchet_rejects_a_stale_high_baseline() {
    let f = lint("panic_stale", "panic-path");
    assert_eq!(f.len(), 1, "{f:#?}");
    assert!(f[0].msg.contains("below baseline (0 vs 1)"));
}

#[test]
fn panic_waiver_keeps_the_count_at_baseline() {
    let f = lint("panic_waived", "panic-path");
    assert!(f.is_empty(), "{f:#?}");
}

/// The process fence: rogue lib code spawning (`Command` + `Stdio`) and
/// exiting is flagged site by site, while the IPC supervisor module next
/// to it uses the same APIs exempt.
#[test]
fn process_api_banned_outside_the_ipc_modules() {
    let f = lint("process_violation", "process");
    assert_eq!(f.len(), 3, "{f:#?}");
    assert!(f.iter().all(|x| x.rule == "process"));
    assert!(f.iter().all(|x| x.path.ends_with("crates/core/src/lib.rs")));
    assert!(f.iter().any(|x| x.msg.contains("`Command`")));
    assert!(f.iter().any(|x| x.msg.contains("`process::exit`")));
}

#[test]
fn process_waiver_passes() {
    let f = lint("process_waived", "process");
    assert!(f.is_empty(), "{f:#?}");
}

/// The thread fence: a rogue fan-out (`thread::scope`) and a detached
/// `thread::spawn` in lib code are flagged, while the executor's claim
/// loop next to them starts the same scoped workers exempt; the scope's
/// `.spawn()` method calls are not flagged.
#[test]
fn thread_starts_banned_outside_the_executor() {
    let f = lint("thread_violation", "thread");
    assert_eq!(f.len(), 2, "{f:#?}");
    assert!(f.iter().all(|x| x.rule == "thread"));
    assert!(f.iter().all(|x| x.path.ends_with("crates/core/src/lib.rs")));
    assert_eq!(f.iter().map(|x| x.line).collect::<Vec<_>>(), vec![3, 10]);
    assert!(f[0].msg.contains("`thread::scope`"));
    assert!(f[1].msg.contains("`thread::spawn`"));
}

#[test]
fn thread_waiver_passes() {
    let f = lint("thread_waived", "thread");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn time_source_banned_outside_bench() {
    let f = lint("time_violation", "time-source");
    assert_eq!(f.len(), 1, "core flagged, bench exempt: {f:#?}");
    assert!(f[0].path.starts_with("crates/core"));
}

#[test]
fn time_source_waiver_passes() {
    let f = lint("time_waived", "time-source");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn catch_unwind_banned_outside_the_executor() {
    let f = lint("unwind_violation", "unwind");
    assert_eq!(f.len(), 1, "lib.rs flagged, executor.rs exempt: {f:#?}");
    assert!(f[0].path.ends_with("crates/core/src/lib.rs"));
    assert!(f[0].msg.contains("executor"));
}

#[test]
fn catch_unwind_waiver_passes() {
    let f = lint("unwind_waived", "unwind");
    assert!(f.is_empty(), "{f:#?}");
}

/// The streaming repair path must not grow its own panic isolation: a
/// `catch_unwind` in `streaming.rs` is flagged while the executor module
/// next to it stays exempt — delta repair rides the one audited ladder.
#[test]
fn streaming_module_cannot_catch_its_own_panics() {
    let f = lint("unwind_streaming_violation", "unwind");
    assert_eq!(f.len(), 1, "{f:#?}");
    assert!(f[0].path.ends_with("crates/core/src/streaming.rs"));
    assert!(f[0].msg.contains("executor"));
}

/// Streaming-style promote code with reasoned waivers keeps the crate at
/// its baseline: the ratchet admits the new module without loosening.
#[test]
fn streaming_module_waivers_hold_the_panic_baseline() {
    let f = lint("panic_streaming_waived", "panic-path");
    assert!(f.is_empty(), "{f:#?}");
}

/// The CLI contract CI relies on: exit 0 on clean, 1 on findings, and the
/// findings on stdout as `path:line: [rule] msg`.
#[test]
fn cli_exit_codes_and_output_shape() {
    let bin = env!("CARGO_BIN_EXE_xtask");
    let run = |root: &str, rule: &str| {
        std::process::Command::new(bin)
            .args(["lint", "--root"])
            .arg(fixture(root))
            .args(["--rule", rule])
            .output()
            .expect("spawn xtask")
    };
    let bad = run("hash_iter_violation", "hash-iter");
    assert_eq!(bad.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(stdout.contains("crates/core/src/lib.rs"), "{stdout}");
    assert!(stdout.contains("[hash-iter]"), "{stdout}");

    let good = run("hash_iter_waived", "hash-iter");
    assert_eq!(good.status.code(), Some(0));
    assert!(good.stdout.is_empty());
}
