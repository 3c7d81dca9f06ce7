//! Hidden worker entry point for [`tss_core::SubprocessExecutor`].
//!
//! Supervisors re-exec this binary and speak the length-prefixed,
//! checksummed frame protocol of `tss_core::ipc::protocol` over
//! stdin/stdout. It serves the one builtin task codec (local skyline)
//! until the supervisor closes its end, then exits cleanly. Humans never run it directly; integration tests locate it
//! via `env!("CARGO_BIN_EXE_tss-worker")`.

#![forbid(unsafe_code)]

fn main() {
    if let Err(e) = tss::core::ipc::serve_builtin() {
        eprintln!("tss-worker: {e}");
        // lint:allow(process): the worker entry point is the one place the
        // facade may talk to the process API; a nonzero exit tells the
        // supervisor the stream died rather than completed.
        std::process::exit(1);
    }
}
