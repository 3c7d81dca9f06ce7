//! **Out-of-process shard execution** — a supervised subprocess worker
//! pool behind the same [`ShardExecutor`](crate::ShardExecutor) seam the
//! in-process executor implements.
//!
//! PR 8's fault ladder simulated failure; this module makes it real:
//! workers are separate OS processes that can actually crash, hang and
//! corrupt frames, and the query survives all three. The module splits
//! along the pipe:
//!
//! * [`protocol`] — hand-rolled length-prefixed LE framing with a
//!   per-frame FNV-1a checksum, plus the request/response and
//!   store-window codecs (no serde, no new dependencies);
//! * [`tasks`] — the builtin task codec and the shared compute function
//!   both sides call (byte identity by construction);
//! * [`worker`] — the blocking serve loop a `tss-worker` entry runs;
//! * [`supervisor`] — [`SubprocessExecutor`]: the remote transport of
//!   the executors' shared recovery ladder — worker processes,
//!   per-attempt deadlines, crash/timeout/corruption detection mapped
//!   onto [`ShardError`](crate::ShardError) — and graceful degradation to
//!   fully in-process execution.
//!
//! This is the only module in the workspace (together with the harness
//! worker entry) allowed to touch [`std::process`] — the xtask `process`
//! rule fences it.

pub mod protocol;
pub mod supervisor;
pub mod tasks;
pub mod worker;

pub use supervisor::{SubprocessExecutor, WorkerSpec, DEFAULT_DEADLINE};
pub use tasks::{encode_local_skyline, local_skyline_job};
pub use worker::{serve_builtin, serve_io};
