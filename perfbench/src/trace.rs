//! In-memory spans for the traced run.
//!
//! The benchmark records spans around its own calls into each layer's
//! public functions; the library itself is not instrumented. A span is
//! named `layer.call`; its layer is the part before the dot (`op` for the
//! benchmark's own root span of each op). Ops are sequential — one
//! closed-loop client — but the spans of one op may come from several
//! threads (the sharded op's shard runs), so siblings can overlap.
//!
//! Self time of a span is its duration minus the union of its children's
//! intervals. Summed over an op that gives the op's wall time plus the time
//! by which siblings ran concurrently (`overlap`), which is 0 for every
//! serial op.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Raw spans are kept for this many ops (the trace file); later ops only
/// feed the aggregates, so a long stream run stays small.
pub const KEEP_OPS: usize = 4096;

/// Span id; [`NONE`] marks a root.
pub type SpanId = u32;
pub const NONE: SpanId = 0;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Default)]
struct State {
    op: u64,
    open: Vec<Span>,
    last: Vec<Span>,
    kept: Vec<Span>,
    kept_ops: usize,
    ops: u64,
    durations: BTreeMap<&'static str, Vec<u64>>,
    self_ns: BTreeMap<&'static str, u64>,
    overlap_ns: u64,
}

pub struct Tracer {
    on: AtomicBool,
    base: Instant,
    next: AtomicU32,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: AtomicBool::new(false),
            base: Instant::now(),
            next: AtomicU32::new(NONE),
            state: Mutex::new(State::default()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // No user code runs under the lock, so it is never poisoned.
        self.state
            .lock()
            .expect("tracer lock is never held across a panic")
    }

    /// Runs `f` inside a span `name` under `parent`; `f` receives the new
    /// span's id to parent its own children. A no-op when tracing is off.
    pub fn span<R>(&self, name: &'static str, parent: SpanId, f: impl FnOnce(SpanId) -> R) -> R {
        if !self.enabled() {
            return f(NONE);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed) + 1;
        let start_ns = self.now();
        let out = f(id);
        let end_ns = self.now();
        let mut st = self.lock();
        let op = st.op;
        st.open.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Runs one op under a root span `name` and folds its spans into the
    /// aggregates. Spans left behind by an op that panicked are dropped.
    pub fn op<R>(&self, name: &'static str, f: impl FnOnce(SpanId) -> R) -> R {
        if !self.enabled() {
            return f(NONE);
        }
        {
            let mut st = self.lock();
            st.op += 1;
            st.open.clear();
        }
        let out = self.span(name, NONE, f);
        let mut st = self.lock();
        let spans = std::mem::take(&mut st.open);
        st.fold(spans);
        out
    }

    /// [`op`](Self::op) with tracing forced on: probes that exist only in
    /// the traced run (labeling and kernel timings, the merge replay).
    pub fn probe<R>(&self, name: &'static str, f: impl FnOnce(SpanId) -> R) -> R {
        let was = self.enabled();
        self.set_enabled(true);
        let out = self.op(name, f);
        self.set_enabled(was);
        out
    }

    /// Durations (ns) of every folded span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.lock().durations.get(name).cloned().unwrap_or_default()
    }

    /// The spans of the most recently folded op.
    pub fn last_op(&self) -> Vec<Span> {
        self.lock().last.clone()
    }

    /// Every kept span, in op order.
    #[cfg(test)]
    pub fn kept(&self) -> Vec<Span> {
        self.lock().kept.clone()
    }

    pub fn ops(&self) -> u64 {
        self.lock().ops
    }

    /// The trace file: stamp, per-layer self time, and the kept spans.
    pub fn to_json(&self, stamp: Vec<(&'static str, String)>) -> String {
        let st = self.lock();
        let mut out = String::from("{\n  \"stamp\": {");
        for (i, (k, v)) in stamp.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{k}\": \"{}\"", v.replace('"', "'"));
        }
        let _ = write!(
            out,
            "}},\n  \"ops_traced\": {},\n  \"ops_kept\": {},\n  \"overlap_ns\": {},\n  \"self_ns\": {{",
            st.ops, st.kept_ops, st.overlap_ns
        );
        for (i, (layer, ns)) in st.self_ns.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{layer}\": {ns}");
        }
        out.push_str("},\n  \"spans\": [\n");
        for (i, s) in st.kept.iter().enumerate() {
            let sep = if i + 1 == st.kept.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

impl State {
    fn fold(&mut self, spans: Vec<Span>) {
        let (selfs, overlap) = self_times(&spans);
        for (s, own) in spans.iter().zip(selfs) {
            *self.self_ns.entry(s.layer()).or_default() += own;
            self.durations.entry(s.name).or_default().push(s.dur());
        }
        self.overlap_ns += overlap;
        self.ops += 1;
        if self.kept_ops < KEEP_OPS {
            self.kept.extend(spans.iter().cloned());
            self.kept_ops += 1;
        }
        self.last = spans;
    }
}

/// Self time of every span of one op, and the op's concurrency overlap
/// (Σ child durations − |∪ child intervals|, over every parent).
pub fn self_times(spans: &[Span]) -> (Vec<u64>, u64) {
    let mut overlap = 0;
    let selfs = spans
        .iter()
        .map(|p| {
            let mut kids: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == p.id)
                .map(|c| (c.start_ns, c.end_ns))
                .collect();
            kids.sort_unstable();
            let total: u64 = kids.iter().map(|(s, e)| e - s).sum();
            let mut union = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (s, e) in kids {
                cur = match cur {
                    Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
                    Some((cs, ce)) => {
                        union += ce - cs;
                        Some((s, e))
                    }
                    None => Some((s, e)),
                };
            }
            if let Some((cs, ce)) = cur {
                union += ce - cs;
            }
            overlap += total - union;
            p.dur().saturating_sub(union)
        })
        .collect();
    (selfs, overlap)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: "x.y",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Root 0..100 with two children overlapping on 20..30.
        let spans = [
            span(1, NONE, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 50),
        ];
        let (selfs, overlap) = self_times(&spans);
        assert_eq!(selfs, vec![60, 20, 30]);
        assert_eq!(overlap, 10);
        assert_eq!(selfs.iter().sum::<u64>(), 100 + overlap);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        assert_eq!(t.op("op.x", |id| id), NONE);
        assert_eq!(t.ops(), 0);
        t.set_enabled(true);
        t.op("op.x", |root| t.span("a.b", root, |_| ()));
        assert_eq!(t.ops(), 1);
        assert_eq!(t.durations("a.b").len(), 1);
        assert_eq!(t.last_op().len(), 2);
    }
}
