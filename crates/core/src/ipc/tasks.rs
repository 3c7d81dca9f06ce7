//! **Builtin task codecs** — the self-contained task payload `tss_core`
//! itself knows how to ship across the process boundary, plus the shared
//! compute function both sides call.
//!
//! Byte identity between the in-process closure and the worker
//! interpretation is **by construction**: the closure attached to a
//! [`ShardJob`] and the worker's [`dispatch_builtin`] decode path call
//! the *same* function on the *same* inputs (a standalone store rebuilt
//! from the identical flat blocks, structurally identical domains), so
//! records and every [`Metrics`] counter agree no matter which side ran
//! the attempt.
//!
//! One codec ships today (first task byte):
//!
//! * `0` — **local skyline**: a shard window's flat TO/PO blocks plus
//!   the domain DAGs; the answer is the window's skyline as global ids.
//!   [`local_skyline_job`] builds the matching [`ShardJob`]. The decoder
//!   rejects a window whose PO values or attribute count do not fit the
//!   decoded domains.
//!
//! Bench engine tasks use codec bytes ≥ 16, interpreted by the harness
//! worker only (see `tss_bench`).

use super::protocol::{get_dags, get_window, put_dags, put_window, Reader};
use crate::executor::{ShardCtx, ShardJob};
use crate::store::{PointStore, RecordId, ShardView};
use crate::{Metrics, PoDomain};

/// Task byte of the local-skyline codec.
pub const TASK_LOCAL_SKYLINE: u8 = 0;

/// The local skyline of a standalone window store: every record screened
/// against the full window with one
/// [`t_dominated_by_any`](PointStore::t_dominated_by_any) call (a record
/// never dominates its own equal self, so the full id list is a valid
/// reference set). Returns **global** ids (`local + start`) and the
/// attempt's metrics. Both the in-process closure and the worker call
/// this — that shared body is the byte-identity proof.
pub(crate) fn local_skyline_of(
    store: &PointStore,
    domains: &[PoDomain],
    start: RecordId,
) -> (Vec<RecordId>, Metrics) {
    let ids: Vec<RecordId> = (0..store.len() as RecordId).collect();
    let mut m = Metrics::default();
    let mut local = Vec::new();
    for &r in &ids {
        let (hit, ex) = store.t_dominated_by_any(domains, store.to(r), store.po(r), &ids);
        m.batch(ex);
        if !hit {
            local.push(start + r);
        }
    }
    m.results = local.len() as u64;
    (local, m)
}

/// Encodes a local-skyline task over a shard window.
pub fn encode_local_skyline(view: &ShardView<'_>, domains: &[PoDomain]) -> Vec<u8> {
    let store = view.store();
    let mut t = Vec::new();
    t.push(TASK_LOCAL_SKYLINE);
    super::protocol::put_u32(&mut t, view.start());
    put_window(
        &mut t,
        store.to_dims(),
        store.po_dims(),
        view.to_block(),
        view.po_block(),
    );
    put_dags(&mut t, domains.iter().map(PoDomain::dag));
    t
}

/// Decodes and runs a local-skyline task. A window whose PO values or
/// attribute count do not fit the decoded domains is an error, never a
/// screen.
fn run_local_skyline(body: &[u8]) -> Result<(Vec<RecordId>, Metrics), String> {
    let mut r = Reader::new(body);
    let start = r.u32()?;
    let store = get_window(&mut r)?;
    let dags = get_dags(&mut r)?;
    if r.remaining() != 0 {
        return Err("trailing task bytes".into());
    }
    let sizes: Vec<u32> = dags.iter().map(|d| d.len() as u32).collect();
    store.check_domains(&sizes).map_err(|e| e.to_string())?;
    let domains: Vec<PoDomain> = dags.into_iter().map(PoDomain::new).collect();
    Ok(local_skyline_of(&store, &domains, start))
}

/// A [`ShardJob`] computing the window's local skyline, carrying both
/// the in-process closure and the matching wire payload — the job the
/// subprocess-equivalence proptests fan across executors.
pub fn local_skyline_job<'a>(view: ShardView<'a>, domains: &'a [PoDomain]) -> ShardJob<'a> {
    ShardJob::new(view.range(), move |_ctx: ShardCtx| {
        local_skyline_of(&view.to_store(), domains, view.start())
    })
    .with_wire(move || encode_local_skyline(&view, domains))
}

/// Interprets a builtin task payload (first byte selects the codec) —
/// the dispatch the `tss-worker` binaries serve. The builtin codec is
/// one kernel-independent list loop, so it ignores the attempt's context.
/// Errors name the defect; the worker reports them as `RESP_ERR` frames.
pub fn dispatch_builtin(task: &[u8], _ctx: ShardCtx) -> Result<(Vec<RecordId>, Metrics), String> {
    let Some((&codec, body)) = task.split_first() else {
        return Err("empty task".to_string());
    };
    let run = match codec {
        TASK_LOCAL_SKYLINE => run_local_skyline(body),
        other => return Err(format!("unknown builtin task codec {other}")),
    };
    run.map_err(|e| format!("task codec {codec}: bad payload: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::brute_force_po_skyline;
    use crate::Table;
    use poset::Dag;
    use skyline::Kernel;

    fn table(n: u32) -> Table {
        let mut t = Table::new(2, 0);
        for i in 0..n {
            t.push(&[(i * 13) % 40, (i * 29) % 40], &[]);
        }
        t
    }

    const CTX: ShardCtx = ShardCtx {
        shard: 0,
        attempt: 0,
        kernel: Kernel::Scalar,
    };

    #[test]
    fn local_skyline_codec_matches_the_closure_and_brute_force() {
        let t = table(80);
        let domains: Vec<PoDomain> = Vec::new();
        for shards in [1usize, 3] {
            for view in t.shards(shards) {
                let job = local_skyline_job(view, &domains);
                let wire = job.wire_bytes().expect("job carries a payload");
                let (inproc, m_in) = local_skyline_of(&view.to_store(), &domains, view.start());
                let (remote, m_out) = dispatch_builtin(&wire, CTX).expect("decodes");
                assert_eq!(remote, inproc, "shards={shards}");
                assert_eq!(m_out, m_in);
                let brute: Vec<RecordId> = brute_force_po_skyline(&domains, &view.to_store())
                    .into_iter()
                    .map(|r| r + view.start())
                    .collect();
                assert_eq!(remote, brute, "matches the oracle");
            }
        }
    }

    #[test]
    fn malformed_tasks_are_reported_not_panicked() {
        assert!(dispatch_builtin(&[], CTX).is_err(), "empty");
        assert!(dispatch_builtin(&[99], CTX).is_err(), "unknown codec");
        assert!(
            dispatch_builtin(&[TASK_LOCAL_SKYLINE, 1, 2], CTX).is_err(),
            "underflow"
        );
        let five = || {
            vec![PoDomain::new(
                Dag::from_edges(5, &[(0, 1), (1, 2)]).unwrap(),
            )]
        };
        let mut t = Table::new(2, 1);
        for (i, v) in [3u32, 0, 4].into_iter().enumerate() {
            t.push(&[i as u32, 2 - i as u32], &[v]);
        }
        let domains = five();
        let good = encode_local_skyline(&t.shards(1)[0], &domains);
        assert!(
            dispatch_builtin(&good, CTX).is_ok(),
            "the valid payload decodes"
        );
        for len in 0..good.len() {
            assert!(
                dispatch_builtin(&good[..len], CTX).is_err(),
                "truncated to {len}"
            );
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(dispatch_builtin(&trailing, CTX).is_err(), "trailing bytes");

        // Checksum-valid payloads the screen cannot run on: a PO value
        // outside its decoded domain, and a domain count that differs
        // from the window's PO attribute count.
        let mut out_of_range = Table::new(1, 1);
        for v in [7u32, 0, 9] {
            out_of_range.push(&[v], &[v]);
        }
        let task = encode_local_skyline(&out_of_range.shards(1)[0], &domains);
        let err = dispatch_builtin(&task, CTX).expect_err("PO value 7 is outside 5 values");
        assert!(err.contains("value id 7 outside domain of 5"), "{err}");
        let mut two = five();
        two.extend(five());
        for doms in [&[][..], &two[..]] {
            let task = encode_local_skyline(&t.shards(1)[0], doms);
            let err = dispatch_builtin(&task, CTX).expect_err("domain count mismatch");
            assert!(err.contains("DAG(s) supplied for 1 PO"), "{err}");
        }
    }
}
