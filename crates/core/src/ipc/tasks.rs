//! **Builtin task codecs** — the self-contained task payloads `tss_core`
//! itself knows how to ship across the process boundary, plus the shared
//! compute functions both sides call.
//!
//! Byte identity between the in-process closure and the worker
//! interpretation is **by construction**: the closure attached to a
//! [`ShardJob`] and the worker's [`dispatch_builtin`] decode path call
//! the *same* function on the *same* inputs (a standalone store rebuilt
//! from the identical flat blocks, the same kernel, structurally
//! identical domains), so records and every [`Metrics`] counter agree no
//! matter which side ran the attempt.
//!
//! Two codecs ship today (first task byte):
//!
//! * `0` — **local skyline**: a shard window's flat TO/PO blocks plus
//!   the domain DAGs; the answer is the window's skyline as global ids.
//!   [`local_skyline_job`] builds the matching [`ShardJob`].
//! * `1` — **candidate screen**: the streaming repair's Phase A — screen
//!   candidate rows against a fixed member list (the post-removal
//!   skyline). Candidate and member rows travel; the answer is the
//!   surviving candidates' global ids.
//!
//! Bench engine tasks use codec bytes ≥ 16, interpreted by the harness
//! worker only (see `tss_bench`).

use super::protocol::{get_dags, get_window, put_dags, put_u32s, put_window, DecodeError, Reader};
use crate::executor::{ShardCtx, ShardJob};
use crate::store::{PointStore, RecordId, ShardView};
use crate::{Metrics, PoDomain};
use skyline::Kernel;

/// Task byte of the local-skyline codec.
pub const TASK_LOCAL_SKYLINE: u8 = 0;
/// Task byte of the candidate-screen codec.
pub const TASK_SCREEN: u8 = 1;

/// Is the candidate row t-dominated by any listed record? One batched
/// kernel call, honoring the attempt's kernel: the scalar-oracle path on
/// fallback attempts, the store's configured variant otherwise — the
/// exact branch the in-process repair screen uses. Returns
/// `(dominated, pairs_examined)`.
pub(crate) fn screen_one(
    store: &PointStore,
    domains: &[PoDomain],
    kernel: Kernel,
    cand_to: &[u32],
    cand_po: &[u32],
    members: &[RecordId],
) -> (bool, u64) {
    if kernel == Kernel::Scalar {
        store.t_dominated_by_any_oracle(domains, cand_to, cand_po, members)
    } else {
        store.t_dominated_by_any(domains, cand_to, cand_po, members)
    }
}

/// The local skyline of a standalone window store: every record screened
/// against the full window with one batched kernel call (a record never
/// dominates its own equal self, so the full id list is a valid
/// reference set). Returns **global** ids (`local + start`) and the
/// attempt's metrics. Both the in-process closure and the worker call
/// this — that shared body is the byte-identity proof.
pub(crate) fn local_skyline_of(
    store: &PointStore,
    domains: &[PoDomain],
    kernel: Kernel,
    start: RecordId,
) -> (Vec<RecordId>, Metrics) {
    let ids: Vec<RecordId> = (0..store.len() as RecordId).collect();
    let mut m = Metrics::default();
    let mut local = Vec::new();
    for r in 0..store.len() as RecordId {
        let (hit, ex) = screen_one(store, domains, kernel, store.to(r), store.po(r), &ids);
        m.batch(ex);
        if !hit {
            local.push(start + r);
        }
    }
    m.results = local.len() as u64;
    (local, m)
}

/// Screens candidates (resolvable in `store`) against a fixed member
/// list, in order; survivors keep their ids. The streaming repair's
/// Phase A runs through this.
pub(crate) fn screen_part(
    store: &PointStore,
    domains: &[PoDomain],
    kernel: Kernel,
    members: &[RecordId],
    part: &[RecordId],
) -> (Vec<RecordId>, Metrics) {
    let mut m = Metrics::default();
    let mut alive = Vec::new();
    for &p in part {
        let (hit, ex) = screen_one(store, domains, kernel, store.to(p), store.po(p), members);
        m.batch(ex);
        if !hit {
            alive.push(p);
        }
    }
    (alive, m)
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

fn run_local_skyline(body: &[u8], ctx: ShardCtx) -> Result<(Vec<RecordId>, Metrics), DecodeError> {
    let mut r = Reader::new(body);
    let start = r.u32()?;
    let store = get_window(&mut r)?.with_kernel(ctx.kernel);
    let domains: Vec<PoDomain> = get_dags(&mut r)?.into_iter().map(PoDomain::new).collect();
    if r.remaining() != 0 {
        return Err("trailing task bytes");
    }
    Ok(local_skyline_of(&store, &domains, ctx.kernel, start))
}

/// A [`ShardJob`] computing the window's local skyline, carrying both
/// the in-process closure and the matching wire payload — the job the
/// subprocess-equivalence proptests fan across executors.
pub fn local_skyline_job<'a>(view: ShardView<'a>, domains: &'a [PoDomain]) -> ShardJob<'a> {
    ShardJob::new(view.range(), move |ctx: ShardCtx| {
        let sub = view.to_store().with_kernel(ctx.kernel);
        local_skyline_of(&sub, domains, ctx.kernel, view.start())
    })
    .with_wire(move || encode_local_skyline(&view, domains))
}

/// Encodes a candidate-screen task: the candidates' global ids and rows,
/// the member rows (in member-list order — examined-pair counts depend
/// on it), and the domain DAGs.
pub fn encode_screen(
    store: &PointStore,
    domains: &[PoDomain],
    members: &[RecordId],
    part: &[RecordId],
) -> Vec<u8> {
    let mut t = Vec::new();
    t.push(TASK_SCREEN);
    put_u32s(&mut t, part);
    let mut cand_to = Vec::with_capacity(part.len() * store.to_dims());
    let mut cand_po = Vec::with_capacity(part.len() * store.po_dims());
    for &p in part {
        cand_to.extend_from_slice(store.to(p));
        cand_po.extend_from_slice(store.po(p));
    }
    put_u32s(&mut t, &cand_to);
    put_u32s(&mut t, &cand_po);
    let mut mem_to = Vec::with_capacity(members.len() * store.to_dims());
    let mut mem_po = Vec::with_capacity(members.len() * store.po_dims());
    for &m in members {
        mem_to.extend_from_slice(store.to(m));
        mem_po.extend_from_slice(store.po(m));
    }
    put_window(&mut t, store.to_dims(), store.po_dims(), &mem_to, &mem_po);
    put_dags(&mut t, domains.iter().map(PoDomain::dag));
    t
}

fn run_screen(body: &[u8], ctx: ShardCtx) -> Result<(Vec<RecordId>, Metrics), DecodeError> {
    let mut r = Reader::new(body);
    let part = r.u32s()?;
    let cand_to = r.u32s()?;
    let cand_po = r.u32s()?;
    let member_store = get_window(&mut r)?.with_kernel(ctx.kernel);
    let domains: Vec<PoDomain> = get_dags(&mut r)?.into_iter().map(PoDomain::new).collect();
    if r.remaining() != 0 {
        return Err("trailing task bytes");
    }
    let to_dims = member_store.to_dims();
    let po_dims = member_store.po_dims();
    if cand_to.len() != part.len() * to_dims || cand_po.len() != part.len() * po_dims {
        return Err("candidate blocks");
    }
    let member_ids: Vec<RecordId> = (0..member_store.len() as RecordId).collect();
    let mut m = Metrics::default();
    let mut alive = Vec::new();
    for (i, &p) in part.iter().enumerate() {
        let (hit, ex) = screen_one(
            &member_store,
            &domains,
            ctx.kernel,
            &cand_to[i * to_dims..(i + 1) * to_dims],
            &cand_po[i * po_dims..(i + 1) * po_dims],
            &member_ids,
        );
        m.batch(ex);
        if !hit {
            alive.push(p);
        }
    }
    Ok((alive, m))
}

/// Interprets a builtin task payload (first byte selects the codec) —
/// the dispatch the `tss-worker` binaries serve. Errors name the defect;
/// the worker reports them as `RESP_ERR` frames.
pub fn dispatch_builtin(task: &[u8], ctx: ShardCtx) -> Result<(Vec<RecordId>, Metrics), String> {
    let Some((&codec, body)) = task.split_first() else {
        return Err("empty task".to_string());
    };
    let run = match codec {
        TASK_LOCAL_SKYLINE => run_local_skyline(body, ctx),
        TASK_SCREEN => run_screen(body, ctx),
        other => return Err(format!("unknown builtin task codec {other}")),
    };
    run.map_err(|e| format!("task codec {codec}: bad payload: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::brute_force_po_skyline;
    use crate::Table;

    fn table(n: u32) -> Table {
        let mut t = Table::new(2, 0);
        for i in 0..n {
            t.push(&[(i * 13) % 40, (i * 29) % 40], &[]);
        }
        t
    }

    #[test]
    fn local_skyline_codec_matches_the_closure_and_brute_force() {
        let t = table(80);
        let domains: Vec<PoDomain> = Vec::new();
        for shards in [1usize, 3] {
            for view in t.shards(shards) {
                let job = local_skyline_job(view, &domains);
                for kernel in [Kernel::Scalar, Kernel::Lanes] {
                    let ctx = ShardCtx {
                        shard: 0,
                        attempt: 0,
                        kernel,
                    };
                    let wire = job.wire_bytes().expect("job carries a payload");
                    let (inproc, m_in) = {
                        let sub = view.to_store().with_kernel(kernel);
                        local_skyline_of(&sub, &domains, kernel, view.start())
                    };
                    let (remote, m_out) = dispatch_builtin(&wire, ctx).expect("decodes");
                    assert_eq!(remote, inproc, "shards={shards} kernel={kernel:?}");
                    assert_eq!(m_out, m_in);
                    let brute: Vec<RecordId> = brute_force_po_skyline(&domains, &view.to_store())
                        .into_iter()
                        .map(|r| r + view.start())
                        .collect();
                    assert_eq!(remote, brute, "matches the oracle");
                }
            }
        }
    }

    #[test]
    fn screen_codec_matches_the_in_store_screen() {
        let t = table(60);
        let domains: Vec<PoDomain> = Vec::new();
        let members: Vec<RecordId> = vec![3, 10, 25];
        let part: Vec<RecordId> = vec![5, 17, 40, 55];
        let wire = encode_screen(&t, &domains, &members, &part);
        for kernel in [Kernel::Scalar, Kernel::Lanes] {
            let ctx = ShardCtx {
                shard: 0,
                attempt: 0,
                kernel,
            };
            let (remote, m_out) = dispatch_builtin(&wire, ctx).expect("decodes");
            let mut t2 = t.clone();
            t2.set_kernel(kernel);
            let (inproc, m_in) = screen_part(&t2, &domains, kernel, &members, &part);
            assert_eq!(remote, inproc, "kernel={kernel:?}");
            assert_eq!(m_out, m_in);
        }
    }

    #[test]
    fn malformed_tasks_are_reported_not_panicked() {
        let ctx = ShardCtx {
            shard: 0,
            attempt: 0,
            kernel: Kernel::Scalar,
        };
        assert!(dispatch_builtin(&[], ctx).is_err(), "empty");
        assert!(dispatch_builtin(&[99], ctx).is_err(), "unknown codec");
        assert!(
            dispatch_builtin(&[TASK_LOCAL_SKYLINE, 1, 2], ctx).is_err(),
            "underflow"
        );
        let t = table(10);
        let good = encode_local_skyline(&t.shards(1)[0], &[]);
        assert!(dispatch_builtin(&good[..good.len() - 3], ctx).is_err());
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(dispatch_builtin(&trailing, ctx).is_err(), "trailing bytes");
    }
}
