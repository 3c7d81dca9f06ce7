//! **Wire protocol** of the out-of-process executor — hand-rolled
//! length-prefixed little-endian framing with a per-frame FNV-1a
//! checksum. No serde, no external dependencies: every encoder writes
//! plain `u32`/`u64` LE words into a `Vec<u8>`, every decoder reads them
//! back through a bounds-checked [`Reader`].
//!
//! ```text
//! frame   := [payload_len: u32 LE] [payload: payload_len bytes]
//!            [checksum: u64 LE]           (checksum = FNV-1a(payload))
//! payload := [kind: u8] kind-specific body
//! kind    := REQ (1) | RESP_OK (2) | RESP_ERR (3)
//! ```
//!
//! * `REQ` — shard index, attempt, kernel byte, fault-instruction byte,
//!   then opaque task bytes (first task byte selects a codec — see
//!   [`tasks`](super::tasks)).
//! * `RESP_OK` — the record-id list plus the **full** [`Metrics`] struct,
//!   every counter in [`Metrics::COUNTERS`] order, then `cpu` as
//!   nanoseconds. [`put_metrics`] loops over that table, so a new counter
//!   cannot silently vanish across the process boundary.
//! * `RESP_ERR` — a UTF-8 error message from the worker.
//!
//! Corruption is detected at two independent layers: the frame checksum
//! (flipped bytes, torn writes) and, under a fault plan, the recovery
//! ladder's minimality validation (a well-formed frame carrying a wrong
//! local skyline).
//! [`encode_frame_corrupted`] deliberately produces the first kind — one
//! hash-picked payload byte flipped under a stale checksum — for the
//! deterministic `CorruptFrame` fault injection.

use crate::executor::ProcessFaultKind;
use crate::Metrics;
use skyline::Kernel;
use std::hash::Hasher;
use std::io::Read;
use std::time::Duration;

/// Payload kind byte of a request frame.
pub const REQ: u8 = 1;
/// Payload kind byte of a successful response.
pub const RESP_OK: u8 = 2;
/// Payload kind byte of a worker-reported failure.
pub const RESP_ERR: u8 = 3;

/// Upper bound on a frame payload — anything larger is a corrupt length
/// prefix, not a real task (the whole bench corpus is megabytes).
pub const MAX_FRAME: u32 = 1 << 30;

/// Upper bound on one shipped DAG's vertex count: four times the paper's
/// largest domain (a height-10 subset lattice of 1,024 values). The
/// receiver labels each domain with an `n`-by-`n` reachability bitset, so
/// a count read off the wire must not size anything unchecked: 200,000
/// vertices would be a 5 GB bitset, and at this bound it is 2 MiB.
pub const MAX_DAG_VERTICES: u32 = 1 << 12;

/// Upper bound on the vertices of all DAGs in one payload, an empty DAG
/// counting as one. The DAG count is read off the wire too, and each
/// vertex costs a label, adjacency lists and a bitset row, so the budget
/// spans the payload: with [`MAX_DAG_VERTICES`] it caps the bitsets at
/// 8 MiB together (the sum of `n²` is at most the largest `n` times the
/// sum of `n`), four maximum-size domains.
pub const MAX_PAYLOAD_DAG_VERTICES: u32 = 1 << 14;

/// Fixed framing overhead: the length prefix plus the checksum.
pub const FRAME_OVERHEAD: u64 = 4 + 8;

/// The pinned payload checksum: FNV-1a over the raw bytes.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = poset::Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Why a frame could not be read off a worker pipe. The supervisor maps
/// these onto [`ShardErrorKind`](crate::error::ShardErrorKind)s:
/// end-of-stream and truncation mean the
/// worker died, a checksum mismatch means the frame cannot be trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Clean end of stream before any byte of a frame.
    Eof,
    /// The stream ended mid-frame.
    Truncated,
    /// The payload does not match its checksum. Carries the total on-wire
    /// size of the (completely read) frame so `ipc_bytes` accounting
    /// stays exact even for rejected frames.
    BadChecksum {
        /// Total bytes the corrupt frame occupied on the wire.
        frame_bytes: u64,
    },
    /// The length prefix exceeds [`MAX_FRAME`].
    TooLarge(u32),
    /// An I/O error other than end-of-stream.
    Io(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "end of stream"),
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::BadChecksum { frame_bytes } => {
                write!(f, "checksum mismatch on a {frame_bytes}-byte frame")
            }
            FrameError::TooLarge(len) => {
                write!(f, "length prefix {len} exceeds the {MAX_FRAME}-byte cap")
            }
            FrameError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

/// Frames a payload: length prefix, bytes, FNV-1a checksum.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + FRAME_OVERHEAD as usize);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv64(payload).to_le_bytes());
    out
}

/// Frames a payload with exactly one hash-picked byte flipped under the
/// **stale** checksum of the original — the deterministic
/// [`CorruptFrame`](ProcessFaultKind::CorruptFrame) injection. The
/// receiver must reject the frame as [`FrameError::BadChecksum`].
pub fn encode_frame_corrupted(payload: &[u8]) -> Vec<u8> {
    let checksum = fnv64(payload);
    let mut bytes = payload.to_vec();
    if !bytes.is_empty() {
        let ix = (checksum as usize) % bytes.len();
        bytes[ix] ^= 0x55;
    }
    let mut out = Vec::with_capacity(bytes.len() + FRAME_OVERHEAD as usize);
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(&bytes);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Reads exactly `buf.len()` bytes; `Eof` only when the stream ends
/// before the first byte *and* the caller said a clean end is possible
/// here (`at_boundary`).
fn read_full(r: &mut impl Read, buf: &mut [u8], at_boundary: bool) -> Result<(), FrameError> {
    let mut got = 0usize;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(if got == 0 && at_boundary {
                    FrameError::Eof
                } else {
                    FrameError::Truncated
                })
            }
            Ok(k) => got += k,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e.to_string())),
        }
    }
    Ok(())
}

/// Reads one frame and verifies its checksum, returning the payload.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut len_buf = [0u8; 4];
    read_full(r, &mut len_buf, true)?;
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge(len));
    }
    // Grow the buffer as bytes arrive: a corrupt prefix must not size an
    // allocation before the payload it promises exists.
    let mut payload = Vec::new();
    r.by_ref()
        .take(u64::from(len))
        .read_to_end(&mut payload)
        .map_err(|e| FrameError::Io(e.to_string()))?;
    if payload.len() < len as usize {
        return Err(FrameError::Truncated);
    }
    let mut sum_buf = [0u8; 8];
    read_full(r, &mut sum_buf, false)?;
    if fnv64(&payload) != u64::from_le_bytes(sum_buf) {
        return Err(FrameError::BadChecksum {
            frame_bytes: u64::from(len) + FRAME_OVERHEAD,
        });
    }
    Ok(payload)
}

// --- Little-endian buffer primitives ------------------------------------

/// Appends a `u32` LE.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` LE.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed `u32` slice.
pub fn put_u32s(buf: &mut Vec<u8>, vs: &[u32]) {
    put_u32(buf, vs.len() as u32);
    for &v in vs {
        put_u32(buf, v);
    }
}

/// Bounds-checked sequential decoder over a payload. Every getter
/// returns `Err` on underflow instead of panicking — a corrupt frame
/// must surface as
/// [`FrameCorrupted`](crate::error::ShardErrorKind::FrameCorrupted),
/// never as a supervisor crash.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Decode failure: what the reader expected when the payload ran out (or
/// carried an invalid discriminant).
pub type DecodeError = &'static str;

impl<'a> Reader<'a> {
    /// A reader over the whole payload.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: DecodeError) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(what);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Next byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Next `u32` LE.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let s = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Next `u64` LE.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let s = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }

    /// Next length-prefixed `u32` slice. The reservation is capped by the
    /// bytes left, so a count read off the wire sizes nothing that did not
    /// arrive.
    pub fn u32s(&mut self) -> Result<Vec<u32>, DecodeError> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(self.remaining() / 4));
        for _ in 0..n {
            out.push(self.u32()?);
        }
        Ok(out)
    }

    /// Everything left.
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }
}

// --- Kernel and fault bytes ---------------------------------------------

/// One-byte kernel encoding (`0` scalar, `1` lanes).
pub fn kernel_byte(k: Kernel) -> u8 {
    match k {
        Kernel::Scalar => 0,
        Kernel::Lanes => 1,
    }
}

/// Inverse of [`kernel_byte`].
pub fn kernel_from_byte(b: u8) -> Result<Kernel, DecodeError> {
    match b {
        0 => Ok(Kernel::Scalar),
        1 => Ok(Kernel::Lanes),
        _ => Err("kernel byte"),
    }
}

fn fault_byte(f: Option<ProcessFaultKind>) -> u8 {
    match f {
        None => 0,
        Some(ProcessFaultKind::Kill) => 1,
        Some(ProcessFaultKind::Stall) => 2,
        Some(ProcessFaultKind::CorruptFrame) => 3,
    }
}

fn fault_from_byte(b: u8) -> Result<Option<ProcessFaultKind>, DecodeError> {
    match b {
        0 => Ok(None),
        1 => Ok(Some(ProcessFaultKind::Kill)),
        2 => Ok(Some(ProcessFaultKind::Stall)),
        3 => Ok(Some(ProcessFaultKind::CorruptFrame)),
        _ => Err("fault byte"),
    }
}

// --- Requests ------------------------------------------------------------

/// A decoded request frame: which shard attempt to run, under which
/// kernel, with which injected fault (the supervisor computes the fault
/// site deterministically and *instructs* the worker, so injection is
/// invariant to pool size and scheduling), plus the opaque task bytes.
pub struct Request<'a> {
    /// Shard index of the attempt.
    pub shard: usize,
    /// Zero-based attempt number.
    pub attempt: u32,
    /// Kernel the attempt must compute with.
    pub kernel: Kernel,
    /// Fault the worker must act out before/while responding.
    pub fault: Option<ProcessFaultKind>,
    /// Codec-tagged task bytes (see [`tasks`](super::tasks)).
    pub task: &'a [u8],
}

/// Encodes a request payload (kind byte included).
pub fn encode_request(
    shard: usize,
    attempt: u32,
    kernel: Kernel,
    fault: Option<ProcessFaultKind>,
    task: &[u8],
) -> Vec<u8> {
    let mut p = Vec::with_capacity(1 + 4 + 4 + 1 + 1 + task.len());
    p.push(REQ);
    put_u32(&mut p, shard as u32);
    put_u32(&mut p, attempt);
    p.push(kernel_byte(kernel));
    p.push(fault_byte(fault));
    p.extend_from_slice(task);
    p
}

/// Decodes a request payload.
pub fn decode_request(payload: &[u8]) -> Result<Request<'_>, DecodeError> {
    let mut r = Reader::new(payload);
    if r.u8()? != REQ {
        return Err("request kind byte");
    }
    let shard = r.u32()? as usize;
    let attempt = r.u32()?;
    let kernel = kernel_from_byte(r.u8()?)?;
    let fault = fault_from_byte(r.u8()?)?;
    Ok(Request {
        shard,
        attempt,
        kernel,
        fault,
        task: r.rest(),
    })
}

// --- Responses -----------------------------------------------------------

/// A decoded response payload.
pub enum Response {
    /// The attempt succeeded: local records plus the attempt's metrics.
    Ok(Vec<u32>, Metrics),
    /// The worker reported a failure (undecodable task, unknown codec).
    Err(String),
}

/// Encodes a successful response payload.
pub fn encode_ok(records: &[u32], metrics: &Metrics) -> Vec<u8> {
    let mut p = Vec::with_capacity(1 + 4 + records.len() * 4 + (Metrics::COUNTERS.len() + 1) * 8);
    p.push(RESP_OK);
    put_u32s(&mut p, records);
    put_metrics(&mut p, metrics);
    p
}

/// Encodes a worker-failure response payload.
pub fn encode_err(msg: &str) -> Vec<u8> {
    let mut p = Vec::with_capacity(1 + msg.len());
    p.push(RESP_ERR);
    p.extend_from_slice(msg.as_bytes());
    p
}

/// Decodes a response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, DecodeError> {
    let mut r = Reader::new(payload);
    match r.u8()? {
        RESP_OK => {
            let records = r.u32s()?;
            let metrics = get_metrics(&mut r)?;
            if r.remaining() != 0 {
                return Err("trailing response bytes");
            }
            Ok(Response::Ok(records, metrics))
        }
        RESP_ERR => Ok(Response::Err(
            String::from_utf8_lossy(r.rest()).into_owned(),
        )),
        _ => Err("response kind byte"),
    }
}

/// Serializes the **entire** [`Metrics`] struct: every counter in
/// [`Metrics::COUNTERS`] order, then `cpu` as nanoseconds.
pub fn put_metrics(buf: &mut Vec<u8>, m: &Metrics) {
    for c in m.counters() {
        put_u64(buf, c);
    }
    put_u64(buf, m.cpu.as_nanos() as u64);
}

/// Inverse of [`put_metrics`].
pub fn get_metrics(r: &mut Reader<'_>) -> Result<Metrics, DecodeError> {
    let mut m = Metrics::default();
    for c in m.counters_mut() {
        *c = r.u64()?;
    }
    m.cpu = Duration::from_nanos(r.u64()?);
    Ok(m)
}

// --- Shared store-window / DAG codecs (reused by the bench codecs) -------

/// Appends a record window: dims, then the flat TO and PO blocks.
pub fn put_window(buf: &mut Vec<u8>, to_dims: usize, po_dims: usize, to: &[u32], po: &[u32]) {
    put_u32(buf, to_dims as u32);
    put_u32(buf, po_dims as u32);
    put_u32s(buf, to);
    put_u32s(buf, po);
}

/// Inverse of [`put_window`]: rebuilds a standalone store (records
/// renumbered `0..n`, default kernel — callers apply the request's).
pub fn get_window(r: &mut Reader<'_>) -> Result<crate::PointStore, DecodeError> {
    let to_dims = r.u32()? as usize;
    let po_dims = r.u32()? as usize;
    let to = r.u32s()?;
    let po = r.u32s()?;
    crate::PointStore::from_parts(to_dims, po_dims, to, po).map_err(|_| "window blocks")
}

/// Appends PO domain DAGs (vertex count + edge pairs each). Labels do
/// not travel: dominance is a pure function of the structure, and the
/// receiving side regenerates placeholder labels.
pub fn put_dags<'d>(
    buf: &mut Vec<u8>,
    dags: impl IntoIterator<Item = &'d poset::Dag, IntoIter: ExactSizeIterator>,
) {
    let dags = dags.into_iter();
    put_u32(buf, dags.len() as u32);
    for dag in dags {
        put_u32(buf, dag.len() as u32);
        put_u32(buf, dag.num_edges() as u32);
        for (u, v) in dag.edges() {
            put_u32(buf, u.idx() as u32);
            put_u32(buf, v.idx() as u32);
        }
    }
}

/// Inverse of [`put_dags`]: rebuilds the DAGs. Every structure derived
/// from them (ordinals, reachability, sTSS's range labels) is a deterministic
/// function of the edges, so dominance decisions — and examined-pair
/// counts — are identical to the sender's. Each DAG's vertex count is
/// checked against [`MAX_DAG_VERTICES`] and the running total against
/// [`MAX_PAYLOAD_DAG_VERTICES`] before that DAG is built, so a payload
/// over either bound is a decode error having allocated at most the
/// budget. An edge list reserves no more pairs than the bytes left hold.
pub fn get_dags(r: &mut Reader<'_>) -> Result<Vec<poset::Dag>, DecodeError> {
    let count = r.u32()? as usize;
    let mut dags = Vec::with_capacity(count.min(64));
    let mut vertices = 0u32;
    for _ in 0..count {
        let n = r.u32()?;
        if n > MAX_DAG_VERTICES {
            return Err("dag vertex count over MAX_DAG_VERTICES");
        }
        vertices += n.max(1);
        if vertices > MAX_PAYLOAD_DAG_VERTICES {
            return Err("dag vertices over MAX_PAYLOAD_DAG_VERTICES");
        }
        let edges = r.u32()? as usize;
        let mut pairs = Vec::with_capacity(edges.min(r.remaining() / 8));
        for _ in 0..edges {
            let u = r.u32()?;
            let v = r.u32()?;
            pairs.push((u, v));
        }
        dags.push(poset::Dag::from_edges(n, &pairs).map_err(|_| "dag edges")?);
    }
    Ok(dags)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        for payload in [&b""[..], &b"x"[..], &[1u8, 2, 3, 250, 0, 7][..]] {
            let frame = encode_frame(payload);
            assert_eq!(frame.len() as u64, payload.len() as u64 + FRAME_OVERHEAD);
            let mut cursor = &frame[..];
            assert_eq!(read_frame(&mut cursor), Ok(payload.to_vec()));
            assert_eq!(read_frame(&mut cursor), Err(FrameError::Eof));
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let frame = encode_frame(&[9u8, 8, 7, 6, 5]);
        for cut in 1..frame.len() {
            let mut cursor = &frame[..cut];
            let e = read_frame(&mut cursor);
            assert!(matches!(e, Err(FrameError::Truncated)), "cut={cut}: {e:?}");
        }
    }

    #[test]
    fn a_huge_length_prefix_allocates_only_what_arrives() {
        /// Serves `bytes`, then EOF, recording the widest buffer a caller
        /// asked it to fill.
        struct Widest<'a> {
            bytes: &'a [u8],
            widest: usize,
        }
        impl Read for Widest<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.widest = self.widest.max(buf.len());
                self.bytes.read(buf)
            }
        }
        let mut frame = MAX_FRAME.to_le_bytes().to_vec();
        frame.extend_from_slice(&[1, 2, 3, 4, 5]);
        let mut r = Widest {
            bytes: &frame,
            widest: 0,
        };
        assert_eq!(read_frame(&mut r), Err(FrameError::Truncated));
        assert!(r.widest <= 64 << 10, "asked to fill {} bytes", r.widest);
    }

    #[test]
    fn every_bit_flip_is_rejected() {
        let payload = [3u8, 1, 4, 1, 5, 9, 2, 6];
        let frame = encode_frame(&payload);
        for byte in 0..frame.len() {
            for bit in 0..8u8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                let mut cursor = &bad[..];
                let got = read_frame(&mut cursor);
                // Flips in the length prefix may also read as truncation
                // or an oversized frame; flips in payload or checksum must
                // be checksum failures. A flipped frame never decodes to
                // the original payload.
                assert_ne!(got, Ok(payload.to_vec()), "byte={byte} bit={bit}");
            }
        }
    }

    #[test]
    fn corrupted_frames_fail_their_checksum_deterministically() {
        let payload = encode_ok(&[1, 2, 3], &Metrics::default());
        let a = encode_frame_corrupted(&payload);
        let b = encode_frame_corrupted(&payload);
        assert_eq!(a, b, "injection is deterministic");
        assert_ne!(a, encode_frame(&payload));
        let mut cursor = &a[..];
        assert_eq!(
            read_frame(&mut cursor),
            Err(FrameError::BadChecksum {
                frame_bytes: payload.len() as u64 + FRAME_OVERHEAD
            })
        );
    }

    #[test]
    fn requests_round_trip() {
        let task = [7u8, 1, 2, 3];
        let p = encode_request(5, 2, Kernel::Lanes, Some(ProcessFaultKind::Stall), &task);
        let req = decode_request(&p).unwrap();
        assert_eq!(req.shard, 5);
        assert_eq!(req.attempt, 2);
        assert_eq!(req.kernel, Kernel::Lanes);
        assert_eq!(req.fault, Some(ProcessFaultKind::Stall));
        assert_eq!(req.task, &task);
        assert!(decode_request(&[RESP_OK, 0, 0]).is_err(), "wrong kind");
        assert!(decode_request(&[REQ, 0]).is_err(), "underflow");
    }

    #[test]
    fn responses_round_trip_the_full_metrics() {
        let mut m = Metrics {
            cpu: Duration::from_nanos(23),
            ..Default::default()
        };
        for (v, c) in (1..).zip(m.counters_mut()) {
            *c = v;
        }
        match decode_response(&encode_ok(&[4, 5], &m)).unwrap() {
            Response::Ok(records, got) => {
                assert_eq!(records, vec![4, 5]);
                assert_eq!(got, m);
            }
            Response::Err(e) => unreachable!("{e}"),
        }
        match decode_response(&encode_err("boom")).unwrap() {
            Response::Err(e) => assert_eq!(e, "boom"),
            Response::Ok(..) => unreachable!(),
        }
        assert!(decode_response(&[RESP_OK, 1]).is_err(), "underflow");
        assert!(decode_response(&[42]).is_err(), "unknown kind");
    }

    #[test]
    fn windows_and_dags_round_trip() {
        let mut t = crate::PointStore::new(2, 1);
        t.push(&[1, 2], &[0]);
        t.push(&[3, 4], &[2]);
        let dag = poset::Dag::from_edges(3, &[(0, 1), (0, 2)]).unwrap();
        let mut buf = Vec::new();
        put_window(&mut buf, 2, 1, t.to_block(), t.po_block());
        put_dags(&mut buf, [&dag]);
        let mut r = Reader::new(&buf);
        let t2 = get_window(&mut r).unwrap();
        let d2 = get_dags(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        assert_eq!(t2.len(), 2);
        assert_eq!(t2.to_block(), t.to_block());
        assert_eq!(t2.po_block(), t.po_block());
        assert_eq!(d2.len(), 1);
        assert_eq!(d2[0].len(), 3);
        assert_eq!(
            d2[0].edges().collect::<Vec<_>>(),
            dag.edges().collect::<Vec<_>>()
        );
    }

    /// Edge-less DAG sections of the given vertex counts.
    fn dag_sections(sizes: &[u32]) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u32(&mut buf, sizes.len() as u32);
        for &n in sizes {
            put_u32(&mut buf, n);
            put_u32(&mut buf, 0);
        }
        buf
    }

    #[test]
    fn counts_claiming_more_than_the_payload_holds_are_rejected() {
        let claim = 1u32 << 20;
        // A DAG section claiming 2^20 edges over one edge's bytes.
        let mut dag = Vec::new();
        for x in [1, 2, claim, 0, 1] {
            put_u32(&mut dag, x);
        }
        assert_eq!(get_dags(&mut Reader::new(&dag)).unwrap_err(), "u32");
        // A `u32s` prefix claiming 2^20 items over two items' bytes.
        let mut list = Vec::new();
        for x in [claim, 7, 8] {
            put_u32(&mut list, x);
        }
        assert_eq!(Reader::new(&list).u32s().unwrap_err(), "u32");
    }

    #[test]
    fn dag_vertex_counts_are_bounded_per_dag_and_per_payload() {
        let max = MAX_DAG_VERTICES;
        let fits = MAX_PAYLOAD_DAG_VERTICES / max;
        let decode = |sizes: &[u32]| get_dags(&mut Reader::new(&dag_sections(sizes)));
        // Both bounds are inclusive.
        let at_budget = decode(&vec![max; fits as usize]).unwrap();
        assert_eq!(at_budget.len(), fits as usize);
        assert!(at_budget.iter().all(|d| d.len() == max as usize));
        assert_eq!(
            decode(&[max + 1]).unwrap_err(),
            "dag vertex count over MAX_DAG_VERTICES"
        );
        // One more maximum-size DAG, or one more empty one, is over the
        // payload's budget; so is a count far beyond what fits.
        for sizes in [
            vec![max; fits as usize + 1],
            [vec![max; fits as usize], vec![0]].concat(),
            vec![0; MAX_PAYLOAD_DAG_VERTICES as usize + 1],
        ] {
            assert_eq!(
                decode(&sizes).unwrap_err(),
                "dag vertices over MAX_PAYLOAD_DAG_VERTICES",
                "{} DAGs",
                sizes.len()
            );
        }
    }
}
