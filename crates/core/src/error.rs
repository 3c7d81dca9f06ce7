use std::fmt;

/// Errors raised when assembling skyline inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// Flattened matrix length is not `n × dims`.
    RaggedMatrix {
        what: &'static str,
        len: usize,
        n: usize,
        dims: usize,
    },
    /// A PO value id exceeds its domain cardinality.
    PoValueOutOfRange {
        row: usize,
        dim: usize,
        value: u32,
        domain: u32,
    },
    /// Number of DAGs supplied does not match the table's PO dimensionality.
    DomainCountMismatch { dags: usize, po_dims: usize },
    /// A query supplied a partial order over a domain of the wrong size.
    QueryDomainMismatch {
        dim: usize,
        expected: usize,
        got: usize,
    },
    /// The table needs at least one TO or PO dimension.
    NoDimensions,
    /// An explicit R-tree node capacity below
    /// [`rtree::MIN_CAPACITY`]: a node must hold two entries.
    NodeCapacityTooSmall { capacity: usize },
    /// A fully dynamic query's reference point does not name one ideal
    /// value per TO attribute.
    ReferenceWidthMismatch { expected: usize, got: usize },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::RaggedMatrix { what, len, n, dims } => write!(
                f,
                "{what} matrix has {len} entries, expected n×dims = {n}×{dims}"
            ),
            CoreError::PoValueOutOfRange {
                row,
                dim,
                value,
                domain,
            } => write!(
                f,
                "tuple {row}, PO dim {dim}: value id {value} outside domain of {domain} values"
            ),
            CoreError::DomainCountMismatch { dags, po_dims } => {
                write!(f, "{dags} DAG(s) supplied for {po_dims} PO dimension(s)")
            }
            CoreError::QueryDomainMismatch { dim, expected, got } => write!(
                f,
                "query partial order for PO dim {dim} has {got} values, data uses {expected}"
            ),
            CoreError::NoDimensions => write!(f, "table must have at least one dimension"),
            CoreError::NodeCapacityTooSmall { capacity } => write!(
                f,
                "node capacity {capacity} is below the minimum of {}",
                rtree::MIN_CAPACITY
            ),
            CoreError::ReferenceWidthMismatch { expected, got } => write!(
                f,
                "reference point has {got} value(s), the table has {expected} TO attribute(s)"
            ),
        }
    }
}

impl std::error::Error for CoreError {}

/// What went wrong on a shard attempt — the variant half of a
/// [`ShardError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardErrorKind {
    /// The shard job panicked; the payload is the rendered panic message
    /// (`"<non-string panic payload>"` when it is not a string).
    Panicked(String),
    /// The shard's local skyline failed the recovery ladder's minimality
    /// validation: the carried record id is dominated by another local
    /// member, so the local result cannot be a skyline.
    Corrupted(u32),
    /// An out-of-process worker died mid-attempt (nonzero exit, EOF on its
    /// pipe, a truncated frame, or a failed spawn/write); the payload
    /// names the observation.
    WorkerDied(String),
    /// An out-of-process worker blew its attempt deadline and was killed
    /// by the supervisor.
    WorkerTimeout,
    /// A response frame arrived but could not be trusted: checksum
    /// mismatch, undecodable payload, or a decoded record outside the
    /// shard's range; the payload names the defect.
    FrameCorrupted(String),
}

impl ShardErrorKind {
    /// Stable variant name for logs and diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            ShardErrorKind::Panicked(_) => "panicked",
            ShardErrorKind::Corrupted(_) => "corrupted",
            ShardErrorKind::WorkerDied(_) => "worker-died",
            ShardErrorKind::WorkerTimeout => "worker-timeout",
            ShardErrorKind::FrameCorrupted(_) => "frame-corrupted",
        }
    }
}

/// Failures surfaced by the fault-tolerant shard executors
/// ([`ShardExecutor`](crate::parallel::ShardExecutor)): what went wrong on
/// the shard's **final** attempt, after the bounded retry ladder and the
/// scalar-oracle fallback of last resort were both exhausted.
///
/// A `ShardError` escaping [`sharded_skyline_exec`](crate::sharded_skyline_exec)
/// therefore means the shard failed deterministically on every path — a
/// real engine bug, not a transient fault (or crashed worker process).
/// The error is structured — variant, shard index, the shard's global
/// record-id range, attempt — so supervisor logs and test diagnostics
/// name the failing shard instead of a debug blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardError {
    shard: usize,
    attempt: u32,
    range: std::ops::Range<u32>,
    kind: ShardErrorKind,
}

impl ShardError {
    /// An error of arbitrary kind. The range defaults to empty (unknown);
    /// executors that know the shard's record span attach it with
    /// [`with_range`](Self::with_range).
    pub fn new(shard: usize, attempt: u32, kind: ShardErrorKind) -> ShardError {
        ShardError {
            shard,
            attempt,
            range: 0..0,
            kind,
        }
    }

    /// A panicked attempt with the rendered panic payload.
    pub fn panicked(shard: usize, attempt: u32, message: impl Into<String>) -> ShardError {
        ShardError::new(shard, attempt, ShardErrorKind::Panicked(message.into()))
    }

    /// A corrupted local skyline, proven by the dominated `offender`.
    pub fn corrupted(shard: usize, attempt: u32, offender: u32) -> ShardError {
        ShardError::new(shard, attempt, ShardErrorKind::Corrupted(offender))
    }

    /// Attaches the shard's global record-id range.
    pub fn with_range(mut self, range: std::ops::Range<u32>) -> ShardError {
        self.range = range;
        self
    }

    /// The shard the error originated on.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Zero-based attempt the failure was observed on (the scalar-oracle
    /// fallback attempt is `DEFAULT_RETRIES + 1`).
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// The global record-id range the shard covers (empty when the
    /// reporting executor did not know it).
    pub fn range(&self) -> std::ops::Range<u32> {
        self.range.clone()
    }

    /// The failure variant.
    pub fn kind(&self) -> &ShardErrorKind {
        &self.kind
    }
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard {}", self.shard)?;
        if !self.range.is_empty() {
            write!(f, " [{}..{})", self.range.start, self.range.end)?;
        }
        write!(f, " attempt {}: {}", self.attempt, self.kind.name())?;
        match &self.kind {
            ShardErrorKind::Panicked(msg) => write!(f, ": {msg}"),
            ShardErrorKind::Corrupted(offender) => write!(
                f,
                ": record {offender} is dominated by another local member"
            ),
            ShardErrorKind::WorkerDied(detail) => write!(f, ": {detail}"),
            ShardErrorKind::WorkerTimeout => Ok(()),
            ShardErrorKind::FrameCorrupted(detail) => write!(f, ": {detail}"),
        }
    }
}

impl std::error::Error for ShardError {}

#[cfg(test)]
mod shard_error_tests {
    use super::*;

    #[test]
    fn display_names_variant_range_and_attempt() {
        let e = ShardError::panicked(3, 2, "boom").with_range(30..60);
        let s = e.to_string();
        assert!(s.contains("shard 3"), "{s}");
        assert!(s.contains("[30..60)"), "{s}");
        assert!(s.contains("attempt 2"), "{s}");
        assert!(s.contains("panicked"), "{s}");
        assert!(s.contains("boom"), "{s}");
    }

    #[test]
    fn empty_range_is_omitted() {
        let e = ShardError::new(1, 0, ShardErrorKind::WorkerTimeout);
        let s = e.to_string();
        assert_eq!(s, "shard 1 attempt 0: worker-timeout");
        assert!(
            ShardError::new(0, 4, ShardErrorKind::WorkerDied("EOF".into()))
                .to_string()
                .contains("worker-died: EOF")
        );
        assert!(ShardError::new(
            0,
            1,
            ShardErrorKind::FrameCorrupted("checksum mismatch".into())
        )
        .to_string()
        .contains("frame-corrupted: checksum mismatch"));
        assert!(ShardError::corrupted(2, 1, 17)
            .to_string()
            .contains("record 17"));
    }
}
