//! Page-geometry helpers tying node capacity to a disk-page model, so the
//! IO counts reported by experiments correspond to a concrete page size.
//!
//! The paper's setup is a classic 2000s disk-based R-tree. We model a
//! 4096-byte page with a 16-byte header, and an entry as its coordinates
//! (4 bytes each, `u32`) plus a 4-byte pointer or record id.

/// Page size in bytes.
const PAGE_SIZE: usize = 4096;
/// Page header bytes.
const HEADER: usize = 16;
/// Bytes per coordinate (`u32`).
const BYTES_PER_COORD: usize = 4;
/// Bytes for the child pointer or record id of an entry.
const BYTES_PER_POINTER: usize = 4;

/// Node capacity (entries per page) for `dims`-dimensional data.
///
/// Inner entries store an MBB (2 corners); we conservatively size every
/// entry that way so leaf and inner nodes share one capacity, as in the
/// paper's implementation. Never below [`MIN_CAPACITY`](crate::MIN_CAPACITY).
pub fn page_capacity(dims: usize) -> usize {
    let entry = dims
        .saturating_mul(2)
        .saturating_mul(BYTES_PER_COORD)
        .saturating_add(BYTES_PER_POINTER);
    per_page(entry).max(crate::MIN_CAPACITY)
}

/// Number of pages a sequential file of `n` records occupies, for the
/// external-sort IO charging of the dynamic SDC+ adaptation (§VI-C) and
/// dTSS's group directory and local-skyline files. A record stores `dims`
/// coordinates plus a record id.
pub fn data_pages(n: usize, dims: usize) -> u64 {
    let record = dims
        .saturating_mul(BYTES_PER_COORD)
        .saturating_add(BYTES_PER_POINTER);
    n.div_ceil(per_page(record).max(1)) as u64
}

/// Entries of `entry` bytes (never zero: every entry has a pointer) that
/// fit after the header.
fn per_page(entry: usize) -> usize {
    (PAGE_SIZE - HEADER) / entry
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_capacity_is_sane() {
        // 2-D: entry = 2*2*4 + 4 = 20 bytes; (4096-16)/20 = 204.
        assert_eq!(page_capacity(2), 204);
        // 6-D: entry = 2*6*4 + 4 = 52 bytes; (4096-16)/52 = 78.
        assert_eq!(page_capacity(6), 78);
    }

    #[test]
    fn capacity_never_below_two() {
        // A 600-D entry (4,804 bytes) is wider than the page.
        assert_eq!(page_capacity(600), 2);
    }

    #[test]
    fn data_pages_rounds_up() {
        // 2-D record = 12 bytes; 340 records per page.
        assert_eq!(data_pages(1, 2), 1);
        assert_eq!(data_pages(340, 2), 1);
        assert_eq!(data_pages(341, 2), 2);
        assert_eq!(data_pages(0, 2), 0);
    }
}
