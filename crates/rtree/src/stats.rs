//! Page-geometry helpers tying node capacity to a disk-page model, so the
//! IO counts reported by experiments correspond to a concrete page size.

/// Disk-page model: page size in bytes plus per-entry byte costs.
///
/// The paper's setup is a classic 2000s disk-based R-tree; we model an entry
/// as its coordinates (4 bytes each) plus a 4-byte pointer / record id, and
/// reserve a small header per page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageConfig {
    /// Page size in bytes (default 4096).
    pub page_size: usize,
    /// Bytes per coordinate (4 for `u32`).
    pub bytes_per_coord: usize,
    /// Bytes for the child pointer / record id per entry.
    pub bytes_per_pointer: usize,
    /// Page header bytes.
    pub header: usize,
}

impl Default for PageConfig {
    fn default() -> Self {
        PageConfig {
            page_size: 4096,
            bytes_per_coord: 4,
            bytes_per_pointer: 4,
            header: 16,
        }
    }
}

impl PageConfig {
    /// Node capacity (entries per page) for `dims`-dimensional data.
    ///
    /// Inner entries store an MBB (2 corners); we conservatively size every
    /// entry that way so leaf and inner nodes share one capacity, as in the
    /// paper's implementation. Saturating, never below
    /// [`MIN_CAPACITY`](crate::MIN_CAPACITY).
    pub fn capacity(&self, dims: usize) -> usize {
        let entry = dims
            .saturating_mul(2)
            .saturating_mul(self.bytes_per_coord)
            .saturating_add(self.bytes_per_pointer);
        self.per_page(entry).max(crate::MIN_CAPACITY)
    }

    /// Number of pages a sequential file of `n` records occupies, for the
    /// external-sort IO charging of the dynamic SDC+ adaptation (§VI-C).
    /// A record stores `dims` coordinates plus a record id.
    pub fn data_pages(&self, n: usize, dims: usize) -> u64 {
        let record = dims
            .saturating_mul(self.bytes_per_coord)
            .saturating_add(self.bytes_per_pointer);
        n.div_ceil(self.per_page(record).max(1)) as u64
    }

    /// Entries of `entry` bytes that fit after the header, saturating: a
    /// header larger than the page leaves room for none, and zero-byte
    /// entries fit without bound.
    fn per_page(&self, entry: usize) -> usize {
        self.page_size
            .saturating_sub(self.header)
            .checked_div(entry)
            .unwrap_or(usize::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_capacity_is_sane() {
        let cfg = PageConfig::default();
        // 2-D: entry = 2*2*4 + 4 = 20 bytes; (4096-16)/20 = 204.
        assert_eq!(cfg.capacity(2), 204);
        // 6-D: entry = 2*6*4 + 4 = 52 bytes; (4096-16)/52 = 78.
        assert_eq!(cfg.capacity(6), 78);
    }

    #[test]
    fn capacity_never_below_two() {
        let tiny = PageConfig {
            page_size: 32,
            bytes_per_coord: 4,
            bytes_per_pointer: 4,
            header: 16,
        };
        assert_eq!(tiny.capacity(8), 2);
    }

    #[test]
    fn header_larger_than_the_page_saturates() {
        let cfg = PageConfig {
            header: 8192,
            ..PageConfig::default()
        };
        assert_eq!(cfg.capacity(2), 2);
        assert_eq!(cfg.data_pages(10, 2), 10);
    }

    #[test]
    fn zero_byte_entries_saturate() {
        let cfg = PageConfig {
            bytes_per_coord: 0,
            bytes_per_pointer: 0,
            ..PageConfig::default()
        };
        assert_eq!(cfg.capacity(3), usize::MAX);
        assert_eq!(cfg.data_pages(10, 3), 1);
        assert_eq!(cfg.data_pages(0, 3), 0);
    }

    #[test]
    fn data_pages_rounds_up() {
        let cfg = PageConfig::default();
        // 2-D record = 12 bytes; 340 records per page.
        assert_eq!(cfg.data_pages(1, 2), 1);
        assert_eq!(cfg.data_pages(340, 2), 1);
        assert_eq!(cfg.data_pages(341, 2), 2);
        assert_eq!(cfg.data_pages(0, 2), 0);
    }
}
