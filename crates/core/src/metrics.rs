use std::time::Duration;

/// Declares [`Metrics`] from one table of its `u64` counters: the struct
/// (the counters in table order, then `cpu`) and the table-order views
/// [`Metrics::COUNTERS`], [`Metrics::counters`] and
/// [`Metrics::counters_mut`]. Every sink — [`Metrics::merge`], the IPC
/// codec, the bench rows and reports — loops over those views, so a
/// counter added to the table reaches all of them.
macro_rules! metrics {
    ($($(#[$doc:meta])* pub $name:ident: u64,)*) => {
        /// Execution metrics common to all paper algorithms: the efficiency
        /// measures of §III-A plus wall-clock CPU time, combined by the
        /// paper's IO charging model (§VI-B "after charging 5 msec for each
        /// IO").
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Metrics {
            $($(#[$doc])* pub $name: u64,)*
            /// Measured CPU time (single-threaded wall clock of the run).
            pub cpu: Duration,
        }

        impl Metrics {
            /// Names of the `u64` counters, in declaration order: the order
            /// of [`counters`](Metrics::counters), of the IPC wire codec and
            /// of the bench rows' `metrics` object.
            pub const COUNTERS: &'static [&'static str] = &[$(stringify!($name)),*];

            /// Every counter's value, in [`COUNTERS`](Metrics::COUNTERS)
            /// order.
            pub fn counters(&self) -> [u64; Metrics::COUNTERS.len()] {
                [$(self.$name),*]
            }

            /// Every counter, mutably, in [`COUNTERS`](Metrics::COUNTERS)
            /// order.
            pub fn counters_mut(&mut self) -> [&mut u64; Metrics::COUNTERS.len()] {
                [$(&mut self.$name),*]
            }
        }
    };
}

metrics! {
    /// Pairwise dominance / containment checks.
    pub dominance_checks: u64,
    /// Invocations of a batched dominance kernel (each call examines zero
    /// or more pairs, all counted in `dominance_checks`).
    pub dominance_batch_calls: u64,
    /// [`LANES`](skyline::LANES)-wide chunk iterations the examined pairs
    /// amount to (`Σ ⌈examined/LANES⌉` per batch call). Derived from the
    /// pair counts alone, so it is identical across kernel variants.
    pub kernel_chunks: u64,
    /// Disk-page reads (R-tree node accesses plus, for rebuild-style
    /// baselines, sequential data passes).
    pub io_reads: u64,
    /// Disk-page writes (index rebuilds of the dynamic baselines).
    pub io_writes: u64,
    /// Heap pops performed by best-first traversals.
    pub heap_pops: u64,
    /// Skyline points emitted.
    pub results: u64,
    /// Per-attribute DAG labelings served from a query-session cache
    /// instead of being recomputed (dTSS §V-A through
    /// [`QuerySession`](crate::QuerySession)).
    pub label_cache_hits: u64,
    /// Per-attribute DAG labelings that had to be computed from scratch.
    pub label_cache_misses: u64,
    /// Pairs examined by the cross-shard merge phase alone (a subset of
    /// `dominance_checks`; the quantity the README's merge-cost bound
    /// `Σᵢ |localᵢ| · Σⱼ≠ᵢ |localⱼ|` bounds).
    pub merge_pair_checks: u64,
    /// Equal-score strata processed by the sorted merge (the units of its
    /// frozen-prefix parallelism).
    pub merge_strata: u64,
    /// Failed shard attempts the fault-tolerant executor retried (each
    /// regular-path attempt that panicked or failed validation counts
    /// once). Deterministic under a seeded
    /// [`FaultPlan`](crate::parallel::FaultPlan), so thread-count
    /// invariant like every other counter.
    pub shard_retries: u64,
    /// Shards recomputed on the scalar-oracle kernel path after exhausting
    /// their regular retry budget — the recovery ladder's last resort.
    pub shard_fallbacks: u64,
    /// Faults the active [`FaultPlan`](crate::parallel::FaultPlan)
    /// actually fired (injected panics + injected corruptions, across all
    /// attempts). Zero on fault-free runs.
    pub faults_injected: u64,
    /// Tuples appended through
    /// [`StreamingSkyline::insert`](crate::StreamingSkyline::insert).
    pub stream_inserts: u64,
    /// Tuples retired from the live window — explicit
    /// [`expire`](crate::StreamingSkyline::expire) calls plus automatic
    /// sliding-window evictions.
    pub stream_expirations: u64,
    /// Expirations that removed a skyline member and therefore triggered a
    /// delta repair (promotion search) instead of a no-op retirement.
    pub stream_repairs: u64,
    /// Candidates examined by repair promotion searches — the live,
    /// non-skyline records inside the expired member's dominance region
    /// that a repair had to screen. The delta-maintenance win is this
    /// staying far below a from-scratch recompute's `dominance_checks`.
    pub repair_candidates: u64,
    /// Worker processes the out-of-process executor observed dying
    /// mid-attempt (nonzero exit, EOF, truncated frame) — each death
    /// counts once and triggers a respawn plus a retry. Deterministic
    /// under a seeded process-fault plan, so invariant across thread
    /// counts *and* worker-pool sizes; always zero in-process.
    pub worker_crashes: u64,
    /// Workers killed by the supervisor for blowing the
    /// [`ExecPolicy`](crate::ExecPolicy) attempt deadline. The deadline
    /// only selects the recovery path — results never depend on it.
    pub worker_timeouts: u64,
    /// Response frames rejected as untrustworthy: checksum mismatch,
    /// undecodable payload, or decoded records outside the shard range.
    pub frames_corrupted: u64,
    /// Bytes of complete IPC frames exchanged with worker processes
    /// (requests written + responses fully read, across all attempts).
    /// A pure function of the jobs and the fault plan — pool-size- and
    /// thread-invariant like every other counter.
    pub ipc_bytes: u64,
}

impl Metrics {
    /// Total IOs, reads plus writes.
    pub fn io_total(&self) -> u64 {
        self.io_reads + self.io_writes
    }

    /// Componentwise sum.
    pub fn merge(&self, other: &Metrics) -> Metrics {
        let mut sum = *self;
        for (s, o) in sum.counters_mut().into_iter().zip(other.counters()) {
            *s += o;
        }
        sum.cpu += other.cpu;
        sum
    }

    /// Accounts one batched-kernel invocation that examined `examined`
    /// pairs.
    #[inline]
    pub fn batch(&mut self, examined: u64) {
        self.dominance_checks += examined;
        self.dominance_batch_calls += 1;
        self.kernel_chunks += examined.div_ceil(skyline::LANES as u64);
    }
}

/// The paper's cost model: total time = CPU + `io_cost` per page IO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Charged cost of one page IO (the paper uses 5 ms).
    pub io_cost: Duration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            io_cost: Duration::from_millis(5),
        }
    }
}

impl CostModel {
    /// Simulated total time of a run under this model.
    pub fn total_time(&self, m: &Metrics) -> Duration {
        m.cpu + self.io_cost * (m.io_total() as u32)
    }

    /// CPU share of the simulated total (the percentages annotated on
    /// Fig. 7).
    pub fn cpu_fraction(&self, m: &Metrics) -> f64 {
        let total = self.total_time(m).as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            m.cpu.as_secs_f64() / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_fields() {
        let mut a = Metrics {
            cpu: Duration::from_millis(10),
            ..Default::default()
        };
        for (v, c) in (1..).zip(a.counters_mut()) {
            *c = v;
        }
        assert_eq!((a.dominance_checks, a.ipc_bytes), (1, 22), "table order");
        let m = a.merge(&a);
        for ((name, got), v) in Metrics::COUNTERS.iter().zip(m.counters()).zip(a.counters()) {
            assert_eq!(got, 2 * v, "{name}");
        }
        assert_eq!(m.io_total(), 2 * (a.io_reads + a.io_writes));
        assert_eq!(m.cpu, Duration::from_millis(20));
    }

    #[test]
    fn batch_accounts_pairs_and_calls() {
        let mut m = Metrics::default();
        m.batch(9);
        m.batch(0);
        assert_eq!(m.dominance_checks, 9);
        assert_eq!(m.dominance_batch_calls, 2);
        assert_eq!(m.kernel_chunks, 2, "9 pairs span two 8-lane chunks");
    }

    #[test]
    fn cost_model_charges_ios() {
        let m = Metrics {
            io_reads: 100,
            cpu: Duration::from_millis(500),
            ..Default::default()
        };
        let model = CostModel::default();
        assert_eq!(model.total_time(&m), Duration::from_millis(1000));
        assert!((model.cpu_fraction(&m) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn zero_run_has_zero_fraction() {
        let model = CostModel::default();
        assert_eq!(model.cpu_fraction(&Metrics::default()), 0.0);
    }
}
