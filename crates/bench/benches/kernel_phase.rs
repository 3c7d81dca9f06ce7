//! Dominance kernel in isolation: scalar vs lane-chunked over a full
//! block scan, across dimensionalities and block sizes.
//!
//! The candidate is the all-zero point, which nothing with positive
//! coordinates can dominate, so every call scans the whole block — the
//! worst case the lane kernel exists for. Both variants run in a single thread on
//! the same [`PointBlock`] via the per-instance kernel override, so the
//! ratio is pure kernel shape (AoS row walk vs SoA `[u32; 8]` chunks),
//! not data or scheduling.

mod common;

use criterion::{criterion_main, Criterion};
use skyline::{Kernel, PointBlock};
use std::hint::black_box;

/// Fixed-seed coordinate stream (a 64-bit LCG).
fn fill(block: &mut PointBlock, dims: usize, n: usize) {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut coords = vec![0u32; dims];
    for _ in 0..n {
        for c in coords.iter_mut() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *c = (state >> 33) as u32 % 1000 + 1;
        }
        block.push(&coords);
    }
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel_phase");
    for dims in [2usize, 4, 8, 16] {
        for n in [10_000usize, 100_000] {
            let mut base = PointBlock::new(dims);
            fill(&mut base, dims, n);
            let cand = vec![0u32; dims];
            for kernel in [Kernel::Scalar, Kernel::Lanes] {
                let block = base.clone().with_kernel(kernel);
                g.bench_function(format!("{}/d{dims}/n{n}", kernel.name()), |b| {
                    b.iter(|| {
                        let (hit, examined) = block.dominated(black_box(&cand));
                        assert!(!hit);
                        black_box(examined)
                    })
                });
            }
        }
    }
    g.finish();
}

fn benches() {
    let mut c = common::config();
    bench(&mut c);
}
criterion_main!(benches);
