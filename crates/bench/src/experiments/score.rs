//! F8: the curse of dimensionality (§2.1) — relative distance contrast vs
//! dimensionality for different Minkowski orders.
//!
//! K1: the runtime-dispatched SIMD kernel layer (§2.3 hardware
//! acceleration) against the portable blocked kernels it replaced on the
//! hot path.

use crate::{fmt, print_table, Scale};
use std::hint::black_box;
use std::time::Instant;
use vdb_core::analysis::contrast_at_dim;
use vdb_core::kernel;
use vdb_core::metric::Metric;
use vdb_core::rng::Rng;
use vdb_core::Result;

/// F8: contrast collapse across dimensions and norms.
pub fn f8_curse_of_dimensionality(scale: Scale) -> Result<()> {
    let n = (scale.n() / 4).max(1000);
    let metrics: [(&str, Metric); 4] = [
        ("minkowski_0.5", Metric::Minkowski(0.5)),
        ("l1", Metric::Manhattan),
        ("l2", Metric::Euclidean),
        ("linf", Metric::Chebyshev),
    ];
    let mut rows = Vec::new();
    for dim in [2usize, 4, 8, 16, 32, 64, 128, 256, 512, 1024] {
        let mut row = vec![dim.to_string()];
        for (_, metric) in &metrics {
            let report = contrast_at_dim(dim, n, 10, metric, 0xF8);
            row.push(fmt(report.relative_contrast, 3));
        }
        rows.push(row);
    }
    let headers: Vec<&str> = std::iter::once("dim")
        .chain(metrics.iter().map(|(n, _)| *n))
        .collect();
    print_table(
        &format!("F8: relative distance contrast (d_max - d_min)/d_min, uniform data, n={n}"),
        &headers,
        &rows,
    );
    println!(
        "  Expected shape: contrast collapses as dimensionality grows (nearest\n  \
         neighbors stop being meaningful), and lower-order norms retain more\n  \
         contrast than higher-order ones (Aggarwal et al.; Beyer et al.)."
    );
    Ok(())
}

/// Time `reps` runs of `f` over a buffer of `bytes` bytes; returns
/// (GB/s, ns per output element over `n` elements).
fn scan_rate(bytes: usize, n: usize, reps: usize, mut f: impl FnMut()) -> (f64, f64) {
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    let s = start.elapsed().as_secs_f64();
    ((bytes * reps) as f64 / s / 1e9, s * 1e9 / (reps * n) as f64)
}

/// K1: portable blocked kernels (the pre-dispatch hot path) vs the
/// runtime-dispatched SIMD kernels, on pairwise distance, contiguous batch
/// scoring, and the ADC code scan.
pub fn k1_simd_dispatch() -> Result<()> {
    println!("  active dispatch: {}\n", kernel::dispatch_name());
    let scalar = kernel::kernel_sets()[0];
    let mut rng = Rng::seed_from_u64(0xCA1);
    let mut rows = Vec::new();

    // Pairwise: one query against one vector (graph-expansion shape).
    for dim in [32usize, 64, 128, 256, 1024] {
        let a: Vec<f32> = (0..dim).map(|_| rng.normal_f32()).collect();
        let b: Vec<f32> = (0..dim).map(|_| rng.normal_f32()).collect();
        let bytes = dim * 8;
        let reps = 2_000_000 / dim;
        let (g0, n0) = scan_rate(bytes, 1, reps, || {
            black_box((scalar.l2_sq)(black_box(&a), black_box(&b)));
        });
        let (g1, n1) = scan_rate(bytes, 1, reps, || {
            black_box(kernel::l2_sq(black_box(&a), black_box(&b)));
        });
        rows.push(vec![
            format!("pair l2_sq d={dim}"),
            fmt(g0, 2),
            fmt(g1, 2),
            fmt(g1 / g0, 2),
            fmt(n0, 1),
            fmt(n1, 1),
        ]);
    }

    // Contiguous batch: one query against n rows (flat/IVF-list shape).
    let n = 20_000;
    for dim in [64usize, 256] {
        let q: Vec<f32> = (0..dim).map(|_| rng.normal_f32()).collect();
        let data: Vec<f32> = (0..n * dim).map(|_| rng.normal_f32()).collect();
        let mut out = vec![0.0f32; n];
        let bytes = n * dim * 4;
        let reps = 40;
        let (g0, n0) = scan_rate(bytes, n, reps, || {
            (scalar.l2_sq_batch)(black_box(&q), black_box(&data), dim, &mut out);
            black_box(&out);
        });
        let (g1, n1) = scan_rate(bytes, n, reps, || {
            kernel::l2_sq_batch(black_box(&q), black_box(&data), dim, &mut out);
            black_box(&out);
        });
        rows.push(vec![
            format!("batch l2_sq d={dim} n={n}"),
            fmt(g0, 2),
            fmt(g1, 2),
            fmt(g1 / g0, 2),
            fmt(n0, 1),
            fmt(n1, 1),
        ]);
    }

    // Gathered x4: four rows named by shuffled ids per call (graph-expansion
    // and IVF-list shape), over a table too large for L1/L2.
    let dim = 64usize;
    let q: Vec<f32> = (0..dim).map(|_| rng.normal_f32()).collect();
    let table: Vec<f32> = (0..n * dim).map(|_| rng.normal_f32()).collect();
    let mut ids: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut ids);
    let row = |i: usize| &table[ids[i] * dim..(ids[i] + 1) * dim];
    type X4 = fn(&[f32], &[f32], &[f32], &[f32], &[f32]) -> [f32; 4];
    let gather = |x4: X4| {
        for i in (0..n).step_by(4) {
            black_box(x4(
                black_box(&q),
                row(i),
                row(i + 1),
                row(i + 2),
                row(i + 3),
            ));
        }
    };
    let bytes = n * dim * 4;
    let (g0, n0) = scan_rate(bytes, n, 40, || gather(scalar.l2_sq_x4));
    let (g1, n1) = scan_rate(bytes, n, 40, || gather(kernel::l2_sq_x4));
    rows.push(vec![
        format!("gather l2_sq_x4 d={dim} n={n}"),
        fmt(g0, 2),
        fmt(g1, 2),
        fmt(g1 / g0, 2),
        fmt(n0, 1),
        fmt(n1, 1),
    ]);

    // ADC scan: m-byte PQ codes against an m × ksub table (IVFADC shape).
    // Baseline is the naive per-code lookup loop the scan kernel replaced.
    let (m, ksub, ncodes) = (16usize, 256usize, 100_000usize);
    let table: Vec<f32> = (0..m * ksub).map(|_| rng.f32() * 4.0).collect();
    let codes: Vec<u8> = (0..m * ncodes).map(|_| rng.below(256) as u8).collect();
    let mut out = vec![0.0f32; ncodes];
    let bytes = m * ncodes;
    let reps = 50;
    let (g0, n0) = scan_rate(bytes, ncodes, reps, || {
        kernel::adc_scan_scalar(black_box(&table), ksub, black_box(&codes), m, &mut out);
        black_box(&out);
    });
    let (g1, n1) = scan_rate(bytes, ncodes, reps, || {
        kernel::adc_scan(black_box(&table), ksub, black_box(&codes), m, &mut out);
        black_box(&out);
    });
    rows.push(vec![
        format!("adc_scan m={m} ksub={ksub}"),
        fmt(g0, 2),
        fmt(g1, 2),
        fmt(g1 / g0, 2),
        fmt(n0, 1),
        fmt(n1, 1),
    ]);

    // SQ8 batch: byte codes decoded against a full-precision query.
    let dim = 128usize;
    let q: Vec<f32> = (0..dim).map(|_| rng.normal_f32()).collect();
    let min: Vec<f32> = (0..dim).map(|_| rng.normal_f32()).collect();
    let step: Vec<f32> = (0..dim).map(|_| rng.f32() * 0.1).collect();
    let sq_codes: Vec<u8> = (0..dim * n).map(|_| rng.below(256) as u8).collect();
    let mut out = vec![0.0f32; n];
    let bytes = dim * n;
    let (g0, n0) = scan_rate(bytes, n, 40, || {
        (scalar.sq8_l2_batch)(
            black_box(&q),
            black_box(&sq_codes),
            black_box(&min),
            black_box(&step),
            &mut out,
        );
        black_box(&out);
    });
    let (g1, n1) = scan_rate(bytes, n, 40, || {
        kernel::sq8_l2_sq_batch(
            black_box(&q),
            black_box(&sq_codes),
            black_box(&min),
            black_box(&step),
            &mut out,
        );
        black_box(&out);
    });
    rows.push(vec![
        format!("sq8 batch d={dim} n={n}"),
        fmt(g0, 2),
        fmt(g1, 2),
        fmt(g1 / g0, 2),
        fmt(n0, 1),
        fmt(n1, 1),
    ]);

    print_table(
        "K1: blocked-scalar vs runtime-dispatched SIMD kernels",
        &[
            "kernel",
            "scalar_GB/s",
            "simd_GB/s",
            "speedup",
            "scalar_ns",
            "simd_ns",
        ],
        &rows,
    );
    println!(
        "  Expected shape: with a SIMD backend active, batch and ADC scans gain\n  \
         the most (multi-row blocking + vector gathers); pairwise kernels gain\n  \
         less at small d where the horizontal sum dominates. Under\n  \
         VDB_FORCE_SCALAR=1 every speedup is 1.0 by construction."
    );
    Ok(())
}
