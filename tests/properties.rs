//! Property-based tests over core invariants.
//!
//! These were originally written against an external property-testing
//! crate; to keep the workspace dependency-free they now run as seeded
//! deterministic sweeps over the vendored [`vdb_core::rng::Rng`]. Each
//! test draws many random cases from a fixed seed, so failures reproduce
//! exactly and the suite builds with no network access.

use std::sync::Arc;
use vdb_core::bitset::BitSet;
use vdb_core::kernel;
use vdb_core::linalg::Matrix;
use vdb_core::metric::Metric;
use vdb_core::rng::Rng;
use vdb_core::topk::{top_k_by_sort, Neighbor, TopK};
use vdb_core::vector::Vectors;
use vdb_quant::{PqConfig, ProductQuantizer, ScalarQuantizer, SqBits};

const CASES: usize = 64;

/// A finite f32 vector with components in `[-100, 100)`.
fn vec_of(rng: &mut Rng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.f32() * 200.0 - 100.0).collect()
}

#[test]
fn true_metrics_satisfy_axioms() {
    let mut rng = Rng::seed_from_u64(0xA1);
    for _ in 0..CASES {
        let a = vec_of(&mut rng, 8);
        let b = vec_of(&mut rng, 8);
        let c = vec_of(&mut rng, 8);
        for metric in [
            Metric::Euclidean,
            Metric::Manhattan,
            Metric::Chebyshev,
            Metric::Minkowski(3.0),
        ] {
            let dab = metric.distance(&a, &b);
            let dba = metric.distance(&b, &a);
            let daa = metric.distance(&a, &a);
            let dac = metric.distance(&a, &c);
            let dcb = metric.distance(&c, &b);
            // Symmetry, identity, non-negativity, triangle inequality
            // (with float slack).
            assert!((dab - dba).abs() <= 1e-3 * dab.abs().max(1.0));
            assert!(daa.abs() < 1e-3);
            assert!(dab >= 0.0);
            assert!(
                dab <= dac + dcb + 1e-2 * (dac + dcb).max(1.0),
                "{}: d(a,b)={dab} > d(a,c)+d(c,b)={}",
                metric.name(),
                dac + dcb
            );
        }
    }
}

#[test]
fn blocked_kernels_match_scalar() {
    let mut rng = Rng::seed_from_u64(0xA2);
    for _ in 0..CASES {
        let a = vec_of(&mut rng, 37);
        let b = vec_of(&mut rng, 37);
        let scale = kernel::l2_sq_scalar(&a, &b).max(1.0);
        assert!((kernel::l2_sq(&a, &b) - kernel::l2_sq_scalar(&a, &b)).abs() <= 1e-3 * scale);
        let dscale = kernel::dot_scalar(&a, &b).abs().max(1.0);
        assert!((kernel::dot(&a, &b) - kernel::dot_scalar(&a, &b)).abs() <= 1e-3 * dscale);
        let lscale = kernel::l1_scalar(&a, &b).max(1.0);
        assert!((kernel::l1(&a, &b) - kernel::l1_scalar(&a, &b)).abs() <= 1e-3 * lscale);
    }
}

/// Inside one backend every call shape of a kernel reduces in the same
/// order, so a (query, row) pair gets the same bits from the single-pair,
/// four-row and batch entries, and from each `Metric` entry point.
#[test]
fn call_shapes_agree_bit_for_bit() {
    let mut rng = Rng::seed_from_u64(0xAB);
    for set in kernel::kernel_sets() {
        let pair_shapes = [
            ("l2_sq", set.l2_sq, set.l2_sq_x4, set.l2_sq_batch),
            ("dot", set.dot, set.dot_x4, set.dot_batch),
        ];
        for dim in 1..=130 {
            for n in [1usize, 3, 4, 5, 9] {
                let q = vec_of(&mut rng, dim);
                let rows = vec_of(&mut rng, n * dim);
                let row = |i: usize| &rows[(i % n) * dim..(i % n + 1) * dim];
                let mut batch = vec![0.0; n];
                for (name, single, x4, batch_fn) in pair_shapes {
                    batch_fn(&q, &rows, dim, &mut batch);
                    for (i, got) in batch.iter().enumerate() {
                        let want = single(&q, row(i)).to_bits();
                        let ctx = format!("{} {name} d={dim} n={n} row {i}", set.name);
                        assert_eq!(got.to_bits(), want, "{ctx}: batch");
                        // Row i in each of the four x4 slots.
                        for slot in 0..4 {
                            let r = |k: usize| row(i + (k + 4 - slot) % 4);
                            let got = x4(&q, r(0), r(1), r(2), r(3))[slot];
                            assert_eq!(got.to_bits(), want, "{ctx}: x4 slot {slot}");
                        }
                    }
                }
                let codes: Vec<u8> = (0..n * dim).map(|_| rng.below(256) as u8).collect();
                let min = vec_of(&mut rng, dim);
                let step: Vec<f32> = (0..dim).map(|_| rng.f32()).collect();
                (set.sq8_l2_batch)(&q, &codes, &min, &step, &mut batch);
                for i in 0..n {
                    let single = (set.sq8_l2)(&q, &codes[i * dim..(i + 1) * dim], &min, &step);
                    assert_eq!(
                        batch[i].to_bits(),
                        single.to_bits(),
                        "{} sq8_l2 d={dim} n={n} row {i}",
                        set.name
                    );
                }
            }
        }
    }

    // The Metric entry points over the dispatched kernels.
    for dim in 1..=130 {
        let n = 9;
        let mut data = Vectors::new(dim);
        for _ in 0..n {
            data.push(&vec_of(&mut rng, dim)).unwrap();
        }
        let q = vec_of(&mut rng, dim);
        let ids: Vec<u32> = (0..n as u32).rev().collect();
        let weights: Vec<f32> = (0..dim).map(|_| rng.f32()).collect();
        let metrics = [
            Metric::SquaredEuclidean,
            Metric::Euclidean,
            Metric::Manhattan,
            Metric::Chebyshev,
            Metric::Minkowski(3.0),
            Metric::InnerProduct,
            Metric::Cosine,
            Metric::Hamming,
            Metric::Mahalanobis(Arc::new(Matrix::identity(dim))),
            Metric::WeightedL2(Arc::new(weights)),
        ];
        for m in metrics {
            let mut batch = vec![0.0; n];
            m.distance_batch(&q, data.as_flat(), dim, &mut batch);
            let mut gathered = vec![0.0; n];
            m.distance_gather(&q, &data, &ids, &mut gathered);
            for (i, got) in batch.iter().enumerate() {
                let want = m.distance(&q, data.get(i)).to_bits();
                let ctx = format!("{} {} d={dim} row {i}", kernel::dispatch_name(), m.name());
                assert_eq!(got.to_bits(), want, "{ctx}: distance_batch");
                let slot = n - 1 - i;
                assert_eq!(gathered[slot].to_bits(), want, "{ctx}: distance_gather");
            }
        }
    }
}

#[test]
fn topk_equals_sort_oracle() {
    let mut rng = Rng::seed_from_u64(0xA3);
    for _ in 0..CASES {
        let n = 1 + rng.below(199);
        let k = 1 + rng.below(49);
        let cands: Vec<Neighbor> = (0..n)
            .map(|i| Neighbor::new(i, rng.f32() * 1000.0))
            .collect();
        let mut top = TopK::new(k);
        for &c in &cands {
            top.push(c);
        }
        assert_eq!(top.into_sorted(), top_k_by_sort(cands, k));
    }
}

#[test]
fn sq8_roundtrip_error_bounded() {
    let mut rng = Rng::seed_from_u64(0xA4);
    for _ in 0..CASES {
        let rows: Vec<Vec<f32>> = (0..2 + rng.below(38))
            .map(|_| vec_of(&mut rng, 6))
            .collect();
        let mut data = Vectors::new(6);
        for r in &rows {
            data.push(r).unwrap();
        }
        let sq = ScalarQuantizer::train(&data, SqBits::B8).unwrap();
        let bound = sq.max_component_error() + 1e-4;
        for r in &rows {
            let dec = sq.decode(&sq.encode(r).unwrap());
            for (x, y) in r.iter().zip(&dec) {
                assert!((x - y).abs() <= bound, "{x} vs {y} (bound {bound})");
            }
        }
    }
}

#[test]
fn pq_adc_consistent_with_decode() {
    let mut rng = Rng::seed_from_u64(0xA5);
    for _ in 0..16 {
        let rows: Vec<Vec<f32>> = (0..20 + rng.below(40))
            .map(|_| vec_of(&mut rng, 8))
            .collect();
        let q = vec_of(&mut rng, 8);
        let mut data = Vectors::new(8);
        for r in &rows {
            data.push(r).unwrap();
        }
        let pq = ProductQuantizer::train(
            &data,
            &PqConfig {
                m: 2,
                nbits: 4,
                train_iters: 4,
                seed: 1,
            },
        )
        .unwrap();
        let table = pq.adc_table(&q).unwrap();
        // The reusable-table path must agree with the allocating one.
        let mut reused = vdb_quant::AdcTable::default();
        pq.adc_table_into(&q, &mut reused).unwrap();
        for r in rows.iter().take(10) {
            let code = pq.encode(r).unwrap();
            let adc = table.distance(&code);
            let direct = kernel::l2_sq(&q, &pq.decode(&code));
            assert!((adc - direct).abs() <= 1e-2 * direct.max(1.0));
            assert_eq!(adc, reused.distance(&code));
        }
    }
}

#[test]
fn bitset_behaves_like_hashset() {
    let mut rng = Rng::seed_from_u64(0xA6);
    for _ in 0..CASES {
        let mut bits = BitSet::new(200);
        let mut model = std::collections::HashSet::new();
        for _ in 0..1 + rng.below(149) {
            let id = rng.below(200);
            if rng.below(2) == 0 {
                bits.insert(id);
                model.insert(id);
            } else {
                bits.remove(id);
                model.remove(&id);
            }
        }
        assert_eq!(bits.count(), model.len());
        let mut from_bits: Vec<usize> = bits.iter().collect();
        let mut from_model: Vec<usize> = model.into_iter().collect();
        from_bits.sort_unstable();
        from_model.sort_unstable();
        assert_eq!(from_bits, from_model);
    }
}

#[test]
fn vql_numbers_roundtrip() {
    let mut rng = Rng::seed_from_u64(0xA8);
    for _ in 0..CASES {
        let xs: Vec<f32> = (0..1 + rng.below(11))
            .map(|_| rng.f32() * 2000.0 - 1000.0)
            .collect();
        let k = 1 + rng.below(49);
        let literal: Vec<String> = xs.iter().map(|x| format!("{x}")).collect();
        let stmt = format!("SEARCH c K {k} NEAR [{}]", literal.join(", "));
        match vdb::parse_vql(&stmt).unwrap() {
            vdb::VqlStatement::Search { vector, k: pk, .. } => {
                assert_eq!(pk, k);
                assert_eq!(vector.len(), xs.len());
                for (a, b) in vector.iter().zip(&xs) {
                    assert!((a - b).abs() <= 1e-3 * b.abs().max(1.0));
                }
            }
            _ => panic!("wrong statement kind"),
        }
    }
}

#[test]
fn flat_search_sorted_unique_and_bounded() {
    let mut rng = Rng::seed_from_u64(0xA9);
    for _ in 0..CASES {
        let rows: Vec<Vec<f32>> = (0..1 + rng.below(59))
            .map(|_| vec_of(&mut rng, 3))
            .collect();
        let q = vec_of(&mut rng, 3);
        let k = 1 + rng.below(19);
        let mut data = Vectors::new(3);
        for r in &rows {
            data.push(r).unwrap();
        }
        let n = data.len();
        let idx = vdb_core::FlatIndex::build(data, Metric::Euclidean).unwrap();
        let hits =
            vdb_core::VectorIndex::search(&idx, &q, k, &vdb_core::SearchParams::default()).unwrap();
        assert_eq!(hits.len(), k.min(n));
        assert!(hits.windows(2).all(|w| w[0].dist <= w[1].dist));
        let ids: std::collections::HashSet<usize> = hits.iter().map(|h| h.id).collect();
        assert_eq!(ids.len(), hits.len());
    }
}
