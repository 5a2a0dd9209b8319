//! Weighted SpMV under the partition-centric layout.
//!
//! The unweighted layout compresses all inter-edges from one source into a
//! single message because they carry the same value. With weights, the
//! *value* is still shared (`x[src]`); the per-edge weight is applied at the
//! destination, where the weight array is stored permuted into the same
//! order as the destination lists — so gather still streams two parallel
//! arrays sequentially. This is how a weighted PCPM keeps the compression
//! benefit.

use hipa_core::pcpm::{run_entries, run_vertex};
use hipa_core::PcpmLayout;
use hipa_graph::WeightedCsr;

/// Weighted SpMV layout: the PCPM structure plus weights permuted into
/// intra-edge order and destination-list (slot) order.
#[derive(Debug, Clone)]
pub struct WeightedPcpm {
    pub layout: PcpmLayout,
    /// Weight of `layout.intra_dst[i]` (the run stream's order).
    pub intra_weights: Vec<f32>,
    /// Weight of `layout.dest_verts[i]`.
    pub dest_weights: Vec<f32>,
}

impl WeightedPcpm {
    /// Builds the weighted layout from a weighted CSR.
    pub fn build(w: &WeightedCsr, verts_per_partition: usize) -> Self {
        let layout = PcpmLayout::build(w.csr(), verts_per_partition, false);
        // Replay the layout's construction order to permute weights: for
        // each source vertex, its sorted adjacency splits into intra entries
        // (in order) and inter entries; messages fill each destination
        // partition's inbox in source order, so every inter entry lands at
        // the next position of its destination's inbox cursor.
        let mut intra_weights = vec![0.0f32; layout.intra_dst.len()];
        let mut dest_weights = vec![0.0f32; layout.dest_verts.len()];
        let mut intra_cur = 0usize;
        let mut cursors: Vec<u64> = layout.part_dest_ranges.iter().map(|r| r.start).collect();
        let vpp = layout.verts_per_partition;
        for v in 0..w.num_vertices() as u32 {
            let pv = v as usize / vpp;
            for (t, weight) in w.neighbors(v) {
                let pt = t as usize / vpp;
                if pt == pv {
                    debug_assert_eq!(run_vertex(layout.intra_dst[intra_cur]), t as usize);
                    intra_weights[intra_cur] = weight;
                    intra_cur += 1;
                    continue;
                }
                let fill = cursors[pt] as usize;
                debug_assert_eq!(run_vertex(layout.dest_verts[fill]), t as usize);
                dest_weights[fill] = weight;
                cursors[pt] += 1;
            }
        }
        WeightedPcpm { layout, intra_weights, dest_weights }
    }
}

/// Sequential weighted SpMV reference: `y[v] = Σ_{(u,v,w)} w · x[u]`.
pub fn wspmv_reference(w: &WeightedCsr, x: &[f32]) -> Vec<f32> {
    let n = w.num_vertices();
    assert_eq!(x.len(), n);
    let mut y = vec![0.0f32; n];
    for u in 0..n as u32 {
        let xu = x[u as usize];
        for (v, weight) in w.neighbors(u) {
            y[v as usize] += weight * xu;
        }
    }
    y
}

/// Partition-centric weighted SpMV (single-threaded scatter/gather over the
/// weighted layout — the cache-locality structure is the point; the
/// multithreaded variant follows `spmv_partition_centric` exactly).
pub fn wspmv_partition_centric(w: &WeightedCsr, x: &[f32], verts_per_partition: usize) -> Vec<f32> {
    let n = w.num_vertices();
    assert_eq!(x.len(), n);
    if n == 0 {
        return Vec::new();
    }
    let wl = WeightedPcpm::build(w, verts_per_partition.max(1));
    let l = &wl.layout;
    let mut y = vec![0.0f32; n];
    let mut vals = vec![0.0f32; l.total_msgs as usize];
    // Scatter: intra edges apply weight immediately; messages carry x[src].
    for p in 0..l.num_partitions {
        let (stream, srcs) = l.intra_runs(p);
        let weights = &wl.intra_weights[l.part_intra_ranges[p].start as usize..];
        for ((i, dst), &weight) in run_entries(stream).zip(weights) {
            y[dst] += weight * x[srcs[i] as usize];
        }
        for pair in l.png_of(p) {
            for (k, &src) in l.png_sources(pair).iter().enumerate() {
                vals[pair.slot_start as usize + k] = x[src as usize];
            }
        }
    }
    // Gather: weights applied from the permuted per-destination array.
    for q in 0..l.num_partitions {
        let vals = &vals[l.part_slot_ranges[q].start as usize..];
        let weights = &wl.dest_weights[l.part_dest_ranges[q].start as usize..];
        for ((k, dst), &weight) in run_entries(l.inbox(q)).zip(weights) {
            y[dst] += weight * vals[k];
        }
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipa_graph::{EdgeList, WeightedEdge};

    fn close(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= 1e-4 * y.abs().max(1.0))
    }

    #[test]
    fn tiny_weighted_case() {
        let w = WeightedCsr::from_weighted_edges(
            3,
            &[
                WeightedEdge { src: 0, dst: 1, weight: 2.0 },
                WeightedEdge { src: 0, dst: 2, weight: 3.0 },
                WeightedEdge { src: 1, dst: 2, weight: 5.0 },
            ],
        );
        let x = vec![1.0, 10.0, 100.0];
        let y = wspmv_reference(&w, &x);
        assert_eq!(y, vec![0.0, 2.0, 53.0]);
        assert_eq!(wspmv_partition_centric(&w, &x, 1), y);
    }

    #[test]
    fn matches_reference_on_random_weighted_graph() {
        let g = hipa_graph::datasets::small_test_graph(120);
        let el = EdgeList::new(
            g.num_vertices(),
            g.out_csr().iter_edges().map(|(s, d)| hipa_graph::Edge::new(s, d)).collect(),
        );
        let w = WeightedCsr::random_weights(&el, 0.1, 2.0, 4);
        let x: Vec<f32> = (0..w.num_vertices()).map(|i| ((i * 13) % 7) as f32 - 3.0).collect();
        let want = wspmv_reference(&w, &x);
        for vpp in [16usize, 100, 4096] {
            let got = wspmv_partition_centric(&w, &x, vpp);
            assert!(close(&got, &want), "vpp {vpp}");
        }
    }

    #[test]
    fn unit_weights_reduce_to_unweighted_spmv() {
        let g = hipa_graph::datasets::small_test_graph(121);
        let w = WeightedCsr::unit_weights(g.out_csr().clone());
        let x: Vec<f32> = (0..g.num_vertices()).map(|i| 1.0 / (1 + i % 9) as f32).collect();
        let weighted = wspmv_partition_centric(&w, &x, 64);
        let unweighted = crate::spmv::spmv_partition_centric(&g, &x, 1, 64);
        assert_eq!(weighted, unweighted);
    }

    #[test]
    fn weight_permutation_is_exact() {
        // Every (edge, weight) pair must survive the permutation: recover the
        // multiset of (dst, weight) per source partition.
        let g = hipa_graph::datasets::small_test_graph(122);
        let el = EdgeList::new(
            g.num_vertices(),
            g.out_csr().iter_edges().map(|(s, d)| hipa_graph::Edge::new(s, d)).collect(),
        );
        let w = WeightedCsr::random_weights(&el, 1.0, 9.0, 8);
        let wl = WeightedPcpm::build(&w, 64);
        let total_carried = wl.intra_weights.len() + wl.dest_weights.len();
        assert_eq!(total_carried, w.num_edges());
        let sum_src: f64 = w.weights_raw().iter().map(|&x| x as f64).sum();
        let sum_dst: f64 =
            wl.intra_weights.iter().chain(wl.dest_weights.iter()).map(|&x| x as f64).sum();
        assert!((sum_src - sum_dst).abs() < 1e-3);
    }
}
