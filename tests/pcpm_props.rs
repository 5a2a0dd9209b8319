//! Property-based tests for the PCPM layout (compression, edge
//! conservation, PNG/slot-view consistency) against random graphs.

use hipa::core::pcpm::{run_entries, runs};
use hipa::core::PcpmLayout;
use hipa::graph::{Csr, DiGraph, EdgeList};
use proptest::prelude::*;

/// Every slot's destination list and every vertex's intra list, decoded
/// from the run streams: the flags inside each partition's share of
/// `dest_verts` and `intra_dst` are the only message and source boundaries.
fn decode(l: &PcpmLayout) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
    let mut dests = vec![Vec::new(); l.total_msgs as usize];
    let mut intra = vec![Vec::new(); l.num_vertices];
    for p in 0..l.num_partitions {
        let first_slot = l.part_slot_ranges[p].start as usize;
        for (k, dst) in run_entries(l.inbox(p)) {
            dests[first_slot + k].push(dst as u32);
        }
        let (stream, srcs) = l.intra_runs(p);
        for (k, dst) in run_entries(stream) {
            intra[srcs[k] as usize].push(dst as u32);
        }
    }
    (dests, intra)
}

/// The same lists built from the CSR alone: per-destination slot cursors
/// advance in source order, one slot per destination-partition run (per
/// inter-edge without compression).
fn expected_lists(
    csr: &Csr,
    l: &PcpmLayout,
    binned: bool,
    compress: bool,
) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
    let mut dests = vec![Vec::new(); l.total_msgs as usize];
    let mut intra = vec![Vec::new(); l.num_vertices];
    let mut cursors: Vec<u64> = l.part_slot_ranges.iter().map(|r| r.start).collect();
    for v in 0..l.num_vertices as u32 {
        let mut last = usize::MAX;
        for &t in csr.neighbors(v) {
            let q = l.partition_of(t);
            if q == l.partition_of(v) && !binned {
                intra[v as usize].push(t);
                continue;
            }
            if q != last || !compress {
                last = q;
                cursors[q] += 1;
            }
            dests[cursors[q] as usize - 1].push(t);
        }
    }
    (dests, intra)
}

fn graph_strategy() -> impl Strategy<Value = EdgeList> {
    (2usize..200, prop::collection::vec((0u32..200, 0u32..200), 0..800)).prop_map(|(n, pairs)| {
        let edges =
            pairs.into_iter().map(|(s, d)| (s % n as u32, d % n as u32)).collect::<Vec<_>>();
        let mut el = EdgeList::from_pairs(edges);
        // Ensure the declared vertex count covers n even with no edges.
        let el2 = EdgeList::new(n.max(el.num_vertices()), el.edges().to_vec());
        el = el2;
        el.dedup_simplify();
        el
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every edge is represented exactly once (intra + message destinations),
    /// in all four layout modes.
    #[test]
    fn edge_conservation(el in graph_strategy(), vpp in 1usize..64) {
        let csr = Csr::from_edge_list(&el);
        for binned in [false, true] {
            for compress in [false, true] {
                let l = PcpmLayout::build_ext(&csr, vpp, binned, compress);
                prop_assert_eq!(l.total_edges() as usize, el.num_edges(),
                    "binned={} compress={}", binned, compress);
                if !compress {
                    // One destination per message when compression is off.
                    prop_assert_eq!(l.dest_verts.len() as u64, l.total_msgs);
                }
                if binned {
                    prop_assert!(l.intra_dst.is_empty());
                }
            }
        }
    }

    /// Messages never beat physics: compressed count is bounded below by
    /// the number of (source, destination-partition) pairs and above by the
    /// inter-edge count.
    #[test]
    fn compression_bounds(el in graph_strategy(), vpp in 1usize..32) {
        let csr = Csr::from_edge_list(&el);
        let l = PcpmLayout::build(&csr, vpp, false);
        let uncompressed = PcpmLayout::build_ext(&csr, vpp, false, false);
        prop_assert!(l.total_msgs <= uncompressed.total_msgs);
        prop_assert_eq!(l.dest_verts.len(), uncompressed.dest_verts.len());
    }

    /// Every slot is covered by exactly one PNG bin, with the source inside
    /// the bin's source partition and the slot inside the destination
    /// partition's range.
    #[test]
    fn png_covers_slots(el in graph_strategy(), vpp in 1usize..48) {
        let csr = Csr::from_edge_list(&el);
        let l = PcpmLayout::build(&csr, vpp, false);
        let mut covered = vec![false; l.total_msgs as usize];
        for p in 0..l.num_partitions {
            for pair in l.png_of(p) {
                let srcs = l.png_sources(pair);
                prop_assert_eq!(srcs.len(), pair.len as usize);
                for (k, &src) in srcs.iter().enumerate() {
                    let slot = pair.slot_start + k as u64;
                    prop_assert!(!covered[slot as usize]);
                    covered[slot as usize] = true;
                    prop_assert_eq!(l.partition_of(src), p);
                    prop_assert!(l.part_slot_ranges[pair.dst_part as usize].contains(&slot));
                }
            }
        }
        prop_assert!(covered.iter().all(|&c| c));
    }

    /// Destination lists land in the right partition, and intra edges stay
    /// inside their own partition.
    #[test]
    fn destinations_respect_partitions(el in graph_strategy(), vpp in 1usize..48) {
        let csr = Csr::from_edge_list(&el);
        let l = PcpmLayout::build(&csr, vpp, false);
        let (dests, intra) = decode(&l);
        for q in 0..l.num_partitions {
            for k in l.part_slot_ranges[q].clone() {
                for &dst in &dests[k as usize] {
                    prop_assert_eq!(l.partition_of(dst), q);
                }
            }
        }
        for v in 0..l.num_vertices as u32 {
            for &dst in &intra[v as usize] {
                prop_assert_eq!(l.partition_of(dst), l.partition_of(v));
            }
        }
    }

    /// Decoding both run streams reproduces every slot's destination list
    /// and every vertex's intra list, in all four layout modes and with
    /// one-vertex partitions, where every edge is an inter-edge. The run
    /// view and the branch-free decode see the same runs, and the layout
    /// passes `PcpmLayout::kernels`'s check.
    #[test]
    fn run_streams_round_trip(el in graph_strategy(), vpp in 2usize..48) {
        let csr = Csr::from_edge_list(&el);
        for vpp in [1, vpp] {
            for binned in [false, true] {
                for compress in [false, true] {
                    let l = PcpmLayout::build_ext(&csr, vpp, binned, compress);
                    // Every built layout passes the kernels' one-time check.
                    l.kernels(2);
                    let (dests, intra) = decode(&l);
                    let (want_dests, want_intra) = expected_lists(&csr, &l, binned, compress);
                    prop_assert_eq!(&dests, &want_dests,
                        "vpp={} binned={} compress={}", vpp, binned, compress);
                    prop_assert_eq!(&intra, &want_intra,
                        "vpp={} binned={} compress={}", vpp, binned, compress);
                    if vpp == 1 {
                        prop_assert!(l.intra_dst.is_empty() && l.intra_srcs.is_empty());
                    }
                    for q in 0..l.num_partitions {
                        let slots = l.part_slot_ranges[q].clone();
                        let by_run: Vec<usize> = runs(l.inbox(q)).map(|r| r.len()).collect();
                        let by_slot: Vec<usize> =
                            slots.map(|k| dests[k as usize].len()).collect();
                        prop_assert_eq!(by_run, by_slot);
                        let (stream, srcs) = l.intra_runs(q);
                        prop_assert_eq!(runs(stream).count(), srcs.len());
                    }
                }
            }
        }
    }

    /// The layout census agrees with the graph-side census in `hipa-graph`.
    #[test]
    fn layout_census_matches_graph_stats(el in graph_strategy(), vpp in 1usize..48) {
        let csr = Csr::from_edge_list(&el);
        let l = PcpmLayout::build(&csr, vpp, false);
        let c = hipa::graph::stats::partition_census(&csr, vpp);
        prop_assert_eq!(l.intra_dst.len() as u64, c.intra_total);
        prop_assert_eq!(l.dest_verts.len() as u64, c.inter_total);
        prop_assert_eq!(l.total_msgs, c.inter_compressed_total);
    }

    /// CSR round-trips through transpose twice.
    #[test]
    fn csr_double_transpose_roundtrip(el in graph_strategy()) {
        let csr = Csr::from_edge_list(&el);
        prop_assert_eq!(csr.transposed().transposed(), csr);
    }

    /// Out-degrees and in-degrees both sum to |E|.
    #[test]
    fn degree_sums_match(el in graph_strategy()) {
        let g = DiGraph::from_edge_list(&el);
        let out: u64 = (0..g.num_vertices()).map(|v| g.out_degree(v as u32) as u64).sum();
        let inn: u64 = (0..g.num_vertices()).map(|v| g.in_degree(v as u32) as u64).sum();
        prop_assert_eq!(out, el.num_edges() as u64);
        prop_assert_eq!(inn, el.num_edges() as u64);
    }
}
