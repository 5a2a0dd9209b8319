//! The PCPM layout builder must produce exactly the layout of the classic
//! four-pass sequential builder for every graph shape, partition size,
//! binning mode, compression mode, worker count and chunk decomposition.
//! That builder is kept below as the test oracle: it counts, assigns slots,
//! fills destination lists, then sorts each source partition's
//! `(dst_part, slot, src)` triples into the PNG view. It emits the classic
//! offset form (`intra_offsets`, `dest_offsets`); `flagged` converts that to
//! the run-encoded `PcpmLayout`. Its per-vertex message arrays are internal
//! to it. `PcpmLayout` derives `PartialEq` over every array, so one
//! `assert_eq!` covers the whole structure.

use hipa::core::pcpm::{PngPair, RUN_FLAG};
use hipa::core::PcpmLayout;
use hipa::graph::{Csr, DiGraph, EdgeList};
use proptest::prelude::*;
use std::ops::Range;

/// The oracle's output: the layout with per-vertex intra offsets and
/// per-slot destination offsets instead of run flags.
struct OffsetLayout {
    verts_per_partition: usize,
    num_partitions: usize,
    num_vertices: usize,
    intra_offsets: Vec<u64>,
    intra_dst: Vec<u32>,
    part_slot_ranges: Vec<Range<u64>>,
    dest_offsets: Vec<u64>,
    dest_verts: Vec<u32>,
    total_msgs: u64,
    include_intra_in_bins: bool,
    png_index: Vec<Range<u32>>,
    png_pairs: Vec<PngPair>,
    png_src: Vec<u32>,
}

/// Converts the offset form to the run encoding: flags the first entry of
/// every non-empty intra list and every message, lists the sources with
/// intra-edges, and cuts both streams into per-partition ranges.
fn flagged(o: OffsetLayout) -> PcpmLayout {
    let OffsetLayout { mut intra_dst, intra_offsets, mut dest_verts, dest_offsets, .. } = o;
    let vpp = o.verts_per_partition;
    let mut intra_srcs = Vec::new();
    let mut part_intra_ranges = Vec::new();
    let mut part_intra_src_ranges = Vec::new();
    let mut part_dest_ranges = Vec::new();
    for p in 0..o.num_partitions {
        let (lo, hi) = ((p * vpp).min(o.num_vertices), ((p + 1) * vpp).min(o.num_vertices));
        let srcs_start = intra_srcs.len() as u32;
        for v in lo..hi {
            if intra_offsets[v] < intra_offsets[v + 1] {
                intra_dst[intra_offsets[v] as usize] |= RUN_FLAG;
                intra_srcs.push(v as u32);
            }
        }
        part_intra_ranges.push(intra_offsets[lo]..intra_offsets[hi]);
        part_intra_src_ranges.push(srcs_start..intra_srcs.len() as u32);
        let slots = o.part_slot_ranges[p].clone();
        for k in slots.clone() {
            dest_verts[dest_offsets[k as usize] as usize] |= RUN_FLAG;
        }
        part_dest_ranges.push(dest_offsets[slots.start as usize]..dest_offsets[slots.end as usize]);
    }
    PcpmLayout {
        verts_per_partition: vpp,
        num_partitions: o.num_partitions,
        num_vertices: o.num_vertices,
        intra_dst,
        intra_srcs,
        part_intra_ranges,
        part_intra_src_ranges,
        part_slot_ranges: o.part_slot_ranges,
        part_dest_ranges,
        dest_verts,
        total_msgs: o.total_msgs,
        include_intra_in_bins: o.include_intra_in_bins,
        png_index: o.png_index,
        png_pairs: o.png_pairs,
        png_src: o.png_src,
    }
}

/// The oracle in the layout's run-encoded form.
fn oracle(csr: &Csr, vpp: usize, include_intra_in_bins: bool, compress_inter: bool) -> PcpmLayout {
    flagged(build_seq_oracle(csr, vpp, include_intra_in_bins, compress_inter))
}

/// The sequential four-pass reference builder.
fn build_seq_oracle(
    csr: &Csr,
    verts_per_partition: usize,
    include_intra_in_bins: bool,
    compress_inter: bool,
) -> OffsetLayout {
    assert!(verts_per_partition >= 1);
    let n = csr.num_vertices();
    let num_partitions = n.div_ceil(verts_per_partition).max(1);
    let part_of = |v: u32| v as usize / verts_per_partition;

    // Pass 1: count intra edges per vertex, messages per vertex, and
    // messages per destination partition. Neighbour lists are sorted, so
    // each destination partition appears as one contiguous run.
    let mut intra_offsets = vec![0u64; n + 1];
    let mut msg_offsets = vec![0u64; n + 1];
    let mut msgs_per_part = vec![0u64; num_partitions];
    for v in 0..n as u32 {
        let pv = part_of(v);
        let mut last = usize::MAX;
        let mut intra = 0u64;
        let mut msgs = 0u64;
        debug_assert!(
            csr.neighbors(v).windows(2).all(|w| w[0] <= w[1]),
            "adjacency must be sorted"
        );
        for &t in csr.neighbors(v) {
            let pt = part_of(t);
            if pt == pv && !include_intra_in_bins {
                intra += 1;
                continue;
            }
            // Sorted neighbours make destination partitions monotone, so
            // each partition is one contiguous run.
            if pt != last || !compress_inter {
                msgs += 1;
                msgs_per_part[pt] += 1;
                last = pt;
            }
        }
        intra_offsets[v as usize + 1] = intra_offsets[v as usize] + intra;
        msg_offsets[v as usize + 1] = msg_offsets[v as usize] + msgs;
    }
    let total_intra = intra_offsets[n];
    let total_msgs = msg_offsets[n];

    let mut part_slot_ranges = Vec::with_capacity(num_partitions);
    let mut acc = 0u64;
    for q in 0..num_partitions {
        part_slot_ranges.push(acc..acc + msgs_per_part[q]);
        acc += msgs_per_part[q];
    }
    debug_assert_eq!(acc, total_msgs);

    // Pass 2: assign slots (per-destination cursors advance in source
    // order) and record per-slot destination counts.
    let mut intra_dst = vec![0u32; total_intra as usize];
    let mut msg_dst_part = vec![0u32; total_msgs as usize];
    let mut msg_slot = vec![0u64; total_msgs as usize];
    let mut slot_dest_count = vec![0u64; total_msgs as usize];
    let mut cursors: Vec<u64> = part_slot_ranges.iter().map(|r| r.start).collect();
    let mut intra_cur = 0usize;
    let mut msg_cur = 0usize;
    for v in 0..n as u32 {
        let pv = part_of(v);
        let mut run_part = usize::MAX;
        let mut run_slot = 0u64;
        for &t in csr.neighbors(v) {
            let pt = part_of(t);
            if pt == pv && !include_intra_in_bins {
                intra_dst[intra_cur] = t;
                intra_cur += 1;
                continue;
            }
            if pt != run_part || !compress_inter {
                run_part = pt;
                run_slot = cursors[pt];
                cursors[pt] += 1;
                msg_dst_part[msg_cur] = pt as u32;
                msg_slot[msg_cur] = run_slot;
                msg_cur += 1;
            }
            slot_dest_count[run_slot as usize] += 1;
        }
    }
    debug_assert_eq!(intra_cur as u64, total_intra);
    debug_assert_eq!(msg_cur as u64, total_msgs);

    // Destination lists in slot order.
    let mut dest_offsets = vec![0u64; total_msgs as usize + 1];
    for k in 0..total_msgs as usize {
        dest_offsets[k + 1] = dest_offsets[k] + slot_dest_count[k];
    }
    let total_dests = dest_offsets[total_msgs as usize];
    let mut dest_verts = vec![0u32; total_dests as usize];
    // Pass 3: fill destination lists; reuse per-slot fill cursors.
    let mut fill: Vec<u64> = dest_offsets[..total_msgs as usize].to_vec();
    let mut msg_cur = 0usize;
    for v in 0..n as u32 {
        let pv = part_of(v);
        let mut run_part = usize::MAX;
        let mut run_slot = 0u64;
        for &t in csr.neighbors(v) {
            let pt = part_of(t);
            if pt == pv && !include_intra_in_bins {
                continue;
            }
            if pt != run_part || !compress_inter {
                run_part = pt;
                run_slot = msg_slot[msg_cur];
                msg_cur += 1;
            }
            let f = &mut fill[run_slot as usize];
            dest_verts[*f as usize] = t;
            *f += 1;
        }
    }

    // Pass 4: the PNG scatter view. Within one source partition, the
    // slots destined to a given partition are contiguous and ascending
    // (the per-destination cursor advances in source order), so grouping
    // p's messages by destination yields one (slot range, source list)
    // bin per destination partition.
    let mut png_index = Vec::with_capacity(num_partitions);
    let mut png_pairs: Vec<PngPair> = Vec::new();
    let mut png_src = vec![0u32; total_msgs as usize];
    let mut src_cur = 0u64;
    let mut triples: Vec<(u32, u64, u32)> = Vec::new(); // (q, slot, v)
    for p in 0..num_partitions {
        let v_lo = (p * verts_per_partition).min(n);
        let v_hi = ((p + 1) * verts_per_partition).min(n);
        triples.clear();
        for v in v_lo as u32..v_hi as u32 {
            let lo = msg_offsets[v as usize] as usize;
            let hi = msg_offsets[v as usize + 1] as usize;
            for k in lo..hi {
                triples.push((msg_dst_part[k], msg_slot[k], v));
            }
        }
        triples.sort_unstable();
        let pairs_start = png_pairs.len() as u32;
        let mut i = 0usize;
        while i < triples.len() {
            let q = triples[i].0;
            let slot_start = triples[i].1;
            let src_start = src_cur;
            let mut len = 0u32;
            while i < triples.len() && triples[i].0 == q {
                debug_assert_eq!(triples[i].1, slot_start + len as u64, "slots not contiguous");
                png_src[src_cur as usize] = triples[i].2;
                src_cur += 1;
                len += 1;
                i += 1;
            }
            png_pairs.push(PngPair { dst_part: q, slot_start, src_start, len });
        }
        png_index.push(pairs_start..png_pairs.len() as u32);
    }
    debug_assert_eq!(src_cur, total_msgs);

    OffsetLayout {
        verts_per_partition,
        num_partitions,
        num_vertices: n,
        intra_offsets,
        intra_dst,
        part_slot_ranges,
        dest_offsets,
        dest_verts,
        total_msgs,
        include_intra_in_bins,
        png_index,
        png_pairs,
        png_src,
    }
}

fn graphs() -> Vec<(&'static str, DiGraph)> {
    use hipa::graph::gen::*;
    let hub: Vec<_> = (1..200u32).flat_map(|v| [(0, v).into(), (v, 0).into()]).collect();
    vec![
        ("empty", DiGraph::from_edge_list(&EdgeList::new(0, Vec::new()))),
        ("all-dangling", DiGraph::from_edge_list(&EdgeList::new(90, Vec::new()))),
        ("single-hub", DiGraph::from_edge_list(&EdgeList::new(200, hub))),
        ("cycle", DiGraph::from_edge_list(&cycle(64))),
        ("star", DiGraph::from_edge_list(&star(40))),
        ("path-dangling", DiGraph::from_edge_list(&path(50))),
        ("grid", DiGraph::from_edge_list(&grid(8, 9))),
        ("rmat", hipa::graph::datasets::small_test_graph(7)),
        (
            "zipf-local",
            DiGraph::from_edge_list(&zipf_graph(
                &ZipfParams {
                    num_vertices: 900,
                    mean_degree: 9.0,
                    locality: 0.4,
                    block_size: 128,
                    ..Default::default()
                },
                11,
            )),
        ),
        ("er", DiGraph::from_edge_list(&erdos_renyi(300, 2400, 5))),
    ]
}

#[test]
fn parallel_layout_is_bit_identical_to_sequential() {
    for (gname, g) in graphs() {
        let csr = g.out_csr();
        // 5000 exceeds every corpus graph's vertex count: one partition.
        for vpp in [1usize, 7, 16, 64, 300, 5000] {
            for binned in [false, true] {
                for compress in [true, false] {
                    let seq = oracle(csr, vpp, binned, compress);
                    for threads in [1usize, 2, 3, 4] {
                        // Chunk sizes that do not divide `vpp` put chunk
                        // boundaries inside partitions.
                        for chunk in [3usize, 5, 13, 4096] {
                            let got = PcpmLayout::build_chunked(
                                csr, vpp, binned, compress, threads, chunk,
                            );
                            assert_eq!(
                                got, seq,
                                "{gname} vpp={vpp} binned={binned} compress={compress} \
                                 threads={threads} chunk={chunk}"
                            );
                        }
                        let got = PcpmLayout::build_par_ext(csr, vpp, binned, compress, threads);
                        assert_eq!(got, seq, "{gname} vpp={vpp} threads={threads} default chunks");
                    }
                    // The default entry points agree too.
                    assert_eq!(PcpmLayout::build_ext(csr, vpp, binned, compress), seq);
                }
            }
        }
    }
}

#[test]
fn parallel_layout_on_larger_graph_default_chunking() {
    // Big enough that the default chunk plan splits every partition.
    use hipa::graph::gen::{zipf_graph, ZipfParams};
    let g = DiGraph::from_edge_list(&zipf_graph(
        &ZipfParams {
            num_vertices: 20_000,
            mean_degree: 8.0,
            locality: 0.3,
            block_size: 256,
            ..Default::default()
        },
        23,
    ));
    let csr = g.out_csr();
    for vpp in [64usize, 1024] {
        let seq = oracle(csr, vpp, false, true);
        for threads in [1usize, 2, 4] {
            let par = PcpmLayout::build_par_ext(csr, vpp, false, true, threads);
            assert_eq!(par, seq, "vpp={vpp} threads={threads}");
        }
    }
}

#[test]
fn build_threads_does_not_change_engine_output() {
    use hipa::prelude::*;
    let g = hipa::graph::datasets::small_test_graph(21);
    let cfg = PageRankConfig::default().with_iterations(8);
    let engines = hipa_baselines::all_engines();
    for e in &engines {
        let base = e.run_native(&g, &cfg, &NativeOpts::new(3, 1024).with_build_threads(1)).ranks;
        for bt in [2usize, 4, 7] {
            let got =
                e.run_native(&g, &cfg, &NativeOpts::new(3, 1024).with_build_threads(bt)).ranks;
            assert_eq!(got, base, "{} build_threads={bt}", e.name());
        }
        let sim_base = e
            .run_sim(&g, &cfg, &SimOpts::new(MachineSpec::tiny_test()).with_build_threads(1))
            .ranks;
        let sim_par = e
            .run_sim(&g, &cfg, &SimOpts::new(MachineSpec::tiny_test()).with_build_threads(4))
            .ranks;
        assert_eq!(sim_par, sim_base, "{} sim build_threads", e.name());
    }
}

/// Random-CSR strategy: adjacency from arbitrary directed edges (the CSR
/// sorts and keeps duplicates, matching what engines feed the builder).
fn edges_strategy() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..120).prop_flat_map(|n| {
        let edges = prop::collection::vec((0u32..n as u32, 0u32..n as u32), 0..400);
        (Just(n), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parallel_layout_matches_sequential_on_random_csrs(
        n_edges in edges_strategy(),
        vpp in 1usize..40,
        threads in 1usize..6,
        chunk in 1usize..50,
        binned in any::<bool>(),
        compress in any::<bool>(),
    ) {
        let (n, edges) = n_edges;
        let el = EdgeList::new(n, edges.into_iter().map(Into::into).collect());
        let g = DiGraph::from_edge_list(&el);
        let csr = g.out_csr();
        let seq = oracle(csr, vpp, binned, compress);
        let par = PcpmLayout::build_chunked(csr, vpp, binned, compress, threads, chunk);
        prop_assert_eq!(par, seq);
    }
}
