//! Partition-centric scatter/gather data layout with inter-edge compression.
//!
//! This is the PCPM layout of Lakhotia et al. (ATC'18) — reference [21] of
//! the paper — which HiPa adopts (§3.4, Fig. 4) and which the `p-PR` and
//! `GPOP` baselines also use:
//!
//! * Out-edges whose destination lies in the *same* cache partition as the
//!   source ("intra-edges") are kept as plain adjacency and applied directly
//!   inside the private cache during scatter.
//! * Out-edges crossing partitions ("inter-edges") are *compressed*: all
//!   inter-edges from one source vertex into one destination partition
//!   collapse into a single **message slot**. At scatter the source writes
//!   its contribution into the slot; at gather the destination partition
//!   streams its slots and propagates each value to the recorded destination
//!   vertices via the local `dest_verts` list.
//!
//! Slots are laid out grouped by destination partition and, within a
//! destination, ordered by (source partition, source vertex) — so scatter
//! writes each destination bin sequentially and gather reads its whole inbox
//! as one stream. Sizes are static because PageRank sends every message in
//! every iteration.
//!
//! disjointness: build-chunk plan (`chunk_plan`) — every chunk is a vertex
//! range inside one partition, claimed once per pass via `run_indexed`. The
//! count pass writes only the chunk's own count-matrix row; the fill pass
//! writes only the chunk's own vertex range of `intra_offsets` / `intra_dst`
//! and the slot, destination and PNG-source cursor blocks the sequential
//! scans reserved for it. Each `SharedSlice` lives for a single pass.

use crate::disjoint::SharedSlice;
use crate::par::run_indexed;
use hipa_graph::Csr;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Build chunks per worker: slack for the claim loop to even out chunks
/// with unequal edge counts. The chunk count — and with it the count
/// matrix — scales with the worker count, not with the vertex count.
const CHUNKS_PER_THREAD: usize = 8;

/// Process-wide tally of layout constructions, bumped once at the head of
/// the builder.
static LAYOUT_BUILDS: AtomicU64 = AtomicU64::new(0);

/// Total [`PcpmLayout`] builds since process start (monotonic). The serve
/// census reads deltas of this to prove that a batch of requests reused one
/// resident layout instead of rebuilding per call.
pub fn layout_builds_total() -> u64 {
    // ordering: relaxed (monotonic statistics counter; callers read deltas
    // after the builds they issued have returned — no payload is published
    // through it).
    LAYOUT_BUILDS.load(Ordering::Relaxed)
}

/// The built layout. All index arrays are `u64`-offset CSR-style.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcpmLayout {
    pub verts_per_partition: usize,
    pub num_partitions: usize,
    pub num_vertices: usize,
    /// Intra-edge adjacency: destinations of vertex `v` are
    /// `intra_dst[intra_offsets[v]..intra_offsets[v+1]]`. Empty when
    /// `include_intra_in_bins` (the GPOP-style mode that bins everything).
    pub intra_offsets: Vec<u64>,
    pub intra_dst: Vec<u32>,
    /// Slot ranges per destination partition (contiguous, ascending).
    pub part_slot_ranges: Vec<Range<u64>>,
    /// Destination vertices of slot `k`:
    /// `dest_verts[dest_offsets[k]..dest_offsets[k+1]]`.
    ///
    /// At run time the real PCPM encodes message boundaries *inside* the
    /// destination list with an MSB flag on each message's first entry, so
    /// only 4 bytes per edge are streamed; `dest_offsets` is the build-time
    /// equivalent and is not charged as runtime traffic.
    pub dest_offsets: Vec<u64>,
    pub dest_verts: Vec<u32>,
    pub total_msgs: u64,
    /// GPOP-style mode: intra-edges are binned like everything else.
    pub include_intra_in_bins: bool,
    /// PNG ("partition-node-graph") scatter view: for source partition `p`,
    /// `png_pairs[png_index[p].clone()]` lists the destination bins, each
    /// with its contiguous slot range; `png_src` holds the source vertex of
    /// every message in `(p, q, v)` order.
    pub png_index: Vec<Range<u32>>,
    pub png_pairs: Vec<PngPair>,
    pub png_src: Vec<u32>,
}

/// One (source partition → destination partition) bin in the PNG scatter
/// view: `len` messages whose slots are `slot_start..slot_start+len`, with
/// source vertices in `png_src[src_start..src_start+len]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PngPair {
    pub dst_part: u32,
    pub slot_start: u64,
    pub src_start: u64,
    pub len: u32,
}

/// The build's unit of parallel work, listed in vertex order: chunk `c`
/// covers `verts[c]`, which never straddles a partition, and partition `p`
/// owns chunks `part_chunks[p]..part_chunks[p + 1]`.
struct ChunkPlan {
    verts: Vec<Range<u32>>,
    part_chunks: Vec<usize>,
}

/// Splits every partition's vertex range into pieces of at most
/// `chunk_verts` vertices. Empty partitions (only partition 0 of the empty
/// graph) own no chunk.
fn chunk_plan(n: usize, vpp: usize, num_partitions: usize, chunk_verts: usize) -> ChunkPlan {
    let vid = |v: usize| u32::try_from(v).expect("vertex id overflows u32");
    let mut verts = Vec::new();
    let mut part_chunks = Vec::with_capacity(num_partitions + 1);
    for p in 0..num_partitions {
        part_chunks.push(verts.len());
        let hi = p.saturating_add(1).saturating_mul(vpp).min(n);
        let mut lo = (p * vpp).min(n);
        while lo < hi {
            let end = lo.saturating_add(chunk_verts).min(hi);
            verts.push(vid(lo)..vid(end));
            lo = end;
        }
    }
    part_chunks.push(verts.len());
    ChunkPlan { verts, part_chunks }
}

/// One (chunk, destination partition) cell of the build matrix. The count
/// pass stores the chunk's message count into the destination in `slot` and
/// its inter-edge count in `dest`; the scans then turn the cell into the
/// chunk's starting cursors for that destination: its first slot, its first
/// `dest_verts` index and its first `png_src` index.
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    slot: u64,
    dest: u64,
    src: u64,
}

/// Walks `v`'s sorted adjacency in layout order, calling `intra(t)` for an
/// edge kept as plain adjacency and `inter(q, opens_msg, t)` for a binned
/// edge into destination partition `q`; `opens_msg` marks the edge that
/// opens a new message slot. Sorted neighbours make destination partitions
/// monotone, so each partition is one contiguous run.
#[inline(always)]
fn walk_edges(
    csr: &Csr,
    v: u32,
    vpp: usize,
    include_intra_in_bins: bool,
    compress_inter: bool,
    mut intra: impl FnMut(u32),
    mut inter: impl FnMut(usize, bool, u32),
) {
    let pv = v as usize / vpp;
    let nbrs = csr.neighbors(v);
    debug_assert!(nbrs.windows(2).all(|w| w[0] <= w[1]), "adjacency must be sorted");
    let (mut run_part, mut run_end) = (0usize, 0usize);
    for &t in nbrs {
        let new_run = t as usize >= run_end;
        if new_run {
            run_part = t as usize / vpp;
            run_end = (run_part + 1).saturating_mul(vpp);
        }
        if run_part == pv && !include_intra_in_bins {
            intra(t);
        } else {
            inter(run_part, new_run || !compress_inter, t);
        }
    }
}

impl PcpmLayout {
    /// Builds the layout from an out-CSR.
    ///
    /// `verts_per_partition` is |P| (= partition bytes / 4 per §3.1);
    /// `include_intra_in_bins` selects the GPOP-style all-binned mode.
    pub fn build(csr: &Csr, verts_per_partition: usize, include_intra_in_bins: bool) -> Self {
        Self::build_ext(csr, verts_per_partition, include_intra_in_bins, true)
    }

    /// [`Self::build`] with inter-edge compression switchable — the
    /// `ablation_compression` experiment disables it, giving every
    /// inter-edge its own single-destination message (Fig. 4 "before").
    /// Uses all available host parallelism.
    pub fn build_ext(
        csr: &Csr,
        verts_per_partition: usize,
        include_intra_in_bins: bool,
        compress_inter: bool,
    ) -> Self {
        Self::build_par_ext(
            csr,
            verts_per_partition,
            include_intra_in_bins,
            compress_inter,
            rayon::current_num_threads(),
        )
    }

    /// Builds the layout on `build_threads` workers. The result is identical
    /// for every worker count.
    pub fn build_par_ext(
        csr: &Csr,
        verts_per_partition: usize,
        include_intra_in_bins: bool,
        compress_inter: bool,
        build_threads: usize,
    ) -> Self {
        let threads = build_threads.max(1);
        Self::build_chunked(
            csr,
            verts_per_partition,
            include_intra_in_bins,
            compress_inter,
            threads,
            csr.num_vertices().div_ceil(threads * CHUNKS_PER_THREAD),
        )
    }

    /// [`Self::build_par_ext`] with an explicit chunk size, so the equality
    /// tests can force chunk boundaries that do not divide a partition.
    ///
    /// Two passes over the edges, no sort. The only cross-vertex state of a
    /// sequential build is one slot cursor, one destination cursor and one
    /// PNG-source cursor per destination partition, each advancing in
    /// source-vertex order. The count pass tallies each chunk's messages and
    /// inter-edges per destination; small sequential scans of that
    /// (chunk × partition) matrix recover every cursor's value at every
    /// chunk start — and the PNG bins with it — so the fill pass writes
    /// each chunk's share of every array independently.
    #[doc(hidden)]
    pub fn build_chunked(
        csr: &Csr,
        verts_per_partition: usize,
        include_intra_in_bins: bool,
        compress_inter: bool,
        build_threads: usize,
        chunk_verts: usize,
    ) -> Self {
        assert!(verts_per_partition >= 1);
        // ordering: relaxed (statistics tally; see `layout_builds_total`).
        LAYOUT_BUILDS.fetch_add(1, Ordering::Relaxed);
        let vpp = verts_per_partition;
        let threads = build_threads.max(1);
        let n = csr.num_vertices();
        let np = n.div_ceil(vpp).max(1);
        let plan = chunk_plan(n, vpp, np, chunk_verts.max(1));
        let num_chunks = plan.verts.len();
        let (binned, compress) = (include_intra_in_bins, compress_inter);

        // Count pass (parallel): per chunk, intra-edges in total and
        // messages and inter-edges per destination partition.
        let mut cells = vec![Cursor::default(); num_chunks * np];
        let mut chunk_intra = vec![0u64; num_chunks];
        {
            let cells_s = SharedSlice::new(&mut cells);
            let intra_s = SharedSlice::new(&mut chunk_intra);
            run_indexed(num_chunks, threads, |c| {
                let mut row = vec![Cursor::default(); np];
                let mut intra = 0u64;
                for v in plan.verts[c].clone() {
                    let count_inter = |q: usize, opens_msg: bool, _| {
                        row[q].slot += opens_msg as u64;
                        row[q].dest += 1;
                    };
                    walk_edges(csr, v, vpp, binned, compress, |_| intra += 1, count_inter);
                }
                for (q, cell) in row.into_iter().enumerate() {
                    // SAFETY: row `c` of the matrix is chunk `c`'s alone.
                    unsafe { cells_s.write(c * np + q, cell) };
                }
                // SAFETY: element `c` is chunk `c`'s alone.
                unsafe { intra_s.write(c, intra) };
            });
        }

        // Sequential scans. Column totals give the slot and destination
        // bases of every destination partition.
        let mut slot_cur = vec![0u64; np];
        let mut dest_cur = vec![0u64; np];
        for row in cells.chunks_exact(np) {
            for (q, cell) in row.iter().enumerate() {
                slot_cur[q] += cell.slot;
                dest_cur[q] += cell.dest;
            }
        }
        let (mut total_msgs, mut total_dests) = (0u64, 0u64);
        let mut part_slot_ranges = Vec::with_capacity(np);
        for q in 0..np {
            part_slot_ranges.push(total_msgs..total_msgs + slot_cur[q]);
            (slot_cur[q], total_msgs) = (total_msgs, total_msgs + slot_cur[q]);
            (dest_cur[q], total_dests) = (total_dests, total_dests + dest_cur[q]);
        }
        // Then, in (source partition, destination, chunk) order — the order
        // of `png_src` — each cell becomes its chunk's starting cursors, and
        // every non-empty (p, q) run of cells becomes one PNG bin.
        let mut png_index = Vec::with_capacity(np);
        let mut png_pairs = Vec::new();
        let mut src_cur = 0u64;
        let pair_bound = |len: usize| u32::try_from(len).expect("png_index bound overflows u32");
        for p in 0..np {
            let pairs_start = pair_bound(png_pairs.len());
            let chunks = plan.part_chunks[p]..plan.part_chunks[p + 1];
            for q in 0..np {
                let (slot_start, src_start) = (slot_cur[q], src_cur);
                for c in chunks.clone() {
                    let cell = &mut cells[c * np + q];
                    let (msgs, dests) = (cell.slot, cell.dest);
                    *cell = Cursor { slot: slot_cur[q], dest: dest_cur[q], src: src_cur };
                    slot_cur[q] += msgs;
                    dest_cur[q] += dests;
                    src_cur += msgs;
                }
                if src_cur > src_start {
                    png_pairs.push(PngPair {
                        dst_part: u32::try_from(q).expect("PngPair::dst_part overflows u32"),
                        slot_start,
                        src_start,
                        len: u32::try_from(src_cur - src_start)
                            .expect("PngPair::len overflows u32"),
                    });
                }
            }
            png_index.push(pairs_start..pair_bound(png_pairs.len()));
        }
        debug_assert_eq!(src_cur, total_msgs);
        let mut total_intra = 0u64;
        for x in chunk_intra.iter_mut() {
            (*x, total_intra) = (total_intra, total_intra + *x);
        }

        // Fill pass (parallel): each chunk replays its edges from its
        // cursors, writing the intra adjacency of its own vertices and, per
        // message, the slot's destination offset, destination list and
        // PNG source entry.
        let mut intra_offsets = vec![0u64; n + 1];
        let mut intra_dst = vec![0u32; total_intra as usize];
        let mut dest_offsets = vec![0u64; total_msgs as usize + 1];
        dest_offsets[total_msgs as usize] = total_dests;
        let mut dest_verts = vec![0u32; total_dests as usize];
        let mut png_src = vec![0u32; total_msgs as usize];
        {
            let intra_offsets_s = SharedSlice::new(&mut intra_offsets);
            let intra_dst_s = SharedSlice::new(&mut intra_dst);
            let dest_offsets_s = SharedSlice::new(&mut dest_offsets);
            let dest_verts_s = SharedSlice::new(&mut dest_verts);
            let png_src_s = SharedSlice::new(&mut png_src);
            let (cells, chunk_intra) = (&cells, &chunk_intra);
            run_indexed(num_chunks, threads, |c| {
                let mut cur = cells[c * np..(c + 1) * np].to_vec();
                let mut intra_cur = chunk_intra[c];
                for v in plan.verts[c].clone() {
                    walk_edges(
                        csr,
                        v,
                        vpp,
                        binned,
                        compress,
                        |t| {
                            // SAFETY: the scans reserved intra_dst
                            // [chunk_intra[c]..chunk_intra[c + 1]) for this
                            // chunk, and it holds exactly its intra-edges.
                            unsafe { intra_dst_s.write(intra_cur as usize, t) };
                            intra_cur += 1;
                        },
                        |q, opens_msg, t| {
                            let k = &mut cur[q];
                            if opens_msg {
                                // SAFETY: this chunk's slots and PNG source
                                // entries for `q` are the `msgs` counted in
                                // its cell, starting at the cell's cursors —
                                // disjoint from every other chunk's.
                                unsafe {
                                    dest_offsets_s.write(k.slot as usize, k.dest);
                                    png_src_s.write(k.src as usize, v);
                                }
                                k.slot += 1;
                                k.src += 1;
                            }
                            // SAFETY: likewise for the chunk's `dests`
                            // destination entries into `q`.
                            unsafe { dest_verts_s.write(k.dest as usize, t) };
                            k.dest += 1;
                        },
                    );
                    // SAFETY: `v + 1` lies in this chunk's vertex range.
                    unsafe { intra_offsets_s.write(v as usize + 1, intra_cur) };
                }
            });
        }

        PcpmLayout {
            verts_per_partition,
            num_partitions: np,
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

    /// PNG bins of source partition `p` (scatter iteration view).
    #[inline]
    pub fn png_of(&self, p: usize) -> &[PngPair] {
        let r = self.png_index[p].clone();
        &self.png_pairs[r.start as usize..r.end as usize]
    }

    /// Source vertices of one PNG bin.
    #[inline]
    pub fn png_sources(&self, pair: &PngPair) -> &[u32] {
        &self.png_src[pair.src_start as usize..pair.src_start as usize + pair.len as usize]
    }

    /// Partition of a vertex.
    #[inline]
    pub fn partition_of(&self, v: u32) -> usize {
        v as usize / self.verts_per_partition
    }

    /// Vertex range of a partition.
    pub fn partition_vertices(&self, p: usize) -> Range<u32> {
        let lo = p * self.verts_per_partition;
        let hi = ((p + 1) * self.verts_per_partition).min(self.num_vertices);
        lo as u32..hi as u32
    }

    /// Intra destinations of a vertex.
    #[inline]
    pub fn intra_of(&self, v: u32) -> &[u32] {
        let lo = self.intra_offsets[v as usize] as usize;
        let hi = self.intra_offsets[v as usize + 1] as usize;
        &self.intra_dst[lo..hi]
    }

    /// Message prefix by source partition (`num_partitions + 1` entries):
    /// partition `p`'s messages are `png_src[o[p]..o[p + 1]]`.
    pub fn png_src_offsets(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.num_partitions + 1);
        out.push(0u64);
        for p in 0..self.num_partitions {
            let msgs: u64 = self.png_of(p).iter().map(|pair| pair.len as u64).sum();
            out.push(out[p] + msgs);
        }
        out
    }

    /// Destination vertices consuming slot `k`.
    #[inline]
    pub fn dests_of(&self, slot: u64) -> &[u32] {
        let lo = self.dest_offsets[slot as usize] as usize;
        let hi = self.dest_offsets[slot as usize + 1] as usize;
        &self.dest_verts[lo..hi]
    }

    /// Inter-edge compression ratio achieved (≥ 1).
    pub fn compression_ratio(&self) -> f64 {
        if self.total_msgs == 0 {
            1.0
        } else {
            self.dest_verts.len() as f64 / self.total_msgs as f64
        }
    }

    /// Total edges represented (intra + all destination entries). Must equal
    /// the source CSR's edge count.
    pub fn total_edges(&self) -> u64 {
        self.intra_dst.len() as u64 + self.dest_verts.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipa_graph::{Csr, EdgeList};

    /// Vertex `v`'s messages read off the PNG view, as parallel
    /// `(dst_part, slot)` lists in destination order.
    fn msgs_of(l: &PcpmLayout, v: u32) -> (Vec<u32>, Vec<u64>) {
        let (mut parts, mut slots) = (Vec::new(), Vec::new());
        for pair in l.png_of(l.partition_of(v)) {
            for (k, &src) in l.png_sources(pair).iter().enumerate() {
                if src == v {
                    parts.push(pair.dst_part);
                    slots.push(pair.slot_start + k as u64);
                }
            }
        }
        (parts, slots)
    }

    /// Fig. 4's example: v1 has intra edge to v2 and two inter-edges to
    /// v6, v7 in the next partition — compressed into one message.
    #[test]
    fn fig4_compression() {
        // Partitions of 4: {0..4}, {4..8}.
        let el = EdgeList::new(8, vec![(1, 2).into(), (1, 6).into(), (1, 7).into()]);
        let csr = Csr::from_edge_list(&el);
        let l = PcpmLayout::build(&csr, 4, false);
        assert_eq!(l.intra_of(1), &[2]);
        let (parts, slots) = msgs_of(&l, 1);
        assert_eq!(parts, &[1]);
        assert_eq!(l.dests_of(slots[0]), &[6, 7]);
        assert_eq!(l.total_msgs, 1);
        assert!((l.compression_ratio() - 2.0).abs() < 1e-12);
        assert_eq!(l.total_edges(), 3);
    }

    #[test]
    fn slots_grouped_by_destination_and_source_ordered() {
        // 3 partitions of 2 vertices; several sources message partition 2.
        let el = EdgeList::from_pairs([(0, 4), (0, 5), (1, 4), (2, 5), (3, 0)]);
        let csr = Csr::from_edge_list(&el);
        let l = PcpmLayout::build(&csr, 2, false);
        assert_eq!(l.num_partitions, 3);
        // Partition 2's inbox: messages from v0, v1, v2 in source order.
        let r = l.part_slot_ranges[2].clone();
        assert_eq!(r.end - r.start, 3);
        let (_, s0) = msgs_of(&l, 0);
        let (_, s1) = msgs_of(&l, 1);
        let (_, s2) = msgs_of(&l, 2);
        assert_eq!(s0, &[r.start]);
        assert_eq!(s1, &[r.start + 1]);
        assert_eq!(s2, &[r.start + 2]);
        assert_eq!(l.dests_of(s0[0]), &[4, 5]);
        // Partition 0's inbox holds v3's message.
        let (_, s3) = msgs_of(&l, 3);
        assert_eq!(l.part_slot_ranges[0].clone().count(), 1);
        assert_eq!(l.dests_of(s3[0]), &[0]);
    }

    #[test]
    fn include_intra_in_bins_moves_everything_to_slots() {
        let el = EdgeList::from_pairs([(0, 1), (0, 2), (1, 0)]);
        let csr = Csr::from_edge_list(&el);
        let l = PcpmLayout::build(&csr, 4, true); // single partition
        assert!(l.intra_dst.is_empty());
        assert_eq!(l.total_msgs, 2); // one per source vertex into part 0
        assert_eq!(l.total_edges(), 3);
    }

    #[test]
    fn single_partition_all_intra() {
        let el = EdgeList::from_pairs([(0, 1), (1, 2), (2, 0)]);
        let csr = Csr::from_edge_list(&el);
        let l = PcpmLayout::build(&csr, 100, false);
        assert_eq!(l.num_partitions, 1);
        assert_eq!(l.total_msgs, 0);
        assert_eq!(l.intra_dst.len(), 3);
    }

    #[test]
    fn edge_conservation_on_random_graph() {
        let g = hipa_graph::datasets::small_test_graph(9);
        for vpp in [8usize, 64, 300, 5000] {
            let l = PcpmLayout::build(g.out_csr(), vpp, false);
            assert_eq!(l.total_edges() as usize, g.num_edges(), "vpp={vpp}");
            let lb = PcpmLayout::build(g.out_csr(), vpp, true);
            assert_eq!(lb.total_edges() as usize, g.num_edges(), "binned vpp={vpp}");
            // Binned mode has at least as many messages.
            assert!(lb.total_msgs >= l.total_msgs);
        }
    }

    #[test]
    fn larger_partitions_compress_better() {
        let g = hipa_graph::datasets::small_test_graph(10);
        let small = PcpmLayout::build(g.out_csr(), 16, false);
        let large = PcpmLayout::build(g.out_csr(), 256, false);
        // Fewer, fatter messages with larger partitions (paper §4.5: "the
        // larger a partition, the better the compression").
        assert!(large.total_msgs < small.total_msgs);
    }

    #[test]
    fn png_view_is_consistent_with_slot_view() {
        let g = hipa_graph::datasets::small_test_graph(12);
        for binned in [false, true] {
            let l = PcpmLayout::build(g.out_csr(), 64, binned);
            // Reconstruct slot -> source vertex from the PNG view and check
            // it against a replay of the per-destination slot cursors.
            let mut slot_src = vec![u32::MAX; l.total_msgs as usize];
            for p in 0..l.num_partitions {
                for pair in l.png_of(p) {
                    for (k, &src) in l.png_sources(pair).iter().enumerate() {
                        let slot = pair.slot_start + k as u64;
                        assert_eq!(slot_src[slot as usize], u32::MAX, "slot double-covered");
                        slot_src[slot as usize] = src;
                        assert_eq!(l.partition_of(src), p, "source outside its partition");
                        // Slot must lie in the destination partition's range.
                        let r = &l.part_slot_ranges[pair.dst_part as usize];
                        assert!(r.contains(&slot));
                    }
                }
            }
            let mut cursors: Vec<u64> = l.part_slot_ranges.iter().map(|r| r.start).collect();
            for v in 0..l.num_vertices as u32 {
                let mut last = usize::MAX;
                for &t in g.out_csr().neighbors(v) {
                    let q = l.partition_of(t);
                    if (q == l.partition_of(v) && !binned) || q == last {
                        continue;
                    }
                    last = q;
                    assert_eq!(slot_src[cursors[q] as usize], v);
                    cursors[q] += 1;
                }
            }
            assert!(!slot_src.contains(&u32::MAX), "uncovered slot");
        }
    }

    #[test]
    fn slot_ranges_tile_message_space() {
        let g = hipa_graph::datasets::small_test_graph(11);
        let l = PcpmLayout::build(g.out_csr(), 64, false);
        let mut expect = 0u64;
        for r in &l.part_slot_ranges {
            assert_eq!(r.start, expect);
            expect = r.end;
        }
        assert_eq!(expect, l.total_msgs);
        assert_eq!(*l.dest_offsets.last().unwrap() as usize, l.dest_verts.len());
    }

    #[test]
    fn png_src_offsets_prefix_source_partitions() {
        let g = hipa_graph::datasets::small_test_graph(13);
        let l = PcpmLayout::build(g.out_csr(), 64, false);
        let o = l.png_src_offsets();
        assert_eq!(o.len(), l.num_partitions + 1);
        assert_eq!(o[l.num_partitions], l.total_msgs);
        for p in 0..l.num_partitions {
            for pair in l.png_of(p) {
                assert!(o[p] <= pair.src_start && pair.src_start + pair.len as u64 <= o[p + 1]);
            }
        }
    }
}
