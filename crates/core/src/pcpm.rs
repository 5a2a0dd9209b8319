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
//! Both edge lists are **run-encoded** as in PCPM: a flat `u32` stream in
//! which the first entry of every run carries [`RUN_FLAG`], the top bit of
//! the vertex id. In `dest_verts` a run is one message, so destination
//! partition `q`'s inbox holds its slots' destination lists back to back
//! and its `k`-th run belongs to slot `part_slot_ranges[q].start + k`. In
//! `intra_dst` a run is one source's intra-edges, and the `k`-th run of
//! partition `p` belongs to source `intra_srcs[part_intra_src_ranges[p]][k]`.
//! No per-slot or per-vertex offsets exist: a kernel decodes a partition's
//! stream in one branch-free pass ([`run_entries`]), 4 bytes per edge.
//!
//! The native hot loops of HiPa, p-PR and GPOP — intra scatter, PNG bin
//! scatter and inbox gather, with their prefetch hints — live here, in
//! [`PcpmKernels`]. They are checked once, not per entry:
//! [`PcpmLayout::kernels`] walks every stream once on the build workers and
//! asserts the invariants the loops index by (entries and sources inside
//! their partition, one leading-flagged run per slot or intra source, slots
//! below `total_msgs`). Each kernel then asserts its buffer lengths once at
//! entry and indexes unchecked. The view borrows the layout, so the checked
//! streams cannot change under it. The simulators keep decoding through
//! [`runs`] with checked indexing.
//!
//! disjointness: build-chunk plan (`chunk_plan`) — every chunk is a vertex
//! range inside one partition, claimed once per pass via `run_indexed`. The
//! count pass writes only the chunk's own count-matrix row; the fill pass
//! writes only the intra, intra-source, destination and PNG-source cursor
//! blocks the sequential scans reserved for it. Each `SharedSlice` lives
//! for a single pass. The kernels write only the accumulators and slots of
//! the partition their caller owns under its engine's plan.

use crate::disjoint::SharedSlice;
use crate::par::run_indexed;
use crate::prefetch::{prefetch_read, LineFilter, PREFETCH_DISTANCE};
use hipa_graph::Csr;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Build chunks per worker: slack for the claim loop to even out chunks
/// with unequal edge counts. The chunk count — and with it the count
/// matrix — scales with the worker count, not with the vertex count.
const CHUNKS_PER_THREAD: usize = 8;

/// Flag on the first entry of every run in `dest_verts` and `intra_dst`.
/// It takes the top bit of the vertex id, so a layout holds at most 2^31
/// vertices (see `check_run_flag_bound`).
pub const RUN_FLAG: u32 = 1 << 31;

/// Vertex id of a run-stream entry (the entry with [`RUN_FLAG`] cleared).
#[inline(always)]
pub fn run_vertex(e: u32) -> usize {
    (e & !RUN_FLAG) as usize
}

/// Branch-free decode of a run stream: yields `(run, vertex)` for every
/// entry in order, where `run` counts the stream's runs from 0. The run
/// index advances by the entry's flag bit, so the loop carries no
/// data-dependent branch.
#[inline(always)]
pub fn run_entries(stream: &[u32]) -> impl Iterator<Item = (usize, usize)> + '_ {
    stream.iter().scan(0usize, |runs, &e| {
        *runs += (e >> 31) as usize;
        // Every stream opens with a flagged entry, so `*runs >= 1` here.
        Some((*runs - 1, run_vertex(e)))
    })
}

/// Run-at-a-time view of a run stream, for the simulators, which charge
/// per message and per source: yields each run's entries, the first still
/// flagged (read ids through [`run_vertex`]).
pub fn runs(stream: &[u32]) -> Runs<'_> {
    Runs { rest: stream }
}

/// Iterator returned by [`runs`].
#[derive(Debug, Clone)]
pub struct Runs<'a> {
    rest: &'a [u32],
}

impl<'a> Iterator for Runs<'a> {
    type Item = &'a [u32];

    fn next(&mut self) -> Option<&'a [u32]> {
        let tail = self.rest.get(1..)?;
        let len = 1 + tail.iter().position(|&e| e & RUN_FLAG != 0).unwrap_or(tail.len());
        let (run, rest) = self.rest.split_at(len);
        self.rest = rest;
        Some(run)
    }
}

/// Rejects a vertex count whose ids would reach [`RUN_FLAG`]: ids run up
/// to `n - 1`, which must leave the top bit clear.
fn check_run_flag_bound(n: usize) {
    assert!(
        n <= RUN_FLAG as usize,
        "{n} vertices: ids from 2^31 up would collide with the RUN_FLAG bit"
    );
}

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

/// The built layout: two run-encoded edge streams (see the module docs),
/// per-partition ranges into them, and the PNG scatter view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcpmLayout {
    pub verts_per_partition: usize,
    pub num_partitions: usize,
    pub num_vertices: usize,
    /// Intra-edge stream: the same-partition destinations of every source
    /// that has any, sources in vertex order, each source's first entry
    /// flagged. Empty when `include_intra_in_bins` (the GPOP-style mode
    /// that bins everything).
    pub intra_dst: Vec<u32>,
    /// Source of each `intra_dst` run: the vertices with at least one
    /// intra-edge, ascending.
    pub intra_srcs: Vec<u32>,
    /// Partition `p`'s share of `intra_dst`.
    pub part_intra_ranges: Vec<Range<u64>>,
    /// Partition `p`'s share of `intra_srcs`.
    pub part_intra_src_ranges: Vec<Range<u32>>,
    /// Slot ranges per destination partition (contiguous, ascending).
    pub part_slot_ranges: Vec<Range<u64>>,
    /// Destination partition `q`'s inbox: its share of `dest_verts`.
    pub part_dest_ranges: Vec<Range<u64>>,
    /// Destination stream: the destination vertices of every slot in slot
    /// order, each message's first entry flagged.
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

/// A chunk's intra-edges (`dst`) and intra sources (`src`, the vertices
/// with at least one): counts after the count pass, the chunk's first
/// `intra_dst` / `intra_srcs` index after the scans.
#[derive(Debug, Clone, Copy, Default)]
struct IntraCursor {
    dst: u64,
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
    /// PNG-source cursor per destination partition, plus the intra cursors,
    /// each advancing in source-vertex order. The count pass tallies each
    /// chunk's messages and inter-edges per destination and its intra-edges
    /// and intra sources; small sequential scans recover every cursor's
    /// value at every chunk start — and the PNG bins and per-partition
    /// stream ranges with it — so the fill pass writes each chunk's share
    /// of every array independently, setting [`RUN_FLAG`] on the edge that
    /// opens a message or a source's intra run.
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
        check_run_flag_bound(n);
        let np = n.div_ceil(vpp).max(1);
        let plan = chunk_plan(n, vpp, np, chunk_verts.max(1));
        let num_chunks = plan.verts.len();
        let (binned, compress) = (include_intra_in_bins, compress_inter);

        // Count pass (parallel): per chunk, intra-edges and intra sources in
        // total, and messages and inter-edges per destination partition.
        let mut cells = vec![Cursor::default(); num_chunks * np];
        let mut chunk_intra = vec![IntraCursor::default(); num_chunks];
        {
            let cells_s = SharedSlice::new(&mut cells);
            let intra_s = SharedSlice::new(&mut chunk_intra);
            run_indexed(num_chunks, threads, |c| {
                let mut row = vec![Cursor::default(); np];
                let mut intra = IntraCursor::default();
                for v in plan.verts[c].clone() {
                    let count_inter = |q: usize, opens_msg: bool, _| {
                        row[q].slot += opens_msg as u64;
                        row[q].dest += 1;
                    };
                    let before = intra.dst;
                    walk_edges(csr, v, vpp, binned, compress, |_| intra.dst += 1, count_inter);
                    intra.src += (intra.dst > before) as u64;
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
        let mut part_dest_ranges = Vec::with_capacity(np);
        for q in 0..np {
            part_slot_ranges.push(total_msgs..total_msgs + slot_cur[q]);
            part_dest_ranges.push(total_dests..total_dests + dest_cur[q]);
            (slot_cur[q], total_msgs) = (total_msgs, total_msgs + slot_cur[q]);
            (dest_cur[q], total_dests) = (total_dests, total_dests + dest_cur[q]);
        }
        // Then, in (source partition, destination, chunk) order — the order
        // of `png_src` — each cell becomes its chunk's starting cursors, and
        // every non-empty (p, q) run of cells becomes one PNG bin. The intra
        // counts become cursors in chunk order, partition by partition.
        let mut png_index = Vec::with_capacity(np);
        let mut png_pairs = Vec::new();
        let mut src_cur = 0u64;
        let mut intra_total = IntraCursor::default();
        let mut part_intra_ranges = Vec::with_capacity(np);
        let mut part_intra_src_ranges = Vec::with_capacity(np);
        let pair_bound = |len: usize| u32::try_from(len).expect("png_index bound overflows u32");
        let src_bound =
            |len: u64| u32::try_from(len).expect("part_intra_src_ranges bound overflows u32");
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
            let start = intra_total;
            for x in &mut chunk_intra[chunks] {
                let count = *x;
                *x = intra_total;
                intra_total.dst += count.dst;
                intra_total.src += count.src;
            }
            part_intra_ranges.push(start.dst..intra_total.dst);
            part_intra_src_ranges.push(src_bound(start.src)..src_bound(intra_total.src));
        }
        debug_assert_eq!(src_cur, total_msgs);

        // Fill pass (parallel): each chunk replays its edges from its
        // cursors, writing its own sources' intra runs and, per message, the
        // slot's destination run and PNG source entry.
        let mut intra_dst = vec![0u32; intra_total.dst as usize];
        let mut intra_srcs = vec![0u32; intra_total.src as usize];
        let mut dest_verts = vec![0u32; total_dests as usize];
        let mut png_src = vec![0u32; total_msgs as usize];
        {
            let intra_dst_s = SharedSlice::new(&mut intra_dst);
            let intra_srcs_s = SharedSlice::new(&mut intra_srcs);
            let dest_verts_s = SharedSlice::new(&mut dest_verts);
            let png_src_s = SharedSlice::new(&mut png_src);
            let (cells, chunk_intra) = (&cells, &chunk_intra);
            run_indexed(num_chunks, threads, |c| {
                let mut cur = cells[c * np..(c + 1) * np].to_vec();
                let mut icur = chunk_intra[c];
                for v in plan.verts[c].clone() {
                    let run_start = icur.dst;
                    walk_edges(
                        csr,
                        v,
                        vpp,
                        binned,
                        compress,
                        |t| {
                            let flag = (icur.dst == run_start) as u32 * RUN_FLAG;
                            // SAFETY: the scans reserved intra_dst from
                            // chunk_intra[c].dst for this chunk's intra-edges
                            // alone.
                            unsafe { intra_dst_s.write(icur.dst as usize, t | flag) };
                            icur.dst += 1;
                        },
                        |q, opens_msg, t| {
                            let k = &mut cur[q];
                            if opens_msg {
                                // SAFETY: this chunk's PNG source entries
                                // for `q` are the `msgs` counted in its cell,
                                // starting at the cell's cursor — disjoint
                                // from every other chunk's.
                                unsafe { png_src_s.write(k.src as usize, v) };
                                k.src += 1;
                            }
                            let flag = opens_msg as u32 * RUN_FLAG;
                            // SAFETY: likewise for the chunk's `dests`
                            // destination entries into `q`.
                            unsafe { dest_verts_s.write(k.dest as usize, t | flag) };
                            k.dest += 1;
                        },
                    );
                    if icur.dst > run_start {
                        // SAFETY: the scans reserved intra_srcs from
                        // chunk_intra[c].src for this chunk's intra sources
                        // alone.
                        unsafe { intra_srcs_s.write(icur.src as usize, v) };
                        icur.src += 1;
                    }
                }
            });
        }

        PcpmLayout {
            verts_per_partition,
            num_partitions: np,
            num_vertices: n,
            intra_dst,
            intra_srcs,
            part_intra_ranges,
            part_intra_src_ranges,
            part_slot_ranges,
            part_dest_ranges,
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

    /// Partition `p`'s intra runs: its share of the `intra_dst` stream and
    /// the source of each run, in order.
    #[inline]
    pub fn intra_runs(&self, p: usize) -> (&[u32], &[u32]) {
        let r = &self.part_intra_ranges[p];
        let s = &self.part_intra_src_ranges[p];
        (
            &self.intra_dst[r.start as usize..r.end as usize],
            &self.intra_srcs[s.start as usize..s.end as usize],
        )
    }

    /// Destination partition `q`'s inbox: its share of the `dest_verts`
    /// stream, whose `k`-th run is slot `part_slot_ranges[q].start + k`.
    #[inline]
    pub fn inbox(&self, q: usize) -> &[u32] {
        let r = &self.part_dest_ranges[q];
        &self.dest_verts[r.start as usize..r.end as usize]
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

    /// Checks every partition's run streams once, on `threads` workers (one
    /// partition per item), and returns the view that runs the native
    /// scatter/gather loops over them without per-entry bounds checks.
    ///
    /// # Panics
    /// When a stream breaks an invariant the kernels index by; the message
    /// names the partition and the invariant.
    pub fn kernels(&self, threads: usize) -> PcpmKernels<'_> {
        run_indexed(self.num_partitions, threads, |p| self.check_partition(p));
        PcpmKernels { layout: self }
    }

    /// The invariants [`PcpmKernels`] relies on, for partition `p`: every
    /// stream entry, intra source and PNG source is a vertex of `p`; each
    /// stream has exactly one flagged run per slot or intra source and opens
    /// with one; every slot it names lies below `total_msgs`.
    fn check_partition(&self, p: usize) {
        let lo = p.saturating_mul(self.verts_per_partition).min(self.num_vertices);
        let hi =
            p.saturating_add(1).saturating_mul(self.verts_per_partition).min(self.num_vertices);
        let in_p = |v: usize| v.wrapping_sub(lo) < hi - lo;
        let check_stream = |what: &str, stream: &[u32], runs: u64, owner: &str| {
            let (mut flags, mut outside) = (0u64, false);
            for &e in stream {
                flags += (e >> 31) as u64;
                outside |= !in_p(run_vertex(e));
            }
            assert!(!outside, "partition {p}: {what} entry outside the partition");
            assert!(
                stream.first().is_none_or(|&e| e & RUN_FLAG != 0),
                "partition {p}: {what} stream does not open with RUN_FLAG"
            );
            assert_eq!(flags, runs, "partition {p}: {what} RUN_FLAG count != {owner}");
        };

        let slots = &self.part_slot_ranges[p];
        assert!(
            slots.start <= slots.end && slots.end <= self.total_msgs,
            "partition {p}: slot range {slots:?} ends past total_msgs {}",
            self.total_msgs
        );
        check_stream("inbox", self.inbox(p), slots.end - slots.start, "slot count");

        let (stream, srcs) = self.intra_runs(p);
        check_stream("intra", stream, srcs.len() as u64, "intra source count");
        assert!(
            srcs.iter().all(|&v| in_p(v as usize)),
            "partition {p}: intra source outside the partition"
        );

        for pair in self.png_of(p) {
            assert!(
                pair.slot_start.checked_add(pair.len as u64).is_some_and(|e| e <= self.total_msgs),
                "partition {p}: PNG bin {pair:?} runs past total_msgs {}",
                self.total_msgs
            );
            assert!(
                self.png_sources(pair).iter().all(|&v| in_p(v as usize)),
                "partition {p}: PNG source outside the partition"
            );
        }
    }
}

/// The native PCPM scatter/gather kernels, shared by HiPa, p-PR and GPOP:
/// a borrow of a layout whose streams passed [`PcpmLayout::kernels`]'s
/// check. The kernels index without per-entry bounds checks. The check
/// bounded every index they derive from the streams, and each kernel asserts
/// its buffer lengths once at entry. The shared borrow keeps the checked
/// layout immutable for as long as the view exists (`PcpmLayout` has no
/// interior mutability), so no safe code can reach an unchecked index
/// without passing the check.
///
/// Accumulation order is the stream order, the same as the simulated paths,
/// so ranks are bitwise identical across engines' native and sim runs.
#[derive(Debug, Clone, Copy)]
pub struct PcpmKernels<'a> {
    layout: &'a PcpmLayout,
}

impl PcpmKernels<'_> {
    #[inline]
    fn assert_vertex_buffer(&self, what: &str, len: usize) {
        let n = self.layout.num_vertices;
        assert_eq!(len, n, "PCPM kernel: {what} holds {len} entries for {n} vertices");
    }

    #[inline]
    fn assert_slot_buffer(&self, len: usize) {
        let m = self.layout.total_msgs;
        assert_eq!(len as u64, m, "PCPM kernel: vals holds {len} entries for {m} slots");
    }

    /// Intra scatter of partition `p`: adds every intra source's
    /// contribution `rank[v] * inv_deg[v]` into the accumulators of its
    /// same-partition destinations, in stream order.
    ///
    /// # Safety
    /// The caller owns partition `p`: no other thread accesses `acc` at
    /// `p`'s vertices or writes `rank` there until this returns.
    pub unsafe fn scatter_intra(
        &self,
        p: usize,
        rank: &SharedSlice<f32>,
        inv_deg: &[f32],
        acc: &SharedSlice<f32>,
    ) {
        self.assert_vertex_buffer("rank", rank.len());
        self.assert_vertex_buffer("inv_deg", inv_deg.len());
        self.assert_vertex_buffer("acc", acc.len());
        let (stream, srcs) = self.layout.intra_runs(p);
        for (i, dst) in run_entries(stream) {
            // SAFETY: the check gave the stream one flagged run per intra
            // source, opening with one, so `i < srcs.len()`; it put every
            // source and destination in `p`, below `num_vertices`, which the
            // asserts above made every buffer's length. The caller owns `p`.
            unsafe {
                let v = *srcs.get_unchecked(i) as usize;
                let val = rank.get_unchecked(v) * *inv_deg.get_unchecked(v);
                acc.update_unchecked(dst, |a| *a += val);
            }
        }
    }

    /// PNG scatter of partition `p`: writes every message's contribution
    /// into its slot, one sequential bin per destination partition.
    /// `prefetch` arms the hints that warm each bin's write cursor and run
    /// [`PREFETCH_DISTANCE`] sources ahead on the random reads.
    ///
    /// # Safety
    /// The caller owns partition `p` — and with it the slots of `p`'s bins:
    /// no other thread accesses those slots or writes `rank` at `p`'s
    /// vertices until this returns.
    pub unsafe fn scatter_bins(
        &self,
        p: usize,
        rank: &SharedSlice<f32>,
        inv_deg: &[f32],
        vals: &SharedSlice<f32>,
        prefetch: bool,
    ) {
        self.assert_vertex_buffer("rank", rank.len());
        self.assert_vertex_buffer("inv_deg", inv_deg.len());
        self.assert_slot_buffer(vals.len());
        for pair in self.layout.png_of(p) {
            let srcs = self.layout.png_sources(pair);
            let first_slot = pair.slot_start as usize;
            if prefetch {
                // The slot run starts on a cold line per bin.
                vals.prefetch(first_slot);
            }
            let mut pf = LineFilter::new();
            for (k, &src) in srcs.iter().enumerate() {
                if prefetch {
                    if let Some(&ahead) = srcs.get(k + PREFETCH_DISTANCE) {
                        if pf.admit(ahead as usize) {
                            rank.prefetch(ahead as usize);
                            prefetch_read(inv_deg, ahead as usize);
                        }
                    }
                }
                let src = src as usize;
                // SAFETY: the check put every PNG source in `p`, below
                // `num_vertices`, and every bin's slots below `total_msgs`;
                // the asserts above made those the buffers' lengths. The
                // caller owns `p`'s bins.
                unsafe {
                    let val = rank.get_unchecked(src) * *inv_deg.get_unchecked(src);
                    vals.write_unchecked(first_slot + k, val);
                }
            }
        }
    }

    /// Inbox gather of partition `q`: adds every message's value into the
    /// accumulators of its destinations, in slot order. `prefetch` arms the
    /// hint that warms the accumulator [`PREFETCH_DISTANCE`] entries ahead
    /// on the stream.
    ///
    /// # Safety
    /// The caller owns partition `q`: no other thread accesses `acc` at
    /// `q`'s vertices or writes `q`'s slots of `vals` until this returns.
    pub unsafe fn gather(
        &self,
        q: usize,
        vals: &SharedSlice<f32>,
        acc: &SharedSlice<f32>,
        prefetch: bool,
    ) {
        self.assert_slot_buffer(vals.len());
        self.assert_vertex_buffer("acc", acc.len());
        let first_slot = self.layout.part_slot_ranges[q].start as usize;
        let inbox = self.layout.inbox(q);
        let mut pf = LineFilter::new();
        // Run k of the stream is slot `first_slot + k`.
        for (e, (k, dst)) in run_entries(inbox).enumerate() {
            if prefetch {
                if let Some(&ahead) = inbox.get(e + PREFETCH_DISTANCE) {
                    if pf.admit(run_vertex(ahead)) {
                        acc.prefetch(run_vertex(ahead));
                    }
                }
            }
            // SAFETY: the check gave the inbox one flagged run per slot of
            // `q`, opening with one, and ended `q`'s slots at or before
            // `total_msgs`, so `first_slot + k < vals.len()`; it put every
            // destination in `q`, below `num_vertices == acc.len()`. The
            // caller owns `q`.
            unsafe {
                let val = vals.get_unchecked(first_slot + k);
                acc.update_unchecked(dst, |a| *a += val);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipa_graph::{Csr, EdgeList};

    /// Slot `k`'s destination list and vertex `v`'s intra list, decoded
    /// from the run streams.
    fn decode(l: &PcpmLayout) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
        let mut dests = vec![Vec::new(); l.total_msgs as usize];
        let mut intra = vec![Vec::new(); l.num_vertices];
        for p in 0..l.num_partitions {
            let base = l.part_slot_ranges[p].start as usize;
            for (k, dst) in run_entries(l.inbox(p)) {
                dests[base + k].push(dst as u32);
            }
            let (stream, srcs) = l.intra_runs(p);
            for (k, dst) in run_entries(stream) {
                intra[srcs[k] as usize].push(dst as u32);
            }
        }
        (dests, intra)
    }

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
        let (dests, intra) = decode(&l);
        assert_eq!(intra[1], &[2]);
        let (parts, slots) = msgs_of(&l, 1);
        assert_eq!(parts, &[1]);
        assert_eq!(dests[slots[0] as usize], &[6, 7]);
        // On the wire: one flagged entry opens each run.
        assert_eq!(l.intra_dst, &[2 | RUN_FLAG]);
        assert_eq!(l.intra_srcs, &[1]);
        assert_eq!(l.dest_verts, &[6 | RUN_FLAG, 7]);
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
        let (dests, _) = decode(&l);
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
        assert_eq!(dests[s0[0] as usize], &[4, 5]);
        // Partition 0's inbox holds v3's message.
        let (_, s3) = msgs_of(&l, 3);
        assert_eq!(l.part_slot_ranges[0].clone().count(), 1);
        assert_eq!(dests[s3[0] as usize], &[0]);
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
        let mut expect = 0u64;
        for (q, r) in l.part_dest_ranges.iter().enumerate() {
            assert_eq!(r.start, expect);
            expect = r.end;
            // A non-empty inbox opens with a flagged entry, one per slot.
            let flags = l.inbox(q).iter().filter(|&&e| e & RUN_FLAG != 0).count();
            assert_eq!(flags as u64, l.part_slot_ranges[q].end - l.part_slot_ranges[q].start);
            assert!(l.inbox(q).first().is_none_or(|&e| e & RUN_FLAG != 0));
        }
        assert_eq!(expect as usize, l.dest_verts.len());
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

    #[test]
    fn runs_split_a_stream_at_its_flags() {
        let f = RUN_FLAG;
        let stream = [3 | f, 4, 5, 9 | f, 1 | f, 2];
        let got: Vec<&[u32]> = runs(&stream).collect();
        assert_eq!(got, vec![&[3 | f, 4, 5][..], &[9 | f][..], &[1 | f, 2][..]]);
        let entries: Vec<(usize, usize)> = run_entries(&stream).collect();
        assert_eq!(entries, [(0, 3), (0, 4), (0, 5), (1, 9), (2, 1), (2, 2)]);
        assert_eq!(runs(&[]).count(), 0);
        assert_eq!(run_entries(&[]).count(), 0);
    }

    /// A graph of 2^31 vertices cannot be built in a test; the bound is
    /// checked on the counts alone.
    #[test]
    fn run_flag_bound_admits_2_pow_31_vertices() {
        check_run_flag_bound(0);
        check_run_flag_bound(1 << 31);
    }

    #[test]
    #[should_panic(expected = "RUN_FLAG")]
    fn run_flag_bound_rejects_more_vertices() {
        check_run_flag_bound((1 << 31) + 1);
    }

    /// Partitions {0..4} and {4..8}: v1 has the intra run [2, 3] and one
    /// message to {6, 7}; v5 has the intra run [6] and one message to {0}.
    fn check_fixture() -> PcpmLayout {
        let edges = [(1, 2), (1, 3), (1, 6), (1, 7), (5, 0), (5, 6)];
        let el = EdgeList::new(8, edges.iter().map(|&e| e.into()).collect());
        PcpmLayout::build(&Csr::from_edge_list(&el), 4, false)
    }

    /// Builds the fixture, breaks it with `corrupt`, and creates the view.
    fn check_corrupted(corrupt: impl FnOnce(&mut PcpmLayout)) {
        let mut l = check_fixture();
        corrupt(&mut l);
        l.kernels(2);
    }

    #[test]
    fn built_layout_passes_the_kernel_check() {
        let l = check_fixture();
        let f = RUN_FLAG;
        assert_eq!(l.intra_dst, [2 | f, 3, 6 | f]);
        assert_eq!(l.intra_srcs, [1, 5]);
        assert_eq!(l.dest_verts, [f, 6 | f, 7]);
        assert_eq!(l.png_src, [1, 5]);
        assert_eq!(l.png_pairs[0], PngPair { dst_part: 1, slot_start: 1, src_start: 0, len: 1 });
        assert_eq!(l.total_msgs, 2);
        l.kernels(2);
    }

    #[test]
    #[should_panic(expected = "partition 1: inbox entry outside the partition")]
    fn kernel_check_rejects_inbox_entry_outside_its_partition() {
        check_corrupted(|l| l.dest_verts[2] = 1);
    }

    #[test]
    #[should_panic(expected = "partition 1: inbox stream does not open with RUN_FLAG")]
    fn kernel_check_rejects_missing_leading_flag() {
        check_corrupted(|l| l.dest_verts[1] = 6);
    }

    #[test]
    #[should_panic(expected = "partition 1: inbox RUN_FLAG count != slot count")]
    fn kernel_check_rejects_one_flag_too_many() {
        check_corrupted(|l| l.dest_verts[2] = 7 | RUN_FLAG);
    }

    #[test]
    #[should_panic(expected = "partition 1: intra source outside the partition")]
    fn kernel_check_rejects_intra_source_outside_its_partition() {
        check_corrupted(|l| l.intra_srcs[1] = 1);
    }

    #[test]
    #[should_panic(expected = "partition 1: PNG source outside the partition")]
    fn kernel_check_rejects_png_source_outside_its_partition() {
        check_corrupted(|l| l.png_src[1] = 1);
    }

    #[test]
    #[should_panic(expected = "partition 0: PNG bin")]
    fn kernel_check_rejects_bin_past_total_msgs() {
        check_corrupted(|l| l.png_pairs[0].len = 2);
    }

    #[test]
    #[should_panic(expected = "PCPM kernel: vals holds 1 entries for 2 slots")]
    fn kernels_assert_buffer_lengths_at_entry() {
        let l = check_fixture();
        let (mut vals, mut acc) = (vec![0.0f32; 1], vec![0.0f32; 8]);
        let (vals, acc) = (SharedSlice::new(&mut vals), SharedSlice::new(&mut acc));
        // SAFETY: single-threaded; the kernel panics before any access.
        unsafe { l.kernels(1).gather(1, &vals, &acc, false) };
    }
}
