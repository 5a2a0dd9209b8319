//! Shared implementation of the two NUMA-oblivious partition-centric
//! baselines (p-PR and GPOP-lite).
//!
//! Both use the PCPM scatter/gather layout from `hipa_core::pcpm`, but —
//! unlike HiPa — with the conventional partition-centric execution model
//! the paper's §3.2/§3.3 argue against:
//!
//! * **many-to-many threads↔partitions**: partitions are claimed first-come-
//!   first-serve from a shared atomic counter (the native path really does
//!   this; the simulated path charges the atomic claim and deals partitions
//!   round-robin, which is what FCFS converges to under uniform progress);
//! * **Algorithm 1 thread lifecycle**: a fresh OS-placed thread pool per
//!   parallel region (2 regions per iteration). The recreation cost is
//!   charged on the simulated path (`create_pool` per region); the native
//!   path runs both regions on one persistent rayon pool of `threads`
//!   resident workers — real frameworks sit on a persistent runtime too,
//!   and the FCFS claiming is the baseline-defining behaviour, not the
//!   thread spawns;
//! * **NUMA-oblivious placement**: all pages interleaved.
//!
//! GPOP-lite differs from p-PR by `include_intra_in_bins` (the framework
//! bins every edge, with no direct intra-edge application) and by touching
//! per-partition framework metadata (Flags/State) in every phase.
//!
//! disjointness: FCFS claim plan — a shared `ClaimCounter` hands each
//! partition index to exactly one thread per region, so acc/rank/vals/delta
//! writes (indexed by claimed partition) and the per-thread `partials[j]`
//! slot are disjoint. Slices are recreated per scatter/gather region, so
//! each slice lifetime sees one writer per element even though claims
//! differ between regions.

use crate::common::{base_value, dangling_mass, inv_deg_array_par};
use hipa_core::convergence;
use hipa_core::disjoint::SharedSlice;
use hipa_core::hb::ClaimCounter;
use hipa_core::pcpm::{run_vertex, runs};
use hipa_core::prefetch::{LineFilter, PREFETCH_DISTANCE};
use hipa_core::{
    DanglingPolicy, NativeOpts, NativeRun, PageRankConfig, PcpmLayout, SimOpts, SimRun,
};
use hipa_graph::{DiGraph, VERTEX_BYTES};
use hipa_numasim::{PhaseBalance, Placement, SimMachine, ThreadPlacement};
use hipa_obs::{
    record_sim_report, PoolCounters, Recorder, TraceMeta, PATH_NATIVE, PATH_SIM, RUN_LEVEL,
};
use std::time::Instant;

/// Behavioural knobs distinguishing p-PR from GPOP-lite.
#[derive(Debug, Clone, Copy)]
pub struct PcpmParams {
    pub label: &'static str,
    /// Bin every edge (GPOP) instead of applying intra-edges directly (p-PR).
    pub include_intra_in_bins: bool,
    /// Framework metadata bytes per partition, read+written each phase.
    pub meta_bytes_per_part: usize,
    /// Bytes per message in the bins: 4 for the hand-tuned p-PR (pure
    /// values), 8 for the generic framework (id + value pairs).
    pub payload_bytes: usize,
    /// Framework overhead per processed edge/message (user-function
    /// dispatch, id decoding, bounds/state checks) in arithmetic-op units.
    /// 0 for hand-tuned code.
    pub extra_ops_per_edge: u64,
}

pub fn run_native(
    g: &DiGraph,
    cfg: &PageRankConfig,
    opts: &NativeOpts,
    params: &PcpmParams,
) -> NativeRun {
    if let Some(run) =
        hipa_core::preorder::native(g, cfg, opts, |g, cfg, opts| run_native(g, cfg, opts, params))
    {
        return run;
    }
    let n = g.num_vertices();
    let rec = Recorder::new(opts.trace);
    if n == 0 {
        let converged = convergence::effective_tolerance(cfg.tolerance).is_some();
        return NativeRun {
            ranks: Vec::new(),
            preprocess: Default::default(),
            compute: Default::default(),
            iterations_run: 0,
            converged,
            trace: rec.finish(TraceMeta {
                engine: params.label.into(),
                path: PATH_NATIVE,
                threads: opts.threads.max(1) as u64,
                converged,
                ..TraceMeta::default()
            }),
        };
    }
    let threads = opts.threads.max(1);
    // Adaptive hint gate — see the sim path: hints arm only when the
    // partition's random-access span spills the (assumed) L2.
    let do_prefetch = opts.prefetch && opts.partition_bytes > hipa_core::prefetch::NATIVE_L2_BYTES;
    let tol = convergence::effective_tolerance(cfg.tolerance);
    // Residuals feed the stop rule *or* the trace's convergence trajectory.
    let track = tol.is_some() || rec.enabled();
    let vpp = (opts.partition_bytes / VERTEX_BYTES).max(1);

    let build_threads = opts.effective_build_threads();

    let pc = PoolCounters::start(&rec);
    let t0 = Instant::now();
    let layout = PcpmLayout::build_par_ext(
        g.out_csr(),
        vpp,
        params.include_intra_in_bins,
        true,
        build_threads,
    );
    let kernels = layout.kernels(build_threads);
    let inv_deg = inv_deg_array_par(g, build_threads);
    // One persistent pool of `threads` resident workers for the whole run
    // (see the module docs); construction is part of the setup cost.
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("rayon pool");
    let preprocess = t0.elapsed();

    let d = cfg.damping;
    let parts = layout.num_partitions;
    let mut rank = vec![1.0f32 / n as f32; n];
    let mut acc = vec![0.0f32; n];
    let mut vals = vec![0.0f32; layout.total_msgs as usize];
    let mut dangling = dangling_mass(g, cfg, &rank);
    let degs = g.out_degrees();
    // Residuals are accumulated per *partition* (not per thread): FCFS
    // claiming makes the thread→partition map nondeterministic, and the
    // shared convergence rule requires a deterministic f64 reduction order.
    let mut delta_parts = vec![0.0f64; if track { parts } else { 0 }];
    let mut iterations_run = 0usize;
    let mut converged = false;
    let claims_counter = rec.counter("partition_claims");

    let t1 = Instant::now();
    for it in 0..cfg.iterations {
        let base = base_value(cfg, n, dangling);
        // --- Scatter region: FCFS partition claiming on the pool ---
        let scatter_t = rec.start();
        {
            let rank_s = SharedSlice::new(&mut rank);
            let acc_s = SharedSlice::new(&mut acc);
            let vals_s = SharedSlice::new(&mut vals);
            let counter = ClaimCounter::new();
            pool.scope(|scope| {
                for j in 0..threads {
                    let rank_s = &rank_s;
                    let acc_s = &acc_s;
                    let vals_s = &vals_s;
                    let counter = &counter;
                    let kernels = &kernels;
                    let inv_deg = &inv_deg;
                    let rec = &rec;
                    let claims_counter = claims_counter.clone();
                    scope.spawn(move |_| {
                        let mut spans = rec.thread_spans(j);
                        let span_t = spans.start();
                        let mut claims = 0u64;
                        loop {
                            // ordering: see `ClaimCounter::claim` —
                            // relaxed uniqueness normally, an AcqRel +
                            // vector-clock edge under the checker features;
                            // data visibility comes from the region's join.
                            let p = counter.claim();
                            if p >= parts {
                                break;
                            }
                            claims += 1;
                            // SAFETY: p was claimed exclusively by this
                            // thread: its vertices (acc writes; rank is read
                            // only in this region) and its PNG bins' slots.
                            unsafe {
                                kernels.scatter_intra(p, rank_s, inv_deg, acc_s);
                                kernels.scatter_bins(p, rank_s, inv_deg, vals_s, do_prefetch);
                            }
                        }
                        spans.end(span_t, "scatter", it);
                        spans.record("scatter.claims", it, claims as f64);
                        claims_counter.add(claims);
                        spans.flush(rec);
                    });
                }
            });
        }
        rec.end(scatter_t, "scatter", RUN_LEVEL, it as i64);
        // --- Gather region ---
        let gather_t = rec.start();
        let mut partials = vec![0.0f64; threads];
        {
            let rank_s = SharedSlice::new(&mut rank);
            let acc_s = SharedSlice::new(&mut acc);
            let vals_s = SharedSlice::new(&mut vals);
            let partials_s = SharedSlice::new(&mut partials);
            let deltas_s = SharedSlice::new(&mut delta_parts);
            let counter = ClaimCounter::new();
            pool.scope(|scope| {
                for j in 0..threads {
                    let rank_s = &rank_s;
                    let acc_s = &acc_s;
                    let vals_s = &vals_s;
                    let partials_s = &partials_s;
                    let deltas_s = &deltas_s;
                    let counter = &counter;
                    let layout = &layout;
                    let kernels = &kernels;
                    let rec = &rec;
                    let claims_counter = claims_counter.clone();
                    scope.spawn(move |_| {
                        let mut spans = rec.thread_spans(j);
                        let span_t = spans.start();
                        let mut claims = 0u64;
                        let mut dpart = 0.0f64;
                        loop {
                            // ordering: see `ClaimCounter::claim` — same
                            // discipline as the scatter region above.
                            let q = counter.claim();
                            if q >= parts {
                                break;
                            }
                            claims += 1;
                            // SAFETY: q was claimed exclusively by this
                            // thread; vals is only read in this region.
                            unsafe { kernels.gather(q, vals_s, acc_s, do_prefetch) };
                            let vr = layout.partition_vertices(q);
                            let mut delta = 0.0f64;
                            for v in vr.start as usize..vr.end as usize {
                                // SAFETY: own claimed partition.
                                let a = unsafe { acc_s.get(v) };
                                let new = base + d * a;
                                if track {
                                    // SAFETY: own partition (pre-write read).
                                    let old = unsafe { rank_s.get(v) };
                                    delta += convergence::l1_term(new, old);
                                }
                                // SAFETY: v is inside the exclusively claimed
                                // partition q.
                                unsafe {
                                    rank_s.write(v, new);
                                    acc_s.write(v, 0.0);
                                }
                                if matches!(cfg.dangling, DanglingPolicy::Redistribute)
                                    && degs[v] == 0
                                {
                                    dpart += new as f64;
                                }
                            }
                            if track {
                                // SAFETY: slot q belongs to the exclusively
                                // claimed partition.
                                unsafe { deltas_s.write(q, delta) };
                            }
                        }
                        // SAFETY: own slot.
                        unsafe { partials_s.write(j, dpart) };
                        spans.end(span_t, "gather", it);
                        spans.record("gather.claims", it, claims as f64);
                        claims_counter.add(claims);
                        spans.flush(rec);
                    });
                }
            });
        }
        rec.end(gather_t, "gather", RUN_LEVEL, it as i64);
        if matches!(cfg.dangling, DanglingPolicy::Redistribute) {
            dangling = partials.iter().sum();
        }
        iterations_run += 1;
        if track {
            let residual = convergence::reduce(&delta_parts);
            rec.gauge(it, Some(residual), Some(parts as u64));
            if let Some(t) = tol {
                if convergence::should_stop(residual, t) {
                    converged = true;
                    break;
                }
            }
        }
    }
    let compute = t1.elapsed();
    rec.record("preprocess", RUN_LEVEL, RUN_LEVEL, preprocess.as_nanos() as f64);
    rec.record("compute", RUN_LEVEL, RUN_LEVEL, compute.as_nanos() as f64);
    pc.finish(&rec, threads as u64);
    let trace = rec.finish(TraceMeta {
        engine: params.label.into(),
        path: PATH_NATIVE,
        machine: None,
        vertices: n as u64,
        edges: g.num_edges() as u64,
        threads: threads as u64,
        partitions: Some(parts as u64),
        iterations_run: iterations_run as u64,
        converged,
    });
    NativeRun { ranks: rank, preprocess, compute, iterations_run, converged, trace }
}

pub fn run_sim(g: &DiGraph, cfg: &PageRankConfig, opts: &SimOpts, params: &PcpmParams) -> SimRun {
    if let Some(run) =
        hipa_core::preorder::sim(g, cfg, opts, |g, cfg, opts| run_sim(g, cfg, opts, params))
    {
        return run;
    }
    let n = g.num_vertices();
    let mut machine = SimMachine::new(opts.machine.clone());
    let rec = Recorder::new(opts.trace);
    if n == 0 {
        let converged = convergence::effective_tolerance(cfg.tolerance).is_some();
        let report = machine.report(params.label);
        return SimRun {
            ranks: Vec::new(),
            iterations_run: 0,
            converged,
            trace: rec.finish(TraceMeta {
                engine: params.label.into(),
                path: PATH_SIM,
                machine: Some(report.machine.clone()),
                threads: opts.threads as u64,
                converged,
                ..TraceMeta::default()
            }),
            report,
            preprocess_cycles: 0.0,
            compute_cycles: 0.0,
        };
    }
    let threads = opts.threads.clamp(1, machine.spec().topology.logical_cpus());
    let vpp = (opts.partition_bytes / VERTEX_BYTES).max(1);
    // Adaptive hint gate (DESIGN.md §12): PCPM's partition-resident random
    // accesses don't need hints; they arm when the partition spills the L2.
    let do_prefetch = opts.prefetch && opts.partition_bytes > opts.machine.l2.size_bytes;
    let m = g.num_edges();

    // Host-side build on `build_threads` workers; the simulated preprocessing
    // cost charged below is unchanged (same passes, same bytes). The pool
    // deltas attribute the build's real scheduling work.
    let pc = PoolCounters::start(&rec);
    let layout = PcpmLayout::build_par_ext(
        g.out_csr(),
        vpp,
        params.include_intra_in_bins,
        true,
        opts.effective_build_threads(),
    );
    let msgs = layout.total_msgs as usize;
    let n_intra = layout.intra_dst.len();
    let n_dest = layout.dest_verts.len();
    let parts = layout.num_partitions;

    // NUMA-oblivious: interleaved everywhere.
    let il = || Placement::Interleaved;
    let rank_r = machine.alloc("rank", 4 * n, il());
    // Pre-scaled contributions (rank/outdeg computed once at finalise) — the
    // PCPM trick that keeps each phase's random working set to one vertex
    // array per partition.
    let contrib_r = machine.alloc("contrib", 4 * n, il());
    let acc_r = machine.alloc("acc", 4 * n, il());
    let invdeg_r = machine.alloc("inv_deg", 4 * n, il());
    let deg_r = machine.alloc("deg", 4 * n, il());
    // Runtime metadata widths follow the PCPM encoding (see hipa-core's
    // sim path): u32 intra offsets, 12-byte PNG bin headers, u32 source
    // lists, MSB-flagged destination lists.
    let payload = params.payload_bytes;
    let intra_off_r = machine.alloc("intra_offsets", 4 * (n + 1), il());
    let intra_dst_r = machine.alloc("intra_dst", 4 * n_intra.max(1), il());
    let png_pairs_r = machine.alloc("png_pairs", (12 * layout.png_pairs.len()).max(64), il());
    let png_src_r = machine.alloc("png_src", 4 * msgs.max(1), il());
    let vals_r = machine.alloc("vals", (payload * msgs).max(64), il());
    let dest_verts_r = machine.alloc("dest_verts", 4 * n_dest.max(1), il());
    let sched_r = machine.alloc("fcfs_counter", 64, il());
    let meta_r = machine.alloc("part_meta", (params.meta_bytes_per_part * parts).max(64), il());
    let csr_tgt_r = machine.alloc("csr_targets", 4 * m.max(1), il());
    let csr_off_r = machine.alloc("csr_offsets", 8 * (n + 1), il());

    // Preprocessing: the PCPM layout build (three edge passes + writes).
    machine.seq(|ctx| {
        for _pass in 0..3 {
            ctx.stream_read(csr_off_r, 0, 8 * (n + 1));
            if m > 0 {
                ctx.stream_read(csr_tgt_r, 0, 4 * m);
            }
            ctx.compute(2 * m as u64);
        }
        for (r, bytes) in [
            (rank_r, 4 * n),
            (contrib_r, 4 * n),
            (acc_r, 4 * n),
            (invdeg_r, 4 * n),
            (intra_off_r, 4 * (n + 1)),
            (intra_dst_r, 4 * n_intra),
            (png_pairs_r, 12 * layout.png_pairs.len()),
            (png_src_r, 4 * msgs),
            (dest_verts_r, 4 * n_dest),
        ] {
            if bytes > 0 {
                ctx.stream_write(r, 0, bytes);
            }
        }
    });
    let preprocess_cycles = machine.cycles();
    rec.record("preprocess", RUN_LEVEL, RUN_LEVEL, preprocess_cycles);

    let inv_deg = inv_deg_array_par(g, opts.effective_build_threads());
    let d = cfg.damping;
    let inv_n = 1.0f32 / n as f32;
    let mut rank = vec![inv_n; n];
    let mut contrib: Vec<f32> = (0..n).map(|v| inv_n * inv_deg[v]).collect();
    let mut acc = vec![0.0f32; n];
    let mut vals = vec![0.0f32; msgs];
    let mut dangling = dangling_mass(g, cfg, &rank);
    let degs = g.out_degrees();
    let meta = params.meta_bytes_per_part;
    let tol = convergence::effective_tolerance(cfg.tolerance);
    // `track_model` (the tolerance check) governs the *charged* rank-vector
    // traffic; `track_host` additionally materialises ranks host-side so
    // the trace can carry the convergence trajectory. Cycles and counters
    // are identical with tracing on or off.
    let track_model = tol.is_some();
    let track_host = track_model || rec.enabled();
    // Per-partition residual slots, mirroring the native path's
    // deterministic reduction order.
    let mut delta_parts = vec![0.0f64; if track_host { parts } else { 0 }];
    let mut iterations_run = 0usize;
    let mut converged = false;
    let claims_counter = rec.counter("partition_claims");

    for it in 0..cfg.iterations {
        // Under tolerance mode the rank vector is materialised every
        // iteration (needed for the delta and as the final output).
        let charge_last = it + 1 == cfg.iterations || track_model;
        let materialise = it + 1 == cfg.iterations || track_host;
        let base = base_value(cfg, n, dangling);

        // --- Scatter region: fresh OS-placed pool, FCFS claims ---
        let pool = machine.create_pool(threads, &ThreadPlacement::OsRandom);
        let scatter_c0 = machine.cycles();
        {
            let contrib = &contrib;
            let acc = &mut acc;
            let vals = &mut vals;
            let layout = &layout;
            let rec = &rec;
            let claims_counter = &claims_counter;
            machine.phase_balanced(pool, PhaseBalance::Dynamic, |j, ctx| {
                let mut claims = 0u64;
                let mut p = j;
                while p < parts {
                    claims += 1;
                    // FCFS claim on the shared counter.
                    ctx.atomic_rmw(sched_r, 0, 8);
                    if meta > 0 {
                        ctx.stream_read(meta_r, p * meta, meta);
                        ctx.stream_write(meta_r, p * meta, meta);
                    }
                    let vr = layout.partition_vertices(p);
                    let (lo, hi) = (vr.start as usize, vr.end as usize);
                    if lo < hi {
                        let len = hi - lo;
                        // Intra pass (absent in the binned GPOP mode). The
                        // model keeps its u32 per-vertex offset charge
                        // (DESIGN.md §2).
                        let (stream, srcs) = layout.intra_runs(p);
                        if !stream.is_empty() {
                            let ilo = layout.part_intra_ranges[p].start as usize;
                            ctx.stream_read(intra_off_r, 4 * lo, 4 * (len + 1));
                            ctx.stream_read(intra_dst_r, 4 * ilo, 4 * stream.len());
                            for (&v, intra) in srcs.iter().zip(runs(stream)) {
                                let v = v as usize;
                                ctx.read(contrib_r, 4 * v, 4);
                                let val = contrib[v];
                                for &e in intra {
                                    let dst = run_vertex(e);
                                    acc[dst] += val;
                                    ctx.write(acc_r, 4 * dst, 4);
                                }
                                ctx.compute(1 + intra.len() as u64);
                            }
                        }
                        // PNG pass: sequential bin writes per destination.
                        let pairs = layout.png_of(p);
                        if !pairs.is_empty() {
                            let pr = layout.png_index[p].clone();
                            ctx.stream_read(png_pairs_r, 12 * pr.start as usize, 12 * pairs.len());
                        }
                        for pair in pairs {
                            let srcs = layout.png_sources(pair);
                            ctx.stream_read(png_src_r, 4 * pair.src_start as usize, 4 * srcs.len());
                            ctx.stream_write(
                                vals_r,
                                payload * pair.slot_start as usize,
                                payload * srcs.len(),
                            );
                            // Mirror the native kernel's hints: warm the bin
                            // write cursor, run ahead on the random reads.
                            if do_prefetch {
                                ctx.prefetch(vals_r, payload * pair.slot_start as usize, payload);
                            }
                            let mut pf = LineFilter::new();
                            for (k, &src) in srcs.iter().enumerate() {
                                if do_prefetch {
                                    if let Some(&ahead) = srcs.get(k + PREFETCH_DISTANCE) {
                                        if pf.admit(ahead as usize) {
                                            ctx.prefetch(contrib_r, 4 * ahead as usize, 4);
                                        }
                                    }
                                }
                                ctx.read(contrib_r, 4 * src as usize, 4);
                                vals[pair.slot_start as usize + k] = contrib[src as usize];
                            }
                            ctx.compute((1 + params.extra_ops_per_edge) * srcs.len() as u64);
                        }
                    }
                    p += threads;
                }
                rec.record("scatter.claims", j as i64, it as i64, claims as f64);
                if rec.enabled() {
                    rec.record("scatter", j as i64, it as i64, ctx.thread_cycles());
                }
                claims_counter.add(claims);
            });
        }
        rec.record("scatter", RUN_LEVEL, it as i64, machine.cycles() - scatter_c0);

        // --- Gather region ---
        let mut partials = vec![0.0f64; threads];
        let pool = machine.create_pool(threads, &ThreadPlacement::OsRandom);
        let gather_c0 = machine.cycles();
        {
            let rank = &mut rank;
            let contrib = &mut contrib;
            let inv_deg = &inv_deg;
            let acc = &mut acc;
            let vals = &vals;
            let layout = &layout;
            let partials = &mut partials;
            let delta_parts = &mut delta_parts;
            let rec = &rec;
            let claims_counter = &claims_counter;
            machine.phase_balanced(pool, PhaseBalance::Dynamic, |j, ctx| {
                let mut claims = 0u64;
                let mut dpart = 0.0f64;
                let mut q = j;
                while q < parts {
                    claims += 1;
                    ctx.atomic_rmw(sched_r, 0, 8);
                    if meta > 0 {
                        ctx.stream_read(meta_r, q * meta, meta);
                        ctx.stream_write(meta_r, q * meta, meta);
                    }
                    let sr = layout.part_slot_ranges[q].clone();
                    let (slo, shi) = (sr.start as usize, sr.end as usize);
                    if shi > slo {
                        ctx.stream_read(vals_r, payload * slo, payload * (shi - slo));
                        // Message boundaries ride as MSB flags in the
                        // destination list; no separate offsets stream.
                        let inbox = layout.inbox(q);
                        let dlo = layout.part_dest_ranges[q].start as usize;
                        ctx.stream_read(dest_verts_r, 4 * dlo, 4 * inbox.len());
                        let mut pf = LineFilter::new();
                        let mut ahead = runs(inbox).skip(PREFETCH_DISTANCE);
                        for (k, dests) in (slo..shi).zip(runs(inbox)) {
                            // Run ahead on the accumulator lines the slot
                            // `PREFETCH_DISTANCE` messages onward will hit.
                            if do_prefetch {
                                for &e in ahead.next().unwrap_or_default() {
                                    if pf.admit(run_vertex(e)) {
                                        ctx.prefetch(acc_r, 4 * run_vertex(e), 4);
                                    }
                                }
                            }
                            let val = vals[k];
                            for &e in dests {
                                let dst = run_vertex(e);
                                acc[dst] += val;
                                ctx.write(acc_r, 4 * dst, 4);
                            }
                            ctx.compute((1 + params.extra_ops_per_edge) * dests.len() as u64);
                        }
                    }
                    let vr = layout.partition_vertices(q);
                    let (lo, hi) = (vr.start as usize, vr.end as usize);
                    if lo < hi {
                        let len = hi - lo;
                        ctx.stream_read(acc_r, 4 * lo, 4 * len);
                        ctx.stream_read(invdeg_r, 4 * lo, 4 * len);
                        ctx.stream_write(contrib_r, 4 * lo, 4 * len);
                        ctx.stream_write(acc_r, 4 * lo, 4 * len);
                        if charge_last {
                            if track_model {
                                ctx.stream_read(rank_r, 4 * lo, 4 * len);
                            }
                            ctx.stream_write(rank_r, 4 * lo, 4 * len);
                        }
                        if matches!(cfg.dangling, DanglingPolicy::Redistribute) {
                            ctx.stream_read(deg_r, 4 * lo, 4 * len);
                        }
                        let mut delta = 0.0f64;
                        for v in lo..hi {
                            let new = base + d * acc[v];
                            contrib[v] = new * inv_deg[v];
                            acc[v] = 0.0;
                            if materialise {
                                if track_host {
                                    delta += convergence::l1_term(new, rank[v]);
                                }
                                rank[v] = new;
                            }
                            if matches!(cfg.dangling, DanglingPolicy::Redistribute) && degs[v] == 0
                            {
                                dpart += new as f64;
                            }
                        }
                        ctx.compute(3 * len as u64);
                        if track_host {
                            delta_parts[q] = delta;
                        }
                    }
                    q += threads;
                }
                partials[j] = dpart;
                rec.record("gather.claims", j as i64, it as i64, claims as f64);
                if rec.enabled() {
                    rec.record("gather", j as i64, it as i64, ctx.thread_cycles());
                }
                claims_counter.add(claims);
            });
        }
        rec.record("gather", RUN_LEVEL, it as i64, machine.cycles() - gather_c0);
        if matches!(cfg.dangling, DanglingPolicy::Redistribute) {
            dangling = partials.iter().sum();
        }
        iterations_run = it + 1;
        if track_host {
            let residual = convergence::reduce(&delta_parts);
            rec.gauge(it, Some(residual), Some(parts as u64));
            if let Some(t) = tol {
                if convergence::should_stop(residual, t) {
                    converged = true;
                    break;
                }
            }
        }
    }

    let total = machine.cycles();
    rec.record("compute", RUN_LEVEL, RUN_LEVEL, total - preprocess_cycles);
    let report = machine.report(params.label);
    record_sim_report(&rec, &report);
    pc.finish(&rec, threads as u64);
    let trace = rec.finish(TraceMeta {
        engine: params.label.into(),
        path: PATH_SIM,
        machine: Some(report.machine.clone()),
        vertices: n as u64,
        edges: g.num_edges() as u64,
        threads: threads as u64,
        partitions: Some(parts as u64),
        iterations_run: iterations_run as u64,
        converged,
    });
    SimRun {
        ranks: rank,
        iterations_run,
        converged,
        report,
        preprocess_cycles,
        compute_cycles: total - preprocess_cycles,
        trace,
    }
}
