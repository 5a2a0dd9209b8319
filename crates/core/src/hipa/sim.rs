//! HiPa on the simulated NUMA machine.
//!
//! Region placement follows §3.4: every array is one contiguous virtual
//! range whose pages are distributed so that the slice belonging to node
//! `i`'s vertices / partitions / message slots physically lives on node `i`.
//! Threads are created once, pinned node-major (physical cores before SMT
//! siblings), and run the whole iterative scatter–gather computation
//! (Algorithm 2).

use crate::config::{DanglingPolicy, PageRankConfig};
use crate::convergence;
use crate::hipa::placement::{part_ends, vertex_ends};
use crate::pcpm::{run_vertex, runs, PcpmLayout};
use crate::prefetch::{LineFilter, PREFETCH_DISTANCE};
use crate::runs::{SimOpts, SimRun};
use hipa_graph::{DiGraph, VERTEX_BYTES};
use hipa_numasim::{PhaseBalance, Placement, PoolId, SimMachine, ThreadPlacement};
use hipa_obs::{record_sim_report, PoolCounters, Recorder, TraceMeta, PATH_SIM, RUN_LEVEL};
use hipa_partition::hipa_plan_with_prefix;

/// Design-choice switches for the ablation experiments (DESIGN.md §7). The
/// default is the full HiPa design; each ablation bin flips one switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HiPaVariant {
    /// Inter-edge compression (§3.4, Fig. 4). Off = one message per edge.
    pub compress_inter: bool,
    /// Thread-data pinning (§3.3): threads pinned to cores node-major and
    /// partitions statically grouped per thread. Off = OS-placed threads
    /// claiming partitions FCFS.
    pub thread_pinning: bool,
    /// Algorithm 2 persistent threads. Off = a fresh parallel region (new
    /// pool) per phase, Algorithm 1 style.
    pub persistent_threads: bool,
    /// §3.4 partition-mapped NUMA placement. Off = everything interleaved.
    pub partitioned_placement: bool,
}

impl Default for HiPaVariant {
    fn default() -> Self {
        HiPaVariant {
            compress_inter: true,
            thread_pinning: true,
            persistent_threads: true,
            partitioned_placement: true,
        }
    }
}

/// Appends one element's worth of coverage to the last node's range —
/// offset arrays have `len + 1` entries and the extra entry must be covered
/// by the placement.
fn plus_one_elem(mut ends: Vec<u64>) -> Vec<u64> {
    if let Some(l) = ends.last_mut() {
        *l += 1;
    }
    ends
}

pub fn run(g: &DiGraph, cfg: &PageRankConfig, opts: &SimOpts) -> SimRun {
    run_variant(g, cfg, opts, &HiPaVariant::default())
}

/// [`run`] with explicit design-choice switches (ablations).
pub fn run_variant(
    g: &DiGraph,
    cfg: &PageRankConfig,
    opts: &SimOpts,
    variant: &HiPaVariant,
) -> SimRun {
    if let Some(run) =
        crate::preorder::sim(g, cfg, opts, |g, cfg, opts| run_variant(g, cfg, opts, variant))
    {
        return run;
    }
    let n = g.num_vertices();
    let mut machine = SimMachine::new(opts.machine.clone());
    let rec = Recorder::new(opts.trace);
    if n == 0 {
        let converged = convergence::effective_tolerance(cfg.tolerance).is_some();
        let report = machine.report("HiPa");
        return SimRun {
            ranks: Vec::new(),
            iterations_run: 0,
            converged,
            trace: rec.finish(TraceMeta {
                engine: "HiPa".into(),
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
    let topo = machine.spec().topology;
    let sockets = topo.sockets;
    let threads = opts.threads.clamp(sockets, topo.logical_cpus());
    assert_eq!(
        threads % sockets,
        0,
        "HiPa distributes threads evenly: {threads} threads on {sockets} nodes"
    );
    let tpn = threads / sockets;
    let vpp = (opts.partition_bytes / VERTEX_BYTES).max(1);
    // Adaptive hint gate (DESIGN.md §12): PCPM sizes partitions so the
    // random-access working set (one partition's contribution/accumulator
    // span) is cache-resident — hints there only burn issue slots. They arm
    // exactly when the configured partition spills the L2.
    let do_prefetch = opts.prefetch && opts.partition_bytes > opts.machine.l2.size_bytes;

    // ---- Preprocessing (host work; its simulated cost is charged below).
    // Runs on `build_threads` host workers; the structures are bit-identical
    // to the sequential build, so the simulated run is unaffected. The pool
    // deltas attribute the build's real scheduling work. ----
    let pc = PoolCounters::start(&rec);
    let build_threads = opts.effective_build_threads();
    let prefix = crate::par::degree_prefix_parallel(g.out_degrees(), build_threads);
    let plan = hipa_plan_with_prefix(&prefix, sockets, tpn, vpp);
    let layout =
        PcpmLayout::build_par_ext(g.out_csr(), vpp, false, variant.compress_inter, build_threads);
    let msgs = layout.total_msgs as usize;
    let n_intra = layout.intra_dst.len();
    let n_dest = layout.dest_verts.len();

    // ---- Regions: partition-mapped contiguous layout (§3.4), or fully
    // interleaved when the placement ablation disables it ----
    let partitioned = variant.partitioned_placement;
    let blocked_by_index = |ends: &[u64], elem: usize| -> Placement {
        if partitioned {
            crate::hipa::placement::blocked_by_index(ends, elem)
        } else {
            Placement::Interleaved
        }
    };
    let v_ends = vertex_ends(&plan);
    let rank_r = machine.alloc("rank", 4 * n, blocked_by_index(&v_ends, 4));
    // Pre-scaled contributions (rank/outdeg, computed once per vertex at
    // finalise time) — the PCPM trick that keeps each phase's random working
    // set to ONE vertex array per partition.
    let contrib_r = machine.alloc("contrib", 4 * n, blocked_by_index(&v_ends, 4));
    let acc_r = machine.alloc("acc", 4 * n, blocked_by_index(&v_ends, 4));
    let invdeg_r = machine.alloc("inv_deg", 4 * n, blocked_by_index(&v_ends, 4));
    let deg_r = machine.alloc("deg", 4 * n, blocked_by_index(&v_ends, 4));
    // Runtime metadata widths follow the real PCPM encoding: 12-byte PNG
    // bin headers, u32 source lists, MSB-flagged u32 destination lists —
    // the streams the native kernels read. Intra-edges are charged as u32
    // per-vertex offsets plus the destination list, a fixed part of the
    // model even though the host streams flagged intra runs instead.
    let intra_off_r = machine.alloc(
        "intra_offsets",
        4 * (n + 1),
        blocked_by_index(&plus_one_elem(v_ends.clone()), 4),
    );
    let intra_ends = part_ends(&plan, &layout.part_intra_ranges);
    let intra_dst_r = machine.alloc("intra_dst", 4 * n_intra, blocked_by_index(&intra_ends, 4));
    // PNG scatter view, split by *source* partition ownership.
    let pair_ends: Vec<u64> = plan
        .nodes
        .iter()
        .map(|nd| {
            if nd.part_range.end == 0 {
                0
            } else {
                layout.png_index[nd.part_range.end - 1].end as u64
            }
        })
        .collect();
    let png_pairs_r =
        machine.alloc("png_pairs", 12 * layout.png_pairs.len(), blocked_by_index(&pair_ends, 12));
    // Node vertex ends are partition-aligned, so a node's messages end at
    // its last partition's end of the per-source-partition prefix.
    let src_offsets = layout.png_src_offsets();
    let msg_ends: Vec<u64> = plan.nodes.iter().map(|nd| src_offsets[nd.part_range.end]).collect();
    let png_src_r = machine.alloc("png_src", 4 * msgs, blocked_by_index(&msg_ends, 4));
    // Gather-side arrays are split by *destination* partition ownership, so
    // a node gathers from local memory (Fig. 1).
    let slot_ends = part_ends(&plan, &layout.part_slot_ranges);
    let vals_r = machine.alloc("vals", 4 * msgs, blocked_by_index(&slot_ends, 4));
    let dest_ends = part_ends(&plan, &layout.part_dest_ranges);
    let dest_verts_r = machine.alloc("dest_verts", 4 * n_dest, blocked_by_index(&dest_ends, 4));
    // Raw CSR as loaded from disk, before any NUMA awareness: interleaved.
    let m = g.num_edges();
    let csr_tgt_r = machine.alloc("csr_targets", 4 * m.max(1), Placement::Interleaved);
    let csr_off_r = machine.alloc("csr_offsets", 8 * (n + 1), Placement::Interleaved);

    // ---- Charge the preprocessing cost: plan (one degree scan), PCPM
    // layout (three edge passes), and the NUMA-aware binding copy of every
    // array the engine will use (§4.2's "graph partitioning and NUMA-aware
    // data binding" overhead).
    machine.seq(|ctx| {
        ctx.stream_read(csr_off_r, 0, 8 * (n + 1));
        ctx.compute(2 * n as u64);
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
            (deg_r, 4 * n),
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

    // ---- Thread management per variant. Full HiPa: one persistent pool,
    // pinned node-major (physical cores before hyper-thread siblings),
    // Algorithm 2. Ablations fall back to OS placement, node binding, or
    // per-region pools (Algorithm 1).
    let placement = if variant.thread_pinning {
        let mut cpus = Vec::with_capacity(threads);
        for node in 0..sockets {
            let on_socket = topo.logicals_on_socket(node);
            assert!(tpn <= on_socket.len(), "{tpn} threads exceed node {node}'s logical CPUs");
            cpus.extend_from_slice(&on_socket[..tpn]);
        }
        ThreadPlacement::Pinned(cpus)
    } else {
        ThreadPlacement::OsRandom
    };
    // Without persistent threads, NUMA-awareness falls back to per-region
    // node binding (the migration-prone Algorithm 1 pattern of §3.3).
    let per_region_placement = if variant.thread_pinning {
        let bind: Vec<usize> = plan.threads().map(|(node, _, _)| node).collect();
        ThreadPlacement::BindNode(bind)
    } else {
        ThreadPlacement::OsRandom
    };
    let persistent_pool: Option<PoolId> = if variant.persistent_threads {
        Some(machine.create_pool(threads, &placement))
    } else {
        None
    };
    let balance = if variant.thread_pinning { PhaseBalance::Static } else { PhaseBalance::Dynamic };
    let pool =
        persistent_pool.unwrap_or_else(|| machine.create_pool(threads, &per_region_placement));

    // ---- Host-side working state (actual computation data) ----
    let d = cfg.damping;
    let inv_n = 1.0f32 / n as f32;
    let inv_deg = crate::par::inv_deg_parallel(g, build_threads);
    let mut rank = vec![inv_n; n];
    let mut contrib: Vec<f32> = (0..n).map(|v| inv_n * inv_deg[v]).collect();
    let mut acc = vec![0.0f32; n];
    let mut vals = vec![0.0f32; msgs];
    let thread_parts: Vec<Vec<usize>> = if variant.thread_pinning {
        plan.threads().map(|(_, _, t)| t.part_range.clone().collect()).collect()
    } else {
        // FCFS claiming, emulated as a round-robin deal (the order a shared
        // counter converges to under uniform progress).
        (0..threads).map(|j| (j..layout.num_partitions).step_by(threads).collect()).collect()
    };

    // Init phase: every thread first-touches its own slices.
    let init_c0 = machine.cycles();
    machine.phase_balanced(pool, balance, |j, ctx| {
        for &p in &thread_parts[j] {
            let vr = layout.partition_vertices(p);
            let (lo, len) = (vr.start as usize, vr.len());
            if len == 0 {
                continue;
            }
            ctx.stream_write(contrib_r, 4 * lo, 4 * len);
            ctx.stream_write(acc_r, 4 * lo, 4 * len);
            ctx.stream_write(invdeg_r, 4 * lo, 4 * len);
        }
    });
    rec.record("init", RUN_LEVEL, RUN_LEVEL, machine.cycles() - init_c0);

    let mut dangling_mass: f64 = match cfg.dangling {
        DanglingPolicy::Ignore => 0.0,
        DanglingPolicy::Redistribute => {
            (0..n).filter(|&v| g.out_degree(v as u32) == 0).map(|v| rank[v] as f64).sum()
        }
    };

    // ---- Iterations: scatter; barrier; gather+finalize; barrier ----
    let tol = convergence::effective_tolerance(cfg.tolerance);
    // The recorder must not perturb the model: `track_model` (the tolerance
    // check) governs the *charged* rank-vector traffic, while `track_host`
    // additionally materialises ranks host-side so the trace can carry the
    // convergence trajectory. Cycles and counters are identical with
    // tracing on or off.
    let track_model = tol.is_some();
    let track_host = track_model || rec.enabled();
    let mut iterations_run = 0usize;
    let mut converged = false;
    for it in 0..cfg.iterations {
        // Under tolerance mode the rank vector is materialised every
        // iteration (needed for the delta and as the final output).
        let charge_last = it + 1 == cfg.iterations || track_model;
        let materialise = it + 1 == cfg.iterations || track_host;
        let base = (1.0 - d) * inv_n + d * (dangling_mass as f32) * inv_n;

        // Scatter: stream own partitions, apply intra edges in-cache, write
        // compressed messages into destination bins.
        let pool =
            persistent_pool.unwrap_or_else(|| machine.create_pool(threads, &per_region_placement));
        let scatter_c0 = machine.cycles();
        {
            let contrib = &contrib;
            let acc = &mut acc;
            let vals = &mut vals;
            let layout = &layout;
            let thread_parts = &thread_parts;
            machine.phase_balanced(pool, balance, |j, ctx| {
                for &p in &thread_parts[j] {
                    let vr = layout.partition_vertices(p);
                    let (lo, hi) = (vr.start as usize, vr.end as usize);
                    if lo == hi {
                        continue;
                    }
                    let len = hi - lo;
                    // Intra pass: apply same-partition edges directly in the
                    // private cache (Fig. 4 left).
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
                    // PNG pass: one sequential bin write per destination
                    // partition (Fig. 4 right).
                    let pairs = layout.png_of(p);
                    if !pairs.is_empty() {
                        let pr = layout.png_index[p].clone();
                        ctx.stream_read(png_pairs_r, 12 * pr.start as usize, 12 * pairs.len());
                    }
                    for pair in pairs {
                        let srcs = layout.png_sources(pair);
                        ctx.stream_read(png_src_r, 4 * pair.src_start as usize, 4 * srcs.len());
                        ctx.stream_write(vals_r, 4 * pair.slot_start as usize, 4 * srcs.len());
                        // Mirror the native kernel's hints: warm the bin
                        // write cursor once per pair, run ahead on the
                        // random contribution reads.
                        if do_prefetch {
                            ctx.prefetch(vals_r, 4 * pair.slot_start as usize, 4);
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
                        ctx.compute(srcs.len() as u64);
                    }
                }
                if rec.enabled() {
                    rec.record("scatter", j as i64, it as i64, ctx.thread_cycles());
                }
            });
        }

        rec.record("scatter", RUN_LEVEL, it as i64, machine.cycles() - scatter_c0);

        // Gather: stream the partition's inbox, propagate each message to
        // its destination vertices, then finalise the partition's new ranks.
        let pool =
            persistent_pool.unwrap_or_else(|| machine.create_pool(threads, &per_region_placement));
        let gather_c0 = machine.cycles();
        let mut partials = vec![0.0f64; threads];
        let mut delta_partials = vec![0.0f64; threads];
        {
            let rank = &mut rank;
            let contrib = &mut contrib;
            let inv_deg = &inv_deg;
            let acc = &mut acc;
            let vals = &vals;
            let layout = &layout;
            let thread_parts = &thread_parts;
            let degs = g.out_degrees();
            let partials = &mut partials;
            let delta_partials = &mut delta_partials;
            let dangling = cfg.dangling;
            machine.phase_balanced(pool, balance, |j, ctx| {
                let mut dpart = 0.0f64;
                let mut delta = 0.0f64;
                for &q in &thread_parts[j] {
                    let sr = layout.part_slot_ranges[q].clone();
                    let (slo, shi) = (sr.start as usize, sr.end as usize);
                    if shi > slo {
                        ctx.stream_read(vals_r, 4 * slo, 4 * (shi - slo));
                        // Message boundaries ride as MSB flags inside the
                        // destination list — 4 bytes per edge, no separate
                        // offsets stream.
                        let inbox = layout.inbox(q);
                        let dlo = layout.part_dest_ranges[q].start as usize;
                        ctx.stream_read(dest_verts_r, 4 * dlo, 4 * inbox.len());
                        let mut pf = LineFilter::new();
                        let mut ahead = runs(inbox).skip(PREFETCH_DISTANCE);
                        for (k, dests) in (slo..shi).zip(runs(inbox)) {
                            // Run ahead on the accumulator lines the slot
                            // `PREFETCH_DISTANCE` messages onward will hit
                            // (the native kernel runs ahead by stream
                            // entries; the model keeps its message distance).
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
                            ctx.compute(dests.len() as u64);
                        }
                    }
                    // Finalise this partition (its inbox is fully applied and
                    // intra contributions landed in the scatter phase).
                    let vr = layout.partition_vertices(q);
                    let (lo, hi) = (vr.start as usize, vr.end as usize);
                    if lo == hi {
                        continue;
                    }
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
                    if matches!(dangling, DanglingPolicy::Redistribute) {
                        ctx.stream_read(deg_r, 4 * lo, 4 * len);
                    }
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
                        if matches!(dangling, DanglingPolicy::Redistribute) && degs[v] == 0 {
                            dpart += new as f64;
                        }
                    }
                    ctx.compute(3 * len as u64);
                }
                partials[j] = dpart;
                delta_partials[j] = delta;
                if rec.enabled() {
                    rec.record("gather", j as i64, it as i64, ctx.thread_cycles());
                }
            });
        }
        rec.record("gather", RUN_LEVEL, it as i64, machine.cycles() - gather_c0);
        if matches!(cfg.dangling, DanglingPolicy::Redistribute) {
            dangling_mass = partials.iter().sum();
        }
        iterations_run = it + 1;
        if track_host {
            let residual = convergence::reduce(&delta_partials);
            rec.gauge(it, Some(residual), Some(layout.num_partitions as u64));
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
    let report = machine.report("HiPa");
    record_sim_report(&rec, &report);
    pc.finish(&rec, threads as u64);
    let trace = rec.finish(TraceMeta {
        engine: "HiPa".into(),
        path: PATH_SIM,
        machine: Some(report.machine.clone()),
        vertices: n as u64,
        edges: g.num_edges() as u64,
        threads: threads as u64,
        partitions: Some(layout.num_partitions as u64),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{max_rel_error, reference_pagerank};
    use crate::runs::NativeOpts;
    use hipa_numasim::MachineSpec;

    #[test]
    fn sim_matches_reference_and_native_bitwise() {
        let g = hipa_graph::datasets::small_test_graph(33);
        let cfg = PageRankConfig::default().with_iterations(6);
        let opts = SimOpts::new(MachineSpec::tiny_test()).with_partition_bytes(512);
        let sim = run(&g, &cfg, &opts);
        let oracle = reference_pagerank(&g, &cfg);
        assert!(
            max_rel_error(&sim.ranks, &oracle) < 1e-3,
            "err {}",
            max_rel_error(&sim.ranks, &oracle)
        );
        let native = crate::hipa::native::run(&g, &cfg, &NativeOpts::new(3, 512));
        assert_eq!(sim.ranks, native.ranks, "sim and native must be bit-identical");
    }

    #[test]
    fn sim_produces_memory_activity_and_time() {
        let g = hipa_graph::datasets::small_test_graph(34);
        let cfg = PageRankConfig::default().with_iterations(3);
        let opts = SimOpts::new(MachineSpec::tiny_test()).with_partition_bytes(1024);
        let sim = run(&g, &cfg, &opts);
        assert!(sim.compute_cycles > 0.0);
        assert!(sim.preprocess_cycles > 0.0);
        assert!(sim.report.mem.reads > 0);
        assert!(sim.report.mem.dram_local + sim.report.mem.dram_remote > 0);
        // Pinned persistent threads: one pool, no migrations.
        assert_eq!(sim.report.migrations, 0);
        assert_eq!(
            sim.report.threads_created as usize,
            MachineSpec::tiny_test().topology.logical_cpus()
        );
    }

    #[test]
    fn numa_placement_keeps_most_traffic_local() {
        let g = hipa_graph::datasets::small_test_graph(35);
        let cfg = PageRankConfig::default().with_iterations(5);
        let opts = SimOpts::new(MachineSpec::tiny_test()).with_partition_bytes(512);
        let sim = run(&g, &cfg, &opts);
        let frac = sim.report.mem.remote_fraction();
        assert!(frac < 0.45, "remote fraction {frac} too high for a NUMA-aware engine");
    }
}
