//! HiPa on real host threads.
//!
//! One persistent worker per plan thread runs the complete iterative
//! scatter–gather loop with barrier synchronisation ([`TrackedBarrier`]:
//! `std::sync::Barrier`, plus a vector-clock edge under the race-checker
//! features) (Algorithm 2: threads outlive the whole computation instead of
//! being recreated per parallel region). The compute workers deliberately
//! stay on dedicated `std::thread::scope` threads rather than the rayon
//! shim's pool — the one sanctioned bare-thread site outside the shims
//! (audit rule 6): they block on a barrier three times per iteration, which
//! would wedge a pool narrower than `threads`, and their spawn cost is
//! amortised over the whole run. All cross-thread data flows pass a barrier
//! wait, so the tracked edges keep the `check-hb` detector exact here. Preprocessing, in contrast, rides the shim's persistent pool
//! via `crate::par::run_indexed`. All writes are structurally disjoint —
//! each thread owns its vertex ranges and its message slots — and go
//! through [`SharedSlice`](crate::disjoint::SharedSlice).
//!
//! The arithmetic order (intra contributions in source order during
//! scatter, then inbox messages in slot order during gather) is identical
//! to the simulated path, so native and simulated runs produce bit-equal
//! f32 ranks for any thread count.
//!
//! disjointness: HiPa plan (`hipa_plan_with_prefix`) — each worker owns the
//! vertex ranges of its `part_range` partitions (rank/acc writes), the PNG
//! message slots sourced from those partitions (vals writes), and its own
//! index in the per-thread partial arrays; `base`/`ctrl` are written only by
//! thread 0 between barriers. Every slice is created once before spawn and
//! ownership never migrates, so each element has one writer thread for the
//! whole run.

use crate::config::{DanglingPolicy, PageRankConfig};
use crate::convergence;
use crate::disjoint::SharedSlice;
use crate::hb::TrackedBarrier;
use crate::pcpm::PcpmLayout;
use crate::runs::{NativeOpts, NativeRun};
use hipa_graph::{DiGraph, VERTEX_BYTES};
use hipa_obs::{PoolCounters, Recorder, TraceMeta, PATH_NATIVE, RUN_LEVEL};
use hipa_partition::hipa_plan_with_prefix;
use std::time::Instant;

pub fn run(g: &DiGraph, cfg: &PageRankConfig, opts: &NativeOpts) -> NativeRun {
    if let Some(run) = crate::preorder::native(g, cfg, opts, run) {
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
                engine: "HiPa".into(),
                path: PATH_NATIVE,
                threads: opts.threads.max(1) as u64,
                converged,
                ..TraceMeta::default()
            }),
        };
    }
    let threads = opts.threads.max(1);
    let tol = convergence::effective_tolerance(cfg.tolerance);
    // Residuals are needed for the stop rule *or* the trace's convergence
    // trajectory; the deterministic reduction is shared either way.
    let track = tol.is_some() || rec.enabled();
    let vpp = (opts.partition_bytes / VERTEX_BYTES).max(1);

    let build_threads = opts.effective_build_threads();

    // The pool deltas attribute the build phase's scheduling work (the
    // compute loop below runs on dedicated barrier threads, not the pool).
    let pc = PoolCounters::start(&rec);
    let t0 = Instant::now();
    // On the host there is no NUMA topology to honour; the hierarchical plan
    // degenerates to its cache level (one node, `threads` groups). The whole
    // preprocessing pipeline runs on `build_threads` workers and is
    // bit-identical to the sequential build.
    let prefix = crate::par::degree_prefix_parallel(g.out_degrees(), build_threads);
    let plan = hipa_plan_with_prefix(&prefix, 1, threads, vpp);
    let layout = PcpmLayout::build_par_ext(g.out_csr(), vpp, false, true, build_threads);
    let kernels = layout.kernels(build_threads);
    let inv_deg = crate::par::inv_deg_parallel(g, build_threads);
    let preprocess = t0.elapsed();

    let d = cfg.damping;
    let inv_n = 1.0f32 / n as f32;
    let mut rank = vec![inv_n; n];
    let mut acc = vec![0.0f32; n];
    let mut vals = vec![0.0f32; layout.total_msgs as usize];
    let mut partials = vec![0.0f64; threads];
    let init_dangling: f64 = match cfg.dangling {
        DanglingPolicy::Ignore => 0.0,
        DanglingPolicy::Redistribute => {
            (0..n).filter(|&v| g.out_degree(v as u32) == 0).map(|v| rank[v] as f64).sum()
        }
    };
    let mut base_box = vec![(1.0 - d) * inv_n + d * (init_dangling as f32) * inv_n];
    let mut delta_partials = vec![0.0f64; threads];
    // ctrl[0] = stop flag (tolerance reached), ctrl[1] = iterations executed.
    let mut ctrl_box = vec![0u32; 2];

    let thread_parts: Vec<std::ops::Range<usize>> =
        plan.threads().map(|(_, _, t)| t.part_range.clone()).collect();
    let num_parts: usize = thread_parts.iter().map(|r| r.len()).sum();
    let degs = g.out_degrees();
    // Adaptive hint gate — see the sim path: hints arm only when the
    // partition's random-access span spills the (assumed) L2.
    let do_prefetch = opts.prefetch && opts.partition_bytes > crate::prefetch::NATIVE_L2_BYTES;

    let t1 = Instant::now();
    {
        let rank_s = SharedSlice::new(&mut rank);
        let acc_s = SharedSlice::new(&mut acc);
        let vals_s = SharedSlice::new(&mut vals);
        let partials_s = SharedSlice::new(&mut partials);
        let deltas_s = SharedSlice::new(&mut delta_partials);
        let base_s = SharedSlice::new(&mut base_box);
        let ctrl_s = SharedSlice::new(&mut ctrl_box);
        let barrier = TrackedBarrier::new(threads);
        std::thread::scope(|scope| {
            for j in 0..threads {
                let rank_s = &rank_s;
                let acc_s = &acc_s;
                let vals_s = &vals_s;
                let partials_s = &partials_s;
                let deltas_s = &deltas_s;
                let base_s = &base_s;
                let ctrl_s = &ctrl_s;
                let barrier = &barrier;
                let layout = &layout;
                let kernels = &kernels;
                let inv_deg = &inv_deg;
                let rec = &rec;
                let parts = thread_parts[j].clone();
                let partials_all = 0..threads;
                scope.spawn(move || {
                    let mut spans = rec.thread_spans(j);
                    for it in 0..cfg.iterations {
                        // SAFETY: `base_box[0]` was written by thread 0
                        // strictly before the previous iteration's final
                        // barrier (or before spawn for iteration 0).
                        let base = unsafe { base_s.get(0) };

                        // --- Scatter own partitions: intra pass, then one
                        // sequential bin write per destination (PNG view) ---
                        let scatter_t = spans.start();
                        for p in parts.clone() {
                            // SAFETY: this thread owns p: its vertices (acc
                            // writes; rank is written only after the
                            // barrier) and the slots of its PNG bins.
                            unsafe {
                                kernels.scatter_intra(p, rank_s, inv_deg, acc_s);
                                kernels.scatter_bins(p, rank_s, inv_deg, vals_s, do_prefetch);
                            }
                        }
                        spans.end(scatter_t, "scatter", it);
                        barrier.wait();

                        // --- Gather + finalise own partitions ---
                        let gather_t = spans.start();
                        let mut dpart = 0.0f64;
                        let mut delta = 0.0f64;
                        for q in parts.clone() {
                            // SAFETY: this thread owns q's vertices, and q's
                            // slots are only read after the scatter barrier.
                            unsafe { kernels.gather(q, vals_s, acc_s, do_prefetch) };
                            let vr = layout.partition_vertices(q);
                            for v in vr.start as usize..vr.end as usize {
                                // SAFETY: own range.
                                let a = unsafe { acc_s.get(v) };
                                let new = base + d * a;
                                if track {
                                    // SAFETY: own range (pre-write read).
                                    let old = unsafe { rank_s.get(v) };
                                    delta += convergence::l1_term(new, old);
                                }
                                // SAFETY: v is in this thread's own range;
                                // rank is read cross-thread only pre-barrier.
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
                        }
                        // SAFETY: slot j of both partial arrays is this
                        // thread's own.
                        unsafe {
                            partials_s.write(j, dpart);
                            deltas_s.write(j, delta);
                        }
                        spans.end(gather_t, "gather", it);
                        barrier.wait();

                        // --- Reduction (thread 0) ---
                        if j == 0 {
                            if matches!(cfg.dangling, DanglingPolicy::Redistribute) {
                                let mut mass = 0.0f64;
                                for t in partials_all.clone() {
                                    // SAFETY: all threads passed the barrier;
                                    // no one writes partials until the next.
                                    mass += unsafe { partials_s.get(t) };
                                }
                                let nb = (1.0 - d) * inv_n + d * (mass as f32) * inv_n;
                                // SAFETY: only thread 0 writes, pre-barrier.
                                unsafe { base_s.write(0, nb) };
                            }
                            // SAFETY: ctrl is thread 0's to write, pre-barrier.
                            unsafe { ctrl_s.write(1, it as u32 + 1) };
                            if track {
                                let parts: Vec<f64> = partials_all
                                    .clone()
                                    // SAFETY: all threads passed the barrier;
                                    // no one writes deltas until the next.
                                    .map(|i| unsafe { deltas_s.get(i) })
                                    .collect();
                                let residual = convergence::reduce(&parts);
                                rec.gauge(it, Some(residual), Some(num_parts as u64));
                                if let Some(t) = tol {
                                    if convergence::should_stop(residual, t) {
                                        // SAFETY: only thread 0 writes ctrl,
                                        // strictly before the next barrier.
                                        unsafe { ctrl_s.write(0, 1) };
                                    }
                                }
                            }
                        }
                        barrier.wait();
                        // SAFETY: thread 0 set the flag before the barrier.
                        if tol.is_some() && unsafe { ctrl_s.get(0) } == 1 {
                            break;
                        }
                    }
                    spans.flush(rec);
                });
            }
        });
    }
    let compute = t1.elapsed();
    let iterations_run = ctrl_box[1] as usize;
    let converged = ctrl_box[0] == 1;

    rec.record("preprocess", RUN_LEVEL, RUN_LEVEL, preprocess.as_nanos() as f64);
    rec.record("compute", RUN_LEVEL, RUN_LEVEL, compute.as_nanos() as f64);
    pc.finish(&rec, threads as u64);
    let trace = rec.finish(TraceMeta {
        engine: "HiPa".into(),
        path: PATH_NATIVE,
        machine: None,
        vertices: n as u64,
        edges: g.num_edges() as u64,
        threads: threads as u64,
        partitions: Some(num_parts as u64),
        iterations_run: iterations_run as u64,
        converged,
    });

    NativeRun { ranks: rank, preprocess, compute, iterations_run, converged, trace }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{max_rel_error, reference_pagerank};
    use hipa_graph::gen::cycle;

    #[test]
    fn native_matches_reference_on_cycle() {
        let g = DiGraph::from_edge_list(&cycle(64));
        let cfg = PageRankConfig::default().with_iterations(15);
        let run = run(&g, &cfg, &NativeOpts::new(4, 64));
        let oracle = reference_pagerank(&g, &cfg);
        assert!(max_rel_error(&run.ranks, &oracle) < 1e-4);
    }

    #[test]
    fn native_thread_count_does_not_change_result() {
        let g = hipa_graph::datasets::small_test_graph(21);
        let cfg = PageRankConfig::default().with_iterations(8);
        let r1 = run(&g, &cfg, &NativeOpts::new(1, 1024));
        let r4 = run(&g, &cfg, &NativeOpts::new(4, 1024));
        assert_eq!(r1.ranks, r4.ranks, "bitwise determinism across thread counts");
    }
}
