//! Simulated SpMV: the §6 claim "our discussions and optimizations
//! proposed for PageRank can also be applied to SpMV" made measurable.
//!
//! Runs repeated `y = Aᵀx` passes on the NUMA machine model under two
//! configurations sharing the same compressed scatter/gather layout:
//!
//! * **HiPa-style** — hierarchical plan, partition-mapped placement, pinned
//!   persistent threads;
//! * **NUMA-oblivious** — interleaved placement, OS-placed per-pass pools,
//!   FCFS-dealt partitions.
//!
//! The `ext_spmv` bench binary reports the speedup and remote-traffic
//! reduction, mirroring the shape of the PageRank results.

use hipa_core::hipa::placement::{blocked_by_index, part_ends, vertex_ends};
use hipa_core::pcpm::{run_vertex, runs};
use hipa_core::PcpmLayout;
use hipa_graph::{DiGraph, VERTEX_BYTES};
use hipa_numasim::{PhaseBalance, Placement, SimMachine, SimReport, ThreadPlacement};
use hipa_partition::hipa_plan;

/// Result of a simulated SpMV run.
#[derive(Debug, Clone)]
pub struct SpmvSimRun {
    /// The product vector of the final pass.
    pub y: Vec<f32>,
    pub report: SimReport,
    /// Cycles spent in the repeated passes (excludes layout construction).
    pub compute_cycles: f64,
}

/// Runs `reps` SpMV passes on the machine model.
pub fn spmv_sim(
    g: &DiGraph,
    x: &[f32],
    machine: hipa_numasim::MachineSpec,
    threads: usize,
    partition_bytes: usize,
    numa_aware: bool,
    reps: usize,
) -> SpmvSimRun {
    let n = g.num_vertices();
    assert_eq!(x.len(), n);
    let mut m = SimMachine::new(machine);
    if n == 0 {
        return SpmvSimRun { y: Vec::new(), report: m.report("spmv"), compute_cycles: 0.0 };
    }
    let topo = m.spec().topology;
    let sockets = topo.sockets;
    let threads = threads.clamp(sockets, topo.logical_cpus());
    let vpp = (partition_bytes / VERTEX_BYTES).max(1);
    let tpn = (threads / sockets).max(1);
    let plan = hipa_plan(g.out_degrees(), sockets, tpn, vpp);
    let layout = PcpmLayout::build(g.out_csr(), vpp, false);
    let msgs = layout.total_msgs as usize;

    // Regions.
    let place4 = |ends: &[u64], elem: usize| {
        if numa_aware {
            blocked_by_index(ends, elem)
        } else {
            Placement::Interleaved
        }
    };
    let v_ends = vertex_ends(&plan);
    let x_r = m.alloc("x", 4 * n, place4(&v_ends, 4));
    let y_r = m.alloc("y", 4 * n, place4(&v_ends, 4));
    let intra_ends = part_ends(&plan, &layout.part_intra_ranges);
    // Offsets arrays have n + 1 entries; extend the last node's coverage.
    let mut v_ends_plus = v_ends.clone();
    if let Some(l) = v_ends_plus.last_mut() {
        *l += 1;
    }
    let intra_off_r = m.alloc("intra_offsets", 4 * (n + 1), place4(&v_ends_plus, 4));
    let intra_dst_r = m.alloc("intra_dst", 4 * layout.intra_dst.len(), place4(&intra_ends, 4));
    // Node vertex ends are partition-aligned, so a node's messages end at
    // its last partition's end of the per-source-partition prefix.
    let src_offsets = layout.png_src_offsets();
    let msg_ends: Vec<u64> = plan.nodes.iter().map(|nd| src_offsets[nd.part_range.end]).collect();
    let png_src_r = m.alloc("png_src", 4 * msgs, place4(&msg_ends, 4));
    let slot_ends = part_ends(&plan, &layout.part_slot_ranges);
    let vals_r = m.alloc("vals", 4 * msgs, place4(&slot_ends, 4));
    let dest_ends = part_ends(&plan, &layout.part_dest_ranges);
    let dest_verts_r = m.alloc("dest_verts", 4 * layout.dest_verts.len(), place4(&dest_ends, 4));
    let preprocess = m.cycles();

    // Thread model.
    let placement = if numa_aware {
        let mut cpus = Vec::with_capacity(threads);
        for node in 0..sockets {
            cpus.extend_from_slice(&topo.logicals_on_socket(node)[..tpn]);
        }
        ThreadPlacement::Pinned(cpus)
    } else {
        ThreadPlacement::OsRandom
    };
    let balance = if numa_aware { PhaseBalance::Static } else { PhaseBalance::Dynamic };
    let thread_parts: Vec<Vec<usize>> = if numa_aware {
        plan.threads().map(|(_, _, t)| t.part_range.clone().collect()).collect()
    } else {
        (0..threads).map(|j| (j..layout.num_partitions).step_by(threads).collect()).collect()
    };
    let persistent = if numa_aware { Some(m.create_pool(threads, &placement)) } else { None };

    let mut y = vec![0.0f32; n];
    let mut vals = vec![0.0f32; msgs];
    for _rep in 0..reps {
        y.iter_mut().for_each(|v| *v = 0.0);
        let pool = persistent.unwrap_or_else(|| m.create_pool(threads, &placement));
        {
            let y = &mut y;
            let vals = &mut vals;
            let layout = &layout;
            let thread_parts = &thread_parts;
            m.phase_balanced(pool, balance, |j, ctx| {
                for &p in &thread_parts[j] {
                    let vr = layout.partition_vertices(p);
                    let (lo, hi) = (vr.start as usize, vr.end as usize);
                    if lo == hi {
                        continue;
                    }
                    let (stream, srcs) = layout.intra_runs(p);
                    if !stream.is_empty() {
                        let ilo = layout.part_intra_ranges[p].start as usize;
                        ctx.stream_read(intra_off_r, 4 * lo, 4 * (hi - lo + 1));
                        ctx.stream_read(intra_dst_r, 4 * ilo, 4 * stream.len());
                        for (&v, intra) in srcs.iter().zip(runs(stream)) {
                            let v = v as usize;
                            ctx.read(x_r, 4 * v, 4);
                            for &e in intra {
                                let dst = run_vertex(e);
                                y[dst] += x[v];
                                ctx.write(y_r, 4 * dst, 4);
                            }
                            ctx.compute(intra.len() as u64);
                        }
                    }
                    for pair in layout.png_of(p) {
                        let srcs = layout.png_sources(pair);
                        ctx.stream_read(png_src_r, 4 * pair.src_start as usize, 4 * srcs.len());
                        ctx.stream_write(vals_r, 4 * pair.slot_start as usize, 4 * srcs.len());
                        for (k, &src) in srcs.iter().enumerate() {
                            ctx.read(x_r, 4 * src as usize, 4);
                            vals[pair.slot_start as usize + k] = x[src as usize];
                        }
                        ctx.compute(srcs.len() as u64);
                    }
                }
            });
        }
        let pool = persistent.unwrap_or_else(|| m.create_pool(threads, &placement));
        {
            let y = &mut y;
            let vals = &vals;
            let layout = &layout;
            let thread_parts = &thread_parts;
            m.phase_balanced(pool, balance, |j, ctx| {
                for &q in &thread_parts[j] {
                    let sr = layout.part_slot_ranges[q].clone();
                    let (slo, shi) = (sr.start as usize, sr.end as usize);
                    if shi == slo {
                        continue;
                    }
                    ctx.stream_read(vals_r, 4 * slo, 4 * (shi - slo));
                    let inbox = layout.inbox(q);
                    let dlo = layout.part_dest_ranges[q].start as usize;
                    ctx.stream_read(dest_verts_r, 4 * dlo, 4 * inbox.len());
                    for (k, dests) in (slo..shi).zip(runs(inbox)) {
                        let val = vals[k];
                        for &e in dests {
                            let dst = run_vertex(e);
                            y[dst] += val;
                            ctx.write(y_r, 4 * dst, 4);
                        }
                        ctx.compute(dests.len() as u64);
                    }
                }
            });
        }
    }
    let compute_cycles = m.cycles() - preprocess;
    SpmvSimRun {
        y,
        report: m.report(if numa_aware { "spmv-hipa" } else { "spmv-oblivious" }),
        compute_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmv::spmv_reference;
    use hipa_numasim::MachineSpec;

    #[test]
    fn sim_spmv_is_correct_in_both_modes() {
        let g = hipa_graph::datasets::small_test_graph(140);
        let x: Vec<f32> = (0..g.num_vertices()).map(|i| ((i % 5) + 1) as f32).collect();
        let want = spmv_reference(&g, &x);
        for aware in [true, false] {
            let run = spmv_sim(&g, &x, MachineSpec::tiny_test(), 4, 512, aware, 2);
            assert_eq!(run.y.len(), want.len());
            for (v, (a, b)) in run.y.iter().zip(&want).enumerate() {
                assert!((a - b).abs() <= 1e-4 * b.abs().max(1.0), "aware={aware} v{v}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn hipa_mode_is_faster_and_more_local() {
        let g = hipa_graph::datasets::small_test_graph(141);
        let x: Vec<f32> = (0..g.num_vertices()).map(|i| 1.0 / (1 + i) as f32).collect();
        let aware = spmv_sim(&g, &x, MachineSpec::tiny_test(), 8, 512, true, 4);
        let obliv = spmv_sim(&g, &x, MachineSpec::tiny_test(), 8, 512, false, 4);
        assert!(aware.report.mem.remote_fraction() < obliv.report.mem.remote_fraction());
        assert!(aware.compute_cycles < obliv.compute_cycles);
    }
}
