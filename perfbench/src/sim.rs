//! `sim-census`: `run_sim` of the five engines on the resident graph with
//! the cache-scaled Skylake model and the paper's per-method threads and
//! partition sizes (`hipa_bench::paper_methods`). Host build width is
//! capped at the run's width; the iteration count is fixed.

use crate::stats::{median, secs};
use crate::{Cx, Outcome, PASSES};
use hipa_bench::{paper_methods, scaled_partition, skylake, Method};
use hipa_core::reference::{max_rel_error, reference_pagerank};
use hipa_core::{PageRankConfig, SimOpts, SimRun};
use hipa_graph::{DiGraph, EdgeList};
use std::time::Instant;

/// Simulated iterations per run.
pub const ITERATIONS: usize = 1;

fn label(engine: &str) -> &'static str {
    match engine {
        "HiPa" => "hipa",
        "p-PR" => "p-pr",
        "v-PR" => "v-pr",
        "GPOP" => "gpop",
        "Polymer" => "polymer",
        _ => "unknown",
    }
}

/// The model quantities that must repeat exactly.
fn fingerprint(run: &SimRun) -> (u64, u64, hipa_numasim::MemCounters) {
    (run.report.cycles.to_bits(), run.compute_cycles.to_bits(), run.report.mem)
}

/// Rounds of the five engines per pass: `main` runs one before and one
/// after each pass's serve share.
pub const ROUNDS_PER_PASS: usize = 2;

/// The phase's state across passes: [`ROUNDS_PER_PASS`] rounds of the five
/// engines per pass, the middle round of the run traced in a traced run.
/// The first round sets the expected cycles and counters; every later round
/// must repeat them exactly.
pub struct Sim {
    g: DiGraph,
    cfg: PageRankConfig,
    oracle: Vec<f64>,
    methods: Vec<Method>,
    first: Vec<Option<SimRun>>,
    untraced: Vec<Vec<f64>>,
    traced: Vec<Vec<f64>>,
    rounds: usize,
}

impl Sim {
    pub fn new(resident: &EdgeList) -> Sim {
        let g = DiGraph::from_edge_list(resident);
        let cfg = PageRankConfig::default().with_iterations(ITERATIONS);
        let oracle = reference_pagerank(&g, &cfg);
        let methods = paper_methods();
        let per_method = || methods.iter().map(|_| Vec::new()).collect();
        let (untraced, traced) = (per_method(), per_method());
        let first = methods.iter().map(|_| None).collect();
        Sim { g, cfg, oracle, methods, first, untraced, traced, rounds: 0 }
    }

    /// One round of the five engines, rotating the start engine.
    pub fn round(&mut self, cx: &Cx, out: &mut Outcome) {
        let trace = cx.args.trace && self.rounds == PASSES * ROUNDS_PER_PASS / 2;
        let n = self.methods.len();
        for k in 0..n {
            let i = (self.rounds + k) % n;
            let m = &self.methods[i];
            let opts = SimOpts::new(skylake())
                .with_threads(m.threads)
                .with_partition_bytes(scaled_partition(m.partition_paper_bytes))
                .with_build_threads(cx.width)
                .with_trace(trace);
            let t = Instant::now();
            let run = m.engine.run_sim(&self.g, &self.cfg, &opts);
            let wall = secs(t.elapsed());
            if trace { &mut self.traced[i] } else { &mut self.untraced[i] }.push(wall);
            let name = label(m.name());
            let err = max_rel_error(&run.ranks, &self.oracle);
            out.check(err < crate::batch::RANK_BOUND, || {
                format!("sim {name}: max_rel_error {err:e}")
            });
            match &self.first[i] {
                None => self.first[i] = Some(run),
                Some(f) => out.check(fingerprint(f) == fingerprint(&run), || {
                    format!("sim {name}: cycles or memory counters differ between rounds")
                }),
            }
        }
        self.rounds += 1;
    }

    pub fn finish(self, cx: &Cx, out: &mut Outcome) {
        let (mut census, mut census_traced) = (0.0, 0.0);
        for (i, m) in self.methods.iter().enumerate() {
            let p = label(m.name());
            let wall = median(&self.untraced[i]);
            census += wall;
            census_traced += median(&self.traced[i]);
            let Some(run) = &self.first[i] else { continue };
            let mem = &run.report.mem;
            let accesses = (mem.reads + mem.writes) as f64;
            out.layer.put(format!("{p}.sim.wall_s"), wall, "s");
            out.layer.put(format!("{p}.sim.accesses"), accesses, "count");
            out.layer.put(format!("{p}.sim.accesses_per_s"), accesses / wall, "1/s");
            out.layer.put(format!("{p}.sim.dram_lines"), mem.dram_lines() as f64, "count");
            out.layer.put(format!("{p}.sim.cycles"), run.report.cycles, "cycles");
        }
        out.e2e.put("sim_census_s", census, "s");
        if cx.args.trace {
            out.layer.put("sim-census.trace_overhead", census_traced / census, "ratio");
        }
    }
}
