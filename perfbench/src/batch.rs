//! `batch-file`: the library user's one-shot job. A seeded graph is written
//! as a SNAP text file before timing starts; the timed work is file →
//! `DiGraph` (set-up, once per pass), then each engine's `run_native` plus
//! top-10.
//!
//! Each engine round after the first runs on its own seeded relabelling of
//! the loaded graph ([`block_shuffle`]): an isomorphic graph of the same
//! family whose hubs fall into other partitions and threads. How evenly
//! the static partition plans split the work depends on where the hubs
//! land, so one labelling per run would make every engine time a draw of
//! that split; a labelling per round averages over it.

use crate::stats::{median, median_time, secs};
use crate::{Cx, Outcome, PASSES};
use hipa_core::reference::{max_rel_error, reference_pagerank};
use hipa_core::{Engine, NativeOpts, NativeRun, PageRankConfig, PcpmLayout};
use hipa_graph::reorder::Permutation;
use hipa_graph::{io, DiGraph, EdgeList};
use hipa_obs::{RunTrace, RUN_LEVEL};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fs::File;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The paper's timed iteration count (§4.1).
pub const ITERATIONS: usize = 20;
/// Largest `max_rel_error` of an engine's f32 ranks against the f64
/// reference after [`ITERATIONS`] iterations.
pub const RANK_BOUND: f64 = 1e-3;
/// Share of `--seconds` spent on engine rounds, split evenly over the
/// passes.
const ENGINE_SHARE: f64 = 0.8;
const TOP_K: usize = 10;
/// Vertices per block of [`block_shuffle`]: the `web` family's community
/// block.
const BLOCK: usize = 4096;

/// One engine with the paper's partition size: 256 KiB, 1 MiB for GPOP.
pub struct NativeEngine {
    pub label: &'static str,
    pub engine: Box<dyn Engine>,
    pub partition_bytes: usize,
    /// Per-iteration phases the engine's trace records.
    pub phases: &'static [&'static str],
}

pub fn engines() -> Vec<NativeEngine> {
    const PCPM: &[&str] = &["scatter", "gather"];
    let e = |label, engine: Box<dyn Engine>, partition_bytes, phases| NativeEngine {
        label,
        engine,
        partition_bytes,
        phases,
    };
    vec![
        e("hipa", Box::new(hipa_core::HiPa), 256 << 10, PCPM),
        e("p-pr", Box::new(hipa_baselines::Ppr), 256 << 10, PCPM),
        e("v-pr", Box::new(hipa_baselines::Vpr), 256 << 10, &["pull"]),
        e("gpop", Box::new(hipa_baselines::Gpop), 1 << 20, PCPM),
        e(
            "polymer",
            Box::new(hipa_baselines::Polymer),
            256 << 10,
            &["contribute", "replicate", "pull"],
        ),
    ]
}

/// Per-layer samples of one engine, one entry per traced round.
#[derive(Default)]
struct Layers {
    untraced_s: Vec<f64>,
    traced_s: Vec<f64>,
    preprocess_s: Vec<f64>,
    compute_s: Vec<f64>,
    edges_per_s: Vec<f64>,
    unattributed_s: Vec<f64>,
    phase_s: Vec<Vec<f64>>,
    imbalance: Vec<Vec<f64>>,
    counters: BTreeMap<&'static str, Vec<f64>>,
}

/// The graph one pass runs the engines on, with its reference answers.
struct Labelled {
    g: DiGraph,
    oracle: Vec<f64>,
    want_top: Vec<(u32, f32)>,
}

impl Labelled {
    /// Relabels `el` by `perm`, carrying the reference ranks along.
    fn new(el: &EdgeList, perm: &Permutation, oracle: &[f64]) -> Labelled {
        let g = DiGraph::from_edge_list(&perm.apply(el));
        let mut relabelled = vec![0.0; oracle.len()];
        for (v, &r) in oracle.iter().enumerate() {
            relabelled[perm.map(v as u32) as usize] = r;
        }
        let oracle_f32: Vec<f32> = relabelled.iter().map(|&r| r as f32).collect();
        let want_top = hipa::top_k(&oracle_f32, TOP_K);
        Labelled { g, oracle: relabelled, want_top }
    }
}

/// A seeded relabelling that moves whole [`BLOCK`]-vertex blocks and
/// shuffles the vertices inside each (a tail short of a block stays put).
/// Both generators draw vertex ids independently of the structure, except
/// the `web` communities, which are exactly these blocks and stay intact, so
/// the result is another graph of the same family.
fn block_shuffle(n: usize, seed: u64) -> Permutation {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut blocks: Vec<usize> = (0..n / BLOCK).collect();
    blocks.shuffle(&mut rng);
    let mut forward: Vec<u32> = (0..n as u32).collect();
    for (from, &to) in blocks.iter().enumerate() {
        let ids = &mut forward[from * BLOCK..(from + 1) * BLOCK];
        for (i, id) in ids.iter_mut().enumerate() {
            *id = (to * BLOCK + i) as u32;
        }
        ids.shuffle(&mut rng);
    }
    Permutation::new(forward)
}

/// The phase's state across passes: the input file, the reference ranks,
/// the current pass's edge list and round graph, and the samples so far.
pub struct Batch {
    loads: Loads,
    file_bytes: u64,
    cfg: PageRankConfig,
    /// `reference_pagerank` of the graph as written.
    oracle: Vec<f64>,
    /// The edge list this pass loaded.
    el: Option<EdgeList>,
    cur: Option<Labelled>,
    seed: u64,
    engines: Vec<NativeEngine>,
    layers: Vec<Layers>,
    rounds: usize,
}

impl Batch {
    /// Writes the input file and computes the reference ranks, untimed.
    pub fn new(cx: &Cx) -> std::io::Result<Batch> {
        let seed = cx.seed_for(1);
        let el = cx.args.workload.batch_edges(seed);
        let (n0, m0) = (el.num_vertices(), el.num_edges());
        let path = cx.data_dir.join("batch.txt");
        io::write_text(File::create(&path)?, &el)?;
        let file_bytes = std::fs::metadata(&path)?.len();
        let cfg = PageRankConfig::default().with_iterations(ITERATIONS);
        let oracle = reference_pagerank(&DiGraph::from_edge_list(&el), &cfg);
        drop(el);
        let loads = Loads { path, n0, m0, read_s: vec![], csr_s: vec![], load_s: vec![] };
        let engines = engines();
        let layers = engines.iter().map(|_| Layers::default()).collect();
        let (el, cur) = (None, None);
        Ok(Batch { loads, file_bytes, cfg, oracle, el, cur, seed, engines, layers, rounds: 0 })
    }

    /// One timed load, then engine rounds on it for this pass's share of
    /// the budget (at least one).
    pub fn pass(&mut self, cx: &Cx, out: &mut Outcome) -> std::io::Result<()> {
        // The previous pass's graphs go before the reload, so peak memory
        // holds one batch graph at a time.
        (self.el, self.cur) = (None, None);
        let (el, g) = self.loads.load(out)?;
        drop(g);
        self.el = Some(el);
        let budget = Duration::from_secs_f64(cx.args.seconds * ENGINE_SHARE / PASSES as f64);
        let t_pass = Instant::now();
        // Another round starts while it would end within half a round of
        // the pass's share, judging by the last round.
        loop {
            let t = Instant::now();
            self.round(cx, out);
            if t_pass.elapsed() + t.elapsed() / 2 >= budget {
                break;
            }
        }
        Ok(())
    }

    /// The five engines on the loaded graph (first round) or a relabelling
    /// of it, rotating the start engine each round. A traced run alternates
    /// traced and untraced rounds for the overhead ratio.
    fn round(&mut self, cx: &Cx, out: &mut Outcome) {
        let traced = cx.args.trace && self.rounds % 2 == 1;
        let el = self.el.as_ref().expect("a pass loads its graph first");
        let perm = match self.rounds {
            0 => Permutation::identity(el.num_vertices()),
            r => block_shuffle(el.num_vertices(), self.seed ^ r as u64),
        };
        self.cur = None;
        let cur = self.cur.insert(Labelled::new(el, &perm, &self.oracle));
        let n = self.engines.len();
        for k in 0..n {
            let i = (self.rounds + k) % n;
            let e = &self.engines[i];
            let opts = NativeOpts::new(cx.width, e.partition_bytes)
                .with_build_threads(cx.width)
                .with_trace(traced);
            let t = Instant::now();
            let run = e.engine.run_native(&cur.g, &self.cfg, &opts);
            let t_run = t.elapsed();
            let top = hipa::top_k(&run.ranks, TOP_K);
            let wall = secs(t.elapsed());
            let topk_s = wall - secs(t_run);
            let err = max_rel_error(&run.ranks, &cur.oracle);
            out.check(err < RANK_BOUND && run.iterations_run == ITERATIONS, || {
                format!("{}: max_rel_error {err:e}, {} iterations", e.label, run.iterations_run)
            });
            // Top-10 vertex ids match the reference wherever the reference
            // ranks are not tied at f32 precision.
            let top_ok = top
                .iter()
                .zip(&cur.want_top)
                .all(|(a, b)| a.0 == b.0 || (a.1 - b.1).abs() <= b.1 * 1e-4);
            out.check(top_ok, || format!("{}: top-{TOP_K} differs from the reference", e.label));
            let l = &mut self.layers[i];
            if traced {
                l.traced_s.push(wall);
                record_layers(l, e, &run, cur.g.num_edges(), wall, topk_s, out);
            } else {
                l.untraced_s.push(wall);
            }
        }
        self.rounds += 1;
    }

    /// Reports the phase's metrics; returns the median file → `DiGraph`
    /// seconds.
    pub fn finish(self, cx: &Cx, out: &mut Outcome) -> std::io::Result<f64> {
        let (mut sum_traced, mut sum_untraced) = (0.0, 0.0);
        for (e, l) in self.engines.iter().zip(&self.layers) {
            out.e2e.put(format!("pagerank_s.{}", e.label), median(&l.untraced_s), "s");
            if !cx.args.trace {
                continue;
            }
            sum_untraced += median(&l.untraced_s);
            sum_traced += median(&l.traced_s);
            let p = e.label;
            out.layer.put(format!("{p}.preprocess_s"), median(&l.preprocess_s), "s");
            out.layer.put(format!("{p}.compute_s"), median(&l.compute_s), "s");
            out.layer.put(format!("{p}.edges_per_s"), median(&l.edges_per_s), "1/s");
            out.layer.put(format!("{p}.unattributed_s"), median(&l.unattributed_s), "s");
            for (j, phase) in e.phases.iter().enumerate() {
                let col = |v: &Vec<Vec<f64>>| median(&v.iter().map(|r| r[j]).collect::<Vec<_>>());
                out.layer.put(format!("{p}.phase.{phase}_s"), col(&l.phase_s), "s");
                out.layer.put(format!("{p}.imbalance.{phase}"), col(&l.imbalance), "ratio");
            }
            for (name, v) in &l.counters {
                out.layer.put(format!("{p}.{name}"), median(v), "count");
            }
        }
        let Some(Labelled { g, .. }) = &self.cur else {
            return Ok(f64::NAN);
        };
        if cx.args.trace {
            out.layer.put("batch-file.trace_overhead", sum_traced / sum_untraced, "ratio");
            // Preprocessing stages timed as separate public calls.
            let vpp = (256 << 10) / 4;
            let plan = || hipa_partition::hipa_plan(g.out_degrees(), 1, cx.width, vpp);
            out.layer.put("partition.plan_s", median_time(3, plan), "s");
            let layout = || PcpmLayout::build_par_ext(g.out_csr(), vpp, false, true, cx.width);
            out.layer.put("core.layout_build_s", median_time(3, layout), "s");
            let inv_deg = || hipa_core::par::inv_deg_parallel(g, cx.width);
            out.layer.put("core.inv_deg_s", median_time(3, inv_deg), "s");
        }
        out.note("batch_vertices", g.num_vertices().to_string());
        out.note("batch_edges", g.num_edges().to_string());
        out.note("batch_file_bytes", self.file_bytes.to_string());
        out.note("engine_rounds", self.rounds.to_string());
        std::fs::remove_file(&self.loads.path)?;
        let read_med = median(&self.loads.read_s);
        out.layer.put("graph.read_text_s", read_med, "s");
        out.layer.put("graph.read_mb_per_s", self.file_bytes as f64 / 1e6 / read_med, "MB/s");
        out.layer.put("graph.csr_build_s", median(&self.loads.csr_s), "s");
        Ok(median(&self.loads.load_s))
    }
}

/// The input file and its load-time samples.
struct Loads {
    path: PathBuf,
    n0: usize,
    m0: usize,
    read_s: Vec<f64>,
    csr_s: Vec<f64>,
    load_s: Vec<f64>,
}

impl Loads {
    /// One timed file → `DiGraph` load, checked against the written sizes;
    /// returns the edge list too.
    fn load(&mut self, out: &mut Outcome) -> std::io::Result<(EdgeList, DiGraph)> {
        let t = Instant::now();
        let el = io::read_text(File::open(&self.path)?)?;
        let t_read = t.elapsed();
        let g = DiGraph::from_edge_list(&el);
        let t_all = t.elapsed();
        self.read_s.push(secs(t_read));
        self.csr_s.push(secs(t_all - t_read));
        self.load_s.push(secs(t_all));
        let (n0, m0) = (self.n0, self.m0);
        out.check(g.num_vertices() == n0 && g.num_edges() == m0, || {
            format!(
                "file reload gave {} vertices / {} edges, wrote {n0} / {m0}",
                g.num_vertices(),
                g.num_edges()
            )
        });
        Ok((el, g))
    }
}

/// Reads one traced run into the engine's per-layer samples.
fn record_layers(
    l: &mut Layers,
    e: &NativeEngine,
    run: &NativeRun,
    edges: usize,
    wall: f64,
    topk_s: f64,
    out: &mut Outcome,
) {
    let Some(trace) = &run.trace else {
        out.check(false, || format!("{}: traced run returned no trace", e.label));
        return;
    };
    let compute = secs(run.compute);
    let preprocess = secs(run.preprocess);
    let (phase_s, imbalance): (Vec<f64>, Vec<f64>) =
        e.phases.iter().map(|ph| phase_time(trace, ph)).unzip();
    l.preprocess_s.push(preprocess);
    l.compute_s.push(compute);
    l.edges_per_s.push((edges * run.iterations_run) as f64 / compute);
    l.unattributed_s.push(wall - preprocess - phase_s.iter().sum::<f64>() - topk_s);
    l.phase_s.push(phase_s);
    l.imbalance.push(imbalance);
    // Trace counter → metric suffix; FCFS engines also count claims.
    let mut counters = vec![
        ("pool.jobs", "pool.jobs"),
        ("pool.parks", "pool.parks"),
        ("pool.steals", "pool.steals"),
    ];
    if matches!(e.label, "p-pr" | "gpop") {
        counters.push(("partition_claims", "claims"));
    }
    for (key, name) in counters {
        let v = trace.counter(key).unwrap_or(0) as f64;
        l.counters.entry(name).or_default().push(v);
    }
}

/// Wall time of `phase` over all iterations in seconds, and its thread
/// imbalance: max over mean of each worker's summed span time. Region-level
/// spans give the wall time where the engine records them; otherwise it is
/// the slowest worker's span per iteration.
fn phase_time(trace: &RunTrace, phase: &str) -> (f64, f64) {
    let spans = trace.spans.iter().filter(|s| s.phase == phase && s.iter != RUN_LEVEL);
    let mut per_thread: Vec<f64> = Vec::new();
    let mut per_iter_max: Vec<f64> = Vec::new();
    let mut region = 0.0;
    let mut has_region = false;
    for s in spans {
        if s.thread == RUN_LEVEL {
            region += s.value;
            has_region = true;
            continue;
        }
        let (t, it) = (s.thread as usize, s.iter as usize);
        if per_thread.len() <= t {
            per_thread.resize(t + 1, 0.0);
        }
        per_thread[t] += s.value;
        if per_iter_max.len() <= it {
            per_iter_max.resize(it + 1, 0.0);
        }
        per_iter_max[it] = per_iter_max[it].max(s.value);
    }
    let wall_ns = if has_region { region } else { per_iter_max.iter().sum() };
    let mean = per_thread.iter().sum::<f64>() / per_thread.len().max(1) as f64;
    let max = per_thread.iter().copied().fold(0.0, f64::max);
    (wall_ns * 1e-9, if mean > 0.0 { max / mean } else { f64::NAN })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_shuffle_moves_whole_blocks_and_repeats() {
        let n = 5 * BLOCK + 7;
        let p = block_shuffle(n, 3);
        for b in 0..5 {
            let to = p.map((b * BLOCK) as u32) as usize / BLOCK;
            assert!((b * BLOCK..(b + 1) * BLOCK).all(|v| p.map(v as u32) as usize / BLOCK == to));
        }
        assert!((5 * BLOCK..n).all(|v| p.map(v as u32) == v as u32));
        assert_eq!(p, block_shuffle(n, 3));
        assert_ne!(p, block_shuffle(n, 4));
    }
}
