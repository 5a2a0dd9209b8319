//! Wall-clock benchmark of the HiPa workspace.
//!
//! ```text
//! hipa-perfbench --workload <rmat|web> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Every invocation runs three phases on graphs generated from the seed,
//! interleaved over [`PASSES`] passes:
//!
//! * `batch-file` — a SNAP text edge-list file read into a `DiGraph`, then
//!   the five engines natively (20 iterations, top-10) on it or on a
//!   relabelling of it;
//! * `serve-mixed` — the resident rank server under an open-loop request
//!   schedule, plus back-to-back bursts in a traced run;
//! * `sim-census` — `run_sim` of the five engines on the NUMA model.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics, taken from traced
//! engine runs, the server's statistics and timed calls into each layer.
//! The exit status is nonzero when any output check failed. README.md
//! explains the workloads and the metric map.
#![forbid(unsafe_code)]

mod batch;
mod host;
mod serve;
mod sim;
mod stats;

use hipa_graph::gen::{rmat, zipf_graph, RmatParams, ZipfParams};
use hipa_graph::EdgeList;
use stats::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Passes per run; each pass runs a share of every phase.
pub const PASSES: usize = 4;

const USAGE: &str =
    "usage: hipa-perfbench --workload <rmat|web> --seed N --seconds S --trace <0|1>";

/// Graph family every phase of a run draws its inputs from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Graph500 R-MAT with shuffled ids: skewed degrees, almost every edge
    /// crosses partitions (the journal/kron/twitter character).
    Rmat,
    /// Zipf power law with community locality: half the edges stay inside
    /// their 4096-vertex block (the wiki/pld character).
    Web,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "rmat" => Some(Workload::Rmat),
            "web" => Some(Workload::Web),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Rmat => "rmat",
            Workload::Web => "web",
        }
    }

    /// The `batch-file` input: 2^19 vertices, ~4 M edges. Rank vectors are
    /// 2 MiB, and 256 KiB partitions give 8 of them. Both families stay
    /// between 2^21 and 2^22 edges, so the edge vector's final capacity (and
    /// with it peak memory) does not depend on the seed.
    pub fn batch_edges(self, seed: u64) -> EdgeList {
        match self {
            Workload::Rmat => rmat(&RmatParams::graph500(19, 8), seed),
            Workload::Web => zipf_graph(
                &ZipfParams {
                    num_vertices: 1 << 19,
                    mean_degree: 7.5,
                    degree_exponent: 1.8,
                    max_degree_frac: 0.02,
                    target_exponent: 0.75,
                    locality: 0.5,
                    block_size: 4096,
                    simplify: true,
                },
                seed,
            ),
        }
    }

    /// The `serve-mixed` and `sim-census` input. The `rmat` family uses the
    /// `journal` stand-in's generator parameters (2^16 vertices, ~1 M edges)
    /// with the run's seed. Personalized PageRank converges about twice as
    /// slowly on the `web` family's communities, so its graph has half the
    /// vertices and edges: the steady request rate then keeps the server
    /// about equally busy on both.
    pub fn resident_edges(self, seed: u64) -> EdgeList {
        match self {
            Workload::Rmat => rmat(
                &RmatParams {
                    scale: 16,
                    edges: 1_070_000,
                    a: 0.57,
                    b: 0.19,
                    c: 0.19,
                    simplify: true,
                    shuffle_ids: true,
                },
                seed,
            ),
            Workload::Web => zipf_graph(
                &ZipfParams {
                    num_vertices: 1 << 15,
                    mean_degree: 16.0,
                    degree_exponent: 1.8,
                    max_degree_frac: 0.02,
                    target_exponent: 0.75,
                    locality: 0.5,
                    block_size: 4096,
                    simplify: true,
                },
                seed,
            ),
        }
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {value} outside 1..=600"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// What every phase needs: the arguments, the measured width, and a scratch
/// directory inside the build tree.
pub struct Cx {
    pub args: Args,
    pub width: usize,
    pub data_dir: PathBuf,
}

impl Cx {
    /// Phase-specific seed derived from the run's seed.
    pub fn seed_for(&self, phase: u64) -> u64 {
        self.args.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ phase
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hipa-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    let data_dir = target.join(format!("perfbench-data-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&data_dir) {
        eprintln!("hipa-perfbench: cannot create {}: {e}", data_dir.display());
        return ExitCode::from(2);
    }
    let cx = Cx { args, width: host::width(), data_dir };
    let mut out = Outcome::default();
    let t0 = Instant::now();
    let resident = cx.args.workload.resident_edges(cx.seed_for(2));
    for (k, v) in [
        ("workload", cx.args.workload.name().to_string()),
        ("seed", cx.args.seed.to_string()),
        ("seconds", cx.args.seconds.to_string()),
        ("trace", u8::from(cx.args.trace).to_string()),
        ("nproc", host::nproc().to_string()),
        ("threads", cx.width.to_string()),
        ("build_threads", cx.width.to_string()),
        ("l2_bytes", host::cache_bytes(2).to_string()),
        ("llc_bytes", host::cache_bytes(3).to_string()),
        ("resident_vertices", resident.num_vertices().to_string()),
        ("resident_edges", resident.num_edges().to_string()),
    ] {
        out.note(k, v);
    }

    // The phases run interleaved, one share of each per pass, so a slow
    // stretch of the host lands on a fraction of every metric's samples
    // instead of on all samples of one metric.
    let mut walls = [0.0f64; 3];
    let mut timed = |slot: usize, f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        walls[slot] += t.elapsed().as_secs_f64();
    };
    let mut batch = None;
    timed(0, &mut || match batch::Batch::new(&cx) {
        Ok(b) => batch = Some(b),
        Err(e) => out.check(false, || format!("batch-file: {e}")),
    });
    let mut serve = None;
    timed(1, &mut || serve = Some(serve::Serve::new(&cx, &resident, &mut out)));
    let mut serve = serve.expect("serve set-up ran");
    let mut sim = sim::Sim::new(&resident);
    let mut stalled = false;
    for pass in 0..PASSES {
        timed(0, &mut || {
            if let Some(Err(e)) = batch.as_mut().map(|b| b.pass(&cx, &mut out)) {
                out.check(false, || format!("batch-file: {e}"));
                batch = None;
            }
        });
        timed(2, &mut || sim.round(&cx, &mut out));
        timed(1, &mut || stalled = serve.pass(&cx, pass, &mut out).is_err());
        if stalled {
            break;
        }
        timed(2, &mut || sim.round(&cx, &mut out));
    }
    let batch_setup = match batch.map(|b| b.finish(&cx, &mut out)) {
        Some(Ok(setup)) => setup,
        Some(Err(e)) => {
            out.check(false, || format!("batch-file: {e}"));
            f64::NAN
        }
        None => f64::NAN,
    };
    let serve_setup = if stalled { f64::NAN } else { serve.finish(&cx, &mut out) };
    sim.finish(&cx, &mut out);
    for (name, wall) in ["batch_wall_s", "serve_wall_s", "sim_wall_s"].iter().zip(walls) {
        out.note(*name, format!("{wall:.3}"));
    }
    let _ = std::fs::remove_dir_all(&cx.data_dir);
    // Time to ready for both user jobs: file to graph, start to first answer.
    out.e2e.put("setup_s", batch_setup + serve_setup, "s");
    out.e2e.put("peak_rss_mb", host::peak_rss_mb(), "MiB");

    let traced = cx.args.trace;
    let result = out.result_json(traced);
    out.note("wall_s", format!("{:.3}", t0.elapsed().as_secs_f64()));
    out.note("failed_ratio", (out.failed as f64 / out.attempted.max(1) as f64).to_string());
    let ctx: Vec<String> = out.context.iter().map(|(k, v)| format!("\"{k}\": \"{v}\"")).collect();
    println!("{{\"context\": {{{}}}}}", ctx.join(", "));
    for note in &out.notes {
        eprintln!("hipa-perfbench: check failed: {note}");
    }
    let plane = if traced { &out.layer } else { &out.e2e };
    for (name, value, unit) in plane.iter() {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    println!("{result}");
    if stalled {
        // A server ticket never resolved: its scheduler may be wedged, so
        // skip every destructor that would join it.
        std::process::exit(1);
    }
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_documented_command_line() {
        let a = parse_args(&argv("--workload web --seed 7 --seconds 30 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::Web);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 30.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 5 --trace 0",
            "--workload rmat --seed 1 --seconds 5 --trace 2",
            "--workload rmat --seed 1 --seconds 0 --trace 0",
            "--workload rmat --seed 1 --seconds 5",
            "--workload rmat --seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
