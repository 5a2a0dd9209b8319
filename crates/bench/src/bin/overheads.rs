//! Regenerates the **§4.2 overhead analysis**: preprocessing cost (graph
//! partitioning + NUMA-aware data binding, excluding graph loading) per
//! graph, and the number of PageRank iterations needed to amortise it.
//! A second table measures the *host* preprocessing pipeline sequentially
//! vs on parallel build workers (wall-clock, not simulated).
//!
//! ```text
//! cargo run --release -p hipa-bench --bin overheads [--fast] [--csv]
//! ```
//!
//! Shape targets: HiPa's overhead amortises in the low tens of iterations
//! (the paper reports 12.7 on average, vs 9.61 for GPOP and 12.44 for p-PR).

use hipa_bench::{paper_methods, scaled_partition, skylake, BinArgs};
use hipa_core::{Engine, NativeOpts, PageRankConfig};
use hipa_report::{fmt_secs, Table};

/// Upper bound on the worker count of the parallel host build; the table
/// uses `min(PAR_BUILD_THREADS, host cores)` so no worker oversubscribes a
/// core.
const PAR_BUILD_THREADS: usize = 4;

fn main() {
    let args = BinArgs::parse();
    let iters = args.iterations();
    let methods = paper_methods();
    let mut table = Table::new(
        &format!("§4.2 overheads: preprocessing seconds and amortisation iterations ({iters}-iteration runs)"),
        &["graph", "HiPa pre", "HiPa amort", "p-PR pre", "p-PR amort", "GPOP pre", "GPOP amort"],
    );
    let mut sums = [0.0f64; 3];
    let mut count = 0usize;
    for ds in args.datasets() {
        let g = ds.build();
        let mut row = vec![ds.name().to_string()];
        for m in &methods {
            if !matches!(m.name(), "HiPa" | "p-PR" | "GPOP") {
                continue;
            }
            let run = m.run(&g, skylake(), iters);
            let amort = run.amortization_iterations(iters);
            row.push(fmt_secs(run.preprocess_seconds()));
            row.push(format!("{amort:.1}"));
            let idx = match m.name() {
                "HiPa" => 0,
                "p-PR" => 1,
                _ => 2,
            };
            sums[idx] += amort;
        }
        count += 1;
        table.row(row);
    }
    let mut avg = vec!["Average".to_string()];
    for s in sums {
        avg.push(String::new());
        avg.push(format!("{:.1}", s / count as f64));
    }
    // Fix the layout of the average row (pre columns left empty).
    table.row(avg);
    table.print();
    if args.csv {
        print!("{}", table.to_csv());
    }

    host_build_table(&args, iters);
}

/// Host wall-clock of the full HiPa preprocessing pipeline (degree prefix +
/// plan + PCPM layout + 1/deg array) with 1 vs `min(PAR_BUILD_THREADS,
/// host cores)` build workers, and the amortisation iterations each implies.
fn host_build_table(args: &BinArgs, iters: usize) {
    let host_cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let par_threads = PAR_BUILD_THREADS.min(host_cores);
    let engine = hipa_core::HiPa;
    let cfg = PageRankConfig::default().with_iterations(iters);
    let mut table = Table::new(
        &format!(
            "host preprocessing: sequential vs {par_threads}-worker build \
             ({host_cores}-core host, {iters}-iteration runs)"
        ),
        &["graph", "seq pre", "par pre", "speedup", "seq amort", "par amort"],
    );
    for ds in args.datasets() {
        let g = ds.build();
        let base = NativeOpts::new(host_cores, scaled_partition(256 << 10));
        let seq = engine.run_native(&g, &cfg, &base.clone().with_build_threads(1));
        let par = engine.run_native(&g, &cfg, &base.with_build_threads(par_threads));
        let seq_pre = seq.preprocess.as_secs_f64();
        let par_pre = par.preprocess.as_secs_f64();
        let per_iter = seq.compute.as_secs_f64() / iters.max(1) as f64;
        let amort = |pre: f64| if per_iter > 0.0 { pre / per_iter } else { 0.0 };
        table.row(vec![
            ds.name().to_string(),
            fmt_secs(seq_pre),
            fmt_secs(par_pre),
            format!("{:.2}x", if par_pre > 0.0 { seq_pre / par_pre } else { 0.0 }),
            format!("{:.1}", amort(seq_pre)),
            format!("{:.1}", amort(par_pre)),
        ]);
    }
    table.print();
    if args.csv {
        print!("{}", table.to_csv());
    }
}
