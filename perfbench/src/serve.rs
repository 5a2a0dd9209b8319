//! `serve-mixed`: the resident rank server (`ServeConfig` defaults at the
//! run's width) on the resident graph.
//!
//! * Set-up: `Server::start` until the first `TopK` is answered, median over
//!   every server the run starts.
//! * Steady phase (traced runs), a quarter per pass on a fresh server: an
//!   open-loop schedule of seeded exponential arrivals (top-k 80 :
//!   personalized PageRank 16 : edge updates 4, 2% of the PPR requests with
//!   an out-of-range seed).
//!   Class counts are exact and only their order is shuffled, so every run
//!   has the same sample counts. Latency runs from when a request was *due*,
//!   so a late generator shows up as latency as well as in
//!   `serve.gen_lag_p99_ms`.
//! * Bursts (traced runs): 256 requests of the same mix submitted back to
//!   back.
//!
//! Load comes from one submit job and one collector job on a 2-wide shim
//! pool. The collector never blocks on an unanswered ticket: the server
//! answers each request class in arrival order and bumps that class's
//! `ServeStats` counter just before the response lands, so the collector
//! polls the counters and waits only on tickets already answered. That
//! keeps per-request times exact under out-of-order completion and lets a
//! watchdog count tickets still open at its deadline as failed.

use crate::stats::{median, median_time, quantile, secs, supported_percentile};
use crate::{Cx, Outcome, PASSES};
use hipa_algos::{pagerank_delta, teleport_from_seeds, PprSolver};
use hipa_core::PcpmPrepared;
use hipa_graph::{DiGraph, EdgeList};
use hipa_serve::{Request, Response, SamplerConfig, ServeConfig, ServeStats, Server, Ticket};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Offered load of the steady phase.
const RATE_PER_S: f64 = 8.0;
/// Share of `--seconds` the steady schedule spans, split evenly over the
/// passes.
const STEADY_SHARE: f64 = 0.4;
/// Request mix (top-k : PPR : edges), in percent.
const MIX: (usize, usize, usize) = (80, 16, 4);
/// Share of PPR requests carrying an out-of-range seed.
const INVALID_SHARE: f64 = 0.02;
const BURST: usize = 256;
const TOP_K: usize = 10;
/// Collector polling period.
const POLL: Duration = Duration::from_micros(250);
/// Time every ticket has to resolve after its phase's last submit.
const GRACE: Duration = Duration::from_secs(30);

/// Request classes; the server answers each one in arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    TopK,
    Ppr,
    /// PPR with an out-of-range seed: answered `Error` during admission.
    BadPpr,
    Edges,
}

const CLASSES: [Class; 4] = [Class::TopK, Class::Ppr, Class::BadPpr, Class::Edges];

impl Class {
    fn lane(self) -> usize {
        self as usize
    }

    /// Requests of this class the server has answered so far. `ppr_served`
    /// also counts error answers, which bump `errors` right after it, so
    /// `ppr_served` is read first. Should a count still run ahead in the
    /// instant between two increments, the collector just waits on that
    /// ticket, which times it exactly.
    fn answered(self, s: &ServeStats) -> u64 {
        match self {
            Class::TopK => s.topk_served.get(),
            Class::Ppr => s.ppr_served.get().saturating_sub(s.errors.get()),
            Class::BadPpr => s.errors.get(),
            Class::Edges => s.edges_served.get(),
        }
    }
}

struct Planned {
    class: Class,
    req: Request,
    /// Due time, from the start of the phase.
    at: Duration,
    /// Submit the next request only once the scheduler has drained this one
    /// (its queue-depth histogram counts one more drain).
    hold: bool,
}

/// Exact class counts for `n` requests, in shuffled order, with exponential
/// gaps at `rate` (all due at once when `rate` is `None`). PPR sources are
/// drawn from `sources`, the vertices with out-edges: a source set with none
/// converges in one sweep, and a varying share of such free requests would
/// move the server's load from seed to seed.
fn schedule(
    n: usize,
    rate: Option<f64>,
    num_vertices: usize,
    sources: &[u32],
    seed: u64,
) -> Vec<Planned> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let total = MIX.0 + MIX.1 + MIX.2;
    // At least one request of every class, so short runs still yield
    // every latency sample.
    let n_ppr = ((n * MIX.1 + total / 2) / total).max(2);
    let n_edges = ((n * MIX.2 + total / 2) / total).max(1);
    let n_bad = ((n_ppr as f64 * INVALID_SHARE).round() as usize).max(1).min(n_ppr);
    let mut classes = vec![Class::TopK; n - n_ppr - n_edges];
    classes.extend(std::iter::repeat_n(Class::Ppr, n_ppr - n_bad));
    classes.extend(std::iter::repeat_n(Class::BadPpr, n_bad));
    classes.extend(std::iter::repeat_n(Class::Edges, n_edges));
    classes.shuffle(&mut rng);
    // Exponential gaps by stratified sampling: one uniform draw per stratum
    // of the unit interval, shuffled. Each gap is still exponential, but the
    // set of gaps (and the schedule's length) barely moves between seeds.
    let mut strata: Vec<f64> = (0..n).map(|i| (i as f64 + rng.gen::<f64>()) / n as f64).collect();
    strata.shuffle(&mut rng);
    // PPR source sets of 1, 2 and 3 vertices in equal shares, shuffled.
    let mut set_sizes: Vec<usize> = (0..n_ppr).map(|i| 1 + i % 3).collect();
    set_sizes.shuffle(&mut rng);
    let nv = num_vertices as u32;
    let mut at = 0.0f64;
    classes
        .into_iter()
        .zip(strata)
        .map(|(class, u)| {
            if let Some(rate) = rate {
                at += -(1.0 - u).ln() / rate;
            }
            let req = match class {
                Class::TopK => Request::TopK { k: TOP_K },
                Class::Ppr | Class::BadPpr => {
                    let count = set_sizes.pop().expect("one size per PPR request");
                    let mut set: Vec<u32> =
                        (0..count).map(|_| sources[rng.gen_range(0..sources.len())]).collect();
                    if class == Class::BadPpr {
                        set[0] = nv + rng.gen_range(0..10u32);
                    }
                    Request::Ppr { sources: set, k: TOP_K }
                }
                Class::Edges => {
                    let count = rng.gen_range(1..=4usize);
                    let edges =
                        (0..count).map(|_| (rng.gen_range(0..nv), rng.gen_range(0..nv))).collect();
                    Request::AddEdges { edges }
                }
            };
            Planned { class, req, at: Duration::from_secs_f64(at), hold: false }
        })
        .collect()
}

/// What one load phase observed.
struct Observed {
    /// Seconds from due time to answer, per class lane.
    latency_s: [Vec<f64>; 4],
    /// Seconds the submit job ran behind schedule, per request.
    lag_s: Vec<f64>,
    /// Submit time of the first request after the last held one.
    load_start: Option<Instant>,
    last_answer: Option<Instant>,
    /// Tickets still open at the watchdog deadline.
    unanswered: usize,
}

struct Sent {
    idx: usize,
    ticket: Ticket,
}

/// Runs `plan` against `server` open loop and checks every response.
fn drive(server: &Server, plan: &[Planned], check: &Checker, out: &mut Outcome) -> Observed {
    let stats = server.stats();
    let base: Vec<u64> = CLASSES.iter().map(|c| c.answered(stats)).collect();
    let pool = rayon::ThreadPoolBuilder::new().num_threads(2).build().expect("build client pool");
    let (tx, rx) = mpsc::channel::<Sent>();
    let mut lag_s = Vec::with_capacity(plan.len());
    let mut load_start = None;
    let mut observed = None;
    let t0 = Instant::now();
    let last_due = plan.last().map_or(Duration::ZERO, |p| p.at);
    let deadline = t0 + last_due + GRACE;
    pool.scope(|s| {
        let (lag_s, load_start) = (&mut lag_s, &mut load_start);
        s.spawn(move |_| {
            for (idx, p) in plan.iter().enumerate() {
                let due = t0 + p.at;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let drains = stats.queue_depth.count();
                let ticket = server.submit(p.req.clone());
                let submitted = Instant::now();
                load_start.get_or_insert(submitted);
                lag_s.push(secs(submitted.saturating_duration_since(due)));
                if tx.send(Sent { idx, ticket }).is_err() {
                    return;
                }
                if p.hold {
                    while stats.queue_depth.count() == drains && Instant::now() < deadline {
                        std::thread::sleep(POLL);
                    }
                    *load_start = None;
                }
            }
        });
        let observed = &mut observed;
        s.spawn(move |_| *observed = Some(collect(stats, &base, plan, &rx, t0, deadline, check)));
    });
    let (latency_s, last_answer, unanswered, notes) = observed.expect("collector ran");
    for result in notes {
        out.check(result.is_ok(), || result.err().unwrap_or_default());
    }
    Observed { latency_s, lag_s, load_start, last_answer, unanswered }
}

type Collected = ([Vec<f64>; 4], Option<Instant>, usize, Vec<Result<(), String>>);

/// The collector job: polls per-class answer counts and resolves tickets in
/// each class's arrival order until all are answered or `deadline` passes.
fn collect(
    stats: &ServeStats,
    base: &[u64],
    plan: &[Planned],
    rx: &mpsc::Receiver<Sent>,
    t0: Instant,
    deadline: Instant,
    check: &Checker,
) -> Collected {
    let mut lanes: [VecDeque<Sent>; 4] = Default::default();
    let mut resolved = [0u64; 4];
    let mut latency: [Vec<f64>; 4] = Default::default();
    let mut results = Vec::with_capacity(plan.len());
    let mut last_answer = None;
    let mut done = 0usize;
    while done < plan.len() {
        while let Ok(sent) = rx.try_recv() {
            lanes[plan[sent.idx].class.lane()].push_back(sent);
        }
        for c in CLASSES {
            let lane = c.lane();
            let answered = c.answered(stats) - base[lane];
            while resolved[lane] < answered {
                // The answer may land before the submit job hands over its
                // ticket; that hand-over is immediate.
                let sent = match lanes[lane].pop_front() {
                    Some(s) => s,
                    None => match rx.recv() {
                        Ok(s) => {
                            lanes[plan[s.idx].class.lane()].push_back(s);
                            continue;
                        }
                        Err(_) => break,
                    },
                };
                let resp = sent.ticket.wait();
                let now = Instant::now();
                let p = &plan[sent.idx];
                latency[lane].push(secs(now.saturating_duration_since(t0 + p.at)));
                results.push(check.response(p, &resp));
                last_answer = Some(now);
                resolved[lane] += 1;
                done += 1;
            }
        }
        if done < plan.len() {
            if Instant::now() > deadline {
                break;
            }
            std::thread::sleep(POLL);
        }
    }
    let unanswered = plan.len() - done;
    if unanswered > 0 {
        results.push(Err(format!("{unanswered} request(s) unanswered at the watchdog deadline")));
    }
    (latency, last_answer, unanswered, results)
}

/// Response checks against the request and the epoch-0 reference.
struct Checker {
    num_vertices: usize,
    /// `hipa::top_k` of the benchmark's own `pagerank_delta` ranks.
    epoch0_top: Vec<(u32, f32)>,
}

impl Checker {
    fn response(&self, p: &Planned, resp: &Response) -> Result<(), String> {
        let k = TOP_K.min(self.num_vertices);
        let sorted = |v: &[(u32, f32)]| {
            v.len() == k
                && v.windows(2).all(|w| w[0].1 >= w[1].1)
                && v.iter().all(|e| e.1.is_finite())
        };
        let ok = match (&p.req, resp) {
            (Request::TopK { .. }, Response::TopK { entries, epoch }) => {
                sorted(entries) && (*epoch > 0 || *entries == self.epoch0_top)
            }
            (Request::Ppr { .. }, Response::Ppr { top, .. }) => {
                p.class == Class::Ppr && sorted(top)
            }
            (Request::Ppr { .. }, Response::Error { .. }) => p.class == Class::BadPpr,
            (Request::AddEdges { edges }, Response::EdgesCommitted { accepted, epoch }) => {
                *accepted == edges.len() && *epoch > 0
            }
            _ => false,
        };
        ok.then_some(()).ok_or_else(|| format!("{:?} request answered {resp:?}", p.class))
    }
}

fn config(width: usize, sampler: bool) -> ServeConfig {
    ServeConfig {
        threads: width,
        sampler: sampler.then(SamplerConfig::default),
        ..ServeConfig::default()
    }
}

/// A server whose scheduler left tickets unanswered past the watchdog.
pub struct Stalled;

/// Drives `plan` on `server`. A stalled server is leaked, since its
/// scheduler may be wedged and dropping it would join that thread.
fn drive_or_leak(
    server: Server,
    plan: &[Planned],
    check: &Checker,
    out: &mut Outcome,
) -> Result<(Server, Observed), Stalled> {
    let obs = drive(&server, plan, check, out);
    if obs.unanswered > 0 {
        std::mem::forget(server);
        return Err(Stalled);
    }
    Ok((server, obs))
}

/// Seconds from the first burst submit to the last burst answer.
fn burst_seconds(obs: &Observed) -> f64 {
    match (obs.load_start, obs.last_answer) {
        (Some(a), Some(b)) => secs(b - a),
        _ => f64::NAN,
    }
}

/// The phase's state across passes: the resident graph, the reference
/// answers and every sample so far.
pub struct Serve<'a> {
    resident: &'a EdgeList,
    g: DiGraph,
    /// Vertices with out-edges, the PPR source pool.
    sources: Vec<u32>,
    check: Checker,
    ranks: Vec<f32>,
    burst_plan: Vec<Planned>,
    seed: u64,
    setup_s: Vec<f64>,
    burst_s: Vec<f64>,
    traced_burst_s: Vec<f64>,
    latency_s: [Vec<f64>; 4],
    lag_s: Vec<f64>,
    epochs: u64,
    ppr_batches: u64,
    batched_sources: u64,
    depths: Vec<f64>,
}

impl<'a> Serve<'a> {
    /// The epoch-0 reference answers and the burst plan.
    pub fn new(cx: &Cx, resident: &'a EdgeList, out: &mut Outcome) -> Serve<'a> {
        let g = DiGraph::from_edge_list(resident);
        let n = g.num_vertices();
        let t = Instant::now();
        let delta = pagerank_delta(&g, &config(cx.width, false).delta);
        out.layer.put("algos.prdelta_s", secs(t.elapsed()), "s");
        out.layer.put("algos.prdelta_activations", delta.activations as f64, "count");
        let check = Checker { num_vertices: n, epoch0_top: hipa::top_k(&delta.ranks, TOP_K) };
        let seed = cx.seed_for(3);
        // A held single-source PPR from the top hub occupies the scheduler
        // while the burst is submitted, so the whole burst is admitted as
        // one drain instead of racing the scheduler's first wake-up.
        let sources: Vec<u32> = (0..n as u32).filter(|&v| g.out_degree(v) > 0).collect();
        let mut burst_plan = schedule(BURST, None, n, &sources, seed);
        let hub = (0..n as u32).max_by_key(|&v| g.out_degree(v)).expect("non-empty graph");
        let blocker = Request::Ppr { sources: vec![hub], k: TOP_K };
        burst_plan
            .insert(0, Planned { class: Class::Ppr, req: blocker, at: Duration::ZERO, hold: true });
        Serve {
            resident,
            g,
            sources,
            check,
            ranks: delta.ranks,
            burst_plan,
            seed,
            setup_s: vec![],
            burst_s: vec![],
            traced_burst_s: vec![],
            latency_s: Default::default(),
            lag_s: vec![],
            epochs: 0,
            ppr_batches: 0,
            batched_sources: 0,
            depths: vec![],
        }
    }

    /// One pass: a fresh server timed to its first answer. A traced run
    /// then drives this pass's share of the steady schedule on it with the
    /// sampler on, and bursts on another server in the first and last pass,
    /// and with the sampler on in the middle pass, for the overhead ratio.
    /// Untraced runs stop after the start: every steady-phase and burst
    /// metric is a per-layer metric.
    pub fn pass(&mut self, cx: &Cx, pass: usize, out: &mut Outcome) -> Result<(), Stalled> {
        let server = self.start(config(cx.width, cx.args.trace), out)?;
        if !cx.args.trace {
            return Ok(());
        }
        let n = self.g.num_vertices();
        let steady_s = cx.args.seconds * STEADY_SHARE / PASSES as f64;
        let steady_n = ((steady_s * RATE_PER_S).round() as usize).max(4);
        let seed = self.seed ^ (pass as u64 + 1);
        let plan = schedule(steady_n, Some(RATE_PER_S), n, &self.sources, seed);
        let (server, steady) = drive_or_leak(server, &plan, &self.check, out)?;
        let stats = server.stats();
        self.epochs += stats.epochs.get();
        self.ppr_batches += stats.ppr_batches.get();
        self.batched_sources += stats.ppr_batched_sources.get();
        let series = stats.queue_depth_series.lock().expect("queue series lock");
        self.depths.extend(series.iter().map(|&d| d as f64));
        drop(series);
        drop(server);
        for (all, new) in self.latency_s.iter_mut().zip(steady.latency_s) {
            all.extend(new);
        }
        self.lag_s.extend(steady.lag_s);

        let middle = pass == PASSES / 2;
        if !(middle || pass == 0 || pass == PASSES - 1) {
            return Ok(());
        }
        let server = self.start(config(cx.width, middle), out)?;
        let (server, burst) = drive_or_leak(server, &self.burst_plan, &self.check, out)?;
        drop(server);
        let t = burst_seconds(&burst);
        if middle { &mut self.traced_burst_s } else { &mut self.burst_s }.push(t);
        Ok(())
    }

    /// Starts a server and times it to its first answered `TopK`.
    fn start(&mut self, cfg: ServeConfig, out: &mut Outcome) -> Result<Server, Stalled> {
        let edges = self.resident.clone();
        let plan = [Planned {
            class: Class::TopK,
            req: Request::TopK { k: TOP_K },
            at: Duration::ZERO,
            hold: false,
        }];
        let t = Instant::now();
        let (server, obs) = drive_or_leak(Server::start(edges, cfg), &plan, &self.check, out)?;
        self.setup_s.push(obs.last_answer.map_or(f64::NAN, |a| secs(a - t)));
        Ok(server)
    }

    /// Reports the phase's metrics; returns the median set-up seconds.
    pub fn finish(self, cx: &Cx, out: &mut Outcome) -> f64 {
        // No steady-phase latency is steady enough to bound: the top-k median
        // is one full sort of the resident ranks, whose time moved by up to
        // 30% between one-minute runs on a shared host while the engines
        // moved by 10%; the tail depends on how arrivals coincide with
        // 100-200 ms sweeps and rebuilds; a run holds 16 valid PPR and 4
        // edge requests. They are reported with the per-layer metrics.
        let p50_ms = |class: Class| median(&self.latency_s[class.lane()]) * 1e3;
        out.layer.put("serve.topk_p50_ms", p50_ms(Class::TopK), "ms");
        out.layer.put("serve.ppr_p50_ms", p50_ms(Class::Ppr), "ms");
        out.layer.put("serve.edges_p50_ms", p50_ms(Class::Edges), "ms");
        let topk = &self.latency_s[Class::TopK.lane()];
        let p90 = match supported_percentile(topk.len()) {
            Some(q) if q >= 0.9 => quantile(topk, 0.9) * 1e3,
            _ => f64::NAN,
        };
        out.layer.put("serve.topk_p90_ms", p90, "ms");
        for class in CLASSES {
            let count = self.latency_s[class.lane()].len();
            out.note(format!("steady_samples.{class:?}"), count.to_string());
        }
        if cx.args.trace {
            // Burst throughput depends on the slowest-converging source of
            // each multi-vector sweep, so it is bimodal across seeds on `web`
            // (about 70 or 115 requests/s); it is a per-layer metric.
            let burst = median(&self.burst_s);
            out.layer.put("serve.burst_rps", BURST as f64 / burst, "1/s");
            let overhead = median(&self.traced_burst_s) / burst;
            out.layer.put("serve-mixed.trace_overhead", overhead, "ratio");
            out.layer.put("serve.epochs", self.epochs as f64, "count");
            out.layer.put("serve.ppr_batches", self.ppr_batches as f64, "count");
            let width = self.batched_sources as f64 / self.ppr_batches as f64;
            out.layer.put("serve.ppr_batch_width_mean", width, "count");
            out.layer.put("serve.queue_depth_p50", median(&self.depths), "count");
            let max_depth = self.depths.iter().copied().fold(0.0, f64::max);
            out.layer.put("serve.queue_depth_max", max_depth, "count");
            out.layer.put("serve.gen_lag_p99_ms", quantile(&self.lag_s, 0.99) * 1e3, "ms");
            layer_calls(cx, &self.g, &self.sources, &self.ranks, out);
        }
        median(&self.setup_s)
    }
}

/// The serve stack's layers timed as separate public calls.
fn layer_calls(cx: &Cx, g: &DiGraph, sources: &[u32], ranks: &[f32], out: &mut Outcome) {
    let cfg = config(cx.width, false);
    let vpp = cfg.verts_per_partition;
    let mut prepared = None;
    let build_s = median_time(3, || prepared = Some(PcpmPrepared::build(g, cx.width, vpp)));
    out.layer.put("core.prepared_build_s", build_s, "s");
    let mut solver = PprSolver::from_prepared(Arc::new(prepared.expect("built")), &cfg.ppr);
    let mut rng = SmallRng::seed_from_u64(cx.seed_for(4));
    let n = g.num_vertices();
    let mut teleport = || {
        let s = sources[rng.gen_range(0..sources.len())];
        teleport_from_seeds(n, &[s]).expect("in-range seed")
    };
    let one = vec![teleport()];
    let mut iterations = 0;
    let w1 = median_time(3, || iterations = solver.solve_batch(&one)[0].iterations_run);
    out.layer.put("algos.ppr_solve_s.w1", w1, "s");
    out.layer.put("algos.ppr_iterations", iterations as f64, "count");
    let wide: Vec<Vec<f32>> = (0..32).map(|_| teleport()).collect();
    out.layer.put("algos.ppr_solve_s.w32", median_time(1, || solver.solve_batch(&wide)), "s");
    out.layer.put("serve.topk_select_s", median_time(5, || hipa::top_k(ranks, TOP_K)), "s");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_have_exact_class_counts_and_repeat() {
        let sources: Vec<u32> = (0..1000).collect();
        let a = schedule(625, Some(15.0), 1000, &sources, 9);
        let count = |c| a.iter().filter(|p| p.class == c).count();
        assert_eq!(count(Class::Ppr) + count(Class::BadPpr), 100);
        assert_eq!(count(Class::BadPpr), 2);
        assert_eq!(count(Class::Edges), 25);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        let b = schedule(625, Some(15.0), 1000, &sources, 9);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.at == y.at && format!("{:?}", x.req) == format!("{:?}", y.req)));
        assert!(schedule(256, None, 1000, &sources, 9).iter().all(|p| p.at == Duration::ZERO));
    }
}
