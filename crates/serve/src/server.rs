//! The resident rank server: one scheduler thread, an admission queue, and
//! one immutable preprocessed state per graph epoch.
//!
//! Requests enter through [`Server::submit`] (any thread) and park on a
//! ticket; the scheduler drains the queue in arrival order, answers top-k
//! lookups from the resident global ranks, groups personalized-PageRank
//! source sets into **one multi-vector partition-centric sweep** per batch
//! chunk (amortizing the graph pass across the whole batch), and commits
//! streamed edge updates as a *delta epoch* only after every read drained in
//! the same cycle has been answered — readers never observe a half-updated
//! graph. Invalid user input (out-of-range seeds or endpoints) produces an
//! error response instead of killing the server.

use crate::sampler::{SampleFrame, SamplerConfig};
use crate::stats::ServeStats;
use hipa_algos::{
    pagerank_delta, teleport_from_seeds, PersonalizedConfig, PprSolver, PrDeltaConfig,
};
use hipa_core::{top_k, PcpmPrepared};
use hipa_graph::{DiGraph, EdgeList};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads of the resident sweep pool.
    pub threads: usize,
    /// Partition size (vertices) of the resident layout.
    pub verts_per_partition: usize,
    /// Maximum personalized-PageRank source sets advanced through one
    /// multi-vector sweep.
    pub batch_max: usize,
    /// Iteration schedule for personalized PageRank (threads / partition
    /// size are taken from the resident state, not from here).
    pub ppr: PersonalizedConfig,
    /// PageRank-Delta parameters for the global ranks and epoch re-ranks.
    pub delta: PrDeltaConfig,
    /// Background health sampler; `None` (the default) spawns no thread.
    pub sampler: Option<SamplerConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 4,
            verts_per_partition: 16 * 1024,
            batch_max: 32,
            ppr: PersonalizedConfig::default(),
            delta: PrDeltaConfig::default(),
            sampler: None,
        }
    }
}

/// A client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// The `k` highest globally-ranked vertices.
    TopK { k: usize },
    /// Personalized PageRank from a user source set; responds with the `k`
    /// highest personalized ranks.
    Ppr { sources: Vec<u32>, k: usize },
    /// Stream new edges in; committed at the next delta epoch.
    AddEdges { edges: Vec<(u32, u32)> },
}

/// The server's answer to one [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    TopK {
        entries: Vec<(u32, f32)>,
        epoch: u64,
    },
    Ppr {
        top: Vec<(u32, f32)>,
        iterations: usize,
        converged: bool,
        epoch: u64,
    },
    /// Edges accepted and visible: `epoch` is the first epoch whose ranks
    /// include them.
    EdgesCommitted {
        accepted: usize,
        epoch: u64,
    },
    /// Invalid request input; the server keeps running.
    Error {
        message: String,
    },
}

struct TicketInner {
    slot: Mutex<Option<Response>>,
    cv: Condvar,
}

/// A pending response; blocks on [`wait`](Ticket::wait).
pub struct Ticket(Arc<TicketInner>);

impl Ticket {
    /// Blocks until the scheduler answers.
    pub fn wait(self) -> Response {
        let mut slot = self.0.slot.lock().unwrap();
        while slot.is_none() {
            slot = self.0.cv.wait(slot).unwrap();
        }
        slot.take().expect("response present")
    }
}

struct Pending {
    req: Request,
    ticket: Arc<TicketInner>,
    submitted: Instant,
}

struct QueueState {
    pending: VecDeque<Pending>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<QueueState>,
    cv: Condvar,
    stats: ServeStats,
}

/// The resident rank server. Construct with [`Server::start`]; submit from
/// any number of client threads; drop (or [`shutdown`](Server::shutdown))
/// to drain and join the scheduler.
pub struct Server {
    shared: Arc<Shared>,
    num_vertices: usize,
    scheduler: Option<std::thread::JoinHandle<()>>,
    sampler: Option<(Arc<SamplerCtl>, std::thread::JoinHandle<()>)>,
}

/// Stop signal for the sampler thread: a flag under a mutex plus a condvar
/// so shutdown interrupts the inter-tick sleep promptly instead of waiting
/// out the interval.
struct SamplerCtl {
    stop: Mutex<bool>,
    cv: Condvar,
}

/// Snapshot of a [`DiGraph`]'s edges as an [`EdgeList`] (CSR order) — the
/// form [`Server::start`] consumes, since the server needs to extend the
/// edge set at delta epochs.
pub fn edge_list_of(g: &DiGraph) -> EdgeList {
    let mut edges = EdgeList::new(g.num_vertices(), Vec::new());
    for (s, d) in g.out_csr().iter_edges() {
        edges.push(s, d);
    }
    edges
}

/// Everything the scheduler owns for one graph epoch.
struct EpochState {
    edges: EdgeList,
    solver: PprSolver,
    ranks: Vec<f32>,
    epoch: u64,
}

impl EpochState {
    fn build(edges: EdgeList, cfg: &ServeConfig, epoch: u64) -> EpochState {
        let g = DiGraph::from_edge_list(&edges);
        let prepared = Arc::new(PcpmPrepared::build(&g, cfg.threads, cfg.verts_per_partition));
        let solver = PprSolver::from_prepared(prepared, &cfg.ppr);
        let ranks = pagerank_delta(&g, &cfg.delta).ranks;
        EpochState { edges, solver, ranks, epoch }
    }
}

impl Server {
    /// Builds the resident state (one layout build, one converged global
    /// rank vector, one worker pool) and starts the scheduler thread.
    pub fn start(edges: EdgeList, cfg: ServeConfig) -> Server {
        let num_vertices = edges.num_vertices();
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState { pending: VecDeque::new(), shutdown: false }),
            cv: Condvar::new(),
            stats: ServeStats::default(),
        });
        let sampler = cfg.sampler.clone().map(|scfg| {
            let ctl = Arc::new(SamplerCtl { stop: Mutex::new(false), cv: Condvar::new() });
            let (shared, ctl2) = (Arc::clone(&shared), Arc::clone(&ctl));
            let handle = std::thread::Builder::new()
                .name("hipa-serve-sampler".to_string())
                .spawn(move || sampler_loop(shared, ctl2, scfg))
                .expect("spawn sampler");
            (ctl, handle)
        });
        let shared2 = Arc::clone(&shared);
        let scheduler = std::thread::Builder::new()
            .name("hipa-serve-scheduler".to_string())
            .spawn(move || scheduler_loop(shared2, edges, cfg))
            .expect("spawn scheduler");
        Server { shared, num_vertices, scheduler: Some(scheduler), sampler }
    }

    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Enqueues a request; returns immediately with a [`Ticket`].
    pub fn submit(&self, req: Request) -> Ticket {
        let ticket = Arc::new(TicketInner { slot: Mutex::new(None), cv: Condvar::new() });
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.pending.push_back(Pending {
                req,
                ticket: Arc::clone(&ticket),
                submitted: Instant::now(),
            });
        }
        self.shared.cv.notify_all();
        Ticket(ticket)
    }

    /// Submit and block for the response.
    pub fn call(&self, req: Request) -> Response {
        self.submit(req).wait()
    }

    pub fn stats(&self) -> &ServeStats {
        &self.shared.stats
    }

    /// Stops accepting work after the queue drains and joins the scheduler.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if let Some(handle) = self.scheduler.take() {
            {
                let mut q = self.shared.queue.lock().unwrap();
                q.shutdown = true;
            }
            self.shared.cv.notify_all();
            let _ = handle.join();
        }
        // Stop the sampler after the scheduler drains so the final frame
        // sees the fully-served totals.
        if let Some((ctl, handle)) = self.sampler.take() {
            *ctl.stop.lock().unwrap() = true;
            ctl.cv.notify_all();
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn respond(
    shared: &Shared,
    pend: Pending,
    resp: Response,
    hist: fn(&ServeStats) -> &hipa_obs::Histogram,
) {
    if matches!(resp, Response::Error { .. }) {
        shared.stats.errors.incr();
    }
    hist(&shared.stats).record(pend.submitted.elapsed().as_nanos() as u64);
    let mut slot = pend.ticket.slot.lock().unwrap();
    *slot = Some(resp);
    pend.ticket.cv.notify_all();
}

fn scheduler_loop(shared: Arc<Shared>, edges: EdgeList, cfg: ServeConfig) {
    let n = edges.num_vertices();
    let mut state = EpochState::build(edges, &cfg, 0);
    loop {
        // Admission: wait for work, then drain the whole queue in arrival
        // order. One drain = one scheduling cycle.
        let batch: Vec<Pending> = {
            let mut q = shared.queue.lock().unwrap();
            while q.pending.is_empty() && !q.shutdown {
                q = shared.cv.wait(q).unwrap();
            }
            if q.pending.is_empty() && q.shutdown {
                return;
            }
            q.pending.drain(..).collect()
        };
        shared.stats.observe_queue_depth(batch.len() as u64);

        // Classify: reads are answered (or batched) now; edge updates are
        // deferred to the end of the cycle so every read drained alongside
        // them still sees the pre-update epoch — "reads drained between
        // delta epochs".
        let mut ppr_batch: Vec<(Pending, Vec<f32>, usize)> = Vec::new();
        let mut edge_updates: Vec<(Pending, Vec<(u32, u32)>)> = Vec::new();
        for pend in batch {
            match pend.req.clone() {
                Request::TopK { k } => {
                    shared.stats.topk_served.incr();
                    let resp =
                        Response::TopK { entries: top_k(&state.ranks, k), epoch: state.epoch };
                    respond(&shared, pend, resp, |s| &s.topk_latency);
                }
                Request::Ppr { sources, k } => match teleport_from_seeds(n, &sources) {
                    Ok(teleport) => ppr_batch.push((pend, teleport, k)),
                    Err(message) => {
                        shared.stats.ppr_served.incr();
                        respond(&shared, pend, Response::Error { message }, |s| &s.ppr_latency);
                    }
                },
                Request::AddEdges { edges } => {
                    if let Some(&(s, d)) =
                        edges.iter().find(|&&(s, d)| s as usize >= n || d as usize >= n)
                    {
                        shared.stats.edges_served.incr();
                        let message =
                            format!("edge ({s}, {d}) out of range: graph has {n} vertices");
                        respond(&shared, pend, Response::Error { message }, |s| &s.edges_latency);
                    } else {
                        edge_updates.push((pend, edges));
                    }
                }
            }
        }

        // Batched personalized PageRank: up to `batch_max` source sets per
        // multi-vector sweep. Batch composition cannot change any result —
        // each batch member is bitwise-equal to a solo solve.
        let mut ppr_batch = VecDeque::from(ppr_batch);
        while !ppr_batch.is_empty() {
            let take = cfg.batch_max.max(1).min(ppr_batch.len());
            let mut pends = Vec::with_capacity(take);
            let mut teleports = Vec::with_capacity(take);
            for (pend, teleport, k) in ppr_batch.drain(..take) {
                pends.push((pend, k));
                teleports.push(teleport);
            }
            let results = state.solver.solve_batch(&teleports);
            shared.stats.ppr_batches.incr();
            shared.stats.ppr_batched_sources.add(pends.len() as u64);
            for ((pend, k), res) in pends.into_iter().zip(results) {
                shared.stats.ppr_served.incr();
                let resp = Response::Ppr {
                    top: top_k(&res.ranks, k),
                    iterations: res.iterations_run,
                    converged: res.converged,
                    epoch: state.epoch,
                };
                respond(&shared, pend, resp, |s| &s.ppr_latency);
            }
        }

        // Delta epoch: all reads of this cycle are answered; commit the
        // streamed edges, rebuild the resident state, re-rank via
        // PageRank-Delta, then acknowledge the writers with the new epoch.
        if !edge_updates.is_empty() {
            let mut edges = state.edges.clone();
            let mut accepted = Vec::with_capacity(edge_updates.len());
            for (_, batch_edges) in &edge_updates {
                for &(s, d) in batch_edges {
                    edges.push(s, d);
                }
                accepted.push(batch_edges.len());
            }
            state = EpochState::build(edges, &cfg, state.epoch + 1);
            shared.stats.epochs.incr();
            for ((pend, _), accepted) in edge_updates.into_iter().zip(accepted) {
                shared.stats.edges_served.incr();
                let resp = Response::EdgesCommitted { accepted, epoch: state.epoch };
                respond(&shared, pend, resp, |s| &s.edges_latency);
            }
        }
    }
}

/// Background sampler: one [`SampleFrame`] per tick until told to stop,
/// plus one final frame at shutdown so even the shortest server lifetime
/// leaves a trajectory. All reads are wait-free or take the queue lock for
/// a single `len()`; a tick never blocks request processing measurably.
fn sampler_loop(shared: Arc<Shared>, ctl: Arc<SamplerCtl>, cfg: SamplerConfig) {
    let started = Instant::now();
    let mut seq = 0u64;
    let mut prev_served = 0u64;
    let mut prev_elapsed_ns = 0u64;
    let tick = |seq: u64, prev_served: &mut u64, prev_elapsed_ns: &mut u64| {
        let queue_depth = shared.queue.lock().unwrap().pending.len() as u64;
        let elapsed_ns = started.elapsed().as_nanos() as u64;
        let total_served = shared.stats.total_served();
        let all = shared.stats.merged_latency();
        let window_ns = elapsed_ns.saturating_sub(*prev_elapsed_ns).max(1);
        let throughput_rps =
            ((total_served - *prev_served) as f64 * 1e9 / window_ns as f64).round() as u64;
        let (latency_p50_ns, latency_p99_ns) =
            if all.is_empty() { (0, 0) } else { (all.quantile(0.50), all.quantile(0.99)) };
        shared.stats.push_frame(
            SampleFrame {
                seq,
                elapsed_ns,
                queue_depth,
                total_served,
                errors: shared.stats.errors.get(),
                latency_p50_ns,
                latency_p99_ns,
                throughput_rps,
            },
            cfg.capacity,
        );
        *prev_served = total_served;
        *prev_elapsed_ns = elapsed_ns;
        if let Some(path) = &cfg.expo_path {
            // Sampling must never take the server down; drop write errors.
            let _ = std::fs::write(
                path,
                shared.stats.render_exposition(queue_depth, started.elapsed()),
            );
        }
    };
    loop {
        {
            let mut stop = ctl.stop.lock().unwrap();
            while !*stop {
                let (guard, timeout) = ctl.cv.wait_timeout(stop, cfg.interval).unwrap();
                stop = guard;
                if timeout.timed_out() {
                    break;
                }
            }
            if *stop {
                break;
            }
        }
        tick(seq, &mut prev_served, &mut prev_elapsed_ns);
        seq += 1;
    }
    // Final frame: totals after the scheduler drained.
    tick(seq, &mut prev_served, &mut prev_elapsed_ns);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipa_graph::gen::cycle;

    fn small_cfg() -> ServeConfig {
        ServeConfig { threads: 2, verts_per_partition: 64, ..Default::default() }
    }

    #[test]
    fn topk_matches_global_ranks() {
        let edges = edge_list_of(&hipa_graph::datasets::small_test_graph(140));
        let g = DiGraph::from_edge_list(&edges);
        let cfg = small_cfg();
        let want = top_k(&pagerank_delta(&g, &cfg.delta).ranks, 5);
        let server = Server::start(edges, cfg);
        match server.call(Request::TopK { k: 5 }) {
            Response::TopK { entries, epoch } => {
                assert_eq!(entries, want);
                assert_eq!(epoch, 0);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn invalid_seed_gets_error_and_server_survives() {
        let edges = EdgeList::from_pairs([(0, 1), (1, 2), (2, 3), (3, 0)]);
        let server = Server::start(edges, small_cfg());
        match server.call(Request::Ppr { sources: vec![99], k: 3 }) {
            Response::Error { message } => assert!(message.contains("out of range"), "{message}"),
            other => panic!("unexpected response {other:?}"),
        }
        // The server is still alive and serving.
        match server.call(Request::Ppr { sources: vec![0], k: 3 }) {
            Response::Ppr { top, .. } => assert_eq!(top.len(), 3),
            other => panic!("unexpected response {other:?}"),
        }
        assert_eq!(server.stats().errors.get(), 1);
    }

    #[test]
    fn edge_commit_advances_epoch_and_reranks() {
        let edges = cycle(6);
        let cfg = small_cfg();
        let server = Server::start(edges.clone(), cfg.clone());
        let before = match server.call(Request::TopK { k: 6 }) {
            Response::TopK { entries, epoch } => {
                assert_eq!(epoch, 0);
                entries
            }
            other => panic!("unexpected response {other:?}"),
        };
        match server.call(Request::AddEdges { edges: vec![(0, 3), (1, 3)] }) {
            Response::EdgesCommitted { accepted, epoch } => {
                assert_eq!(accepted, 2);
                assert_eq!(epoch, 1);
            }
            other => panic!("unexpected response {other:?}"),
        }
        // Post-epoch ranks equal a from-scratch delta run on the grown graph.
        let mut grown = edges;
        grown.push(0, 3);
        grown.push(1, 3);
        let want = top_k(&pagerank_delta(&DiGraph::from_edge_list(&grown), &cfg.delta).ranks, 6);
        match server.call(Request::TopK { k: 6 }) {
            Response::TopK { entries, epoch } => {
                assert_eq!(epoch, 1);
                assert_eq!(entries, want);
                assert_ne!(entries, before, "re-rank must reflect the new edges");
            }
            other => panic!("unexpected response {other:?}"),
        }
        // Out-of-range endpoints are rejected without dying.
        match server.call(Request::AddEdges { edges: vec![(0, 99)] }) {
            Response::Error { message } => assert!(message.contains("out of range")),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn sampler_records_frames_and_exposition() {
        let edges = edge_list_of(&hipa_graph::datasets::small_test_graph(141));
        let expo = std::env::temp_dir().join("hipa_serve_sampler_test.prom");
        let _ = std::fs::remove_file(&expo);
        let cfg = ServeConfig {
            sampler: Some(SamplerConfig {
                interval: std::time::Duration::from_millis(5),
                capacity: 4,
                expo_path: Some(expo.clone()),
            }),
            ..small_cfg()
        };
        let server = Server::start(edges, cfg);
        for _ in 0..20 {
            assert!(matches!(server.call(Request::TopK { k: 3 }), Response::TopK { .. }));
        }
        let shared = Arc::clone(&server.shared);
        server.shutdown();

        let frames = shared.stats.frames();
        // At least the final shutdown frame is always present, and the ring
        // stays at its bound no matter how many ticks ran.
        assert!(!frames.is_empty());
        assert!(frames.len() <= 4, "ring must stay bounded, got {}", frames.len());
        // seq is monotone even across eviction.
        for w in frames.windows(2) {
            assert!(w[1].seq > w[0].seq);
        }
        let last = frames.last().unwrap();
        assert_eq!(last.total_served, 20);
        assert_eq!(last.errors, 0);
        assert!(last.latency_p99_ns >= last.latency_p50_ns);

        let text = std::fs::read_to_string(&expo).expect("exposition file written");
        assert!(text.contains("hipa_serve_requests_total 20"), "{text}");
        assert!(text.contains("hipa_serve_served_total{class=\"topk\"} 20"), "{text}");
        assert!(text.contains("hipa_serve_latency_ns{class=\"all\",quantile=\"0.99\"}"), "{text}");
        let _ = std::fs::remove_file(&expo);
    }

    #[test]
    fn shutdown_drains_cleanly() {
        let edges = cycle(8);
        let server = Server::start(edges, small_cfg());
        let tickets: Vec<Ticket> = (0..10).map(|_| server.submit(Request::TopK { k: 2 })).collect();
        for t in tickets {
            assert!(matches!(t.wait(), Response::TopK { .. }));
        }
        server.shutdown();
    }
}
