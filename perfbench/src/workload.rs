//! The three workloads, run against the real serving stack in this
//! process: the artifact loaded through the worker's own
//! `cluster::load_dict`, then an `Engine` and a `Server` per worker,
//! and for `delta_router` a `Router` over two of them — every piece at
//! the program's default configuration.

use crate::check::{check, Span, Truth, Wire};
use crate::client::{delta_acked, delta_request, match_request, replay, Conn, Outcome, Requests};
use crate::gen::{query_pool, zipf_log, Delta, DeltaSource, Dictionary, Query, Rng};
use crate::stats::slice_rate;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use websyn_serve::cluster::{load_dict, ClusterConfig};
use websyn_serve::router::query_hash;
use websyn_serve::{
    Engine, HttpProtocol, LineProtocol, Protocol, Ring, Router, RouterConfig, Server, ServerConfig,
    ServerHandle,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ZipfHead,
    FuzzyTail,
    DeltaRouter,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "zipf_head" => Some(Kind::ZipfHead),
            "fuzzy_tail" => Some(Kind::FuzzyTail),
            "delta_router" => Some(Kind::DeltaRouter),
            _ => None,
        }
    }

    pub fn wire(self) -> Wire {
        match self {
            Kind::FuzzyTail => Wire::Line,
            _ => Wire::Http,
        }
    }
}

/// Input sizes of one workload. Operation counts are fixed by these and
/// `--seconds` alone, so `attempted` never varies between runs.
pub struct Shape {
    pub dict_size: usize,
    pub pool: usize,
    pub zipf_s: f64,
    /// Requests replayed before timing (not timed, still checked).
    pub warm: usize,
    pub saturated: usize,
    pub paced: usize,
    /// Deltas sent beside reads (`delta_router`) or after them.
    pub deltas: usize,
    /// Cold starts timed for `setup_s`.
    pub setups: usize,
    /// Distinct requests replayed through each layer in a traced run.
    pub layer_sample: usize,
}

/// Nominal rates on the reference host: they only turn `--seconds`
/// into fixed request counts.
fn rates(kind: Kind) -> (f64, f64) {
    match kind {
        Kind::ZipfHead => (38_000.0, 1_400.0),
        Kind::FuzzyTail => (1_300.0, 650.0),
        Kind::DeltaRouter => (550.0, 600.0),
    }
}

pub fn shape(kind: Kind, seconds: u64, smoke: bool) -> Shape {
    let compact = websyn_core::segment::DEFAULT_AUTO_COMPACT;
    if smoke {
        return Shape {
            dict_size: 6_000,
            pool: match kind {
                Kind::ZipfHead => 300,
                Kind::FuzzyTail => 3_000,
                Kind::DeltaRouter => 1_500,
            },
            zipf_s: 1.0,
            warm: 300,
            saturated: 1_000,
            paced: 400,
            deltas: compact + 2,
            setups: 1,
            layer_sample: 100,
        };
    }
    let (sat_rate, paced_rate) = rates(kind);
    let secs = seconds as f64;
    let (pool, zipf_s) = match kind {
        Kind::ZipfHead => (2_000, 1.0),
        Kind::FuzzyTail => (60_000, 0.6),
        Kind::DeltaRouter => (20_000, 0.8),
    };
    Shape {
        dict_size: 120_000,
        pool,
        zipf_s,
        warm: match kind {
            Kind::ZipfHead => pool,
            _ => 2_000,
        },
        saturated: (secs * 0.4 * sat_rate) as usize,
        paced: (secs * 0.5 * paced_rate) as usize,
        // Whole turns of the delta chain, each ending in a background
        // compaction: three beside `delta_router`'s reads; six after the
        // reads elsewhere, where 24 acks gave a median that spread by a
        // quarter between runs.
        deltas: match kind {
            Kind::DeltaRouter => 3 * compact,
            _ => 6 * compact,
        },
        setups: 5,
        layer_sample: 1_000,
    }
}

/// Everything generated for one run.
pub struct Inputs {
    pub dict: Dictionary,
    pub tsv_path: PathBuf,
    pub pool: Vec<Query>,
    pub bytes: Vec<Vec<u8>>,
    pub truth: Vec<Truth>,
    pub expected: Vec<Option<String>>,
    pub warm: Vec<u32>,
    pub saturated: Vec<u32>,
    pub paced: Vec<u32>,
    pub deltas: DeltaSource,
    /// Reserve surfaces for a traced run's standalone deltas.
    pub spare_deltas: DeltaSource,
}

impl Inputs {
    pub fn requests(&self) -> Requests<'_> {
        Requests {
            bytes: &self.bytes,
            truth: &self.truth,
            expected: &self.expected,
        }
    }
}

pub fn generate(kind: Kind, shape: &Shape, seed: u64, out_dir: &Path) -> std::io::Result<Inputs> {
    let dict = Dictionary::generate(seed, shape.dict_size, 4_000);
    let mut order: Vec<usize> = (0..shape.dict_size).collect();
    Rng::new(seed, 2).shuffle(&mut order);
    // Pool surfaces come from the front of the shuffle, delta targets
    // from the back, so no delta ever changes a pool query's answer.
    let reserve_main: Vec<usize> = order[shape.dict_size - 200..].to_vec();
    let reserve_spare: Vec<usize> = order[shape.dict_size - 400..shape.dict_size - 200].to_vec();
    let pool = query_pool(seed, 3, &dict, &order[..shape.pool]);
    let wire = kind.wire();
    let bytes = pool.iter().map(|q| match_request(wire, &q.raw)).collect();
    let truth: Vec<Truth> = pool.iter().map(|q| q.truth.clone()).collect();
    let expected = truth.iter().map(|t| t.render(wire)).collect();
    let timed = zipf_log(
        seed,
        4,
        shape.pool,
        shape.zipf_s,
        shape.saturated + shape.paced,
    );
    let warm = match kind {
        // Every pool query once: the whole head is cached before timing.
        Kind::ZipfHead => (0..shape.pool as u32).collect(),
        _ => zipf_log(seed, 5, shape.pool, shape.zipf_s, shape.warm),
    };
    std::fs::create_dir_all(out_dir)?;
    let tsv_path = out_dir.join(format!("dict-{}-{seed}.tsv", std::process::id()));
    std::fs::write(&tsv_path, dict.to_tsv())?;
    Ok(Inputs {
        dict,
        tsv_path,
        pool,
        bytes,
        truth,
        expected,
        warm,
        saturated: timed[..shape.saturated].to_vec(),
        paced: timed[shape.saturated..].to_vec(),
        deltas: DeltaSource::new(seed, 6, reserve_main),
        spare_deltas: DeltaSource::new(seed, 7, reserve_spare),
    })
}

/// The serving stack of one workload.
pub struct Stack {
    pub engines: Vec<Arc<Engine>>,
    pub servers: Vec<ServerHandle>,
    pub router: Option<Router>,
    /// Where clients connect: the router if there is one.
    pub addr: SocketAddr,
}

impl Stack {
    /// Cold start: reads the artifact, builds every engine, server and
    /// router, and waits for the first correct answer. Returns the
    /// stack, the seconds spent in `load_dict` and the seconds from
    /// there to the first answer.
    pub fn start(
        kind: Kind,
        inputs: &Inputs,
        first: &mut Outcome,
    ) -> std::io::Result<(Stack, f64, f64)> {
        let path = inputs.tsv_path.to_str().expect("utf-8 path");
        let workers = match kind {
            Kind::DeltaRouter => ClusterConfig::default().workers,
            _ => 1,
        };
        let t0 = Instant::now();
        let handles: Vec<_> = (0..workers)
            .map(|_| load_dict(Some(path)).map_err(std::io::Error::other))
            .collect::<Result<_, _>>()?;
        let loaded = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let protocol: Arc<dyn Protocol> = match kind.wire() {
            Wire::Http => Arc::new(HttpProtocol),
            Wire::Line => Arc::new(LineProtocol),
        };
        let mut engines = Vec::new();
        let mut servers = Vec::new();
        for handle in handles {
            let engine = Arc::new(Engine::builder_with_dict(handle).build());
            servers.push(Server::start_with(
                Arc::clone(&engine),
                "127.0.0.1:0",
                ServerConfig::default(),
                Arc::clone(&protocol),
            )?);
            engines.push(engine);
        }
        let router = match kind {
            Kind::DeltaRouter => {
                let ring = Arc::new(Ring::new(workers, ClusterConfig::default().replication));
                for (slot, server) in servers.iter().enumerate() {
                    ring.publish(slot, server.addr());
                }
                Some(Router::start("127.0.0.1:0", ring, RouterConfig::default())?)
            }
            _ => None,
        };
        let addr = router.as_ref().map_or(servers[0].addr(), Router::addr);
        let mut conn = Conn::connect(addr, kind.wire())?;
        let first_answer = replay(&mut conn, &inputs.requests(), &[0], 1, t1, None)?;
        let started = t1.elapsed().as_secs_f64();
        first.merge(first_answer);
        Ok((
            Stack {
                engines,
                servers,
                router,
                addr,
            },
            loaded,
            started,
        ))
    }

    pub fn shutdown(self) {
        if let Some(router) = self.router {
            router.shutdown();
        }
        for server in self.servers {
            server.shutdown();
        }
    }

    fn compactions(&self) -> Vec<u64> {
        self.engines
            .iter()
            .map(|e| e.dict_stats().compactions)
            .collect()
    }

    /// Waits until every engine has finished one more compaction than
    /// `before` records.
    fn await_compaction(&self, before: &[u64]) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while self
            .compactions()
            .iter()
            .zip(before)
            .any(|(now, was)| now <= was)
        {
            assert!(
                Instant::now() < deadline,
                "background compaction never finished"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// Counter snapshot at a phase boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub promotions: u64,
    pub window_hits: u64,
    pub window_misses: u64,
    pub deltas: u64,
    pub telemetry: websyn_core::MatcherTelemetry,
    pub kernel: (u64, u64),
    pub cpu_ticks: u64,
}

pub fn counters(stack: &Stack) -> Counters {
    let mut c = Counters::default();
    for e in &stack.engines {
        let s = e.cache_stats();
        c.cache_hits += s.hits;
        c.cache_misses += s.misses;
        c.promotions += s.promotions;
        if let Some(w) = e.window_cache_stats() {
            c.window_hits += w.hits;
            c.window_misses += w.misses;
        }
        c.deltas += e.deltas();
    }
    c.telemetry = websyn_core::matcher_telemetry();
    let k = websyn_text::kernel_dispatch_stats();
    c.kernel = (k.bitpar, k.banded);
    c.cpu_ticks = crate::stats::cpu_ticks();
    c
}

/// What the untraced part of a run measured.
pub struct Measured {
    pub ops: Outcome,
    pub setup_s: Vec<f64>,
    pub load_s: Vec<f64>,
    pub start_s: Vec<f64>,
    pub match_qps: f64,
    pub ack_ms: Vec<f64>,
    /// Counter snapshots: before the saturated phase, after the paced
    /// phase, after the deltas.
    pub before_timed: Counters,
    pub after_timed: Counters,
    pub after_deltas: Counters,
    pub timed_requests: u64,
    /// When the run began, and the phase boundaries (name, start s,
    /// end s) since then.
    pub run_t0: Instant,
    pub phases: Vec<(&'static str, f64, f64)>,
    /// The timed phases' latencies and completion times.
    pub saturated: Outcome,
    pub paced: Outcome,
    /// Traced runs only: the served matchers resolving the layer sample
    /// right after the timed reads (see [`crate::layers::served_warm`]).
    pub served_warm: Vec<crate::layers::Timed>,
}

/// Requests a connection keeps in flight in the saturated phase: with
/// two connections, enough to keep both server workers busy.
const DEPTH: usize = 16;

/// Deadline the stall probe holds its delta ack and its read to.
pub const PROBE_DEADLINE: Duration = Duration::from_millis(100);

fn two<T: Send>(a: impl FnOnce() -> T + Send, b: impl FnOnce() -> T + Send) -> (T, T) {
    std::thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        (ra, hb.join().expect("client thread panicked"))
    })
}

/// Runs the workload's phases against a started stack.
pub fn drive(
    kind: Kind,
    shape: &Shape,
    inputs: &mut Inputs,
    stack: &Stack,
    run_t0: Instant,
    trace: bool,
) -> std::io::Result<Measured> {
    let wire = kind.wire();
    // Deltas are drawn before any request is sent: the main schedule,
    // then enough for the stall probe to top the chain up.
    let compact = websyn_core::segment::DEFAULT_AUTO_COMPACT;
    let mut deltas: std::collections::VecDeque<Delta> = (0..shape.deltas + compact)
        .map(|_| inputs.deltas.next(&mut inputs.dict))
        .collect();
    let main_deltas: Vec<Delta> = deltas.drain(..shape.deltas).collect();
    let reqs = inputs.requests();
    let mut ops = Outcome::default();
    let mut phases = Vec::new();
    let at = |t: Instant| (t - run_t0).as_secs_f64();
    let split = |log: &[u32]| {
        let (a, b) = log.split_at(log.len() / 2);
        (a.to_vec(), b.to_vec())
    };

    // Warm-up: not timed, still checked.
    let t = Instant::now();
    let (wa, wb) = split(&inputs.warm);
    let mut c1 = Conn::connect(stack.addr, wire)?;
    let mut c2 = Conn::connect(stack.addr, wire)?;
    let (r1, r2) = two(
        || replay(&mut c1, &reqs, &wa, DEPTH, t, None),
        || replay(&mut c2, &reqs, &wb, DEPTH, t, None),
    );
    ops.count(&r1?);
    ops.count(&r2?);
    phases.push(("warm", at(t), at(Instant::now())));

    let before_timed = counters(stack);
    let mut saturated = Outcome::default();
    let paced;
    let mut acks = Vec::new();
    let mut delta_ops = Outcome::default();
    if kind == Kind::DeltaRouter {
        // One connection reads, the other writes deltas on a fixed
        // schedule: delta j goes out once the reader has completed j
        // equal shares of its reads, so every run interleaves reads,
        // deltas and the compaction they trigger the same way.
        let progress = AtomicUsize::new(0);
        let every = (shape.saturated + shape.paced) / (shape.deltas + 1);
        let t = Instant::now();
        let (reader, writer) = std::thread::scope(|s| {
            let w =
                s.spawn(|| write_deltas(stack, &mut c2, &main_deltas, Some((&progress, every))));
            let r = (|| -> std::io::Result<(Outcome, Outcome, f64)> {
                let sat = replay(&mut c1, &reqs, &inputs.saturated, DEPTH, t, Some(&progress))?;
                let mid = at(Instant::now());
                let pc = replay(
                    &mut c1,
                    &reqs,
                    &inputs.paced,
                    1,
                    Instant::now(),
                    Some(&progress),
                )?;
                Ok((sat, pc, mid))
            })();
            (r, w.join().expect("writer panicked"))
        });
        let (sat, pc, mid) = reader?;
        let (dops, dacks) = writer?;
        phases.push(("saturated", at(t), mid));
        phases.push(("paced", mid, at(Instant::now())));
        saturated = sat;
        paced = pc;
        delta_ops.merge(dops);
        acks = dacks;
    } else {
        let t = Instant::now();
        let (sa, sb) = split(&inputs.saturated);
        let (r1, r2) = two(
            || replay(&mut c1, &reqs, &sa, DEPTH, t, None),
            || replay(&mut c2, &reqs, &sb, DEPTH, t, None),
        );
        saturated.merge(r1?);
        saturated.merge(r2?);
        phases.push(("saturated", at(t), at(Instant::now())));
        let t = Instant::now();
        // One closed-loop connection: with two, their requests fall into
        // one batch window or two depending on how they drift in phase,
        // and p50 swung by 15% between seeds.
        paced = replay(&mut c1, &reqs, &inputs.paced, 1, t, None)?;
        phases.push(("paced", at(t), at(Instant::now())));
    }
    let after_timed = counters(stack);
    let timed_requests = saturated.attempted + paced.attempted;
    // Before the deltas that follow the reads: 48 commits with no read
    // between them outrun the caches' generation log and flush them.
    let served_warm = if trace {
        crate::layers::served_warm(shape, inputs, stack)
    } else {
        Vec::new()
    };

    if kind != Kind::DeltaRouter {
        // Acks on the workload's own wire, after the reads.
        let t = Instant::now();
        let (dops, dacks) = write_deltas(stack, &mut c1, &main_deltas, None)?;
        delta_ops.merge(dops);
        acks = dacks;
        phases.push(("deltas", at(t), at(Instant::now())));
    }
    let after_deltas = counters(stack);
    if kind == Kind::DeltaRouter {
        let t = Instant::now();
        let probe = stall_probe(stack, &mut c2, &mut c1, &mut deltas)?;
        delta_ops.merge(probe);
        phases.push(("stall_probe", at(t), at(Instant::now())));
    }

    for timed in [&delta_ops, &saturated, &paced] {
        ops.count(timed);
    }
    Ok(Measured {
        ops,
        setup_s: Vec::new(),
        load_s: Vec::new(),
        start_s: Vec::new(),
        match_qps: slice_rate(&saturated.done_at, 8),
        ack_ms: acks,
        before_timed,
        after_timed,
        after_deltas,
        timed_requests,
        run_t0,
        phases,
        saturated,
        paced,
        served_warm,
    })
}

/// Sends `deltas` on one connection, checking after each ack that it
/// is visible. With a schedule `(progress, every)`, delta j waits until
/// `progress` reaches `(j + 1) * every`; without one they go back to
/// back. A delta that completes the chain to the auto-compaction
/// threshold starts a background compaction; the next delta waits for
/// it, so no timed delta races a compile.
fn write_deltas(
    stack: &Stack,
    conn: &mut Conn,
    deltas: &[Delta],
    schedule: Option<(&AtomicUsize, usize)>,
) -> std::io::Result<(Outcome, Vec<f64>)> {
    let compact = websyn_core::segment::DEFAULT_AUTO_COMPACT;
    let mut out = Outcome::default();
    let mut acks = Vec::new();
    let mut chain = stack.engines[0].dict_stats().segments;
    let mut pending: Option<Vec<u64>> = None;
    for (j, delta) in deltas.iter().enumerate() {
        if let Some((progress, every)) = schedule {
            while progress.load(Ordering::Relaxed) < (j + 1) * every {
                std::thread::sleep(Duration::from_micros(500));
            }
        }
        if let Some(before) = pending.take() {
            stack.await_compaction(&before);
        }
        let before = stack.compactions();
        let (ok, ms) = send_delta(conn, delta, &mut out)?;
        if ok {
            acks.push(ms);
        }
        chain += 1;
        if chain >= compact {
            pending = Some(before);
            chain = 0;
        }
    }
    if let Some(before) = pending {
        stack.await_compaction(&before);
    }
    Ok((out, acks))
}

/// Sends one delta and its post-ack checks; returns whether it was
/// acknowledged and the ack latency in ms.
fn send_delta(conn: &mut Conn, delta: &Delta, out: &mut Outcome) -> std::io::Result<(bool, f64)> {
    let wire = conn.wire();
    let sent = Instant::now();
    let (status, body) = conn.exchange(&delta_request(wire, &delta.tsv))?;
    let ms = sent.elapsed().as_secs_f64() * 1e3;
    out.attempted += 1;
    let ok = delta_acked(wire, status, &body);
    if !ok {
        out.fail(format!("delta not acknowledged: {status} {body}"));
    }
    for (query, truth) in &delta.checks {
        let (status, body) = conn.exchange(&match_request(wire, query))?;
        out.attempted += 1;
        let verdict = if status == 200 {
            check(truth, None, &body, wire)
        } else {
            Err(format!("status {status}: {body}"))
        };
        if let Err(e) = verdict {
            out.fail(format!("after delta, {query:?}: {e}"));
        }
    }
    Ok((ok, ms))
}

/// The compaction-stall probe, on the router's two connections: bring
/// the chain to the auto-compaction threshold, send one more delta at
/// once, and while it waits send one read. Both must answer within
/// [`PROBE_DEADLINE`]. The probe's delta and read are fixed strings,
/// independent of the seed.
fn stall_probe(
    stack: &Stack,
    writer: &mut Conn,
    reader: &mut Conn,
    deltas: &mut std::collections::VecDeque<Delta>,
) -> std::io::Result<Outcome> {
    let compact = websyn_core::segment::DEFAULT_AUTO_COMPACT;
    let mut out = Outcome::default();
    let chain = stack.engines[0].dict_stats().segments;
    let prep: Vec<Delta> = deltas.drain(..compact - 1 - chain).collect();
    let (prep_ops, _) = write_deltas(stack, writer, &prep, None)?;
    out.merge(prep_ops);
    // The delta that completes the chain: acknowledged normally, and it
    // starts a background compaction on every worker.
    let trigger = deltas.pop_front().expect("a delta for the trigger");
    send_delta(writer, &trigger, &mut out)?;

    // The router fans a delta out to slot 0 first, so the read is one
    // that slot 0 serves.
    let slots = stack.engines.len() as u64;
    let read = (0..)
        .map(|k| format!("weather tomorrow morning {k}"))
        .find(|q| query_hash(q).is_multiple_of(slots))
        .expect("some query homes to slot 0");
    let probe_tsv = "zz stall probe 0\t3000000000\n";
    let wire = writer.wire();
    let (ack, answer) = std::thread::scope(|s| {
        let w = s.spawn(|| {
            let sent = Instant::now();
            let r = writer.exchange(&delta_request(wire, probe_tsv));
            r.map(|(status, body)| (status, body, sent.elapsed()))
        });
        std::thread::sleep(Duration::from_millis(20));
        let sent = Instant::now();
        let r = reader.exchange(&match_request(wire, &read));
        let r = r.map(|(status, body)| (status, body, sent.elapsed()));
        (w.join().expect("probe writer panicked"), r)
    });
    let (status, body, waited) = ack?;
    out.attempted += 1;
    if !delta_acked(wire, status, &body) {
        out.fail(format!("probe delta not acknowledged: {status} {body}"));
    } else if waited > PROBE_DEADLINE {
        out.late += 1;
        out.fail(format!(
            "probe delta acked after {waited:?} (deadline {PROBE_DEADLINE:?})"
        ));
    }
    let (status, body, waited) = answer?;
    out.attempted += 1;
    let verdict = if status == 200 {
        check(&Truth::Spans(Vec::new()), None, &body, wire)
    } else {
        Err(format!("status {status}: {body}"))
    };
    match verdict {
        Err(e) => out.fail(format!("probe read: {e}")),
        Ok(()) if waited > PROBE_DEADLINE => {
            out.late += 1;
            out.fail(format!(
                "probe read answered after {waited:?} (deadline {PROBE_DEADLINE:?})"
            ))
        }
        Ok(()) => {}
    }
    // Late or not, the probe delta must be live once acknowledged.
    let surface = "zz stall probe 0";
    let truth = Truth::Spans(vec![Span {
        start: 3,
        end: 7,
        entity: 3_000_000_000,
        distance: 0,
        surface: surface.to_string(),
    }]);
    let query = format!("where to buy {surface}");
    let (status, body) = writer.exchange(&match_request(wire, &query))?;
    out.attempted += 1;
    let verdict = if status == 200 {
        check(&truth, None, &body, wire)
    } else {
        Err(format!("status {status}: {body}"))
    };
    if let Err(e) = verdict {
        out.fail(format!("after the probe delta, {query:?}: {e}"));
    }
    // The compile the probe waited on may be abandoned (the probe's
    // commit made it stale), so nothing waits for a compaction here.
    Ok(out)
}
