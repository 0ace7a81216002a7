//! The traced run's per-layer figures.
//!
//! After the workload has run exactly as in an untraced run, its own
//! requests are replayed through each layer's public entry point in
//! this process, with a span (name, start, end, parent, request id)
//! around every call, or around every pass for calls too short to time
//! one by one. Counter snapshots come from the same phase boundaries.
//! Spans, snapshots and the traced end-to-end figures are kept in
//! memory and written to `<out>/trace-<workload>.json` at the end.

use crate::check::{check, Truth, Wire};
use crate::client::{match_request, Conn, Requests};
use crate::stats::{median, paced_percentiles, TICKS_PER_SECOND};
use crate::workload::{Counters, Inputs, Kind, Measured, Shape, Stack};
use std::collections::HashSet;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use websyn_common::EntityId;
use websyn_core::{DictDelta, EntityMatcher, SegmentRequest};
use websyn_serve::cluster::load_dict;
use websyn_serve::router::query_hash;
use websyn_serve::{http, Engine, HttpProtocol, LineProtocol, Protocol};

type Metric = (&'static str, f64, &'static str);

struct SpanRec {
    id: usize,
    parent: usize,
    name: &'static str,
    req: u64,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder; span 0 is the run itself.
struct Tracer {
    t0: Instant,
    spans: Vec<SpanRec>,
}

impl Tracer {
    fn ns(&self, t: Instant) -> u64 {
        (t - self.t0).as_nanos() as u64
    }

    fn record(
        &mut self,
        name: &'static str,
        parent: usize,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.spans.len() + 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(SpanRec {
            id,
            parent,
            name,
            req,
            start_ns,
            end_ns,
        });
        id
    }

    /// Runs `f` inside a span and returns its result and duration.
    fn time<R>(
        &mut self,
        name: &'static str,
        parent: usize,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        self.record(name, parent, req, start, end);
        (r, end - start)
    }

    /// A parent span over a layer; closed with [`Tracer::close`].
    fn open(&mut self, name: &'static str) -> (usize, Instant) {
        let start = Instant::now();
        (self.record(name, 0, 0, start, start), start)
    }

    fn close(&mut self, (id, _): (usize, Instant)) {
        let end = self.ns(Instant::now());
        self.spans[id - 1].end_ns = end;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn bad(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Passes over a sample so that ns-scale calls are timed in bulk.
const PASSES: u64 = 20;

pub fn measure(
    kind: Kind,
    shape: &Shape,
    inputs: &mut Inputs,
    stack: &Stack,
    m: &Measured,
    out_dir: &Path,
    name: &str,
) -> std::io::Result<Vec<Metric>> {
    // Span times count from the start of the run, as the phases do.
    let mut tr = Tracer {
        t0: m.run_t0,
        spans: Vec::new(),
    };
    let mut metrics: Vec<Metric> = Vec::new();
    let workers = stack.engines.len() as f64;

    let sample = sample(shape, inputs);
    let raws: Vec<&str> = sample
        .iter()
        .map(|&i| inputs.pool[i].raw.as_str())
        .collect();

    // --- protocol parsers and the normalizer -------------------------
    let http_reqs: Vec<Vec<u8>> = raws.iter().map(|q| match_request(Wire::Http, q)).collect();
    let line_reqs: Vec<Vec<u8>> = raws.iter().map(|q| match_request(Wire::Line, q)).collect();
    let parse_pass =
        |tr: &mut Tracer, name: &'static str, proto: &dyn Protocol, reqs: &[Vec<u8>]| -> f64 {
            let layer = tr.open(name);
            let mut parser = proto.parser();
            let mut total = Duration::ZERO;
            for pass in 0..PASSES {
                let ((), d) = tr.time(name, layer.0, pass, || {
                    for r in reqs {
                        for line in r.split_inclusive(|&b| b == b'\n') {
                            black_box(parser.on_line(black_box(line)));
                        }
                    }
                });
                total += d;
            }
            tr.close(layer);
            total.as_nanos() as f64 / (PASSES as f64 * reqs.len() as f64)
        };
    let http_parse_ns = parse_pass(&mut tr, "http.parse", &HttpProtocol, &http_reqs);
    let line_parse_ns = parse_pass(&mut tr, "line.parse", &LineProtocol, &line_reqs);
    metrics.push(("http.parse_ns", http_parse_ns, "ns/req"));
    metrics.push(("line.parse_ns", line_parse_ns, "ns/req"));
    let layer = tr.open("text.normalize");
    let mut total = Duration::ZERO;
    for pass in 0..PASSES {
        total += tr
            .time("text.normalize", layer.0, pass, || {
                for q in &raws {
                    black_box(websyn_text::normalized(black_box(q)));
                }
            })
            .1;
    }
    tr.close(layer);
    metrics.push((
        "text.normalize_ns",
        total.as_nanos() as f64 / (PASSES as f64 * raws.len() as f64),
        "ns/query",
    ));

    // --- engine: cold keys, then warm keys, on a standalone engine ---
    let path = inputs.tsv_path.to_str().expect("utf-8 path").to_string();
    let aux = Engine::builder_with_dict(load_dict(Some(&path)).map_err(bad)?).build();
    let layer = tr.open("engine.miss");
    let mut miss = Vec::new();
    let mut answers = Vec::new();
    for (k, &i) in sample.iter().enumerate() {
        let (r, d) = tr.time("engine.miss", layer.0, i as u64, || {
            aux.resolve_rendered_batch(&[raws[k]])
        });
        miss.push(us(d));
        let body = http_body(&r[0].http);
        check(&inputs.truth[i], None, body, Wire::Http)
            .map_err(|e| bad(format!("engine answer for {:?}: {e}", raws[k])))?;
        answers.push(Arc::clone(&r[0].spans));
    }
    tr.close(layer);
    metrics.push(("engine.miss_us", median(&miss), "us/query"));
    let layer = tr.open("engine.hit");
    let mut total = Duration::ZERO;
    for pass in 0..PASSES {
        total += tr
            .time("engine.hit", layer.0, pass, || {
                for q in &raws {
                    black_box(aux.resolve_rendered_batch(&[*q]));
                }
            })
            .1;
    }
    tr.close(layer);
    metrics.push((
        "engine.hit_ns",
        total.as_nanos() as f64 / (PASSES as f64 * raws.len() as f64),
        "ns/query",
    ));

    let layer = tr.open("render.http");
    let mut total = Duration::ZERO;
    for pass in 0..PASSES {
        total += tr
            .time("render.http", layer.0, pass, || {
                for spans in &answers {
                    black_box(http::response(
                        200,
                        "OK",
                        &http::spans_json(black_box(spans)),
                    ));
                }
            })
            .1;
    }
    tr.close(layer);
    metrics.push((
        "render.http_ns",
        total.as_nanos() as f64 / (PASSES as f64 * answers.len() as f64),
        "ns/answer",
    ));

    // --- counters over the timed phases of the workload itself -------
    let (b, a, d) = (&m.before_timed, &m.after_timed, &m.after_deltas);
    metrics.push((
        "cache.hit_ratio",
        ratio(
            a.cache_hits - b.cache_hits,
            a.cache_hits + a.cache_misses - b.cache_hits - b.cache_misses,
        ),
        "ratio",
    ));
    metrics.push((
        "cache.promoted_per_delta",
        ratio(d.promotions - b.promotions, d.deltas - b.deltas),
        "count",
    ));

    // --- the matcher, below the engine --------------------------------
    let resolve_each =
        |tr: &mut Tracer, name: &'static str, matcher: &EntityMatcher, queries: &[&str]| -> f64 {
            let layer = tr.open(name);
            let times: Vec<f64> = queries
                .iter()
                .enumerate()
                .map(|(k, q)| {
                    us(tr
                        .time(name, layer.0, k as u64, || {
                            black_box(matcher.resolve(SegmentRequest::raw(q)))
                        })
                        .1)
                })
                .collect();
            tr.close(layer);
            median(&times)
        };
    // A bare handle: no engine, no window cache. Its matcher is the cold
    // one; later the handle alone takes the compaction-stall probes.
    let bare = websyn_core::DictHandle::from_tsv(&std::fs::read_to_string(&path)?)
        .map_err(|e| bad(e.to_string()))?;
    let cold = bare.matcher();
    metrics.push((
        "matcher.cold_us",
        resolve_each(&mut tr, "matcher.cold", &cold, &raws),
        "us/query",
    ));
    drop(cold);
    // Timed during the workload (see `served_warm`): the layer span
    // covers that pass, not this point of the replay.
    let (first, last) = (m.served_warm[0].1, m.served_warm[m.served_warm.len() - 1].2);
    let layer = tr.record("matcher.warm", 0, 0, first, last);
    let warm: Vec<f64> = m
        .served_warm
        .iter()
        .map(|&(req, start, end)| {
            tr.record("matcher.warm", layer, req, start, end);
            us(end - start)
        })
        .collect();
    metrics.push(("matcher.warm_us", median(&warm), "us/query"));
    let exact = EntityMatcher::from_pairs(
        inputs
            .dict
            .surfaces
            .iter()
            .map(|s| (s.text.as_str(), EntityId::new(s.entity))),
    );
    let clean: Vec<&str> = sample
        .iter()
        .map(|&i| inputs.pool[i].clean.as_str())
        .collect();
    metrics.push((
        "matcher.exact_us",
        resolve_each(&mut tr, "matcher.exact", &exact, &clean),
        "us/query",
    ));
    drop(exact);

    let tel_a = a.telemetry;
    let tel_b = b.telemetry;
    metrics.push((
        "window_cache.hit_ratio",
        ratio(
            a.window_hits - b.window_hits,
            a.window_hits + a.window_misses - b.window_hits - b.window_misses,
        ),
        "ratio",
    ));
    let pruned = tel_a.windows_pruned - tel_b.windows_pruned;
    let resolved = tel_a.windows_resolved - tel_b.windows_resolved;
    let proposed = tel_a.candidates_proposed - tel_b.candidates_proposed;
    let verified = tel_a.candidates_verified - tel_b.candidates_verified;
    let full = tel_a.ladder_full_resolves - tel_b.ladder_full_resolves;
    metrics.push((
        "fuzzy.pruned_share",
        ratio(pruned, pruned + resolved),
        "ratio",
    ));
    metrics.push((
        "fuzzy.candidates_per_resolve",
        ratio(proposed, full),
        "count",
    ));
    metrics.push(("fuzzy.verify_yield", ratio(verified, proposed), "ratio"));
    metrics.push((
        "ladder.memo_share",
        ratio(tel_a.ladder_memo_hits - tel_b.ladder_memo_hits, resolved),
        "ratio",
    ));

    // --- the verification kernel on (window, candidate) pairs ---------
    let n = inputs.dict.surfaces.len();
    let pairs: Vec<(&str, &str)> = sample
        .iter()
        .map(|&i| &inputs.pool[i])
        .filter(|q| q.edit.is_some())
        .flat_map(|q| {
            // The planted surface, and a rival of the same brand/line.
            let rival = (q.surface + 96) % n;
            [
                (
                    q.mention.as_str(),
                    inputs.dict.surfaces[q.surface].text.as_str(),
                ),
                (
                    q.mention.as_str(),
                    inputs.dict.surfaces[rival].text.as_str(),
                ),
            ]
        })
        .collect();
    let layer = tr.open("kernel.verify");
    let mut total = Duration::ZERO;
    for pass in 0..PASSES {
        total += tr
            .time("kernel.verify", layer.0, pass, || {
                for (w, c) in &pairs {
                    black_box(websyn_text::damerau_levenshtein_within(
                        black_box(w),
                        black_box(c),
                        2,
                    ));
                }
            })
            .1;
    }
    tr.close(layer);
    metrics.push((
        "kernel.verify_ns",
        total.as_nanos() as f64 / (PASSES as f64 * pairs.len().max(1) as f64),
        "ns/pair",
    ));
    metrics.push((
        "kernel.bitpar_share",
        ratio(
            a.kernel.0 - b.kernel.0,
            a.kernel.0 + a.kernel.1 - b.kernel.0 - b.kernel.1,
        ),
        "ratio",
    ));

    // --- set-up --------------------------------------------------------
    metrics.push(("dict.load_s", median(&m.load_s) / workers, "s"));
    metrics.push(("server.start_ms", median(&m.start_s) * 1e3, "ms"));

    // --- what the server adds: paced p50 minus parse + engine ---------
    let (p50, _, p99) = paced_percentiles(&m.paced.latency_us);
    let proto: &dyn Protocol = match kind.wire() {
        Wire::Http => &HttpProtocol,
        Wire::Line => &LineProtocol,
    };
    let layer = tr.open("server.replay");
    let mut parser = proto.parser();
    let mut work = Vec::new();
    for &i in inputs.paced.iter().take(shape.layer_sample) {
        let bytes = &inputs.bytes[i as usize];
        let raw = inputs.pool[i as usize].raw.as_str();
        let ((), d) = tr.time("server.parse+engine", layer.0, i as u64, || {
            for line in bytes.split_inclusive(|&b| b == b'\n') {
                black_box(parser.on_line(line));
            }
            black_box(aux.resolve_rendered_batch(&[raw]));
        });
        work.push(us(d));
    }
    tr.close(layer);
    metrics.push(("server.residual_us", p50 - median(&work), "us"));

    // --- the router hop -------------------------------------------------
    // Without a router no hop is on the path: a structural zero, like
    // the fuzzy counters on a workload that never misses the cache.
    let hop = router_hop(&mut tr, inputs, stack)?;
    metrics.push(("router.hop_us", hop.unwrap_or(0.0), "us"));

    // --- the dictionary lifecycle on the standalone engine -------------
    let compact = websyn_core::segment::DEFAULT_AUTO_COMPACT;
    let mut next_delta = || inputs.spare_deltas.next(&mut inputs.dict).tsv;
    let layer = tr.open("dict.apply");
    let mut apply = Vec::new();
    for k in 0..compact - 1 {
        let tsv = next_delta();
        let (r, d) = tr.time("dict.apply", layer.0, k as u64, || {
            aux.apply_delta_tsv(&tsv)
        });
        r.map_err(|e| bad(e.to_string()))?;
        apply.push(d.as_secs_f64() * 1e3);
    }
    tr.close(layer);
    let apply_ms = median(&apply);
    metrics.push(("dict.apply_ms", apply_ms, "ms"));
    metrics.push((
        "router.fanout_ms",
        median(&m.ack_ms) - workers * apply_ms,
        "ms",
    ));
    let handle = aux.dict().clone();
    let ((), d) = tr.time("dict.compact", 0, 0, || handle.compact());
    metrics.push(("dict.compact_s", d.as_secs_f64(), "s"));

    drop(aux);

    // The stall probes run on the bare handle: apply deltas until the
    // chain reaches the threshold, which starts a background compaction.
    // Returns the compaction count read before that last apply, so a
    // compaction installed before the caller looks is not missed.
    let mut to_threshold = |handle: &websyn_core::DictHandle| -> std::io::Result<u64> {
        let mut apply = || -> std::io::Result<()> {
            handle.apply(DictDelta::parse_tsv(&next_delta()).map_err(|e| bad(e.to_string()))?);
            Ok(())
        };
        for _ in 0..compact - 1 {
            apply()?;
        }
        let before = handle.stats().compactions;
        apply()?;
        Ok(before)
    };
    // Reader stall: nothing but readers touch the handle until the
    // compaction is installed. Each timed step takes `matcher()` and
    // then `stats()` (which tells when the install happened), so a stall
    // shows whichever of the two read-lock acquisitions it lands in.
    let before = to_threshold(&bare)?;
    let layer = tr.open("dict.reader_stall");
    let mut worst = Duration::ZERO;
    let deadline = Instant::now() + Duration::from_secs(60);
    for k in 0.. {
        let start = Instant::now();
        drop(black_box(bare.matcher()));
        let installed = bare.stats().compactions != before;
        let end = Instant::now();
        // Millions of steps: only the ones that waited get a span.
        if end - start > Duration::from_millis(1) {
            tr.record("dict.matcher", layer.0, k, start, end);
        }
        worst = worst.max(end - start);
        if installed {
            break;
        }
        if end > deadline {
            return Err(bad("background compaction never finished".into()));
        }
    }
    tr.close(layer);
    metrics.push(("dict.reader_stall_ms", worst.as_secs_f64() * 1e3, "ms"));

    // Writer stall: one more delta 20 ms into the next compile. (Its
    // commit may make that compile stale, so nothing waits for it.)
    to_threshold(&bare)?;
    std::thread::sleep(Duration::from_millis(20));
    let delta = DictDelta::parse_tsv(&next_delta()).map_err(|e| bad(e.to_string()))?;
    let (_, d) = tr.time("dict.writer_stall", 0, 0, || bare.apply(delta));
    metrics.push(("dict.writer_stall_ms", d.as_secs_f64() * 1e3, "ms"));

    let cpu_s = (a.cpu_ticks - b.cpu_ticks) as f64 / TICKS_PER_SECOND;
    metrics.push((
        "cpu_us_per_req",
        cpu_s * 1e6 / m.timed_requests.max(1) as f64,
        "us",
    ));
    metrics.push(("match_p99_us", p99, "us"));

    write_trace(out_dir, name, &tr, m, &metrics)?;
    Ok(metrics)
}

/// The workload's own requests: the first distinct queries of its
/// timed log (saturated then paced), in log order.
fn sample(shape: &Shape, inputs: &Inputs) -> Vec<usize> {
    let mut seen = HashSet::new();
    inputs
        .saturated
        .iter()
        .chain(&inputs.paced)
        .map(|&i| i as usize)
        .filter(|&i| seen.insert(i))
        .take(shape.layer_sample)
        .collect()
}

/// A timed call: the request (pool index), its start and its end.
pub type Timed = (u64, Instant, Instant);

/// `EntityMatcher::resolve` of the layer sample on the served matchers,
/// each query on the worker the ring homes it to, whose window cache
/// the workload's reads warmed. Runs in traced runs only, right after
/// the timed reads.
pub fn served_warm(shape: &Shape, inputs: &Inputs, stack: &Stack) -> Vec<Timed> {
    let served: Vec<Arc<EntityMatcher>> = stack.engines.iter().map(|e| e.matcher()).collect();
    sample(shape, inputs)
        .into_iter()
        .map(|i| {
            let q = inputs.pool[i].raw.as_str();
            let matcher = &served[(query_hash(q) % served.len() as u64) as usize];
            let start = Instant::now();
            black_box(matcher.resolve(SegmentRequest::raw(q)));
            (i as u64, start, Instant::now())
        })
        .collect()
}

/// The body of a pre-rendered HTTP response.
fn http_body(response: &str) -> &str {
    response.split_once("\r\n\r\n").map_or(response, |(_, b)| b)
}

/// Paced p50 of warm queries through the router minus straight to the
/// worker that serves them (worker 0: only queries the ring homes there
/// are sent, so two connections suffice). `None` when the workload has
/// no router.
fn router_hop(tr: &mut Tracer, inputs: &Inputs, stack: &Stack) -> std::io::Result<Option<f64>> {
    let Some(router) = &stack.router else {
        return Ok(None);
    };
    let (direct, via, slots) = (stack.servers[0].addr(), router.addr(), router.ring().len());
    let head: Vec<usize> = (0..inputs.pool.len())
        .filter(|&i| query_hash(&inputs.pool[i].raw).is_multiple_of(slots as u64))
        .take(100)
        .collect();
    let bytes: Vec<Vec<u8>> = inputs
        .pool
        .iter()
        .map(|q| match_request(Wire::Http, &q.raw))
        .collect();
    let expected: Vec<Option<String>> = inputs.truth.iter().map(|t| t.render(Wire::Http)).collect();
    let reqs = Requests {
        bytes: &bytes,
        truth: &inputs.truth,
        expected: &expected,
    };
    let mut direct_conn = Conn::connect(direct, Wire::Http)?;
    let mut router_conn = Conn::connect(via, Wire::Http)?;
    let once = |conn: &mut Conn, i: usize| -> std::io::Result<Duration> {
        let t = Instant::now();
        let (status, body) = conn.exchange(&reqs.bytes[i])?;
        let d = t.elapsed();
        let truth: &Truth = &reqs.truth[i];
        if status != 200 {
            return Err(bad(format!("status {status}")));
        }
        check(truth, reqs.expected[i].as_deref(), &body, Wire::Http).map_err(bad)?;
        Ok(d)
    };
    // Warm the worker's cache with these queries, through the router.
    for &i in &head {
        once(&mut router_conn, i)?;
    }
    let layer = tr.open("router.hop");
    let (mut via_us, mut direct_us) = (Vec::new(), Vec::new());
    // Direct and routed requests alternate, so drift hits both alike.
    for _ in 0..10 {
        for &i in &head {
            let start = Instant::now();
            let d = once(&mut direct_conn, i)?;
            tr.record("direct", layer.0, i as u64, start, start + d);
            direct_us.push(us(d));
            let start = Instant::now();
            let d = once(&mut router_conn, i)?;
            tr.record("via_router", layer.0, i as u64, start, start + d);
            via_us.push(us(d));
        }
    }
    tr.close(layer);
    Ok(Some(median(&via_us) - median(&direct_us)))
}

fn write_trace(
    out_dir: &Path,
    name: &str,
    tr: &Tracer,
    m: &Measured,
    metrics: &[Metric],
) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir)?;
    let path = out_dir.join(format!("trace-{name}.json"));
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    let (p50, p90, p99) = paced_percentiles(&m.paced.latency_us);
    writeln!(w, "{{\"workload\": \"{name}\",")?;
    writeln!(
        w,
        "\"end_to_end\": {{\"setup_s\": {:?}, \"match_qps\": {}, \"match_p50_us\": {p50}, \"match_p90_us\": {p90}, \"match_p99_us\": {p99}, \"delta_ack_ms\": {:?}}},",
        m.setup_s, m.match_qps, m.ack_ms
    )?;
    let snap = |c: &Counters| {
        format!(
            "{{\"cache_hits\": {}, \"cache_misses\": {}, \"promotions\": {}, \"window_hits\": {}, \"window_misses\": {}, \"deltas\": {}, \"windows_resolved\": {}, \"windows_pruned\": {}, \"memo_hits\": {}, \"window_cache_rung\": {}, \"full_resolves\": {}, \"proposed\": {}, \"verified\": {}, \"bitpar\": {}, \"banded\": {}, \"cpu_ticks\": {}}}",
            c.cache_hits, c.cache_misses, c.promotions, c.window_hits, c.window_misses, c.deltas,
            c.telemetry.windows_resolved, c.telemetry.windows_pruned, c.telemetry.ladder_memo_hits,
            c.telemetry.ladder_cache_hits, c.telemetry.ladder_full_resolves, c.telemetry.candidates_proposed,
            c.telemetry.candidates_verified, c.kernel.0, c.kernel.1, c.cpu_ticks
        )
    };
    writeln!(
        w,
        "\"snapshots\": {{\"before_timed\": {}, \"after_timed\": {}, \"after_deltas\": {}}},",
        snap(&m.before_timed),
        snap(&m.after_timed),
        snap(&m.after_deltas)
    )?;
    let phases: Vec<String> = m
        .phases
        .iter()
        .map(|(n, a, b)| format!("{{\"name\": \"{n}\", \"start_s\": {a}, \"end_s\": {b}}}"))
        .collect();
    writeln!(w, "\"phases\": [{}],", phases.join(", "))?;
    let ms: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": [{v}, \"{u}\"]"))
        .collect();
    writeln!(w, "\"per_layer\": {{{}}},", ms.join(", "))?;
    // Client spans of the timed phases, one per request, then the
    // layer spans of the replay.
    writeln!(w, "\"request_spans\": [")?;
    let mut first = true;
    for (phase, outcome) in [("saturated", &m.saturated), ("paced", &m.paced)] {
        for (k, (lat, done)) in outcome.latency_us.iter().zip(&outcome.done_at).enumerate() {
            let sep = if first { "" } else { ",\n" };
            first = false;
            write!(
                w,
                "{sep}[\"{phase}\", {k}, {:.1}, {:.1}]",
                done * 1e6 - lat,
                done * 1e6
            )?;
        }
    }
    writeln!(w, "],\n\"layer_spans\": [")?;
    for (k, s) in tr.spans.iter().enumerate() {
        let sep = if k == 0 { "" } else { ",\n" };
        write!(
            w,
            "{sep}[{}, {}, \"{}\", {}, {}, {}]",
            s.id, s.parent, s.name, s.req, s.start_ns, s.end_ns
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}
