//! `serve_query`: a `tucker_serve` daemon on loopback with three artifacts
//! (TJLR at scale 2 in `F64` and `Q16`, HCCI at scale 2 in `F64`, all at
//! ε = 1e-3) behind a shared chunk cache of half the chunk inventory, driven
//! by 2 closed-loop connections sending a seeded mix of analyst queries.
//! `op_s` is the median session: one deck of the mix, 60 queries, answered
//! on one connection.
//!
//! Every answer is fingerprinted during the timed window and compared bit for
//! bit with a direct eager reader after it, so the reference costs nothing
//! inside the window.

use crate::input::{generate, permute_modes, Rng};
use crate::report::{median, nearest_rank, Report};
use crate::sys::{peak_rss_mb, Fnv, WorkDir};
use crate::trace::Tracer;
use crate::{Args, EPS, SETUPS};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tucker_api::{Compressor, Open, Reader, TensorQuery, TuckerError};
use tucker_exec::ExecContext;
use tucker_scidata::DatasetPreset;
use tucker_serve::{serve, Response, ServeClient, ServeConfig};
use tucker_store::{try_write_tucker_ctx, Codec, SharedChunkCache, StoreOptions, TkrReader};
use tucker_tensor::DenseTensor;

/// Spatial scale of both surrogates.
const SCALE: usize = 2;
/// Closed-loop connections.
const CLIENTS: usize = 2;
/// Points per `elements` query.
const BATCH: usize = 16;
/// Untimed queries per connection before the window opens.
const WARMUP: usize = 25;
/// Fewest sessions of an untraced window (about 12 per connection fit in
/// 15 s on a 2-vCPU host).
const MIN_SESSIONS: usize = 4;
/// Queries of the traced window replayed on in-process lazy readers.
const REPLAYED: usize = 300;

/// The analyst queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Element,
    Elements,
    Series,
    Plane,
    Slice,
}

const OPS: [Op; 5] = [Op::Element, Op::Elements, Op::Series, Op::Plane, Op::Slice];

/// The mix, as query counts per 20 queries of one artifact: 40% `element`,
/// 20% `elements`, 20% `series`, 15% `plane`, 5% `slice`. The proportions
/// are an assumption, not a measured or published workload: the mix of
/// `table6_service` (itself without a source) re-split over analyst queries.
const MIX: [(Op, usize); 5] = [
    (Op::Element, 8),
    (Op::Elements, 4),
    (Op::Series, 4),
    (Op::Plane, 3),
    (Op::Slice, 1),
];

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::Element => "element",
            Op::Elements => "elements",
            Op::Series => "series",
            Op::Plane => "plane",
            Op::Slice => "slice",
        }
    }
}

/// A served artifact. Its modes are the spatial grid, then variables, then
/// time.
struct Artifact {
    name: &'static str,
    path: PathBuf,
    dims: Vec<usize>,
}

impl Artifact {
    fn var_mode(&self) -> usize {
        self.dims.len() - 2
    }

    fn time_mode(&self) -> usize {
        self.dims.len() - 1
    }
}

/// One query against artifact `art`.
#[derive(Debug, Clone)]
enum Query {
    Element {
        art: usize,
        idx: Vec<usize>,
    },
    Elements {
        art: usize,
        points: Vec<Vec<usize>>,
    },
    Range {
        op: Op,
        art: usize,
        ranges: Vec<(usize, usize)>,
    },
    Slice {
        art: usize,
        mode: usize,
        index: usize,
    },
}

impl Query {
    fn op(&self) -> Op {
        match self {
            Query::Element { .. } => Op::Element,
            Query::Elements { .. } => Op::Elements,
            Query::Range { op, .. } => *op,
            Query::Slice { .. } => Op::Slice,
        }
    }

    fn art(&self) -> usize {
        match self {
            Query::Element { art, .. }
            | Query::Elements { art, .. }
            | Query::Range { art, .. }
            | Query::Slice { art, .. } => *art,
        }
    }

    /// A query of kind `op` on artifact `art` at seeded positions.
    fn new(rng: &mut Rng, arts: &[Artifact], art: usize, op: Op) -> Query {
        let a = &arts[art];
        let point = |rng: &mut Rng| a.dims.iter().map(|&d| rng.below(d)).collect::<Vec<_>>();
        let spatial = a.var_mode();
        match op {
            Op::Element => Query::Element {
                art,
                idx: point(rng),
            },
            Op::Elements => Query::Elements {
                art,
                points: (0..BATCH).map(|_| point(rng)).collect(),
            },
            // All variables and timesteps at one spatial point.
            Op::Series => Query::Range {
                op,
                art,
                ranges: (0..a.dims.len())
                    .map(|m| {
                        if m < spatial {
                            (rng.below(a.dims[m]), 1)
                        } else {
                            (0, a.dims[m])
                        }
                    })
                    .collect(),
            },
            // The two leading spatial modes at one variable and one timestep
            // (and one depth for a 3-D grid).
            Op::Plane => Query::Range {
                op,
                art,
                ranges: (0..a.dims.len())
                    .map(|m| {
                        if m < 2 {
                            (0, a.dims[m])
                        } else {
                            (rng.below(a.dims[m]), 1)
                        }
                    })
                    .collect(),
            },
            // One full timestep.
            Op::Slice => Query::Slice {
                art,
                mode: a.time_mode(),
                index: rng.below(a.dims[a.time_mode()]),
            },
        }
    }
}

/// One connection's seeded query sequence. It deals from a shuffled deck
/// holding the mix once per artifact, so every 60 queries carry the mix
/// exactly: query latencies cluster by artifact and kind, and a mix that
/// drifted from run to run would move the percentiles between clusters.
struct QueryStream {
    rng: Rng,
    deck: Vec<(usize, Op)>,
}

impl QueryStream {
    fn new(seed: u64) -> QueryStream {
        QueryStream {
            rng: Rng::new(seed),
            deck: Vec::new(),
        }
    }

    fn next(&mut self, arts: &[Artifact]) -> Query {
        if self.deck.is_empty() {
            for art in 0..arts.len() {
                for (op, n) in MIX {
                    self.deck.extend(std::iter::repeat_n((art, op), n));
                }
            }
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.below(i + 1);
                self.deck.swap(i, j);
            }
        }
        let (art, op) = self.deck.pop().expect("the deck was just filled");
        Query::new(&mut self.rng, arts, art, op)
    }
}

/// An answer's fingerprint, and the size of the response frame that
/// carries it (the 4-byte length prefix plus the encoded payload).
type Answer = (u64, usize);

/// A reply as the caller receives it.
enum Reply {
    Scalar(f64),
    Vector(Vec<f64>),
    Tensor(DenseTensor),
}

impl Reply {
    fn answer(&self) -> Answer {
        let mut h = Fnv::new();
        let (empty, values) = match self {
            Reply::Scalar(v) => {
                h.f64s(&[*v]);
                (Response::Scalar(0.0), 0)
            }
            Reply::Vector(v) => {
                h.f64s(v);
                (Response::Vector(Vec::new()), v.len())
            }
            Reply::Tensor(t) => {
                for &d in t.dims() {
                    h.word(d as u64);
                }
                h.f64s(t.as_slice());
                let dims = t.dims().iter().map(|&d| d as u64).collect();
                (
                    Response::Tensor {
                        dims,
                        data: Vec::new(),
                    },
                    t.len(),
                )
            }
        };
        (h.finish(), 4 + empty.encode().len() + 8 * values)
    }
}

fn point_refs(points: &[Vec<usize>]) -> Vec<&[usize]> {
    points.iter().map(Vec::as_slice).collect()
}

/// The query over the wire.
fn over_wire(c: &mut ServeClient, arts: &[Artifact], q: &Query) -> Result<Reply, TuckerError> {
    let name = arts[q.art()].name;
    Ok(match q {
        Query::Element { idx, .. } => Reply::Scalar(c.element(name, idx)?),
        Query::Elements { points, .. } => Reply::Vector(c.elements(name, &point_refs(points))?),
        Query::Range { ranges, .. } => Reply::Tensor(c.reconstruct_range(name, ranges)?),
        Query::Slice { mode, index, .. } => {
            Reply::Tensor(c.reconstruct_slice(name, *mode, *index)?)
        }
    })
}

/// The query on an in-process reader. `per_point` answers `elements` one
/// point at a time — on an eager reader that is the walk a lazy reader's
/// batch matches bit for bit.
fn direct(r: &impl TensorQuery, q: &Query, per_point: bool) -> Result<Reply, TuckerError> {
    Ok(match q {
        Query::Element { idx, .. } => Reply::Scalar(r.element(idx)?),
        Query::Elements { points, .. } if per_point => Reply::Vector(
            points
                .iter()
                .map(|p| r.element(p))
                .collect::<Result<Vec<_>, _>>()?,
        ),
        Query::Elements { points, .. } => Reply::Vector(r.elements(&point_refs(points))?),
        Query::Range { ranges, .. } => Reply::Tensor(r.reconstruct_range(ranges)?),
        Query::Slice { mode, index, .. } => Reply::Tensor(r.reconstruct_slice(*mode, *index)?),
    })
}

/// One answered (or failed) query of a window.
struct Done {
    query: Query,
    latency_s: f64,
    answer: Result<Answer, TuckerError>,
}

/// What one timed window produced.
struct Window {
    done: Vec<Done>,
    /// Wall seconds of every session (one full deck of the mix on one
    /// connection) that started and ended inside the window.
    sessions: Vec<f64>,
}

/// Drives every connection in a closed loop until `deadline`; each
/// connection's tracer gets one span per query when enabled.
fn window(
    clients: &mut [ServeClient],
    streams: &mut [QueryStream],
    tracers: &mut [Tracer],
    arts: &[Artifact],
    deadline: Instant,
    first_id: u64,
) -> Window {
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(streams.iter_mut())
            .zip(tracers.iter_mut())
            .enumerate()
            .map(|(c, ((client, stream), tr))| {
                s.spawn(move || {
                    let mut done = Vec::new();
                    let mut sessions = Vec::new();
                    let mut session: Option<Instant> = None;
                    while Instant::now() < deadline {
                        if stream.deck.is_empty() {
                            // The previous deck's last reply is in.
                            if let Some(start) = session {
                                sessions.push(start.elapsed().as_secs_f64());
                            }
                            session = Some(Instant::now());
                        }
                        let query = stream.next(arts);
                        tr.set_id(first_id + ((done.len() as u64) << 8) + c as u64);
                        let name = format!("serve.{}", query.op().name());
                        let t = Instant::now();
                        let reply = tr.span(&name, None, |_| over_wire(client, arts, &query));
                        let latency_s = t.elapsed().as_secs_f64();
                        done.push(Done {
                            query,
                            latency_s,
                            answer: reply.map(|r| r.answer()),
                        });
                    }
                    if let (true, Some(start)) = (stream.deck.is_empty(), session) {
                        // The window closed on a session's last reply.
                        sessions.push(start.elapsed().as_secs_f64());
                    }
                    (done, sessions)
                })
            })
            .collect();
        let mut all = Window {
            done: Vec::new(),
            sessions: Vec::new(),
        };
        for h in handles {
            let (done, sessions) = h.join().expect("a client thread panicked");
            all.done.extend(done);
            all.sessions.extend(sessions);
        }
        all
    })
}

/// Everything set-up builds.
struct Setup {
    arts: Vec<Artifact>,
    cache_chunks: usize,
    /// Seconds spent permuting the surrogates' modes: the benchmark's own
    /// work, which the caller takes out of `setup_s`.
    permute_s: f64,
}

fn set_up(args: &Args, work: &WorkDir) -> Result<Setup, String> {
    let ctx = ExecContext::global();
    let mut permute_s = 0.0;
    let mut input = |preset: DatasetPreset| {
        let raw = generate(preset, SCALE);
        let t = Instant::now();
        let x = permute_modes(&raw, args.seed);
        permute_s += t.elapsed().as_secs_f64();
        x
    };
    let tjlr = input(DatasetPreset::Tjlr);
    let tj = Compressor::new(&tjlr)
        .tolerance(EPS)
        .run()
        .map_err(|e| format!("compress TJLR: {e}"))?;
    let mut arts = Vec::new();
    for (name, codec) in [("tjlr_f64", Codec::F64), ("tjlr_q16", Codec::Q16)] {
        let path = work.file(&format!("{name}.tkr"));
        try_write_tucker_ctx(&path, tj.tucker(), &StoreOptions::new(codec, EPS), ctx)
            .map_err(|e| format!("write {name}: {e}"))?;
        arts.push(Artifact {
            name,
            path,
            dims: tjlr.dims().to_vec(),
        });
    }
    drop(tjlr);
    let hcci = input(DatasetPreset::Hcci);
    let path = work.file("hcci_f64.tkr");
    Compressor::new(&hcci)
        .tolerance(EPS)
        .write_to(&path)
        .map_err(|e| format!("compress HCCI: {e}"))?;
    arts.push(Artifact {
        name: "hcci_f64",
        path,
        dims: hcci.dims().to_vec(),
    });
    let mut chunks = 0;
    for a in &arts {
        chunks += TkrReader::open(&a.path)
            .map_err(|e| format!("open {}: {e}", a.name))?
            .chunk_count();
    }
    // Half the inventory, rounded up: 11 of 21 chunks on these surrogates.
    // Rounding down would give 10, exactly one TJLR artifact's chunks, where
    // an element query (which walks every chunk) flips between all hits and
    // all misses on whether one other chunk was touched in between.
    Ok(Setup {
        arts,
        cache_chunks: chunks.div_ceil(2),
        permute_s,
    })
}

/// What is wrong with one answer, compared with a direct eager reader.
fn verdict(d: &Done, eager: &[Result<Reader, TuckerError>]) -> Option<String> {
    let op = d.query.op().name();
    let reference = match &eager[d.query.art()] {
        Ok(r) => direct(r, &d.query, true).map(|r| r.answer()),
        Err(e) => return Some(format!("open a direct reader: {e}")),
    };
    match (&d.answer, reference) {
        (Ok(a), Ok(r)) if *a == r => None,
        (Ok(_), Ok(_)) => Some(format!("{op} answer differs from the direct reader")),
        (Err(e), _) => Some(format!("{op} failed: {e}")),
        (_, Err(e)) => Some(format!("direct {op} failed: {e}")),
    }
}

/// Bit-compares every answer with a direct eager reader, on every core.
fn verify(rep: &mut Report, answered: &[&Done], eager: &[Result<Reader, TuckerError>]) {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let per_thread = answered.len().div_ceil(threads).max(1);
    let verdicts: Vec<Option<String>> = std::thread::scope(|s| {
        let handles: Vec<_> = answered
            .chunks(per_thread)
            .map(|part| s.spawn(move || part.iter().map(|d| verdict(d, eager)).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a verification thread panicked"))
            .collect()
    });
    for v in verdicts {
        rep.attempt(1);
        if let Some(why) = v {
            rep.fail(why);
        }
    }
}

fn p50_ms(latencies: &[f64]) -> f64 {
    nearest_rank(latencies, 0.5).unwrap_or(f64::NAN) * 1e3
}

pub fn run(args: &Args) -> Report {
    let mut rep = Report::new();
    let work = WorkDir::create("serve").expect("create the work directory");
    // Data, compression and artifacts, set up several times (the last one
    // is served); then the daemon and the warm-up, once.
    let mut setups = Vec::new();
    let mut permutes = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let s = set_up(args, &work);
        let permute_s = s.as_ref().map_or(0.0, |s| s.permute_s);
        setups.push(t.elapsed().as_secs_f64() - permute_s);
        permutes.push(permute_s);
        built = Some(s);
    }
    rep.note("bench.permute_s", median(&permutes), "s");
    let t = Instant::now();
    let Setup {
        arts, cache_chunks, ..
    } = match built.expect("at least one set-up") {
        Ok(s) => s,
        Err(e) => {
            rep.fail(e);
            return rep;
        }
    };
    let registry: Vec<(String, PathBuf)> = arts
        .iter()
        .map(|a| (a.name.to_string(), a.path.clone()))
        .collect();
    let config = ServeConfig {
        cache_chunks,
        ..ServeConfig::default()
    };
    let handle = match serve("127.0.0.1:0", &registry, config) {
        Ok(h) => h,
        Err(e) => {
            rep.fail(format!("start the daemon: {e}"));
            return rep;
        }
    };
    let mut clients = Vec::new();
    for _ in 0..CLIENTS {
        match ServeClient::connect(handle.addr()) {
            Ok(c) => clients.push(c),
            Err(e) => rep.fail(format!("connect: {e}")),
        }
    }
    let stream = |c: u64| QueryStream::new(args.seed.wrapping_mul(0x100_0000_01B3) ^ c);
    let mut streams: Vec<QueryStream> = (1..=CLIENTS as u64).map(stream).collect();
    // Warm-up: open every artifact and run a few queries (from streams of
    // their own) untimed.
    for (c, client) in clients.iter_mut().enumerate() {
        let mut warm = stream(!(c as u64));
        for a in &arts {
            if let Err(e) = client.open(a.name) {
                rep.fail(format!("open {}: {e}", a.name));
            }
        }
        for _ in 0..WARMUP {
            let q = warm.next(&arts);
            if let Err(e) = over_wire(client, &arts, &q) {
                rep.fail(format!("warm-up {}: {e}", q.op().name()));
            }
        }
    }
    let setup_s = median(&setups) + t.elapsed().as_secs_f64();
    if clients.len() < CLIENTS {
        handle.shutdown();
        return rep;
    }

    // The timed window; a traced run splits it into an untraced and a traced half.
    let mut tracers: Vec<Tracer> = (0..CLIENTS).map(|_| Tracer::new(false)).collect();
    let plain_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let t = Instant::now();
    let plain = window(
        &mut clients,
        &mut streams,
        &mut tracers,
        &arts,
        t + Duration::from_secs_f64(plain_s),
        0,
    );
    let plain_elapsed = t.elapsed().as_secs_f64();
    let Window {
        done: plain,
        sessions,
    } = plain;
    let mut traced = Vec::new();
    if args.trace {
        tracers = (0..CLIENTS).map(|_| Tracer::new(true)).collect();
        let deadline = Instant::now() + Duration::from_secs_f64(args.seconds - plain_s);
        traced = window(
            &mut clients,
            &mut streams,
            &mut tracers,
            &arts,
            deadline,
            1 << 40,
        )
        .done;
    }

    // The daemon's and the clients' memory, before the reference checks.
    let peak_mb = peak_rss_mb();
    // Server counters, read once after the window.
    let (hits, decoded) = handle
        .cache()
        .artifacts()
        .iter()
        .fold((0, 0), |(h, d), (_, s)| {
            (h + s.cache_hits, d + s.decoded_chunks)
        });
    drop(clients);
    let stats = handle.shutdown();

    // Bit-compare every answer with a direct eager reader.
    let t = Instant::now();
    let eager: Vec<_> = arts.iter().map(|a| Open::eager().open(&a.path)).collect();
    let decode_s = t.elapsed().as_secs_f64();
    let file_bytes: u64 = arts
        .iter()
        .map(|a| std::fs::metadata(&a.path).map_or(0, |m| m.len()))
        .sum();
    let answered: Vec<&Done> = plain.iter().chain(&traced).collect();
    verify(&mut rep, &answered, &eager);

    let qps = plain.len() as f64 / plain_elapsed;
    if !args.trace {
        let lat: Vec<f64> = plain.iter().map(|d| d.latency_s).collect();
        rep.metric("setup_s", setup_s, "s");
        // `op_s`: the median analyst session, one deck of the mix (60
        // queries) on one connection. A median over sessions holds where the
        // window's mean rate follows a slow spell of the host.
        rep.metric("op_s", median(&sessions), "s");
        rep.check(sessions.len() >= MIN_SESSIONS, || {
            format!("only {} sessions ended inside the window", sessions.len())
        });
        rep.note("query_qps", qps, "1/s");
        // Printed, not gated. The median falls at the edge of the TJLR
        // element-query cluster, where a query either finds every chunk
        // cached or decodes them all; the p99 sits in the slice tail, which
        // moved with the host's load within one ten-run pass. Over ten seeds
        // on a 2-vCPU host their IQR/median reached 0.26 and 0.29.
        rep.note("query_p50_ms", p50_ms(&lat), "ms");
        rep.note(
            "query_p99_ms",
            nearest_rank(&lat, 0.99).unwrap_or(f64::NAN) * 1e3,
            "ms",
        );
        rep.metric("peak_rss_mb", peak_mb, "MB");
        return rep;
    }

    // The traced half's queries again on in-process lazy readers (no
    // socket) sharing a cache of the daemon's budget.
    let cache = SharedChunkCache::new(cache_chunks, ServeConfig::default().cache_stripes);
    let lazy: Vec<_> = arts
        .iter()
        .map(|a| Open::lazy().shared_cache(&cache, a.name).open(&a.path))
        .collect();
    let mut store_tr = Tracer::new(true);
    let mut overheads = Vec::new();
    for (i, d) in traced.iter().take(REPLAYED).enumerate() {
        let Ok(reader) = &lazy[d.query.art()] else {
            rep.fail("open a lazy reader".to_string());
            break;
        };
        store_tr.set_id((1 << 41) + i as u64);
        let name = format!("store.query.{}", d.query.op().name());
        let t = Instant::now();
        let reply = store_tr.span(&name, None, |_| direct(reader, &d.query, false));
        overheads.push(d.latency_s - t.elapsed().as_secs_f64());
        let answer = reply.map(|r| r.answer());
        rep.check(
            matches!((&answer, &d.answer), (Ok(a), Ok(b)) if a == b),
            || {
                format!(
                    "lazy {} differs from the daemon's answer",
                    d.query.op().name()
                )
            },
        );
    }

    let mut all = Tracer::new(true);
    for tr in tracers {
        all.absorb(tr.spans().to_vec());
    }
    all.absorb(store_tr.spans().to_vec());
    let spans = all.spans();
    let durations = |prefix: &str, op: Op| -> Vec<f64> {
        let name = format!("{prefix}.{}", op.name());
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration())
            .collect()
    };
    for op in OPS {
        rep.metric(
            format!("store.query.{}.p50_ms", op.name()),
            p50_ms(&durations("store.query", op)),
            "ms",
        );
        rep.metric(
            format!("serve.{}.p50_ms", op.name()),
            p50_ms(&durations("serve", op)),
            "ms",
        );
    }
    let lat: Vec<f64> = plain.iter().chain(&traced).map(|d| d.latency_s).collect();
    rep.metric("query_qps", qps, "1/s");
    rep.metric("query_p50_ms", p50_ms(&lat), "ms");
    rep.metric(
        "query_p99_ms",
        nearest_rank(&lat, 0.99).unwrap_or(f64::NAN) * 1e3,
        "ms",
    );
    // Each replayed query's latency over the wire minus its direct latency.
    rep.metric("serve.overhead_ms", p50_ms(&overheads), "ms");
    rep.metric(
        "serve.busy_rejections",
        stats.busy_rejections as f64,
        "count",
    );
    rep.metric(
        "serve.protocol_errors",
        stats.protocol_errors as f64,
        "count",
    );
    let frames: Vec<f64> = plain
        .iter()
        .chain(&traced)
        .filter_map(|d| d.answer.as_ref().ok().map(|&(_, n)| n as f64))
        .collect();
    rep.metric(
        "serve.response_bytes",
        frames.iter().sum::<f64>() / frames.len().max(1) as f64,
        "bytes",
    );
    rep.metric(
        "store.cache.hit_ratio",
        hits as f64 / (hits + decoded).max(1) as f64,
        "frac",
    );
    rep.metric("store.cache.decoded_chunks", decoded as f64, "count");
    rep.metric(
        "store.decode_mbps",
        file_bytes as f64 / decode_s / 1e6,
        "MB/s",
    );
    let raw: f64 = arts
        .iter()
        .map(|a| 8.0 * a.dims.iter().map(|&d| d as f64).product::<f64>())
        .sum();
    rep.metric("compression_ratio", raw / file_bytes.max(1) as f64, "ratio");
    let mean = |v: &[Done]| v.iter().map(|d| d.latency_s).sum::<f64>() / v.len().max(1) as f64;
    rep.metric(
        "bench.trace_overhead_frac",
        (mean(&traced) - mean(&plain)) / mean(&plain),
        "frac",
    );
    crate::write_trace(args, spans);
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_sixty_queries_carry_the_mix_exactly() {
        let arts: Vec<Artifact> = [vec![6, 5, 4, 3, 2], vec![4, 4, 3, 2]]
            .into_iter()
            .map(|dims| Artifact {
                name: "a",
                path: PathBuf::new(),
                dims,
            })
            .collect();
        let mut stream = QueryStream::new(5);
        for _ in 0..3 {
            let mut counts = std::collections::HashMap::new();
            for _ in 0..20 * arts.len() {
                let q = stream.next(&arts);
                *counts.entry((q.art(), q.op().name())).or_insert(0) += 1;
            }
            for art in 0..arts.len() {
                for (op, n) in MIX {
                    assert_eq!(counts[&(art, op.name())], n);
                }
            }
        }
    }
}
