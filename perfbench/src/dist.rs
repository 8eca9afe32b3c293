//! `dist_tcp`: the HCCI surrogate at scale 3 compressed at ε = 1e-3 by the
//! distributed ST-HOSVD on 2 spawned TCP ranks over grid [2,1,1,1], one
//! thread per rank; rank 0 gathers and writes the artifact.
//!
//! The spawned rank re-runs this program with the same arguments, so it
//! reaches the same `spmd_transport` calls in the same order: spawn, ready,
//! (ping-pong), warm-up, the timed regions, (the traced replay). Whether
//! another timed region follows is decided by rank 0 and read by every
//! process from the region's result table. Only rank 0 reports.

use crate::input::{generate, permute_modes};
use crate::report::{median, Report};
use crate::sys::{peak_rss_mb, wait_for_exit, WorkDir};
use crate::trace::{Rollup, Span, Tracer};
use crate::{Args, EPS, SETUPS};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tucker_api::Compressor;
use tucker_core::dist::{
    dist_st_hosvd_ctx, parallel_evecs, parallel_gram_ctx, parallel_ttm_ctx, DistTensor, DistTucker,
};
use tucker_core::{ModeOrder, RankSelection, SthosvdOptions};
use tucker_distmem::{Communicator, CostModel, MachineParams, ProcGrid};
use tucker_exec::ExecContext;
use tucker_net::{in_worker, try_spmd_transport, TransportKind};
use tucker_scidata::DatasetPreset;
use tucker_store::{try_write_tucker_ctx, Codec, StoreOptions};
use tucker_tensor::{DenseTensor, TtmTranspose};

/// Spatial scale of the HCCI surrogate (144×144×16×40).
const SCALE: usize = 3;
/// The processor grid: the first spatial mode split over 2 ranks.
const GRID: [usize; 4] = [2, 1, 1, 1];
/// Fewest timed regions, however short `--seconds` is.
const MIN_REGIONS: usize = 4;
/// Fewest timed regions of a traced run.
const MIN_REGIONS_TRACED: usize = 3;
/// Ping-pong repetitions for α (1 word) and β (2^20 words).
const SMALL_REPS: usize = 200;
const LARGE_REPS: usize = 6;
const LARGE_WORDS: usize = 1 << 20;

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// A region failure is the run's failure: it is recorded, and the run stops.
macro_rules! region {
    ($rep:expr, $kind:expr, $name:expr, $argv:expr, $f:expr) => {
        match try_spmd_transport($kind, $name, ProcGrid::new(&GRID), $argv, $f) {
            Ok(h) => h,
            Err(e) => {
                $rep.fail(format!("region {} failed: {e}", $name));
                return None;
            }
        }
    };
}

/// One distributed compression: scatter, ST-HOSVD, gather and write on
/// rank 0. Returns (bytes written on rank 0, rank 0's verdict on whether
/// another timed region follows, the ranks chosen).
fn compress_region<'a>(
    x: &'a DenseTensor,
    path: &Path,
    deadline: Instant,
) -> impl Fn(Communicator) -> (u64, bool, Vec<usize>) + Send + Sync + 'a {
    let path = path.to_path_buf();
    move |comm: Communicator| {
        let ctx = ExecContext::global().with_budget(1);
        let dx = DistTensor::from_global(&comm, x);
        let r = dist_st_hosvd_ctx(&comm, &dx, &SthosvdOptions::with_tolerance(EPS), &ctx);
        let bytes = match r.tucker.gather_to_root(&comm) {
            Some(t) => try_write_tucker_ctx(&path, &t, &StoreOptions::new(Codec::F64, EPS), &ctx)
                .map_or(0, |e| e.bytes),
            None => 0,
        };
        (bytes, Instant::now() < deadline, r.ranks)
    }
}

/// A span as it crosses the wire: (name, (start, end), (parent + 1, mode + 1), id).
type WireSpan = (String, (f64, f64), (u64, u64), u64);

fn to_wire(spans: &[Span]) -> Vec<WireSpan> {
    spans
        .iter()
        .map(|s| {
            (
                s.name.clone(),
                (s.start, s.end),
                (
                    s.parent.map_or(0, |p| p as u64 + 1),
                    s.mode.map_or(0, |m| m as u64 + 1),
                ),
                s.id,
            )
        })
        .collect()
}

fn from_wire(spans: &[WireSpan]) -> Vec<Span> {
    spans
        .iter()
        .map(|(name, (start, end), (parent, mode), id)| Span {
            name: name.clone(),
            mode: mode.checked_sub(1).map(|m| m as usize),
            start: *start,
            end: *end,
            parent: parent.checked_sub(1).map(|p| p as usize),
            id: *id,
        })
        .collect()
}

/// The distributed ST-HOSVD replayed through `parallel_gram`,
/// `parallel_evecs` and `parallel_ttm`, each call in a span, then gathered
/// and written on rank 0. Returns this rank's spans and the bytes written.
fn replay_region<'a>(
    x: &'a DenseTensor,
    path: &Path,
) -> impl Fn(Communicator) -> (Vec<WireSpan>, u64) + Send + Sync + 'a {
    let path = path.to_path_buf();
    move |comm: Communicator| {
        let ctx = ExecContext::global().with_budget(1);
        let mut tr = Tracer::new(true);
        tr.set_id(comm.rank() as u64);
        let bytes = tr.span("core.dist.sthosvd", None, |tr| {
            let dx = tr.span("core.dist.scatter", None, |_| {
                DistTensor::from_global(&comm, x)
            });
            let nmodes = dx.global_dims().len();
            let norm_x_sq = dx.global_norm_sq(&comm);
            let sel = RankSelection::Tolerance(EPS);
            let order = ModeOrder::Natural.resolve(dx.global_dims(), dx.global_dims());
            let mut y = dx.clone();
            let mut factors = vec![None; nmodes];
            for &n in &order {
                let s_block = tr.span("core.dist.gram", Some(n), |_| {
                    parallel_gram_ctx(&comm, &y, n, &ctx)
                });
                let eig = tr.span("core.dist.evecs", Some(n), |_| {
                    parallel_evecs(&comm, &y, n, &s_block)
                });
                let r = sel.select(n, &eig.values, norm_x_sq, nmodes);
                let u = eig.leading_vectors(r);
                y = tr.span("core.dist.ttm", Some(n), |_| {
                    parallel_ttm_ctx(&comm, &y, &u, n, TtmTranspose::Transpose, &ctx)
                });
                factors[n] = Some(u);
            }
            let t = DistTucker {
                core: y,
                factors: factors
                    .into_iter()
                    .map(|f| f.expect("every mode is processed"))
                    .collect(),
            };
            tr.span("store.gather_write", None, |_| {
                match t.gather_to_root(&comm) {
                    Some(t) => {
                        try_write_tucker_ctx(&path, &t, &StoreOptions::new(Codec::F64, EPS), &ctx)
                            .map_or(0, |e| e.bytes)
                    }
                    None => 0,
                }
            })
        });
        (to_wire(tr.spans()), bytes)
    }
}

/// Rank 0 measures α from 1-word and β from 2^20-word round trips to rank 1.
fn pingpong_region(comm: Communicator) -> (f64, f64) {
    let rounds = |words: usize, reps: usize| {
        let msg = vec![1.0; words];
        let t = Instant::now();
        for _ in 0..reps {
            if comm.rank() == 0 {
                comm.send(1, &msg);
                std::hint::black_box(comm.recv(1));
            } else if comm.rank() == 1 {
                let m = comm.recv(0);
                comm.send(0, &m);
            }
        }
        secs(t) / (2 * reps) as f64
    };
    let alpha = rounds(1, SMALL_REPS);
    let one_way = rounds(LARGE_WORDS, LARGE_REPS);
    let beta_mbps = (8 * LARGE_WORDS) as f64 / (one_way - alpha).max(1e-9) / 1e6;
    (alpha, beta_mbps)
}

pub fn run(args: &Args, argv: &[String]) -> Report {
    let mut rep = Report::new();
    let worker = in_worker();
    let work = if worker {
        None
    } else {
        Some(WorkDir::create("dist").expect("create the work directory"))
    };
    let file = |name: &str| work.as_ref().map_or_else(PathBuf::new, |w| w.file(name));
    let paths = (
        file("tcp.tkr"),
        file("replay.tkr"),
        file("inproc.tkr"),
        file("seq.tkr"),
    );
    let mut pids = Vec::new();
    measure(args, argv, &mut rep, &paths, &mut pids);
    if !worker {
        rep.check(wait_for_exit(&pids, Duration::from_secs(30)), || {
            "a spawned rank did not exit".into()
        });
    }
    rep
}

/// Runs every region, recording the spawned ranks' process ids in `pids`
/// as soon as they are known. Returns early, with the failure recorded, when
/// a region fails.
fn measure(
    args: &Args,
    argv: &[String],
    rep: &mut Report,
    (tcp_path, replay_path, inproc_path, seq_path): &(PathBuf, PathBuf, PathBuf, PathBuf),
    pids: &mut Vec<u64>,
) -> Option<()> {
    let tcp = TransportKind::Tcp;
    let launcher = !in_worker();

    // Spawn and rendezvous: an empty region, before any data exists.
    let t = Instant::now();
    let spawn = region!(rep, tcp, "perfbench.spawn", argv, |_c: Communicator| {
        u64::from(std::process::id())
    });
    let spawn_s = secs(t);
    pids.extend_from_slice(&spawn.results[1..]);

    // Data generation on every rank; it is ready once the next region returns.
    let mut raw = None;
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        drop(raw.take());
        let t = Instant::now();
        raw = Some(generate(DatasetPreset::Hcci, SCALE));
        region!(rep, tcp, "perfbench.ready", argv, |_c: Communicator| ());
        setups.push(secs(t));
    }
    let setup_s = spawn_s + median(&setups);
    // Every rank permutes its own copy; the next region waits for both.
    let t = Instant::now();
    let x = permute_modes(&raw.expect("at least one set-up"), args.seed);
    rep.note("bench.permute_s", secs(t), "s");

    let pingpong = if args.trace {
        Some(region!(rep, tcp, "perfbench.pingpong", argv, pingpong_region).results[0])
    } else {
        None
    };

    // Warm-up, untimed: the reference artifact.
    let warm = region!(
        rep,
        tcp,
        "perfbench.warmup",
        argv,
        compress_region(&x, tcp_path, Instant::now())
    );
    rep.attempt(1);
    if warm.results[0].0 == 0 {
        rep.fail("the warm-up region wrote no artifact".to_string());
    }
    let reference = if launcher {
        std::fs::read(tcp_path).unwrap_or_default()
    } else {
        Vec::new()
    };

    let min = if args.trace {
        MIN_REGIONS_TRACED
    } else {
        MIN_REGIONS
    };
    let deadline =
        Instant::now() + Duration::from_secs_f64(if args.trace { 0.0 } else { args.seconds });
    let mut times = Vec::new();
    let last = loop {
        let t = Instant::now();
        let h = region!(
            rep,
            tcp,
            "perfbench.dist",
            argv,
            compress_region(&x, tcp_path, deadline)
        );
        times.push(secs(t));
        rep.attempt(1);
        if launcher
            && (h.results[0].0 == 0 || std::fs::read(tcp_path).ok().as_ref() != Some(&reference))
        {
            rep.fail("a timed region's artifact differs from the warm-up's".to_string());
        }
        if times.len() >= min && !h.results[0].1 {
            break h;
        }
    };
    let dist_s = median(&times);

    // Timed the way the regions behind `dist_s` are, from outside.
    let replay = if args.trace {
        let t = Instant::now();
        let h = region!(
            rep,
            tcp,
            "perfbench.replay",
            argv,
            replay_region(&x, replay_path)
        );
        Some((h, secs(t)))
    } else {
        None
    };
    if !launcher {
        return None;
    }
    // Rank 0's memory, before the in-process reference below adds its own.
    let peak_mb = peak_rss_mb();

    // The TCP artifact must match an in-process run on the same grid.
    let inproc = try_spmd_transport(
        TransportKind::InProc,
        "perfbench.inproc",
        ProcGrid::new(&GRID),
        argv,
        compress_region(&x, inproc_path, Instant::now()),
    );
    rep.check(
        inproc.is_ok() && std::fs::read(inproc_path).ok().as_ref() == Some(&reference),
        || "the TCP artifact is not byte-identical to the in-process one".into(),
    );

    if !args.trace {
        rep.metric("setup_s", setup_s, "s");
        // `op_s`: one distributed compression, gather and write.
        rep.metric("op_s", dist_s, "s");
        rep.metric("peak_rss_mb", peak_mb, "MB");
        return Some(());
    }
    let raw: f64 = 8.0 * x.dims().iter().map(|&d| d as f64).product::<f64>();
    rep.metric(
        "compression_ratio",
        raw / reference.len().max(1) as f64,
        "ratio",
    );

    // Per-layer: the replay's spans, slowest rank per kernel.
    let (replay, replay_s) = replay.expect("traced runs replay");
    let mut tr = Tracer::new(true);
    let slowest = |name: &str, rank_spans: &[Vec<Span>]| {
        rank_spans
            .iter()
            .map(|s| Rollup::of(s).self_s(name))
            .fold(0.0, f64::max)
    };
    let rank_spans: Vec<Vec<Span>> = replay.results.iter().map(|(s, _)| from_wire(s)).collect();
    let replay_bytes = std::fs::read(replay_path).unwrap_or_default();
    rep.check(replay.results[0].1 > 0 && replay_bytes == reference, || {
        "the distributed replay's artifact differs from dist_st_hosvd's".into()
    });
    for (metric, span) in [
        ("core.dist.scatter_s", "core.dist.scatter"),
        ("core.dist.gram.self_s", "core.dist.gram"),
        ("core.dist.evecs.self_s", "core.dist.evecs"),
        ("core.dist.ttm.self_s", "core.dist.ttm"),
        ("store.gather_write.self_s", "store.gather_write"),
    ] {
        rep.metric(metric, slowest(span, &rank_spans), "s");
    }
    rep.metric(
        "bench.trace_overhead_frac",
        (replay_s - dist_s) / dist_s,
        "frac",
    );
    for s in rank_spans {
        tr.absorb(s);
    }

    // One thread, one process: the strong-scaling baseline.
    let t = Instant::now();
    let seq = Compressor::new(&x)
        .tolerance(EPS)
        .threads(1)
        .write_to(seq_path);
    let seq_s = secs(t);
    rep.check(seq.is_ok(), || "the sequential baseline failed".into());
    let p = GRID.iter().product::<usize>() as f64;
    rep.metric("dist.strong_efficiency", seq_s / (p * dist_s), "frac");

    let total = last.total_stats();
    let words_max = last.max_stats().words_sent as f64;
    let order: Vec<usize> = (0..x.ndims()).collect();
    let model = CostModel::new(ProcGrid::new(&GRID), MachineParams::laptop_like());
    let model_words = model.st_hosvd(x.dims(), &last.results[0].2, &order).words;
    rep.metric("distmem.words_sent", total.words_sent as f64, "words");
    rep.metric("distmem.messages_sent", total.messages_sent as f64, "count");
    rep.metric(
        "distmem.collective_calls",
        total.collective_calls as f64,
        "count",
    );
    rep.metric(
        "distmem.words_model_ratio",
        words_max / model_words,
        "ratio",
    );
    let (alpha, beta_mbps) = pingpong.expect("traced runs ping-pong");
    rep.metric("net.spawn_s", spawn_s, "s");
    rep.metric("net.alpha_us", alpha * 1e6, "us");
    rep.metric("net.beta_mbps", beta_mbps, "MB/s");
    let payload = 8.0 * total.words_sent as f64;
    rep.metric("net.wire_bytes", total.wire_bytes_sent as f64, "bytes");
    rep.metric(
        "net.wire_overhead_frac",
        (total.wire_bytes_sent as f64 - payload) / payload,
        "frac",
    );
    crate::write_trace(args, tr.spans());
    Some(())
}
