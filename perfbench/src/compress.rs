//! `compress`: the TJLR surrogate at scale 3 compressed in one process at
//! ε = 1e-3 on the whole pool — in memory, streaming, and refined by HOOI.
//!
//! Untraced, the run times `Compressor::write_to` until the time is up
//! (`op_s`), then checks the streaming driver once. Traced, it replays the
//! ST-HOSVD and HOOI mode loops through the public kernels inside spans and
//! requires the replays to match the `Compressor` outputs bit for bit; the
//! `tensor.*` and `linalg.eig` metrics roll up the kernel spans of both
//! replays, `core.sthosvd` and `core.hooi` are the drivers' own time.

use crate::input::{generate, permute_modes};
use crate::report::{median, Report};
use crate::sys::{peak_rss_mb, same_bits, WorkDir};
use crate::trace::{Rollup, Tracer};
use crate::{Args, EPS, SETUPS};
use std::path::Path;
use std::time::{Duration, Instant};
use tucker_api::{Compressed, Compressor, Open, Refine, TensorQuery};
use tucker_core::rank::discarded_tail;
use tucker_core::{ModeOrder, RankSelection, TuckerTensor};
use tucker_distmem::{CostModel, MachineParams, ProcGrid};
use tucker_exec::ExecContext;
use tucker_linalg::{gemm_ctx, sym_eig_desc, Matrix, Transpose};
use tucker_scidata::DatasetPreset;
use tucker_store::{try_write_tucker_ctx, Codec, StoreOptions};
use tucker_tensor::{gram_ctx, normalized_rms_error, ttm_ctx, DenseTensor, TtmTranspose};

/// Spatial scale of the TJLR surrogate (60×72×48×12×10).
const SCALE: usize = 3;
/// HOOI sweeps of the traced refinement.
const SWEEPS: usize = 2;
/// Fewest timed compressions, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn raw_bytes(dims: &[usize]) -> f64 {
    8.0 * dims.iter().map(|&d| d as f64).product::<f64>()
}

fn same_tucker(a: &TuckerTensor, b: &TuckerTensor) -> bool {
    same_bits(a.core.as_slice(), b.core.as_slice())
        && a.core.dims() == b.core.dims()
        && a.factors.len() == b.factors.len()
        && a.factors
            .iter()
            .zip(&b.factors)
            .all(|(u, v)| u.shape() == v.shape() && same_bits(u.as_slice(), v.as_slice()))
}

/// Reads an artifact back, failing the run when it cannot be read.
fn read(rep: &mut Report, path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| {
        rep.fail(format!("read {}: {e}", path.display()));
        Vec::new()
    })
}

pub fn run(args: &Args) -> Report {
    let mut rep = Report::new();
    let work = WorkDir::create("compress").expect("create the work directory");

    let mut raw = None;
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        drop(raw.take());
        let t = Instant::now();
        raw = Some(generate(DatasetPreset::Tjlr, SCALE));
        setups.push(secs(t));
    }
    let t = Instant::now();
    let x = permute_modes(&raw.expect("at least one set-up"), args.seed);
    rep.note("bench.permute_s", secs(t), "s");

    // The reference artifact; also the warm-up of pool, allocator and pages.
    let reference = work.file("reference.tkr");
    let t = Instant::now();
    let written = Compressor::new(&x).tolerance(EPS).write_to(&reference);
    let first_s = secs(t);
    rep.attempt(1);
    let written = match written {
        Ok(w) => w,
        Err(e) => {
            rep.fail(format!("reference compression failed: {e}"));
            return rep;
        }
    };
    let ref_bytes = read(&mut rep, &reference);

    if args.trace {
        traced(
            args,
            &mut rep,
            &work,
            &x,
            &written.compressed,
            &ref_bytes,
            first_s,
        );
        rep.metric(
            "compression_ratio",
            raw_bytes(x.dims()) / ref_bytes.len().max(1) as f64,
            "ratio",
        );
    } else {
        untraced(args, &mut rep, &work, &x, &ref_bytes);
        rep.metric("setup_s", median(&setups), "s");
        // Before the check below reconstructs the whole tensor.
        rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }

    // Correctness of the artifact itself: reopen it and require the
    // normalized RMS error within ε.
    let t = Instant::now();
    let reader = Open::eager().open(&reference);
    let decode_s = secs(t);
    rep.attempt(1);
    match reader {
        Ok(r) => {
            let err = r
                .reconstruct()
                .map(|rec| normalized_rms_error(&x, &rec))
                .unwrap_or(f64::INFINITY);
            if err.is_nan() || err > EPS {
                rep.fail(format!("reopened artifact has error {err:e} > ε = {EPS:e}"));
            }
            if args.trace {
                rep.metric("core.rel_error", err, "frac");
                rep.metric(
                    "store.decode_mbps",
                    r.file_bytes() as f64 / decode_s / 1e6,
                    "MB/s",
                );
            }
        }
        Err(e) => rep.fail(format!("reopen the artifact: {e}")),
    }
    rep
}

/// The end-to-end measurement: in-memory compressions until `--seconds`
/// have passed (`op_s` is their median), then the streaming driver once,
/// which must write the same bytes.
fn untraced(args: &Args, rep: &mut Report, work: &WorkDir, x: &DenseTensor, ref_bytes: &[u8]) {
    let in_memory = work.file("in_memory.tkr");
    let mut times = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut last_s = 0.0;
    // A compression starts only when it can end by the deadline.
    while times.len() < MIN_ROUNDS || Instant::now() + Duration::from_secs_f64(last_s) <= deadline {
        let t = Instant::now();
        let r = Compressor::new(x).tolerance(EPS).write_to(&in_memory);
        last_s = secs(t);
        times.push(last_s);
        rep.attempt(1);
        match r {
            Ok(_) if read(rep, &in_memory) == ref_bytes => {}
            Ok(_) => rep.fail("in-memory artifact differs from the reference"),
            Err(e) => rep.fail(format!("in-memory compression failed: {e}")),
        }
    }
    rep.metric("op_s", median(&times), "s");

    let streamed = work.file("streamed.tkr");
    let t = Instant::now();
    let r = Compressor::from_slabs(x).tolerance(EPS).write_to(&streamed);
    rep.note("stream_compress_s", secs(t), "s");
    rep.attempt(1);
    match r {
        Ok(_) if read(rep, &streamed) == ref_bytes => {}
        Ok(_) => rep.fail("streaming artifact is not byte-identical to the in-memory one"),
        Err(e) => rep.fail(format!("streaming compression failed: {e}")),
    }
}

/// Floating-point work of the replayed kernels, by kernel.
#[derive(Default)]
struct Flops {
    gram: f64,
    ttm: f64,
}

/// ST-HOSVD (Alg. 1) replayed through the public kernels, each call in a
/// span. Returns the decomposition, its ranks and its a-priori error bound.
fn replay_sthosvd(
    tr: &mut Tracer,
    root: &str,
    x: &DenseTensor,
    sel: &RankSelection,
    ctx: &ExecContext,
    flops: &mut Flops,
) -> (TuckerTensor, Vec<usize>, f64) {
    tr.span(root, None, |tr| {
        let nmodes = x.ndims();
        let norm_x_sq = x.norm_sq();
        let order = ModeOrder::Natural.resolve(x.dims(), x.dims());
        let mut y = x.clone();
        let mut factors: Vec<Option<Matrix>> = vec![None; nmodes];
        let mut ranks = vec![0; nmodes];
        let mut discarded = 0.0;
        for &n in &order {
            let j = y.len() as f64;
            let s = tr.span("tensor.gram", Some(n), |_| gram_ctx(ctx, &y, n));
            flops.gram += 2.0 * y.dim(n) as f64 * j;
            let eig = tr.span("linalg.eig", Some(n), |_| sym_eig_desc(&s));
            let r = sel.select(n, &eig.values, norm_x_sq, nmodes);
            let u = eig.leading_vectors(r);
            discarded += discarded_tail(&eig.values, r);
            ranks[n] = r;
            y = tr.span("tensor.ttm", Some(n), |_| {
                ttm_ctx(ctx, &y, &u, n, TtmTranspose::Transpose)
            });
            flops.ttm += 2.0 * j * r as f64;
            factors[n] = Some(u);
        }
        let factors = factors
            .into_iter()
            .map(|f| f.expect("every mode is processed"))
            .collect();
        let bound = if norm_x_sq > 0.0 {
            (discarded.max(0.0) / norm_x_sq).sqrt()
        } else {
            0.0
        };
        (TuckerTensor::new(y, factors), ranks, bound)
    })
}

/// HOOI (Alg. 2) replayed through the public kernels: the ST-HOSVD
/// initialization at fixed ranks, then sweeps of multi-TTM, Gram and
/// eigenvectors. Returns the decomposition and the sweeps run.
fn replay_hooi(
    tr: &mut Tracer,
    x: &DenseTensor,
    ranks: &[usize],
    refine: &Refine,
    ctx: &ExecContext,
    flops: &mut Flops,
) -> (TuckerTensor, usize) {
    tr.span("core.hooi", None, |tr| {
        let nmodes = x.ndims();
        let norm_x_sq = x.norm_sq();
        let sel = RankSelection::Fixed(ranks.to_vec());
        let (init, _, _) = replay_sthosvd(tr, "core.hooi.init", x, &sel, ctx, flops);
        let TuckerTensor {
            mut core,
            mut factors,
            ..
        } = init;
        let mut fit = norm_x_sq - core.norm_sq();
        let mut iterations = 0;
        for _ in 0..refine.max_iterations {
            for n in 0..nmodes {
                let mut cur: Option<DenseTensor> = None;
                for m in (0..nmodes).filter(|&m| m != n) {
                    let src = cur.as_ref().unwrap_or(x);
                    let j = src.len() as f64;
                    let next = tr.span("tensor.ttm", Some(m), |_| {
                        ttm_ctx(ctx, src, &factors[m], m, TtmTranspose::Transpose)
                    });
                    flops.ttm += 2.0 * j * ranks[m] as f64;
                    cur = Some(next);
                }
                let y = cur.as_ref().unwrap_or(x);
                let j = y.len() as f64;
                let s = tr.span("tensor.gram", Some(n), |_| gram_ctx(ctx, y, n));
                flops.gram += 2.0 * y.dim(n) as f64 * j;
                let eig = tr.span("linalg.eig", Some(n), |_| sym_eig_desc(&s));
                factors[n] = eig.leading_vectors(ranks[n]);
                if n == nmodes - 1 {
                    core = tr.span("tensor.ttm", Some(n), |_| {
                        ttm_ctx(ctx, y, &factors[n], n, TtmTranspose::Transpose)
                    });
                    flops.ttm += 2.0 * j * ranks[n] as f64;
                }
            }
            iterations += 1;
            let next = norm_x_sq - core.norm_sq();
            let stop = fit - next <= refine.fit_tolerance * norm_x_sq;
            fit = next;
            if stop {
                break;
            }
        }
        (TuckerTensor::new(core, factors), iterations)
    })
}

/// Single-thread GEMM rate at 256³ (best of several), in GF/s.
fn gemm_peak_gflops() -> f64 {
    const N: usize = 256;
    let a = Matrix::from_fn(N, N, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
    let b = Matrix::from_fn(N, N, |i, j| ((i * 5 + j * 2) % 13) as f64 - 6.0);
    let seq = ExecContext::sequential();
    let mut best = f64::INFINITY;
    for _ in 0..12 {
        let t = Instant::now();
        let c = gemm_ctx(&seq, Transpose::No, Transpose::No, 1.0, &a, &b);
        best = best.min(secs(t));
        std::hint::black_box(c);
    }
    2.0 * (N * N * N) as f64 / best / 1e9
}

/// The per-layer measurement.
fn traced(
    args: &Args,
    rep: &mut Report,
    work: &WorkDir,
    x: &DenseTensor,
    reference: &Compressed,
    ref_bytes: &[u8],
    first_s: f64,
) {
    let ctx = ExecContext::global().clone();
    let threads = ctx.threads();
    let mut tr = Tracer::new(true);
    let mut flops = Flops::default();

    // Untraced baseline of the traced replay below.
    let again = work.file("again.tkr");
    let t = Instant::now();
    rep.check(
        Compressor::new(x).tolerance(EPS).write_to(&again).is_ok(),
        || "baseline compression failed".into(),
    );
    // Best of two, like the one-thread time below.
    let untraced_s = first_s.min(secs(t));

    // ST-HOSVD replay plus encode.
    tr.set_id(1);
    let t = Instant::now();
    let (tucker, ranks, bound) = replay_sthosvd(
        &mut tr,
        "core.sthosvd",
        x,
        &RankSelection::Tolerance(EPS),
        &ctx,
        &mut flops,
    );
    let replayed = work.file("replayed.tkr");
    let store = StoreOptions::new(Codec::F64, EPS);
    let encoded = tr.span("store.encode", None, |_| {
        try_write_tucker_ctx(&replayed, &tucker, &store, &ctx)
    });
    let traced_s = secs(t);
    rep.check(
        reference
            .sthosvd()
            .is_some_and(|r| same_tucker(&r.tucker, &tucker)),
        || "ST-HOSVD replay drifted from the Compressor output".into(),
    );
    let replay_bytes = read(rep, &replayed);
    rep.check(replay_bytes == ref_bytes, || {
        "replayed artifact differs from the Compressor artifact".into()
    });
    if let Err(e) = &encoded {
        rep.fail(format!("encode failed: {e}"));
    }

    // HOOI replay against the refined Compressor run.
    let refine = Refine::sweeps(SWEEPS);
    let hooi = Compressor::new(x)
        .ranks(ranks.clone())
        .refine(refine.clone())
        .run();
    tr.set_id(2);
    let (h_tucker, h_iters) = replay_hooi(&mut tr, x, &ranks, &refine, &ctx, &mut flops);
    rep.check(
        matches!(&hooi, Ok(c) if c.hooi().is_some_and(|h| {
            h.iterations == h_iters && same_tucker(&h.tucker, &h_tucker)
        })),
        || "HOOI replay drifted from the Compressor output".into(),
    );

    // One thread, for the pool's speed-up.
    let single = work.file("single.tkr");
    let mut single_s = f64::INFINITY;
    for _ in 0..2 {
        let t = Instant::now();
        let one = Compressor::new(x)
            .tolerance(EPS)
            .threads(1)
            .write_to(&single);
        single_s = single_s.min(secs(t));
        let same = one.is_ok() && read(rep, &single) == ref_bytes;
        rep.check(same, || {
            "one-thread artifact differs from the pooled one".into()
        });
    }

    let peak = gemm_peak_gflops();
    let roll = Rollup::of(tr.spans());
    let gram_s = roll.self_s("tensor.gram");
    let ttm_s = roll.self_s("tensor.ttm");
    rep.metric("tensor.gram.self_s", gram_s, "s");
    rep.metric("tensor.gram.gflops", flops.gram / gram_s / 1e9, "GF/s");
    rep.metric(
        "tensor.gram.frac_peak",
        flops.gram / gram_s / 1e9 / (peak * threads as f64),
        "frac",
    );
    rep.metric("tensor.ttm.self_s", ttm_s, "s");
    rep.metric("tensor.ttm.gflops", flops.ttm / ttm_s / 1e9, "GF/s");
    rep.metric(
        "tensor.ttm.frac_peak",
        flops.ttm / ttm_s / 1e9 / (peak * threads as f64),
        "frac",
    );
    for n in 0..x.ndims() {
        rep.metric(
            format!("tensor.gram.mode{n}.self_s"),
            roll.mode_self_s("tensor.gram", n),
            "s",
        );
        rep.metric(
            format!("tensor.ttm.mode{n}.self_s"),
            roll.mode_self_s("tensor.ttm", n),
            "s",
        );
    }
    rep.metric("linalg.eig.self_s", roll.self_s("linalg.eig"), "s");
    rep.metric("linalg.gemm.peak_gflops", peak, "GF/s");
    rep.metric("core.sthosvd.self_s", roll.self_s("core.sthosvd"), "s");
    rep.metric("core.hooi.self_s", roll.self_s("core.hooi"), "s");
    rep.metric("core.hooi.iterations", h_iters as f64, "count");
    let order: Vec<usize> = (0..x.ndims()).collect();
    let model = CostModel::new(
        ProcGrid::new(&vec![1; x.ndims()]),
        MachineParams::laptop_like(),
    );
    rep.metric(
        "core.flops",
        model.st_hosvd(x.dims(), &ranks, &order).flops,
        "flop",
    );
    rep.metric("core.error_bound", bound, "frac");
    rep.metric("exec.speedup", single_s / untraced_s, "ratio");
    let encode_s = roll.self_s("store.encode");
    rep.metric("store.encode.self_s", encode_s, "s");
    rep.metric(
        "store.encode_mbps",
        replay_bytes.len() as f64 / encode_s / 1e6,
        "MB/s",
    );
    rep.metric("store.bytes_written", replay_bytes.len() as f64, "bytes");
    rep.metric(
        "bench.trace_overhead_frac",
        (traced_s - untraced_s) / untraced_s,
        "frac",
    );
    crate::write_trace(args, tr.spans());
}
