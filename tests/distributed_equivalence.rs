//! Cross-crate integration tests: the distributed algorithms (Algs. 3–5 and the
//! distributed ST-HOSVD / HOOI built on them) must agree with their sequential
//! counterparts on every processor grid, and their communication volume must
//! match the paper's α-β-γ model.

use parallel_tucker::prelude::*;
use tucker_core::dist::{
    dist_hooi_ctx, dist_reconstruct_ctx, hybrid_ctx, parallel_gram, parallel_ttm,
};
use tucker_core::hooi::{hooi_ctx, HooiOptions};
use tucker_distmem::runtime::spmd_with_grid_handle;
use tucker_linalg::Matrix;
use tucker_tensor::{gram, ttm};

fn structured_tensor(dims: &[usize]) -> DenseTensor {
    DenseTensor::from_fn(dims, |idx| {
        let mut v = 1.0;
        for (k, &i) in idx.iter().enumerate() {
            v += ((k + 1) as f64 * 0.17 * i as f64).sin();
        }
        v
    })
}

#[test]
fn distributed_sthosvd_matches_sequential_on_many_grids() {
    let dims = [12usize, 10, 8];
    let x = structured_tensor(&dims);
    let opts = SthosvdOptions::with_ranks(vec![4, 3, 3]);
    let seq = st_hosvd_ctx(&x, &opts, ExecContext::global());
    let seq_rec = seq.tucker.reconstruct();

    for grid_shape in [
        vec![1usize, 1, 1],
        vec![2, 1, 1],
        vec![1, 2, 2],
        vec![2, 2, 2],
        vec![3, 2, 1],
    ] {
        let x2 = x.clone();
        let opts2 = opts.clone();
        let results = spmd_with_grid(ProcGrid::new(&grid_shape), move |comm| {
            let dx = DistTensor::from_global(&comm, &x2);
            let r = dist_st_hosvd_ctx(&comm, &dx, &opts2, &hybrid_ctx(&comm));
            r.tucker.gather_to_root(&comm)
        });
        let dist_rec = results[0].as_ref().unwrap().reconstruct();
        let diff = normalized_rms_error(&seq_rec, &dist_rec);
        assert!(
            diff < 1e-8,
            "grid {grid_shape:?}: distributed reconstruction deviates by {diff}"
        );
    }
}

#[test]
fn distributed_hooi_matches_sequential() {
    let dims = [10usize, 9, 8];
    let x = structured_tensor(&dims);
    let opts = HooiOptions::with_ranks(vec![3, 3, 2], 2);
    let seq_err = normalized_rms_error(
        &x,
        &hooi_ctx(&x, &opts, ExecContext::global())
            .tucker
            .reconstruct(),
    );

    let x2 = x.clone();
    let results = spmd_with_grid(ProcGrid::new(&[2, 1, 2]), move |comm| {
        let dx = DistTensor::from_global(&comm, &x2);
        let r = dist_hooi_ctx(&comm, &dx, &opts, &hybrid_ctx(&comm));
        r.tucker.gather_to_root(&comm)
    });
    let dist_err = normalized_rms_error(&x, &results[0].as_ref().unwrap().reconstruct());
    assert!(
        (seq_err - dist_err).abs() < 1e-8 * (1.0 + seq_err),
        "sequential {seq_err} vs distributed {dist_err}"
    );
}

#[test]
fn distributed_reconstruction_round_trip() {
    let dims = [12usize, 8, 10];
    let x = structured_tensor(&dims);
    let x2 = x.clone();
    let results = spmd_with_grid(ProcGrid::new(&[2, 2, 1]), move |comm| {
        let dx = DistTensor::from_global(&comm, &x2);
        let r = dist_st_hosvd_ctx(
            &comm,
            &dx,
            &SthosvdOptions::with_tolerance(1e-5),
            &hybrid_ctx(&comm),
        );
        let rec = dist_reconstruct_ctx(&comm, &r.tucker, &hybrid_ctx(&comm));
        rec.gather_to_root(&comm)
    });
    let rec = results[0].as_ref().unwrap();
    assert!(normalized_rms_error(&x, rec) <= 1e-5 + 1e-12);
}

#[test]
fn parallel_kernels_match_sequential_on_a_4way_tensor() {
    let dims = [8usize, 6, 6, 4];
    let x = structured_tensor(&dims);
    let v = Matrix::from_fn(dims[1], 3, |i, j| ((i + 2 * j) as f64 * 0.3).cos());

    // Sequential references.
    let seq_ttm = ttm(&x, &v, 1, TtmTranspose::Transpose);
    let seq_gram = gram(&x, 2);

    let x2 = x.clone();
    let results = spmd_with_grid(ProcGrid::new(&[2, 1, 2, 1]), move |comm| {
        let dx = DistTensor::from_global(&comm, &x2);
        let z = parallel_ttm(&comm, &dx, &v, 1, TtmTranspose::Transpose);
        let s_block = parallel_gram(&comm, &dx, 2);
        (z.gather_to_root(&comm), dx.ranges()[2], s_block)
    });

    // TTM result.
    let gathered = results[0].0.as_ref().unwrap();
    assert!(normalized_rms_error(&seq_ttm, gathered) < 1e-12);

    // Gram result: assemble row blocks.
    let n2 = dims[2];
    let mut assembled = Matrix::zeros(n2, n2);
    for (_, (off, len), block) in &results {
        for r in 0..*len {
            assembled.row_mut(off + r).copy_from_slice(block.row(r));
        }
    }
    for i in 0..n2 {
        for j in 0..n2 {
            assert!((assembled.get(i, j) - seq_gram.get(i, j)).abs() < 1e-9);
        }
    }
}

#[test]
fn communication_volume_tracks_cost_model() {
    // Measure the words moved by a parallel Gram and compare against the
    // α-β-γ model's bandwidth term. The model counts critical-path words per
    // rank; the measured aggregate divided by P should be within a small
    // constant factor (collective implementations differ slightly).
    let dims = [16usize, 12, 8];
    let grid_shape = [2usize, 2, 2];
    let mode = 0;
    let x = structured_tensor(&dims);

    let handle = spmd_with_grid_handle(ProcGrid::new(&grid_shape), move |comm| {
        let dx = DistTensor::from_global(&comm, &x);
        let _ = parallel_gram(&comm, &dx, mode);
    });
    let measured_words_per_rank =
        handle.total_stats().words_sent as f64 / handle.stats.len() as f64;

    let model = CostModel::new(ProcGrid::new(&grid_shape), MachineParams::edison_like());
    let predicted = model.gram(&dims, mode).words;

    assert!(
        measured_words_per_rank <= 4.0 * predicted + 64.0,
        "measured {measured_words_per_rank} words/rank far exceeds predicted {predicted}"
    );
    assert!(
        measured_words_per_rank >= 0.1 * predicted,
        "measured {measured_words_per_rank} words/rank suspiciously below predicted {predicted}"
    );
}

#[test]
fn ttm_communication_volume_matches_cost_model() {
    // The mode-aware reduce-scatter in `parallel_ttm` must move exactly the
    // β volume `(P_n − 1)·Ĵ_n·K/P` that `CostModel::ttm` (Alg. 3) charges per
    // rank — not the 2× volume of an all-reduce. Dimensions and grid are
    // chosen so every block divides evenly and the match is exact.
    let dims = [16usize, 12, 8];
    let grid_shape = [2usize, 2, 2];
    let mode = 0;
    let k = 8usize;
    let x = structured_tensor(&dims);
    let v = Matrix::from_fn(dims[mode], k, |i, j| ((i + 3 * j) as f64 * 0.2).sin());

    let handle = spmd_with_grid_handle(ProcGrid::new(&grid_shape), move |comm| {
        let dx = DistTensor::from_global(&comm, &x);
        let _ = parallel_ttm(&comm, &dx, &v, mode, TtmTranspose::Transpose);
    });
    let measured = handle.total_stats().words_sent as f64 / handle.stats.len() as f64;

    let model = CostModel::new(ProcGrid::new(&grid_shape), MachineParams::edison_like());
    let predicted = model.ttm(&dims, mode, k).words;
    assert!(
        (measured - predicted).abs() < 1e-9,
        "measured {measured} words/rank, model predicts {predicted}"
    );

    // Uneven blocks (P_n does not divide K or I_n): the volume still tracks
    // the model to within rounding, and stays well below the all-reduce's 2×.
    let dims = [9usize, 6, 4];
    let k = 5usize;
    let x = structured_tensor(&dims);
    let v = Matrix::from_fn(dims[mode], k, |i, j| ((2 * i + j) as f64 * 0.15).cos());
    let handle = spmd_with_grid_handle(ProcGrid::new(&grid_shape), move |comm| {
        let dx = DistTensor::from_global(&comm, &x);
        let _ = parallel_ttm(&comm, &dx, &v, mode, TtmTranspose::Transpose);
    });
    let measured = handle.total_stats().words_sent as f64 / handle.stats.len() as f64;
    let predicted = model.ttm(&dims, mode, k).words;
    assert!(
        measured <= 1.35 * predicted && measured >= 0.65 * predicted,
        "uneven blocks: measured {measured} words/rank vs predicted {predicted}"
    );
}

#[test]
fn single_rank_distributed_run_is_exactly_sequential() {
    let dims = [9usize, 8, 7];
    let x = structured_tensor(&dims);
    let opts = SthosvdOptions::with_ranks(vec![3, 3, 3]);
    let seq = st_hosvd_ctx(&x, &opts, ExecContext::global());

    let x2 = x.clone();
    let opts2 = opts.clone();
    let results = spmd_with_grid(ProcGrid::new(&[1, 1, 1]), move |comm| {
        let dx = DistTensor::from_global(&comm, &x2);
        let r = dist_st_hosvd_ctx(&comm, &dx, &opts2, &hybrid_ctx(&comm));
        (r.ranks.clone(), r.tucker.gather_to_root(&comm))
    });
    let (ranks, gathered) = &results[0];
    assert_eq!(*ranks, seq.ranks);
    // On a single rank the arithmetic is performed in the same order, so the
    // cores agree to machine precision.
    let diff = normalized_rms_error(&seq.tucker.core, &gathered.as_ref().unwrap().core);
    assert!(diff < 1e-13);
}

/// The env-selected transport (`TUCKER_TRANSPORT` / `TUCKER_RANKS` — the
/// knobs CI's TCP re-runs of this suite turn) must preserve the
/// sequential-equivalence contract for the iterative HOOI too: real spawned
/// processes have to land on the same fit as the in-process reference.
#[test]
fn env_transport_distributed_hooi_matches_sequential() {
    use tucker_net::{
        env_ranks, spmd_transport, test_exec_args, transport_from_env, TransportKind,
    };

    let kind = transport_from_env();
    let p = env_ranks();
    let grid = match p {
        1 => vec![1usize, 1, 1],
        2 => vec![2, 1, 1],
        4 => vec![2, 2, 1],
        8 => vec![2, 2, 2],
        other => vec![other, 1, 1],
    };
    let dims = [10usize, 9, 8];
    let x = structured_tensor(&dims);
    let opts = HooiOptions::with_ranks(vec![3, 3, 2], 2);
    let seq_err = normalized_rms_error(
        &x,
        &hooi_ctx(&x, &opts, ExecContext::global())
            .tucker
            .reconstruct(),
    );

    let x2 = x.clone();
    let exec = test_exec_args("env_transport_distributed_hooi_matches_sequential");
    let handle = spmd_transport(
        kind,
        "hooi_env",
        ProcGrid::new(&grid),
        &exec,
        move |comm: Communicator| -> Vec<f64> {
            let dx = DistTensor::from_global(&comm, &x2);
            let r = dist_hooi_ctx(&comm, &dx, &opts, &hybrid_ctx(&comm));
            match r.tucker.gather_to_root(&comm) {
                Some(t) => t.reconstruct().as_slice().to_vec(),
                None => vec![],
            }
        },
    );
    let rec = DenseTensor::from_vec(&dims, handle.results[0].clone());
    let dist_err = normalized_rms_error(&x, &rec);
    assert!(
        (seq_err - dist_err).abs() < 1e-8 * (1.0 + seq_err),
        "{} backend: sequential fit {seq_err} vs distributed {dist_err}",
        kind.label()
    );
    if matches!(kind, TransportKind::Tcp) && p > 1 {
        let wire: u64 = handle.stats.iter().map(|s| s.wire_bytes_sent).sum();
        assert!(wire > 0, "a tcp run must move real bytes on the wire");
    }
}
