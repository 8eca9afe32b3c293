//! Distributed-memory Tucker decomposition (Secs. IV–VI of the paper).
//!
//! The data object is a [`DistTensor`]: a dense tensor block-distributed over
//! the N-way processor grid of the communicator, each rank owning the
//! contiguous block of every mode given by [`ProcGrid::local_range`]. On top
//! of it this module implements the paper's parallel kernels and drivers:
//!
//! * [`parallel_ttm`] — Alg. 3: local TTM against the owned slice of the
//!   matrix, sum-reduction across the mode-`n` processor column, then
//!   re-blocking of the shrunken mode.
//! * [`parallel_gram`] — Alg. 4: a ring (shifted sendrecv) over the mode-`n`
//!   processor column to build this rank's row block of `S = Y(n)·Y(n)ᵀ`,
//!   followed by an all-reduce across the mode-`n`  processor row.
//! * [`parallel_evecs`] — Alg. 5: the Gram row blocks are all-gathered within
//!   the processor column and the (small) `I_n × I_n` eigenproblem is solved
//!   redundantly on every rank, which keeps the factor matrices replicated.
//! * [`dist_st_hosvd_ctx`] / [`dist_hooi_ctx`] — the distributed ST-HOSVD
//!   (Alg. 1) and HOOI (Alg. 2) drivers, mirroring their sequential
//!   counterparts in [`crate::sthosvd`] / [`crate::hooi`](mod@crate::hooi)
//!   step for step. On a single rank they perform bit-identical arithmetic
//!   to the sequential code. Pass [`hybrid_ctx`] for the default per-rank
//!   share of the pool.
//! * [`dist_reconstruct_ctx`] — distributed reconstruction
//!   `X̂ = G ×₁ U⁽¹⁾ ⋯ ×_N U⁽ᴺ⁾`.
//!
//! Factor matrices are small (`I_n × R_n`) and kept **replicated** on every
//! rank, exactly as the paper stores them; only the tensor (and the core) is
//! distributed.

use std::time::Instant;

use crate::hooi::HooiOptions;
use crate::rank::discarded_tail;
use crate::tucker::TuckerTensor;
use crate::validate::{self, CoreError};
use tucker_distmem::collectives::{all_gather, all_reduce, reduce_scatter_blocks};
use tucker_distmem::{Communicator, ProcGrid, SubCommunicator};
use tucker_exec::ExecContext;
use tucker_linalg::eig::{sym_eig_desc, SymEig};
use tucker_linalg::gemm::{gemm_ctx, Transpose};
use tucker_linalg::Matrix;
use tucker_tensor::layout::Unfolding;
use tucker_tensor::slice::insert_subtensor;
use tucker_tensor::{
    extract_subtensor, gram_ctx, ttm_ctx, DenseTensor, SubtensorSpec, TtmTranspose,
};

/// The default execution context of a simulated rank: an even share of the
/// global pool, `max(1, threads / ranks)` — the hybrid "ranks × threads"
/// model (MPI + OpenMP in TuckerMPI terms). All ranks scatter onto the
/// **same** persistent pool, so total parallelism stays bounded by the
/// machine rather than `ranks × threads`.
pub fn hybrid_ctx(comm: &Communicator) -> ExecContext {
    let global = ExecContext::global();
    global.with_budget((global.threads() / comm.size().max(1)).max(1))
}

use crate::sthosvd::SthosvdOptions;

/// A dense tensor block-distributed over the communicator's processor grid.
///
/// Every rank owns the sub-block `ranges[0] × … × ranges[N-1]` (per-mode
/// `(offset, len)` in global coordinates) of a tensor with dimensions
/// `global_dims`. Blocks tile the global tensor exactly.
#[derive(Debug, Clone)]
pub struct DistTensor {
    global_dims: Vec<usize>,
    ranges: Vec<(usize, usize)>,
    local: DenseTensor,
}

impl DistTensor {
    /// Distributes a globally replicated tensor: every rank extracts its own
    /// block. This is how the test harnesses and examples stage data; a real
    /// deployment would read each block from parallel storage instead.
    pub fn from_global(comm: &Communicator, global: &DenseTensor) -> DistTensor {
        let grid = comm.grid();
        assert_eq!(
            global.ndims(),
            grid.ndims(),
            "DistTensor::from_global: tensor order {} does not match grid order {}",
            global.ndims(),
            grid.ndims()
        );
        let ranges = Self::rank_ranges(grid, comm.rank(), global.dims());
        let local = extract_subtensor(global, &spec_from_ranges(&ranges));
        DistTensor {
            global_dims: global.dims().to_vec(),
            ranges,
            local,
        }
    }

    /// Wraps an already-extracted local block (used internally by the kernels).
    fn from_parts(
        global_dims: Vec<usize>,
        ranges: Vec<(usize, usize)>,
        local: DenseTensor,
    ) -> DistTensor {
        debug_assert_eq!(
            ranges.iter().map(|r| r.1).collect::<Vec<_>>(),
            local.dims().to_vec(),
            "DistTensor: block ranges inconsistent with local dims"
        );
        DistTensor {
            global_dims,
            ranges,
            local,
        }
    }

    fn rank_ranges(grid: &ProcGrid, rank: usize, dims: &[usize]) -> Vec<(usize, usize)> {
        (0..dims.len())
            .map(|n| grid.local_range(rank, n, dims[n]))
            .collect()
    }

    /// The global tensor dimensions.
    pub fn global_dims(&self) -> &[usize] {
        &self.global_dims
    }

    /// Per-mode `(offset, len)` of this rank's block, in global coordinates.
    pub fn ranges(&self) -> &[(usize, usize)] {
        &self.ranges
    }

    /// This rank's local block.
    pub fn local(&self) -> &DenseTensor {
        &self.local
    }

    /// Gathers the distributed tensor onto rank 0, which returns the assembled
    /// global tensor; other ranks return `None`.
    pub fn gather_to_root(&self, comm: &Communicator) -> Option<DenseTensor> {
        if comm.size() == 1 {
            return Some(self.local.clone());
        }
        if comm.rank() == 0 {
            let mut out = DenseTensor::zeros(&self.global_dims);
            insert_subtensor(&mut out, &spec_from_ranges(&self.ranges), &self.local);
            for r in 1..comm.size() {
                let data = comm.recv(r);
                let ranges = Self::rank_ranges(comm.grid(), r, &self.global_dims);
                let ldims: Vec<usize> = ranges.iter().map(|&(_, l)| l).collect();
                let sub = DenseTensor::from_vec(&ldims, data);
                insert_subtensor(&mut out, &spec_from_ranges(&ranges), &sub);
            }
            Some(out)
        } else {
            comm.send(0, self.local.as_slice());
            None
        }
    }

    /// `‖X‖²` of the **global** tensor (an all-reduce of the local values; on a
    /// single rank this is exactly the sequential `norm_sq`).
    pub fn global_norm_sq(&self, comm: &Communicator) -> f64 {
        let group = SubCommunicator::world_group(comm);
        all_reduce(&group, &[self.local.norm_sq()])[0]
    }
}

fn spec_from_ranges(ranges: &[(usize, usize)]) -> SubtensorSpec {
    SubtensorSpec::from_ranges(ranges)
}

/// A Tucker decomposition whose core is block-distributed and whose (small)
/// factor matrices are replicated on every rank, as in the paper.
#[derive(Debug, Clone)]
pub struct DistTucker {
    /// The distributed core tensor `G`.
    pub core: DistTensor,
    /// Replicated factor matrices `U⁽ⁿ⁾` (`I_n × R_n`), indexed by mode.
    pub factors: Vec<Matrix>,
}

impl DistTucker {
    /// Gathers the core onto rank 0 and pairs it with the (already replicated)
    /// factors; rank 0 returns the sequential [`TuckerTensor`], others `None`.
    pub fn gather_to_root(&self, comm: &Communicator) -> Option<TuckerTensor> {
        self.core
            .gather_to_root(comm)
            .map(|core| TuckerTensor::new(core, self.factors.clone()))
    }

    /// The reduced dimensions `R_n`.
    pub fn ranks(&self) -> Vec<usize> {
        self.factors.iter().map(|u| u.cols()).collect()
    }
}

/// Wall-clock seconds spent in each distributed kernel, per mode — the
/// breakdown reported in the paper's Figs. 4–5 and used by the `fig9*`
/// scaling harnesses.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelTimings {
    /// Seconds in [`parallel_gram`] (Alg. 4), indexed by mode.
    pub gram: Vec<f64>,
    /// Seconds in [`parallel_evecs`] (Alg. 5), indexed by mode.
    pub evecs: Vec<f64>,
    /// Seconds in [`parallel_ttm`] (Alg. 3), indexed by mode.
    pub ttm: Vec<f64>,
    /// The per-rank thread budget the run executed with (hybrid
    /// ranks × threads accounting; 1 when no pool was used).
    pub thread_budget: usize,
}

impl KernelTimings {
    /// Zeroed timings for an `nmodes`-way decomposition.
    pub fn new(nmodes: usize) -> Self {
        KernelTimings {
            gram: vec![0.0; nmodes],
            evecs: vec![0.0; nmodes],
            ttm: vec![0.0; nmodes],
            thread_budget: 1,
        }
    }

    /// Per-kernel totals `(gram, evecs, ttm)` in seconds.
    pub fn totals(&self) -> (f64, f64, f64) {
        (
            self.gram.iter().sum(),
            self.evecs.iter().sum(),
            self.ttm.iter().sum(),
        )
    }

    /// Total seconds across all kernels and modes.
    pub fn total(&self) -> f64 {
        let (g, e, t) = self.totals();
        g + e + t
    }
}

// Kernel timings cross process boundaries when an SPMD region runs on the
// multi-process TCP backend (`tucker-net` ships each rank's closure result
// through the region result table), so they get an exact wire encoding.
impl tucker_distmem::Wire for KernelTimings {
    fn encode(&self, out: &mut Vec<u8>) {
        self.gram.encode(out);
        self.evecs.encode(out);
        self.ttm.encode(out);
        self.thread_budget.encode(out);
    }

    fn decode(r: &mut tucker_distmem::WireReader<'_>) -> Result<Self, tucker_distmem::WireError> {
        Ok(KernelTimings {
            gram: Vec::<f64>::decode(r)?,
            evecs: Vec::<f64>::decode(r)?,
            ttm: Vec::<f64>::decode(r)?,
            thread_budget: usize::decode(r)?,
        })
    }
}

/// Result of [`dist_st_hosvd_ctx`] on one rank.
#[derive(Debug, Clone)]
pub struct DistSthosvdResult {
    /// The decomposition (distributed core, replicated factors).
    pub tucker: DistTucker,
    /// The reduced dimension chosen in each mode (identical on every rank).
    pub ranks: Vec<usize>,
    /// The descending Gram eigenvalues observed per mode (identical on every
    /// rank, since the eigenproblem is solved redundantly).
    pub mode_eigenvalues: Vec<Vec<f64>>,
    /// Sum of discarded eigenvalues over all modes (eq. (3) bookkeeping).
    pub discarded_energy: f64,
    /// `‖X‖²` of the global input tensor.
    pub norm_x_sq: f64,
    /// The order in which modes were processed.
    pub processed_order: Vec<usize>,
    /// This rank's wall-clock kernel breakdown.
    pub timings: KernelTimings,
}

/// Result of [`dist_hooi_ctx`] on one rank.
#[derive(Debug, Clone)]
pub struct DistHooiResult {
    /// The refined decomposition (distributed core, replicated factors).
    pub tucker: DistTucker,
    /// The reduced dimensions (fixed after initialization).
    pub ranks: Vec<usize>,
    /// `‖X‖² − ‖G‖²` after initialization and after each outer iteration.
    pub fit_history: Vec<f64>,
    /// Number of outer iterations performed.
    pub iterations: usize,
}

/// Parallel TTM `Z = Y ×_n op(V)` (Alg. 3).
///
/// `V` is replicated: with `NoTranspose` it is `K × I_n`, with `Transpose`
/// it is `I_n × K` (the factor-matrix convention of ST-HOSVD). Each rank
/// multiplies its block against its owned slice of `op(V)`, the partial
/// products are sum-reduced across the mode-`n` processor column with a
/// **mode-aware reduce-scatter** — the partial product is re-indexed so each
/// column member's mode-`n` block is contiguous, and the ring reduce-scatter
/// delivers to every rank only the fully summed block it owns. Per rank this
/// moves `(P_n − 1)·Ĵ_n·K/P` words, exactly the β term [`CostModel::ttm`]
/// charges for Alg. 3 (an all-reduce would move twice that and then discard
/// all but the owned block).
///
/// [`CostModel::ttm`]: tucker_distmem::CostModel::ttm
pub fn parallel_ttm(
    comm: &Communicator,
    y: &DistTensor,
    v: &Matrix,
    n: usize,
    trans: TtmTranspose,
) -> DistTensor {
    parallel_ttm_ctx(comm, y, v, n, trans, &hybrid_ctx(comm))
}

/// [`parallel_ttm`] on an explicit per-rank execution context: the local TTM
/// runs on this rank's share of the shared pool (hybrid ranks × threads).
pub fn parallel_ttm_ctx(
    comm: &Communicator,
    y: &DistTensor,
    v: &Matrix,
    n: usize,
    trans: TtmTranspose,
    ctx: &ExecContext,
) -> DistTensor {
    let dims = y.global_dims();
    assert!(n < dims.len(), "parallel_ttm: mode {n} out of range");
    let in_dim = dims[n];
    let k = match trans {
        TtmTranspose::NoTranspose => {
            assert_eq!(v.cols(), in_dim, "parallel_ttm: V must be K × I_n");
            v.rows()
        }
        TtmTranspose::Transpose => {
            assert_eq!(v.rows(), in_dim, "parallel_ttm: V must be I_n × K");
            v.cols()
        }
    };

    // Local multiply against the owned column slice of op(V).
    let (off, len) = y.ranges()[n];
    let v_slice = match trans {
        TtmTranspose::NoTranspose => v.col_block(off, off + len),
        TtmTranspose::Transpose => v.row_block(off, off + len),
    };
    let partial = ttm_ctx(ctx, y.local(), &v_slice, n, trans);

    let mut new_dims = y.global_dims().to_vec();
    new_dims[n] = k;

    let col_group = SubCommunicator::mode_column(comm, n);
    if col_group.size() == 1 {
        // Single processor column: the partial product is already the result,
        // and this rank keeps the whole mode (bit-identical to the sequential
        // TTM on one rank).
        let mut new_ranges = y.ranges().to_vec();
        new_ranges[n] = (0, k);
        return DistTensor::from_parts(new_dims, new_ranges, partial);
    }

    // Re-index the partial product into block-major order along mode n: the
    // slab owned by column member q (mode-n indices `block_range(k, P_n, q)`)
    // becomes one contiguous chunk, flattened in natural order.
    let pn = col_group.size();
    let jhat = partial.codim(n);
    let mut packed = Vec::with_capacity(partial.len());
    let mut counts = Vec::with_capacity(pn);
    let mut block_ranges: Vec<(usize, usize)> =
        partial.dims().iter().map(|&d| (0usize, d)).collect();
    for q in 0..pn {
        let (qoff, qlen) = ProcGrid::block_range(k, pn, q);
        counts.push(qlen * jhat);
        if qlen > 0 {
            block_ranges[n] = (qoff, qlen);
            let block = extract_subtensor(&partial, &spec_from_ranges(&block_ranges));
            packed.extend_from_slice(block.as_slice());
        }
    }

    // Mode-aware reduce-scatter: each member receives exactly its own fully
    // summed block, already flattened in the natural order of the local tensor.
    let mine = reduce_scatter_blocks(&col_group, &packed, &counts);

    let (ks, kl) = comm.grid().local_range(comm.rank(), n, k);
    let mut local_dims = partial.dims().to_vec();
    local_dims[n] = kl;
    let local = DenseTensor::from_vec(&local_dims, mine);

    let mut new_ranges = y.ranges().to_vec();
    new_ranges[n] = (ks, kl);
    DistTensor::from_parts(new_dims, new_ranges, local)
}

/// Parallel Gram `S = Y(n)·Y(n)ᵀ` (Alg. 4): returns this rank's **row block**
/// of the global `I_n × I_n` Gram matrix (rows `ranges()[n]`, all columns).
///
/// The ranks of a mode-`n` processor column share the same non-`n` local
/// ranges, so their unfolding panels cover the same global columns; the ring
/// of shifted sendrecv exchanges (Alg. 4 lines 9–10) rotates those panels so
/// each rank accumulates `W_me · W_qᵀ` into the column block of every owner
/// `q`. The partial row block is then sum-reduced across the mode-`n`
/// processor row (the ranks owning the remaining global columns).
pub fn parallel_gram(comm: &Communicator, y: &DistTensor, n: usize) -> Matrix {
    parallel_gram_ctx(comm, y, n, &hybrid_ctx(comm))
}

/// [`parallel_gram`] on an explicit per-rank execution context.
pub fn parallel_gram_ctx(
    comm: &Communicator,
    y: &DistTensor,
    n: usize,
    ctx: &ExecContext,
) -> Matrix {
    let dims = y.global_dims();
    assert!(n < dims.len(), "parallel_gram: mode {n} out of range");
    let col_group = SubCommunicator::mode_column(comm, n);
    let row_group = SubCommunicator::mode_row(comm, n);

    if col_group.size() == 1 && row_group.size() == 1 {
        // Single rank: defer to the local kernel (bit-identical).
        return gram_ctx(ctx, y.local(), n);
    }

    let in_total = dims[n];
    let pn = col_group.size();
    let my_pos = col_group.pos();
    let (_, my_len) = y.ranges()[n];

    // This rank's panel of the mode-n unfolding: my_len × (local columns).
    let w_me = Unfolding::new(y.local().dims(), n).materialize(y.local());
    let mut s_partial = Matrix::zeros(my_len, in_total);

    // Ring over the processor column: after step s we hold the panel of the
    // member at position (my_pos + s) mod P_n.
    let mut current: Vec<f64> = w_me.as_slice().to_vec();
    let mut owner = my_pos;
    for step in 0..pn {
        let (q_off, q_len) = ProcGrid::block_range(in_total, pn, owner);
        if q_len > 0 && my_len > 0 {
            let panel_q = Matrix::from_vec(q_len, w_me.cols(), current.clone());
            // W_me · W_qᵀ — the (my rows × owner's rows) block over the shared
            // local columns.
            let contrib = gemm_ctx(ctx, Transpose::No, Transpose::Yes, 1.0, &w_me, &panel_q);
            for i in 0..my_len {
                s_partial.row_mut(i)[q_off..q_off + q_len].copy_from_slice(contrib.row(i));
            }
        }
        if step + 1 < pn {
            // Shift panels one position around the ring.
            let dst = (my_pos + pn - 1) % pn;
            let src = (my_pos + 1) % pn;
            current = col_group.sendrecv(dst, &current, src);
            owner = (owner + 1) % pn;
        }
    }

    // Sum the contributions of all column sets (the mode-n processor row).
    if row_group.size() == 1 {
        return s_partial;
    }
    let summed = all_reduce(&row_group, s_partial.as_slice());
    Matrix::from_vec(my_len, in_total, summed)
}

/// Parallel leading-eigenvector computation (Alg. 5).
///
/// The row blocks produced by [`parallel_gram`] are all-gathered within the
/// mode-`n` processor column so every rank holds the full (small) `I_n × I_n`
/// Gram matrix, and the symmetric eigenproblem is solved **redundantly** on
/// every rank — the paper's choice, which keeps the factors replicated and
/// costs `β·(P_n−1)/P_n·I_n²` words instead of a distributed eigensolver.
pub fn parallel_evecs(comm: &Communicator, y: &DistTensor, n: usize, s_block: &Matrix) -> SymEig {
    let s = assemble_gram(comm, y, n, s_block);
    sym_eig_desc(&s)
}

/// All-gathers the per-rank row blocks of the mode-`n` Gram matrix into the
/// full `I_n × I_n` matrix (identical on every rank of the processor column).
pub fn assemble_gram(comm: &Communicator, y: &DistTensor, n: usize, s_block: &Matrix) -> Matrix {
    let in_total = y.global_dims()[n];
    let col_group = SubCommunicator::mode_column(comm, n);
    if col_group.size() == 1 {
        return s_block.clone();
    }
    // Row blocks are row-major and ordered by mode-n coordinate, so the
    // concatenation of the gathered buffers is the full matrix.
    let data = all_gather(&col_group, s_block.as_slice());
    Matrix::from_vec(in_total, in_total, data)
}

/// Distributed ST-HOSVD (Alg. 1 over Algs. 3–5) on an explicit per-rank
/// execution context (hybrid ranks × threads; [`hybrid_ctx`] is the default
/// share, and [`KernelTimings::thread_budget`] records the budget).
///
/// Mirrors [`crate::sthosvd::st_hosvd_ctx`] step for step: for each mode in
/// the resolved order, Gram → eigenvectors → rank selection → truncating
/// TTM. Rank selection is driven by the global `‖X‖²`, so every rank picks
/// the same ranks; on a single rank the arithmetic is identical to the
/// sequential algorithm. Every rank of the grid must call this.
///
/// # Panics
/// Panics on every rank (the check sees only global, replicated data) when
/// the global shape, mode order or rank selection is invalid, or when the
/// grid has more processes than elements along some mode. The message is
/// that of [`validate::validate_sthosvd_inputs`] /
/// [`validate::validate_grid`].
pub fn dist_st_hosvd_ctx(
    comm: &Communicator,
    x: &DistTensor,
    opts: &SthosvdOptions,
    ctx: &ExecContext,
) -> DistSthosvdResult {
    if let Err(e) = validate_dist_inputs(comm, x, opts) {
        panic!("dist_st_hosvd: invalid input: {e}");
    }
    let nmodes = x.global_dims().len();
    let _span = tucker_obs::span!(
        "dist_st_hosvd",
        nmodes = nmodes,
        ranks = comm.size(),
        thread_budget = ctx.threads(),
    );
    let norm_x_sq = x.global_norm_sq(comm);

    let order = opts.order.resolve(
        x.global_dims(),
        &validate::rank_hint(&opts.rank, x.global_dims()),
    );

    let mut y = x.clone();
    let mut factors: Vec<Option<Matrix>> = vec![None; nmodes];
    let mut ranks = vec![0usize; nmodes];
    let mut mode_eigenvalues: Vec<Vec<f64>> = vec![Vec::new(); nmodes];
    let mut discarded_energy = 0.0;
    let mut timings = KernelTimings::new(nmodes);
    timings.thread_budget = ctx.threads();

    for &n in &order {
        let _mode_span = tucker_obs::span!("dist_st_hosvd.mode", mode = n);
        let s_block = {
            let _k = tucker_obs::span!("dist.gram", mode = n);
            let t0 = Instant::now();
            let s_block = parallel_gram_ctx(comm, &y, n, ctx);
            timings.gram[n] += t0.elapsed().as_secs_f64();
            s_block
        };

        let eig = {
            let _k = tucker_obs::span!("dist.evecs", mode = n);
            let t0 = Instant::now();
            let eig = parallel_evecs(comm, &y, n, &s_block);
            timings.evecs[n] += t0.elapsed().as_secs_f64();
            eig
        };

        let r = opts.rank.select(n, &eig.values, norm_x_sq, nmodes);
        let u = eig.leading_vectors(r);
        discarded_energy += discarded_tail(&eig.values, r);
        mode_eigenvalues[n] = eig.values;
        ranks[n] = r;

        {
            let _k = tucker_obs::span!("dist.ttm", mode = n);
            let t0 = Instant::now();
            y = parallel_ttm_ctx(comm, &y, &u, n, TtmTranspose::Transpose, ctx);
            timings.ttm[n] += t0.elapsed().as_secs_f64();
        }

        factors[n] = Some(u);
    }

    let factors: Vec<Matrix> = factors
        .into_iter()
        .map(|f| f.expect("every mode must be processed"))
        .collect();

    DistSthosvdResult {
        tucker: DistTucker { core: y, factors },
        ranks,
        mode_eigenvalues,
        discarded_energy,
        norm_x_sq,
        processed_order: order,
        timings,
    }
}

/// Validates the global shape / order / rank selection of a distributed run
/// plus the processor grid itself (no mode may have more processes than
/// elements, or some ranks would own empty blocks).
fn validate_dist_inputs(
    comm: &Communicator,
    x: &DistTensor,
    opts: &SthosvdOptions,
) -> Result<(), CoreError> {
    validate::validate_sthosvd_inputs(x.global_dims(), opts)?;
    validate::validate_grid(x.global_dims(), comm.grid().shape())?;
    Ok(())
}

/// Distributed HOOI (Alg. 2 over Algs. 3–5) on an explicit per-rank
/// execution context, initialized with [`dist_st_hosvd_ctx`]. Mirrors
/// [`crate::hooi::hooi_ctx`] step for step; the fit `‖X‖² − ‖G‖²` is
/// computed from globally reduced norms, so every rank makes the same
/// convergence decision.
///
/// # Panics
/// Panics on invalid input exactly like [`dist_st_hosvd_ctx`].
pub fn dist_hooi_ctx(
    comm: &Communicator,
    x: &DistTensor,
    opts: &HooiOptions,
    ctx: &ExecContext,
) -> DistHooiResult {
    if let Err(e) = validate_dist_inputs(comm, x, &opts.init) {
        panic!("dist_hooi: invalid input: {e}");
    }
    let nmodes = x.global_dims().len();
    let _span = tucker_obs::span!(
        "dist_hooi",
        nmodes = nmodes,
        ranks = comm.size(),
        thread_budget = ctx.threads(),
    );
    let norm_x_sq = x.global_norm_sq(comm);

    let init = dist_st_hosvd_ctx(comm, x, &opts.init, ctx);
    let ranks = init.ranks.clone();
    let mut factors = init.tucker.factors;
    let mut core = init.tucker.core;
    let mut fit_history = vec![norm_x_sq - core.global_norm_sq(comm)];

    let mut iterations = 0;
    for _ in 0..opts.max_iterations {
        let _iter_span = tucker_obs::span!("dist_hooi.iteration", iteration = iterations);
        for n in 0..nmodes {
            // Y = X ×_{m≠n} U⁽ᵐ⁾ᵀ, applied in natural order (as the
            // sequential multi_ttm does).
            let mut y = x.clone();
            for m in 0..nmodes {
                if m != n {
                    y = parallel_ttm_ctx(comm, &y, &factors[m], m, TtmTranspose::Transpose, ctx);
                }
            }
            let s_block = parallel_gram_ctx(comm, &y, n, ctx);
            let eig = parallel_evecs(comm, &y, n, &s_block);
            factors[n] = eig.leading_vectors(ranks[n]);
            if n == nmodes - 1 {
                core = parallel_ttm_ctx(comm, &y, &factors[n], n, TtmTranspose::Transpose, ctx);
            }
        }
        iterations += 1;
        let fit = norm_x_sq - core.global_norm_sq(comm);
        let prev = *fit_history.last().unwrap();
        fit_history.push(fit);
        if prev - fit <= opts.fit_tolerance * norm_x_sq {
            break;
        }
    }

    DistHooiResult {
        tucker: DistTucker { core, factors },
        ranks,
        fit_history,
        iterations,
    }
}

/// Distributed reconstruction `X̂ = G ×₁ U⁽¹⁾ ⋯ ×_N U⁽ᴺ⁾` on an explicit
/// per-rank execution context: a chain of parallel TTMs that grows the
/// distributed core back to the original (distributed) dimensions.
pub fn dist_reconstruct_ctx(comm: &Communicator, t: &DistTucker, ctx: &ExecContext) -> DistTensor {
    let mut y = t.core.clone();
    for (n, u) in t.factors.iter().enumerate() {
        y = parallel_ttm_ctx(comm, &y, u, n, TtmTranspose::NoTranspose, ctx);
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooi::HooiOptions;
    use crate::sthosvd::st_hosvd_ctx;
    use tucker_distmem::runtime::spmd_with_grid;
    use tucker_tensor::normalized_rms_error;

    fn wavy(dims: &[usize]) -> DenseTensor {
        DenseTensor::from_fn(dims, |idx| {
            let mut v = 0.5;
            for (k, &i) in idx.iter().enumerate() {
                v += ((k + 2) as f64 * 0.21 * i as f64).sin();
            }
            v
        })
    }

    #[test]
    fn blocks_tile_the_global_tensor() {
        let dims = [7usize, 5, 6];
        let x = wavy(&dims);
        let x2 = x.clone();
        let results = spmd_with_grid(ProcGrid::new(&[2, 1, 3]), move |comm| {
            let dx = DistTensor::from_global(&comm, &x2);
            (dx.ranges().to_vec(), dx.local().len())
        });
        let total: usize = results.iter().map(|(_, l)| l).sum();
        assert_eq!(total, x.len());
    }

    #[test]
    fn gather_round_trips_from_global() {
        let dims = [6usize, 9, 4];
        let x = wavy(&dims);
        let x2 = x.clone();
        let results = spmd_with_grid(ProcGrid::new(&[2, 3, 1]), move |comm| {
            DistTensor::from_global(&comm, &x2).gather_to_root(&comm)
        });
        let gathered = results[0].as_ref().expect("root holds the tensor");
        assert_eq!(gathered.dims(), x.dims());
        assert!(normalized_rms_error(&x, gathered) == 0.0);
        assert!(results[1..].iter().all(|r| r.is_none()));
    }

    #[test]
    fn global_norm_matches_sequential() {
        let dims = [8usize, 6, 5];
        let x = wavy(&dims);
        let expected = x.norm_sq();
        let results = spmd_with_grid(ProcGrid::new(&[2, 2, 1]), move |comm| {
            DistTensor::from_global(&comm, &x).global_norm_sq(&comm)
        });
        for v in results {
            assert!((v - expected).abs() < 1e-9 * expected);
        }
    }

    #[test]
    fn dist_sthosvd_timings_cover_all_modes() {
        let dims = [8usize, 8, 8];
        let x = wavy(&dims);
        let results = spmd_with_grid(ProcGrid::new(&[2, 2, 1]), move |comm| {
            let dx = DistTensor::from_global(&comm, &x);
            let opts = SthosvdOptions::with_ranks(vec![3, 3, 3]);
            dist_st_hosvd_ctx(&comm, &dx, &opts, &hybrid_ctx(&comm)).timings
        });
        for t in results {
            assert_eq!(t.gram.len(), 3);
            assert_eq!(t.evecs.len(), 3);
            assert_eq!(t.ttm.len(), 3);
            assert!(t.total() >= 0.0);
        }
    }

    #[test]
    fn dist_reconstruct_matches_gathered_sequential_reconstruction() {
        let dims = [8usize, 7, 6];
        let x = wavy(&dims);
        let x2 = x.clone();
        let seq = st_hosvd_ctx(
            &x,
            &SthosvdOptions::with_ranks(vec![3, 3, 3]),
            ExecContext::global(),
        );
        let seq_rec = seq.tucker.reconstruct();
        let results = spmd_with_grid(ProcGrid::new(&[1, 2, 2]), move |comm| {
            let dx = DistTensor::from_global(&comm, &x2);
            let ctx = hybrid_ctx(&comm);
            let r = dist_st_hosvd_ctx(&comm, &dx, &SthosvdOptions::with_ranks(vec![3, 3, 3]), &ctx);
            dist_reconstruct_ctx(&comm, &r.tucker, &ctx).gather_to_root(&comm)
        });
        let rec = results[0].as_ref().expect("root gathers reconstruction");
        assert!(normalized_rms_error(&seq_rec, rec) < 1e-9);
    }

    #[test]
    fn uneven_blocks_are_handled() {
        // 3 does not divide 7, and P_n exceeds the truncated rank in mode 1.
        let dims = [7usize, 5, 4];
        let x = wavy(&dims);
        let x2 = x.clone();
        let seq = st_hosvd_ctx(
            &x,
            &SthosvdOptions::with_ranks(vec![3, 2, 2]),
            ExecContext::global(),
        );
        let seq_rec = seq.tucker.reconstruct();
        let results = spmd_with_grid(ProcGrid::new(&[3, 3, 1]), move |comm| {
            let dx = DistTensor::from_global(&comm, &x2);
            let opts = SthosvdOptions::with_ranks(vec![3, 2, 2]);
            let r = dist_st_hosvd_ctx(&comm, &dx, &opts, &hybrid_ctx(&comm));
            r.tucker.gather_to_root(&comm)
        });
        let rec = results[0].as_ref().unwrap().reconstruct();
        assert!(normalized_rms_error(&seq_rec, &rec) < 1e-8);
    }

    #[test]
    #[should_panic(expected = "processes along mode 0")]
    fn grid_with_more_processes_than_a_mode_extent_panics() {
        let x = wavy(&[2, 6, 5]);
        spmd_with_grid(ProcGrid::new(&[3, 1, 1]), move |comm| {
            let dx = DistTensor::from_global(&comm, &x);
            let opts = SthosvdOptions::with_tolerance(0.1);
            dist_st_hosvd_ctx(&comm, &dx, &opts, &hybrid_ctx(&comm));
        });
    }

    #[test]
    #[should_panic(expected = "exceeds the extent 5 of mode 2")]
    fn fixed_rank_above_its_mode_dimension_panics() {
        let x = wavy(&[6, 6, 5]);
        spmd_with_grid(ProcGrid::new(&[2, 1, 1]), move |comm| {
            let dx = DistTensor::from_global(&comm, &x);
            let opts = HooiOptions::with_ranks(vec![3, 3, 6], 1);
            dist_hooi_ctx(&comm, &dx, &opts, &hybrid_ctx(&comm));
        });
    }
}
