//! Workload inputs: a `scidata` surrogate generated from a fixed seed, with
//! the index order of every mode permuted by the workload seed. Only the
//! generation counts as set-up; the permutation is timed apart.
//!
//! A permutation of each mode's indices keeps every mode's singular
//! spectrum, so the ranks chosen at ε, the artifact size and the work done
//! are the same for every seed, while the bytes each kernel touches and the
//! order they arrive in differ. Surrogates drawn from different generator
//! seeds differ in compressibility (HCCI at scale 3 compresses 370× to 740×
//! over five seeds), which would make a run's cost depend on which seed it
//! drew rather than on the program.

use tucker_scidata::DatasetPreset;
use tucker_tensor::DenseTensor;

/// Generator seed of every surrogate.
pub const DATA_SEED: u64 = 2016;

/// SplitMix64: the benchmark's deterministic stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (up to modulo bias, irrelevant at these sizes).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// A uniformly shuffled `0..n` (Fisher–Yates).
fn permutation(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i + 1));
    }
    p
}

/// `y[i_1, …, i_N] = x[p_1(i_1), …, p_N(i_N)]` with one seeded permutation
/// per mode.
pub fn permute_modes(x: &DenseTensor, seed: u64) -> DenseTensor {
    let mut rng = Rng::new(seed);
    let perms: Vec<Vec<usize>> = x.dims().iter().map(|&d| permutation(d, &mut rng)).collect();
    let mut src = vec![0; x.ndims()];
    DenseTensor::from_fn(x.dims(), |idx| {
        for ((s, &i), p) in src.iter_mut().zip(idx).zip(&perms) {
            *s = p[i];
        }
        x.get(&src)
    })
}

/// The surrogate `preset` at `scale` from [`DATA_SEED`]: the program's work
/// of set-up. The workload input is this with its modes permuted by the
/// seed ([`permute_modes`]), which is the benchmark's own work and is kept
/// out of `setup_s`.
pub fn generate(preset: DatasetPreset, scale: usize) -> DenseTensor {
    preset.generate(scale, DATA_SEED).data
}

#[cfg(test)]
mod tests {
    use super::*;
    use tucker_linalg::sym_eig_desc;
    use tucker_tensor::gram;

    #[test]
    fn permuting_modes_moves_values_and_keeps_spectra() {
        let x = DenseTensor::from_fn(&[5, 4, 3], |i| {
            (i[0] as f64 * 0.7).sin() + (i[1] * i[2]) as f64 * 0.3 + i[0] as f64 * 0.01
        });
        let a = permute_modes(&x, 1);
        assert_eq!(a.as_slice(), permute_modes(&x, 1).as_slice());
        assert_ne!(a.as_slice(), x.as_slice());
        assert_ne!(a.as_slice(), permute_modes(&x, 2).as_slice());
        let sorted = |t: &DenseTensor| {
            let mut v = t.as_slice().to_vec();
            v.sort_by(f64::total_cmp);
            v
        };
        assert_eq!(sorted(&a), sorted(&x));
        for n in 0..3 {
            let ex = sym_eig_desc(&gram(&x, n)).values;
            let ea = sym_eig_desc(&gram(&a, n)).values;
            for (u, v) in ex.iter().zip(&ea) {
                assert!((u - v).abs() <= 1e-12 * ex[0], "mode {n}: {u} vs {v}");
            }
        }
    }

    #[test]
    fn permutations_are_permutations() {
        let mut rng = Rng::new(9);
        for n in [0, 1, 2, 17] {
            let mut p = permutation(n, &mut rng);
            p.sort_unstable();
            assert_eq!(p, (0..n).collect::<Vec<_>>());
        }
    }
}
