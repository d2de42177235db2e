//! Seeded inputs and fixed model weights.
//!
//! The benchmark generates everything the program receives from its own
//! generator, so a later change to the program's random helpers cannot
//! change the workloads. Model weights come from fixed per-model seeds;
//! only request inputs (and the serving order) depend on `--seed`.

use tfno_model::{FnoLayerNd, FnoNd, SpectralConvNd};
use tfno_num::{CTensor, C32};

/// SplitMix64: small, seedable and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[-1, 1)`.
    pub fn sym(&mut self) -> f64 {
        2.0 * self.uniform() - 1.0
    }

    /// Standard normal (Box-Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// A real Gaussian random field on a periodic grid of any rank: a sum of
/// every Fourier mode with `|k_a| <= kmax` on each axis, with normal
/// amplitudes under the Matérn-like spectrum `(|k|^2 + 9)^-1.25` and
/// uniform phases, scaled to unit RMS. In 1D this is a smooth random
/// Fourier series.
pub fn random_field(rng: &mut Rng, dims: &[usize], kmax: i64) -> Vec<C32> {
    let r = dims.len();
    let len: usize = dims.iter().product();
    let mut field = vec![0.0f64; len];
    let side = (2 * kmax + 1) as usize;
    let mut k = vec![0i64; r];
    for code in 0..side.pow(r as u32) {
        let mut c = code;
        for ka in k.iter_mut() {
            *ka = (c % side) as i64 - kmax;
            c /= side;
        }
        if k.iter().all(|&v| v == 0) {
            continue;
        }
        let k2: i64 = k.iter().map(|v| v * v).sum();
        let amp = rng.normal() * (k2 as f64 + 9.0).powf(-1.25);
        let phase = 2.0 * std::f64::consts::PI * rng.uniform();
        for (i, v) in field.iter_mut().enumerate() {
            // Flat index -> per-axis coordinates, innermost axis last.
            let (mut rest, mut theta) = (i, phase);
            for a in (0..r).rev() {
                let p = rest % dims[a];
                rest /= dims[a];
                theta += 2.0 * std::f64::consts::PI * (k[a] * p as i64) as f64 / dims[a] as f64;
            }
            *v += amp * theta.cos();
        }
    }
    let rms = (field.iter().map(|v| v * v).sum::<f64>() / len as f64).sqrt();
    field.iter().map(|v| C32::real((v / rms) as f32)).collect()
}

/// A `[batch, 1, ...dims]` tensor of independent random fields.
pub fn field_batch(rng: &mut Rng, batch: usize, dims: &[usize], kmax: i64) -> CTensor {
    let mut data = Vec::new();
    for _ in 0..batch {
        data.extend(random_field(rng, dims, kmax));
    }
    let mut shape = vec![batch, 1];
    shape.extend_from_slice(dims);
    CTensor::from_vec(data, &shape)
}

/// Real weight with entries uniform in `±1/i` (the scale the program's own
/// random models use for lift, bypass and projection).
fn real_weight(rng: &mut Rng, i: usize, o: usize) -> CTensor {
    let s = 1.0 / i as f64;
    CTensor::from_vec(
        (0..i * o)
            .map(|_| C32::real((rng.sym() * s) as f32))
            .collect(),
        &[i, o],
    )
}

/// Complex spectral weight with both lanes uniform in `±1/k`.
fn spectral_weight(rng: &mut Rng, k: usize) -> CTensor {
    let s = 1.0 / k as f64;
    CTensor::from_vec(
        (0..k * k)
            .map(|_| C32::new((rng.sym() * s) as f32, (rng.sym() * s) as f32))
            .collect(),
        &[k, k],
    )
}

/// A single-channel-in, single-channel-out FNO with fixed weights.
pub fn model(seed: u64, width: usize, layers: usize, dims: &[usize], modes: &[usize]) -> FnoNd {
    let mut rng = Rng::new(seed);
    FnoNd {
        lift: real_weight(&mut rng, 1, width),
        layers: (0..layers)
            .map(|_| {
                let weight = spectral_weight(&mut rng, width);
                FnoLayerNd {
                    spectral: SpectralConvNd::new(
                        width,
                        width,
                        dims.to_vec(),
                        modes.to_vec(),
                        weight,
                    ),
                    bypass: real_weight(&mut rng, width, width),
                }
            })
            .collect(),
        proj: real_weight(&mut rng, width, 1),
    }
}
