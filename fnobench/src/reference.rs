//! An independent f64 FNO forward: naive truncated DFTs per axis, the
//! shared-weight channel GEMM, zero-padded inverse DFTs, the pointwise
//! bypass and tanh-GELU, with lift and projection around them.
//!
//! It follows the program's documented conventions (unnormalized forward
//! DFT, `1/N` inverse, the first `m` modes kept on every axis) but shares
//! no code with it. [`cross_check`] pins it once per run against the
//! program's own naive f32 layer references.

use std::f64::consts::PI;
use tfno_model::FnoNd;
use tfno_num::reference::{fno_layer_1d, fno_layer_2d, fno_layer_3d};
use tfno_num::{CTensor, C32};

#[derive(Clone, Copy, Debug, Default)]
struct Z {
    re: f64,
    im: f64,
}

impl Z {
    fn of(c: C32) -> Z {
        Z {
            re: c.re as f64,
            im: c.im as f64,
        }
    }
    fn add(self, o: Z) -> Z {
        Z {
            re: self.re + o.re,
            im: self.im + o.im,
        }
    }
    fn mul(self, o: Z) -> Z {
        Z {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }
    fn scale(self, s: f64) -> Z {
        Z {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

fn to_z(t: &CTensor) -> Vec<Z> {
    t.data().iter().copied().map(Z::of).collect()
}

/// `y[b, o, s] = sum_i x[b, i, s] * w[i, o]`.
fn pointwise(x: &[Z], w: &[Z], batch: usize, k_in: usize, k_out: usize, spatial: usize) -> Vec<Z> {
    let mut y = vec![Z::default(); batch * k_out * spatial];
    for b in 0..batch {
        for i in 0..k_in {
            for o in 0..k_out {
                let wv = w[i * k_out + o];
                let xr = &x[(b * k_in + i) * spatial..][..spatial];
                let yr = &mut y[(b * k_out + o) * spatial..][..spatial];
                for (yv, xv) in yr.iter_mut().zip(xr) {
                    *yv = yv.add(xv.mul(wv));
                }
            }
        }
    }
    y
}

/// Transform one axis of a `[outer, from, inner]` array into
/// `[outer, to, inner]`: forward keeps the first `to` of `from` DFT bins;
/// inverse reads `from` retained bins as a zero-padded length-`to` spectrum
/// and applies `1/to`.
fn axis_dft(x: &[Z], outer: usize, from: usize, to: usize, inner: usize, inverse: bool) -> Vec<Z> {
    let n = if inverse { to } else { from };
    let sign = if inverse { 1.0 } else { -1.0 };
    let tw: Vec<Z> = (0..n)
        .map(|k| {
            let a = sign * 2.0 * PI * k as f64 / n as f64;
            Z {
                re: a.cos(),
                im: a.sin(),
            }
        })
        .collect();
    let scale = if inverse { 1.0 / n as f64 } else { 1.0 };
    let mut y = vec![Z::default(); outer * to * inner];
    for o in 0..outer {
        for t in 0..to {
            for s in 0..from {
                let w = tw[(t * s) % n];
                let src = &x[(o * from + s) * inner..][..inner];
                let dst = &mut y[(o * to + t) * inner..][..inner];
                for (d, v) in dst.iter_mut().zip(src) {
                    *d = d.add(v.mul(w));
                }
            }
        }
    }
    if inverse {
        for v in &mut y {
            *v = v.scale(scale);
        }
    }
    y
}

/// One spectral convolution `[batch, k, ...dims] -> [batch, k_out, ...dims]`.
fn spectral(
    x: &[Z],
    w: &[Z],
    batch: usize,
    k_in: usize,
    k_out: usize,
    dims: &[usize],
    modes: &[usize],
) -> Vec<Z> {
    let r = dims.len();
    // Forward, innermost axis first; the shape evolves from dims to modes.
    let mut shape: Vec<usize> = dims.to_vec();
    let mut cur = x.to_vec();
    for a in (0..r).rev() {
        let outer = batch * k_in * shape[..a].iter().product::<usize>();
        let inner: usize = shape[a + 1..].iter().product();
        cur = axis_dft(&cur, outer, shape[a], modes[a], inner, false);
        shape[a] = modes[a];
    }
    let m: usize = modes.iter().product();
    let yf = pointwise(&cur, w, batch, k_in, k_out, m);
    let mut cur = yf;
    for a in 0..r {
        let outer = batch * k_out * shape[..a].iter().product::<usize>();
        let inner: usize = shape[a + 1..].iter().product();
        cur = axis_dft(&cur, outer, shape[a], dims[a], inner, true);
        shape[a] = dims[a];
    }
    cur
}

fn gelu(v: f64) -> f64 {
    0.5 * v * (1.0 + ((2.0 / PI).sqrt() * (v + 0.044715 * v * v * v)).tanh())
}

/// An f64 copy of a model's weights.
pub struct RefModel {
    lift: Vec<Z>,
    layers: Vec<(Vec<Z>, Vec<Z>)>,
    proj: Vec<Z>,
    width: usize,
    dims: Vec<usize>,
    modes: Vec<usize>,
}

impl RefModel {
    pub fn new(m: &FnoNd) -> Self {
        let s = &m.layers[0].spectral;
        RefModel {
            lift: to_z(&m.lift),
            layers: m
                .layers
                .iter()
                .map(|l| (to_z(&l.spectral.weight), to_z(&l.bypass)))
                .collect(),
            proj: to_z(&m.proj),
            width: s.k_in,
            dims: s.dims.clone(),
            modes: s.modes.clone(),
        }
    }

    /// Forward of a `[batch, 1, ...dims]` input.
    pub fn forward(&self, x: &CTensor) -> Vec<C32> {
        let batch = x.shape()[0];
        let sp: usize = self.dims.iter().product();
        let k = self.width;
        let mut h = pointwise(&to_z(x), &self.lift, batch, 1, k, sp);
        for (w, bypass) in &self.layers {
            let s = spectral(&h, w, batch, k, k, &self.dims, &self.modes);
            let p = pointwise(&h, bypass, batch, k, k, sp);
            h = s
                .iter()
                .zip(&p)
                .map(|(a, b)| {
                    let v = a.add(*b);
                    Z {
                        re: gelu(v.re),
                        im: gelu(v.im),
                    }
                })
                .collect();
        }
        pointwise(&h, &self.proj, batch, k, 1, sp)
            .iter()
            .map(|z| C32::new(z.re as f32, z.im as f32))
            .collect()
    }
}

/// Relative L2 distance `|got - want| / |want|`, in f64.
pub fn rel_l2(got: &[C32], want: &[C32]) -> f64 {
    assert_eq!(got.len(), want.len(), "output length mismatch");
    let (mut num, mut den) = (0.0f64, 0.0f64);
    for (g, w) in got.iter().zip(want) {
        let (dr, di) = (g.re as f64 - w.re as f64, g.im as f64 - w.im as f64);
        num += dr * dr + di * di;
        den += (w.re as f64).powi(2) + (w.im as f64).powi(2);
    }
    (num / den.max(f64::MIN_POSITIVE)).sqrt()
}

/// Largest relative L2 distance between this module's spectral layer and
/// the program's naive f32 layer references (`fno_layer_{1d,2d,3d}`) on
/// small seeded problems, one per rank.
pub fn cross_check(rng: &mut crate::inputs::Rng) -> f64 {
    let cases: [(&[usize], &[usize]); 3] =
        [(&[32], &[8]), (&[8, 16], &[4, 8]), (&[4, 8, 8], &[2, 4, 4])];
    let (batch, k_in, k_out) = (2, 3, 4);
    let mut worst = 0.0f64;
    for (dims, modes) in cases {
        let mut shape = vec![batch, k_in];
        shape.extend_from_slice(dims);
        let len: usize = shape.iter().product();
        let mut rand = |n: usize| -> Vec<C32> {
            (0..n)
                .map(|_| C32::new(rng.sym() as f32, rng.sym() as f32))
                .collect()
        };
        let x = CTensor::from_vec(rand(len), &shape);
        let w = CTensor::from_vec(rand(k_in * k_out), &[k_in, k_out]);
        let theirs = match *modes {
            [m] => fno_layer_1d(&x, &w, m),
            [mx, my] => fno_layer_2d(&x, &w, mx, my),
            [mx, my, mz] => fno_layer_3d(&x, &w, mx, my, mz),
            _ => unreachable!("ranks 1..=3 only"),
        };
        let ours: Vec<C32> = spectral(&to_z(&x), &to_z(&w), batch, k_in, k_out, dims, modes)
            .iter()
            .map(|z| C32::new(z.re as f32, z.im as f32))
            .collect();
        worst = worst.max(rel_l2(&ours, theirs.data()));
    }
    worst
}
