//! Measurement-noise models applied to the clean synthetic signals.
//!
//! Three additive components reproduce what a wearable front-end sees:
//! white sensor noise, slow baseline wander (respiration/motion), and
//! power-line hum.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Configuration of the additive noise mix.
///
/// A component whose amplitude is `0.0` costs nothing: [`apply`] skips
/// white noise with a `white_sigma` of `0.0` and either sinusoid with an
/// amplitude of `0.0` instead of adding their `±0` to every sample, and
/// [`apply_turbo`] skips silent white noise and a silent hum (every
/// subject's ABP hum is silent).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseParams {
    /// Standard deviation of white Gaussian noise, in signal units.
    pub white_sigma: f64,
    /// Amplitude of the baseline-wander sinusoid, in signal units.
    pub wander_amp: f64,
    /// Baseline-wander frequency in Hz (respiration band, ~0.1–0.4 Hz).
    pub wander_hz: f64,
    /// Amplitude of power-line hum, in signal units.
    pub hum_amp: f64,
    /// Power-line frequency in Hz (50 or 60).
    pub hum_hz: f64,
}

impl Default for NoiseParams {
    fn default() -> Self {
        Self {
            white_sigma: 0.01,
            wander_amp: 0.04,
            wander_hz: 0.23,
            hum_amp: 0.004,
            hum_hz: 60.0,
        }
    }
}

impl NoiseParams {
    /// A silent configuration (no noise at all); useful in tests.
    // lint:allow(cg-unreached, fixture: the silent noise mix the noise and record tests isolate clean waveforms with)
    pub fn none() -> Self {
        Self {
            white_sigma: 0.0,
            wander_amp: 0.0,
            wander_hz: 0.25,
            hum_amp: 0.0,
            hum_hz: 60.0,
        }
    }
}

/// Samples per pass of [`apply`]: each libm call of the mix runs over a
/// block of this many samples in a loop of its own.
pub(crate) const BLOCK: usize = 128;

/// Add the configured noise mix in place to `signal`, which holds the
/// samples `start..start + signal.len()` of a trace, deterministically
/// from `seed`.
///
/// The white component draws two uniforms per sample from one stream,
/// so the samples before `start` only advance it by their two draws
/// each: a sub-range is bit-identical to the same samples of the whole
/// trace noised from `start = 0`.
///
/// The mix is computed in passes over blocks of `BLOCK` samples: the
/// uniforms, the Box–Muller `ln` and `cos`, the sample times, the
/// wander `sin`, the hum `sin`, and last the sum. Each sample still
/// sums `0 + σ·g`, then the wander, then the hum, so its bits are
/// those of the per-sample loop `oracle::apply` keeps.
pub fn apply(signal: &mut [f64], params: &NoiseParams, fs: f64, seed: u64, start: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let two_pi = 2.0 * std::f64::consts::PI;
    // Random phases so different records don't share wander alignment.
    let wander_phase: f64 = rng.gen_range(0.0..two_pi);
    let hum_phase: f64 = rng.gen_range(0.0..two_pi);
    let white = params.white_sigma > 0.0;
    let (wander, hum) = (params.wander_amp != 0.0, params.hum_amp != 0.0);
    if white {
        // Each uniform is one raw word of the stream.
        for _ in 0..2 * start {
            rng.next_u64();
        }
    }
    let (mut ln_u1, mut cos_u2) = ([0.0; BLOCK], [0.0; BLOCK]);
    let (mut t, mut add) = ([0.0; BLOCK], [0.0; BLOCK]);
    for (first, block) in (start..).step_by(BLOCK).zip(signal.chunks_mut(BLOCK)) {
        let n = block.len();
        let (ln_u1, cos_u2) = (&mut ln_u1[..n], &mut cos_u2[..n]);
        let (t, add) = (&mut t[..n], &mut add[..n]);
        // `add` starts at +0 and a round-to-nearest sum is −0 only when
        // both terms are, so it is never −0: adding the ±0 a silent
        // sinusoid would contribute leaves it unchanged, bit for bit.
        if white {
            for (l, c) in ln_u1.iter_mut().zip(cos_u2.iter_mut()) {
                *l = rng.gen_range(f64::EPSILON..1.0);
                *c = rng.gen_range(0.0..1.0);
            }
            ln_u1.iter_mut().for_each(|u1| *u1 = u1.ln());
            cos_u2.iter_mut().for_each(|u2| *u2 = (two_pi * *u2).cos());
            for ((a, &l), &c) in add.iter_mut().zip(&*ln_u1).zip(&*cos_u2) {
                let gauss = (-2.0 * l).sqrt() * c;
                *a = 0.0 + params.white_sigma * gauss;
            }
        } else {
            add.fill(0.0);
        }
        for (t, i) in t.iter_mut().zip(first..) {
            *t = i as f64 / fs;
        }
        if wander {
            for (a, &t) in add.iter_mut().zip(&*t) {
                *a += params.wander_amp * (two_pi * params.wander_hz * t + wander_phase).sin();
            }
        }
        if hum {
            for (a, &t) in add.iter_mut().zip(&*t) {
                *a += params.hum_amp * (two_pi * params.hum_hz * t + hum_phase).sin();
            }
        }
        for (x, &a) in block.iter_mut().zip(&*add) {
            *x += a;
        }
    }
}

/// Minimal SplitMix64 generator for the turbo noise path: one add and
/// three xor-shift-multiplies per draw, an order of magnitude cheaper
/// than the `StdRng` ChaCha rounds behind [`apply`].
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Add the configured noise mix to `signal` in place with the
/// throughput-first generators: the two sinusoids advance by phasor
/// rotation instead of a `sin` call per sample, and the white component
/// is Irwin–Hall(4) Gaussian-approximate noise — the four 16-bit lanes
/// of one SplitMix64 draw, summed and centered, which matches the
/// configured `white_sigma` exactly in mean and variance but truncates
/// the distribution at ±3.46σ. A different (faster) generator than
/// [`apply`], deliberately: fleet-scale callers opt in through
/// [`crate::record::SynthProfile::Turbo`]. A hum of amplitude `0.0` is
/// not rotated or added at all; that drops a `±0` term, which could
/// change only the sign of a zero noise sum.
pub fn apply_turbo(signal: &mut [f64], params: &NoiseParams, fs: f64, seed: u64) {
    let two_pi = 2.0 * std::f64::consts::PI;
    let mut rng = SplitMix64(seed);
    // Random phases so different records don't share wander alignment.
    let wander_phase = rng.next_f64() * two_pi;
    let hum_phase = rng.next_f64() * two_pi;
    let (mut w_s, mut w_c) = wander_phase.sin_cos();
    let (w_rs, w_rc) = (two_pi * params.wander_hz / fs).sin_cos();
    let (mut h_s, mut h_c) = hum_phase.sin_cos();
    let (h_rs, h_rc) = (two_pi * params.hum_hz / fs).sin_cos();
    // Four u16 lanes per draw: each is uniform with variance
    // (2^32 − 1)/12, so the centered sum scaled by `k` has standard
    // deviation exactly `white_sigma`.
    let k = params.white_sigma / (4.0 * (65536.0f64 * 65536.0 - 1.0) / 12.0).sqrt();
    let white = params.white_sigma > 0.0;
    let hum = params.hum_amp != 0.0;
    for x in signal.iter_mut() {
        let mut add = params.wander_amp * w_s;
        if hum {
            add += params.hum_amp * h_s;
            let hn = h_s * h_rc + h_c * h_rs;
            h_c = h_c * h_rc - h_s * h_rs;
            h_s = hn;
        }
        if white {
            let bits = rng.next_u64();
            let sum = (bits & 0xFFFF)
                + ((bits >> 16) & 0xFFFF)
                + ((bits >> 32) & 0xFFFF)
                + (bits >> 48);
            add += (sum as f64 - 2.0 * 65535.0) * k;
        }
        *x += add;
        let wn = w_s * w_rc + w_c * w_rs;
        w_c = w_c * w_rc - w_s * w_rs;
        w_s = wn;
    }
}

/// The noise mix before the zero-amplitude skip: both sinusoids at
/// every sample, whatever their amplitude. Kept only as the oracle
/// [`apply`] must match bit for bit.
#[cfg(test)]
pub(crate) mod oracle {
    use super::NoiseParams;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    pub(crate) fn apply(
        signal: &mut [f64],
        params: &NoiseParams,
        fs: f64,
        seed: u64,
        start: usize,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let two_pi = 2.0 * std::f64::consts::PI;
        let wander_phase: f64 = rng.gen_range(0.0..two_pi);
        let hum_phase: f64 = rng.gen_range(0.0..two_pi);
        let white = params.white_sigma > 0.0;
        let mut uniforms =
            move || -> (f64, f64) { (rng.gen_range(f64::EPSILON..1.0), rng.gen_range(0.0..1.0)) };
        if white {
            for _ in 0..start {
                uniforms();
            }
        }
        for (i, x) in (start..).zip(signal.iter_mut()) {
            let t = i as f64 / fs;
            let mut add = 0.0;
            if white {
                let (u1, u2) = uniforms();
                let gauss = (-2.0 * u1.ln()).sqrt() * (two_pi * u2).cos();
                add += params.white_sigma * gauss;
            }
            add += params.wander_amp * (two_pi * params.wander_hz * t + wander_phase).sin();
            add += params.hum_amp * (two_pi * params.hum_hz * t + hum_phase).sin();
            *x += add;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_identity() {
        let mut sig = vec![1.0; 100];
        apply(&mut sig, &NoiseParams::none(), 360.0, 1, 0);
        assert!(sig.iter().all(|x| (*x - 1.0).abs() < 1e-12));
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = vec![0.0; 500];
        let mut b = vec![0.0; 500];
        let p = NoiseParams::default();
        apply(&mut a, &p, 360.0, 9, 0);
        apply(&mut b, &p, 360.0, 9, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = vec![0.0; 500];
        let mut b = vec![0.0; 500];
        let p = NoiseParams::default();
        apply(&mut a, &p, 360.0, 1, 0);
        apply(&mut b, &p, 360.0, 2, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn white_noise_sigma_approximately_respected() {
        let mut sig = vec![0.0; 20000];
        let p = NoiseParams {
            white_sigma: 0.5,
            wander_amp: 0.0,
            hum_amp: 0.0,
            ..NoiseParams::default()
        };
        apply(&mut sig, &p, 360.0, 4, 0);
        let sd = dsp::stats::std_dev(&sig).unwrap();
        assert!((sd - 0.5).abs() < 0.05, "sd={sd}");
    }

    #[test]
    fn turbo_none_is_identity() {
        let mut sig = vec![1.0; 100];
        apply_turbo(&mut sig, &NoiseParams::none(), 360.0, 1);
        assert!(sig.iter().all(|x| (*x - 1.0).abs() < 1e-12));
    }

    #[test]
    fn turbo_deterministic_and_seed_sensitive() {
        let p = NoiseParams::default();
        let mut a = vec![0.0; 500];
        let mut b = vec![0.0; 500];
        let mut c = vec![0.0; 500];
        apply_turbo(&mut a, &p, 360.0, 9);
        apply_turbo(&mut b, &p, 360.0, 9);
        apply_turbo(&mut c, &p, 360.0, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn turbo_white_noise_moments_and_support() {
        let mut sig = vec![0.0; 50000];
        let p = NoiseParams {
            white_sigma: 0.5,
            wander_amp: 0.0,
            hum_amp: 0.0,
            ..NoiseParams::default()
        };
        apply_turbo(&mut sig, &p, 360.0, 4);
        let mean = sig.iter().sum::<f64>() / sig.len() as f64;
        let sd = dsp::stats::std_dev(&sig).unwrap();
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((sd - 0.5).abs() < 0.02, "sd={sd}");
        // Irwin–Hall(4) is bounded at ±2·65535·k ≈ ±3.46σ.
        let bound = 2.0 * 65535.0 * (0.5 / (4.0 * (65536.0f64 * 65536.0 - 1.0) / 12.0).sqrt());
        assert!(sig.iter().all(|x| x.abs() <= bound + 1e-12));
        assert!((bound - 3.46 * 0.5).abs() < 0.01, "bound={bound}");
    }

    #[test]
    fn turbo_sinusoids_match_reference_phasors() {
        // With white noise off, both paths add deterministic sinusoids;
        // the turbo phasor recurrence must track a direct sin() render.
        let p = NoiseParams {
            white_sigma: 0.0,
            wander_amp: 0.3,
            wander_hz: 0.23,
            hum_amp: 0.1,
            hum_hz: 60.0,
        };
        let mut sig = vec![0.0; 10800]; // 30 s at 360 Hz
        apply_turbo(&mut sig, &p, 360.0, 7);
        // Recover the phases the generator drew, then compare directly.
        let mut rng = SplitMix64(7);
        let two_pi = 2.0 * std::f64::consts::PI;
        let wander_phase = rng.next_f64() * two_pi;
        let hum_phase = rng.next_f64() * two_pi;
        for (i, &v) in sig.iter().enumerate() {
            let t = i as f64 / 360.0;
            let direct = 0.3 * (two_pi * 0.23 * t + wander_phase).sin()
                + 0.1 * (two_pi * 60.0 * t + hum_phase).sin();
            assert!((v - direct).abs() < 1e-9, "sample {i}: {v} vs {direct}");
        }
    }

    #[test]
    fn blocks_match_the_oracle_at_every_edge() {
        const B: usize = BLOCK;
        let full = NoiseParams {
            white_sigma: 0.02,
            wander_amp: 0.05,
            wander_hz: 0.23,
            hum_amp: 0.004,
            hum_hz: 60.0,
        };
        // The whole mix, then each component silenced in turn.
        let mixes = [
            full,
            NoiseParams {
                white_sigma: 0.0,
                ..full
            },
            NoiseParams {
                wander_amp: 0.0,
                ..full
            },
            NoiseParams {
                hum_amp: 0.0,
                ..full
            },
        ];
        for params in &mixes {
            for len in [0, 1, B - 1, B, B + 1, 3 * B + 7] {
                for start in [0, 1, B - 1, B, B + 1, 5760] {
                    let base: Vec<f64> = (0..len).map(|i| 0.5 + i as f64 * 1e-3).collect();
                    let (mut got, mut want) = (base.clone(), base);
                    apply(&mut got, params, 360.0, 0xB10C, start);
                    oracle::apply(&mut want, params, 360.0, 0xB10C, start);
                    let what = format!("{params:?}, {len} samples from {start}");
                    let diff = (0..len).find(|&i| got[i].to_bits() != want[i].to_bits());
                    assert_eq!(diff, None, "{what}");
                }
            }
        }
    }

    #[test]
    fn wander_bounded_by_amplitude() {
        let mut sig = vec![0.0; 5000];
        let p = NoiseParams {
            white_sigma: 0.0,
            wander_amp: 0.3,
            hum_amp: 0.0,
            ..NoiseParams::default()
        };
        apply(&mut sig, &p, 360.0, 5, 0);
        let (lo, hi) = dsp::stats::min_max(&sig).unwrap();
        assert!(lo >= -0.31 && hi <= 0.31);
        assert!(hi - lo > 0.3, "wander should actually oscillate");
    }
}
