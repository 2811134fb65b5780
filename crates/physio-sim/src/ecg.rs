//! ECG waveform synthesis.
//!
//! Each cardiac cycle is rendered as a sum of five Gaussian bumps — the
//! P, Q, R, S and T waves — positioned relative to the beat's R peak and
//! mildly stretched with the instantaneous RR interval (long beats have
//! proportionally later T waves, as in real ECG). This is the
//! sum-of-Gaussians morphology used by the well-known ECGSYN model,
//! without its phase-oscillator integration, which is unnecessary at the
//! fidelity SIFT needs.

use std::ops::Range;

/// Shape of one wave component: a Gaussian bump.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wave {
    /// Peak amplitude in millivolts (negative for Q and S).
    pub amplitude_mv: f64,
    /// Center offset from the R peak, in seconds (negative = before R).
    /// Offsets of the P and T waves scale with the RR interval.
    pub offset_s: f64,
    /// Gaussian standard deviation, in seconds.
    pub width_s: f64,
}

impl Wave {
    /// Hoist the per-beat constants (the RR stretch `powf`, the scaled
    /// center, the Gaussian denominator) so the per-sample evaluation
    /// ([`PreparedWave::at`]) is pure arithmetic plus one `exp`.
    ///
    /// `rr_scaling` is the exponent applied to `rr / rr_ref` when
    /// stretching the offset: `1.0` moves the wave proportionally with the
    /// beat length, `0.0` pins it.
    fn prepare(&self, rr: f64, rr_scaling: f64) -> PreparedWave {
        const RR_REF: f64 = 60.0 / 65.0;
        let stretch = (rr / RR_REF).powf(rr_scaling);
        PreparedWave {
            amplitude_mv: self.amplitude_mv,
            center_s: self.offset_s * stretch,
            denom: 2.0 * self.width_s * self.width_s,
        }
    }
}

/// One wave with its beat-dependent constants folded in (see
/// [`Wave::prepare`]).
#[derive(Debug, Clone, Copy)]
struct PreparedWave {
    amplitude_mv: f64,
    center_s: f64,
    denom: f64,
}

impl PreparedWave {
    fn at(&self, tau: f64) -> f64 {
        let d = tau - self.center_s;
        self.amplitude_mv * (-d * d / self.denom).exp()
    }
}

/// Morphology of one subject's ECG: the five PQRST components.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EcgMorphology {
    /// P wave (atrial depolarization).
    pub p: Wave,
    /// Q wave.
    pub q: Wave,
    /// R wave (the dominant spike SIFT keys on).
    pub r: Wave,
    /// S wave.
    pub s: Wave,
    /// T wave (ventricular repolarization).
    pub t: Wave,
}

impl Default for EcgMorphology {
    fn default() -> Self {
        Self {
            p: Wave {
                amplitude_mv: 0.12,
                offset_s: -0.17,
                width_s: 0.025,
            },
            q: Wave {
                amplitude_mv: -0.10,
                offset_s: -0.035,
                width_s: 0.010,
            },
            r: Wave {
                amplitude_mv: 1.0,
                offset_s: 0.0,
                width_s: 0.011,
            },
            s: Wave {
                amplitude_mv: -0.17,
                offset_s: 0.035,
                width_s: 0.010,
            },
            t: Wave {
                amplitude_mv: 0.30,
                offset_s: 0.30,
                width_s: 0.055,
            },
        }
    }
}

impl EcgMorphology {
    /// Iterate over the five waves (P, Q, R, S, T order).
    pub fn waves(&self) -> [&Wave; 5] {
        [&self.p, &self.q, &self.r, &self.s, &self.t]
    }

    /// Prepare the five waves for a fixed RR interval, so the per-beat
    /// stretch `powf`s run once here instead of once per sample;
    /// [`PreparedMorphology::at`] then evaluates the PQRST complex at
    /// `tau` seconds from the R peak, summing in P, Q, R, S, T order.
    fn prepare(&self, rr: f64) -> PreparedMorphology {
        PreparedMorphology {
            // P and T track the beat length; the QRS complex is rigid.
            waves: [
                self.p.prepare(rr, 1.0),
                self.q.prepare(rr, 0.0),
                self.r.prepare(rr, 0.0),
                self.s.prepare(rr, 0.0),
                self.t.prepare(rr, 0.6),
            ],
        }
    }
}

/// A PQRST complex with beat-dependent constants hoisted.
#[derive(Debug, Clone, Copy)]
struct PreparedMorphology {
    waves: [PreparedWave; 5],
}

impl PreparedMorphology {
    fn at(&self, tau: f64) -> f64 {
        self.waves[0].at(tau)
            + self.waves[1].at(tau)
            + self.waves[2].at(tau)
            + self.waves[3].at(tau)
            + self.waves[4].at(tau)
    }

    /// The P and T waves alone: what [`PreparedMorphology::at`] sums
    /// outside [`PreparedMorphology::qrs_reach`] (see [`render`]).
    fn p_t(&self, tau: f64) -> f64 {
        self.waves[0].at(tau) + self.waves[4].at(tau)
    }

    /// The `tau` interval outside which Q, R and S all have exponents
    /// below [`UNDERFLOW_EXP`]. The three are rigid, so it is the same
    /// for both stretches of a beat.
    fn qrs_reach(&self) -> (f64, f64) {
        self.waves[1..4]
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), w| {
                let half = (-UNDERFLOW_EXP * w.denom).sqrt();
                (lo.min(w.center_s - half), hi.max(w.center_s + half))
            })
    }
}

/// Exponent below which the Reference kernels skip a Gaussian term.
/// `e^-708 ≈ 3.3e-308` is the bottom of libm's normal range, so a
/// skipped term is at most `|amplitude|·3.3e-308`, and exactly ±0
/// below `-745.2`. It is below half an ulp of any sum larger than
/// `2^54` times that (about `6e-292·|amplitude|`), so adding it to such
/// a sum leaves every bit unchanged. These are also the costly calls:
/// `exp` takes about ten times longer when its result is subnormal.
pub(crate) const UNDERFLOW_EXP: f64 = -708.0;

/// Add `amp · exp(−(i/fs − center_t)² / (2σ²))` to `out[lo..hi]`,
/// truncated to the ±5σ support, using the Gaussian double-recurrence:
/// with `g_i` the Gaussian at sample `i`, the ratio `r_i = g_{i+1}/g_i`
/// itself shrinks by the constant `q = exp(−dt²/σ²)` each step, so the
/// whole run is two multiplies per sample after a two-`exp` warm-up.
/// Beyond 5σ the bump is below `3.8e-6·amp` — that truncation is the
/// only deviation from evaluating `exp` per sample.
pub(crate) fn add_gauss_run(
    out: &mut [f64],
    lo: usize,
    hi: usize,
    fs: f64,
    center_t: f64,
    amp: f64,
    sigma: f64,
) {
    let dt = 1.0 / fs;
    let i0 = (((center_t - 5.0 * sigma) * fs).ceil().max(lo as f64)) as usize;
    let i1 = ((((center_t + 5.0 * sigma) * fs).floor() + 1.0).max(0.0) as usize).min(hi);
    if i1 <= i0 {
        return;
    }
    let inv_denom = 1.0 / (2.0 * sigma * sigma);
    let d0 = i0 as f64 * dt - center_t;
    let mut g = amp * (-d0 * d0 * inv_denom).exp();
    let mut r = (-(2.0 * d0 * dt + dt * dt) * inv_denom).exp();
    let q = (-2.0 * dt * dt * inv_denom).exp();
    for v in &mut out[i0..i1] {
        *v += g;
        g *= r;
        r *= q;
    }
}

/// Render a noise-free ECG trace with the throughput-first kernels: each
/// wave renders only its ±5σ support and the Gaussian is advanced by the
/// [`add_gauss_run`] double-recurrence instead of one `exp` per sample
/// per wave. Output differs from [`render`] by at most the 5σ truncation
/// (`< 4e-6` mV); fleet-scale callers opt in through
/// [`crate::record::SynthProfile::Turbo`].
pub fn render_turbo(
    morph: &EcgMorphology,
    r_times: &[f64],
    duration_s: f64,
    fs: f64,
) -> (Vec<f64>, Vec<usize>) {
    let n = (duration_s * fs).round() as usize;
    let mut out = vec![0.0f64; n];
    // P and T track the beat length; the QRS complex is rigid (the same
    // split as `EcgMorphology::prepare`).
    const SCALINGS: [f64; 5] = [1.0, 0.0, 0.0, 0.0, 0.6];
    for (k, &rt) in r_times.iter().enumerate() {
        let rr_prev = if k > 0 { rt - r_times[k - 1] } else { 0.9 };
        let rr_next = if k + 1 < r_times.len() {
            r_times[k + 1] - rt
        } else {
            rr_prev
        };
        let lo = ((rt - 0.6 * rr_prev) * fs).floor().max(0.0) as usize;
        let hi = (((rt + 0.75 * rr_next) * fs).ceil() as usize).min(n);
        if lo >= hi {
            continue; // beat support entirely outside the record
        }
        // First sample at or after the R peak: samples before it stretch
        // with the previous beat, samples from it on with the next.
        let split = (((rt * fs).ceil().max(0.0)) as usize).clamp(lo, hi);
        for (wave, &scaling) in morph.waves().iter().zip(&SCALINGS) {
            if scaling == 0.0 {
                // Rigid wave: both stretches are 1, one continuous run.
                let c = rt + wave.offset_s;
                add_gauss_run(&mut out, lo, hi, fs, c, wave.amplitude_mv, wave.width_s);
            } else {
                let before = rt + wave.prepare(rr_prev, scaling).center_s;
                add_gauss_run(&mut out, lo, split, fs, before, wave.amplitude_mv, wave.width_s);
                let after = rt + wave.prepare(rr_next, scaling).center_s;
                add_gauss_run(&mut out, split, hi, fs, after, wave.amplitude_mv, wave.width_s);
            }
        }
    }
    let r_peaks = r_times
        .iter()
        .map(|t| (t * fs).round() as usize)
        .filter(|&i| i < n)
        .collect();
    (out, r_peaks)
}

/// Render the samples `range` of a noise-free ECG trace.
///
/// `r_times` are R-peak times in seconds (as produced by
/// [`crate::rr::RrProcess::beat_times`]); the trace covers
/// `duration_s` at `fs` Hz, and `range` is clamped to it. Returns the
/// rendered samples (element `i` is trace sample `range.start + i`) and
/// the ground-truth R-peak sample indices that fall inside the range.
/// Every sample is a function of its own index and the beat train
/// alone, so a sub-range is bit-identical to the same samples of the
/// whole trace `0..n`.
///
/// Each beat evaluates Q, R and S only on the samples where one of
/// their exponents is at least [`UNDERFLOW_EXP`] (about ±0.4 s of its R
/// peak), and P and T alone on the rest of its support. This is bit for
/// bit the sum of all five waves at every sample: the Q, R and S terms
/// left out are ±0 or below `4.4e-308` mV, and where they are not
/// exactly zero (within `0.5` s of the R peak) the P and T waves add
/// up to many orders of magnitude more than the `6e-292` mV that such
/// a term could move.
pub fn render(
    morph: &EcgMorphology,
    r_times: &[f64],
    duration_s: f64,
    fs: f64,
    range: Range<usize>,
) -> (Vec<f64>, Vec<usize>) {
    let n = (duration_s * fs).round() as usize;
    let (first, end) = (range.start.min(n), range.end.min(n));
    let mut out = vec![0.0f64; end.saturating_sub(first)];
    // Each beat contributes only within ±0.6·RR of its R peak, so render
    // beat-locally instead of summing all beats per sample.
    for (k, &rt) in r_times.iter().enumerate() {
        let rr_prev = if k > 0 { rt - r_times[k - 1] } else { 0.9 };
        let rr_next = if k + 1 < r_times.len() {
            r_times[k + 1] - rt
        } else {
            rr_prev
        };
        let lo = (((rt - 0.6 * rr_prev) * fs).floor().max(0.0) as usize).max(first);
        let hi = (((rt + 0.75 * rr_next) * fs).ceil() as usize).min(end);
        if lo >= hi {
            continue; // beat support outside the range
        }
        // The beat whose R peak this is: use next RR for waves after
        // R (T wave), previous RR for waves before it (P wave). Both
        // stretches are fixed for the beat, so the five per-wave
        // `powf`s are hoisted out of the sample loop.
        let before = morph.prepare(rr_prev);
        let after = morph.prepare(rr_next);
        // Split the beat into P+T stretches around one five-wave stretch
        // `q_lo..q_hi`, padded by a sample against rounding. Choosing
        // the waves per sample instead ran slower than evaluating all
        // five everywhere.
        let (reach_lo, reach_hi) = after.qrs_reach();
        let q_lo = (((rt + reach_lo) * fs).floor() - 1.0)
            .max(lo as f64)
            .min(hi as f64) as usize;
        let q_hi = (((rt + reach_hi) * fs).ceil() + 2.0)
            .min(hi as f64)
            .max(q_lo as f64) as usize;
        let (pre, rest) = out[lo - first..hi - first].split_at_mut(q_lo - lo);
        let (qrs, post) = rest.split_at_mut(q_hi - q_lo);
        let sides = [&before, &after];
        add_beat(pre, lo, fs, rt, sides, PreparedMorphology::p_t);
        add_beat(qrs, q_lo, fs, rt, sides, PreparedMorphology::at);
        add_beat(post, q_hi, fs, rt, sides, PreparedMorphology::p_t);
    }
    let r_peaks = r_times
        .iter()
        .map(|t| (t * fs).round() as usize)
        .filter(|i| (first..end).contains(i))
        .collect();
    (out, r_peaks)
}

/// Add `waves` of the beat whose R peak is at `rt` to `out`, whose
/// element 0 is trace sample `from`: at the previous beat's stretch
/// before the R peak and at the next one's from it on.
fn add_beat(
    out: &mut [f64],
    from: usize,
    fs: f64,
    rt: f64,
    [before, after]: [&PreparedMorphology; 2],
    waves: impl Fn(&PreparedMorphology, f64) -> f64,
) {
    for (i, sample) in (from..).zip(out) {
        let tau = i as f64 / fs - rt;
        let prepared = if tau >= 0.0 { after } else { before };
        *sample += waves(prepared, tau);
    }
}

/// The per-sample renderer [`render`] replaced: every wave's `exp` at
/// every sample of a beat's support. Kept only as the oracle the
/// Reference kernel must match bit for bit.
#[cfg(test)]
pub(crate) mod oracle {
    use super::EcgMorphology;
    use std::ops::Range;

    pub(crate) fn render(
        morph: &EcgMorphology,
        r_times: &[f64],
        duration_s: f64,
        fs: f64,
        range: Range<usize>,
    ) -> (Vec<f64>, Vec<usize>) {
        let n = (duration_s * fs).round() as usize;
        let (first, end) = (range.start.min(n), range.end.min(n));
        let mut out = vec![0.0f64; end.saturating_sub(first)];
        for (k, &rt) in r_times.iter().enumerate() {
            let rr_prev = if k > 0 { rt - r_times[k - 1] } else { 0.9 };
            let rr_next = if k + 1 < r_times.len() {
                r_times[k + 1] - rt
            } else {
                rr_prev
            };
            let lo = (((rt - 0.6 * rr_prev) * fs).floor().max(0.0) as usize).max(first);
            let hi = (((rt + 0.75 * rr_next) * fs).ceil() as usize).min(end);
            if lo >= hi {
                continue;
            }
            let before = morph.prepare(rr_prev);
            let after = morph.prepare(rr_next);
            for (i, sample) in (lo..hi).zip(&mut out[lo - first..hi - first]) {
                let tau = i as f64 / fs - rt;
                let prepared = if tau >= 0.0 { &after } else { &before };
                *sample += prepared.at(tau);
            }
        }
        let r_peaks = r_times
            .iter()
            .map(|t| (t * fs).round() as usize)
            .filter(|i| (first..end).contains(i))
            .collect();
        (out, r_peaks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r_peak_is_global_max_of_clean_beat() {
        let m = EcgMorphology::default();
        let fs = 360.0;
        let (sig, peaks) = render(&m, &[1.0, 1.9, 2.8], 3.5, fs, 0..1260);
        for &p in &peaks {
            // R sample should dominate its ±0.3 s neighbourhood.
            let lo = p.saturating_sub(100);
            let hi = (p + 100).min(sig.len());
            let local_max = sig[lo..hi]
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max);
            assert!((sig[p] - local_max).abs() < 1e-9, "peak at {p}");
        }
    }

    #[test]
    fn morphology_far_from_beat_is_tiny() {
        let m = EcgMorphology::default();
        assert!(m.prepare(0.9).at(5.0).abs() < 1e-12);
        assert!(m.prepare(0.9).at(-5.0).abs() < 1e-12);
    }

    #[test]
    fn r_amplitude_dominates() {
        let m = EcgMorphology::default();
        let at_r = m.prepare(0.9).at(0.0);
        assert!(at_r > 0.9, "R amplitude {at_r}");
    }

    #[test]
    fn t_wave_visible_after_r() {
        let m = EcgMorphology::default();
        let at_t = m.prepare(60.0 / 65.0).at(0.30);
        assert!(at_t > 0.2, "T amplitude {at_t}");
    }

    #[test]
    fn render_length_matches_duration() {
        let m = EcgMorphology::default();
        let (sig, _) = render(&m, &[0.5], 2.0, 360.0, 0..usize::MAX);
        assert_eq!(sig.len(), 720);
    }

    #[test]
    fn peaks_outside_duration_are_dropped() {
        let m = EcgMorphology::default();
        let (_, peaks) = render(&m, &[0.5, 1.5, 9.0], 2.0, 360.0, 0..720);
        assert_eq!(peaks.len(), 2);
    }

    #[test]
    fn longer_rr_delays_t_wave() {
        let m = EcgMorphology::default();
        // Find T peak for short and long beats by scanning after R.
        let t_peak = |rr: f64| {
            let beat = m.prepare(rr);
            let mut best = (0.0, f64::NEG_INFINITY);
            let mut tau = 0.1;
            while tau < 0.6 {
                let v = beat.at(tau);
                if v > best.1 {
                    best = (tau, v);
                }
                tau += 0.001;
            }
            best.0
        };
        assert!(t_peak(1.2) > t_peak(0.6) + 0.02);
    }

    #[test]
    fn turbo_render_tracks_reference_within_truncation() {
        let m = EcgMorphology::default();
        // Irregular beat train exercises both stretch directions.
        let r_times = [0.5, 1.2, 2.3, 3.0, 3.6, 4.8];
        let (reference, ref_peaks) = render(&m, &r_times, 5.5, 360.0, 0..1980);
        let (turbo, turbo_peaks) = render_turbo(&m, &r_times, 5.5, 360.0);
        assert_eq!(ref_peaks, turbo_peaks);
        assert_eq!(reference.len(), turbo.len());
        let max_dev = reference
            .iter()
            .zip(&turbo)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_dev < 1e-4, "max deviation {max_dev} mV");
    }

    #[test]
    fn gauss_run_matches_direct_exp() {
        let mut via_run = vec![0.0f64; 400];
        add_gauss_run(&mut via_run, 0, 400, 360.0, 0.5, 0.8, 0.03);
        for (i, &v) in via_run.iter().enumerate() {
            let d = i as f64 / 360.0 - 0.5;
            let direct = 0.8 * (-d * d / (2.0 * 0.03 * 0.03)).exp();
            // Inside the support the recurrence tracks the direct exp to
            // round-off; the ±5σ truncation bounds the edge discrepancy.
            if d.abs() <= 4.0 * 0.03 {
                assert!((v - direct).abs() < 1e-9, "sample {i}: {v} vs {direct}");
            } else {
                assert!((v - direct).abs() < 4e-6, "sample {i}: {v} vs {direct}");
            }
        }
    }

    #[test]
    fn gauss_run_respects_clip_bounds() {
        let mut out = vec![0.0f64; 100];
        add_gauss_run(&mut out, 40, 60, 360.0, 50.0 / 360.0, 1.0, 0.05);
        assert!(out[..40].iter().all(|&v| v == 0.0));
        assert!(out[60..].iter().all(|&v| v == 0.0));
        assert!(out[40..60].iter().any(|&v| v > 0.5));
        // Degenerate range is a no-op.
        add_gauss_run(&mut out, 60, 60, 360.0, 0.0, 1.0, 0.05);
    }

    #[test]
    fn waves_accessor_returns_five() {
        let m = EcgMorphology::default();
        assert_eq!(m.waves().len(), 5);
    }
}
