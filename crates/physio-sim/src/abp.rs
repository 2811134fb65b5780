//! Arterial blood pressure (ABP) waveform synthesis.
//!
//! Each heartbeat launches one pressure pulse. The pulse reaches the
//! measurement site a *pulse-transit time* (PTT) after the R peak, rises
//! steeply to the systolic peak, then decays exponentially through
//! diastole with a small dicrotic-notch rebound when the aortic valve
//! closes. The trace is the diastolic baseline plus the sum of all pulse
//! kernels, so consecutive beats blend continuously.
//!
//! Because the pulse times come from the *same* RR process as the ECG,
//! the two signals are inherently correlated — the property SIFT exploits.

use crate::ecg::NEGLIGIBLE_LN;

/// Morphology of one subject's ABP pulse.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbpMorphology {
    /// Systolic (peak) pressure in mmHg.
    pub systolic_mmhg: f64,
    /// Diastolic (baseline) pressure in mmHg.
    pub diastolic_mmhg: f64,
    /// Pulse-transit time from R peak to systolic peak, in seconds.
    pub ptt_s: f64,
    /// Duration of the systolic upstroke, in seconds.
    pub rise_s: f64,
    /// Diastolic decay time constant, in seconds.
    pub decay_s: f64,
    /// Dicrotic notch rebound amplitude as a fraction of pulse pressure.
    pub notch_frac: f64,
    /// Time of the dicrotic rebound after the systolic peak, in seconds.
    pub notch_delay_s: f64,
}

impl Default for AbpMorphology {
    fn default() -> Self {
        Self {
            systolic_mmhg: 120.0,
            diastolic_mmhg: 75.0,
            ptt_s: 0.20,
            rise_s: 0.09,
            decay_s: 0.35,
            notch_frac: 0.12,
            notch_delay_s: 0.22,
        }
    }
}

impl AbpMorphology {
    /// Pulse pressure (systolic − diastolic), in mmHg.
    pub fn pulse_pressure(&self) -> f64 {
        self.systolic_mmhg - self.diastolic_mmhg
    }

    /// The normalized pulse kernel at each `x` of the ascending `xs`,
    /// seconds from the systolic peak (negative = during the upstroke),
    /// into `k`. The kernel peaks at `1` at `x = 0` and is `0` before the
    /// upstroke begins; the upstroke ([`Self::upstroke`]) and the
    /// diastole ([`Self::diastole`]) each run as passes of their own.
    fn pulse(&self, xs: &[f64], k: &mut [f64]) {
        let up = xs.partition_point(|&x| x < -self.rise_s);
        let peak = xs.partition_point(|&x| x < 0.0).max(up);
        k[..up].fill(0.0);
        self.upstroke(&xs[up..peak], &mut k[up..peak]);
        self.diastole(&xs[peak..], &mut k[peak..]);
    }

    /// The kernel at one `x` ([`Self::pulse`]).
    #[cfg(test)]
    fn kernel(&self, x: f64) -> f64 {
        let mut k = [0.0];
        self.pulse(&[x], &mut k);
        k[0]
    }

    /// The raised-cosine upstroke from 0 to 1 at each `x` of `xs`, into
    /// `k`: one `cos` per sample, in a loop of its own.
    fn upstroke(&self, xs: &[f64], k: &mut [f64]) {
        for (k, &x) in k.iter_mut().zip(xs) {
            *k = 0.5 * (1.0 + (std::f64::consts::PI * x / self.rise_s).cos());
        }
    }

    /// The exponential diastolic decay plus the dicrotic rebound at each
    /// `x ≥ 0` of `xs`, into `k`: the decay's `exp` in one pass, then
    /// the notch's `exp` in another over the samples where it is kept.
    ///
    /// The dicrotic-notch Gaussian is left out where it cannot change a
    /// bit of `decay + notch`: where `notch_frac·e^n < 2^-55·e^-1·e^-x/decay_s`
    /// (`ecg::NEGLIGIBLE_LN`), with `n` the notch's exponent. That compares
    /// the two exponents, `n + ln|notch_frac| < NEGLIGIBLE_LN − x/decay_s`,
    /// with `|notch_frac| − 1` standing in for the log it bounds, so it
    /// takes no extra `exp` or `ln`. Over a rendered pulse the decay is
    /// at least `e^-5` for every population subject, so the notch is
    /// evaluated only within about 0.28 s of its centre.
    fn diastole(&self, xs: &[f64], k: &mut [f64]) {
        for (k, &x) in k.iter_mut().zip(xs) {
            *k = self.decay_exp(x).exp();
        }
        let kept = |x: f64| !self.notch_negligible(self.notch_exp(x), self.decay_exp(x));
        let Some(from) = xs.iter().position(|&x| kept(x)) else {
            return;
        };
        let to = xs.iter().rposition(|&x| kept(x)).map_or(from, |to| to + 1);
        for (k, &x) in k[from..to].iter_mut().zip(&xs[from..to]) {
            let notch_exp = self.notch_exp(x);
            if !self.notch_negligible(notch_exp, self.decay_exp(x)) {
                *k += self.notch_frac * notch_exp.exp();
            }
        }
    }

    /// The exponent of the diastolic decay at `x` from the systolic peak.
    fn decay_exp(&self, x: f64) -> f64 {
        -x / self.decay_s
    }

    /// The exponent of the dicrotic-notch Gaussian at `x` from the
    /// systolic peak.
    fn notch_exp(&self, x: f64) -> f64 {
        let d = x - self.notch_delay_s;
        -d * d / (2.0 * 0.03f64 * 0.03)
    }

    /// Whether the notch term `notch_frac·e^notch_exp` is below
    /// `2^-55·e^-1` of the decay term `e^decay_exp` ([`Self::diastole`]).
    /// `ln y ≤ y − 1`, so `|notch_frac| − 1` bounds its log from above.
    fn notch_negligible(&self, notch_exp: f64, decay_exp: f64) -> bool {
        notch_exp + (self.notch_frac.abs() - 1.0) < NEGLIGIBLE_LN + decay_exp
    }
}

/// Render an ABP trace with the throughput-first kernels: the diastolic
/// `exp` decay becomes a one-multiply-per-sample geometric recurrence,
/// the raised-cosine upstroke a phasor rotation, and the dicrotic-notch
/// Gaussian the `ecg::add_gauss_run` double-recurrence
/// truncated at ±5σ. Output differs from [`render`] only by that notch
/// truncation and recurrence round-off (`≪ 1e-6` mmHg); fleet-scale
/// callers opt in through [`crate::record::SynthProfile::Turbo`].
pub fn render_turbo(
    morph: &AbpMorphology,
    r_times: &[f64],
    duration_s: f64,
    fs: f64,
) -> (Vec<f64>, Vec<usize>) {
    let n = (duration_s * fs).round() as usize;
    let mut out = vec![morph.diastolic_mmhg; n];
    let pp = morph.pulse_pressure();
    let dt = 1.0 / fs;
    let tail = 4.0 * morph.decay_s + morph.notch_delay_s;
    // Constant per-sample factors: decay ratio and upstroke rotation.
    let qd = (-dt / morph.decay_s).exp();
    let theta = std::f64::consts::PI * dt / morph.rise_s;
    let (rot_s, rot_c) = theta.sin_cos();
    for &rt in r_times {
        let peak_t = rt + morph.ptt_s;
        let lo = (((peak_t - morph.rise_s) * fs).floor()).max(0.0) as usize;
        let hi = (((peak_t + tail) * fs).ceil() as usize).min(n);
        if lo >= hi {
            continue; // pulse support entirely outside the record
        }
        // First sample at or after the systolic peak.
        let split = (((peak_t * fs).ceil().max(0.0)) as usize).clamp(lo, hi);
        // Upstroke: 0.5·(1 + cos(πx/rise)) for x ∈ [−rise, 0), advanced
        // by rotating the (cos, sin) phasor one `theta` per sample.
        if split > lo {
            let x0 = lo as f64 * dt - peak_t;
            let (mut s, mut c) = (std::f64::consts::PI * x0 / morph.rise_s).sin_cos();
            let mut x = x0;
            for v in &mut out[lo..split] {
                // `lo` was floored, so the first sample can sit just
                // before the upstroke begins — the kernel is 0 there.
                if x >= -morph.rise_s {
                    *v += pp * (0.5 * (1.0 + c));
                }
                let cn = c * rot_c - s * rot_s;
                s = s * rot_c + c * rot_s;
                c = cn;
                x += dt;
            }
        }
        // Diastolic decay: geometric recurrence from the peak on.
        if hi > split {
            let x0 = split as f64 * dt - peak_t;
            let mut d = pp * (-x0 / morph.decay_s).exp();
            for v in &mut out[split..hi] {
                *v += d;
                d *= qd;
            }
        }
        // Dicrotic rebound: a Gaussian on the decaying shoulder.
        crate::ecg::add_gauss_run(
            &mut out,
            split,
            hi,
            fs,
            peak_t + morph.notch_delay_s,
            pp * morph.notch_frac,
            0.03,
        );
    }
    let sys_peaks = r_times
        .iter()
        .map(|rt| ((rt + morph.ptt_s) * fs).round() as usize)
        .filter(|&i| i < n)
        .collect();
    (out, sys_peaks)
}

/// Render an ABP trace from R-peak times.
///
/// Returns the samples and the ground-truth systolic-peak sample indices
/// (one per beat whose systolic peak lands inside the rendered range).
///
/// Each beat's kernel is evaluated in passes over its support: the
/// sample offsets `x` from the systolic peak, then the upstroke's `cos`,
/// the decay's `exp` and the kept notch's `exp`, each in a loop of its
/// own, then `pp·k` is added to every sample. `x` is monotone in the
/// sample index, so the support splits once where the upstroke begins
/// and once at the peak. Every sample is bit for bit the per-sample
/// kernel sum `oracle::render` keeps.
pub fn render(
    morph: &AbpMorphology,
    r_times: &[f64],
    duration_s: f64,
    fs: f64,
) -> (Vec<f64>, Vec<usize>) {
    let n = (duration_s * fs).round() as usize;
    let mut out = vec![morph.diastolic_mmhg; n];
    let pp = morph.pulse_pressure();
    // Kernel support: upstroke before the peak, ~4 decay constants after.
    let tail = 4.0 * morph.decay_s + morph.notch_delay_s;
    // Each beat's `x` and kernel, reused from beat to beat.
    let (mut xs, mut ks) = (Vec::new(), Vec::new());
    for &rt in r_times {
        let peak_t = rt + morph.ptt_s;
        let lo = (((peak_t - morph.rise_s) * fs).floor()).max(0.0) as usize;
        let hi = (((peak_t + tail) * fs).ceil() as usize).min(n);
        if lo >= hi {
            continue; // pulse support entirely outside the record
        }
        xs.clear();
        xs.extend((lo..hi).map(|i| i as f64 / fs - peak_t));
        ks.resize(xs.len(), 0.0);
        morph.pulse(&xs, &mut ks);
        for (sample, &k) in out[lo..hi].iter_mut().zip(&ks) {
            *sample += pp * k;
        }
    }
    let sys_peaks = r_times
        .iter()
        .map(|rt| ((rt + morph.ptt_s) * fs).round() as usize)
        .filter(|&i| i < n)
        .collect();
    (out, sys_peaks)
}

/// The ABP renderer before the dicrotic-notch skip: the notch Gaussian
/// at every sample after the systolic peak. Kept only as the oracle the
/// Reference kernel must match bit for bit.
#[cfg(test)]
pub(crate) mod oracle {
    use super::AbpMorphology;

    fn kernel(morph: &AbpMorphology, x: f64) -> f64 {
        if x < -morph.rise_s {
            0.0
        } else if x < 0.0 {
            0.5 * (1.0 + (std::f64::consts::PI * x / morph.rise_s).cos())
        } else {
            let decay = (-x / morph.decay_s).exp();
            let d = x - morph.notch_delay_s;
            let notch = morph.notch_frac * (-d * d / (2.0 * 0.03f64 * 0.03)).exp();
            decay + notch
        }
    }

    pub(crate) fn render(
        morph: &AbpMorphology,
        r_times: &[f64],
        duration_s: f64,
        fs: f64,
    ) -> (Vec<f64>, Vec<usize>) {
        let n = (duration_s * fs).round() as usize;
        let mut out = vec![morph.diastolic_mmhg; n];
        let pp = morph.pulse_pressure();
        let tail = 4.0 * morph.decay_s + morph.notch_delay_s;
        for &rt in r_times {
            let peak_t = rt + morph.ptt_s;
            let lo = (((peak_t - morph.rise_s) * fs).floor()).max(0.0) as usize;
            let hi = (((peak_t + tail) * fs).ceil() as usize).min(n);
            for (i, sample) in out.iter_mut().enumerate().take(hi).skip(lo) {
                let x = i as f64 / fs - peak_t;
                *sample += pp * kernel(morph, x);
            }
        }
        let sys_peaks = r_times
            .iter()
            .map(|rt| ((rt + morph.ptt_s) * fs).round() as usize)
            .filter(|&i| i < n)
            .collect();
        (out, sys_peaks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_peaks_at_zero() {
        let m = AbpMorphology::default();
        assert!((m.kernel(0.0) - 1.0).abs() < 1e-9);
        assert!(m.kernel(-0.01) < 1.0);
        assert!(m.kernel(0.01) < 1.0 + m.notch_frac);
    }

    #[test]
    fn kernel_zero_before_upstroke() {
        let m = AbpMorphology::default();
        assert_eq!(m.kernel(-1.0), 0.0);
        assert_eq!(m.kernel(-m.rise_s - 1e-9), 0.0);
    }

    #[test]
    fn kernel_decays_in_diastole() {
        let m = AbpMorphology::default();
        assert!(m.kernel(1.5) < 0.05);
    }

    #[test]
    fn dicrotic_notch_creates_local_bump() {
        let m = AbpMorphology::default();
        // Derivative changes sign near the notch delay.
        let before = m.kernel(m.notch_delay_s - 0.05);
        let at = m.kernel(m.notch_delay_s);
        let plain_decay = (-(m.notch_delay_s) / m.decay_s).exp();
        assert!(at > plain_decay, "rebound lifts above bare decay");
        assert!(at < before + m.notch_frac, "bump bounded");
    }

    #[test]
    fn rendered_pressure_within_physiologic_bounds() {
        let m = AbpMorphology::default();
        let r_times: Vec<f64> = (0..10).map(|k| 0.3 + 0.9 * k as f64).collect();
        let (sig, _) = render(&m, &r_times, 9.0, 360.0);
        let (lo, hi) = dsp::stats::min_max(&sig).unwrap();
        assert!(lo >= m.diastolic_mmhg - 1.0, "lo={lo}");
        // Overlapping kernels can push slightly above systolic.
        assert!(hi <= m.systolic_mmhg + 0.25 * m.pulse_pressure(), "hi={hi}");
        assert!(hi >= m.systolic_mmhg - 5.0, "hi={hi}");
    }

    #[test]
    fn systolic_peaks_are_local_maxima() {
        let m = AbpMorphology::default();
        let r_times: Vec<f64> = (0..8).map(|k| 0.5 + 0.85 * k as f64).collect();
        let fs = 360.0;
        let (sig, peaks) = render(&m, &r_times, 7.5, fs);
        for &p in &peaks {
            let lo = p.saturating_sub(30);
            let hi = (p + 30).min(sig.len());
            let local_max = sig[lo..hi]
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max);
            assert!(sig[p] >= local_max - 0.5, "peak {p}: {} vs {local_max}", sig[p]);
        }
    }

    #[test]
    fn systolic_follows_r_by_ptt() {
        let m = AbpMorphology::default();
        let fs = 360.0;
        let (_, peaks) = render(&m, &[1.0], 3.0, fs);
        assert_eq!(peaks.len(), 1);
        let expect = ((1.0 + m.ptt_s) * fs).round() as usize;
        assert_eq!(peaks[0], expect);
    }

    #[test]
    fn turbo_render_tracks_reference_within_truncation() {
        let m = AbpMorphology::default();
        let r_times = [0.4, 1.1, 2.2, 2.9, 3.5, 4.7];
        let (reference, ref_peaks) = render(&m, &r_times, 5.5, 360.0);
        let (turbo, turbo_peaks) = render_turbo(&m, &r_times, 5.5, 360.0);
        assert_eq!(ref_peaks, turbo_peaks);
        assert_eq!(reference.len(), turbo.len());
        let max_dev = reference
            .iter()
            .zip(&turbo)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_dev < 1e-3, "max deviation {max_dev} mmHg");
    }

    #[test]
    fn turbo_systolic_peaks_still_local_maxima() {
        let m = AbpMorphology::default();
        let r_times: Vec<f64> = (0..8).map(|k| 0.5 + 0.85 * k as f64).collect();
        let (sig, peaks) = render_turbo(&m, &r_times, 7.5, 360.0);
        for &p in &peaks {
            let lo = p.saturating_sub(30);
            let hi = (p + 30).min(sig.len());
            let local_max = sig[lo..hi]
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max);
            assert!(sig[p] >= local_max - 0.5, "peak {p}");
        }
    }

    #[test]
    fn left_out_notch_is_below_half_an_ulp_of_the_decay() {
        let half_ulp = 1.0 / (1u64 << 55) as f64;
        for subject in crate::population::population(64, 0x5EED) {
            let m = subject.abp;
            let tail = 4.0 * m.decay_s + m.notch_delay_s;
            // Every 0.5 ms of a pulse's support after the systolic peak.
            for j in 0..=(tail * 2000.0) as i32 {
                let x = f64::from(j) / 2000.0;
                let decay_exp = -x / m.decay_s;
                let d = x - m.notch_delay_s;
                let notch_exp = -d * d / (2.0 * 0.03f64 * 0.03);
                if m.notch_negligible(notch_exp, decay_exp) {
                    let (notch, decay) = (m.notch_frac * notch_exp.exp(), decay_exp.exp());
                    assert!(
                        notch.abs() < half_ulp * decay,
                        "{}: {notch:e} at {x}",
                        subject.id
                    );
                }
            }
            // The notch itself is kept.
            assert!(!m.notch_negligible(0.0, -m.notch_delay_s / m.decay_s));
        }
    }

    #[test]
    fn pulse_pressure_is_difference() {
        let m = AbpMorphology::default();
        assert_eq!(m.pulse_pressure(), 45.0);
    }
}
