//! Platform flavors: the gold-standard pipeline vs. the embedded port.
//!
//! The paper evaluates every detector version on two platforms
//! (Table II): the MATLAB gold standard and the Amulet implementation.
//! The differences are arithmetic, not algorithmic:
//!
//! * **Gold** — `f64` everywhere, `std` transcendentals. This is
//!   [`crate::features::extract`].
//! * **Amulet** — `f32` end to end (the MSP430 does single-precision
//!   software floats), square roots via Newton iteration and `atan2` via
//!   a polynomial ([`dsp::embedded_math`]), because early AmuletOS had no
//!   C math library. The implementation here is deliberately a separate,
//!   self-contained `f32` code path: it models the hand-written C port,
//!   and its small numeric divergence from the gold path is exactly what
//!   Table II measures.

use crate::config::SiftConfig;
use crate::features::Version;
use crate::snippet::Snippet;
use crate::SiftError;
use dsp::embedded_math::{atan2_approx, sqrt_newton_f32};
use dsp::fixed::Q16;

/// Which platform's arithmetic to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlatformFlavor {
    /// Double-precision reference (the paper's MATLAB implementation).
    Gold,
    /// Single-precision, libm-free embedded path (the Amulet
    /// implementation).
    Amulet,
}

impl std::fmt::Display for PlatformFlavor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlatformFlavor::Gold => write!(f, "matlab"),
            PlatformFlavor::Amulet => write!(f, "amulet"),
        }
    }
}

/// The embedded (`f32`) feature extractor — the code that would be
/// generated C on the real device.
///
/// One streaming pass per window: a finiteness-and-extremes scan of
/// each channel fixes the normalization, then every sample is
/// quantized, normalized and binned into the grid on the fly. The ADC
/// law is monotone, so the extremes of the samples give the extremes of
/// the codes. No per-sample buffer is kept.
///
/// # Errors
///
/// Returns [`SiftError::InvalidConfig`] for a grid smaller than 2,
/// [`SiftError::InvalidSnippet`] for a hand-built snippet that breaks
/// [`Snippet::new`]'s invariants, and [`SiftError::DegenerateSignal`]
/// for constant/non-finite channels.
pub fn extract_amulet_f32(
    version: Version,
    snippet: &Snippet,
    config: &SiftConfig,
) -> Result<Vec<f32>, SiftError> {
    if config.grid_n < 2 {
        return Err(SiftError::InvalidConfig {
            reason: "grid size must be at least 2",
        });
    }
    // The reduced version never enters the float pipeline at all: it
    // streams the ADC codes through the Q16.16 fixed-point path (which
    // is also what the platform cost model prices for it).
    if version == Version::Reduced {
        return extract_reduced_q16(snippet).map(|q| q.map(Q16::to_f32).to_vec());
    }
    snippet.check()?;
    // --- ADC quantization + normalization (min–max, f32) -----------------
    // The device never sees the continuous waveform; the gold pipeline
    // skips the ADC — it is one of the real sources of Amulet-vs-MATLAB
    // divergence in Table II.
    let a = ABP_ADC.normalizer(&snippet.abp)?;
    let e = ECG_ADC.normalizer(&snippet.ecg)?;
    let point = |i: usize| (a(snippet.abp[i]), e(snippet.ecg[i]));
    let r_pts = || snippet.r_peaks.iter().map(|&i| point(i));
    let s_pts = || snippet.sys_peaks.iter().map(|&i| point(i));
    let pairs = snippet.paired_peaks();
    let pair_sq = |&(r, s): &(usize, usize)| {
        let ((xr, yr), (xs, ys)) = (point(r), point(s));
        (xr - xs) * (xr - xs) + (yr - ys) * (yr - ys)
    };

    // --- geometric features ----------------------------------------------
    let geo: [f32; 5] = match version {
        Version::Original => {
            let angle = |(x, y): (f32, f32)| atan2_approx(y as f64, x as f64) as f32;
            let dist = |(x, y): (f32, f32)| sqrt_newton_f32(x * x + y * y);
            [
                mean_f32(r_pts().map(angle)),
                mean_f32(s_pts().map(angle)),
                mean_f32(r_pts().map(dist)),
                mean_f32(s_pts().map(dist)),
                mean_f32(pairs.iter().map(|p| sqrt_newton_f32(pair_sq(p)))),
            ]
        }
        // Reduced was dispatched to the Q16 path above.
        Version::Simplified | Version::Reduced => {
            let slope = |(x, y): (f32, f32)| y / x.max(1e-6f32);
            let sqdist = |(x, y): (f32, f32)| x * x + y * y;
            [
                mean_f32(r_pts().map(slope)),
                mean_f32(s_pts().map(slope)),
                mean_f32(r_pts().map(sqdist)),
                mean_f32(s_pts().map(sqdist)),
                mean_f32(pairs.iter().map(pair_sq)),
            ]
        }
    };

    // --- matrix features ---------------------------------------------------
    // Column totals are binned alongside the cells: a column average is
    // its total over `n`, and no second walk of the grid is needed.
    let n = config.grid_n;
    let mut counts = vec![0u32; n * n];
    let mut col_counts = vec![0u32; n];
    // A normalized sample times `n` lies in [0, n], where a `u32` cast
    // truncates exactly like a `usize` one, in fewer instructions.
    for (&x, &y) in snippet.abp.iter().zip(&snippet.ecg) {
        let col = ((a(x) * n as f32) as u32 as usize).min(n - 1);
        let row = ((e(y) * n as f32) as u32 as usize).min(n - 1);
        counts[row * n + col] += 1;
        col_counts[col] += 1;
    }
    let total = snippet.len() as f32;
    let sfi: f32 = counts
        .iter()
        .map(|&c| {
            let p = c as f32 / total;
            p * p
        })
        .sum();
    let col_avg = |col: usize| col_counts[col] as f32 / n as f32;
    let mean_cols = (0..n).map(col_avg).sum::<f32>() / n as f32;
    let variance = (0..n)
        .map(|col| (col_avg(col) - mean_cols) * (col_avg(col) - mean_cols))
        .sum::<f32>()
        / n as f32;
    let spread = match version {
        Version::Original => sqrt_newton_f32(variance),
        _ => variance,
    };
    // Single-pass composite trapezoid over [0, n-1].
    let auc = {
        let n_intervals = (n - 1) as f32;
        let sum: f32 = (1..n).map(|col| col_avg(col - 1) + col_avg(col)).sum();
        n_intervals / (2.0 * n_intervals) * sum
    };

    Ok([sfi, spread, auc].into_iter().chain(geo).collect())
}

/// The reduced detector's fixed-point pipeline: the five simplified
/// geometric features computed entirely in Q16.16 over streamed 12-bit
/// ADC codes — no floating point at all, matching the 69-byte SRAM
/// footprint and fixed-point cycle pricing of Table III.
///
/// Both channels are streamed: one finiteness-and-extremes scan each,
/// then codes are computed only at the peak indices. No per-window
/// buffer is kept.
///
/// # Errors
///
/// Returns [`SiftError::InvalidSnippet`] for a hand-built snippet that
/// breaks [`Snippet::new`]'s invariants and
/// [`SiftError::DegenerateSignal`] when either channel is non-finite or
/// has no span after quantization (flat-lined sensor).
pub fn extract_reduced_q16(snippet: &Snippet) -> Result<[Q16; 5], SiftError> {
    snippet.check()?;
    let (e_lo, e_hi) = ECG_ADC.extremes(&snippet.ecg)?;
    let (a_lo, a_hi) = ABP_ADC.extremes(&snippet.abp)?;
    let e_span = Q16::from_int(i32::from(e_hi - e_lo));
    let a_span = Q16::from_int(i32::from(a_hi - a_lo));

    // Normalize only the peak coordinates (the streaming optimization).
    let at = |adc: Adc, v: f64, lo: u16, span: Q16| -> Q16 {
        Q16::from_int(i32::from(adc.code(v)) - i32::from(lo)).saturating_div(span)
    };
    let point = |i: usize| -> (Q16, Q16) {
        (
            at(ABP_ADC, snippet.abp[i], a_lo, a_span),
            at(ECG_ADC, snippet.ecg[i], e_lo, e_span),
        )
    };
    let slope_of = |(x, y): (Q16, Q16)| -> Q16 {
        let denom = if x <= Q16::EPSILON { Q16::EPSILON } else { x };
        y.saturating_div(denom)
    };
    let sqdist_of = |(x, y): (Q16, Q16)| -> Q16 { x.squared().saturating_add(y.squared()) };
    let pair_sqdist_of = |&(r, s): &(usize, usize)| -> Q16 {
        let ((xr, yr), (xs, ys)) = (point(r), point(s));
        (xr - xs).squared().saturating_add((yr - ys).squared())
    };

    Ok([
        mean_q16(snippet.r_peaks.iter().map(|&i| slope_of(point(i)))),
        mean_q16(snippet.sys_peaks.iter().map(|&i| slope_of(point(i)))),
        mean_q16(snippet.r_peaks.iter().map(|&i| sqdist_of(point(i)))),
        mean_q16(snippet.sys_peaks.iter().map(|&i| sqdist_of(point(i)))),
        mean_q16(snippet.paired_peaks().iter().map(pair_sqdist_of)),
    ])
}

/// The device's 12-bit ADC over one channel's fixed input range: ±2.5 mV
/// for ECG after amplification, 0–250 mmHg for ABP.
///
/// The law is clamp, subtract, divide, scale, round, cast. Each step is
/// monotone non-decreasing in IEEE arithmetic, so the smallest code in
/// a window is the code of its smallest sample and the largest code that
/// of its largest sample (`-0.0` and `+0.0` share a code). That is what
/// lets both embedded paths find their normalization in one scan of the
/// raw samples, without materializing the codes.
#[derive(Debug, Clone, Copy)]
struct Adc {
    lo: f64,
    hi: f64,
}

const ECG_ADC: Adc = Adc { lo: -2.5, hi: 2.5 };
const ABP_ADC: Adc = Adc { lo: 0.0, hi: 250.0 };

impl Adc {
    /// The raw code of one sample. `x` lies in `[0, 4095]`, where
    /// truncation is `floor` and `x - floor(x)` is exact, so the last
    /// line is `x.round()` (half away from zero) without the libm call.
    fn code(self, v: f64) -> u16 {
        let x = (v.clamp(self.lo, self.hi) - self.lo) / (self.hi - self.lo) * 4095.0;
        let t = x as u16;
        t + u16::from(x - f64::from(t) >= 0.5)
    }

    /// A code mapped back to the channel's units, in the device's `f32`.
    /// Scaling by the step rather than dividing the code by 4095 gives
    /// the same `f32` for every code of both channels (tested over all
    /// 4096) and takes the divide out of the per-sample pass.
    fn level(self, code: u16) -> f32 {
        (self.lo + f64::from(code) * ((self.hi - self.lo) / 4095.0)) as f32
    }

    /// Codes of the smallest and largest sample, from one
    /// [`dsp::normalize::extremes`] scan.
    ///
    /// Corrupt driver data (NaN/∞) cannot be meaningfully quantized, and
    /// a channel with no span after quantization cannot be normalized;
    /// both are a degenerate signal, so the detector alerts instead of
    /// silently classifying a rail-clamped artifact. An empty window
    /// scans to `(∞, −∞)`, whose codes have no span either.
    fn extremes(self, signal: &[f64]) -> Result<(u16, u16), SiftError> {
        let (lo, hi) = dsp::normalize::extremes(signal).ok_or(SiftError::DegenerateSignal)?;
        let (lo, hi) = (self.code(lo), self.code(hi));
        if hi <= lo {
            return Err(SiftError::DegenerateSignal);
        }
        Ok((lo, hi))
    }

    /// The `f32` min–max normalization of this channel's quantized
    /// samples, as a map from a raw sample into `[0, 1]`. Distinct codes
    /// have distinct `f32` levels, so the span is positive.
    fn normalizer(self, signal: &[f64]) -> Result<impl Fn(f64) -> f32, SiftError> {
        let (lo, hi) = self.extremes(signal)?;
        let (min, span) = (self.level(lo), self.level(hi) - self.level(lo));
        Ok(move |v| (self.level(self.code(v)) - min) / span)
    }
}

fn mean_q16(iter: impl Iterator<Item = Q16>) -> Q16 {
    let mut sum = Q16::ZERO;
    let mut n = 0i32;
    for v in iter {
        sum = sum.saturating_add(v);
        n += 1;
    }
    if n == 0 {
        Q16::ZERO
    } else {
        sum.saturating_div(Q16::from_int(n))
    }
}

fn mean_f32(iter: impl Iterator<Item = f32>) -> f32 {
    let mut sum = 0.0f32;
    let mut n = 0u32;
    for v in iter {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f32
    }
}

/// The materializing extractor the streaming front end replaced: it
/// builds every ADC code, quantized level and normalized sample of a
/// window before reading its extremes and peaks. Kept only as the oracle
/// the streaming version must match bit for bit.
#[cfg(test)]
mod oracle {
    use super::{mean_f32, mean_q16};
    use crate::config::SiftConfig;
    use crate::features::Version;
    use crate::snippet::Snippet;
    use crate::SiftError;
    use dsp::embedded_math::{atan2_approx, sqrt_newton_f32};
    use dsp::fixed::Q16;

    /// The embedded (`f32`) feature extractor — the code that would be
    /// generated C on the real device.
    ///
    /// # Errors
    ///
    /// Returns [`SiftError::DegenerateSignal`] for constant/non-finite
    /// channels and [`SiftError::InvalidConfig`] for a grid smaller than 2.
    pub(super) fn extract_amulet_f32(
        version: Version,
        snippet: &Snippet,
        config: &SiftConfig,
    ) -> Result<Vec<f32>, SiftError> {
        if config.grid_n < 2 {
            return Err(SiftError::InvalidConfig {
                reason: "grid size must be at least 2",
            });
        }
        ensure_finite(snippet)?;
        // The reduced version never enters the float pipeline at all: it
        // streams the ADC codes through the Q16.16 fixed-point path (which
        // is also what the platform cost model prices for it).
        if version == Version::Reduced {
            return extract_reduced_q16(snippet).map(|q| q.map(Q16::to_f32).to_vec());
        }
        // --- ADC quantization + normalization (min–max, f32) -----------------
        // The device never sees the continuous waveform: its front end is a
        // 12-bit ADC over a fixed input range (±2.5 mV for ECG after
        // amplification, 0–250 mmHg for ABP). The gold pipeline skips this —
        // it is one of the real sources of Amulet-vs-MATLAB divergence in
        // Table II.
        let e_quant = quantize_12bit(&snippet.ecg, -2.5, 2.5);
        let a_quant = quantize_12bit(&snippet.abp, 0.0, 250.0);
        let a = normalize_f32(&a_quant)?;
        let e = normalize_f32(&e_quant)?;

        // --- geometric features ----------------------------------------------
        let r_pts: Vec<(f32, f32)> = snippet.r_peaks.iter().map(|&i| (a[i], e[i])).collect();
        let s_pts: Vec<(f32, f32)> = snippet.sys_peaks.iter().map(|&i| (a[i], e[i])).collect();
        let pairs: Vec<((f32, f32), (f32, f32))> = snippet
            .paired_peaks()
            .into_iter()
            .map(|(r, s)| ((a[r], e[r]), (a[s], e[s])))
            .collect();

        let geo: [f32; 5] = match version {
            Version::Original => {
                let angle = |pts: &[(f32, f32)]| {
                    mean_f32(pts.iter().map(|&(x, y)| atan2_approx(y as f64, x as f64) as f32))
                };
                let dist = |pts: &[(f32, f32)]| {
                    mean_f32(pts.iter().map(|&(x, y)| sqrt_newton_f32(x * x + y * y)))
                };
                let pair_dist = mean_f32(pairs.iter().map(|&((xr, yr), (xs, ys))| {
                    sqrt_newton_f32((xr - xs) * (xr - xs) + (yr - ys) * (yr - ys))
                }));
                [
                    angle(&r_pts),
                    angle(&s_pts),
                    dist(&r_pts),
                    dist(&s_pts),
                    pair_dist,
                ]
            }
            // Reduced was dispatched to the Q16 path above.
            Version::Simplified | Version::Reduced => {
                let slope =
                    |pts: &[(f32, f32)]| mean_f32(pts.iter().map(|&(x, y)| y / x.max(1e-6f32)));
                let sqdist = |pts: &[(f32, f32)]| mean_f32(pts.iter().map(|&(x, y)| x * x + y * y));
                let pair_sq = mean_f32(pairs.iter().map(|&((xr, yr), (xs, ys))| {
                    (xr - xs) * (xr - xs) + (yr - ys) * (yr - ys)
                }));
                [slope(&r_pts), slope(&s_pts), sqdist(&r_pts), sqdist(&s_pts), pair_sq]
            }
        };

        // --- matrix features ---------------------------------------------------
        let n = config.grid_n;
        let mut counts = vec![0u32; n * n];
        for (&x, &y) in a.iter().zip(&e) {
            let col = ((x * n as f32) as usize).min(n - 1);
            let row = ((y * n as f32) as usize).min(n - 1);
            counts[row * n + col] += 1;
        }
        let total = a.len() as f32;
        let sfi: f32 = counts
            .iter()
            .map(|&c| {
                let p = c as f32 / total;
                p * p
            })
            .sum();
        let col_avgs: Vec<f32> = (0..n)
            .map(|col| {
                let sum: u32 = (0..n).map(|row| counts[row * n + col]).sum();
                sum as f32 / n as f32
            })
            .collect();
        let mean_cols = col_avgs.iter().sum::<f32>() / n as f32;
        let variance = col_avgs
            .iter()
            .map(|&v| (v - mean_cols) * (v - mean_cols))
            .sum::<f32>()
            / n as f32;
        let spread = match version {
            Version::Original => sqrt_newton_f32(variance),
            _ => variance,
        };
        // Single-pass composite trapezoid over [0, n-1].
        let auc = {
            let n_intervals = (n - 1) as f32;
            let sum: f32 = col_avgs.windows(2).map(|w| w[0] + w[1]).sum();
            n_intervals / (2.0 * n_intervals) * sum
        };

        let mut out = Vec::with_capacity(8);
        out.push(sfi);
        out.push(spread);
        out.push(auc);
        out.extend_from_slice(&geo);
        Ok(out)
    }

    /// The reduced detector's fixed-point pipeline: the five simplified
    /// geometric features computed entirely in Q16.16 over streamed 12-bit
    /// ADC codes — no floating point at all, matching the 69-byte SRAM
    /// footprint and fixed-point cycle pricing of Table III.
    ///
    /// The ABP channel is streamed (only its running min/max and the peak
    /// samples are kept); the ECG channel's peak samples are read from the
    /// single buffered channel.
    ///
    /// # Errors
    ///
    /// Returns [`SiftError::DegenerateSignal`] when either channel has no
    /// span after quantization (flat-lined sensor).
    pub(super) fn extract_reduced_q16(snippet: &Snippet) -> Result<[Q16; 5], SiftError> {
        ensure_finite(snippet)?;
        let e_codes = adc_codes(&snippet.ecg, -2.5, 2.5);
        let a_codes = adc_codes(&snippet.abp, 0.0, 250.0);
        let span = |codes: &[u16]| -> Result<(i32, i32), SiftError> {
            let lo = *codes.iter().min().ok_or(SiftError::InvalidSnippet {
                reason: "empty channel",
            })? as i32;
            let hi = *codes.iter().max().ok_or(SiftError::InvalidSnippet {
                reason: "empty channel",
            })? as i32;
            if hi <= lo {
                return Err(SiftError::DegenerateSignal);
            }
            Ok((lo, hi))
        };
        let (e_lo, e_hi) = span(&e_codes)?;
        let (a_lo, a_hi) = span(&a_codes)?;
        let e_span = Q16::from_int(e_hi - e_lo);
        let a_span = Q16::from_int(a_hi - a_lo);

        // Normalize only the peak coordinates (the streaming optimization).
        let at = |codes: &[u16], i: usize, lo: i32, span: Q16| -> Q16 {
            Q16::from_int(codes[i] as i32 - lo).saturating_div(span)
        };
        let point = |i: usize| -> (Q16, Q16) {
            (
                at(&a_codes, i, a_lo, a_span),
                at(&e_codes, i, e_lo, e_span),
            )
        };

        let r_pts: Vec<(Q16, Q16)> = snippet.r_peaks.iter().map(|&i| point(i)).collect();
        let s_pts: Vec<(Q16, Q16)> = snippet.sys_peaks.iter().map(|&i| point(i)).collect();
        let pairs: Vec<((Q16, Q16), (Q16, Q16))> = snippet
            .paired_peaks()
            .into_iter()
            .map(|(r, s)| (point(r), point(s)))
            .collect();

        let slope_of = |(x, y): (Q16, Q16)| -> Q16 {
            let denom = if x <= Q16::EPSILON { Q16::EPSILON } else { x };
            y.saturating_div(denom)
        };
        let sqdist_of = |(x, y): (Q16, Q16)| -> Q16 { x.squared().saturating_add(y.squared()) };
        let pair_sqdist_of = |((xr, yr), (xs, ys)): ((Q16, Q16), (Q16, Q16))| -> Q16 {
            (xr - xs).squared().saturating_add((yr - ys).squared())
        };

        Ok([
            mean_q16(r_pts.iter().copied().map(slope_of)),
            mean_q16(s_pts.iter().copied().map(slope_of)),
            mean_q16(r_pts.iter().copied().map(sqdist_of)),
            mean_q16(s_pts.iter().copied().map(sqdist_of)),
            mean_q16(pairs.iter().copied().map(pair_sqdist_of)),
        ])
    }

    /// Corrupt driver data (NaN/∞) cannot be meaningfully quantized; treat
    /// it as a degenerate signal so the detector alerts instead of silently
    /// classifying a rail-clamped artifact.
    fn ensure_finite(snippet: &Snippet) -> Result<(), SiftError> {
        if snippet.ecg.iter().chain(&snippet.abp).all(|v| v.is_finite()) {
            Ok(())
        } else {
            Err(SiftError::DegenerateSignal)
        }
    }

    /// Convert a signal to raw 12-bit ADC codes over the given input range.
    pub(super) fn adc_codes(signal: &[f64], lo: f64, hi: f64) -> Vec<u16> {
        let span = hi - lo;
        signal
            .iter()
            .map(|&v| {
                let clamped = v.clamp(lo, hi);
                ((clamped - lo) / span * 4095.0).round() as u16
            })
            .collect()
    }


    /// Model the 12-bit ADC: clamp to the input range and round to one of
    /// 4096 codes, then map the code back to the signal's units. Shares the
    /// code law with the fixed-point path's `adc_codes`.
    fn quantize_12bit(signal: &[f64], lo: f64, hi: f64) -> Vec<f64> {
        let span = hi - lo;
        adc_codes(signal, lo, hi)
            .into_iter()
            .map(|code| lo + code as f64 / 4095.0 * span)
            .collect()
    }

    fn normalize_f32(signal: &[f64]) -> Result<Vec<f32>, SiftError> {
        if signal.is_empty() {
            return Err(SiftError::InvalidSnippet {
                reason: "empty channel",
            });
        }
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &v in signal {
            let v = v as f32;
            if !v.is_finite() {
                return Err(SiftError::DegenerateSignal);
            }
            lo = if v < lo { v } else { lo };
            hi = if v > hi { v } else { hi };
        }
        if hi <= lo {
            return Err(SiftError::DegenerateSignal);
        }
        let span = hi - lo;
        Ok(signal.iter().map(|&v| (v as f32 - lo) / span).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use physio_sim::dataset::windows;
    use physio_sim::record::Record;
    use physio_sim::subject::bank;

    fn snippet() -> Snippet {
        let b = bank();
        let r = Record::synthesize(&b[0], 30.0, 17);
        Snippet::from_record(&windows(&r, 3.0).unwrap()[2]).unwrap()
    }

    #[test]
    fn amulet_close_to_gold_for_every_version() {
        // The embedded path quantizes to the 12-bit ADC and computes in
        // f32, so features agree with the gold pipeline to a few percent
        // — close enough that the same hyperplane classifies both, far
        // enough that Table II's platform rows can differ.
        let cfg = SiftConfig::default();
        let sn = snippet();
        for v in Version::ALL {
            let gold = crate::features::extract(v, &sn, &cfg).unwrap();
            let amulet = extract_amulet_f32(v, &sn, &cfg).unwrap();
            assert_eq!(gold.len(), amulet.len());
            for (i, (g, &a)) in gold.iter().zip(&amulet).enumerate() {
                let a = f64::from(a);
                let tol = 0.05 * g.abs().max(0.5);
                assert!((g - a).abs() < tol, "{v} feature {i}: gold={g} amulet={a}");
            }
        }
    }

    #[test]
    fn amulet_differs_from_gold_at_the_ulp_level() {
        // The flavors must not be bit-identical — that difference is the
        // point of Table II's platform comparison.
        let cfg = SiftConfig::default();
        let sn = snippet();
        let gold = crate::features::extract(Version::Original, &sn, &cfg).unwrap();
        let amulet: Vec<f64> = extract_amulet_f32(Version::Original, &sn, &cfg)
            .unwrap()
            .into_iter()
            .map(f64::from)
            .collect();
        assert_ne!(gold, amulet);
    }

    #[test]
    fn feature_counts_preserved() {
        let cfg = SiftConfig::default();
        let sn = snippet();
        for v in Version::ALL {
            let f = extract_amulet_f32(v, &sn, &cfg).unwrap();
            assert_eq!(f.len(), v.feature_count());
            assert!(f.iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn degenerate_rejected() {
        let cfg = SiftConfig::default();
        let sn = Snippet::new(vec![1.0; 50], vec![2.0; 50], vec![], vec![]).unwrap();
        assert_eq!(
            extract_amulet_f32(Version::Simplified, &sn, &cfg).unwrap_err(),
            SiftError::DegenerateSignal
        );
    }

    #[test]
    fn display_flavors() {
        assert_eq!(PlatformFlavor::Gold.to_string(), "matlab");
        assert_eq!(PlatformFlavor::Amulet.to_string(), "amulet");
    }

    #[test]
    fn bad_grid_rejected() {
        let cfg = SiftConfig {
            grid_n: 1,
            ..SiftConfig::default()
        };
        assert!(extract_amulet_f32(Version::Original, &snippet(), &cfg).is_err());
    }
}

#[cfg(test)]
mod q16_tests {
    use super::*;
    use physio_sim::dataset::windows;
    use physio_sim::record::Record;
    use physio_sim::subject::bank;

    fn snippet() -> Snippet {
        let b = bank();
        let r = Record::synthesize(&b[0], 30.0, 17);
        Snippet::from_record(&windows(&r, 3.0).unwrap()[2]).unwrap()
    }

    #[test]
    fn q16_reduced_close_to_gold_reduced() {
        let cfg = SiftConfig::default();
        let sn = snippet();
        let gold = crate::features::extract(Version::Reduced, &sn, &cfg).unwrap();
        let fixed = extract_reduced_q16(&sn).unwrap();
        for (i, (g, q)) in gold.iter().zip(&fixed).enumerate() {
            let got = q.to_f64();
            let tol = 0.05 * g.abs().max(0.5);
            assert!((g - got).abs() < tol, "feature {i}: gold={g} q16={got}");
        }
    }

    #[test]
    fn amulet_reduced_flavor_uses_q16_path() {
        let cfg = SiftConfig::default();
        let sn = snippet();
        let via_flavor = extract_amulet_f32(Version::Reduced, &sn, &cfg).unwrap();
        let direct = extract_reduced_q16(&sn).unwrap();
        for (a, b) in via_flavor.iter().zip(&direct) {
            assert_eq!(*a, b.to_f32());
        }
    }

    #[test]
    fn q16_path_flags_flat_channel() {
        let sn = Snippet::new(vec![0.5; 1080], vec![80.0; 1080], vec![], vec![]).unwrap();
        assert_eq!(
            extract_reduced_q16(&sn).unwrap_err(),
            SiftError::DegenerateSignal
        );
    }

    #[test]
    fn q16_values_stay_in_plausible_range() {
        let sn = snippet();
        let fixed = extract_reduced_q16(&sn).unwrap();
        // Slopes of near-origin points can be large but must not hit the
        // saturation rail on ordinary data; squared distances are <= 2.
        assert!(fixed[2].to_f64() <= 2.0 + 1e-3);
        assert!(fixed[3].to_f64() <= 2.0 + 1e-3);
        assert!(fixed[4].to_f64() <= 8.0);
    }

    #[test]
    fn adc_codes_cover_range() {
        let codes = [-3.0, -2.5, 0.0, 2.5, 3.0].map(|v| ECG_ADC.code(v));
        assert_eq!(codes[0], 0, "below range clamps to 0");
        assert_eq!(codes[1], 0);
        assert_eq!(codes[2], 2048);
        assert_eq!(codes[3], 4095);
        assert_eq!(codes[4], 4095, "above range clamps to max");
    }

    #[test]
    fn mean_q16_of_empty_is_zero() {
        assert_eq!(mean_q16(std::iter::empty()), Q16::ZERO);
    }
}

#[cfg(test)]
mod streaming_tests {
    use super::*;
    use crate::attack::substitution_test_set;
    use physio_sim::dataset::windows;
    use physio_sim::record::{Record, SynthProfile};
    use physio_sim::subject::bank;

    /// The streaming extractors give bit-equal features (`to_bits`) or an
    /// equal error to the materializing oracle, for every version.
    fn assert_matches_oracle(sn: &Snippet, what: &str) {
        let cfg = SiftConfig::default();
        let bits = |r: Result<Vec<f32>, SiftError>| {
            r.map(|f| f.iter().map(|x| x.to_bits()).collect::<Vec<u32>>())
        };
        for v in Version::ALL {
            assert_eq!(
                bits(extract_amulet_f32(v, sn, &cfg)),
                bits(oracle::extract_amulet_f32(v, sn, &cfg)),
                "{what}: {v}"
            );
        }
        assert_eq!(
            extract_reduced_q16(sn),
            oracle::extract_reduced_q16(sn),
            "{what}: q16"
        );
    }

    /// Four 3 s windows of each of the 12 bank subjects.
    fn bank_windows(profile: SynthProfile) -> Vec<Snippet> {
        let mut out = Vec::new();
        for (i, s) in bank().iter().enumerate() {
            let r = Record::synthesize_profiled(s, 12.0, 200 + i as u64, profile);
            for w in windows(&r, 3.0).unwrap() {
                out.push(Snippet::from_record(&w).unwrap());
            }
        }
        out
    }

    #[test]
    fn bank_windows_match_oracle() {
        for profile in [SynthProfile::Reference, SynthProfile::Turbo] {
            let sns = bank_windows(profile);
            assert_eq!(sns.len(), 48);
            for (k, sn) in sns.iter().enumerate() {
                assert_matches_oracle(sn, &format!("{profile:?} window {k}"));
            }
        }
    }

    #[test]
    fn donor_substituted_windows_match_oracle() {
        let b = bank();
        for i in 0..b.len() {
            let victim = Record::synthesize(&b[i], 12.0, 300 + i as u64);
            let donor = Record::synthesize(&b[(i + 1) % b.len()], 12.0, 400 + i as u64);
            for (k, w) in substitution_test_set(&victim, &donor, 3.0, 1.0, 7)
                .unwrap()
                .iter()
                .enumerate()
            {
                assert_matches_oracle(&w.snippet, &format!("victim {i} window {k}"));
            }
        }
    }

    #[test]
    fn clipped_and_negative_samples_match_oracle() {
        for (k, sn) in bank_windows(SynthProfile::Reference).iter().enumerate() {
            // ECG amplified past both ±2.5 mV rails; ABP stretched below
            // 0 and above 250 mmHg.
            let mut clipped = sn.clone();
            clipped.ecg.iter_mut().for_each(|v| *v *= 6.0);
            clipped.abp.iter_mut().for_each(|v| *v = *v * 4.0 - 250.0);
            assert_matches_oracle(&clipped, &format!("clipped window {k}"));
            // ABP shifted mostly negative, with signed zeros on the rail.
            let mut negative = sn.clone();
            for (j, v) in negative.abp.iter_mut().enumerate() {
                *v -= 100.0;
                if j % 7 == 0 {
                    *v = if j % 2 == 0 { -0.0 } else { 0.0 };
                }
            }
            assert_matches_oracle(&negative, &format!("negative window {k}"));
            // An odd length, with both channels' extremes on the last
            // sample (the scan reads samples in pairs).
            let mut odd = sn.clone();
            odd.ecg.truncate(sn.len() - 1);
            odd.abp.truncate(sn.len() - 1);
            odd.r_peaks.retain(|&i| i < odd.ecg.len());
            odd.sys_peaks.retain(|&i| i < odd.ecg.len());
            *odd.ecg.last_mut().unwrap() = 2.4;
            *odd.abp.last_mut().unwrap() = 1.0;
            assert_matches_oracle(&odd, &format!("odd window {k}"));
        }
    }

    #[test]
    fn non_finite_samples_match_oracle() {
        let sn = &bank_windows(SynthProfile::Reference)[5];
        // A window whose length is not a multiple of the scan's 8 lanes.
        let mut odd = sn.clone();
        odd.ecg.truncate(sn.len() - 3);
        odd.abp.truncate(sn.len() - 3);
        odd.r_peaks.retain(|&i| i < odd.ecg.len());
        odd.sys_peaks.retain(|&i| i < odd.ecg.len());
        assert_ne!(odd.len() % 8, 0);
        // Every lane and both peaks; then the last sample, and in the odd
        // window each of its samples past the last whole 8.
        let lanes_and_peaks = (0..8).chain([sn.r_peaks[0], sn.sys_peaks[0]]);
        let whole_at: Vec<_> = lanes_and_peaks.clone().chain([sn.len() - 1]).collect();
        let odd_at: Vec<_> = lanes_and_peaks
            .chain(odd.len() / 8 * 8..odd.len())
            .collect();
        for (window, at) in [(sn, whole_at), (&odd, odd_at)] {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                for &i in &at {
                    for abp in [false, true] {
                        let mut s = window.clone();
                        let channel = if abp { &mut s.abp } else { &mut s.ecg };
                        channel[i] = bad;
                        let what = format!("{bad} at {i} of {} (abp: {abp})", s.len());
                        assert_matches_oracle(&s, &what);
                        assert_eq!(
                            extract_reduced_q16(&s).unwrap_err(),
                            SiftError::DegenerateSignal,
                            "{what}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn flat_channels_match_oracle() {
        let sn = &bank_windows(SynthProfile::Reference)[9];
        let flat = |v: f64| vec![v; sn.len()];
        // Constant channels, a channel pinned past a rail, and a wiggle
        // too small to move the ADC code.
        let wiggle: Vec<f64> = (0..sn.len()).map(|j| 0.3 + (j % 3) as f64 * 1e-6).collect();
        let cases = [
            (flat(0.4), sn.abp.clone()),
            (sn.ecg.clone(), flat(90.0)),
            (flat(0.4), flat(90.0)),
            (flat(9.0), sn.abp.clone()),
            (sn.ecg.clone(), flat(-20.0)),
            (wiggle, sn.abp.clone()),
        ];
        for (k, (ecg, abp)) in cases.into_iter().enumerate() {
            let s = Snippet {
                ecg,
                abp,
                ..sn.clone()
            };
            assert_matches_oracle(&s, &format!("flat case {k}"));
            assert_eq!(
                extract_reduced_q16(&s).unwrap_err(),
                SiftError::DegenerateSignal
            );
        }
    }

    #[test]
    fn adc_level_matches_the_divided_law_for_every_code() {
        for adc in [ECG_ADC, ABP_ADC] {
            let span = adc.hi - adc.lo;
            let levels: Vec<f32> = (0..=4095).map(|c| adc.level(c)).collect();
            let divided: Vec<f32> = (0..=4095)
                .map(|c| (adc.lo + f64::from(c) / 4095.0 * span) as f32)
                .collect();
            assert_eq!(levels, divided, "{adc:?}");
            // Distinct codes have distinct levels: a span of codes is a
            // span of levels.
            assert!(levels.windows(2).all(|w| w[0] < w[1]), "{adc:?}");
        }
    }

    #[test]
    fn adc_code_is_monotone_and_rounds_like_libm() {
        for adc in [ECG_ADC, ABP_ADC] {
            let span = adc.hi - adc.lo;
            // A dense sweep from one span below the range to one above.
            let mut vs: Vec<f64> = (0..=300_000)
                .map(|k| adc.lo - span + 3.0 * span * f64::from(k) / 300_000.0)
                .collect();
            // Every half-code boundary and its neighbouring doubles.
            for k in 0..4096 {
                let v = adc.lo + (f64::from(k) + 0.5) / 4095.0 * span;
                vs.extend([v.next_down(), v, v.next_up()]);
            }
            vs.extend([-0.0, 0.0, adc.lo, adc.hi, f64::MIN, f64::MAX]);
            vs.extend([adc.lo.next_down(), adc.lo.next_up()]);
            vs.extend([adc.hi.next_down(), adc.hi.next_up()]);
            vs.sort_by(f64::total_cmp);
            let codes: Vec<u16> = vs.iter().map(|&v| adc.code(v)).collect();
            assert!(
                codes.windows(2).all(|w| w[0] <= w[1]),
                "{adc:?} not monotone"
            );
            assert_eq!(codes.first(), Some(&0));
            assert_eq!(codes.last(), Some(&4095));
            assert_eq!(adc.code(-0.0), adc.code(0.0));
            assert_eq!(
                codes,
                oracle::adc_codes(&vs, adc.lo, adc.hi),
                "{adc:?} rounding"
            );
        }
    }
}
