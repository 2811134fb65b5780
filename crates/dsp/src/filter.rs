//! Digital filters used by the peak detectors in `physio-sim`.
//!
//! The R-peak detector follows the classic Pan–Tompkins structure:
//! band-pass → derivative → squaring → moving-window integration. The
//! filters here are deliberately simple, allocation-light, and suitable
//! for streaming operation.

use crate::DspError;

/// Causal moving-average filter with a fixed window length.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), dsp::DspError> {
/// let mut f = dsp::filter::MovingAverage::new(2)?;
/// assert_eq!(f.step(2.0), 1.0); // window [0, 2] while warming up
/// assert_eq!(f.step(4.0), 3.0); // window [2, 4]
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MovingAverage {
    buf: Vec<f64>,
    idx: usize,
    sum: f64,
}

impl MovingAverage {
    /// Create a moving-average filter over `len` samples. The window is
    /// zero-initialized, so the first `len - 1` outputs are a warm-up ramp.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if `len == 0`.
    pub fn new(len: usize) -> Result<Self, DspError> {
        if len == 0 {
            return Err(DspError::InvalidParameter {
                name: "len",
                reason: "window length must be positive",
            });
        }
        Ok(Self {
            buf: vec![0.0; len],
            idx: 0,
            sum: 0.0,
        })
    }

    /// Push one sample and return the current window average.
    pub fn step(&mut self, x: f64) -> f64 {
        self.sum += x - self.buf[self.idx];
        self.buf[self.idx] = x;
        self.idx = (self.idx + 1) % self.buf.len();
        self.sum / self.buf.len() as f64
    }

    /// Window length this filter averages over.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the window length is zero (never true for a constructed
    /// filter; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Five-point derivative filter from the Pan–Tompkins algorithm:
/// `y[n] = (2x[n] + x[n-1] - x[n-3] - 2x[n-4]) / 8`.
#[derive(Debug, Clone, Default)]
pub struct Derivative {
    hist: [f64; 4],
}

impl Derivative {
    /// Create a derivative filter with zeroed history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Push one sample and return the derivative estimate.
    pub fn step(&mut self, x: f64) -> f64 {
        let y = (2.0 * x + self.hist[0] - self.hist[2] - 2.0 * self.hist[3]) / 8.0;
        self.hist.rotate_right(1);
        self.hist[0] = x;
        y
    }
}

/// Biquad (second-order IIR) filter, direct form I, with RBJ cookbook
/// coefficient design.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), dsp::DspError> {
/// // The R-peak detector's QRS band around 15 Hz on a 360 Hz stream.
/// let mut bp = dsp::filter::Biquad::band_pass(360.0, 15.0, 1.0)?;
/// let filtered: Vec<f64> = [0.1, 0.2, 0.15, 0.12].iter().map(|&x| bp.step(x)).collect();
/// assert_eq!(filtered.len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Biquad {
    b0: f64,
    b1: f64,
    b2: f64,
    a1: f64,
    a2: f64,
    x1: f64,
    x2: f64,
    y1: f64,
    y2: f64,
}

impl Biquad {
    /// Construct from raw normalized coefficients (`a0` already divided
    /// out).
    pub fn from_coefficients(b0: f64, b1: f64, b2: f64, a1: f64, a2: f64) -> Self {
        Self {
            b0,
            b1,
            b2,
            a1,
            a2,
            x1: 0.0,
            x2: 0.0,
            y1: 0.0,
            y2: 0.0,
        }
    }

    /// RBJ constant-skirt band-pass design centred on `center_hz`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] unless
    /// `0 < center_hz < fs / 2` and `q > 0`.
    pub fn band_pass(fs: f64, center_hz: f64, q: f64) -> Result<Self, DspError> {
        let (w0, alpha) = Self::design_params(fs, center_hz, q)?;
        let cw = w0.cos();
        let b0 = alpha;
        let b1 = 0.0;
        let b2 = -alpha;
        Ok(Self::normalize(b0, b1, b2, alpha, cw))
    }

    fn design_params(fs: f64, f0: f64, q: f64) -> Result<(f64, f64), DspError> {
        if fs <= 0.0 {
            return Err(DspError::InvalidParameter {
                name: "fs",
                reason: "sample rate must be positive",
            });
        }
        if f0 <= 0.0 || f0 >= fs / 2.0 {
            return Err(DspError::InvalidParameter {
                name: "f0",
                reason: "corner frequency must lie in (0, fs/2)",
            });
        }
        if q <= 0.0 {
            return Err(DspError::InvalidParameter {
                name: "q",
                reason: "quality factor must be positive",
            });
        }
        let w0 = 2.0 * std::f64::consts::PI * f0 / fs;
        let alpha = w0.sin() / (2.0 * q);
        Ok((w0, alpha))
    }

    fn normalize(b0: f64, b1: f64, b2: f64, alpha: f64, cw: f64) -> Self {
        let a0 = 1.0 + alpha;
        Self::from_coefficients(
            b0 / a0,
            b1 / a0,
            b2 / a0,
            (-2.0 * cw) / a0,
            (1.0 - alpha) / a0,
        )
    }

    /// Push one sample through the filter.
    pub fn step(&mut self, x: f64) -> f64 {
        let y = self.b0 * x + self.b1 * self.x1 + self.b2 * self.x2
            - self.a1 * self.y1
            - self.a2 * self.y2;
        self.x2 = self.x1;
        self.x1 = x;
        self.y2 = self.y1;
        self.y1 = y;
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(mut step: impl FnMut(f64) -> f64, xs: &[f64]) -> Vec<f64> {
        xs.iter().map(|&x| step(x)).collect()
    }

    fn rms(xs: &[f64]) -> f64 {
        (xs.iter().map(|x| x * x).sum::<f64>() / xs.len() as f64).sqrt()
    }

    #[test]
    fn moving_average_converges_on_constant() {
        let mut f = MovingAverage::new(4).unwrap();
        let out = run(|x| f.step(x), &[2.0; 10]);
        assert!((out.last().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn moving_average_rejects_zero_window() {
        assert!(MovingAverage::new(0).is_err());
    }

    #[test]
    fn moving_average_window_accessors() {
        let f = MovingAverage::new(3).unwrap();
        assert_eq!(f.len(), 3);
        assert!(!f.is_empty());
    }

    #[test]
    fn derivative_of_constant_is_zero_after_warmup() {
        let mut d = Derivative::new();
        let out = run(|x| d.step(x), &[5.0; 10]);
        assert!(out[6..].iter().all(|y| y.abs() < 1e-12));
    }

    #[test]
    fn derivative_of_ramp_is_constant() {
        let mut d = Derivative::new();
        let ramp: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let out = run(|x| d.step(x), &ramp);
        // Steady-state derivative of slope-1 ramp through this kernel:
        // (2 + 1 - 1 - 2*(-...)) -> (2*1 + 1 + 3 + 2*4)/8? Compute directly:
        // y = (2x[n] + x[n-1] - x[n-3] - 2x[n-4]) / 8 with x[k] = k
        //   = (2n + n-1 - (n-3) - 2(n-4)) / 8 = (2n + n - 1 - n + 3 - 2n + 8)/8 = 10/8.
        assert!((out[10] - 1.25).abs() < 1e-12);
        assert!((out[15] - 1.25).abs() < 1e-12);
    }

    #[test]
    fn band_pass_passes_center_attenuates_sides() {
        let fs = 250.0;
        let centre: Vec<f64> = (0..5000)
            .map(|i| (2.0 * std::f64::consts::PI * 15.0 * i as f64 / fs).sin())
            .collect();
        let side: Vec<f64> = (0..5000)
            .map(|i| (2.0 * std::f64::consts::PI * 1.0 * i as f64 / fs).sin())
            .collect();
        let mut bp = Biquad::band_pass(fs, 15.0, 1.0).unwrap();
        let c = rms(&run(|x| bp.step(x), &centre)[1000..]);
        let mut bp = Biquad::band_pass(fs, 15.0, 1.0).unwrap();
        let s = rms(&run(|x| bp.step(x), &side)[1000..]);
        assert!(c > 3.0 * s, "centre rms {c} vs side rms {s}");
    }

    #[test]
    fn biquad_design_rejects_bad_params() {
        assert!(Biquad::band_pass(0.0, 1.0, 1.0).is_err());
        assert!(Biquad::band_pass(100.0, 60.0, 1.0).is_err()); // above Nyquist
        assert!(Biquad::band_pass(100.0, 10.0, 0.0).is_err());
    }
}
