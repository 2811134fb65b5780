//! Synchronized ECG+ABP recordings.
//!
//! A [`Record`] is the unit the rest of the system consumes: a pair of
//! equal-length, synchronously sampled ECG and ABP traces plus their
//! ground-truth peak annotations, exactly like one PhysioBank record with
//! its `.atr` annotation file.

use crate::abp;
use crate::ecg;
use crate::noise;
use crate::rr::RrProcess;
use crate::subject::{Subject, SubjectId};
use crate::SAMPLE_RATE_HZ;
use std::ops::Range;

/// Which synthesis kernels render a record.
///
/// [`SynthProfile::Reference`] is bit-identical to the historical
/// per-sample evaluation (every wave's `exp` and both sinusoids at every
/// sample); every digest-gated benchmark in the workspace is pinned to
/// it. It skips every term that cannot reach a sample bit. The rule for
/// a Gaussian term: it is left out where it is below `2^-55·e^-1` of
/// the partial sum it would join, in the P, Q, R, S, T order of the sum
/// (`ecg::NEGLIGIBLE_LN`). Since `ulp(x)/2 ≥ 2^-54·|x|`, that sum's
/// rounding then cannot change. Each bound is solved per beat from the
/// prepared constants, with no `exp` call. Three kinds of term go:
///
/// * Q, R and S outside one stretch per beat ([`ecg::render`]): where
///   none is at least that fraction of P, or none has an exponent of at
///   least −708. After the R peak and past that stretch, P too goes
///   where it is below that fraction of T.
/// * The dicrotic-notch Gaussian where it is below that fraction of
///   the decay term of the same sum ([`abp::render`]).
/// * A noise sinusoid whose amplitude is exactly `0.0`
///   ([`noise::apply`]), such as every subject's ABP hum. It would add
///   `0.0·sin θ = ±0`, and the noise sum it joins starts at +0 and so
///   is never −0, which `x + (±0) = x` needs.
///
/// Each kernel runs its libm calls in passes, one call per loop:
/// [`noise::apply`] over blocks of samples (the uniforms, the Box–Muller
/// `ln` and `cos`, the wander `sin`, the hum `sin`), [`abp::render`] over
/// each beat's support (the upstroke `cos`, the decay `exp`, the kept
/// notch `exp`) and [`ecg::render`] over each wave's samples in a beat.
/// Every sample still sums its terms in the order of the per-sample
/// loop, so its bits are unchanged; the calls of one loop overlap in
/// the processor, which a loop calling three or four in turn did not
/// let them. On a 2-core x86-64 host that cut a 30 s record's synthesis
/// by about a fifth.
///
/// `physio-sim`'s oracle tests hold the kernels to verbatim copies of
/// the full evaluation, and its `reference_pins` to pinned digests.
///
/// [`SynthProfile::Turbo`] trades a bounded, documented amount of
/// fidelity for roughly an order of magnitude less arithmetic per
/// sample, for fleet-scale runs where synthesis dominates wall time:
///
/// * ECG/ABP bumps render only their ±5σ supports and advance by
///   recurrences ([`ecg::render_turbo`], [`abp::render_turbo`]);
///   deviation from reference is below `4e-6` signal units.
/// * White noise is Irwin–Hall(4) Gaussian-approximate with exact mean
///   and sigma but ±3.46σ support, from a SplitMix64 stream rather than
///   `StdRng` ([`noise::apply_turbo`]) — so turbo records are
///   deterministic but **not** sample-identical to reference records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SynthProfile {
    /// Full-evaluation kernels, bit for bit the per-sample sums; the
    /// digest-pinned default.
    #[default]
    Reference,
    /// Truncated-support recurrence kernels and fast approximate noise.
    Turbo,
}

/// A synchronized ECG + ABP recording with ground-truth annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Subject this record belongs to.
    pub subject: SubjectId,
    /// Sample rate in Hz (shared by both channels).
    pub fs: f64,
    /// ECG channel, millivolts.
    pub ecg: Vec<f64>,
    /// ABP channel, mmHg.
    pub abp: Vec<f64>,
    /// Ground-truth R-peak sample indices (ascending).
    pub r_peaks: Vec<usize>,
    /// Ground-truth systolic-peak sample indices (ascending).
    pub sys_peaks: Vec<usize>,
}

impl Record {
    /// Synthesize `duration_s` seconds of data for `subject` at the
    /// default [`SAMPLE_RATE_HZ`], deterministically from `seed`.
    ///
    /// The same `(subject, duration, seed)` triple always yields the same
    /// record. Different seeds yield different beat trains and noise, so
    /// train/test material can be drawn independently.
    ///
    /// # Examples
    ///
    /// ```
    /// use physio_sim::{record::Record, subject::bank};
    ///
    /// let rec = Record::synthesize(&bank()[0], 6.0, 42);
    /// assert_eq!(rec.len(), (6.0 * physio_sim::SAMPLE_RATE_HZ) as usize);
    /// assert!(rec.mean_heart_rate_bpm().unwrap() > 40.0);
    /// ```
    pub fn synthesize(subject: &Subject, duration_s: f64, seed: u64) -> Self {
        Self::synthesize_at(subject, duration_s, seed, SAMPLE_RATE_HZ)
    }

    /// Synthesize at an explicit sample rate.
    pub fn synthesize_at(subject: &Subject, duration_s: f64, seed: u64, fs: f64) -> Self {
        let r_times = beat_train(subject, seed, duration_s);
        Self::synthesize_from_times(subject, &r_times, duration_s, seed, fs)
    }

    /// Synthesize with an explicit [`SynthProfile`].
    /// `SynthProfile::Reference` is exactly [`Record::synthesize`];
    /// `SynthProfile::Turbo` swaps in the recurrence kernels and fast
    /// noise for fleet-scale throughput. The beat train (and therefore
    /// every peak annotation) is identical across profiles.
    pub fn synthesize_profiled(
        subject: &Subject,
        duration_s: f64,
        seed: u64,
        profile: SynthProfile,
    ) -> Self {
        let r_times = beat_train(subject, seed, duration_s);
        Self::synthesize_from_times_profiled(
            subject,
            &r_times,
            duration_s,
            seed,
            SAMPLE_RATE_HZ,
            profile,
        )
    }

    /// Render a record from an explicit beat-time train with an explicit
    /// [`SynthProfile`] (see [`Record::synthesize_from_times`]).
    ///
    /// # Panics
    ///
    /// Panics if `r_times` is not strictly increasing.
    pub fn synthesize_from_times_profiled(
        subject: &Subject,
        r_times: &[f64],
        duration_s: f64,
        seed: u64,
        fs: f64,
        profile: SynthProfile,
    ) -> Self {
        match profile {
            SynthProfile::Reference => {
                Self::synthesize_from_times(subject, r_times, duration_s, seed, fs)
            }
            SynthProfile::Turbo => {
                assert!(
                    r_times.windows(2).all(|w| w[1] > w[0]),
                    "beat times must be strictly increasing"
                );
                let (mut ecg_sig, r_peaks) =
                    ecg::render_turbo(&subject.ecg, r_times, duration_s, fs);
                let (mut abp_sig, sys_peaks) =
                    abp::render_turbo(&subject.abp, r_times, duration_s, fs);
                noise::apply_turbo(&mut ecg_sig, &subject.ecg_noise, fs, seed ^ 0xEC6);
                noise::apply_turbo(&mut abp_sig, &subject.abp_noise, fs, seed ^ 0xAB9);
                Record {
                    subject: subject.id,
                    fs,
                    ecg: ecg_sig,
                    abp: abp_sig,
                    r_peaks,
                    sys_peaks,
                }
            }
        }
    }

    /// Render a record from an explicit beat-time train (used by the
    /// ectopy model and by tests that need hand-placed beats).
    ///
    /// # Panics
    ///
    /// Panics if `r_times` is not strictly increasing.
    pub fn synthesize_from_times(
        subject: &Subject,
        r_times: &[f64],
        duration_s: f64,
        seed: u64,
        fs: f64,
    ) -> Self {
        assert!(
            r_times.windows(2).all(|w| w[1] > w[0]),
            "beat times must be strictly increasing"
        );
        let (ecg_sig, r_peaks) = render_ecg(subject, r_times, duration_s, seed, fs, 0..usize::MAX);
        let (mut abp_sig, sys_peaks) = abp::render(&subject.abp, r_times, duration_s, fs);
        noise::apply(&mut abp_sig, &subject.abp_noise, fs, seed ^ 0xAB9, 0);
        Record {
            subject: subject.id,
            fs,
            ecg: ecg_sig,
            abp: abp_sig,
            r_peaks,
            sys_peaks,
        }
    }

    /// The samples `range` of the ECG channel [`Record::synthesize`]
    /// renders for the same `(subject, duration_s, seed)`, bit for bit,
    /// without rendering the rest of the session or its ABP channel.
    /// `range` is clamped to the session.
    ///
    /// # Examples
    ///
    /// ```
    /// use physio_sim::{record::Record, subject::bank};
    ///
    /// let whole = Record::synthesize(&bank()[0], 6.0, 42);
    /// let span = Record::ecg_span(&bank()[0], 6.0, 42, 720..1080);
    /// assert_eq!(span.read(720, 360).0, &whole.ecg[720..1080]);
    /// ```
    pub fn ecg_span(subject: &Subject, duration_s: f64, seed: u64, range: Range<usize>) -> EcgSpan {
        let fs = SAMPLE_RATE_HZ;
        let r_times = beat_train(subject, seed, duration_s);
        let session_len = (duration_s * fs).round() as usize;
        let start = range.start.min(session_len);
        let (ecg, r_peaks) = render_ecg(subject, &r_times, duration_s, seed, fs, start..range.end);
        EcgSpan {
            session_len,
            start,
            ecg,
            r_peaks,
        }
    }

    /// Number of samples per channel.
    pub fn len(&self) -> usize {
        self.ecg.len()
    }

    /// Whether the record contains no samples.
    pub fn is_empty(&self) -> bool {
        self.ecg.is_empty()
    }

    /// Mean heart rate over the record, in bpm, from the ground-truth
    /// R peaks. Returns `None` with fewer than two beats.
    // lint:allow(cg-unreached, reference oracle: the record tests check synthesized heart rate against the subject with it)
    pub fn mean_heart_rate_bpm(&self) -> Option<f64> {
        if self.r_peaks.len() < 2 {
            return None;
        }
        let beats = (self.r_peaks.len() - 1) as f64;
        let span_s = (self.r_peaks[self.r_peaks.len() - 1] - self.r_peaks[0]) as f64 / self.fs;
        Some(60.0 * beats / span_s)
    }

    /// Slice out the half-open sample range `[start, end)` of both
    /// channels, re-indexing the peak annotations to the slice.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.len()`.
    pub fn slice(&self, start: usize, end: usize) -> Record {
        assert!(start <= end && end <= self.len(), "slice out of bounds");
        Record {
            subject: self.subject,
            fs: self.fs,
            ecg: self.ecg[start..end].to_vec(),
            abp: self.abp[start..end].to_vec(),
            r_peaks: peaks_in(&self.r_peaks, start, end - start).collect(),
            sys_peaks: peaks_in(&self.sys_peaks, start, end - start).collect(),
        }
    }
}

/// A session's beat train: the subject's RR process from `seed`, first
/// beat 0.4 s in so its P wave is complete.
pub(crate) fn beat_train(subject: &Subject, seed: u64, duration_s: f64) -> Vec<f64> {
    RrProcess::new(subject.rr, seed).beat_times(0.4, duration_s)
}

/// The peak indices of `peaks` inside `start..start + len`, relative to
/// `start`: how a [`Record::slice`], an [`EcgSpan::read`] or any other
/// reader of part of a recording re-indexes its annotations.
pub fn peaks_in(peaks: &[usize], start: usize, len: usize) -> impl Iterator<Item = usize> + '_ {
    peaks
        .iter()
        .filter(move |&&p| p >= start && p < start + len)
        .map(move |&p| p - start)
}

/// The noisy ECG samples `range` (its end clamped to the session) and
/// the R peaks among them: the one Reference ECG path, whole records
/// included. `range.start` must lie inside the session (or at its end),
/// since the noise stream is advanced past that many samples.
fn render_ecg(
    subject: &Subject,
    r_times: &[f64],
    duration_s: f64,
    seed: u64,
    fs: f64,
    range: Range<usize>,
) -> (Vec<f64>, Vec<usize>) {
    let start = range.start;
    let (mut ecg_sig, r_peaks) = ecg::render(&subject.ecg, r_times, duration_s, fs, range);
    noise::apply(&mut ecg_sig, &subject.ecg_noise, fs, seed ^ 0xEC6, start);
    (ecg_sig, r_peaks)
}

/// A stretch of one session's ECG channel, by absolute sample index:
/// the samples a reader of part of a recording holds instead of the
/// whole two-channel [`Record`] (see [`Record::ecg_span`]). It knows the
/// length of the session it was cut from.
#[derive(Debug, Clone, PartialEq)]
pub struct EcgSpan {
    session_len: usize,
    /// Session index of `ecg[0]`.
    start: usize,
    ecg: Vec<f64>,
    /// Ground-truth R peaks inside the span (session indices, ascending).
    r_peaks: Vec<usize>,
}

impl EcgSpan {
    /// Samples in the whole session the span was cut from.
    pub fn session_len(&self) -> usize {
        self.session_len
    }

    /// The session samples the span holds.
    pub fn range(&self) -> Range<usize> {
        self.start..self.start + self.ecg.len()
    }

    /// The session samples `start..start + len` and the R peaks among
    /// them, relative to `start`.
    ///
    /// # Panics
    ///
    /// Panics if any of the samples lies outside the span: a reader
    /// given too narrow a span must fail loudly, not read zeros.
    pub fn read(&self, start: usize, len: usize) -> (&[f64], impl Iterator<Item = usize> + '_) {
        let span = self.range();
        assert!(
            span.start <= start && start + len <= span.end,
            "read {start}..{} outside the ECG span {span:?}",
            start + len
        );
        let samples = &self.ecg[start - span.start..start + len - span.start];
        (samples, peaks_in(&self.r_peaks, start, len))
    }
}

impl From<&Record> for EcgSpan {
    /// The whole ECG channel of `record`.
    fn from(record: &Record) -> Self {
        EcgSpan {
            session_len: record.len(),
            start: 0,
            ecg: record.ecg.clone(),
            r_peaks: record.r_peaks.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subject::bank;

    fn pearson(a: &[f64], b: &[f64]) -> f64 {
        let (ma, mb) = (dsp::stats::mean(a).unwrap(), dsp::stats::mean(b).unwrap());
        let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
        let va: f64 = a.iter().map(|x| (x - ma) * (x - ma)).sum();
        let vb: f64 = b.iter().map(|y| (y - mb) * (y - mb)).sum();
        cov / (va.sqrt() * vb.sqrt())
    }

    #[test]
    fn channels_have_equal_length() {
        let s = &bank()[0];
        let r = Record::synthesize(s, 12.0, 1);
        assert_eq!(r.ecg.len(), r.abp.len());
        assert_eq!(r.len(), (12.0 * SAMPLE_RATE_HZ) as usize);
    }

    #[test]
    fn synthesis_is_deterministic() {
        let s = &bank()[3];
        assert_eq!(
            Record::synthesize(s, 5.0, 42),
            Record::synthesize(s, 5.0, 42)
        );
    }

    #[test]
    fn different_seeds_differ() {
        let s = &bank()[3];
        assert_ne!(
            Record::synthesize(s, 5.0, 1).ecg,
            Record::synthesize(s, 5.0, 2).ecg
        );
    }

    #[test]
    fn peaks_are_sorted_and_in_range() {
        let s = &bank()[5];
        let r = Record::synthesize(s, 30.0, 11);
        assert!(r.r_peaks.windows(2).all(|w| w[0] < w[1]));
        assert!(r.sys_peaks.windows(2).all(|w| w[0] < w[1]));
        assert!(r.r_peaks.iter().all(|&p| p < r.len()));
        assert!(r.sys_peaks.iter().all(|&p| p < r.len()));
    }

    #[test]
    fn heart_rate_matches_subject_parameter() {
        let s = &bank()[2];
        let r = Record::synthesize(s, 120.0, 5);
        let hr = r.mean_heart_rate_bpm().unwrap();
        assert!(
            (hr - s.rr.mean_hr_bpm).abs() < 6.0,
            "hr={hr} configured={}",
            s.rr.mean_hr_bpm
        );
    }

    #[test]
    fn each_r_peak_has_following_systolic_peak() {
        let s = &bank()[7];
        let r = Record::synthesize(s, 30.0, 3);
        let expected_lag = (s.abp.ptt_s * r.fs).round() as usize;
        // Peaks pair one-to-one with the configured PTT lag (±1 sample of
        // independent rounding).
        for (&rp, &sp) in r.r_peaks.iter().zip(&r.sys_peaks) {
            assert!(
                sp.abs_diff(rp + expected_lag) <= 1,
                "r={rp} sys={sp} lag={expected_lag}"
            );
        }
    }

    #[test]
    fn ecg_abp_beat_synchrony_via_correlation() {
        // Envelope correlation: a subject's own ABP should correlate with
        // their ECG more than with a different subject's ECG (the SIFT
        // premise). Compare beat-interval sequences instead of raw
        // samples for robustness.
        let b = bank();
        let r1 = Record::synthesize(&b[0], 60.0, 10);
        let r2 = Record::synthesize(&b[6], 60.0, 20);
        let rr_of = |peaks: &[usize]| -> Vec<f64> {
            peaks.windows(2).map(|w| (w[1] - w[0]) as f64).collect()
        };
        let own_ecg = rr_of(&r1.r_peaks);
        let own_abp = rr_of(&r1.sys_peaks);
        let n = own_ecg.len().min(own_abp.len());
        let corr_own = pearson(&own_ecg[..n], &own_abp[..n]);
        assert!(corr_own > 0.99, "own-beat synchrony {corr_own}");
        let other_ecg = rr_of(&r2.r_peaks);
        let m = own_abp.len().min(other_ecg.len());
        let corr_cross = pearson(&other_ecg[..m], &own_abp[..m]);
        assert!(
            corr_cross < corr_own - 0.2,
            "cross-subject correlation {corr_cross} vs own {corr_own}"
        );
    }

    #[test]
    fn slice_reindexes_peaks() {
        let s = &bank()[1];
        let r = Record::synthesize(s, 20.0, 8);
        let start = 3600; // 10 s
        let end = 5400;
        let sub = r.slice(start, end);
        assert_eq!(sub.len(), end - start);
        for &p in &sub.r_peaks {
            assert!(p < sub.len());
            // Original index must have been annotated too.
            assert!(r.r_peaks.contains(&(p + start)));
        }
    }

    #[test]
    fn peaks_in_keeps_the_first_sample_and_drops_the_end() {
        let peaks = [0, 4, 5, 9, 14, 15, 20];
        assert_eq!(peaks_in(&peaks, 5, 10).collect::<Vec<_>>(), [0, 4, 9]);
        assert_eq!(peaks_in(&peaks, 0, 5).collect::<Vec<_>>(), [0, 4]);
        assert_eq!(peaks_in(&peaks, 21, 4).count(), 0);
    }

    #[test]
    #[should_panic(expected = "slice out of bounds")]
    fn slice_panics_out_of_bounds() {
        let s = &bank()[0];
        let r = Record::synthesize(s, 2.0, 1);
        let _ = r.slice(0, r.len() + 1);
    }

    #[test]
    fn turbo_reference_profile_is_exactly_synthesize() {
        let s = &bank()[2];
        assert_eq!(
            Record::synthesize_profiled(s, 6.0, 31, SynthProfile::Reference),
            Record::synthesize(s, 6.0, 31)
        );
    }

    #[test]
    fn turbo_is_deterministic() {
        let s = &bank()[4];
        assert_eq!(
            Record::synthesize_profiled(s, 6.0, 42, SynthProfile::Turbo),
            Record::synthesize_profiled(s, 6.0, 42, SynthProfile::Turbo)
        );
    }

    #[test]
    fn turbo_keeps_reference_annotations() {
        // The beat train is profile-independent, so every ground-truth
        // peak index must match the reference record exactly.
        for subject in [0usize, 5, 9] {
            let s = &bank()[subject];
            let reference = Record::synthesize(s, 20.0, 7);
            let turbo = Record::synthesize_profiled(s, 20.0, 7, SynthProfile::Turbo);
            assert_eq!(turbo.r_peaks, reference.r_peaks, "subject {subject}");
            assert_eq!(turbo.sys_peaks, reference.sys_peaks, "subject {subject}");
            assert_eq!(turbo.len(), reference.len());
        }
    }

    #[test]
    fn turbo_clean_waveforms_track_reference_closely() {
        // With the noise silenced, turbo and reference render the same
        // morphology; only the ±5σ truncation and recurrence round-off
        // remain, both far below physiological signal scales.
        let mut s = bank()[3].clone();
        s.ecg_noise = crate::noise::NoiseParams::none();
        s.abp_noise = crate::noise::NoiseParams::none();
        let reference = Record::synthesize(&s, 30.0, 11);
        let turbo = Record::synthesize_profiled(&s, 30.0, 11, SynthProfile::Turbo);
        let max_dev = |a: &[f64], b: &[f64]| {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f64, f64::max)
        };
        let ecg_dev = max_dev(&reference.ecg, &turbo.ecg);
        let abp_dev = max_dev(&reference.abp, &turbo.abp);
        assert!(ecg_dev < 1e-4, "ecg max deviation {ecg_dev} mV");
        assert!(abp_dev < 1e-3, "abp max deviation {abp_dev} mmHg");
    }

    #[test]
    fn turbo_noise_moments_match_configuration() {
        // Detrend against the clean render so only the injected noise
        // remains, then check the white component's scale survived the
        // Irwin–Hall approximation.
        let s = &bank()[0];
        let mut clean = s.clone();
        clean.ecg_noise = crate::noise::NoiseParams::none();
        clean.abp_noise = crate::noise::NoiseParams::none();
        let noisy = Record::synthesize_profiled(s, 60.0, 13, SynthProfile::Turbo);
        let quiet = Record::synthesize_profiled(&clean, 60.0, 13, SynthProfile::Turbo);
        let resid: Vec<f64> = noisy
            .ecg
            .iter()
            .zip(&quiet.ecg)
            .map(|(a, b)| a - b)
            .collect();
        let mean = resid.iter().sum::<f64>() / resid.len() as f64;
        let sd = dsp::stats::std_dev(&resid).unwrap();
        // Residual = white + wander + hum; its variance is the sum of
        // the three component variances (sinusoid variance = A²/2).
        let p = &s.ecg_noise;
        let expect = (p.white_sigma.powi(2)
            + 0.5 * p.wander_amp.powi(2)
            + 0.5 * p.hum_amp.powi(2))
        .sqrt();
        assert!(mean.abs() < 0.01, "residual mean {mean}");
        assert!((sd - expect).abs() / expect < 0.15, "sd {sd} vs {expect}");
    }

    #[test]
    fn turbo_detector_features_stay_usable() {
        // The point of turbo: a detector window pipeline still sees
        // normal physiology. Heart rate must match the configured one.
        let s = &bank()[6];
        let r = Record::synthesize_profiled(s, 60.0, 3, SynthProfile::Turbo);
        let hr = r.mean_heart_rate_bpm().unwrap();
        assert!(
            (hr - s.rr.mean_hr_bpm).abs() < 6.0,
            "hr={hr} configured={}",
            s.rr.mean_hr_bpm
        );
    }

    #[test]
    fn empty_slice_allowed() {
        let s = &bank()[0];
        let r = Record::synthesize(s, 2.0, 1);
        let e = r.slice(10, 10);
        assert!(e.is_empty());
        assert_eq!(e.mean_heart_rate_bpm(), None);
    }

    /// Element-wise bit equality, naming the first differing sample.
    fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        if let Some(i) = (0..got.len()).find(|&i| got[i].to_bits() != want[i].to_bits()) {
            panic!("{what}: sample {i} is {:e}, oracle {:e}", got[i], want[i]);
        }
    }

    /// The record the oracle kernels render for a beat train, composed
    /// as [`Record::synthesize_from_times`] composes the Reference ones.
    fn oracle_record(
        subject: &Subject,
        r_times: &[f64],
        duration_s: f64,
        seed: u64,
        fs: f64,
    ) -> Record {
        let (mut ecg_sig, r_peaks) =
            ecg::oracle::render(&subject.ecg, r_times, duration_s, fs, 0..usize::MAX);
        noise::oracle::apply(&mut ecg_sig, &subject.ecg_noise, fs, seed ^ 0xEC6, 0);
        let (mut abp_sig, sys_peaks) = abp::oracle::render(&subject.abp, r_times, duration_s, fs);
        noise::oracle::apply(&mut abp_sig, &subject.abp_noise, fs, seed ^ 0xAB9, 0);
        Record {
            subject: subject.id,
            fs,
            ecg: ecg_sig,
            abp: abp_sig,
            r_peaks,
            sys_peaks,
        }
    }

    /// The noise-free ECG and ABP kernels and the noisy record of one
    /// beat train, each against its oracle.
    fn check_against_oracle(subject: &Subject, r_times: &[f64], secs: f64, seed: u64, fs: f64) {
        let what = format!("{} seed {seed} {secs} s {fs} Hz", subject.id);
        let (ecg_new, peaks_new) = ecg::render(&subject.ecg, r_times, secs, fs, 0..usize::MAX);
        let (ecg_old, peaks_old) =
            ecg::oracle::render(&subject.ecg, r_times, secs, fs, 0..usize::MAX);
        assert_bits_eq(&ecg_new, &ecg_old, &format!("clean ECG, {what}"));
        assert_eq!(peaks_new, peaks_old, "R peaks, {what}");
        let (abp_new, sys_new) = abp::render(&subject.abp, r_times, secs, fs);
        let (abp_old, sys_old) = abp::oracle::render(&subject.abp, r_times, secs, fs);
        assert_bits_eq(&abp_new, &abp_old, &format!("clean ABP, {what}"));
        assert_eq!(sys_new, sys_old, "systolic peaks, {what}");
        let record = Record::synthesize_from_times(subject, r_times, secs, seed, fs);
        let oracle = oracle_record(subject, r_times, secs, seed, fs);
        assert_bits_eq(&record.ecg, &oracle.ecg, &format!("noisy ECG, {what}"));
        assert_bits_eq(&record.abp, &oracle.abp, &format!("noisy ABP, {what}"));
        assert_eq!(record, oracle, "{what}");
    }

    /// The bank and 24 population subjects: the bank covers only a
    /// corner of the morphology and heart-rate ranges the population
    /// draws from, and the kernels' skips depend on both.
    fn oracle_subjects() -> Vec<Subject> {
        let mut subjects = bank();
        subjects.extend(crate::population::population(24, 0x5EED));
        subjects
    }

    #[test]
    fn reference_records_match_the_oracle_kernels_bit_for_bit() {
        for subject in &oracle_subjects() {
            for seed in [1, 42, 0xDEAD_BEEF] {
                for secs in [6.0, 30.0, 56.0] {
                    let r_times = beat_train(subject, seed, secs);
                    check_against_oracle(subject, &r_times, secs, seed, SAMPLE_RATE_HZ);
                }
            }
        }
    }

    #[test]
    fn oracle_holds_for_stretched_and_edge_beats_and_other_rates() {
        for (k, subject) in oracle_subjects().iter().enumerate() {
            let seed = 100 + k as u64;
            // 1.8×-stretched beats: P and T underflow inside their own
            // beat too, and the neighbours overlap less.
            let stretched: Vec<f64> = beat_train(subject, seed, 30.0 / 1.8)
                .iter()
                .map(|t| 1.8 * t)
                .collect();
            check_against_oracle(subject, &stretched, 30.0, seed, SAMPLE_RATE_HZ);
            // 0.45×-compressed beats under a flat and a silent T wave: a
            // flat T keeps P above 2^-55 of it for longer after the R
            // peak, the more so when short beats pull P in towards it.
            // Then P, not Q, R or S, bounds where T is summed alone.
            let fast: Vec<f64> = beat_train(subject, seed, 15.0 / 0.45)
                .iter()
                .map(|t| 0.45 * t)
                .collect();
            for t_scale in [0.01, 0.0] {
                let mut flat = subject.clone();
                flat.ecg.t.amplitude_mv *= t_scale;
                check_against_oracle(&flat, &fast, 15.0, seed, SAMPLE_RATE_HZ);
            }
            // Beats within 0.6 RR of both record edges.
            let rr = 60.0 / subject.rr.mean_hr_bpm;
            let edge: Vec<f64> = (0..12).map(|j| 0.02 + j as f64 * rr).collect();
            let secs = edge[11] + 0.1 * rr;
            check_against_oracle(subject, &edge, secs, seed, SAMPLE_RATE_HZ);
            for fs in [250.0, 128.0, 1000.0] {
                check_against_oracle(subject, &beat_train(subject, seed, 12.0), 12.0, seed, fs);
            }
        }
    }

    #[test]
    fn oracle_holds_with_a_nonzero_abp_hum_and_silent_sinusoids() {
        let mut hum = bank()[4].clone();
        hum.abp_noise.hum_amp = 0.7;
        hum.ecg_noise.hum_amp = 0.0;
        hum.ecg_noise.wander_amp = 0.0;
        let r_times = beat_train(&hum, 3, 20.0);
        check_against_oracle(&hum, &r_times, 20.0, 3, SAMPLE_RATE_HZ);
        let mut quiet = bank()[8].clone();
        quiet.ecg_noise = crate::noise::NoiseParams::none();
        quiet.abp_noise = crate::noise::NoiseParams::none();
        check_against_oracle(
            &quiet,
            &beat_train(&quiet, 3, 20.0),
            20.0,
            3,
            SAMPLE_RATE_HZ,
        );
    }

    #[test]
    fn oracle_holds_for_abp_pulses_across_the_record_edges_and_a_silent_notch() {
        for (k, subject) in oracle_subjects().iter().enumerate() {
            let seed = 300 + k as u64;
            let rr = 60.0 / subject.rr.mean_hr_bpm;
            // A pulse wholly before sample 0, one whose support starts
            // before it, and a last one whose decay runs past the end.
            let mut edge = vec![-2.5];
            edge.extend((0..12).map(|j| -0.2 + j as f64 * rr));
            let secs = edge[12] + 0.1 * rr;
            check_against_oracle(subject, &edge, secs, seed, SAMPLE_RATE_HZ);
            let mut flat = subject.clone();
            flat.abp.notch_frac = 0.0;
            let r_times = beat_train(&flat, seed, 12.0);
            check_against_oracle(&flat, &r_times, 12.0, seed, SAMPLE_RATE_HZ);
        }
    }

    #[test]
    fn ecg_spans_ending_on_and_beside_a_noise_block_edge_match_the_oracle() {
        const B: usize = noise::BLOCK;
        let (secs, fs) = (30.0, SAMPLE_RATE_HZ);
        let n = (secs * fs) as usize;
        for (k, subject) in oracle_subjects().iter().enumerate().step_by(3) {
            let seed = 500 + k as u64;
            let r_times = beat_train(subject, seed, secs);
            let starts = [0, 1, B - 1, 5760, n - 2 * B];
            for (start, len) in starts.into_iter().flat_map(|s| {
                [B, 2 * B - 1, 2 * B, 2 * B + 1, 3 * B + 7].map(|len| (s, len.min(n - s)))
            }) {
                // A span reaching the session's end asks past it.
                let range = start..if start + len == n { usize::MAX } else { start + len };
                let (mut want, _) =
                    ecg::oracle::render(&subject.ecg, &r_times, secs, fs, range.clone());
                noise::oracle::apply(&mut want, &subject.ecg_noise, fs, seed ^ 0xEC6, start);
                let span = Record::ecg_span(subject, secs, seed, range);
                let what = format!("{} span {start}+{len}", subject.id);
                assert_bits_eq(span.read(start, len).0, &want, &what);
            }
        }
    }

    #[test]
    fn ecg_spans_starting_inside_a_qrs_match_the_oracle() {
        for subject in &oracle_subjects() {
            let (secs, seed) = (30.0, 77);
            let r_times = beat_train(subject, seed, secs);
            let whole = Record::synthesize(subject, secs, seed);
            for &r in whole.r_peaks.iter().skip(3).step_by(9) {
                for start in [r - 40, r - 6, r, r + 5, r + 30] {
                    let range = start..start + 720;
                    let (clean, _) =
                        ecg::render(&subject.ecg, &r_times, secs, SAMPLE_RATE_HZ, range.clone());
                    let (oracle, _) = ecg::oracle::render(
                        &subject.ecg,
                        &r_times,
                        secs,
                        SAMPLE_RATE_HZ,
                        range.clone(),
                    );
                    assert_bits_eq(&clean, &oracle, &format!("{} span at {start}", subject.id));
                    let mut noisy = oracle;
                    let fs = SAMPLE_RATE_HZ;
                    noise::oracle::apply(&mut noisy, &subject.ecg_noise, fs, seed ^ 0xEC6, start);
                    let span = Record::ecg_span(subject, secs, seed, range);
                    assert_bits_eq(span.read(start, noisy.len()).0, &noisy, "noisy span");
                }
            }
        }
    }
}
