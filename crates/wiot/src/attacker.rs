//! Sensor-hijacking attacker models.
//!
//! The paper defines sensor-hijacking as "attacks that prevent sensors
//! from accurately collecting or reporting their measurements" and lists
//! four vulnerability classes (§I): the communication channel, the
//! firmware-update process, the unprotected sensory channel, and direct
//! physical compromise. [`AttackClass`] holds the canonical payload of
//! each, plus the campaign engine's five further adversaries, applied as
//! an on-path transformation of the victim's ECG packet stream (the ABP
//! reference is assumed trustworthy, as in the paper's threat model).

use crate::device::{SensorPacket, Stream};
use physio_sim::record::{EcgSpan, Record};
use physio_sim::SAMPLE_RATE_HZ;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Number of attack classes in the campaign taxonomy — the length of
/// the per-class TP/FN arrays in [`crate::faults::FaultSummary`] and of
/// [`ATTACK_CLASS_NAMES`].
pub const ATTACK_CLASS_COUNT: usize = 9;

/// Report names of the attack classes, indexed by [`AttackClass::index`].
pub const ATTACK_CLASS_NAMES: [&str; ATTACK_CLASS_COUNT] = [
    "substitute",
    "replay",
    "freeze",
    "noise-inject",
    "mimicry",
    "replay-snr",
    "partial-window",
    "coordinated",
    "adaptive",
];

/// What the adversary does to hijacked ECG packets. The first four are
/// the paper's legacy vulnerability classes (§I); the rest are the
/// campaign engine's adversaries.
///
/// A class is a *template*: it carries the class parameters but no
/// recordings. [`AttackClass::materialize`] binds it to the ECG it
/// reads, yielding the [`AttackMode`] an [`Attacker`] runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttackClass {
    /// Channel compromise: substitute another person's ECG (the paper's
    /// Table II attack).
    Substitution,
    /// Firmware compromise: replay the victim's own ECG from `offset_s`
    /// seconds earlier (reporting *old* measurements).
    Replay {
        /// How far back the replayed data comes from, seconds.
        offset_s: f64,
    },
    /// Physical compromise: the sensor freezes at its last value.
    Freeze,
    /// Sensory-channel injection: additive interference of the given
    /// amplitude (EMI-style, cf. Ghost Talk).
    NoiseInject {
        /// Amplitude of the injected disturbance, millivolts.
        amplitude_mv: f64,
    },
    /// Mimicry: blend a morphology-fitted donor's ECG into the victim's
    /// at a fixed mix ratio, keeping part of the genuine waveform to
    /// evade the detector (the campaign picks the population's nearest
    /// morphology neighbor as donor).
    Mimicry {
        /// Donor share of the blend, 0–1000 (‰). 1000 degenerates to
        /// substitution, 0 to a passthrough that still counts as
        /// tampering.
        blend_permille: u16,
    },
    /// Replay of the victim's own ECG with additive wideband noise at a
    /// parameterized signal-to-noise ratio (a noisy re-recording of the
    /// sensory channel rather than a perfect digital copy).
    ReplaySnr {
        /// How far back the replayed data comes from, seconds.
        offset_s: f64,
        /// Replay SNR in dB; lower values bury the copy in noise.
        snr_db: f64,
    },
    /// Partial-window injection: substitute the donor only during the
    /// leading `coverage_permille` fraction of each detection window,
    /// leaving the rest genuine — probing the detector's sensitivity to
    /// sub-window tampering.
    PartialWindow {
        /// Fraction of each window that is tampered, 0–1000 (‰).
        coverage_permille: u16,
    },
    /// Coordinated multi-device substitution: tampers exactly like
    /// [`AttackClass::Substitution`], but every device in the wave
    /// injects the *same* donor while the wave rides a Gilbert–Elliott
    /// burst-loss channel with the reliability stack on; its own class
    /// keeps it apart in campaign accounting.
    Coordinated,
    /// Adaptive threshold-probing: blends like mimicry, but bisects its
    /// blend factor against detector feedback ([`Attacker::feedback`])
    /// — alerted probes lower the blend, unnoticed probes raise it —
    /// converging on the detector's decision threshold.
    Adaptive,
}

/// The recording an attack class reads its ECG from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Source {
    /// The victim's own live session (the replay classes).
    Live,
    /// A foreign donor's recording.
    Donor,
}

impl AttackClass {
    /// Stable class index, `0..ATTACK_CLASS_COUNT`: the key of
    /// [`ATTACK_CLASS_NAMES`] and of every per-class table.
    pub fn index(&self) -> usize {
        match self {
            AttackClass::Substitution => 0,
            AttackClass::Replay { .. } => 1,
            AttackClass::Freeze => 2,
            AttackClass::NoiseInject { .. } => 3,
            AttackClass::Mimicry { .. } => 4,
            AttackClass::ReplaySnr { .. } => 5,
            AttackClass::PartialWindow { .. } => 6,
            AttackClass::Coordinated => 7,
            AttackClass::Adaptive => 8,
        }
    }

    /// Short stable name for reports.
    pub fn name(&self) -> &'static str {
        ATTACK_CLASS_NAMES[self.index()]
    }

    /// The one table of what each class reads: the recording its
    /// attacker takes ECG from, and the law that places each packet's
    /// read in it at `fs` Hz. `None` for Freeze and NoiseInject, which
    /// read nothing.
    pub(crate) fn reads(&self, fs: f64) -> Option<(Source, ReadLaw)> {
        match *self {
            AttackClass::Replay { offset_s } | AttackClass::ReplaySnr { offset_s, .. } => {
                Some((Source::Live, ReadLaw::replay(offset_s, fs)))
            }
            AttackClass::Freeze | AttackClass::NoiseInject { .. } => None,
            AttackClass::Substitution
            | AttackClass::Mimicry { .. }
            | AttackClass::PartialWindow { .. }
            | AttackClass::Coordinated
            | AttackClass::Adaptive => Some((Source::Donor, ReadLaw::Aligned)),
        }
    }

    /// Bind the class template to a concrete session: `victim_live` is
    /// the victim's own live recording (replay source), `donor` the
    /// foreign recording, `window_ms` the detection-window length.
    pub fn materialize(&self, victim_live: &Record, donor: &Record, window_ms: u64) -> AttackMode {
        self.materialize_with(|| victim_live.into(), || donor.into(), window_ms)
    }

    /// [`AttackClass::materialize`] over ECG spans produced on demand:
    /// only the closure for the recording the class reads runs, and
    /// neither does for Freeze and NoiseInject.
    pub(crate) fn materialize_with(
        &self,
        live: impl FnOnce() -> EcgSpan,
        donor: impl FnOnce() -> EcgSpan,
        window_ms: u64,
    ) -> AttackMode {
        let source = self.reads(SAMPLE_RATE_HZ).map(|(source, _)| match source {
            Source::Live => live(),
            Source::Donor => donor(),
        });
        AttackMode::new(*self, source, window_ms)
    }
}

/// An attack class bound to the ECG it reads: what an [`Attacker`] runs.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackMode {
    class: AttackClass,
    /// The victim's live session or the donor's ECG, as the class
    /// reads; `None` when it reads nothing.
    source: Option<EcgSpan>,
    /// Detection-window length, ms: the duty period of
    /// [`AttackClass::PartialWindow`]'s injection.
    window_ms: u64,
}

impl AttackMode {
    /// Bind `class` to `source`, the ECG span it reads (the victim's own
    /// session for the replay classes, a donor's otherwise).
    /// `window_ms` is the detection-window length, which only
    /// [`AttackClass::PartialWindow`] reads.
    ///
    /// # Panics
    ///
    /// Panics if `source` is missing for a class that reads ECG, or
    /// given for Freeze or NoiseInject, which read none.
    pub fn new(class: AttackClass, source: Option<EcgSpan>, window_ms: u64) -> Self {
        assert_eq!(
            source.is_some(),
            class.reads(SAMPLE_RATE_HZ).is_some(),
            "{} takes a source ECG exactly when it reads one",
            class.name()
        );
        Self {
            class,
            source,
            window_ms,
        }
    }

    /// The attack class.
    pub fn class(&self) -> AttackClass {
        self.class
    }
}

/// Per-instance seed split: mix the caller's seed with the attack
/// window through SplitMix64 (the fleet engine's per-device splitting
/// discipline) so two attackers sharing a campaign seed but staged over
/// different windows draw decorrelated streams instead of replaying the
/// raw seed's stream in lockstep.
fn split_attacker_seed(seed: u64, start_ms: u64, end_ms: u64) -> u64 {
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    let window = crate::fleet::splitmix64(
        start_ms
            .wrapping_mul(GOLDEN)
            .wrapping_add(end_ms.rotate_left(32)),
    );
    crate::fleet::splitmix64(seed ^ window)
}

/// An adversary active during `[start_ms, end_ms)` on the ECG stream.
#[derive(Debug, Clone)]
pub struct Attacker {
    mode: AttackMode,
    start_ms: u64,
    end_ms: u64,
    rng: StdRng,
    hijacked_packets: u64,
    last_value: f64,
    /// Adaptive bisection bracket (‰ donor blend): the threshold the
    /// attacker is probing lies in `[adapt_lo, adapt_hi]`.
    adapt_lo: u16,
    adapt_hi: u16,
    /// Detector verdicts consumed by [`Attacker::feedback`].
    probes: u64,
}

impl Attacker {
    /// Create an attacker active over the given window.
    ///
    /// The RNG stream is split per instance from `(seed, start_ms,
    /// end_ms)` — see `split_attacker_seed` — so campaign waves can
    /// share one seed without correlating their noise draws.
    ///
    /// # Panics
    ///
    /// Panics if `start_ms >= end_ms`.
    pub fn new(mode: AttackMode, start_ms: u64, end_ms: u64, seed: u64) -> Self {
        assert!(start_ms < end_ms, "attack window must be non-empty");
        Self {
            mode,
            start_ms,
            end_ms,
            rng: StdRng::seed_from_u64(split_attacker_seed(seed, start_ms, end_ms)),
            hijacked_packets: 0,
            last_value: 0.0,
            adapt_lo: 0,
            adapt_hi: 1000,
            probes: 0,
        }
    }

    /// Whether the attack is active at `now_ms`.
    pub fn active_at(&self, now_ms: u64) -> bool {
        (self.start_ms..self.end_ms).contains(&now_ms)
    }

    /// The attack window `[start_ms, end_ms)`.
    pub fn window_ms(&self) -> (u64, u64) {
        (self.start_ms, self.end_ms)
    }

    /// Packets tampered with so far.
    pub fn hijacked_packets(&self) -> u64 {
        self.hijacked_packets
    }

    /// Whether this attacker adapts to detector verdicts (adaptive
    /// threshold probing). Scenario runners feed resolved window
    /// verdicts back via [`Attacker::feedback`] only when this is set.
    pub fn wants_feedback(&self) -> bool {
        self.mode.class == AttackClass::Adaptive
    }

    /// The adaptive attacker's current donor blend (‰): the midpoint of
    /// its bisection bracket. 500 before any feedback.
    pub fn adaptive_blend(&self) -> u16 {
        (self.adapt_lo + self.adapt_hi) / 2
    }

    /// Adaptive probe state `(lo, hi, probes)`: the bracket the
    /// detector threshold is known to lie in (‰ blend) and how many
    /// verdicts have been consumed. `None` for non-adaptive modes.
    pub fn adaptive_state(&self) -> Option<(u16, u16, u64)> {
        self.wants_feedback()
            .then_some((self.adapt_lo, self.adapt_hi, self.probes))
    }

    /// Consume one detector verdict for an attacked window: `alerted`
    /// probes cap the bracket from above (the current blend was
    /// detectable), silent probes raise it from below. The bracket
    /// halves per verdict, so after `k` probes the attacker knows the
    /// detector's blend threshold to within `1000 / 2^k` ‰. A no-op for
    /// non-adaptive modes.
    pub fn feedback(&mut self, alerted: bool) {
        if !self.wants_feedback() {
            return;
        }
        let blend = self.adaptive_blend();
        if alerted {
            self.adapt_hi = blend;
        } else {
            self.adapt_lo = blend;
        }
        self.probes += 1;
    }

    /// Intercept a packet in flight at `now_ms`. ECG packets inside the
    /// attack window are tampered with; everything else passes through.
    /// A class whose source ECG is shorter than one packet passes it
    /// through too, and does not count it as hijacked.
    pub fn intercept(&mut self, now_ms: u64, mut packet: SensorPacket, fs: f64) -> SensorPacket {
        if packet.stream != Stream::Ecg || !self.active_at(now_ms) {
            if packet.stream == Stream::Ecg {
                self.last_value = *packet.samples.last().unwrap_or(&0.0);
            }
            return packet;
        }
        let class = self.mode.class;
        let read = class
            .reads(fs)
            .and_then(|(_, law)| Some((law, self.mode.source.as_ref()?)));
        let tampered = match class {
            AttackClass::Substitution | AttackClass::Coordinated | AttackClass::Replay { .. } => {
                substitute_from(&mut packet, read)
            }
            AttackClass::Freeze => {
                packet.samples.fill(self.last_value);
                packet.peaks.clear();
                true
            }
            AttackClass::NoiseInject { amplitude_mv: a } => {
                for s in &mut packet.samples {
                    *s += self.rng.gen_range(-a..a);
                }
                // Injected interference corrupts the sensor's local peak
                // detection: spurious peaks appear.
                let extra = self.rng.gen_range(0..3);
                for _ in 0..extra {
                    let idx = self.rng.gen_range(0..packet.samples.len());
                    packet.peaks.push(idx);
                }
                packet.peaks.sort_unstable();
                packet.peaks.dedup();
                true
            }
            AttackClass::Mimicry { blend_permille } => {
                blend_from(&mut packet, read, blend_permille)
            }
            AttackClass::ReplaySnr { snr_db, .. } => {
                if !substitute_from(&mut packet, read) {
                    return packet;
                }
                // Bury the copy in wideband noise at the requested SNR:
                // uniform noise in [-a, a) has power a²/3, so matching
                // signal_power / 10^(snr/10) gives a = √(3·p_noise).
                let len = packet.samples.len() as f64;
                let mean = packet.samples.iter().sum::<f64>() / len;
                let power =
                    packet.samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / len;
                let a = (3.0 * power / 10f64.powf(snr_db / 10.0)).sqrt();
                if a > 0.0 {
                    for s in &mut packet.samples {
                        *s += self.rng.gen_range(-a..a);
                    }
                }
                true
            }
            AttackClass::PartialWindow { coverage_permille } => {
                // Only the window's injected prefix is tampered.
                let w = self.mode.window_ms.max(1);
                let covered = (now_ms % w).saturating_mul(1000) < u64::from(coverage_permille) * w;
                covered && substitute_from(&mut packet, read)
            }
            AttackClass::Adaptive => blend_from(&mut packet, read, self.adaptive_blend()),
        };
        self.hijacked_packets += u64::from(tampered);
        packet
    }
}

/// Where a tampering mode reads the slice of its source ECG that goes
/// into a packet: the one index law behind [`substitute_from`] and
/// [`blend_from`], and behind the provisioning hull ([`ReadLaw::hull`])
/// that must cover every read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadLaw {
    /// Donor modes: the packet's own sample index, wrapped modulo
    /// `source_len − len` (so a packet at `n − len` reads the start).
    Aligned,
    /// Replay modes: `shift` samples earlier, clamped into the source.
    Replay {
        /// How far back the replayed slice starts, samples.
        shift: usize,
    },
}

impl ReadLaw {
    /// The replay law for an offset of `offset_s` seconds at `fs` Hz.
    pub(crate) fn replay(offset_s: f64, fs: f64) -> Self {
        ReadLaw::Replay {
            shift: (offset_s * fs).round() as usize,
        }
    }

    /// The source samples read for the `len`-sample packet starting at
    /// session sample `start_sample`, from a source of `source_len`
    /// samples; `None` when the source is shorter than one packet (the
    /// attack then passes the packet through).
    fn read(self, start_sample: usize, len: usize, source_len: usize) -> Option<Range<usize>> {
        let last = source_len.checked_sub(len)?;
        let start = match self {
            ReadLaw::Aligned => start_sample % last.max(1),
            ReadLaw::Replay { shift } => start_sample.saturating_sub(shift).min(last),
        };
        Some(start..start + len)
    }

    /// The smallest range of a session-length source (`session_len`
    /// samples) that holds every read of an attacker active over
    /// `[start_ms, end_ms)`; empty when it reads nothing. Packet `k` of
    /// `chunk_len` samples starts at sample `k·chunk_len` and is
    /// intercepted at `k·chunk_ms`, and only whole packets are sent:
    /// the timeline of [`crate::device::SensorDevice::poll`] and the
    /// scenario's tick loop.
    pub(crate) fn hull(
        self,
        (start_ms, end_ms): (u64, u64),
        chunk_ms: u64,
        chunk_len: usize,
        session_len: usize,
    ) -> Range<usize> {
        (0..session_len / chunk_len)
            .filter(|&k| (start_ms..end_ms).contains(&(k as u64 * chunk_ms)))
            .filter_map(|k| self.read(k * chunk_len, chunk_len, session_len))
            .reduce(|a, b| a.start.min(b.start)..a.end.max(b.end))
            .unwrap_or(0..0)
    }
}

/// A class's read of its source ECG: the law and the span it places
/// each packet's read in.
type SourceRead<'s> = Option<(ReadLaw, &'s EcgSpan)>;

/// The source slice [`ReadLaw::read`] places under `packet` and the R
/// peaks in it (relative to the slice), or `None` when the class reads
/// nothing or its source is shorter than one packet.
fn source_slice<'s>(
    packet: &SensorPacket,
    read: SourceRead<'s>,
) -> Option<(&'s [f64], impl Iterator<Item = usize> + 's)> {
    let (law, source) = read?;
    let read = law.read(packet.start_sample, packet.samples.len(), source.session_len())?;
    Some(source.read(read.start, read.len()))
}

/// Overwrite the packet with the source slice placed under it (the
/// substitution and replay payloads). Returns `false` without touching
/// the packet when there is none.
fn substitute_from(packet: &mut SensorPacket, read: SourceRead) -> bool {
    let Some((samples, peaks)) = source_slice(packet, read) else {
        return false;
    };
    packet.samples.copy_from_slice(samples);
    packet.peaks = peaks.collect();
    true
}

/// Mix the donor slice placed under the packet into it at
/// `blend_permille` ‰ donor share. Peak annotations follow the majority
/// contributor. Returns `false` when there is no slice.
fn blend_from(packet: &mut SensorPacket, read: SourceRead, blend_permille: u16) -> bool {
    let Some((samples, peaks)) = source_slice(packet, read) else {
        return false;
    };
    let b = f64::from(blend_permille.min(1000)) / 1000.0;
    for (s, d) in packet.samples.iter_mut().zip(samples) {
        *s = b * d + (1.0 - b) * *s;
    }
    if blend_permille >= 500 {
        packet.peaks = peaks.collect();
    }
    true
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use physio_sim::subject::bank;

    /// The whole ECG of a synthesized bank recording.
    pub(super) fn ecg_of(subject: usize, duration_s: f64, seed: u64) -> EcgSpan {
        (&Record::synthesize(&bank()[subject], duration_s, seed)).into()
    }

    /// `class` reading `source`, with 8 s detection windows.
    pub(super) fn mode(class: AttackClass, source: Option<EcgSpan>) -> AttackMode {
        AttackMode::new(class, source, 8000)
    }

    /// One of each class, in index order.
    pub(crate) const CLASSES: [AttackClass; ATTACK_CLASS_COUNT] = [
        AttackClass::Substitution,
        AttackClass::Replay { offset_s: 1.0 },
        AttackClass::Freeze,
        AttackClass::NoiseInject { amplitude_mv: 0.5 },
        AttackClass::Mimicry {
            blend_permille: 700,
        },
        AttackClass::ReplaySnr {
            offset_s: 1.0,
            snr_db: 6.0,
        },
        AttackClass::PartialWindow {
            coverage_permille: 400,
        },
        AttackClass::Coordinated,
        AttackClass::Adaptive,
    ];

    fn ecg_packet(start_sample: usize, len: usize) -> SensorPacket {
        SensorPacket {
            stream: Stream::Ecg,
            seq: (start_sample / len) as u64,
            start_sample,
            samples: vec![0.5; len],
            peaks: vec![len / 2],
        }
    }

    #[test]
    fn inactive_outside_window() {
        let donor = ecg_of(1, 10.0, 1);
        let mut a = Attacker::new(mode(AttackClass::Substitution, Some(donor)), 1000, 2000, 0);
        let p = ecg_packet(0, 180);
        let out = a.intercept(500, p.clone(), 360.0);
        assert_eq!(out, p);
        assert_eq!(a.hijacked_packets(), 0);
        assert!(a.active_at(1500));
        assert!(!a.active_at(2000), "end is exclusive");
    }

    #[test]
    fn substitute_swaps_waveform() {
        let donor = ecg_of(1, 10.0, 1);
        let sub = mode(AttackClass::Substitution, Some(donor.clone()));
        let mut a = Attacker::new(sub, 0, 10_000, 0);
        let out = a.intercept(100, ecg_packet(360, 180), 360.0);
        assert_eq!(out.samples, donor.read(360, 180).0);
        assert_eq!(a.hijacked_packets(), 1);
    }

    #[test]
    #[should_panic(expected = "outside the ECG span")]
    fn a_read_outside_the_span_is_loud() {
        // The donor's first second only: a packet at 1–1.5 s reads past
        // it, which must fail, never read zeros or pass through.
        let donor = Record::ecg_span(&bank()[1], 10.0, 1, 0..360);
        let mut a = Attacker::new(mode(AttackClass::Substitution, Some(donor)), 0, 10_000, 0);
        a.intercept(100, ecg_packet(360, 180), 360.0);
    }

    #[test]
    fn abp_packets_pass_untouched() {
        let mut a = Attacker::new(mode(AttackClass::Freeze, None), 0, 10_000, 0);
        let p = SensorPacket {
            stream: Stream::Abp,
            seq: 0,
            start_sample: 0,
            samples: vec![80.0; 100],
            peaks: vec![50],
        };
        assert_eq!(a.intercept(100, p.clone(), 360.0), p);
    }

    #[test]
    fn freeze_holds_last_seen_value() {
        let mut a = Attacker::new(mode(AttackClass::Freeze, None), 1000, 2000, 0);
        // Before the window: attacker observes the stream.
        let mut warm = ecg_packet(0, 10);
        warm.samples = vec![0.1, 0.2, 0.9];
        a.intercept(500, warm, 360.0);
        let out = a.intercept(1500, ecg_packet(360, 10), 360.0);
        assert!(out.samples.iter().all(|&v| v == 0.9));
        assert!(out.peaks.is_empty());
    }

    #[test]
    fn replay_shifts_backwards() {
        let source = ecg_of(0, 20.0, 3);
        let replay = mode(AttackClass::Replay { offset_s: 5.0 }, Some(source.clone()));
        let mut a = Attacker::new(replay, 0, 60_000, 0);
        let out = a.intercept(100, ecg_packet(3600, 360), 360.0);
        // 3600 − 5·360 = 1800.
        assert_eq!(out.samples, source.read(1800, 360).0);
    }

    #[test]
    fn noise_injection_perturbs_samples() {
        let noise = mode(AttackClass::NoiseInject { amplitude_mv: 0.5 }, None);
        let mut a = Attacker::new(noise, 0, 10_000, 9);
        let clean = ecg_packet(0, 360);
        let out = a.intercept(1, clean.clone(), 360.0);
        assert_ne!(out.samples, clean.samples);
        assert!(out
            .samples
            .iter()
            .zip(&clean.samples)
            .all(|(o, c)| (o - c).abs() <= 0.5));
    }

    #[test]
    fn mode_names() {
        assert_eq!(mode(AttackClass::Freeze, None).class().name(), "freeze");
        assert_eq!(
            AttackClass::NoiseInject { amplitude_mv: 1.0 }.name(),
            "noise-inject"
        );
    }

    #[test]
    #[should_panic(expected = "substitute takes a source ECG exactly when it reads one")]
    fn a_reading_class_without_its_source_is_rejected() {
        let _ = AttackMode::new(AttackClass::Substitution, None, 8000);
    }

    #[test]
    #[should_panic(expected = "freeze takes a source ECG exactly when it reads one")]
    fn a_source_for_a_class_that_reads_none_is_rejected() {
        let _ = AttackMode::new(AttackClass::Freeze, Some(ecg_of(1, 2.0, 1)), 8000);
    }

    #[test]
    #[should_panic(expected = "attack window")]
    fn empty_window_rejected() {
        let _ = Attacker::new(mode(AttackClass::Freeze, None), 5, 5, 0);
    }

    #[test]
    fn same_seed_different_windows_decorrelate() {
        let noise = || mode(AttackClass::NoiseInject { amplitude_mv: 0.5 }, None);
        let mut a = Attacker::new(noise(), 0, 10_000, 42);
        let mut b = Attacker::new(noise(), 0, 20_000, 42);
        let mut c = Attacker::new(noise(), 0, 10_000, 42);
        let p = ecg_packet(0, 360);
        let pa = a.intercept(1, p.clone(), 360.0);
        let pb = b.intercept(1, p.clone(), 360.0);
        let pc = c.intercept(1, p.clone(), 360.0);
        assert_ne!(pa.samples, pb.samples, "windows must split the stream");
        assert_eq!(pa.samples, pc.samples, "same (seed, window) must replay");
    }

    #[test]
    fn mimicry_interpolates_between_victim_and_donor() {
        let donor = ecg_of(1, 10.0, 1);
        let full = |b| {
            let class = AttackClass::Mimicry { blend_permille: b };
            mode(class, Some(donor.clone()))
        };
        let p = ecg_packet(360, 180);
        let substitute = mode(AttackClass::Substitution, Some(donor.clone()));
        let mut sub = Attacker::new(substitute, 0, 10_000, 0);
        let subbed = sub.intercept(100, p.clone(), 360.0);
        let mut hi = Attacker::new(full(1000), 0, 10_000, 0);
        let hi_out = hi.intercept(100, p.clone(), 360.0);
        assert_eq!(hi_out.samples, subbed.samples, "‰1000 degenerates to substitution");
        assert_eq!(hi_out.peaks, subbed.peaks);
        let mut lo = Attacker::new(full(0), 0, 10_000, 0);
        let lo_out = lo.intercept(100, p.clone(), 360.0);
        assert_eq!(lo_out.samples, p.samples, "‰0 leaves the waveform");
        assert_eq!(lo.hijacked_packets(), 1, "but still counts as tampering");
        let mut mid = Attacker::new(full(500), 0, 10_000, 0);
        let mid_out = mid.intercept(100, p.clone(), 360.0);
        for ((m, v), d) in mid_out.samples.iter().zip(&p.samples).zip(&subbed.samples) {
            assert!((m - 0.5 * (v + d)).abs() < 1e-12);
        }
    }

    #[test]
    fn partial_window_tampering_respects_coverage() {
        let donor = ecg_of(1, 10.0, 1);
        let partial = AttackClass::PartialWindow {
            coverage_permille: 250,
        };
        let mut a = Attacker::new(mode(partial, Some(donor.clone())), 0, 60_000, 0);
        let early = a.intercept(500, ecg_packet(180, 180), 360.0);
        assert_eq!(early.samples, donor.read(180, 180).0, "prefix is injected");
        let late = a.intercept(4000, ecg_packet(1440, 180), 360.0);
        assert_eq!(late.samples, vec![0.5; 180], "tail stays genuine");
        assert_eq!(a.hijacked_packets(), 1);
        // Second window's prefix is injected again.
        let wrap = a.intercept(8100, ecg_packet(2880, 180), 360.0);
        assert_ne!(wrap.samples, vec![0.5; 180]);
    }

    #[test]
    fn replay_snr_is_a_noisy_replay() {
        let source = ecg_of(0, 20.0, 3);
        let clean = |p: SensorPacket| {
            let replay = mode(AttackClass::Replay { offset_s: 5.0 }, Some(source.clone()));
            Attacker::new(replay, 0, 60_000, 0).intercept(100, p, 360.0)
        };
        let replay_snr = AttackClass::ReplaySnr {
            offset_s: 5.0,
            snr_db: 10.0,
        };
        let mut noisy = Attacker::new(mode(replay_snr, Some(source.clone())), 0, 60_000, 0);
        let p = ecg_packet(3600, 360);
        let r_clean = clean(p.clone());
        let r_noisy = noisy.intercept(100, p, 360.0);
        assert_ne!(r_noisy.samples, r_clean.samples);
        // Residual power sits near the requested −10 dB of signal power.
        let len = r_clean.samples.len() as f64;
        let mean = r_clean.samples.iter().sum::<f64>() / len;
        let sig: f64 =
            r_clean.samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / len;
        let noise: f64 = r_noisy
            .samples
            .iter()
            .zip(&r_clean.samples)
            .map(|(n, c)| (n - c).powi(2))
            .sum::<f64>()
            / len;
        let snr = 10.0 * (sig / noise).log10();
        assert!((5.0..15.0).contains(&snr), "snr {snr} dB");
    }

    #[test]
    fn adaptive_bisection_converges_on_the_threshold() {
        let donor = ecg_of(1, 10.0, 1);
        let mut a = Attacker::new(mode(AttackClass::Adaptive, Some(donor)), 0, 60_000, 0);
        assert!(a.wants_feedback());
        assert_eq!(a.adaptive_blend(), 500);
        // Hidden detector threshold: alerts iff blend ≥ 333 ‰.
        let theta = 333u16;
        for k in 1..=10u32 {
            let blend = a.adaptive_blend();
            a.feedback(blend >= theta);
            let (lo, hi, probes) = a.adaptive_state().unwrap();
            assert!(lo < theta && theta <= hi, "bracket lost θ: [{lo}, {hi}]");
            // Integer midpoints can leave the bracket one wider than
            // the ideal 1000/2^k halving.
            assert!(
                u32::from(hi - lo) <= (1000 >> k.min(9)) + 1,
                "bracket not halving: width {} after {k} probes",
                hi - lo
            );
            assert_eq!(probes, u64::from(k));
        }
        let blend = a.adaptive_blend();
        assert!(blend.abs_diff(theta) <= 2, "converged blend {blend} vs θ {theta}");
        // Non-adaptive attackers ignore feedback.
        let mut f = Attacker::new(mode(AttackClass::Freeze, None), 0, 1000, 0);
        assert!(!f.wants_feedback());
        assert_eq!(f.adaptive_state(), None);
        f.feedback(true);
        assert_eq!(f.adaptive_state(), None);
    }

    #[test]
    fn class_indexes_and_names_are_consistent() {
        for (i, class) in CLASSES.iter().enumerate() {
            assert_eq!(class.index(), i);
            assert_eq!(class.name(), ATTACK_CLASS_NAMES[i]);
        }
    }

    #[test]
    fn coordinated_is_substitution_with_its_own_tag() {
        let donor = ecg_of(1, 10.0, 1);
        let substitute = mode(AttackClass::Substitution, Some(donor.clone()));
        let mut s = Attacker::new(substitute, 0, 10_000, 0);
        let mut c = Attacker::new(mode(AttackClass::Coordinated, Some(donor)), 0, 10_000, 0);
        let p = ecg_packet(360, 180);
        assert_eq!(
            s.intercept(100, p.clone(), 360.0).samples,
            c.intercept(100, p, 360.0).samples
        );
        assert_ne!(s.mode.class().index(), c.mode.class().index());
    }

    /// Every class's attacker over one fixed packet train, hashed
    /// (FNV-1a over the tampered samples' bits, the peaks and the
    /// hijacked-packet count). The train starts before the attack, so
    /// Freeze holds a real sample; NoiseInject and ReplaySnr pin their
    /// RNG draws; PartialWindow tampers only the leading 400 ‰ of each
    /// 3 s window; every attacker is fed alternating verdicts, which
    /// only Adaptive acts on.
    #[test]
    fn every_class_tampers_a_fixed_packet_train_identically() {
        use crate::device::SensorDevice;
        use crate::fleet::Digest;
        let live = Record::synthesize(&bank()[0], 10.0, 0x11FE);
        let donor = Record::synthesize(&bank()[1], 10.0, 0xD00D);
        let hashes = CLASSES.map(|class| {
            let mode = class.materialize(&live, &donor, 3000);
            let mut a = Attacker::new(mode, 2000, 8000, 0xA77);
            let mut sensor = SensorDevice::ecg(&live, 0.5);
            let (mut d, mut now_ms, mut alerted) = (Digest::new(), 0, false);
            while let Some(p) = sensor.poll() {
                let out = a.intercept(now_ms, p, live.fs);
                out.samples.iter().for_each(|s| d.u64(s.to_bits()));
                out.peaks.iter().for_each(|&k| d.usize(k));
                if a.active_at(now_ms) {
                    a.feedback(alerted);
                    alerted = !alerted;
                }
                now_ms += 500;
            }
            d.u64(a.hijacked_packets());
            d.0
        });
        // Coordinated tampers exactly like Substitution.
        let pinned = [
            0xDDA6_8EE6_3670_795E,
            0x1FC0_2FCE_C892_490F,
            0x784C_2656_2D0F_5C59,
            0x0AB1_2AE0_C56D_9DFD,
            0x4986_9924_869F_2183,
            0xAEE9_FFC7_1C21_4910,
            0x96EF_3C7A_0C6B_44DC,
            0xDDA6_8EE6_3670_795E,
            0x9BBC_66BB_9CEE_FF79,
        ];
        assert_eq!(hashes, pinned, "{hashes:#018X?}");
    }
}

#[cfg(test)]
mod short_source_tests {
    use super::tests::{ecg_of, mode};
    use super::*;
    use crate::device::{SensorPacket, Stream};

    fn big_packet() -> SensorPacket {
        SensorPacket {
            stream: Stream::Ecg,
            seq: 0,
            start_sample: 0,
            samples: vec![0.3; 720],
            peaks: vec![],
        }
    }

    #[test]
    fn substitute_with_short_donor_passes_through() {
        let donor = ecg_of(1, 1.0, 1); // 360 samples < 720
        let mut a = Attacker::new(mode(AttackClass::Substitution, Some(donor)), 0, 10_000, 0);
        let p = big_packet();
        let out = a.intercept(5, p.clone(), 360.0);
        assert_eq!(out, p, "short donor cannot tamper");
        assert_eq!(a.hijacked_packets(), 0);
    }

    #[test]
    fn replay_with_short_source_passes_through() {
        let source = ecg_of(0, 1.0, 2);
        let replay = mode(AttackClass::Replay { offset_s: 5.0 }, Some(source));
        let mut a = Attacker::new(replay, 0, 10_000, 0);
        let p = big_packet();
        let out = a.intercept(5, p.clone(), 360.0);
        assert_eq!(out, p);
        assert_eq!(a.hijacked_packets(), 0);
    }
}
