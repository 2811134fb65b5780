//! Pinned digests of Reference synthesis.
//!
//! Every digest-gated result in the workspace renders its signals
//! through the Reference kernels, so a change to them must keep every
//! sample bit for bit. These pins hash the f64 bits and the peak
//! annotations of a few records, spans and beat trains; any drift in a
//! single sample bit moves a digest.

use physio_sim::ectopy::{inject_premature_beats, EctopyParams};
use physio_sim::record::Record;
use physio_sim::rr::RrProcess;
use physio_sim::subject::bank;

/// FNV-1a (64-bit) over the little-endian bytes of each word.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// A length-prefixed run of samples, by their bits.
    fn samples(&mut self, v: &[f64]) {
        self.word(v.len() as u64);
        v.iter().for_each(|x| self.word(x.to_bits()));
    }

    /// A length-prefixed run of peak indices.
    fn peaks(&mut self, v: &[usize]) {
        self.word(v.len() as u64);
        v.iter().for_each(|&p| self.word(p as u64));
    }
}

fn record_digest(r: &Record) -> u64 {
    let mut h = Fnv::new();
    h.word(r.fs.to_bits());
    h.samples(&r.ecg);
    h.samples(&r.abp);
    h.peaks(&r.r_peaks);
    h.peaks(&r.sys_peaks);
    h.0
}

#[test]
fn synthesize_is_pinned() {
    let b = bank();
    let got = [(0, 42, 6.0), (5, 7, 30.0), (11, 0xDEAD, 56.0)]
        .map(|(subject, seed, secs)| record_digest(&Record::synthesize(&b[subject], secs, seed)));
    assert_eq!(
        got,
        [
            0x9d05_244a_0f1f_ad5d,
            0x01ed_8422_9dc5_b41b,
            0x56b5_eaf7_e8ed_f4e7
        ],
        "{got:#018x?}"
    );
}

#[test]
fn mid_session_ecg_span_is_pinned() {
    // 20 s..30 s of a 56 s session.
    let span = Record::ecg_span(&bank()[3], 56.0, 11, 7200..10800);
    let (samples, peaks) = span.read(7200, 3600);
    let mut h = Fnv::new();
    h.word(span.session_len() as u64);
    h.samples(samples);
    h.peaks(&peaks.collect::<Vec<_>>());
    assert_eq!(h.0, 0x7101_ba9b_29ac_eab0, "{:#018x}", h.0);
}

#[test]
fn ectopic_beat_train_is_pinned() {
    let s = &bank()[9];
    let clean = RrProcess::new(s.rr, 23).beat_times(0.4, 30.0);
    let params = EctopyParams {
        rate_per_min: 12.0,
        prematurity: 0.35,
    };
    let (times, ectopic) = inject_premature_beats(&clean, &params, 23 ^ 0xEC7);
    assert!(!ectopic.is_empty(), "the train must hold premature beats");
    let r = Record::synthesize_from_times(s, &times, 30.0, 23, physio_sim::SAMPLE_RATE_HZ);
    let got = record_digest(&r);
    assert_eq!(got, 0x4552_dd94_a103_0c66, "{got:#018x}");
}

#[test]
fn synthesize_at_250_hz_is_pinned() {
    let r = Record::synthesize_at(&bank()[2], 20.0, 5, 250.0);
    assert_eq!(r.len(), 5000);
    let got = record_digest(&r);
    assert_eq!(got, 0xf216_9c28_91cd_1261, "{got:#018x}");
}
