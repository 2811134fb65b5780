//! Property-based tests for the WIoT environment: channel statistics,
//! packetization integrity, and attacker containment.

use physio_sim::record::Record;
use physio_sim::subject::bank;
use proptest::prelude::*;
use wiot::attacker::{AttackClass, AttackMode, Attacker};
use wiot::channel::Channel;
use wiot::device::{SensorDevice, SensorPacket, Stream};

fn ecg_packet(start: usize, len: usize, fill: f64) -> SensorPacket {
    SensorPacket {
        stream: Stream::Ecg,
        seq: (start / len.max(1)) as u64,
        start_sample: start,
        samples: vec![fill; len],
        peaks: vec![],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn channel_loss_rate_tracks_parameter(loss_pct in 0u32..=90, seed in any::<u64>()) {
        let p = loss_pct as f64 / 100.0;
        let mut ch = Channel::new(p, 0, 0, seed).unwrap();
        for i in 0..2000 {
            ch.transmit(0, ecg_packet(i, 4, 0.0));
        }
        prop_assert!((ch.loss_rate() - p).abs() < 0.05, "target {p} got {}", ch.loss_rate());
    }

    #[test]
    fn channel_delay_bounded(delay in 0u64..100, jitter in 0u64..50, seed in any::<u64>()) {
        let mut ch = Channel::new(0.0, delay, jitter, seed).unwrap();
        for i in 0..200 {
            let ds = ch.transmit(1000, ecg_packet(i, 4, 0.0));
            prop_assert_eq!(ds.len(), 1);
            prop_assert!(ds[0].at_ms >= 1000 + delay);
            prop_assert!(ds[0].at_ms <= 1000 + delay + jitter);
        }
    }

    #[test]
    fn devices_packetize_losslessly(subject in 0usize..12, seed in any::<u64>(), chunk_ds in 1u32..20) {
        let b = bank();
        let r = Record::synthesize(&b[subject], 6.0, seed);
        let chunk_s = chunk_ds as f64 / 10.0;
        let mut dev = SensorDevice::ecg(&r, chunk_s);
        let mut collected = Vec::new();
        while let Some(p) = dev.poll() {
            prop_assert_eq!(p.start_sample, collected.len());
            collected.extend(p.samples);
        }
        prop_assert_eq!(&collected[..], &r.ecg[..collected.len()]);
        // At most one trailing partial chunk is dropped.
        let chunk_len = (chunk_s * r.fs).round() as usize;
        prop_assert!(r.len() - collected.len() < chunk_len.max(1));
    }

    #[test]
    fn attacker_never_touches_abp_or_outside_window(
        start in 0u64..5_000,
        len in 1u64..5_000,
        now in 0u64..15_000,
        seed in any::<u64>(),
    ) {
        let mut att = Attacker::new(AttackMode::new(AttackClass::Freeze, None, 0), start, start + len, seed);
        let abp = SensorPacket {
            stream: Stream::Abp,
            seq: 0,
            start_sample: 0,
            samples: vec![77.0; 16],
            peaks: vec![3],
        };
        prop_assert_eq!(att.intercept(now, abp.clone(), 360.0), abp);

        let ecg = ecg_packet(0, 16, 0.42);
        let out = att.intercept(now, ecg.clone(), 360.0);
        if (start..start + len).contains(&now) {
            prop_assert!(att.hijacked_packets() > 0);
        } else {
            prop_assert_eq!(out, ecg);
        }
    }

    #[test]
    fn substitution_attacker_output_is_donor_material(
        seed in any::<u64>(),
        start_chunk in 0usize..20,
    ) {
        let b = bank();
        let donor = Record::synthesize(&b[2], 12.0, seed);
        let substitute = AttackMode::new(AttackClass::Substitution, Some((&donor).into()), 0);
        let mut att = Attacker::new(substitute, 0, 60_000, seed);
        let len = 180;
        let start = start_chunk * len;
        let out = att.intercept(10, ecg_packet(start, len, 0.0), 360.0);
        // Every output sample exists somewhere in the donor ECG at the
        // co-located position.
        let s = start % donor.ecg.len().saturating_sub(len).max(1);
        prop_assert_eq!(&out.samples[..], &donor.ecg[s..s + len]);
    }

    #[test]
    fn noise_injection_bounded_by_amplitude(amp_mpct in 1u32..200, seed in any::<u64>()) {
        let amp = amp_mpct as f64 / 100.0;
        let noise = AttackMode::new(AttackClass::NoiseInject { amplitude_mv: amp }, None, 0);
        let mut att = Attacker::new(noise, 0, 60_000, seed);
        let clean = ecg_packet(0, 64, 0.5);
        let out = att.intercept(5, clean.clone(), 360.0);
        for (o, c) in out.samples.iter().zip(&clean.samples) {
            prop_assert!((o - c).abs() <= amp + 1e-12);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Base-station accounting invariant: every window index up to the
    /// last logged one appears exactly once in the log, and the emitted/
    /// dropped/rejected counters match the log.
    #[test]
    fn basestation_window_log_is_a_partition(loss_pct in 0u32..20, seed in any::<u64>()) {
        use amulet_sim::apps::SiftApp;
        use sift::config::SiftConfig;
        use sift::features::Version;
        use sift::trainer::train_for_subject;
        use wiot::basestation::{BaseStation, WindowOutcome};

        let cfg = SiftConfig {
            train_s: 60.0,
            max_positive_per_donor: Some(10),
            ..SiftConfig::default()
        };
        let model = train_for_subject(&bank(), 0, Version::Reduced, &cfg, 7).unwrap();
        let app = SiftApp::new(Version::Reduced, model.embedded().clone(), cfg.clone()).unwrap();
        let mut bs = BaseStation::new(app, cfg, 0.5).unwrap();

        let record = Record::synthesize(&bank()[0], 30.0, seed);
        let mut ecg = SensorDevice::ecg(&record, 0.5);
        let mut abp = SensorDevice::abp(&record, 0.5);
        let mut ch = Channel::new(loss_pct as f64 / 100.0, 0, 0, seed ^ 0xF00).unwrap();
        let mut now = 0u64;
        loop {
            let (pe, pa) = (ecg.poll(), abp.poll());
            if pe.is_none() && pa.is_none() {
                break;
            }
            for p in [pe, pa].into_iter().flatten() {
                for d in ch.transmit(now, p) {
                    bs.receive(d).unwrap();
                }
            }
            now += 500;
        }
        bs.flush().unwrap();

        let log = bs.window_log();
        // Indices strictly increasing, no duplicates, no gaps.
        for (i, &(idx, _)) in log.iter().enumerate() {
            prop_assert_eq!(idx, i, "window log must be gap-free and ordered");
        }
        let stats = bs.stats();
        let emitted = log
            .iter()
            .filter(|(_, o)| matches!(o, WindowOutcome::Emitted { .. }))
            .count() as u64;
        let dropped = log
            .iter()
            .filter(|(_, o)| matches!(o, WindowOutcome::Dropped))
            .count() as u64;
        prop_assert_eq!(stats.windows_emitted, emitted);
        prop_assert_eq!(stats.windows_dropped, dropped);
        // 30 s of 3 s windows: at most 10 windows ever logged.
        prop_assert!(log.len() <= 10);
        // With no loss, all 10 must be emitted.
        if loss_pct == 0 {
            prop_assert_eq!(emitted, 10);
        }
    }
}
