//! Transport edge cases: the awkward corners of the ARQ layer that the
//! happy-path suites never hit.
//!
//! * **Tail loss on the last packet of a stream** — no later arrival
//!   ever exposes the gap, so recovery rides entirely on the
//!   timeout-driven NACK path, including across the scenario's
//!   end-of-session drain.
//! * **Retry-budget exhaustion** — a dead link must degrade into
//!   counted give-ups, and [`run`] must still complete.
//! * **Duplication under ARQ** — a duplicating radio MAC (of both
//!   first-time sends and retransmissions) must never double-deliver a
//!   chunk or shift a window verdict.

use wiot::channel::{Channel, ChannelConfig, LossModel};
use wiot::device::{SensorPacket, Stream};
use wiot::faults::{FaultEvent, FaultKind, FaultPlan};
use wiot::scenario::{run, Scenario};
use wiot::transport::{ArqConfig, ArqLink};

fn packet(seq: u64) -> SensorPacket {
    SensorPacket {
        stream: Stream::Ecg,
        seq,
        start_sample: seq as usize * 8,
        samples: vec![seq as f64; 8],
        peaks: vec![],
    }
}

fn quiet_scenario() -> Scenario {
    Scenario::new(1, sift::features::Version::Simplified, 12.0)
}

/// The final packet of a stream is lost. Nothing ever arrives after it
/// to reveal the gap by sequence number, so only the send-time tail
/// timeout can trigger the NACK — and it must, because the stream is
/// over and no further traffic will flush the hole.
#[test]
fn nack_recovers_the_lost_final_packet_of_a_stream() {
    let mut link = ArqLink::new(Channel::perfect(), ArqConfig::default()).unwrap();
    let mut got = Vec::new();
    let mut now = 0u64;
    for seq in 0..9 {
        link.send(now, packet(seq));
        got.extend(link.pump(now).unwrap().iter().map(|d| d.packet.seq));
        now += 10;
    }
    // The last packet of the stream hits a momentary blackout.
    link.channel_mut()
        .set_degrade(Some(LossModel::Bernoulli { p: 1.0 }))
        .unwrap();
    link.send(now, packet(9));
    got.extend(link.pump(now).unwrap().iter().map(|d| d.packet.seq));
    link.channel_mut().set_degrade(None).unwrap();
    assert!(!got.contains(&9), "blackout should have eaten seq 9");

    // Drain: no new sends, only the tail-loss timeout can save seq 9.
    for _ in 0..200 {
        now += 10;
        got.extend(link.pump(now).unwrap().iter().map(|d| d.packet.seq));
        if link.idle() {
            break;
        }
    }
    assert_eq!(got, (0..10).collect::<Vec<_>>());
    let s = link.stats();
    assert!(s.nacks_sent >= 1, "{s:?}");
    assert_eq!(s.gap_recoveries, 1, "{s:?}");
    assert_eq!(s.give_ups, 0, "{s:?}");
    assert!(link.idle());
}

/// Same edge at scenario level: a link blackout swallows the packets of
/// the session's final window, and the ARQ must pull them back during
/// the end-of-session drain — the window count and verdicts end up
/// identical to an unfaulted run.
#[test]
fn tail_loss_on_the_final_window_is_recovered_through_the_drain() {
    let clean = run(&quiet_scenario()).unwrap();
    assert!(
        clean.window_recovery_rate > 0.99,
        "baseline must be clean, got {}",
        clean.window_recovery_rate
    );

    let mut scenario = quiet_scenario();
    // Generous retry budget: every retransmit inside the blackout is
    // lost too, and the recovering one only lands after it lifts.
    scenario.arq = Some(ArqConfig {
        max_retries: 12,
        ..ArqConfig::default()
    });
    scenario.faults = FaultPlan::new().with(FaultEvent {
        start_s: 11.0,
        end_s: 11.4,
        kind: FaultKind::LinkDegrade {
            stream: None,
            loss: LossModel::Bernoulli { p: 1.0 },
        },
    });
    let report = run(&scenario).unwrap();
    let t = report.transport.expect("ARQ was on");
    assert!(t.nacks_sent > 0, "{t:?}");
    assert!(t.gap_recoveries > 0, "{t:?}");
    assert_eq!(t.give_ups, 0, "{t:?}");
    assert!(report.channel.lost > 0, "the blackout must cost packets");
    assert_eq!(report.dropped_windows, 0);
    assert_eq!(report.salvaged_windows, 0);
    assert_eq!(report.window_recovery_rate, clean.window_recovery_rate);
    assert_eq!(report.confusion.tp + report.confusion.fp, clean.confusion.tp + clean.confusion.fp);
    assert_eq!(report.confusion.tn + report.confusion.fn_, clean.confusion.tn + clean.confusion.fn_);
}

/// A dead link degrades gracefully: the run completes, every packet is
/// accounted for as a give-up, and the recovery rate honestly reports
/// zero.
#[test]
fn non_strict_arq_counts_give_ups_instead_of_failing() {
    let mut scenario = quiet_scenario();
    scenario.link.loss_prob = 1.0;
    scenario.arq = Some(ArqConfig {
        max_retries: 2,
        ..ArqConfig::default()
    });
    let report = run(&scenario).unwrap();
    let t = report.transport.expect("ARQ was on");
    assert!(t.give_ups > 0, "{t:?}");
    assert_eq!(t.gap_recoveries, 0, "{t:?}");
    assert_eq!(report.window_recovery_rate, 0.0);
}

/// A duplicating radio MAC under ARQ: every duplicate is discarded at
/// the receiver, and the window stream is byte-identical to the clean
/// run — duplication must never double-feed a chunk into assembly.
#[test]
fn arq_discards_duplicates_without_double_counting_windows() {
    let clean = run(&quiet_scenario()).unwrap();

    let mut scenario = quiet_scenario();
    scenario.link.dup_prob = 0.35;
    scenario.arq = Some(ArqConfig::default());
    let report = run(&scenario).unwrap();
    let t = report.transport.expect("ARQ was on");
    assert!(report.channel.duplicated > 0, "{:?}", report.channel);
    assert!(t.duplicates_discarded > 0, "{t:?}");
    assert_eq!(t.give_ups, 0, "{t:?}");
    assert_eq!(report.dropped_windows, 0);
    assert_eq!(report.window_recovery_rate, clean.window_recovery_rate);
    assert_eq!(report.confusion.fp, clean.confusion.fp);
    assert_eq!(report.confusion.tn, clean.confusion.tn);
}

/// Loss and duplication together: retransmissions themselves get
/// duplicated, so the receiver sees the same recovered sequence number
/// more than once. Gap recovery and dedup must not fight — each hole is
/// filled exactly once and the extra copies are discarded.
#[test]
fn duplicated_retransmissions_are_deduplicated_once_recovered() {
    let ch = Channel::with_config(
        ChannelConfig {
            loss: LossModel::Bernoulli { p: 0.15 },
            dup_prob: 0.5,
            base_delay_ms: 5,
            jitter_ms: 3,
            ..ChannelConfig::default()
        },
        0xD0D0,
    )
    .unwrap();
    let mut link = ArqLink::new(ch, ArqConfig::default()).unwrap();
    let mut got = Vec::new();
    let mut now = 0u64;
    for seq in 0..120 {
        link.send(now, packet(seq));
        got.extend(link.pump(now).unwrap().iter().map(|d| d.packet.seq));
        now += 10;
    }
    for _ in 0..300 {
        now += 10;
        got.extend(link.pump(now).unwrap().iter().map(|d| d.packet.seq));
        if link.idle() {
            break;
        }
    }
    let s = link.stats();
    assert!(s.gap_recoveries > 0, "{s:?}");
    assert!(s.duplicates_discarded > 0, "{s:?}");
    assert_eq!(s.give_ups, 0, "{s:?}");
    // Exactly-once delivery: every sequence number, no repeats.
    let mut sorted = got.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), got.len(), "a duplicate leaked through");
    assert_eq!(sorted, (0..120).collect::<Vec<_>>());
}
