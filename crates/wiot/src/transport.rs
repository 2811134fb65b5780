//! Reliable transport on the sensor → base-station hop.
//!
//! The raw [`Channel`] loses, duplicates, and reorders packets;
//! [`ArqLink`] wraps it with a lightweight ARQ so most losses never
//! reach the detector:
//!
//! * the receiver watches sequence numbers and issues a **NACK** for
//!   each gap (either observed directly when a later packet overtakes
//!   it, or inferred by timeout for tail losses),
//! * the sender keeps a **bounded retransmit buffer** of recent packets
//!   (a real sensor has a few kB of RAM, so old packets are evicted and
//!   become unrecoverable),
//! * each NACKed packet is retransmitted under an **exponential
//!   backoff** until a per-packet **retry budget** is exhausted,
//! * everything the link does is counted in [`TransportStats`].
//!
//! Both ends live in one object because the link is simulated
//! end-to-end; the protocol state is still strictly split between the
//! sender half (buffer, retry accounting) and receiver half (dedup,
//! gap tracking), so the abstraction mirrors a real split
//! implementation.
//!
//! A device has two links on this hop, one per stream (ECG, ABP), each
//! raw or ARQ-protected. The crate-private `Links` owns both: the scenario sends, delivers,
//! degrades and re-budgets through it, and reads their merged loss,
//! channel and transport figures from it.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::channel::{Channel, ChannelConfig, ChannelStats, Delivery, LossModel};
use crate::device::{SensorPacket, Stream};
use crate::WiotError;

/// ARQ tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArqConfig {
    /// Retransmission budget per packet; a packet still missing after
    /// this many retransmits is given up on.
    pub max_retries: u32,
    /// First-retry backoff, ms; doubles on every further retry.
    pub base_backoff_ms: u64,
    /// Sender-side retransmit buffer capacity, packets. Oldest entries
    /// are evicted when full (and become unrecoverable).
    pub buffer_cap: usize,
    /// How long a packet may be overdue before the receiver NACKs it,
    /// ms. Also the tail-loss detection timeout after the send time.
    pub nack_delay_ms: u64,
}

impl Default for ArqConfig {
    fn default() -> Self {
        Self {
            max_retries: 5,
            base_backoff_ms: 10,
            buffer_cap: 64,
            nack_delay_ms: 30,
        }
    }
}

impl ArqConfig {
    fn validate(&self) -> Result<(), WiotError> {
        if self.buffer_cap == 0 {
            return Err(WiotError::InvalidScenario {
                reason: "ARQ retransmit buffer capacity must be positive",
            });
        }
        Ok(())
    }
}

/// Counters of everything the ARQ layer did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransportStats {
    /// First-time data packets offered to the link.
    pub data_sent: u64,
    /// Retransmissions performed.
    pub retransmits: u64,
    /// NACKs issued by the receiver.
    pub nacks_sent: u64,
    /// Gaps that were eventually filled by a retransmission.
    pub gap_recoveries: u64,
    /// Packets abandoned after the retry budget ran out (or after
    /// eviction from the retransmit buffer).
    pub give_ups: u64,
    /// Duplicate arrivals discarded by the receiver.
    pub duplicates_discarded: u64,
    /// Packets evicted from the full retransmit buffer.
    pub buffer_evictions: u64,
}

impl TransportStats {
    /// Retransmissions per first-time data packet — the survival
    /// policy's view of how hard the link is working.
    pub fn retransmit_rate(&self) -> f64 {
        if self.data_sent == 0 {
            0.0
        } else {
            self.retransmits as f64 / self.data_sent as f64
        }
    }

    /// Sum of two counter sets (two links of one device, or devices of
    /// a fleet).
    #[must_use]
    pub fn merged(self, other: Self) -> Self {
        Self {
            data_sent: self.data_sent + other.data_sent,
            retransmits: self.retransmits + other.retransmits,
            nacks_sent: self.nacks_sent + other.nacks_sent,
            gap_recoveries: self.gap_recoveries + other.gap_recoveries,
            give_ups: self.give_ups + other.give_ups,
            duplicates_discarded: self.duplicates_discarded + other.duplicates_discarded,
            buffer_evictions: self.buffer_evictions + other.buffer_evictions,
        }
    }
}

/// Receiver-side bookkeeping for one missing sequence number.
#[derive(Debug, Clone, Copy)]
struct Gap {
    /// Retransmissions requested so far.
    attempts: u32,
    /// Earliest time of the next NACK, ms (exponential backoff).
    next_retry_ms: u64,
}

/// A buffered copy of a sent packet, for retransmission.
#[derive(Debug, Clone)]
struct Buffered {
    sent_ms: u64,
    packet: SensorPacket,
}

/// An ARQ-protected link: a [`Channel`] plus sender/receiver protocol
/// state.
#[derive(Debug, Clone)]
pub struct ArqLink {
    channel: Channel,
    config: ArqConfig,
    /// Retry budget currently in force. Starts at
    /// [`ArqConfig::max_retries`]; the survival policy may tighten it
    /// at runtime under low battery.
    retry_max: u32,
    /// Extra backoff doublings applied to every retransmission on top
    /// of the attempt count (survival-policy backoff widening).
    retry_extra_shift: u32,
    stats: TransportStats,
    /// Sender: bounded history of sent packets, oldest first.
    buffer: VecDeque<Buffered>,
    /// Packets in the air, unordered; pumped out by `at_ms`.
    in_flight: Vec<Delivery>,
    /// Receiver: next sequence number not yet fully accounted for.
    next_expected: u64,
    /// Receiver: out-of-order sequence numbers already delivered.
    delivered_ahead: BTreeSet<u64>,
    /// Receiver: missing sequence numbers under recovery.
    gaps: BTreeMap<u64, Gap>,
    /// Highest sequence number handed to `send` (+1), for tail-loss
    /// detection.
    sent_horizon: u64,
}

impl ArqLink {
    /// Wrap `channel` with ARQ under `config`.
    ///
    /// # Errors
    ///
    /// Returns [`WiotError::InvalidScenario`] for an invalid config.
    pub fn new(channel: Channel, config: ArqConfig) -> Result<Self, WiotError> {
        config.validate()?;
        Ok(Self {
            channel,
            retry_max: config.max_retries,
            retry_extra_shift: 0,
            config,
            stats: TransportStats::default(),
            buffer: VecDeque::new(),
            in_flight: Vec::new(),
            next_expected: 0,
            delivered_ahead: BTreeSet::new(),
            gaps: BTreeMap::new(),
            sent_horizon: 0,
        })
    }

    /// Send a first-time data packet at `now_ms`. A copy is buffered
    /// for possible retransmission (evicting the oldest entry when the
    /// buffer is full).
    pub fn send(&mut self, now_ms: u64, packet: SensorPacket) {
        self.stats.data_sent += 1;
        self.sent_horizon = self.sent_horizon.max(packet.seq + 1);
        if self.buffer.len() == self.config.buffer_cap {
            self.buffer.pop_front();
            self.stats.buffer_evictions += 1;
        }
        self.buffer.push_back(Buffered {
            sent_ms: now_ms,
            packet: packet.clone(),
        });
        let copies = self.channel.transmit(now_ms, packet);
        self.in_flight.extend(copies);
    }

    /// Advance the link to `now_ms`: collect every packet that has
    /// arrived, discard duplicates, NACK + retransmit overdue gaps, and
    /// return the fresh arrivals (in arrival order).
    /// A packet whose retry budget runs out (or whose buffered copy was
    /// evicted before recovery) is a counted give-up, never an error:
    /// losing a chunk is survivable, since the base station can salvage
    /// the window.
    ///
    /// # Errors
    ///
    /// None: every loss is counted in [`TransportStats`]. The `Result`
    /// stays in the public signature because out-of-crate callers match
    /// it against other fallible link pumps; the device's own delivery
    /// path pumps without one.
    pub fn pump(&mut self, now_ms: u64) -> Result<Vec<Delivery>, WiotError> {
        Ok(self.pump_arrivals(now_ms))
    }

    /// [`ArqLink::pump`] without the `Result`.
    fn pump_arrivals(&mut self, now_ms: u64) -> Vec<Delivery> {
        let arrivals = self.collect_arrivals(now_ms);
        let mut out = Vec::new();
        for delivery in arrivals {
            let seq = delivery.packet.seq;
            if self.is_delivered(seq) {
                self.stats.duplicates_discarded += 1;
                continue;
            }
            if self.gaps.remove(&seq).is_some() {
                self.stats.gap_recoveries += 1;
            }
            self.note_gaps_before(seq, now_ms);
            self.mark_delivered(seq);
            out.push(delivery);
        }
        self.detect_tail_losses(now_ms);
        self.service_gaps(now_ms);
        out
    }

    /// Whether the link still has packets in the air, gaps under
    /// recovery, or tail losses whose detection timeout has not yet
    /// expired (useful for end-of-session draining).
    pub fn idle(&self) -> bool {
        self.in_flight.is_empty() && self.gaps.is_empty() && !self.has_unresolved_tail()
    }

    /// A buffered packet at or past `next_expected` that never arrived:
    /// either a gap already under recovery, or a tail loss that
    /// `detect_tail_losses` will pick up once its timeout expires.
    fn has_unresolved_tail(&self) -> bool {
        self.buffer.iter().any(|b| {
            b.packet.seq >= self.next_expected && !self.delivered_ahead.contains(&b.packet.seq)
        })
    }

    /// Transport-layer counters.
    pub fn stats(&self) -> TransportStats {
        self.stats
    }

    /// Re-tune the retry posture at runtime: a new per-packet retry
    /// budget and extra backoff doublings per retransmission. The
    /// survival policy widens backoff and tightens the budget under
    /// low battery so a bad link cannot drain the cell with radio
    /// retries. Gaps already under recovery keep their attempt counts;
    /// only the budget they are judged against changes.
    pub fn set_retry_budget(&mut self, max_retries: u32, extra_shift: u32) {
        self.retry_max = max_retries;
        self.retry_extra_shift = extra_shift;
    }

    /// The underlying channel (e.g. for loss statistics).
    pub fn channel(&self) -> &Channel {
        &self.channel
    }

    /// The underlying channel, mutably (e.g. for a fault plan's degrade
    /// override).
    pub fn channel_mut(&mut self) -> &mut Channel {
        &mut self.channel
    }

    /// Remove and return everything arriving by `now_ms`, in stable
    /// `at_ms` order.
    fn collect_arrivals(&mut self, now_ms: u64) -> Vec<Delivery> {
        let mut arrived: Vec<Delivery> = self
            .in_flight
            .extract_if(.., |d| d.at_ms <= now_ms)
            .collect();
        // Stable: equal at_ms keeps transmission order, so replays are
        // byte-identical.
        arrived.sort_by_key(|d| d.at_ms);
        arrived
    }

    fn is_delivered(&self, seq: u64) -> bool {
        seq < self.next_expected || self.delivered_ahead.contains(&seq)
    }

    fn mark_delivered(&mut self, seq: u64) {
        if seq == self.next_expected {
            self.next_expected += 1;
            while self.delivered_ahead.remove(&self.next_expected) {
                self.next_expected += 1;
            }
        } else {
            self.delivered_ahead.insert(seq);
        }
    }

    /// A packet with sequence `seq` just arrived: everything below it
    /// that is neither delivered nor already tracked is a fresh gap.
    fn note_gaps_before(&mut self, seq: u64, now_ms: u64) {
        for missing in self.next_expected..seq {
            if !self.delivered_ahead.contains(&missing) {
                self.gaps.entry(missing).or_insert(Gap {
                    attempts: 0,
                    next_retry_ms: now_ms + self.config.nack_delay_ms,
                });
            }
        }
    }

    /// Tail losses have no later arrival to expose them; infer them
    /// from the send time instead.
    fn detect_tail_losses(&mut self, now_ms: u64) {
        for b in &self.buffer {
            let seq = b.packet.seq;
            if seq < self.next_expected
                || self.delivered_ahead.contains(&seq)
                || self.gaps.contains_key(&seq)
            {
                continue;
            }
            if now_ms >= b.sent_ms + self.config.nack_delay_ms {
                self.gaps.insert(
                    seq,
                    Gap {
                        attempts: 0,
                        next_retry_ms: now_ms,
                    },
                );
            }
        }
    }

    /// NACK and retransmit every due gap; abandon gaps whose budget ran
    /// out.
    fn service_gaps(&mut self, now_ms: u64) {
        let due: Vec<u64> = self
            .gaps
            .iter()
            .filter(|(_, g)| now_ms >= g.next_retry_ms)
            .map(|(&seq, _)| seq)
            .collect();
        for seq in due {
            let Some(gap) = self.gaps.get_mut(&seq) else {
                continue;
            };
            if gap.attempts >= self.retry_max {
                self.gaps.remove(&seq);
                self.stats.give_ups += 1;
                // Unrecoverable: stop waiting for it so in-order
                // release can move past the hole.
                self.mark_delivered(seq);
                continue;
            }
            self.stats.nacks_sent += 1;
            let copy = self
                .buffer
                .iter()
                .find(|b| b.packet.seq == seq)
                .map(|b| b.packet.clone());
            match copy {
                Some(packet) => {
                    gap.attempts += 1;
                    // Exponential backoff, shift-capped so it cannot
                    // overflow on absurd budgets.
                    let backoff = self.config.base_backoff_ms
                        << (gap.attempts + self.retry_extra_shift).min(16);
                    gap.next_retry_ms = now_ms + backoff.max(1);
                    self.stats.retransmits += 1;
                    let copies = self.channel.transmit(now_ms, packet);
                    self.in_flight.extend(copies);
                }
                None => {
                    // Evicted from the retransmit buffer before the
                    // NACK: unrecoverable.
                    self.gaps.remove(&seq);
                    self.stats.give_ups += 1;
                    self.mark_delivered(seq);
                }
            }
        }
    }
}

/// One sensor → base-station link: raw channel or ARQ-protected.
enum Link {
    Raw {
        channel: Channel,
        in_flight: Vec<Delivery>,
    },
    Arq(ArqLink),
}

impl Link {
    fn channel(&self) -> &Channel {
        match self {
            Link::Raw { channel, .. } => channel,
            Link::Arq(link) => link.channel(),
        }
    }

    fn channel_mut(&mut self) -> &mut Channel {
        match self {
            Link::Raw { channel, .. } => channel,
            Link::Arq(link) => link.channel_mut(),
        }
    }

    /// Move everything arriving by `now_ms` into `out`: a raw link in
    /// transmission order, an ARQ link deduplicated and in `at_ms`
    /// order.
    fn pump_into(&mut self, now_ms: u64, out: &mut Vec<Delivery>) {
        match self {
            Link::Raw { in_flight, .. } => {
                out.extend(in_flight.extract_if(.., |d| d.at_ms <= now_ms));
            }
            Link::Arq(link) => out.extend(link.pump_arrivals(now_ms)),
        }
    }
}

/// A device's two uplinks — ECG on the first, ABP on the second — and
/// everything done to both at once: send, deliver, degrade, retry
/// budget, and the merged loss, channel and transport figures.
pub(crate) struct Links([Link; 2]);

impl Links {
    /// Two links over `config`, seeded `seeds[0]` (ECG) and `seeds[1]`
    /// (ABP), ARQ-protected when `arq` is set.
    pub(crate) fn new(
        config: &ChannelConfig,
        seeds: [u64; 2],
        arq: Option<ArqConfig>,
    ) -> Result<Self, WiotError> {
        let link = |seed| -> Result<Link, WiotError> {
            let channel = Channel::with_config(config.clone(), seed)?;
            Ok(match arq {
                Some(cfg) => Link::Arq(ArqLink::new(channel, cfg)?),
                None => Link::Raw {
                    channel,
                    in_flight: Vec::new(),
                },
            })
        };
        Ok(Self([link(seeds[0])?, link(seeds[1])?]))
    }

    /// Offer `packet` to its stream's link at `now_ms`.
    pub(crate) fn send(&mut self, stream: Stream, now_ms: u64, packet: SensorPacket) {
        let [ecg, abp] = &mut self.0;
        let link = match stream {
            Stream::Ecg => ecg,
            Stream::Abp => abp,
        };
        match link {
            Link::Raw { channel, in_flight } => in_flight.extend(channel.transmit(now_ms, packet)),
            Link::Arq(link) => link.send(now_ms, packet),
        }
    }

    /// Everything arriving on either link by `now_ms`, in delivery-time
    /// order (one stable sort: equal times keep ECG first, then each
    /// link's own order).
    pub(crate) fn deliver(&mut self, now_ms: u64) -> Vec<Delivery> {
        let mut arrivals = Vec::new();
        for link in &mut self.0 {
            link.pump_into(now_ms, &mut arrivals);
        }
        arrivals.sort_by_key(|d| d.at_ms);
        arrivals
    }

    /// Whether neither link has anything left to deliver or recover.
    pub(crate) fn idle(&self) -> bool {
        self.0.iter().all(|link| match link {
            Link::Raw { in_flight, .. } => in_flight.is_empty(),
            Link::Arq(link) => link.idle(),
        })
    }

    /// Install (or clear) each link's degrade override — `want[0]` for
    /// ECG, `want[1]` for ABP. Returns whether any link now runs
    /// degraded.
    ///
    /// # Errors
    ///
    /// An invalid loss model.
    pub(crate) fn degrade(&mut self, want: [Option<LossModel>; 2]) -> Result<bool, WiotError> {
        for (link, loss) in self.0.iter_mut().zip(want) {
            link.channel_mut().set_degrade(loss)?;
        }
        Ok(want.iter().any(Option::is_some))
    }

    /// Apply a retry posture to both links (no-op on raw links — there
    /// is no retransmission to budget).
    pub(crate) fn set_retry_budget(&mut self, max_retries: u32, extra_shift: u32) {
        for link in &mut self.0 {
            if let Link::Arq(link) = link {
                link.set_retry_budget(max_retries, extra_shift);
            }
        }
    }

    /// Observed loss rate, the mean of both links.
    pub(crate) fn loss_rate(&self) -> f64 {
        let [ecg, abp] = &self.0;
        (ecg.channel().loss_rate() + abp.channel().loss_rate()) / 2.0
    }

    /// Channel counters summed over both links.
    pub(crate) fn channel_stats(&self) -> ChannelStats {
        let [ecg, abp] = &self.0;
        ecg.channel().stats().merged(abp.channel().stats())
    }

    /// ARQ counters summed over both links (`None` without ARQ).
    pub(crate) fn transport_stats(&self) -> Option<TransportStats> {
        match &self.0 {
            [Link::Arq(a), Link::Arq(b)] => Some(a.stats().merged(b.stats())),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(seq: u64) -> SensorPacket {
        SensorPacket {
            stream: Stream::Ecg,
            seq,
            start_sample: seq as usize * 8,
            samples: vec![seq as f64; 8],
            peaks: vec![],
        }
    }

    /// Drive `n` packets through the link at 10 ms spacing, pumping
    /// each tick and draining afterwards; returns delivered seqs.
    fn run(link: &mut ArqLink, n: u64) -> Vec<u64> {
        let mut got = Vec::new();
        let mut now = 0u64;
        for seq in 0..n {
            link.send(now, packet(seq));
            got.extend(link.pump(now).unwrap().iter().map(|d| d.packet.seq));
            now += 10;
        }
        for _ in 0..200 {
            now += 10;
            got.extend(link.pump(now).unwrap().iter().map(|d| d.packet.seq));
            if link.idle() {
                break;
            }
        }
        got
    }

    #[test]
    fn lossless_link_is_transparent() {
        let mut link = ArqLink::new(Channel::perfect(), ArqConfig::default()).unwrap();
        let got = run(&mut link, 50);
        assert_eq!(got, (0..50).collect::<Vec<_>>());
        let s = link.stats();
        assert_eq!(s.data_sent, 50);
        assert_eq!(s.retransmits, 0);
        assert_eq!(s.nacks_sent, 0);
        assert_eq!(s.give_ups, 0);
    }

    #[test]
    fn recovers_all_packets_under_random_loss() {
        let ch = Channel::new(0.2, 5, 3, 42).unwrap();
        let mut link = ArqLink::new(ch, ArqConfig::default()).unwrap();
        let mut got = run(&mut link, 100);
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>(), "{:?}", link.stats());
        let s = link.stats();
        assert!(s.retransmits > 0, "{s:?}");
        assert!(s.gap_recoveries > 0, "{s:?}");
        assert_eq!(s.give_ups, 0, "{s:?}");
    }

    #[test]
    fn recovers_under_burst_loss() {
        let ch = Channel::with_config(
            ChannelConfig {
                loss: LossModel::GilbertElliott {
                    p_good_to_bad: 0.05,
                    p_bad_to_good: 0.4,
                    loss_good: 0.01,
                    loss_bad: 0.7,
                },
                base_delay_ms: 5,
                jitter_ms: 3,
                ..ChannelConfig::default()
            },
            7,
        )
        .unwrap();
        let mut link = ArqLink::new(ch, ArqConfig::default()).unwrap();
        let mut got = run(&mut link, 100);
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert!(link.stats().gap_recoveries > 0);
    }

    #[test]
    fn duplicates_are_discarded() {
        let ch = Channel::with_config(
            ChannelConfig {
                dup_prob: 1.0,
                ..ChannelConfig::default()
            },
            3,
        )
        .unwrap();
        let mut link = ArqLink::new(ch, ArqConfig::default()).unwrap();
        let got = run(&mut link, 20);
        assert_eq!(got, (0..20).collect::<Vec<_>>());
        assert_eq!(link.stats().duplicates_discarded, 20);
    }

    #[test]
    fn dead_link_exhausts_budget_without_error_by_default() {
        let ch = Channel::new(1.0, 0, 0, 1).unwrap();
        let mut link = ArqLink::new(ch, ArqConfig::default()).unwrap();
        let got = run(&mut link, 10);
        assert!(got.is_empty());
        let s = link.stats();
        assert_eq!(s.give_ups, 10, "{s:?}");
        assert!(s.retransmits > 0);
        assert!(link.idle());
    }

    #[test]
    fn buffer_eviction_is_counted_and_bounds_memory() {
        let mut link = ArqLink::new(
            Channel::perfect(),
            ArqConfig {
                buffer_cap: 4,
                ..ArqConfig::default()
            },
        )
        .unwrap();
        for seq in 0..10 {
            link.send(0, packet(seq));
        }
        assert_eq!(link.stats().buffer_evictions, 6);
        assert!(link.buffer.len() <= 4);
    }

    #[test]
    fn deterministic_per_seed() {
        let drive = || {
            let ch = Channel::new(0.3, 5, 4, 99).unwrap();
            let mut link = ArqLink::new(ch, ArqConfig::default()).unwrap();
            let got = run(&mut link, 60);
            (got, link.stats())
        };
        assert_eq!(drive(), drive());
    }

    #[test]
    fn zero_buffer_cap_rejected() {
        assert!(ArqLink::new(
            Channel::perfect(),
            ArqConfig {
                buffer_cap: 0,
                ..ArqConfig::default()
            }
        )
        .is_err());
    }

    #[test]
    fn runtime_retry_budget_tightens_and_widens() {
        // A dead link with the default budget retries 5 times per
        // packet; after tightening to 1 it retries once and gives up
        // sooner, and the widened backoff spaces retries further out.
        let drive = |max: u32, shift: u32| {
            let ch = Channel::new(1.0, 0, 0, 1).unwrap();
            let mut link = ArqLink::new(ch, ArqConfig::default()).unwrap();
            link.set_retry_budget(max, shift);
            assert_eq!((link.retry_max, link.retry_extra_shift), (max, shift));
            run(&mut link, 5);
            link.stats()
        };
        let tight = drive(1, 2);
        let normal = drive(5, 0);
        assert_eq!(tight.give_ups, 5);
        assert_eq!(normal.give_ups, 5);
        assert!(
            tight.retransmits < normal.retransmits,
            "tight {tight:?} vs normal {normal:?}"
        );
    }

    #[test]
    fn retransmit_rate_reflects_effort() {
        let mut s = TransportStats::default();
        assert_eq!(s.retransmit_rate(), 0.0);
        s.data_sent = 100;
        s.retransmits = 25;
        assert!((s.retransmit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn links_merge_arrivals_in_time_order_with_ecg_first_on_ties() {
        let config = ChannelConfig {
            base_delay_ms: 5,
            ..ChannelConfig::default()
        };
        for arq in [None, Some(ArqConfig::default())] {
            let mut links = Links::new(&config, [1, 2], arq).unwrap();
            let abp = |seq| SensorPacket {
                stream: Stream::Abp,
                ..packet(seq)
            };
            // ABP sent first but later; ECG and ABP tie at 10 ms.
            links.send(Stream::Abp, 0, abp(0));
            links.send(Stream::Ecg, 5, packet(0));
            links.send(Stream::Abp, 5, abp(1));
            assert!(links.deliver(4).is_empty());
            let got: Vec<(u64, Stream)> = links
                .deliver(10)
                .iter()
                .map(|d| (d.at_ms, d.packet.stream))
                .collect();
            assert_eq!(
                got,
                [(5, Stream::Abp), (10, Stream::Ecg), (10, Stream::Abp)],
                "arq {arq:?}"
            );
            assert!(links.idle());
            assert_eq!(links.channel_stats().sent, 3);
            assert_eq!(links.loss_rate(), 0.0);
            assert_eq!(links.transport_stats().map(|t| t.data_sent), arq.map(|_| 3));
        }
    }

    #[test]
    fn merged_stats_sum_every_counter() {
        let t = TransportStats {
            data_sent: 1,
            retransmits: 2,
            nacks_sent: 3,
            gap_recoveries: 4,
            give_ups: 5,
            duplicates_discarded: 6,
            buffer_evictions: 7,
        };
        let doubled = TransportStats {
            data_sent: 2,
            retransmits: 4,
            nacks_sent: 6,
            gap_recoveries: 8,
            give_ups: 10,
            duplicates_discarded: 12,
            buffer_evictions: 14,
        };
        assert_eq!(t.merged(t), doubled);
        let c = ChannelStats {
            sent: 1,
            lost: 2,
            duplicated: 3,
            reordered: 4,
            corrupted: 5,
        };
        let c2 = c.merged(c);
        assert_eq!(
            [c2.sent, c2.lost, c2.duplicated, c2.reordered, c2.corrupted],
            [2, 4, 6, 8, 10]
        );
    }
}
