//! The metrics registry: a fixed, enum-indexed set of gauges plus
//! power-of-two-bucket histograms.
//!
//! Everything here is integer-valued on purpose: merging two devices'
//! metrics is element-wise addition, which is associative over the
//! fleet engine's device-ordered fold and therefore bit-stable at any
//! thread count (no floating-point accumulation order to worry about).
//! Mutation (set/observe) lives in [`crate::record`].

/// Instantaneous values. Integer-valued; callers quantize (e.g. battery
/// fraction → permille) *outside* the recording hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GaugeId {
    /// 1 while a link-degradation episode is active, else 0.
    LinkDegraded,
    /// Battery remaining, permille of capacity.
    BatteryPermille,
}

/// Number of gauges.
pub const GAUGE_COUNT: usize = 2;

impl GaugeId {
    /// Every gauge, in export order.
    pub const ALL: [GaugeId; GAUGE_COUNT] = [GaugeId::LinkDegraded, GaugeId::BatteryPermille];

    /// Dense array index.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name for exports.
    pub fn name(self) -> &'static str {
        match self {
            GaugeId::LinkDegraded => "link_degraded",
            GaugeId::BatteryPermille => "battery_permille",
        }
    }
}

/// Histogram buckets: bucket 0 holds zeros, bucket `k ≥ 1` holds values
/// whose bit length is `k` (i.e. `2^(k-1) ≤ v < 2^k`).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket power-of-two histogram over `u64` observations.
///
/// Bucket boundaries are value-independent, so merging two histograms
/// is element-wise addition — the property that makes fleet aggregation
/// bit-stable regardless of fold order or thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket observation counts.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (saturating).
    pub sum: u64,
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// The bucket a value falls into.
    pub fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Element-wise add `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Accumulated span statistics for one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageStats {
    /// Spans recorded.
    pub spans: u64,
    /// Total units across all spans (MSP430 cycles on the Amulet path,
    /// work units host-side).
    pub units: u64,
    /// Distribution of per-span units.
    pub hist: Histogram,
}

impl StageStats {
    /// Zeroed statistics.
    pub const fn new() -> Self {
        StageStats {
            spans: 0,
            units: 0,
            hist: Histogram::new(),
        }
    }

    /// Element-wise add `other` into `self`.
    pub fn merge(&mut self, other: &StageStats) {
        self.spans = self.spans.saturating_add(other.spans);
        self.units = self.units.saturating_add(other.units);
        self.hist.merge(&other.hist);
    }

    /// Mean units per span (0 when no spans).
    pub fn mean_units(&self) -> u64 {
        self.units.checked_div(self.spans).unwrap_or(0)
    }
}

impl Default for StageStats {
    fn default() -> Self {
        StageStats::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_indices_are_dense_and_names_unique() {
        for (i, g) in GaugeId::ALL.iter().enumerate() {
            assert_eq!(g.index(), i, "{}", g.name());
        }
        let mut names: Vec<&str> = GaugeId::ALL.iter().map(|g| g.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), GAUGE_COUNT, "duplicate gauge name");
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_merge_equals_combined_observation() {
        let mut tele_a = crate::Telemetry::enabled();
        let mut tele_b = crate::Telemetry::enabled();
        let mut tele_all = crate::Telemetry::enabled();
        for v in [0u64, 1, 5, 100, 1 << 40] {
            tele_a.span(0, crate::Stage::PeakDetection, v);
            tele_all.span(0, crate::Stage::PeakDetection, v);
        }
        for v in [7u64, 9, 1 << 20] {
            tele_b.span(0, crate::Stage::PeakDetection, v);
            tele_all.span(0, crate::Stage::PeakDetection, v);
        }
        let mut merged = tele_a.report().unwrap();
        merged.merge(&tele_b.report().unwrap());
        let all = tele_all.report().unwrap();
        assert_eq!(
            merged.stage(crate::Stage::PeakDetection).hist,
            all.stage(crate::Stage::PeakDetection).hist
        );
    }

    #[test]
    fn stage_stats_mean() {
        let mut s = StageStats::new();
        s.merge(&StageStats {
            spans: 2,
            units: 10,
            hist: Histogram::new(),
        });
        assert_eq!(s.mean_units(), 5);
        assert_eq!(StageStats::new().mean_units(), 0);
    }
}
