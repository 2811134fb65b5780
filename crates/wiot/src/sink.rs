//! The sink: the resource-rich endpoint of the WIoT environment.
//!
//! "The sink is \[a\] resource-rich device responsible for providing
//! expensive but non safety-critical operations such as local storage of
//! historical patient information" (paper §I). Here it archives the
//! alerts the base station forwards.

use amulet_sim::machine::Alert;

/// Default archive capacity. The sink is "resource-rich", but a
/// multi-day soak must still run in flat memory; this bound holds
/// weeks of realistic traffic.
const DEFAULT_ALERT_CAP: usize = 8_192;

/// The sink's storage: a bounded alert archive with oldest-first
/// eviction.
#[derive(Debug, Clone)]
pub struct Sink {
    alerts: Vec<Alert>,
    alert_cap: usize,
}

impl Default for Sink {
    fn default() -> Self {
        Self {
            alerts: Vec::new(),
            alert_cap: DEFAULT_ALERT_CAP,
        }
    }
}

impl Sink {
    /// Fresh, empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Archive alerts forwarded from the base station; duplicates
    /// (same app + timestamp) are kept only once. Past the capacity the
    /// oldest alerts are evicted.
    pub fn archive_alerts(&mut self, alerts: &[Alert]) {
        for a in alerts {
            if !self
                .alerts
                .iter()
                .any(|b| b.at_ms == a.at_ms && b.app == a.app && b.message == a.message)
            {
                if self.alerts.len() >= self.alert_cap {
                    self.alerts.remove(0);
                }
                self.alerts.push(a.clone());
            }
        }
    }

    /// All archived alerts, in arrival order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Alerts within `[from_ms, to_ms)`.
    pub fn alerts_between(&self, from_ms: u64, to_ms: u64) -> Vec<&Alert> {
        self.alerts
            .iter()
            .filter(|a| (from_ms..to_ms).contains(&a.at_ms))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alert(at_ms: u64, msg: &str) -> Alert {
        Alert {
            at_ms,
            app: "sift-simplified".into(),
            message: msg.into(),
        }
    }

    #[test]
    fn archives_and_dedups_alerts() {
        let mut s = Sink::new();
        s.archive_alerts(&[alert(1, "a"), alert(2, "b")]);
        s.archive_alerts(&[alert(1, "a"), alert(3, "c")]);
        assert_eq!(s.alerts().len(), 3);
    }

    #[test]
    fn alert_range_query() {
        let mut s = Sink::new();
        s.archive_alerts(&[alert(5, "x"), alert(15, "y"), alert(25, "z")]);
        let hits = s.alerts_between(10, 20);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].message, "y");
    }

    #[test]
    fn bounded_archive_evicts_oldest() {
        let mut s = Sink {
            alert_cap: 2,
            ..Sink::new()
        };
        s.archive_alerts(&[alert(1, "a"), alert(2, "b"), alert(3, "c")]);
        assert_eq!(s.alerts().len(), 2);
        assert_eq!(s.alerts()[0].message, "b");
    }
}
