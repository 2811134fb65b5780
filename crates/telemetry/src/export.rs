//! Deterministic exports: NDJSON traces built from integer fields in a
//! fixed order. No wall-clock, no locale, no float formatting — two
//! identical reports always serialize to byte-identical text.

use crate::metrics::GaugeId;
use crate::{Stage, TelemetryReport};
use std::fmt::Write as _;

/// Render a report as NDJSON: one `meta` line, one line per non-zero
/// gauge, one per stage with spans, then one line per ring event
/// (oldest first). Output is byte-deterministic for a given report.
pub fn ndjson(report: &TelemetryReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"type\":\"meta\",\"events_recorded\":{},\"events_dropped\":{}}}",
        report.events_recorded, report.events_dropped
    );
    for id in GaugeId::ALL {
        let v = report.gauge(id);
        if v != 0 {
            let _ = writeln!(
                out,
                "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{}}}",
                id.name(),
                v
            );
        }
    }
    for stage in Stage::ALL {
        let s = report.stage(stage);
        if s.spans != 0 {
            let _ = write!(
                out,
                "{{\"type\":\"stage\",\"name\":\"{}\",\"spans\":{},\"units\":{},\"mean_units\":{},\"buckets\":[",
                stage.name(),
                s.spans,
                s.units,
                s.mean_units()
            );
            // Trailing zero buckets are elided so traces stay compact.
            let last = s
                .hist
                .buckets
                .iter()
                .rposition(|&b| b != 0)
                .map_or(0, |i| i + 1);
            for (i, b) in s.hist.buckets.iter().take(last).enumerate() {
                if i > 0 {
                    let _ = write!(out, ",");
                }
                let _ = write!(out, "{b}");
            }
            let _ = writeln!(out, "]}}");
        }
    }
    for ev in &report.events {
        let _ = writeln!(
            out,
            "{{\"type\":\"event\",\"t_ms\":{},\"code\":\"{}\",\"a\":{},\"b\":{}}}",
            ev.t_ms,
            ev.code.name(),
            ev.a,
            ev.b
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::EventCode;
    use crate::Telemetry;

    #[test]
    fn ndjson_is_deterministic_and_well_formed() {
        let mut t = Telemetry::enabled();
        t.gauge_set(GaugeId::BatteryPermille, 950);
        t.span(10, Stage::Svm, 5);
        t.event(20, EventCode::FaultReboot, 1, 0);
        let r = t.report().unwrap();
        let a = ndjson(&r);
        assert_eq!(a, ndjson(&r), "same report must serialize identically");
        // Meta, the non-zero gauge, the stage with spans, then the ring
        // oldest first: the span's own event, then the reboot.
        let expected = concat!(
            "{\"type\":\"meta\",\"events_recorded\":2,\"events_dropped\":0}\n",
            "{\"type\":\"gauge\",\"name\":\"battery_permille\",\"value\":950}\n",
            "{\"type\":\"stage\",\"name\":\"svm\",\"spans\":1,\"units\":5,",
            "\"mean_units\":5,\"buckets\":[0,0,0,1]}\n",
            "{\"type\":\"event\",\"t_ms\":10,\"code\":\"span\",\"a\":3,\"b\":5}\n",
            "{\"type\":\"event\",\"t_ms\":20,\"code\":\"fault_reboot\",\"a\":1,\"b\":0}\n",
        );
        assert_eq!(a, expected);
    }

    #[test]
    fn empty_report_is_just_the_meta_line() {
        let t = Telemetry::enabled();
        let text = ndjson(&t.report().unwrap());
        assert_eq!(text.lines().count(), 1);
        assert!(text.starts_with("{\"type\":\"meta\""));
    }
}
