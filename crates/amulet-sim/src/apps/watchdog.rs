//! A stream-liveness watchdog app.
//!
//! The SIFT detector can only judge windows it receives; a sensor that
//! stops transmitting entirely produces *no* windows and would fail
//! silent. This app closes that gap: when the reassembly layer notices
//! a stream has gone quiet it posts
//! [`AmuletEvent::StreamStalled`], and the watchdog turns that into a
//! distinct, user-visible alert — a different failure class than a
//! detection alert, surfaced through the same alert channel.

use crate::display::Severity;
use crate::event::AmuletEvent;
use crate::machine::{App, AppContext};
use crate::profiler::AppResourceSpec;

/// Cycles to format and raise one stall alert.
const CYCLES_PER_STALL: f64 = 1_200.0;

/// The watchdog app.
#[derive(Debug, Clone, Default)]
pub struct WatchdogApp {
    stalls: u64,
}

impl WatchdogApp {
    /// Fresh watchdog instance.
    pub fn new() -> Self {
        Self::default()
    }
}

impl App for WatchdogApp {
    fn name(&self) -> &str {
        "watchdog"
    }

    // lint:allow(embedded-no-heap-alloc, static resource declaration consumed by the host-side profiler)
    fn resource_spec(&self) -> AppResourceSpec {
        AppResourceSpec {
            name: "watchdog".into(),
            fram_code_bytes: 280,
            fram_data_bytes: 8,
            sram_peak_bytes: 16,
            cycles_per_period: CYCLES_PER_STALL,
            period_s: 3.0,
            libs: vec![],
        }
    }

    fn current_state(&self) -> &'static str {
        "Armed"
    }

    // lint:allow(embedded-no-heap-alloc, alert/display strings render on the host; device firmware writes a fixed screen buffer)
    fn handle(&mut self, event: &AmuletEvent, ctx: &mut AppContext<'_>) {
        if let AmuletEvent::StreamStalled { stream, silent_ms } = event {
            ctx.charge_cycles(CYCLES_PER_STALL);
            self.stalls += 1;
            ctx.raise_alert(format!(
                "stream stalled: {stream} silent for {silent_ms} ms"
            ));
            ctx.display(Severity::Info, format!("{stream} offline"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::display::Display;
    use crate::energy::{EnergyMeter, EnergyModel};
    use crate::machine::Alert;

    fn dispatch(app: &mut WatchdogApp, event: AmuletEvent) -> Vec<Alert> {
        let mut display = Display::new();
        let mut meter = EnergyMeter::new();
        let model = EnergyModel::default();
        let mut alerts = Vec::new();
        let mut ctx =
            AppContext::new(7_000, "watchdog", &mut display, &mut meter, &model, &mut alerts);
        app.handle(&event, &mut ctx);
        alerts
    }

    #[test]
    fn stall_event_raises_a_distinct_alert() {
        let mut app = WatchdogApp::new();
        let alerts = dispatch(
            &mut app,
            AmuletEvent::StreamStalled {
                stream: "abp".into(),
                silent_ms: 4_500,
            },
        );
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].app, "watchdog");
        assert!(alerts[0].message.contains("stream stalled"));
        assert!(alerts[0].message.contains("abp"));
        assert!(alerts[0].message.contains("4500"));
        assert_eq!(app.stalls, 1);
    }

    #[test]
    fn other_events_are_ignored() {
        let mut app = WatchdogApp::new();
        assert!(dispatch(&mut app, AmuletEvent::ButtonPress).is_empty());
        assert!(dispatch(&mut app, AmuletEvent::Tick { ms: 5 }).is_empty());
        assert_eq!(app.stalls, 0);
    }
}
