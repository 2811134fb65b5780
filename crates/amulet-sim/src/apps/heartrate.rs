//! A minimal heart-rate display app.
//!
//! The Amulet's selling point is running "multiple applications from
//! different third party developers … on the same device" (paper §II-B).
//! This app consumes the same `SnippetReady` events as the detector and
//! renders the wearer's heart rate, demonstrating event fan-out without
//! threads.

use crate::display::Severity;
use crate::event::AmuletEvent;
use crate::machine::{App, AppContext};
use crate::profiler::AppResourceSpec;

/// Cycles to count peaks and format two digits.
const CYCLES_PER_WINDOW: f64 = 9_000.0;

/// The heart-rate app.
#[derive(Debug, Clone)]
pub struct HeartRateApp {
    fs: f64,
    windows: u64,
    last_bpm: Option<f64>,
}

impl Default for HeartRateApp {
    fn default() -> Self {
        Self::new()
    }
}

impl HeartRateApp {
    /// Fresh app instance at the workspace's default 360 Hz sample rate.
    pub fn new() -> Self {
        Self::with_sample_rate(360.0)
    }

    /// App instance for an explicit sensor sample rate.
    pub fn with_sample_rate(fs: f64) -> Self {
        Self {
            fs,
            windows: 0,
            last_bpm: None,
        }
    }

    /// Windows processed.
    pub fn windows(&self) -> u64 {
        self.windows
    }
}

impl App for HeartRateApp {
    fn name(&self) -> &str {
        "heartrate"
    }

    // lint:allow(embedded-no-heap-alloc, static resource declaration consumed by the host-side profiler)
    fn resource_spec(&self) -> AppResourceSpec {
        AppResourceSpec {
            name: "heartrate".into(),
            fram_code_bytes: 420,
            fram_data_bytes: 16,
            sram_peak_bytes: 24,
            cycles_per_period: CYCLES_PER_WINDOW,
            period_s: 3.0,
            libs: vec![],
        }
    }

    fn current_state(&self) -> &'static str {
        "Display"
    }

    // lint:allow(embedded-no-heap-alloc, display strings render on the host; device firmware writes a fixed screen buffer)
    // lint:allow(embedded-no-slice-index, r_peaks indices guarded by the len() >= 2 check)
    fn handle(&mut self, event: &AmuletEvent, ctx: &mut AppContext<'_>) {
        // A pre-scored window carries the same raw snippet; the display
        // path is identical either way.
        if let AmuletEvent::SnippetReady(snippet) | AmuletEvent::SnippetScored(snippet, _) = event
        {
            ctx.charge_cycles(CYCLES_PER_WINDOW);
            self.windows += 1;
            if snippet.r_peaks.len() >= 2 {
                let first = snippet.r_peaks[0];
                let last = snippet.r_peaks[snippet.r_peaks.len() - 1];
                let beats = (snippet.r_peaks.len() - 1) as f64;
                let span_s = (last - first) as f64 / self.fs;
                if span_s > 0.0 {
                    let bpm = 60.0 * beats / span_s;
                    self.last_bpm = Some(bpm);
                    ctx.display(Severity::Info, format!("HR {bpm:.0} bpm"));
                    return;
                }
            }
            ctx.display(Severity::Info, "HR --");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::display::Display;
    use crate::energy::{EnergyMeter, EnergyModel};
    use sift::snippet::Snippet;

    fn dispatch(app: &mut HeartRateApp, sn: Snippet) -> Display {
        let mut display = Display::new();
        let mut meter = EnergyMeter::new();
        let model = EnergyModel::default();
        let mut alerts = Vec::new();
        let mut ctx =
            AppContext::new(0, "heartrate", &mut display, &mut meter, &model, &mut alerts);
        app.handle(&AmuletEvent::SnippetReady(sn), &mut ctx);
        display
    }

    #[test]
    fn computes_bpm_from_peaks() {
        let mut app = HeartRateApp::new();
        // Peaks at 0 s, 1 s, 2 s → 60 bpm.
        let fs = 360usize;
        let mut ecg = vec![0.0; 3 * fs];
        for &p in &[0usize, fs, 2 * fs] {
            ecg[p] = 1.0;
        }
        let abp = (0..3 * fs).map(|i| 80.0 + (i % 7) as f64).collect();
        let sn = Snippet::new(ecg, abp, vec![0, fs, 2 * fs], vec![]).unwrap();
        let display = dispatch(&mut app, sn);
        assert_eq!(app.last_bpm.map(|b| b.round()), Some(60.0));
        assert!(display.lines()[0].text.contains("60"));
    }

    #[test]
    fn too_few_peaks_shows_placeholder() {
        let mut app = HeartRateApp::new();
        let sn = Snippet::new(vec![0.0, 1.0], vec![80.0, 81.0], vec![1], vec![]).unwrap();
        let display = dispatch(&mut app, sn);
        assert_eq!(app.last_bpm, None);
        assert!(display.lines()[0].text.contains("--"));
        assert_eq!(app.windows(), 1);
    }
}
