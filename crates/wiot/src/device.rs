//! Body-area sensor devices.
//!
//! Each medical device samples one physiological channel and transmits
//! fixed-size packets toward the base station. Packets carry the peak
//! annotations the device's firmware computed locally — the paper notes
//! on-sensor feature computation as one way to shrink the data stream
//! (Insight #1, citing Mercury).

use physio_sim::record::Record;

/// Which physiological stream a packet belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stream {
    /// Electrocardiogram.
    Ecg,
    /// Arterial blood pressure.
    Abp,
}

impl std::fmt::Display for Stream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Stream::Ecg => write!(f, "ecg"),
            Stream::Abp => write!(f, "abp"),
        }
    }
}

/// One radio packet: a contiguous chunk of samples plus the peak indices
/// (relative to the chunk) the sensor annotated.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorPacket {
    /// Source stream.
    pub stream: Stream,
    /// Sequence number (chunk index from the start of the session).
    pub seq: u64,
    /// Index of the first sample in the session timeline.
    pub start_sample: usize,
    /// The samples.
    pub samples: Vec<f64>,
    /// Peak indices relative to `samples`.
    pub peaks: Vec<usize>,
}

/// A sensor device streaming a pre-recorded (synthesized) channel in
/// fixed-duration chunks.
#[derive(Debug, Clone)]
pub struct SensorDevice {
    stream: Stream,
    samples: Vec<f64>,
    peaks: Vec<usize>,
    chunk_len: usize,
    next_chunk: u64,
}

impl SensorDevice {
    /// An ECG sensor streaming `record`'s ECG channel in `chunk_s`-second
    /// packets.
    pub fn ecg(record: &Record, chunk_s: f64) -> Self {
        Self::new(
            Stream::Ecg,
            record.ecg.clone(),
            record.r_peaks.clone(),
            record.fs,
            chunk_s,
        )
    }

    /// An ABP sensor streaming `record`'s ABP channel.
    pub fn abp(record: &Record, chunk_s: f64) -> Self {
        Self::new(
            Stream::Abp,
            record.abp.clone(),
            record.sys_peaks.clone(),
            record.fs,
            chunk_s,
        )
    }

    /// The ECG and ABP sensors streaming `record`, whose channels they
    /// take over instead of copying.
    pub(crate) fn pair(record: Record, chunk_s: f64) -> [Self; 2] {
        let Record {
            fs,
            ecg,
            abp,
            r_peaks,
            sys_peaks,
            ..
        } = record;
        [
            Self::new(Stream::Ecg, ecg, r_peaks, fs, chunk_s),
            Self::new(Stream::Abp, abp, sys_peaks, fs, chunk_s),
        ]
    }

    fn new(stream: Stream, samples: Vec<f64>, peaks: Vec<usize>, fs: f64, chunk_s: f64) -> Self {
        Self {
            stream,
            samples,
            peaks,
            chunk_len: chunk_len(chunk_s, fs),
            next_chunk: 0,
        }
    }

    /// Emit the next packet, or `None` when the recording is exhausted:
    /// packet `k` holds samples `k·chunk_len..(k + 1)·chunk_len`, and a
    /// last partial chunk is never sent.
    pub fn poll(&mut self) -> Option<SensorPacket> {
        let start = self.next_chunk as usize * self.chunk_len;
        if start + self.chunk_len > self.samples.len() {
            return None;
        }
        let end = start + self.chunk_len;
        let peaks = self
            .peaks
            .iter()
            .filter(|&&p| p >= start && p < end)
            .map(|&p| p - start)
            .collect();
        let packet = SensorPacket {
            stream: self.stream,
            seq: self.next_chunk,
            start_sample: start,
            samples: self.samples[start..end].to_vec(),
            peaks,
        };
        self.next_chunk += 1;
        Some(packet)
    }
}

/// Samples per packet of `chunk_s` seconds at `fs` Hz (at least one).
pub(crate) fn chunk_len(chunk_s: f64, fs: f64) -> usize {
    ((chunk_s * fs).round() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use physio_sim::subject::bank;

    fn record() -> Record {
        Record::synthesize(&bank()[0], 12.0, 5)
    }

    #[test]
    fn chunks_cover_stream_in_order() {
        let r = record();
        let mut dev = SensorDevice::ecg(&r, 0.5);
        let mut collected = Vec::new();
        let mut seq = 0;
        while let Some(p) = dev.poll() {
            assert_eq!(p.seq, seq);
            assert_eq!(p.stream, Stream::Ecg);
            assert_eq!(p.start_sample, collected.len());
            collected.extend(p.samples);
            seq += 1;
        }
        assert_eq!(collected[..], r.ecg[..collected.len()]);
        // 12 s in 0.5 s chunks = 24 packets.
        assert_eq!(seq, 24);
    }

    #[test]
    fn peaks_relative_and_complete() {
        let r = record();
        let mut dev = SensorDevice::abp(&r, 1.0);
        let mut reassembled = Vec::new();
        while let Some(p) = dev.poll() {
            for &rel in &p.peaks {
                assert!(rel < p.samples.len());
                reassembled.push(p.start_sample + rel);
            }
        }
        let expected: Vec<usize> = r
            .sys_peaks
            .iter()
            .copied()
            .filter(|&p| p < dev.samples.len() / dev.chunk_len * dev.chunk_len)
            .collect();
        assert_eq!(reassembled, expected);
    }

    #[test]
    fn stream_display() {
        assert_eq!(Stream::Ecg.to_string(), "ecg");
        assert_eq!(Stream::Abp.to_string(), "abp");
    }
}
