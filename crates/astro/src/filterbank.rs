//! A minimal channelized-data container ("filterbank") format.
//!
//! Real surveys exchange channelized time-series in SIGPROC-style
//! filterbank files. This module provides an in-memory equivalent with a
//! compact binary encoding (little-endian header + packed f32 samples),
//! sufficient for persisting and replaying the synthetic observations
//! generated by [`crate::signal`].

use dedisp_core::{DedispError, FrequencyBand, InputBuffer, Result};

/// Magic bytes identifying the encoding.
const MAGIC: &[u8; 8] = b"DDFBANK1";
/// Header bytes: the magic, low edge and channel width (`f64`), channel
/// count (`u64`), sample rate (`u32`) and sample count (`u64`).
const HEADER: usize = 8 + 8 + 8 + 8 + 4 + 8;

/// A channelized observation: band metadata plus the sample matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Filterbank {
    /// The observed band.
    pub band: FrequencyBand,
    /// Time resolution in samples/second.
    pub sample_rate: u32,
    /// The channelized samples (`channels × samples`, channel-major).
    pub data: InputBuffer,
}

impl Filterbank {
    /// Wraps an input buffer with its observing metadata.
    ///
    /// # Errors
    ///
    /// Returns a shape error if the buffer's channel count does not match
    /// the band.
    pub fn new(band: FrequencyBand, sample_rate: u32, data: InputBuffer) -> Result<Self> {
        if data.channels() != band.channels() {
            return Err(DedispError::ShapeMismatch {
                expected: format!("{} channels", band.channels()),
                found: format!("{} channels", data.channels()),
            });
        }
        Ok(Self {
            band,
            sample_rate,
            data,
        })
    }

    /// Serializes to the compact binary encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        let channels = self.data.channels();
        let samples = self.data.samples();
        let mut buf = Vec::with_capacity(HEADER + channels * samples * 4);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&self.band.low_mhz().to_le_bytes());
        buf.extend_from_slice(&self.band.channel_width_mhz().to_le_bytes());
        buf.extend_from_slice(&(channels as u64).to_le_bytes());
        buf.extend_from_slice(&self.sample_rate.to_le_bytes());
        buf.extend_from_slice(&(samples as u64).to_le_bytes());
        for &v in self.data.as_slice() {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf
    }

    /// Deserializes from the compact binary encoding.
    ///
    /// # Errors
    ///
    /// Returns an error on a bad magic number, truncated payload, or
    /// invalid metadata.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let fail = |what: &str| DedispError::invalid("filterbank", what.to_string());
        if bytes.len() < HEADER {
            return Err(fail("truncated header"));
        }
        let (header, payload) = bytes.split_at(HEADER);
        if &header[..8] != MAGIC {
            return Err(fail("bad magic"));
        }
        let word = |at: usize| -> [u8; 8] { header[at..at + 8].try_into().expect("in the header") };
        let low = f64::from_le_bytes(word(8));
        let width = f64::from_le_bytes(word(16));
        let channels = u64::from_le_bytes(word(24)) as usize;
        let sample_rate = u32::from_le_bytes(header[32..36].try_into().expect("in the header"));
        let samples = u64::from_le_bytes(word(36)) as usize;
        let band = FrequencyBand::new(low, width, channels)?;
        let expected = channels
            .checked_mul(samples)
            .and_then(|n| n.checked_mul(4))
            .ok_or_else(|| fail("sample count overflow"))?;
        if payload.len() != expected {
            return Err(fail("payload length mismatch"));
        }
        let data = payload
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes(b.try_into().expect("four bytes")))
            .collect();
        Ok(Self {
            band,
            sample_rate,
            data: InputBuffer::from_vec(channels, samples, data)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::ObservationalSetup;
    use crate::signal::{PulseSpec, SignalGenerator};

    fn sample_filterbank() -> Filterbank {
        let setup = ObservationalSetup::lofar().scaled(200);
        let plan = setup.plan(4).unwrap();
        let data = SignalGenerator::new(9)
            .pulse(PulseSpec::impulse(0.5, 10, 2.0))
            .generate(&plan);
        Filterbank::new(setup.band, setup.sample_rate, data).unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let fb = sample_filterbank();
        let bytes = fb.to_bytes();
        let back = Filterbank::from_bytes(&bytes).unwrap();
        assert_eq!(back, fb);
    }

    #[test]
    fn rejects_channel_mismatch() {
        let band = FrequencyBand::new(100.0, 1.0, 8).unwrap();
        let data = InputBuffer::zeroed(4, 10);
        assert!(Filterbank::new(band, 100, data).is_err());
    }

    #[test]
    fn rejects_bad_magic() {
        let fb = sample_filterbank();
        let mut raw = fb.to_bytes();
        raw[0] = b'X';
        assert!(Filterbank::from_bytes(&raw).is_err());
    }

    #[test]
    fn rejects_truncation() {
        let fb = sample_filterbank();
        let raw = fb.to_bytes();
        assert!(Filterbank::from_bytes(&raw[..raw.len() - 1]).is_err());
        assert!(Filterbank::from_bytes(&raw[..10]).is_err());
    }

    #[test]
    fn encoding_is_stable() {
        let fb = sample_filterbank();
        assert_eq!(fb.to_bytes(), fb.to_bytes());
    }
}
