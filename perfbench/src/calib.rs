//! Machine speed, measured with a fixed kernel that shares no code with the
//! program under test.
//!
//! Other guests on the shared host slow memory-heavy code, by up to a third
//! and for seconds to minutes at a time, while register-only code keeps its
//! speed. A byte histogram over a fixed buffer slows in step with the
//! encoder: over ten 40-s windows on a 2-vCPU VM the serial encoder's speed
//! spread 23% between its quartiles, its ratio to the histogram's speed
//! 3–5%. A calibration pass takes about 10 ms, so one runs between every
//! two measured streams, and each stream's CPU-bound figures are scaled by
//! `REFERENCE_MB_S` over the mean speed of the two calibrations around it.
//! They read as on the reference machine at its usual speed, and a slow
//! stretch of the host does not show as a regression.

use crate::stream::INPUT_BYTES;
use std::hint::black_box;
use std::time::Instant;

/// Median speed of one calibration pass over a 40-s run on the reference
/// machine (2 vCPUs of a shared x86-64 host); twenty runs read 1,530–1,760
/// MB/s.
pub const REFERENCE_MB_S: f64 = 1650.0;

/// Calibrations taken between measurements, over fixed pseudo-random bytes
/// that are the same in every run and for every seed.
pub struct Speedometer {
    buf: Vec<u8>,
    /// Speed of every calibration so far, in order, MB/s.
    speeds: Vec<f64>,
}

impl Speedometer {
    /// Fill the buffer and take the first calibration.
    pub fn new() -> Self {
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let buf = (0..INPUT_BYTES)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect();
        let mut s = Speedometer {
            buf,
            speeds: Vec::new(),
        };
        s.calibrate();
        s
    }

    /// Close the measurement made since the previous calibration with a
    /// new one, and return the factor that scales its figures to the
    /// reference speed.
    pub fn scale(&mut self) -> f64 {
        let before = *self.speeds.last().expect("calibrated in new()");
        let after = self.calibrate();
        2.0 * REFERENCE_MB_S / (before + after)
    }

    pub fn speeds(&self) -> &[f64] {
        &self.speeds
    }

    /// One byte-histogram pass over the buffer; its speed in MB/s.
    fn calibrate(&mut self) -> f64 {
        let t = Instant::now();
        let mut hist = [0u64; 256];
        for &b in black_box(&self.buf) {
            hist[usize::from(b)] += 1;
        }
        black_box(hist);
        let speed = self.buf.len() as f64 / 1e6 / t.elapsed().as_secs_f64();
        self.speeds.push(speed);
        speed
    }
}
