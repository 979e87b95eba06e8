//! Timing method shared by the overhead guards.

/// Off/on timings of an overhead guard and the overhead they show.
#[derive(Debug, Clone)]
pub struct PairedRatio {
    /// `(off, on)` seconds of each timed pair.
    pub pairs: Vec<(f64, f64)>,
    /// Per-pair `on / off` ratios, ascending.
    pub ratios: Vec<f64>,
}

impl PairedRatio {
    /// The median per-pair ratio: the overhead the guard asserts on.
    pub fn median(&self) -> f64 {
        self.ratios[self.ratios.len() / 2]
    }

    /// Mean milliseconds of the off (`on == false`) or on side.
    pub fn mean_ms(&self, on: bool) -> f64 {
        let side = |p: &(f64, f64)| if on { p.1 } else { p.0 };
        self.pairs.iter().map(side).sum::<f64>() / self.pairs.len() as f64 * 1e3
    }
}

/// Time `run(false)` against `run(true)` (each returns wall seconds) so
/// that a loaded, shared box cannot fake an overhead: one discarded
/// warm-up pair (thread spawn paths, allocator, caches), then `pairs`
/// (≥ 1) interleaved off/on pairs that alternate which side runs first,
/// so load drift hits both sides alike.
pub fn paired_ratio(pairs: usize, mut run: impl FnMut(bool) -> f64) -> PairedRatio {
    run(false);
    run(true);
    let pairs: Vec<(f64, f64)> = (0..pairs.max(1))
        .map(|i| {
            if i % 2 == 0 {
                let off = run(false);
                (off, run(true))
            } else {
                let on = run(true);
                (run(false), on)
            }
        })
        .collect();
    let mut ratios: Vec<f64> = pairs.iter().map(|(off, on)| on / off).collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    PairedRatio { pairs, ratios }
}
