//! Banked DRAM timing model with open-page row buffers.
//!
//! The analytical model charges memory traffic at a flat peak bandwidth.
//! Real DRAM delivers that only for row-buffer-friendly streams; random
//! streams pay precharge/activate on most accesses. This model quantifies
//! the gap: it streams addresses through `banks` independent banks, each
//! with one open row, and accumulates busy time per bank.
//!
//! It backs the simulator-validation story (how optimistic is flat
//! bandwidth?).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// DRAM timing parameters, in memory-clock cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramTimings {
    /// Column access latency (row already open).
    pub t_cas: u32,
    /// Row activate latency.
    pub t_rcd: u32,
    /// Precharge latency (closing the previous row).
    pub t_rp: u32,
    /// Cycles of data transfer per access burst.
    pub t_burst: u32,
}

impl Default for DramTimings {
    fn default() -> Self {
        DramTimings {
            t_cas: 14,
            t_rcd: 14,
            t_rp: 14,
            t_burst: 4,
        }
    }
}

/// Aggregate result of streaming accesses through the model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Total accesses issued.
    pub accesses: u64,
    /// Accesses that hit an open row.
    pub row_hits: u64,
    /// Total memory-clock cycles of bank busy time (max over banks).
    pub busy_cycles: u64,
}

impl DramStats {
    /// Row-buffer hit rate (`1.0` when no accesses were made).
    pub fn row_hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            1.0
        } else {
            self.row_hits as f64 / self.accesses as f64
        }
    }

    /// Achieved fraction of peak bandwidth: transfer cycles over busy
    /// cycles (`1.0` when idle).
    pub fn bandwidth_efficiency(&self, timings: &DramTimings) -> f64 {
        if self.busy_cycles == 0 {
            return 1.0;
        }
        (self.accesses * u64::from(timings.t_burst)) as f64 / self.busy_cycles as f64
    }
}

/// A banked open-page DRAM device.
#[derive(Debug, Clone)]
pub struct DramModel {
    timings: DramTimings,
    row_bytes: u64,
    /// Open row per bank (`None` = precharged).
    open_rows: Vec<Option<u64>>,
    /// Busy cycles accumulated per bank.
    bank_busy: Vec<u64>,
    stats: DramStats,
}

impl DramModel {
    /// Creates a model with `banks` banks and `row_bytes` row-buffer size.
    ///
    /// # Panics
    ///
    /// Panics if `banks` or `row_bytes` is zero.
    pub fn new(banks: usize, row_bytes: u64, timings: DramTimings) -> Self {
        assert!(banks > 0, "need at least one bank");
        assert!(row_bytes > 0, "row size must be positive");
        DramModel {
            timings,
            row_bytes,
            open_rows: vec![None; banks],
            bank_busy: vec![0; banks],
            stats: DramStats::default(),
        }
    }

    /// A GDDR-class default: 16 banks, 2 KiB rows.
    pub fn default_device() -> Self {
        Self::new(16, 2048, DramTimings::default())
    }

    /// Issues one access (a cache-line fill) at a byte address.
    pub fn access(&mut self, addr: u64) {
        let row = addr / self.row_bytes;
        let bank = (row % self.open_rows.len() as u64) as usize;
        let t = &self.timings;
        let cycles = match self.open_rows[bank] {
            Some(open) if open == row => {
                self.stats.row_hits += 1;
                u64::from(t.t_cas + t.t_burst)
            }
            Some(_) => u64::from(t.t_rp + t.t_rcd + t.t_cas + t.t_burst),
            None => u64::from(t.t_rcd + t.t_cas + t.t_burst),
        };
        self.open_rows[bank] = Some(row);
        self.bank_busy[bank] += cycles;
        self.stats.accesses += 1;
        self.stats.busy_cycles = self.bank_busy.iter().copied().max().unwrap_or(0);
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Timing parameters of the device.
    pub fn timings(&self) -> &DramTimings {
        &self.timings
    }
}

/// Streams `accesses` line fills with the given spatial `locality` (the
/// probability of staying in the current row) through a model, returning
/// the stats. Deterministic for a seed.
pub fn run_dram_stream(
    model: &mut DramModel,
    footprint_bytes: u64,
    accesses: u64,
    locality: f64,
    seed: u64,
) -> DramStats {
    let mut rng = StdRng::seed_from_u64(seed);
    let footprint = footprint_bytes.max(1);
    let mut cursor: u64 = 0;
    for _ in 0..accesses {
        if !rng.gen_bool(locality.clamp(0.0, 1.0)) {
            cursor = rng.gen_range(0..footprint);
        } else {
            cursor = (cursor + 64) % footprint;
        }
        model.access(cursor);
    }
    model.stats()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_stream_hits_rows() {
        let mut dram = DramModel::default_device();
        for i in 0..10_000u64 {
            dram.access(i * 64);
        }
        let s = dram.stats();
        // 2 KiB rows hold 32 lines: 31/32 of accesses hit.
        assert!(s.row_hit_rate() > 0.95, "hit rate {}", s.row_hit_rate());
        assert!(s.bandwidth_efficiency(dram.timings()) > 0.15);
    }

    #[test]
    fn random_stream_misses_rows() {
        let mut dram = DramModel::default_device();
        let stats = run_dram_stream(&mut dram, 1 << 30, 10_000, 0.0, 1);
        assert!(
            stats.row_hit_rate() < 0.05,
            "hit rate {}",
            stats.row_hit_rate()
        );
    }

    #[test]
    fn locality_orders_efficiency() {
        let eff = |locality: f64| {
            let mut dram = DramModel::default_device();
            let stats = run_dram_stream(&mut dram, 64 << 20, 20_000, locality, 2);
            stats.bandwidth_efficiency(dram.timings())
        };
        let low = eff(0.1);
        let high = eff(0.95);
        assert!(high > low, "high {high} vs low {low}");
    }

    #[test]
    fn banking_spreads_busy_time() {
        // Busy time (max over banks) for an interleaved stream must be far
        // below the single-bank serial total.
        let mut many = DramModel::new(16, 2048, DramTimings::default());
        let mut one = DramModel::new(1, 2048, DramTimings::default());
        run_dram_stream(&mut many, 64 << 20, 20_000, 0.3, 3);
        run_dram_stream(&mut one, 64 << 20, 20_000, 0.3, 3);
        assert!(many.stats().busy_cycles * 4 < one.stats().busy_cycles);
    }

    #[test]
    fn empty_stats_are_identity() {
        let dram = DramModel::default_device();
        assert_eq!(dram.stats().row_hit_rate(), 1.0);
        assert_eq!(dram.stats().bandwidth_efficiency(dram.timings()), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_rejected() {
        DramModel::new(0, 2048, DramTimings::default());
    }
}
