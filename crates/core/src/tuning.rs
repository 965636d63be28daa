//! §IV-F tuning instrumentation: per-slot F1 accounting.
//!
//! When enabled, every prediction provided by a table slot is scored against
//! its outcome. Periodically (the paper uses 1 M cycles) the caller ends a
//! period: each slot's F1 for the period is folded into a running average
//! and reset. Ranking the averaged scores within each table (Fig. 14) shows
//! which tables are over- or under-provisioned and drives the MASCOT-OPT
//! sizing (§VI-D).

use mascot_stats::F1Accumulator;

/// Per-slot F1 bookkeeping for all tables of a predictor.
#[derive(Debug, Clone)]
pub struct TuningState {
    tables: Vec<Vec<F1Accumulator>>,
}

impl TuningState {
    /// Creates accounting for tables with the given slot capacities.
    pub fn new(capacities: impl IntoIterator<Item = usize>) -> Self {
        Self {
            tables: capacities
                .into_iter()
                .map(|c| vec![F1Accumulator::new(); c])
                .collect(),
        }
    }

    /// Number of instrumented tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Records one prediction/outcome pair against a providing slot.
    ///
    /// # Panics
    ///
    /// Panics if `table` or `slot` is out of range.
    #[inline]
    pub fn record(&mut self, table: usize, slot: usize, predicted_dep: bool, actual_dep: bool) {
        self.tables[table][slot].record(predicted_dep, actual_dep);
    }

    /// Ends the current period for every slot (§IV-F: snapshot F1 scores,
    /// then reset).
    pub fn end_period(&mut self) {
        for table in &mut self.tables {
            for acc in table {
                acc.end_period();
            }
        }
    }

    /// Average F1 per slot for one table, unsorted (slot order).
    ///
    /// # Panics
    ///
    /// Panics if `table` is out of range.
    pub fn slot_f1(&self, table: usize) -> Vec<f64> {
        self.tables[table]
            .iter()
            .map(F1Accumulator::average_f1)
            .collect()
    }

    /// Average F1 per slot for one table, ranked best-first (the Fig. 14
    /// curves).
    ///
    /// # Panics
    ///
    /// Panics if `table` is out of range.
    pub fn ranked_f1(&self, table: usize) -> Vec<f64> {
        let mut scores = self.slot_f1(table);
        scores.sort_by(|a, b| b.partial_cmp(a).expect("F1 scores are finite"));
        scores
    }

    /// Ranked F1 curves for every table.
    pub fn ranked_f1_all(&self) -> Vec<Vec<f64>> {
        (0..self.num_tables()).map(|t| self.ranked_f1(t)).collect()
    }

    /// Fraction of slots in `table` whose average F1 is at least
    /// `threshold` — a quick utilisation measure ("tables 5–8 could be
    /// reduced in size since their entries do not have high F1 scores").
    ///
    /// # Panics
    ///
    /// Panics if `table` is out of range.
    pub fn useful_fraction(&self, table: usize, threshold: f64) -> f64 {
        let scores = self.slot_f1(table);
        if scores.is_empty() {
            return 0.0;
        }
        scores.iter().filter(|&&s| s >= threshold).count() as f64 / scores.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_ranks() {
        let mut t = TuningState::new([4usize, 2]);
        assert_eq!(t.num_tables(), 2);
        // Slot 0 of table 0: perfect. Slot 1: useless.
        t.record(0, 0, true, true);
        t.record(0, 1, true, false);
        t.end_period();
        let ranked = t.ranked_f1(0);
        assert_eq!(ranked.len(), 4);
        assert!((ranked[0] - 1.0).abs() < 1e-12);
        assert_eq!(ranked[1], 0.0);
        assert!(ranked.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn useful_fraction_counts_threshold() {
        let mut t = TuningState::new([4usize]);
        t.record(0, 0, true, true);
        t.record(0, 1, true, true);
        t.end_period();
        assert!((t.useful_fraction(0, 0.5) - 0.5).abs() < 1e-12);
        assert_eq!(t.useful_fraction(0, 1.1), 0.0);
    }

    #[test]
    fn periods_average() {
        let mut t = TuningState::new([1usize]);
        t.record(0, 0, true, true); // F1 = 1 this period
        t.end_period();
        t.record(0, 0, true, false); // F1 = 0 this period
        t.end_period();
        assert!((t.slot_f1(0)[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ranked_all_covers_every_table() {
        let t = TuningState::new([3usize, 5, 7]);
        let all = t.ranked_f1_all();
        assert_eq!(all.len(), 3);
        assert_eq!(all[2].len(), 7);
    }
}
