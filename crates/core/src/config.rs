//! MASCOT configuration: table geometry, counter widths and presets.
//!
//! The default configuration is the paper's 14 KiB predictor (§IV-B): eight
//! 4-way tables of 512 entries with history lengths [0, 2, 4, 8, 16, 32, 64,
//! 128] and 28-bit entries. [`MascotConfig::opt`] is MASCOT-OPT (§VI-D) and
//! [`MascotConfig::opt_with_tag_reduction`] reproduces the Fig. 15 tag-size
//! sweep down to the 10.1 KiB point.

use mascot_snapshot::{SnapError, SnapReader, SnapWriter};

/// Errors produced when validating a [`MascotConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The per-table vectors have mismatched lengths or are empty.
    ShapeMismatch(String),
    /// A table's entry count is not a positive multiple of the associativity
    /// yielding a power-of-two set count.
    BadTableSize(usize),
    /// A counter or field width is out of its supported range.
    BadWidth(String),
    /// History lengths must start at 0 and strictly increase.
    BadHistory(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ShapeMismatch(s) => write!(f, "configuration shape mismatch: {s}"),
            ConfigError::BadTableSize(i) => write!(f, "table {i} size is invalid"),
            ConfigError::BadWidth(s) => write!(f, "invalid field width: {s}"),
            ConfigError::BadHistory(s) => write!(f, "invalid history lengths: {s}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full geometry and policy parameters for a MASCOT predictor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MascotConfig {
    /// Global-history length (in branches) used by each table, shortest
    /// first; the first entry must be 0 (the PC-indexed table).
    pub history_lengths: Vec<u32>,
    /// Total entries per table (sets × associativity).
    pub table_entries: Vec<u32>,
    /// Tag width per table, in bits.
    pub tag_bits: Vec<u8>,
    /// Ways per set (the paper uses 4).
    pub associativity: u32,
    /// Distance field width (7 bits: 0 = non-dependence, 1..=127 = distance).
    pub distance_bits: u8,
    /// Usefulness (MDP confidence) counter width (3 bits).
    pub usefulness_bits: u8,
    /// Bypass (SMB confidence) counter width (2 bits).
    pub bypass_bits: u8,
    /// Initial usefulness for newly allocated *dependent* entries (6).
    pub dep_alloc_usefulness: u8,
    /// Initial usefulness for newly allocated *non-dependent* entries (2).
    pub nondep_alloc_usefulness: u8,
    /// Whether to collect per-slot F1 tuning statistics (§IV-F). Off by
    /// default; enabled for the Figs. 13–14 experiments.
    pub tuning: bool,
    /// §IV-E extension: support bypassing *offset* loads (fully contained
    /// in the store at a non-zero offset) by incorporating a shifting
    /// field. The paper's default microarchitecture bypasses only
    /// same-address pairs.
    pub offset_bypass: bool,
    /// §IV-C: decrement every usefulness counter after this many updates
    /// (the periodic decay common to TAGE-like predictors). The paper
    /// found no meaningful performance change from it and leaves it off;
    /// `Some(n)` enables it for the ablation study.
    pub periodic_decay: Option<u32>,
}

impl Default for MascotConfig {
    fn default() -> Self {
        Self::default_14kib()
    }
}

impl MascotConfig {
    /// The paper's default 14 KiB configuration (§IV-B, Table II).
    pub fn default_14kib() -> Self {
        Self {
            history_lengths: vec![0, 2, 4, 8, 16, 32, 64, 128],
            table_entries: vec![512; 8],
            tag_bits: vec![16; 8],
            associativity: 4,
            distance_bits: 7,
            usefulness_bits: 3,
            bypass_bits: 2,
            dep_alloc_usefulness: 6,
            nondep_alloc_usefulness: 2,
            tuning: false,
            offset_bypass: false,
            periodic_decay: None,
        }
    }

    /// MASCOT-OPT (§VI-D): table sizes [1024, 512, 512, 512, 256, 256, 256,
    /// 128] and tag sizes [15, 16, 16, 16, 17, 17, 17, 18], a 16 % size
    /// reduction at an IPC cost of ~0.09 %.
    pub fn opt() -> Self {
        Self {
            table_entries: vec![1024, 512, 512, 512, 256, 256, 256, 128],
            tag_bits: vec![15, 16, 16, 16, 17, 17, 17, 18],
            ..Self::default_14kib()
        }
    }

    /// MASCOT-OPT with every tag shortened by `bits` (the Fig. 15 sweep;
    /// `bits = 4` is the paper's 10.1 KiB design point).
    ///
    /// # Panics
    ///
    /// Panics if the reduction would leave any tag shorter than 6 bits.
    pub fn opt_with_tag_reduction(bits: u8) -> Self {
        let mut cfg = Self::opt();
        for t in &mut cfg.tag_bits {
            assert!(
                *t >= bits + 6,
                "tag reduction of {bits} bits leaves tags too short"
            );
            *t -= bits;
        }
        cfg
    }

    /// Enables tuning statistics collection (builder style).
    pub fn with_tuning(mut self) -> Self {
        self.tuning = true;
        self
    }

    /// Enables the §IV-E offset-bypass extension (builder style).
    pub fn with_offset_bypass(mut self) -> Self {
        self.offset_bypass = true;
        self
    }

    /// Enables periodic usefulness decay every `updates` updates (§IV-C
    /// ablation; builder style).
    ///
    /// # Panics
    ///
    /// Panics if `updates` is zero.
    pub fn with_periodic_decay(mut self, updates: u32) -> Self {
        assert!(updates > 0, "decay period must be non-zero");
        self.periodic_decay = Some(updates);
        self
    }

    /// Number of tagged tables.
    pub fn num_tables(&self) -> usize {
        self.history_lengths.len()
    }

    /// Bits per entry in table `i` (tag + distance + usefulness + bypass).
    pub fn entry_bits(&self, table: usize) -> u64 {
        u64::from(self.tag_bits[table])
            + u64::from(self.distance_bits)
            + u64::from(self.usefulness_bits)
            + u64::from(self.bypass_bits)
    }

    /// Total storage across all tables, in bits (Table II accounting:
    /// entries only, no logic).
    pub fn storage_bits(&self) -> u64 {
        (0..self.num_tables())
            .map(|i| u64::from(self.table_entries[i]) * self.entry_bits(i))
            .sum()
    }

    /// Total storage in KiB.
    pub fn storage_kib(&self) -> f64 {
        self.storage_bits() as f64 / 8192.0
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first violated constraint:
    /// mismatched per-table vector lengths, non-power-of-two set counts,
    /// out-of-range widths, or non-increasing history lengths.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let n = self.history_lengths.len();
        if n == 0 {
            return Err(ConfigError::ShapeMismatch("no tables configured".into()));
        }
        if self.table_entries.len() != n || self.tag_bits.len() != n {
            return Err(ConfigError::ShapeMismatch(format!(
                "{} history lengths, {} table sizes, {} tag widths",
                n,
                self.table_entries.len(),
                self.tag_bits.len()
            )));
        }
        if self.associativity == 0 {
            return Err(ConfigError::BadWidth(
                "associativity must be non-zero".into(),
            ));
        }
        for (i, &entries) in self.table_entries.iter().enumerate() {
            if entries == 0 || entries % self.associativity != 0 {
                return Err(ConfigError::BadTableSize(i));
            }
            let sets = entries / self.associativity;
            if !sets.is_power_of_two() {
                return Err(ConfigError::BadTableSize(i));
            }
        }
        for (i, &t) in self.tag_bits.iter().enumerate() {
            if t == 0 || t > 30 {
                return Err(ConfigError::BadWidth(format!("tag width of table {i}")));
            }
        }
        if self.distance_bits == 0 || self.distance_bits > 7 {
            return Err(ConfigError::BadWidth("distance field".into()));
        }
        if !(1..=7).contains(&self.usefulness_bits) || !(1..=7).contains(&self.bypass_bits) {
            return Err(ConfigError::BadWidth("confidence counters".into()));
        }
        let u_max = (1u8 << self.usefulness_bits) - 1;
        if self.dep_alloc_usefulness > u_max || self.nondep_alloc_usefulness > u_max {
            return Err(ConfigError::BadWidth("allocation usefulness".into()));
        }
        if self.history_lengths[0] != 0 {
            return Err(ConfigError::BadHistory(
                "first table must use zero history".into(),
            ));
        }
        if !self.history_lengths.windows(2).all(|w| w[0] < w[1]) {
            return Err(ConfigError::BadHistory(
                "history lengths must strictly increase".into(),
            ));
        }
        Ok(())
    }

    /// Sets per table (entries / associativity).
    pub fn sets(&self, table: usize) -> usize {
        (self.table_entries[table] / self.associativity) as usize
    }

    /// Appends the full configuration to a snapshot payload, making the
    /// predictor state self-describing: restore rebuilds the geometry from
    /// the snapshot and rejects payloads whose tables do not match it.
    pub fn snap_encode(&self, w: &mut SnapWriter) {
        w.u32(self.history_lengths.len() as u32);
        for &h in &self.history_lengths {
            w.u32(h);
        }
        for &e in &self.table_entries {
            w.u32(e);
        }
        for &t in &self.tag_bits {
            w.u8(t);
        }
        w.u32(self.associativity);
        w.u8(self.distance_bits);
        w.u8(self.usefulness_bits);
        w.u8(self.bypass_bits);
        w.u8(self.dep_alloc_usefulness);
        w.u8(self.nondep_alloc_usefulness);
        w.bool(self.tuning);
        w.bool(self.offset_bypass);
        match self.periodic_decay {
            Some(p) => {
                w.bool(true);
                w.u32(p);
            }
            None => w.bool(false),
        }
    }

    /// Decodes a configuration from a snapshot payload, fail-closed: the
    /// decoded configuration must pass [`MascotConfig::validate`].
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncation, a hostile table count, or a decoded
    /// configuration that fails validation.
    pub fn snap_decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.u32("config table count")? as usize;
        if n == 0 || n > 64 {
            return Err(SnapError::Corrupt("config table count out of range"));
        }
        let mut history_lengths = Vec::with_capacity(n);
        for _ in 0..n {
            history_lengths.push(r.u32("config history length")?);
        }
        let mut table_entries = Vec::with_capacity(n);
        for _ in 0..n {
            table_entries.push(r.u32("config table entries")?);
        }
        let mut tag_bits = Vec::with_capacity(n);
        for _ in 0..n {
            tag_bits.push(r.u8("config tag width")?);
        }
        let cfg = Self {
            history_lengths,
            table_entries,
            tag_bits,
            associativity: r.u32("config associativity")?,
            distance_bits: r.u8("config distance width")?,
            usefulness_bits: r.u8("config usefulness width")?,
            bypass_bits: r.u8("config bypass width")?,
            dep_alloc_usefulness: r.u8("config dependent allocation usefulness")?,
            nondep_alloc_usefulness: r.u8("config non-dependent allocation usefulness")?,
            tuning: r.bool("config tuning flag")?,
            offset_bypass: r.bool("config offset-bypass flag")?,
            periodic_decay: if r.bool("config periodic-decay flag")? {
                let p = r.u32("config decay period")?;
                if p == 0 {
                    return Err(SnapError::Corrupt("config decay period is zero"));
                }
                Some(p)
            } else {
                None
            },
        };
        cfg.validate()
            .map_err(|_| SnapError::Corrupt("snapshot configuration fails validation"))?;
        Ok(cfg)
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // mutating a default config is the clearest test setup
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_14kib() {
        let cfg = MascotConfig::default();
        cfg.validate().unwrap();
        // 8 tables × 512 entries × 28 bits = 114,688 bits = 14 KiB exactly.
        assert_eq!(cfg.storage_bits(), 114_688);
        assert!((cfg.storage_kib() - 14.0).abs() < 1e-9);
    }

    /// §VI-D: MASCOT-OPT is a 16 % size reduction (≈11.8 KiB).
    #[test]
    fn opt_size_matches_paper() {
        let cfg = MascotConfig::opt();
        cfg.validate().unwrap();
        let kib = cfg.storage_kib();
        assert!((kib - 11.81).abs() < 0.05, "got {kib} KiB");
        let reduction =
            1.0 - cfg.storage_bits() as f64 / MascotConfig::default().storage_bits() as f64;
        assert!((reduction - 0.16).abs() < 0.01, "got {reduction}");
    }

    /// Fig. 15: OPT with 4-bit tag reduction is the 10.1 KiB design point
    /// (27.7 % smaller than the 14 KiB default).
    #[test]
    fn opt_minus_4_tags_is_10_1_kib() {
        let cfg = MascotConfig::opt_with_tag_reduction(4);
        cfg.validate().unwrap();
        let kib = cfg.storage_kib();
        assert!((kib - 10.125).abs() < 0.05, "got {kib} KiB");
        let saving =
            1.0 - cfg.storage_bits() as f64 / MascotConfig::default().storage_bits() as f64;
        assert!((saving - 0.277).abs() < 0.01, "got {saving}");
    }

    #[test]
    fn validation_catches_shape_mismatch() {
        let mut cfg = MascotConfig::default();
        cfg.tag_bits.pop();
        assert!(matches!(cfg.validate(), Err(ConfigError::ShapeMismatch(_))));
    }

    #[test]
    fn validation_catches_bad_table_size() {
        let mut cfg = MascotConfig::default();
        cfg.table_entries[3] = 100; // 25 sets: not a power of two
        assert!(matches!(cfg.validate(), Err(ConfigError::BadTableSize(3))));
    }

    #[test]
    fn validation_catches_nonzero_first_history() {
        let mut cfg = MascotConfig::default();
        cfg.history_lengths[0] = 1;
        assert!(matches!(cfg.validate(), Err(ConfigError::BadHistory(_))));
    }

    #[test]
    fn validation_catches_non_increasing_history() {
        let mut cfg = MascotConfig::default();
        cfg.history_lengths[4] = 8; // duplicate of table 3
        assert!(matches!(cfg.validate(), Err(ConfigError::BadHistory(_))));
    }

    #[test]
    fn validation_catches_alloc_usefulness_overflow() {
        let mut cfg = MascotConfig::default();
        cfg.dep_alloc_usefulness = 8; // 3-bit counter maxes at 7
        assert!(matches!(cfg.validate(), Err(ConfigError::BadWidth(_))));
    }

    #[test]
    fn entry_bits_default_is_28() {
        let cfg = MascotConfig::default();
        for t in 0..cfg.num_tables() {
            assert_eq!(cfg.entry_bits(t), 28);
        }
    }

    #[test]
    fn snap_roundtrip_all_presets() {
        use mascot_snapshot::{SnapReader, SnapWriter};
        for cfg in [
            MascotConfig::default(),
            MascotConfig::opt(),
            MascotConfig::opt_with_tag_reduction(4),
            MascotConfig::default().with_tuning().with_offset_bypass(),
            MascotConfig::default().with_periodic_decay(512),
        ] {
            let mut w = SnapWriter::new();
            cfg.snap_encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = SnapReader::new(&bytes);
            assert_eq!(MascotConfig::snap_decode(&mut r).unwrap(), cfg);
            r.finish().unwrap();
        }
    }

    #[test]
    fn snap_decode_rejects_invalid_configs() {
        use mascot_snapshot::{SnapReader, SnapWriter};
        let mut bad = MascotConfig::default();
        bad.table_entries[0] = 100; // 25 sets: not a power of two
        let mut w = SnapWriter::new();
        bad.snap_encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(MascotConfig::snap_decode(&mut r).is_err());
        // Truncations fail.
        let mut w = SnapWriter::new();
        MascotConfig::default().snap_encode(&mut w);
        let good = w.into_bytes();
        for cut in 0..good.len() {
            let mut r = SnapReader::new(&good[..cut]);
            assert!(MascotConfig::snap_decode(&mut r).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn config_error_display_is_nonempty() {
        let err = ConfigError::BadTableSize(2);
        assert!(!err.to_string().is_empty());
    }
}
