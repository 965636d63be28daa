//! Core and memory-hierarchy configuration (Table I).
//!
//! [`CoreConfig::golden_cove`] reproduces the paper's 4-core Golden Cove
//! configuration (we model one core; the L3 capacity is the single-core
//! share). [`CoreConfig::lion_cove`] scales the out-of-order structures for
//! the §VI-C future-architecture study.

use serde::{Deserialize, Serialize};

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Ways per set.
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Hit latency in cycles.
    pub hit_latency: u32,
    /// Miss-status-holding registers (outstanding misses).
    pub mshrs: u32,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / u64::from(self.line_bytes) / u64::from(self.ways)
    }
}

/// Full single-core configuration (Table I).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Human-readable name (`"golden-cove"`, `"lion-cove"`).
    pub name: String,
    /// Fetch/decode width (µops per cycle).
    pub fetch_width: u32,
    /// Commit (retire) width.
    pub commit_width: u32,
    /// Reorder-buffer entries.
    pub rob_entries: u32,
    /// Issue-queue (scheduler) entries.
    pub iq_entries: u32,
    /// Load-queue entries.
    pub lq_entries: u32,
    /// Store-buffer entries (speculative + committed, until drain).
    pub sb_entries: u32,
    /// Load-execution ports.
    pub load_ports: u32,
    /// Store-execution ports.
    pub store_ports: u32,
    /// Non-memory execution ports.
    pub alu_ports: u32,
    /// Committed stores drained to the L1D per cycle.
    pub store_drain_per_cycle: u32,
    /// Cycles a committed store lingers in the store buffer before draining
    /// (write-port arbitration and ordering): recently committed stores
    /// remain visible to store-to-load forwarding.
    pub store_drain_delay: u32,
    /// Frontend refill penalty after a branch mispredict or memory-order
    /// squash (cycles of fetch silence after the redirect source resolves).
    pub redirect_penalty: u32,
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Private L2.
    pub l2: CacheConfig,
    /// Shared L3 (this core's share).
    pub l3: CacheConfig,
    /// Main-memory access latency in cycles.
    pub memory_latency: u32,
    /// IP-stride prefetch degree at the L1D (Table I: 3). 0 disables.
    pub prefetch_degree: u32,
}

impl CoreConfig {
    /// The paper's Golden Cove configuration (Table I).
    pub fn golden_cove() -> Self {
        Self {
            name: "golden-cove".into(),
            fetch_width: 6,
            commit_width: 8,
            rob_entries: 512,
            iq_entries: 204,
            lq_entries: 192,
            sb_entries: 114,
            load_ports: 3,
            store_ports: 2,
            alu_ports: 7, // 12 execution ports minus 3 load + 2 store
            store_drain_per_cycle: 2,
            store_drain_delay: 40,
            redirect_penalty: 12,
            l1i: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 8,
                line_bytes: 64,
                hit_latency: 4,
                mshrs: 64,
            },
            l1d: CacheConfig {
                size_bytes: 48 * 1024,
                ways: 12,
                line_bytes: 64,
                hit_latency: 5,
                mshrs: 64,
            },
            l2: CacheConfig {
                size_bytes: 1280 * 1024,
                ways: 10,
                line_bytes: 64,
                hit_latency: 14,
                mshrs: 64,
            },
            l3: CacheConfig {
                size_bytes: 3 * 1024 * 1024,
                ways: 12,
                line_bytes: 64,
                hit_latency: 36,
                mshrs: 64,
            },
            memory_latency: 100,
            prefetch_degree: 3,
        }
    }

    /// A Lion-Cove-like configuration (§VI-C): wider front/back end and
    /// larger out-of-order structures, per the public preview the paper
    /// cites (8-wide decode, ~576-entry ROB-equivalent, bigger scheduler and
    /// load/store queues, 3 store ports).
    pub fn lion_cove() -> Self {
        Self {
            name: "lion-cove".into(),
            fetch_width: 8,
            commit_width: 12,
            rob_entries: 576,
            iq_entries: 288,
            lq_entries: 224,
            sb_entries: 144,
            load_ports: 3,
            store_ports: 3,
            alu_ports: 8,
            redirect_penalty: 13, // slightly deeper pipeline
            store_drain_delay: 60, // larger post-retirement store buffering
            ..Self::golden_cove()
        }
    }

    /// Validates structural parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid parameter (zero-sized
    /// structures or widths).
    pub fn validate(&self) -> Result<(), String> {
        let nonzero = [
            (self.fetch_width, "fetch_width"),
            (self.commit_width, "commit_width"),
            (self.rob_entries, "rob_entries"),
            (self.iq_entries, "iq_entries"),
            (self.lq_entries, "lq_entries"),
            (self.sb_entries, "sb_entries"),
            (self.load_ports, "load_ports"),
            (self.store_ports, "store_ports"),
            (self.alu_ports, "alu_ports"),
            (self.store_drain_per_cycle, "store_drain_per_cycle"),
        ];
        for (v, name) in nonzero {
            if v == 0 {
                return Err(format!("{name} must be non-zero"));
            }
        }
        for (c, name) in [
            (&self.l1i, "l1i"),
            (&self.l1d, "l1d"),
            (&self.l2, "l2"),
            (&self.l3, "l3"),
        ] {
            if !c.line_bytes.is_power_of_two() {
                return Err(format!("{name}: line size must be a power of two"));
            }
            if c.ways == 0 {
                return Err(format!("{name}: way count must be non-zero"));
            }
            if c.sets() == 0 || !c.sets().is_power_of_two() {
                return Err(format!("{name}: set count must be a non-zero power of two"));
            }
            if c.mshrs == 0 {
                return Err(format!("{name}: MSHR count must be non-zero"));
            }
        }
        Ok(())
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::golden_cove()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_cove_matches_table_i() {
        let c = CoreConfig::golden_cove();
        c.validate().unwrap();
        assert_eq!(c.fetch_width, 6);
        assert_eq!(c.commit_width, 8);
        assert_eq!(c.rob_entries, 512);
        assert_eq!(c.iq_entries, 204);
        assert_eq!(c.lq_entries, 192);
        assert_eq!(c.sb_entries, 114);
        assert_eq!(c.load_ports + c.store_ports + c.alu_ports, 12);
        assert_eq!(c.l1d.hit_latency, 5);
        assert_eq!(c.l2.size_bytes, 1280 * 1024);
        assert_eq!(c.memory_latency, 100);
    }

    #[test]
    fn lion_cove_is_strictly_larger() {
        let g = CoreConfig::golden_cove();
        let l = CoreConfig::lion_cove();
        l.validate().unwrap();
        assert!(l.fetch_width > g.fetch_width);
        assert!(l.rob_entries > g.rob_entries);
        assert!(l.iq_entries > g.iq_entries);
        assert!(l.lq_entries > g.lq_entries);
        assert!(l.sb_entries > g.sb_entries);
    }

    #[test]
    fn non_power_of_two_line_size_is_rejected() {
        for line_bytes in [0, 48, 96] {
            let mut c = CoreConfig::golden_cove();
            c.l2.line_bytes = line_bytes;
            c.l2.size_bytes = u64::from(line_bytes) * 1024 * u64::from(c.l2.ways);
            let err = c.validate().unwrap_err();
            assert!(err.contains("l2: line size"), "{line_bytes}: {err}");
        }
    }

    #[test]
    fn zero_ways_is_rejected_not_divided_by() {
        let mut c = CoreConfig::golden_cove();
        c.l3.ways = 0;
        assert_eq!(c.validate().unwrap_err(), "l3: way count must be non-zero");
    }

    #[test]
    fn cache_sets_power_of_two() {
        let c = CoreConfig::golden_cove();
        assert_eq!(c.l1i.sets(), 64);
        assert_eq!(c.l1d.sets(), 64);
        assert!(c.l2.sets().is_power_of_two());
    }

    #[test]
    fn validation_rejects_zero_width() {
        let mut c = CoreConfig::golden_cove();
        c.fetch_width = 0;
        assert!(c.validate().is_err());
    }
}
