//! Workload profile: the knobs that shape a synthetic benchmark.
//!
//! Each SPEC CPU 2017 benchmark in the paper's evaluation is represented by
//! a [`WorkloadProfile`] controlling the four axes that drive MDP/SMB
//! predictor behaviour (DESIGN.md §1):
//!
//! 1. *how often* loads alias in-flight stores (pair counts vs streaming),
//! 2. *at what store distance* (filler stores between pair halves),
//! 3. *how strongly* the aliasing correlates with branch history
//!    (conditional-store hammocks — the paper's §III-A motif), and
//! 4. the *size/alignment class* of each pair (the Fig. 2 census).

/// Per-class weights for dependent load/store pairs, in Fig. 2 order:
/// `[DirectBypass, NoOffset, Offset, MdpOnly]`.
pub type ClassMix = [f64; 4];

/// The shape of one synthetic benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Benchmark name as reported in the paper's figures.
    pub name: &'static str,
    /// Conditional-alias hammocks per iteration: `branch; if taken {store};
    /// ...; load` — the load depends on the store only in the taken context
    /// (§III-A). These are MASCOT's signature opportunity.
    pub hammocks: usize,
    /// Probability a hammock branch is taken (the store executes).
    pub hammock_bias: f64,
    /// Unconditional spill/fill pairs per iteration (always-dependent, fixed
    /// distance: the easy MDP/SMB wins).
    pub spill_fills: usize,
    /// Class mix sampled for pair sites at program-construction time.
    pub class_mix: ClassMix,
    /// Independent streaming loads per iteration.
    pub stream_loads: usize,
    /// Pointer-chase loads per iteration (each load's address depends on the
    /// previous load's value: serialising, latency-sensitive).
    pub chase_loads: usize,
    /// Filler ALU micro-ops per iteration.
    pub alu_per_iter: usize,
    /// Fraction of filler ALU ops with long (4-cycle) latency.
    pub long_alu_frac: f64,
    /// Guarded filler stores between a pair's store and load: each is its
    /// own 50/50 branch + conditional scratch store, adding both distance
    /// noise and history dilution.
    pub distance_noise: usize,
    /// Extra context branches per iteration, unrelated to any dependence.
    pub noise_branches: usize,
    /// Taken bias of the noise branches.
    pub noise_branch_bias: f64,
    /// Probability that a noise branch is pure coin-flip rather than a
    /// repeating pattern (drives branch MPKI).
    pub branch_entropy: f64,
    /// Streaming footprint in 64-byte lines (cache pressure).
    pub footprint_lines: u64,
    /// Indirect branches per iteration.
    pub indirect_branches: usize,
    /// Distinct indirect targets cycled through.
    pub indirect_targets: usize,
    /// Latency of the ALU producing each pair store's data: larger values
    /// make the store's data arrive later, so bypassing matters more.
    pub store_data_latency: u8,
    /// Dependent ALU consumers per pair load (value sensitivity: how much a
    /// late load value stalls the window). Profiles with 2 or more consumers
    /// also branch on the loaded value (see the generator), the paper's
    /// §VI-A perlbench effect.
    pub load_consumers: usize,
    /// Loads per pair site whose *address* depends on the pair load's value
    /// (hash-lookup style): early load values directly accelerate later
    /// memory accesses.
    pub coupled_loads: usize,
    /// Distinct static code copies of the iteration body (inlining /
    /// unrolling): multiplies the static PC footprint, pressuring predictor
    /// capacity and tag widths.
    pub code_contexts: usize,
    /// Latency of the address-generation chain feeding each pair load.
    /// SMB's headline benefit is breaking the dependence on load/store
    /// addresses: a late-arriving load address stalls MDP forwarding but
    /// not a bypass. 0 = addresses always ready.
    pub load_addr_latency: u8,
    /// Store-chase hops per iteration: `store node; load node; -> next
    /// hop's address` — a serial chain *through memory* (linked-list
    /// update/traverse). MDP forwarding leaves the chain serial; bypassing
    /// breaks it hop-parallel (speculative memory cloaking), the paper's
    /// peak-gain structure (perlbench, §VI-A).
    pub store_chase: usize,
}

impl WorkloadProfile {
    /// A balanced default profile, used as the base for the SPEC presets.
    pub fn base(name: &'static str) -> Self {
        Self {
            name,
            hammocks: 2,
            hammock_bias: 0.7,
            spill_fills: 2,
            class_mix: [0.6, 0.15, 0.1, 0.15],
            stream_loads: 4,
            chase_loads: 1,
            alu_per_iter: 10,
            long_alu_frac: 0.2,
            distance_noise: 1,
            noise_branches: 2,
            noise_branch_bias: 0.75,
            branch_entropy: 0.2,
            footprint_lines: 512,
            indirect_branches: 0,
            indirect_targets: 4,
            store_data_latency: 4,
            load_consumers: 2,
            coupled_loads: 0,
            code_contexts: 4,
            load_addr_latency: 4,
            store_chase: 0,
        }
    }

    /// Loads emitted per iteration.
    pub fn loads_per_iter(&self) -> usize {
        self.hammocks
            + self.spill_fills
            + self.stream_loads
            + self.chase_loads
            + (self.hammocks + self.spill_fills) * self.coupled_loads
            + self.store_chase
    }

    /// Expected fraction of loads with a *recent* (small-distance)
    /// dependence — an analytic estimate of the Fig. 2 bar height.
    pub fn expected_dependent_fraction(&self) -> f64 {
        let dependent = self.hammocks as f64 * self.hammock_bias
            + self.spill_fills as f64
            + self.store_chase as f64;
        dependent / self.loads_per_iter() as f64
    }

    /// Validates knob ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first out-of-range knob.
    pub fn validate(&self) -> Result<(), String> {
        if self.loads_per_iter() == 0 {
            return Err(format!("{}: profile emits no loads", self.name));
        }
        for (v, what) in [
            (self.hammock_bias, "hammock_bias"),
            (self.noise_branch_bias, "noise_branch_bias"),
            (self.branch_entropy, "branch_entropy"),
            (self.long_alu_frac, "long_alu_frac"),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{}: {what} must be in [0, 1]", self.name));
            }
        }
        let sum: f64 = self.class_mix.iter().sum();
        if sum <= 0.0 || self.class_mix.iter().any(|&w| w < 0.0) {
            return Err(format!(
                "{}: class_mix must be non-negative and non-zero",
                self.name
            ));
        }
        if self.footprint_lines == 0 {
            return Err(format!("{}: footprint must be non-zero", self.name));
        }
        if self.indirect_branches > 0 && self.indirect_targets == 0 {
            return Err(format!("{}: indirect branches need targets", self.name));
        }
        if self.code_contexts == 0 || self.code_contexts > 256 {
            return Err(format!("{}: code_contexts must be in 1..=256", self.name));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_profile_is_valid() {
        WorkloadProfile::base("test").validate().unwrap();
    }

    #[test]
    fn dependent_fraction_estimate() {
        let p = WorkloadProfile {
            hammocks: 2,
            hammock_bias: 0.5,
            spill_fills: 3,
            stream_loads: 4,
            chase_loads: 1,
            ..WorkloadProfile::base("t")
        };
        // (2*0.5 + 3) / 10 = 0.4
        assert!((p.expected_dependent_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_no_loads() {
        let p = WorkloadProfile {
            hammocks: 0,
            spill_fills: 0,
            stream_loads: 0,
            chase_loads: 0,
            ..WorkloadProfile::base("t")
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_bias() {
        let p = WorkloadProfile {
            hammock_bias: 1.5,
            ..WorkloadProfile::base("t")
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_rejects_zero_class_mix() {
        let p = WorkloadProfile {
            class_mix: [0.0; 4],
            ..WorkloadProfile::base("t")
        };
        assert!(p.validate().is_err());
    }
}
