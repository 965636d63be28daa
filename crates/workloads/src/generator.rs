//! Deterministic synthetic trace generation with exact ground truth.
//!
//! The generator lowers a [`WorkloadProfile`] into a static "program" of
//! sites with fixed PCs, registers, and memory slots, then emits iterations
//! of that program with seeded randomness for branch directions. Ground
//! truth is computed by replaying every store into a last-writer table
//! with one lane per byte, kept per 8-byte word: each load is annotated
//! with its youngest overlapping prior store (distance, Fig. 2 class, store
//! PC and branch span), which is exactly the information the simulator's
//! LSQ and the oracle predictors need.

use std::ops::Range;

use mascot_sim::uop::{Trace, TraceDep, Uop, UopBuf};
use mascot_sim::{BypassClass, FxHashMap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::profile::WorkloadProfile;

const SLOT_BASE: u64 = 0x1000_0000;
const SCRATCH_BASE: u64 = 0x2000_0000;
const STREAM_BASE: u64 = 0x3000_0000;
const CHASE_BASE: u64 = 0x4000_0000;
const PC_BASE: u64 = 0x40_0000;

/// Register map: 0..8 fixed scratch (stream/chase/scratch-data/address),
/// 8..16 store-data producers, 16..24 pair-load destinations, 24..32 chain
/// store data, 32..48 consumer chains, 48..56 chain load destinations,
/// 56..64 filler ALUs. The banks are disjoint so unrelated sites never
/// create accidental register dependencies.
const STORE_DATA_REG_BASE: u8 = 8;
const LOAD_DST_REG_BASE: u8 = 16;
const CONSUMER_REG_BASE: u8 = 32;
const SCRATCH_DATA_REG: u8 = 5;
const STREAM_DST_REG: u8 = 3;
const CHASE_REG: u8 = 4;
const ADDR_REG: u8 = 6;
const CHAIN_BASE: u64 = 0x5000_0000;
const CHAIN_DATA_REG_BASE: u8 = 24;
const CHAIN_DST_REG_BASE: u8 = 48;

#[derive(Debug)]
struct StoreRec {
    addr: u64,
    size: u8,
    pc: u64,
    branches_at: u64,
}

/// The lane value of a byte no store has written. Stores are numbered from
/// 1 in the last-writer table, so a word's lanes start out unwritten.
const NO_WRITER: u32 = 0;

/// Incrementally builds a trace while tracking ground-truth dependencies.
#[derive(Debug, Default)]
pub struct TraceBuilder {
    uops: UopBuf,
    stores: Vec<StoreRec>,
    /// Last writer of every byte ever stored to, keyed by 8-byte word: lane
    /// `i` of word `w` holds the 1-based number of the youngest store to
    /// byte `8w + i`, or [`NO_WRITER`].
    word_writer: FxHashMap<u64, [u32; 8]>,
    branch_count: u64,
}

/// The 8-byte words `[addr, end)` touches, each with the byte lanes of it
/// that the range covers.
fn word_lanes(addr: u64, end: u64) -> impl Iterator<Item = (u64, Range<usize>)> {
    (addr >> 3..end.div_ceil(8)).map(move |word| {
        let base = word << 3;
        let lo = addr.max(base) - base;
        let hi = end.min(base.saturating_add(8)) - base;
        (word, lo as usize..hi as usize)
    })
}

impl TraceBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder with room for `uops` micro-ops.
    fn with_capacity(uops: usize) -> Self {
        Self {
            uops: UopBuf::with_capacity(uops),
            ..Self::default()
        }
    }

    /// Number of micro-ops emitted so far.
    pub fn len(&self) -> usize {
        self.uops.len()
    }

    /// True when nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.uops.is_empty()
    }

    /// Emits an ALU micro-op.
    pub fn alu(&mut self, pc: u64, srcs: [Option<u8>; 2], dst: Option<u8>, latency: u8) {
        self.uops.push(Uop::alu(pc, srcs, dst, latency));
    }

    /// Emits a conditional branch.
    pub fn branch(&mut self, pc: u64, taken: bool, src: Option<u8>) {
        self.uops.push(Uop::branch(pc, taken, pc + 16, src));
        self.branch_count += 1;
    }

    /// Emits an indirect branch.
    pub fn indirect(&mut self, pc: u64, target: u64, src: Option<u8>) {
        self.uops.push(Uop::indirect_branch(pc, target, src));
        self.branch_count += 1;
    }

    /// Emits a store and records it as the last writer of its bytes.
    pub fn store(&mut self, pc: u64, addr: u64, size: u8, data_reg: u8) {
        self.uops
            .push(Uop::store(pc, addr, size, None, Some(data_reg)));
        self.stores.push(StoreRec {
            addr,
            size,
            pc,
            branches_at: self.branch_count,
        });
        let number = self.stores.len() as u32;
        for (word, lanes) in word_lanes(addr, addr + u64::from(size)) {
            self.word_writer.entry(word).or_default()[lanes].fill(number);
        }
    }

    /// Emits a load annotated with its ground-truth dependence.
    pub fn load(&mut self, pc: u64, addr: u64, size: u8, dst: u8, addr_reg: Option<u8>) {
        let dep = self.dep_for(addr, size);
        self.uops
            .push(Uop::load(pc, addr, size, addr_reg, dst, dep));
    }

    /// The youngest prior store writing any byte of `[addr, addr+size)`.
    fn dep_for(&self, addr: u64, size: u8) -> Option<TraceDep> {
        // The youngest and oldest lane over the load's bytes: an unwritten
        // byte counts as the oldest possible writer, so the load's bytes all
        // come from one store exactly when the two agree.
        let (mut youngest, mut oldest) = (NO_WRITER, u32::MAX);
        for (word, lanes) in word_lanes(addr, addr + u64::from(size)) {
            match self.word_writer.get(&word) {
                Some(writers) => {
                    for &w in &writers[lanes] {
                        youngest = youngest.max(w);
                        oldest = oldest.min(w);
                    }
                }
                None => oldest = NO_WRITER,
            }
        }
        if youngest == NO_WRITER {
            return None;
        }
        let s = &self.stores[youngest as usize - 1];
        let covers_all = oldest == youngest;
        let class = if covers_all {
            if s.addr == addr && s.size == size {
                BypassClass::DirectBypass
            } else if s.addr == addr {
                BypassClass::NoOffset
            } else {
                BypassClass::Offset
            }
        } else {
            BypassClass::MdpOnly
        };
        Some(TraceDep {
            distance: self.stores.len() as u32 + 1 - youngest,
            class,
            store_pc: s.pc,
            branches_between: (self.branch_count - s.branches_at) as u32,
        })
    }

    /// Finishes the trace.
    pub fn build(self, name: impl Into<String>) -> Trace {
        Trace {
            name: name.into(),
            uops: self.uops,
        }
    }
}

/// One dependent load/store pair site (hammock or spill/fill).
#[derive(Debug, Clone, Copy)]
struct PairSite {
    index: usize,
    /// Conditional (hammock) or unconditional (spill/fill).
    conditional: bool,
    class: BypassClass,
    pc: u64,
    data_reg: u8,
    dst_reg: u8,
    consumer_reg: u8,
}

/// Conditional sites rotate across this many slots so that a not-taken
/// iteration's last writer is many iterations (and stores) old — far beyond
/// the ROB/SB window, hence a genuine *non-dependence* at runtime, matching
/// the paper's §III-A pattern.
const SLOT_ROTATION: u64 = 64;

impl PairSite {
    /// The slot this site touches at `iter`.
    fn slot(&self, iter: u64) -> u64 {
        let base = SLOT_BASE + (self.index as u64) * SLOT_ROTATION * 64;
        if self.conditional {
            base + (iter % SLOT_ROTATION) * 64
        } else {
            base
        }
    }

    /// Store and load geometry realising the site's class at `iter`.
    fn geometry(&self, iter: u64) -> (u64, u8, u64, u8) {
        let slot = self.slot(iter);
        // (store_addr, store_size, load_addr, load_size)
        match self.class {
            BypassClass::DirectBypass => (slot, 8, slot, 8),
            BypassClass::NoOffset => (slot, 8, slot, 4),
            BypassClass::Offset => (slot, 8, slot + 4, 4),
            // Load straddles the store's end: bytes 4..8 come from the
            // store, 8..12 were never written.
            BypassClass::MdpOnly => (slot, 8, slot + 4, 8),
        }
    }
}

fn sample_class(rng: &mut StdRng, mix: &[f64; 4]) -> BypassClass {
    let total: f64 = mix.iter().sum();
    let mut x = rng.random::<f64>() * total;
    for (i, &w) in mix.iter().enumerate() {
        x -= w;
        if x <= 0.0 {
            return match i {
                0 => BypassClass::DirectBypass,
                1 => BypassClass::NoOffset,
                2 => BypassClass::Offset,
                _ => BypassClass::MdpOnly,
            };
        }
    }
    BypassClass::DirectBypass
}

/// Generates a trace of at least `target_uops` micro-ops (rounded up to a
/// whole program iteration) from a profile and seed.
///
/// The same `(profile, seed, target_uops)` triple always yields an
/// identical trace.
///
/// # Panics
///
/// Panics if the profile fails [`WorkloadProfile::validate`].
///
/// # Examples
///
/// ```
/// use mascot_workloads::{generate, WorkloadProfile};
///
/// let profile = WorkloadProfile::base("demo");
/// let trace = generate(&profile, 42, 10_000);
/// assert!(trace.len() >= 10_000);
/// trace.validate().expect("ground truth is consistent");
/// ```
pub fn generate(profile: &WorkloadProfile, seed: u64, target_uops: usize) -> Trace {
    profile.validate().expect("invalid workload profile");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);

    // ---- static program construction --------------------------------
    let num_pairs = profile.hammocks + profile.spill_fills;
    let mut pair_sites = Vec::with_capacity(num_pairs);
    for i in 0..num_pairs {
        pair_sites.push(PairSite {
            index: i,
            conditional: i < profile.hammocks,
            class: sample_class(&mut rng, &profile.class_mix),
            pc: PC_BASE + (i as u64) * 0x100,
            data_reg: STORE_DATA_REG_BASE + (i % 8) as u8,
            dst_reg: LOAD_DST_REG_BASE + (i % 8) as u8,
            consumer_reg: CONSUMER_REG_BASE + (i % 16) as u8,
        });
    }
    // At least three "leader" branches with periods 2/4/8 run every
    // iteration: their outcomes encode iter mod 8 in recent history, so all
    // other patterned branches are inferable from short TAGE histories.
    let num_noise = profile.noise_branches.max(3);
    let noise_pattern: Vec<u32> = (0..num_noise).map(|i| 1 << (i % 3 + 1)).collect();
    let footprint_bytes = profile.footprint_lines * 64;
    let mut chase_addr = CHASE_BASE;
    let mut iter: u64 = 0;

    // The most uops one iteration can emit (every guard taken), so the
    // buffer is allocated once: emission stops within an iteration of the
    // target. A pair site emits its guard, store-data ALU, store, address
    // ALU, load and value branch, plus a branch, ALU and store per filler.
    let pair_uops = 6 + 3 * profile.distance_noise + profile.load_consumers + profile.coupled_loads;
    let iter_uops = 1
        + num_noise
        + profile.indirect_branches
        + num_pairs * pair_uops
        + 3 * profile.store_chase
        + profile.stream_loads
        + profile.chase_loads
        + profile.alu_per_iter;
    let mut b = TraceBuilder::with_capacity(target_uops + iter_uops);

    // ---- emission ----------------------------------------------------
    while b.len() < target_uops {
        let iter_start = b.len();
        // The static code copy executed this iteration (round-robin, like
        // an unrolled caller cycling through inlined copies): offsets every
        // PC, multiplying the static footprint the predictors must track.
        let ctx = (iter % profile.code_contexts as u64) * 0x1_0040;
        // (The stride is deliberately NOT a multiple of the L1I way size,
        // so code copies spread across cache sets instead of aliasing.)

        // Region offsets are chosen so no two region base lines share an
        // L1I set (they are NOT multiples of the 4 KiB way size).
        // A cheap value available for any leftover consumers.
        b.alu(
            ctx + PC_BASE - 0x40,
            [None, None],
            Some(SCRATCH_DATA_REG),
            1,
        );

        // Context/noise branches.
        for (n, &pattern) in noise_pattern.iter().enumerate() {
            let pc = ctx + PC_BASE - 0x0fc0 + (n as u64) * 0x20;
            let taken = if rng.random::<f64>() < profile.branch_entropy * 0.30 {
                rng.random::<f64>() < profile.noise_branch_bias
            } else {
                (iter / u64::from(pattern)).is_multiple_of(2)
            };
            b.branch(pc, taken, None);
        }

        // Indirect branches: the target is phase-stable (switching every
        // few iterations) so a last-target predictor sees realistic, not
        // pathological, miss rates.
        for n in 0..profile.indirect_branches {
            let pc = ctx + PC_BASE - 0x1e80 + (n as u64) * 0x20;
            let t = (iter / 6 + n as u64) % profile.indirect_targets as u64;
            b.indirect(pc, 0x50_0000 + t * 0x80, None);
        }

        // Dependent pair sites.
        for site in &pair_sites {
            let site_pc = ctx + site.pc;
            let (s_addr, s_size, l_addr, l_size) = site.geometry(iter);
            let store_executes = if site.conditional {
                // Mostly-patterned direction whose not-taken period encodes
                // the profile's bias, plus a small entropy flip: the
                // dependence varies *with history* (the §III-A pattern)
                // without drowning the pipeline in branch mispredicts.
                let period = (((1.0 / (1.0 - profile.hammock_bias).max(0.05)).round() as u64)
                    .max(2))
                .next_power_of_two()
                .min(8);
                let phase = (site.index as u64 * 3 + 1) % period;
                let mut taken = iter % period != phase;
                if rng.random::<f64>() < profile.branch_entropy * 0.15 {
                    taken = !taken;
                }
                // The guard is a loop-style condition: it resolves quickly
                // (value sensitivity lives in the per-load value branches).
                b.branch(site_pc, taken, None);
                taken
            } else {
                true
            };
            if store_executes {
                b.alu(
                    site_pc + 0x10,
                    [None, None],
                    Some(site.data_reg),
                    profile.store_data_latency,
                );
                b.store(site_pc + 0x14, s_addr, s_size, site.data_reg);
            }
            // Guarded filler stores: distance noise + history dilution.
            // Their data arrives as late as the pair stores', so a false
            // dependence on one costs a real stall.
            for g in 0..profile.distance_noise {
                let pc = site_pc + 0x20 + (g as u64) * 16;
                let mut taken = (iter >> g).is_multiple_of(2);
                if rng.random::<f64>() < profile.branch_entropy * 0.15 {
                    taken = !taken;
                }
                let _ = &mut taken;
                b.branch(pc, taken, None);
                if taken {
                    let scratch = SCRATCH_BASE + (site.index as u64) * 1024 + (g as u64) * 64;
                    b.alu(
                        pc + 4,
                        [None, None],
                        Some(SCRATCH_DATA_REG),
                        profile.store_data_latency,
                    );
                    b.store(pc + 8, scratch, 8, SCRATCH_DATA_REG);
                }
            }
            // Address generation for the pair load: a late-arriving address
            // stalls the MDP forwarding path but not a speculative bypass.
            let addr_reg = if profile.load_addr_latency > 0 {
                b.alu(
                    site_pc + 0x5c,
                    [None, None],
                    Some(ADDR_REG),
                    profile.load_addr_latency,
                );
                Some(ADDR_REG)
            } else {
                None
            };
            b.load(site_pc + 0x60, l_addr, l_size, site.dst_reg, addr_reg);
            // Consumer chain.
            for c in 0..profile.load_consumers {
                let src = if c == 0 {
                    site.dst_reg
                } else {
                    site.consumer_reg
                };
                b.alu(
                    site_pc + 0x70 + (c as u64) * 4,
                    [Some(src), None],
                    Some(site.consumer_reg),
                    1,
                );
            }
            // A branch on the loaded value, right after the chain: when it
            // mispredicts, fetch stalls until the load value arrives, so the
            // benchmark is genuinely sensitive to early load values (the
            // §VI-A perlbench effect). Streaming/FP profiles use a single
            // consumer and skip this.
            if profile.load_consumers >= 2 {
                let mut taken = iter % 8 != site.index as u64 % 8;
                if rng.random::<f64>() < profile.branch_entropy * 0.10 {
                    taken = !taken;
                }
                b.branch(site_pc + 0x90, taken, Some(site.consumer_reg));
            }
            // Address-coupled loads: their addresses are data-dependent on
            // the pair load's value (hash-lookup style), so an early value
            // directly accelerates later memory accesses.
            for c in 0..profile.coupled_loads {
                let pc = site_pc + 0xa0 + (c as u64) * 8;
                let span = (footprint_bytes * 8).max(1 << 20);
                let addr = STREAM_BASE
                    + 0x100_0000
                    + ((iter * 2893 + (site.index as u64) * 977 + c as u64 * 131) * 64) % span;
                b.load(pc, addr, 8, STREAM_DST_REG, Some(site.consumer_reg));
            }
        }

        // Store-chase hops: a serial dependence chain *through memory*.
        // Each hop stores a "node", immediately loads it back, and the
        // loaded value provides the next hop's address. With MDP the chain
        // is serial (store-data -> forward -> address -> ...); speculative
        // bypassing collapses it because each hop's value comes straight
        // from its store's data register.
        for h in 0..profile.store_chase {
            let pc = ctx + PC_BASE + 0xb540 + (h as u64) * 0x20;
            let data_reg = CHAIN_DATA_REG_BASE + (h % 8) as u8;
            let dst_reg = CHAIN_DST_REG_BASE + (h % 8) as u8;
            let addr = CHAIN_BASE + (h as u64) * 64;
            b.alu(pc, [None, None], Some(data_reg), 2);
            b.store(pc + 4, addr, 8, data_reg);
            // Hop 0 continues from the previous iteration's last hop: one
            // serial list walk spans the whole execution, so its latency
            // cannot be hidden by the out-of-order window.
            let addr_reg = if h == 0 {
                Some(CHAIN_DST_REG_BASE + ((profile.store_chase - 1) % 8) as u8)
            } else {
                Some(CHAIN_DST_REG_BASE + ((h - 1) % 8) as u8)
            };
            b.load(pc + 0x10, addr, 8, dst_reg, addr_reg);
        }

        // Streaming loads (independent, prefetch-friendly).
        for k in 0..profile.stream_loads {
            let pc = ctx + PC_BASE + 0x8440 + (k as u64) * 0x10;
            let addr =
                STREAM_BASE + ((iter * 64 + (k as u64) * footprint_bytes / 4) % footprint_bytes);
            b.load(pc, addr, 8, STREAM_DST_REG, None);
        }

        // Pointer-chase loads (serialising chain through CHASE_REG).
        for k in 0..profile.chase_loads {
            let pc = ctx + PC_BASE + 0x92c0 + (k as u64) * 0x10;
            chase_addr = CHASE_BASE
                + (chase_addr.wrapping_mul(25214903917).wrapping_add(11))
                    % (footprint_bytes.max(4096));
            chase_addr &= !7;
            b.load(pc, chase_addr, 8, CHASE_REG, Some(CHASE_REG));
        }

        // Filler ALU work.
        for k in 0..profile.alu_per_iter {
            let pc = ctx + PC_BASE + 0xa180 + (k as u64) * 4;
            let lat = if rng.random::<f64>() < profile.long_alu_frac {
                4
            } else {
                1
            };
            b.alu(pc, [None, None], Some(56 + (k % 8) as u8), lat);
        }

        debug_assert!(
            b.len() - iter_start <= iter_uops,
            "iteration outgrew its bound"
        );
        iter += 1;
    }
    b.build(profile.name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mascot_sim::uop::UopKind;
    use std::collections::BTreeMap;

    /// The ground-truth definition, byte by byte: the last writer of every
    /// byte in a plain ordered map, and each load's dependence recomputed
    /// from the stores that wrote its bytes.
    #[derive(Default)]
    struct ByteReference {
        writer: BTreeMap<u64, usize>,
        /// `(addr, size, pc, branches_at)` of every store, oldest first.
        stores: Vec<(u64, u8, u64, u64)>,
        branches: u64,
    }

    impl ByteReference {
        fn store(&mut self, pc: u64, addr: u64, size: u8) {
            for byte in addr..addr + u64::from(size) {
                self.writer.insert(byte, self.stores.len());
            }
            self.stores.push((addr, size, pc, self.branches));
        }

        fn dep(&self, addr: u64, size: u8) -> Option<TraceDep> {
            let writers: Vec<Option<usize>> = (addr..addr + u64::from(size))
                .map(|byte| self.writer.get(&byte).copied())
                .collect();
            let youngest = writers.iter().flatten().copied().max()?;
            let (s_addr, s_size, pc, branches_at) = self.stores[youngest];
            let class = if writers.iter().any(|w| *w != Some(youngest)) {
                BypassClass::MdpOnly
            } else if s_addr != addr {
                BypassClass::Offset
            } else if s_size != size {
                BypassClass::NoOffset
            } else {
                BypassClass::DirectBypass
            };
            Some(TraceDep {
                distance: (self.stores.len() - youngest) as u32,
                class,
                store_pc: pc,
                branches_between: (self.branches - branches_at) as u32,
            })
        }
    }

    #[test]
    fn dependence_labels_match_a_per_byte_reference() {
        let mut classes = [0usize; 4];
        let mut straddling = 0usize;
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut below = |n: u64| rng.random::<u64>() % n;
            let mut b = TraceBuilder::new();
            let mut reference = ByteReference::default();
            // A window a few words wide keeps accesses overlapping; its
            // base is unaligned for odd seeds.
            let base = 0x1000_0000 + (seed % 2) * (1 + seed % 7);
            let span = 16 + 8 * (seed % 6);
            for op in 0..2_000u64 {
                let pc = 0x40_0000 + 4 * op;
                let addr = base + below(span);
                let size = 1 + below(16) as u8;
                match below(8) {
                    0 => {
                        b.branch(pc, true, None);
                        reference.branches += 1;
                    }
                    1..=3 => {
                        b.store(pc, addr, size, 1);
                        reference.store(pc, addr, size);
                    }
                    _ => {
                        b.load(pc, addr, size, 2, None);
                        let UopKind::Load { dep, .. } = b.uops.get(b.len() - 1).kind else {
                            unreachable!("a load was just emitted");
                        };
                        let want = reference.dep(addr, size);
                        assert_eq!(dep, want, "seed {seed} op {op}: load {addr:#x}+{size}");
                        if let Some(d) = want {
                            classes[d.class as usize] += 1;
                            let last = addr + u64::from(size) - 1;
                            straddling += usize::from(addr >> 3 != last >> 3);
                        }
                    }
                }
            }
        }
        assert!(
            classes.iter().all(|&n| n > 100),
            "every class is exercised: {classes:?}"
        );
        assert!(
            straddling > 1_000,
            "word-straddling dependent loads: {straddling}"
        );
    }

    fn base() -> WorkloadProfile {
        WorkloadProfile::base("gen-test")
    }

    #[test]
    fn generated_trace_is_internally_consistent() {
        let t = generate(&base(), 7, 20_000);
        assert!(t.len() >= 20_000);
        t.validate().unwrap();
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&base(), 99, 5_000);
        let b = generate(&base(), 99, 5_000);
        assert_eq!(a.uops, b.uops);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&base(), 1, 5_000);
        let b = generate(&base(), 2, 5_000);
        assert_ne!(a.uops, b.uops);
    }

    /// A generated trace stays packed: 16-byte records plus static,
    /// dependence and intern tables, at most 18.5 bytes per uop on every
    /// profile at 200k uops (the dependence-heaviest, perlbench2, reads 18.45:
    /// its dependence table adds ~2.4). A field added to the record, a
    /// dependence stored inline again, or a static part stored per uop
    /// fails here.
    #[test]
    fn traces_stay_within_18_5_bytes_per_uop() {
        assert_eq!(UopBuf::RECORD_BYTES, 16);
        let mut worst = (0.0f64, "");
        for profile in crate::spec::all_profiles() {
            let t = generate(&profile, 2025, 200_000);
            let per_uop = t.uops.packed_bytes() as f64 / t.len() as f64;
            if per_uop > worst.0 {
                worst = (per_uop, profile.name);
            }
        }
        assert!(worst.0 <= 18.5, "{}: {:.2} bytes per uop", worst.1, worst.0);
    }

    #[test]
    fn dependent_fraction_tracks_profile() {
        let profile = base();
        let t = generate(&profile, 3, 60_000);
        // Count loads with a *recent* dependence (distance <= 64: the ones
        // that can realistically be in flight).
        let mut dependent = 0usize;
        let mut loads = 0usize;
        for u in &t.uops {
            if let UopKind::Load { dep, .. } = &u.kind {
                loads += 1;
                if dep.is_some_and(|d| d.distance <= 64) {
                    dependent += 1;
                }
            }
        }
        let frac = dependent as f64 / loads as f64;
        let expected = profile.expected_dependent_fraction();
        assert!(
            (frac - expected).abs() < 0.12,
            "dependent fraction {frac} vs expected {expected}"
        );
    }

    #[test]
    fn class_geometry_is_honoured() {
        // An all-DirectBypass profile must annotate its pair loads as such.
        let profile = WorkloadProfile {
            class_mix: [1.0, 0.0, 0.0, 0.0],
            stream_loads: 0,
            chase_loads: 0,
            hammocks: 0,
            spill_fills: 3,
            distance_noise: 0,
            ..base()
        };
        let t = generate(&profile, 11, 10_000);
        for u in &t.uops {
            if let UopKind::Load { dep: Some(d), .. } = &u.kind {
                assert_eq!(d.class, BypassClass::DirectBypass);
            }
        }
    }

    #[test]
    fn mdp_only_class_is_partial() {
        let profile = WorkloadProfile {
            class_mix: [0.0, 0.0, 0.0, 1.0],
            stream_loads: 0,
            chase_loads: 0,
            hammocks: 0,
            spill_fills: 2,
            distance_noise: 0,
            ..base()
        };
        let t = generate(&profile, 11, 5_000);
        let mut saw = false;
        for u in &t.uops {
            if let UopKind::Load { dep: Some(d), .. } = &u.kind {
                assert_eq!(d.class, BypassClass::MdpOnly);
                saw = true;
            }
        }
        assert!(saw);
    }

    #[test]
    fn hammock_dependence_follows_branch() {
        // With a single hammock and no other stores, a short-distance
        // dependence must appear exactly when the guarding branch was taken.
        let profile = WorkloadProfile {
            hammocks: 1,
            spill_fills: 0,
            stream_loads: 1,
            chase_loads: 0,
            distance_noise: 0,
            noise_branches: 0,
            class_mix: [1.0, 0.0, 0.0, 0.0],
            ..base()
        };
        let t = generate(&profile, 5, 8_000);
        let mut last_branch_taken = None;
        for u in &t.uops {
            match u.kind {
                UopKind::Branch { taken, .. } => last_branch_taken = Some(taken),
                UopKind::Load { dep, addr, .. } if (SLOT_BASE..SCRATCH_BASE).contains(&addr) => {
                    let taken = last_branch_taken.expect("hammock load follows its branch");
                    if taken {
                        assert_eq!(
                            dep.map(|d| d.distance),
                            Some(1),
                            "taken context: immediate dependence"
                        );
                    } else {
                        // Slot rotation makes the last writer ~64 iterations
                        // old: far outside any realistic in-flight window.
                        assert!(
                            dep.is_none_or(|d| d.distance >= SLOT_ROTATION as u32 / 2),
                            "not-taken context must not have a recent dependence: {dep:?}"
                        );
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn branches_between_is_zero_for_adjacent_pairs() {
        let profile = WorkloadProfile {
            hammocks: 0,
            spill_fills: 1,
            distance_noise: 0,
            noise_branches: 0,
            stream_loads: 0,
            chase_loads: 0,
            class_mix: [1.0, 0.0, 0.0, 0.0],
            ..base()
        };
        let t = generate(&profile, 5, 2_000);
        for u in &t.uops {
            if let UopKind::Load { dep: Some(d), .. } = &u.kind {
                assert_eq!(d.branches_between, 0);
                assert_eq!(d.distance, 1);
            }
        }
    }
}
