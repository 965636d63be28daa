//! Adversarial mistraining traces: an attacker tenant deliberately aliases
//! a victim tenant's predictor contexts (DESIGN.md §12).
//!
//! The baseline MASCOT hasher folds only the low ~34 bits of a PC into its
//! table indices and tags, and the fold is GF(2)-linear, so two PCs that
//! differ only at bit 34 and above collide in **every** table under
//! **every** history. The attacker here runs at `victim_pc ^ (1 << 34)`:
//! its loads, stores and branches land on exactly the entries (and exactly
//! the folded history contexts) the victim uses, while the PC ranges stay
//! disjoint so ground-truth tenant attribution is a single compare against
//! [`TENANT_BOUNDARY`].
//!
//! Three attacker profiles, one per classic mistraining shape:
//!
//! * [`AttackKind::Alias`] (`mistrain_alias`) — targeted false-bypass
//!   induction. The attacker saturates the shared entry with a
//!   distance-1 bypass pattern; the victim's load is genuinely
//!   independent, so every cross-trained prediction is a false bypass
//!   (squash) or, once the attacker's store has drained, a false
//!   dependence (needless stall).
//! * [`AttackKind::Flood`] (`mistrain_flood`) — capacity attack. The
//!   attacker cycles hundreds of distinct sites, each allocated at the
//!   dependence-allocation usefulness, evicting the victim's genuinely
//!   useful entries and inducing missed dependencies. This is also the
//!   traffic shape that exposed the merge-tie pinning bug in
//!   resharding union merges.
//! * [`AttackKind::Interleave`] (`mistrain_interleave`) — history
//!   desynchronisation. The attacker injects variable-length branch
//!   bursts between victim blocks so the victim's history-correlated
//!   hammock indexes a different context every iteration, and
//!   cross-trains those contexts with the opposite dependence phase.
//!
//! [`compose`] builds the interleaved attacker+victim trace; [`victim_only`]
//! builds the identical victim program alone. Attack success is the
//! *differential* between the two runs (see `mascot_stats::pollution`), so
//! the victim's emission is deliberately independent of the attacker's
//! randomness: attacker-side draws come from a separate RNG stream and the
//! victim side is a pure function of the iteration index.

use std::fmt;
use std::str::FromStr;

use mascot_sim::uop::Trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::generator::TraceBuilder;

/// Loads with `pc < TENANT_BOUNDARY` belong to the victim; loads at or
/// above it belong to the attacker. Bit 34 is the lowest PC bit the
/// baseline table hasher ignores, which is precisely what makes the
/// attacker's placement both perfectly aliasing and perfectly attributable.
pub const TENANT_BOUNDARY: u64 = 1 << 34;

/// Victim code region (same neighbourhood as the synthetic SPEC profiles).
const V_PC: u64 = 0x40_0000;
/// Attacker code region: the victim's PCs with bit 34 set.
const A_PC: u64 = V_PC | TENANT_BOUNDARY;

/// Victim data region never written by anyone (alias attack: the victim
/// load is genuinely independent).
const V_QUIET_BASE: u64 = 0x7000_0000;
/// Victim data region for genuinely dependent pairs (flood/interleave).
const V_PAIR_BASE: u64 = 0x7100_0000;
/// Attacker data region (disjoint from every victim region, so the only
/// cross-tenant coupling is through the predictor).
const A_DATA_BASE: u64 = 0x7800_0000;

const V_DATA_REG: u8 = 8;
const V_DST_REG: u8 = 16;
const V_CONSUMER_REG: u8 = 32;
const A_DATA_REG: u8 = 9;
const A_DST_REG: u8 = 17;

/// Attacker training repetitions per victim block (alias attack). The
/// attacker wins the training tug-of-war against the victim's own
/// non-dependence allocations by rate.
const ALIAS_REPS: u64 = 6;
/// Direction schedule of the alias victim's context-rotating branch: bit
/// `iter % 64` of this constant. The rotation is what keeps the attack
/// *sustained* — with a fixed context the victim's own false-dependence
/// counter-training allocates a non-dependence entry into the top table
/// within a few iterations and (since cascades above the top table are
/// dropped) locks every shared context to `NoDependence` forever. Rotating
/// contexts means the victim's protective entries are per-context, the
/// attacker poisons each context right after the victim leaves it, and the
/// victim walks back into the poison one period later.
const ALIAS_DIRECTIONS: u64 = 0x9E37_79B9_7F4A_7C15;
/// Distinct attacker sites in the flood rotation.
const FLOOD_SITES: u64 = 512;
/// Flood sites trained per victim block.
const FLOOD_REPS: u64 = 16;
/// Victim slot rotation (interleave hammock): a not-taken iteration's last
/// writer is this many iterations old — far outside any in-flight window.
const SLOT_ROTATION: u64 = 64;

/// The attacker profiles of the mistraining suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// Targeted false-bypass induction through full index/tag aliasing.
    Alias,
    /// Capacity attack: evict the victim's entries with high-usefulness
    /// dependence allocations.
    Flood,
    /// History desynchronisation plus anti-correlated context training.
    Interleave,
}

impl AttackKind {
    /// Every attacker profile, in canonical order.
    pub const ALL: [AttackKind; 3] = [AttackKind::Alias, AttackKind::Flood, AttackKind::Interleave];

    /// The profile's trace name (`mistrain_*`).
    pub fn name(self) -> &'static str {
        match self {
            AttackKind::Alias => "mistrain_alias",
            AttackKind::Flood => "mistrain_flood",
            AttackKind::Interleave => "mistrain_interleave",
        }
    }
}

impl fmt::Display for AttackKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error from parsing an [`AttackKind`] name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAttackError(String);

impl fmt::Display for ParseAttackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown attack kind {:?} (expected one of: mistrain_alias, \
             mistrain_flood, mistrain_interleave)",
            self.0
        )
    }
}

impl std::error::Error for ParseAttackError {}

impl FromStr for AttackKind {
    type Err = ParseAttackError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        AttackKind::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| ParseAttackError(s.to_string()))
    }
}

/// Builds the interleaved attacker+victim trace for `kind`.
///
/// The same `(kind, seed, target_uops)` triple always yields an identical
/// trace, and the victim-side emission is identical to
/// [`victim_only`]'s — the attacker blocks are purely additive.
pub fn compose(kind: AttackKind, seed: u64, target_uops: usize) -> Trace {
    build(kind, seed, target_uops, true)
}

/// Builds the victim program of `kind` alone (the differential baseline).
pub fn victim_only(kind: AttackKind, seed: u64, target_uops: usize) -> Trace {
    build(kind, seed, target_uops, false)
}

fn build(kind: AttackKind, seed: u64, target_uops: usize, with_attacker: bool) -> Trace {
    // Attacker-only randomness: the victim must emit identically with and
    // without the attacker for the differential measurement to be fair.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xadd5_ea10_fbad ^ kind.name().len() as u64);
    let mut b = TraceBuilder::new();
    let mut iter: u64 = 0;
    while b.len() < target_uops {
        match kind {
            AttackKind::Alias => {
                // Victim first: the attacker's training loads run with *no*
                // branches between them and the victim's load, so they
                // observe bit-for-bit the folded-history context the victim
                // just predicted in — and will predict in again one
                // direction-schedule period later.
                victim_alias_block(&mut b, iter);
                if with_attacker {
                    attacker_alias_block(&mut b, iter);
                }
            }
            AttackKind::Flood => {
                if with_attacker {
                    attacker_flood_block(&mut b, iter);
                }
                victim_pair_block(&mut b, iter);
            }
            AttackKind::Interleave => {
                if with_attacker {
                    attacker_interleave_block(&mut b, iter, &mut rng);
                }
                victim_hammock_block(&mut b, iter);
            }
        }
        iter += 1;
    }
    let name = if with_attacker {
        kind.name().to_string()
    } else {
        format!("{}_victim", kind.name())
    };
    b.build(name)
}

// ---------------------------------------------------------------- victim

/// Alias-attack victim: a data-dependent branch whose direction follows
/// [`ALIAS_DIRECTIONS`] (rotating the folded-history context with period
/// 64) and a genuinely independent load. Any dependence prediction on this
/// load is attacker-induced.
fn victim_alias_block(b: &mut TraceBuilder, iter: u64) {
    let taken = (ALIAS_DIRECTIONS >> (iter % 64)) & 1 != 0;
    b.branch(V_PC, taken, None);
    // Rotate through a large never-written region so the load has no
    // last writer at all.
    let addr = V_QUIET_BASE + (iter % 4096) * 64;
    b.load(V_PC + 0x60, addr, 8, V_DST_REG, None);
    b.alu(
        V_PC + 0x70,
        [Some(V_DST_REG), None],
        Some(V_CONSUMER_REG),
        1,
    );
}

/// Flood-attack victim: a genuinely dependent distance-1 pair the
/// predictor should learn to bypass. Eviction of its entries shows up as
/// induced missed dependencies.
fn victim_pair_block(b: &mut TraceBuilder, iter: u64) {
    for site in 0..4u64 {
        let pc = V_PC + site * 0x100;
        let slot = V_PAIR_BASE + site * 64;
        b.alu(pc + 0x10, [None, None], Some(V_DATA_REG), 1);
        b.store(pc + 0x14, slot, 8, V_DATA_REG);
        b.load(pc + 0x60, slot, 8, V_DST_REG, None);
        b.alu(pc + 0x70, [Some(V_DST_REG), None], Some(V_CONSUMER_REG), 1);
    }
    let _ = iter;
}

/// Interleave-attack victim: a history-correlated hammock (§III-A shape).
/// Even iterations store then load (distance 1); odd iterations load a
/// slot whose last writer is `SLOT_ROTATION` iterations old, i.e. a
/// genuine runtime non-dependence.
fn victim_hammock_block(b: &mut TraceBuilder, iter: u64) {
    let taken = iter.is_multiple_of(2);
    let slot = V_PAIR_BASE + 0x1_0000 + (iter % SLOT_ROTATION) * 64;
    b.branch(V_PC, taken, None);
    if taken {
        b.alu(V_PC + 0x10, [None, None], Some(V_DATA_REG), 1);
        b.store(V_PC + 0x14, slot, 8, V_DATA_REG);
    }
    b.load(V_PC + 0x60, slot, 8, V_DST_REG, None);
    b.alu(
        V_PC + 0x70,
        [Some(V_DST_REG), None],
        Some(V_CONSUMER_REG),
        1,
    );
}

// -------------------------------------------------------------- attacker

/// Alias attacker: saturate the shared entry with a distance-1 bypass
/// pattern. The block runs directly after the victim's load and contains
/// **no branches**, so every training load observes exactly the folded
/// history context (at every table length) that the victim's load just
/// predicted in; the load PC differs from the victim's only at bit 34, so
/// the trained entries are the ones the victim's next visit to this
/// context will hit. The victim's false bypass forwards from the last of
/// these stores (the only stores in the trace).
fn attacker_alias_block(b: &mut TraceBuilder, iter: u64) {
    for _ in 0..ALIAS_REPS {
        b.alu(A_PC + 0x10, [None, None], Some(A_DATA_REG), 1);
        b.store(A_PC + 0x14, A_DATA_BASE, 8, A_DATA_REG);
        b.load(A_PC + 0x60, A_DATA_BASE, 8, A_DST_REG, None);
    }
    let _ = iter;
}

/// Flood attacker: rotate through [`FLOOD_SITES`] distinct sites, each a
/// distance-1 dependent pair, so every round allocates fresh entries at
/// the dependence-allocation usefulness across the whole table.
fn attacker_flood_block(b: &mut TraceBuilder, iter: u64) {
    for j in 0..FLOOD_REPS {
        let site = (iter * FLOOD_REPS + j) % FLOOD_SITES;
        let pc = A_PC + 0x1_0000 + site * 0x40;
        let slot = A_DATA_BASE + site * 64;
        b.alu(pc + 0x10, [None, None], Some(A_DATA_REG), 1);
        b.store(pc + 0x14, slot, 8, A_DATA_REG);
        b.load(pc + 0x20, slot, 8, A_DST_REG, None);
    }
}

/// Interleave attacker: a variable-length burst of branches desynchronises
/// the victim's history, then an aliased pair trained in the *opposite*
/// phase poisons whichever context the victim lands in.
fn attacker_interleave_block(b: &mut TraceBuilder, iter: u64, rng: &mut StdRng) {
    let burst = 1 + (rng.random::<f64>() * 4.0) as u64; // 1..=4
    for k in 0..burst {
        b.branch(A_PC + 0x200 + k * 0x20, !(iter + k).is_multiple_of(3), None);
    }
    // Anti-correlated aliased hammock: dependent exactly when the victim's
    // phase is independent.
    let taken = !iter.is_multiple_of(2);
    b.branch(A_PC, taken, None);
    let slot = A_DATA_BASE + 0x1_0000;
    if taken {
        b.alu(A_PC + 0x10, [None, None], Some(A_DATA_REG), 1);
        b.store(A_PC + 0x14, slot, 8, A_DATA_REG);
    }
    b.load(A_PC + 0x60, slot, 8, A_DST_REG, None);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mascot_sim::uop::UopKind;

    #[test]
    fn names_parse_back() {
        for kind in AttackKind::ALL {
            assert_eq!(kind.name().parse::<AttackKind>().unwrap(), kind);
        }
        assert!("mistrain_nope".parse::<AttackKind>().is_err());
    }

    #[test]
    fn composed_traces_are_deterministic_and_consistent() {
        for kind in AttackKind::ALL {
            let a = compose(kind, 7, 10_000);
            let b = compose(kind, 7, 10_000);
            assert_eq!(a.uops, b.uops, "{kind} not deterministic");
            a.validate().unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert!(a.len() >= 10_000);
            assert_eq!(a.name, kind.name());
        }
    }

    #[test]
    fn victim_only_is_the_attackers_complement() {
        // Removing the attacker blocks must leave the victim's uop stream
        // untouched (same PCs, same order) — the differential measurement
        // depends on it.
        for kind in AttackKind::ALL {
            let full = compose(kind, 3, 8_000);
            let alone = victim_only(kind, 3, 8_000);
            assert_eq!(alone.name, format!("{}_victim", kind.name()));
            alone.validate().unwrap();
            let victim_in_full: Vec<_> = full
                .uops
                .iter()
                .filter(|u| u.pc < TENANT_BOUNDARY)
                .map(|u| u.pc)
                .collect();
            let victim_alone: Vec<_> = alone.uops.iter().map(|u| u.pc).collect();
            let n = victim_in_full.len().min(victim_alone.len());
            assert!(n > 500, "{kind}: too few victim uops ({n})");
            assert_eq!(victim_in_full[..n], victim_alone[..n], "{kind}");
        }
    }

    #[test]
    fn tenants_are_disjoint_and_both_present() {
        for kind in AttackKind::ALL {
            let t = compose(kind, 11, 12_000);
            let mut victim_loads = 0usize;
            let mut attacker_loads = 0usize;
            for u in &t.uops {
                if let UopKind::Load { .. } = u.kind {
                    if u.pc < TENANT_BOUNDARY {
                        victim_loads += 1;
                    } else {
                        attacker_loads += 1;
                    }
                }
            }
            assert!(victim_loads > 100, "{kind}: victim loads {victim_loads}");
            assert!(
                attacker_loads > 100,
                "{kind}: attacker loads {attacker_loads}"
            );
        }
    }

    #[test]
    fn alias_attacker_pcs_fold_onto_victim_pcs() {
        // The whole construction rests on the attacker PC differing from
        // the victim PC only at bit 34.
        assert_eq!(A_PC ^ V_PC, 1 << 34);
        assert_eq!(A_PC & (TENANT_BOUNDARY - 1), V_PC);
    }

    #[test]
    fn alias_victim_loads_are_genuinely_independent() {
        let t = compose(AttackKind::Alias, 5, 10_000);
        for u in &t.uops {
            if let UopKind::Load { dep, .. } = u.kind {
                if u.pc < TENANT_BOUNDARY {
                    assert!(dep.is_none(), "victim load at {:#x} has a dep", u.pc);
                }
            }
        }
    }
}
