//! Micro-op and trace model.
//!
//! The simulator is trace-driven, mirroring the paper's methodology (§V):
//! the core is fed a stream of micro-ops on the committed path (the Sniper
//! frontend in the paper; our synthetic generators in this reproduction).
//! Each load carries *ground-truth* dependence annotations computed by the
//! trace producer — the youngest prior store writing any byte the load
//! reads — which the simulator uses both to model memory-order violations
//! and to implement the perfect-predictor oracles.

use mascot::history::BranchKind;
use mascot::prediction::{BypassClass, LoadOutcome, ObservedDependence, StoreDistance};
use serde::{Deserialize, Serialize};

/// An architectural register name (the generator uses 0..=63).
pub type ArchReg = u8;

/// Number of architectural registers the trace format supports.
pub const NUM_ARCH_REGS: usize = 64;

/// Static ground truth about a load's memory dependence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceDep {
    /// Program-order store distance to the youngest prior store writing any
    /// byte this load reads (1 = immediately preceding store). May exceed
    /// the predictors' 127-distance window; the simulator treats such
    /// dependencies as out of reach (the store cannot still be in a
    /// 114-entry store buffer).
    pub distance: u32,
    /// Size/alignment relation of the pair (Fig. 2 classification).
    pub class: BypassClass,
    /// PC of the source store.
    pub store_pc: u64,
    /// Branches between the store and the load in program order (PHAST's
    /// allocation context).
    pub branches_between: u32,
}

impl TraceDep {
    /// The commit-time outcome that trains a predictor on this dependence.
    /// A distance beyond the predictors' 127-store window trains as
    /// independent: no in-flight store can be that far back.
    pub fn outcome(&self) -> LoadOutcome {
        match StoreDistance::new(self.distance) {
            Some(distance) => LoadOutcome::dependent(ObservedDependence {
                distance,
                class: self.class,
                store_pc: self.store_pc,
                branches_between: self.branches_between,
            }),
            None => LoadOutcome::independent(),
        }
    }
}

/// The operation class of a micro-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UopKind {
    /// An arithmetic/logic operation (execution latency in [`Uop::latency`]).
    Alu,
    /// A memory load.
    Load {
        /// Effective address.
        addr: u64,
        /// Access size in bytes.
        size: u8,
        /// Ground-truth dependence, if any.
        dep: Option<TraceDep>,
    },
    /// A memory store. `srcs[0]` is the address operand, `srcs[1]` the data
    /// operand.
    Store {
        /// Effective address.
        addr: u64,
        /// Access size in bytes.
        size: u8,
    },
    /// A control transfer.
    Branch {
        /// Conditional or indirect (unconditional-direct branches are
        /// recorded as always-taken conditionals).
        kind: BranchKind,
        /// Actual direction.
        taken: bool,
        /// Actual target.
        target: u64,
    },
}

impl UopKind {
    /// True for loads.
    pub fn is_load(&self) -> bool {
        matches!(self, UopKind::Load { .. })
    }

    /// True for stores.
    pub fn is_store(&self) -> bool {
        matches!(self, UopKind::Store { .. })
    }

    /// True for branches.
    pub fn is_branch(&self) -> bool {
        matches!(self, UopKind::Branch { .. })
    }
}

/// One micro-op of the committed path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Uop {
    /// Instruction address.
    pub pc: u64,
    /// Operation class and operands.
    pub kind: UopKind,
    /// Source registers (up to two; a store uses `[address, data]`).
    pub srcs: [Option<ArchReg>; 2],
    /// Destination register.
    pub dst: Option<ArchReg>,
    /// Execution latency in cycles for ALU ops (memory latency comes from
    /// the cache model; branches resolve with this latency too).
    pub latency: u8,
}

impl Uop {
    /// Builds an ALU micro-op.
    pub fn alu(pc: u64, srcs: [Option<ArchReg>; 2], dst: Option<ArchReg>, latency: u8) -> Self {
        Self {
            pc,
            kind: UopKind::Alu,
            srcs,
            dst,
            latency,
        }
    }

    /// Builds a load micro-op. `addr_reg` produces the address.
    pub fn load(
        pc: u64,
        addr: u64,
        size: u8,
        addr_reg: Option<ArchReg>,
        dst: ArchReg,
        dep: Option<TraceDep>,
    ) -> Self {
        Self {
            pc,
            kind: UopKind::Load { addr, size, dep },
            srcs: [addr_reg, None],
            dst: Some(dst),
            latency: 1,
        }
    }

    /// Builds a store micro-op with address and data operands.
    pub fn store(
        pc: u64,
        addr: u64,
        size: u8,
        addr_reg: Option<ArchReg>,
        data_reg: Option<ArchReg>,
    ) -> Self {
        Self {
            pc,
            kind: UopKind::Store { addr, size },
            srcs: [addr_reg, data_reg],
            dst: None,
            latency: 1,
        }
    }

    /// Builds a conditional branch micro-op.
    pub fn branch(pc: u64, taken: bool, target: u64, cond_reg: Option<ArchReg>) -> Self {
        Self {
            pc,
            kind: UopKind::Branch {
                kind: BranchKind::Conditional,
                taken,
                target,
            },
            srcs: [cond_reg, None],
            dst: None,
            latency: 1,
        }
    }

    /// Builds an indirect branch micro-op (always taken).
    pub fn indirect_branch(pc: u64, target: u64, target_reg: Option<ArchReg>) -> Self {
        Self {
            pc,
            kind: UopKind::Branch {
                kind: BranchKind::Indirect,
                taken: true,
                target,
            },
            srcs: [target_reg, None],
            dst: None,
            latency: 1,
        }
    }
}

/// A committed-path micro-op trace with a name for reporting.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    /// Workload name (e.g. `"perlbench2"`).
    pub name: String,
    /// The micro-ops in program order.
    pub uops: Vec<Uop>,
}

impl Trace {
    /// Creates a named trace.
    pub fn new(name: impl Into<String>, uops: Vec<Uop>) -> Self {
        Self {
            name: name.into(),
            uops,
        }
    }

    /// Number of micro-ops.
    pub fn len(&self) -> usize {
        self.uops.len()
    }

    /// True when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.uops.is_empty()
    }

    /// Count of load micro-ops.
    pub fn num_loads(&self) -> usize {
        self.uops.iter().filter(|u| u.kind.is_load()).count()
    }

    /// Count of store micro-ops.
    pub fn num_stores(&self) -> usize {
        self.uops.iter().filter(|u| u.kind.is_store()).count()
    }

    /// Count of branch micro-ops.
    pub fn num_branches(&self) -> usize {
        self.uops.iter().filter(|u| u.kind.is_branch()).count()
    }

    /// Validates internal consistency of the trace annotations.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency: a load whose
    /// ground-truth distance points before the start of the trace or at a
    /// non-store, or a store-distance of zero.
    pub fn validate(&self) -> Result<(), String> {
        let mut stores_before = 0u64;
        let mut store_positions: Vec<usize> = Vec::new();
        for (i, uop) in self.uops.iter().enumerate() {
            if let UopKind::Load { dep: Some(dep), .. } = &uop.kind {
                if dep.distance == 0 {
                    return Err(format!("uop {i}: dependence distance of 0"));
                }
                if u64::from(dep.distance) > stores_before {
                    return Err(format!(
                        "uop {i}: distance {} exceeds {} prior stores",
                        dep.distance, stores_before
                    ));
                }
                let src = store_positions[store_positions.len() - dep.distance as usize];
                let src_uop = &self.uops[src];
                if !src_uop.kind.is_store() {
                    return Err(format!("uop {i}: dependence target {src} is not a store"));
                }
                if src_uop.pc != dep.store_pc {
                    return Err(format!(
                        "uop {i}: store_pc {:#x} does not match store at {src} ({:#x})",
                        dep.store_pc, src_uop.pc
                    ));
                }
            }
            if uop.kind.is_store() {
                stores_before += 1;
                store_positions.push(i);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_window_dependences_train_independent() {
        let mut dep = TraceDep {
            distance: 500, // beyond StoreDistance::MAX
            class: BypassClass::DirectBypass,
            store_pc: 0x10,
            branches_between: 2,
        };
        assert_eq!(dep.outcome(), LoadOutcome::independent());
        dep.distance = 127;
        let observed = dep.outcome().dependence.expect("in-window dependence");
        assert_eq!(observed.distance.get(), 127);
        assert_eq!((observed.store_pc, observed.branches_between), (0x10, 2));
    }

    #[test]
    fn constructors_set_kinds() {
        let l = Uop::load(0x10, 0x1000, 8, Some(1), 2, None);
        assert!(l.kind.is_load());
        assert_eq!(l.dst, Some(2));
        let s = Uop::store(0x14, 0x1000, 8, Some(1), Some(3));
        assert!(s.kind.is_store());
        assert_eq!(s.srcs, [Some(1), Some(3)]);
        let b = Uop::branch(0x18, true, 0x30, None);
        assert!(b.kind.is_branch());
        let a = Uop::alu(0x1c, [None, None], Some(4), 3);
        assert_eq!(a.latency, 3);
    }

    #[test]
    fn trace_counts() {
        let t = Trace::new(
            "t",
            vec![
                Uop::store(0, 0x100, 8, None, None),
                Uop::load(4, 0x100, 8, None, 1, None),
                Uop::branch(8, true, 0, None),
                Uop::alu(12, [None, None], None, 1),
            ],
        );
        assert_eq!(t.len(), 4);
        assert_eq!(t.num_loads(), 1);
        assert_eq!(t.num_stores(), 1);
        assert_eq!(t.num_branches(), 1);
    }

    #[test]
    fn validate_accepts_consistent_dep() {
        let dep = TraceDep {
            distance: 1,
            class: BypassClass::DirectBypass,
            store_pc: 0,
            branches_between: 0,
        };
        let t = Trace::new(
            "t",
            vec![
                Uop::store(0, 0x100, 8, None, None),
                Uop::load(4, 0x100, 8, None, 1, Some(dep)),
            ],
        );
        t.validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_distance() {
        let dep = TraceDep {
            distance: 2,
            class: BypassClass::DirectBypass,
            store_pc: 0,
            branches_between: 0,
        };
        let t = Trace::new(
            "t",
            vec![
                Uop::store(0, 0x100, 8, None, None),
                Uop::load(4, 0x100, 8, None, 1, Some(dep)),
            ],
        );
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_wrong_store_pc() {
        let dep = TraceDep {
            distance: 1,
            class: BypassClass::DirectBypass,
            store_pc: 0xbad,
            branches_between: 0,
        };
        let t = Trace::new(
            "t",
            vec![
                Uop::store(0, 0x100, 8, None, None),
                Uop::load(4, 0x100, 8, None, 1, Some(dep)),
            ],
        );
        assert!(t.validate().is_err());
    }
}
