//! SPOILER-GUARD-style randomized MASCOT (DESIGN.md §12).
//!
//! MASCOT's table hashes are GF(2)-linear in the load PC and read only its
//! low bits, so an attacker who controls its own code layout can construct
//! PCs that collide with a victim's entries in *every* table under *any*
//! history (`mistrain_alias` in `mascot-workloads` does exactly that) and
//! mistrain the victim's bypass decisions. [`RandomizedMascot`] defends
//! with two mechanisms proposed by the SPOILER-GUARD line of work:
//!
//! 1. **Keyed index randomization** — every PC is passed through a keyed
//!    *non-linear* bijection (a splitmix64-style multiply–xorshift chain)
//!    before it reaches the inner predictor's hashes. Linearity is what
//!    makes offline alias construction trivial (XOR-ing any constant into
//!    the PC preserves collisions); the multiply steps destroy that
//!    structure, so colliding contexts can only be found by online probing
//!    against the keyed instance.
//! 2. **Noisy confidence thresholds** — a keyed, deterministic 1-in-64
//!    coin demotes a `Bypass` prediction to a plain `Dependence`. The
//!    demotion is always *safe* (the dependence is still honoured, so no
//!    squash risk) and costs only the occasional lost bypass, but it caps
//!    the value of any single mistrained entry and makes the attacker's
//!    feedback signal noisy.
//!
//! The key is architectural state: it is written to snapshots and restored
//! with the tables (a warm restart must *not* silently fall back to a
//! well-known key, which would de-randomize the defense), and merging two
//! instances with different keys fails closed — their index spaces are
//! mutually scrambled, so a union merge would be meaningless.

use mascot::config::{ConfigError, MascotConfig};
use mascot::history::BranchEvent;
use mascot::prediction::{GroundTruth, LoadOutcome, MemDepPrediction, MemDepPredictor, PredictReq};
use mascot::predictor::{Mascot, MascotMeta};
use mascot_snapshot::{SnapError, SnapReader, SnapWriter};

/// Deployment-default scramble key.
///
/// A production deployment rolls a fresh key per boot (see
/// [`RandomizedMascot::with_key`]) and shares it across the shards of one
/// serve instance (merging requires equal keys). The registry builds with
/// this fixed key so golden tests and bit-exact differentials stay
/// deterministic; the defense evaluated in `EXPERIMENTS.md` does not rely
/// on key secrecy against our attacker profiles — they exploit the hash's
/// *linearity*, which any key of this scramble removes.
pub const DEFAULT_KEY: u64 = 0x5eed_c0de_2025_0913;

/// Demote one in `NOISE_PERIOD` bypass predictions to a plain dependence.
const NOISE_PERIOD: u64 = 64;

/// Keyed non-linear bijection over PCs (splitmix64 finalizer seeded with
/// the key). Bijective, so distinct PCs can never be *introduced* as
/// aliases by the scramble itself.
#[inline]
fn scramble(key: u64, pc: u64) -> u64 {
    let mut x = pc ^ key;
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Applies the confidence noise to one prediction: each *bypass*
/// prediction, in request order, draws the keyed deterministic demotion
/// coin and advances the noise phase `ctr`. A free function over the key
/// and phase so the batched sweep's sink can run it while the inner
/// predictor is borrowed.
#[inline]
fn apply_noise(key: u64, ctr: &mut u64, pred: MemDepPrediction) -> MemDepPrediction {
    if !pred.is_bypass() {
        return pred;
    }
    let draw = scramble(key.rotate_left(32), *ctr);
    *ctr = ctr.wrapping_add(1);
    if draw.is_multiple_of(NOISE_PERIOD) {
        pred.demote_bypass()
    } else {
        pred
    }
}

/// MASCOT behind keyed index randomization and noisy bypass confidence.
#[derive(Debug, Clone)]
pub struct RandomizedMascot {
    inner: Mascot,
    key: u64,
    /// Bypass predictions seen so far — the phase of the deterministic
    /// noise stream (architectural state: snapshotted, so a restored
    /// instance continues the exact same coin sequence).
    noise_ctr: u64,
    /// Scratch for the batched probe (scrambled request copies).
    batch_scratch: Vec<PredictReq>,
}

impl RandomizedMascot {
    /// Builds with the deployment-default key.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors from [`Mascot::new`].
    pub fn new(cfg: MascotConfig) -> Result<Self, ConfigError> {
        Self::with_key(cfg, DEFAULT_KEY)
    }

    /// Builds with a caller-chosen scramble key (per-boot randomization).
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors from [`Mascot::new`].
    pub fn with_key(cfg: MascotConfig, key: u64) -> Result<Self, ConfigError> {
        Ok(Self {
            inner: Mascot::new(cfg)?,
            key,
            noise_ctr: 0,
            batch_scratch: Vec::new(),
        })
    }

    /// The active scramble key.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The wrapped predictor (tables are indexed by *scrambled* PCs).
    pub fn inner(&self) -> &Mascot {
        &self.inner
    }

    /// Total valid entries across all tables ([`Mascot::entry_count`]).
    pub fn entry_count(&self) -> u64 {
        self.inner.entry_count()
    }

    /// Encodes key, noise phase and the wrapped predictor's state.
    pub fn snap_encode(&self, w: &mut SnapWriter) {
        w.u64(self.key);
        w.u64(self.noise_ctr);
        self.inner.snap_encode(w);
    }

    /// Restores from a snapshot payload. The key is restored *from the
    /// snapshot* — a warm restart keeps the randomization it was trained
    /// under instead of silently reverting to [`DEFAULT_KEY`].
    ///
    /// # Errors
    ///
    /// Propagates any [`SnapError`] from the inner decode.
    pub fn snap_decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let key = r.u64("scramble key")?;
        let noise_ctr = r.u64("noise phase")?;
        Ok(Self {
            inner: Mascot::snap_decode(r)?,
            key,
            noise_ctr,
            batch_scratch: Vec::new(),
        })
    }

    /// Folds another randomized predictor's tables into this one,
    /// fail-closed on a key mismatch (like a kind mismatch): two instances
    /// keyed differently index mutually scrambled spaces, so a union merge
    /// would write every entry at meaningless coordinates.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] on a key or configuration mismatch.
    pub fn merge_from(&mut self, other: &Self) -> Result<u64, SnapError> {
        if self.key != other.key {
            return Err(SnapError::Corrupt(
                "cannot merge randomized predictors with different keys",
            ));
        }
        self.inner.merge_from(&other.inner)
    }
}

impl MemDepPredictor for RandomizedMascot {
    type Meta = MascotMeta;

    fn name(&self) -> &'static str {
        "randomized-mascot"
    }

    fn predict(
        &mut self,
        pc: u64,
        store_seq: u64,
        oracle: Option<&GroundTruth>,
    ) -> (MemDepPrediction, MascotMeta) {
        let spc = scramble(self.key, pc);
        let (pred, meta) = self.inner.predict(spc, store_seq, oracle);
        (apply_noise(self.key, &mut self.noise_ctr, pred), meta)
    }

    /// Batched probe: scrambles the whole batch, then runs the inner
    /// table-major sweep; noise is applied at emission, in request order,
    /// so the result is identical to scalar [`MemDepPredictor::predict`]
    /// calls in sequence.
    fn predict_batch_into(
        &mut self,
        reqs: &[PredictReq],
        mut sink: impl FnMut(MemDepPrediction, MascotMeta),
    ) {
        let mut scrambled = std::mem::take(&mut self.batch_scratch);
        scrambled.clear();
        scrambled.extend(reqs.iter().map(|r| PredictReq {
            pc: scramble(self.key, r.pc),
            ..*r
        }));
        // The sink captures only the key and noise phase, disjoint from the
        // inner predictor the sweep borrows.
        self.inner.predict_batch_into(&scrambled, |pred, meta| {
            sink(apply_noise(self.key, &mut self.noise_ctr, pred), meta);
        });
        self.batch_scratch = scrambled;
    }

    fn train(
        &mut self,
        pc: u64,
        meta: MascotMeta,
        predicted: MemDepPrediction,
        outcome: &LoadOutcome,
    ) {
        // The inner trainer keys every table update off `meta`'s captured
        // lookups (computed from the scrambled PC at predict time), and a
        // demoted Bypass trains identically to the Dependence it became,
        // so handing it the acted-on prediction is exact.
        self.inner
            .train(scramble(self.key, pc), meta, predicted, outcome);
    }

    fn on_branch(&mut self, event: &BranchEvent) {
        self.inner.on_branch(event);
    }

    fn rewind_history(&mut self, recent: &[BranchEvent]) {
        self.inner.rewind_history(recent);
    }

    fn bypass_supports_offset(&self) -> bool {
        self.inner.bypass_supports_offset()
    }

    fn storage_bits(&self) -> u64 {
        // Tables plus the 64-bit key register.
        self.inner.storage_bits() + 64
    }

    fn end_tuning_period(&mut self) {
        self.inner.end_tuning_period();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mascot::prediction::{BypassClass, ObservedDependence, StoreDistance};

    fn small_cfg() -> MascotConfig {
        MascotConfig {
            history_lengths: vec![0, 2, 4, 8],
            table_entries: vec![64; 4],
            tag_bits: vec![12; 4],
            ..MascotConfig::default()
        }
    }

    fn dep_out(d: u32) -> LoadOutcome {
        LoadOutcome::dependent(ObservedDependence {
            distance: StoreDistance::new(d).unwrap(),
            class: BypassClass::DirectBypass,
            store_pc: 0x900,
            branches_between: 0,
        })
    }

    #[test]
    fn learns_like_mascot_modulo_noise() {
        let mut p = RandomizedMascot::new(small_cfg()).unwrap();
        let pc = 0x40_2000;
        let out = dep_out(3);
        for _ in 0..20 {
            let (pred, meta) = p.predict(pc, 0, None);
            p.train(pc, meta, pred, &out);
        }
        let (pred, _) = p.predict(pc, 0, None);
        assert!(
            pred.is_dependence(),
            "must still learn dependences: {pred:?}"
        );
    }

    #[test]
    fn scramble_is_nonlinear_in_pc() {
        // The attack surface: under the plain hash, pc and pc^(k<<34)
        // collide in every table. The scramble must not commute with XOR.
        let k = 0x3u64 << 34;
        let a = scramble(DEFAULT_KEY, 0x40_0000);
        let b = scramble(DEFAULT_KEY, 0x40_0000 ^ k);
        assert_ne!(a ^ b, k, "XOR differences must not be preserved");
        assert_ne!(a & 0x3_ffff_ffff, b & 0x3_ffff_ffff, "low bits must split");
    }

    #[test]
    fn noise_demotes_a_bounded_fraction_of_bypasses() {
        let mut p = RandomizedMascot::new(small_cfg()).unwrap();
        let pc = 0x40_3000;
        let out = dep_out(2);
        // Saturate both counters so the inner predictor always bypasses.
        for _ in 0..8 {
            let (pred, meta) = p.predict(pc, 0, None);
            p.train(pc, meta, pred, &out);
        }
        let mut demoted = 0;
        let rounds = 4096;
        for _ in 0..rounds {
            let (pred, meta) = p.predict(pc, 0, None);
            if !pred.is_bypass() {
                demoted += 1;
            }
            p.train(pc, meta, pred, &out);
        }
        // ~1/64 expected; generous bounds keep this deterministic-friendly.
        assert!(demoted > 0, "noise must fire at least once in {rounds}");
        assert!(
            demoted < rounds / 16,
            "noise demoted {demoted}/{rounds}: too lossy"
        );
    }

    #[test]
    fn batch_matches_scalar_including_noise_phase() {
        let pcs: Vec<u64> = (0..64u64).map(|i| 0x40_0000 + i * 4).collect();
        let out = dep_out(1);
        let mut scalar = RandomizedMascot::new(small_cfg()).unwrap();
        let mut batch = RandomizedMascot::new(small_cfg()).unwrap();
        for round in 0..40 {
            let reqs: Vec<PredictReq> = pcs
                .iter()
                .map(|&pc| PredictReq {
                    pc,
                    store_seq: 0,
                    oracle: None,
                })
                .collect();
            let mut batched = Vec::new();
            batch.predict_batch(&reqs, &mut batched);
            for (i, &pc) in pcs.iter().enumerate() {
                let (sp, sm) = scalar.predict(pc, 0, None);
                assert_eq!(sp, batched[i].0, "round {round} pc {pc:#x}");
                scalar.train(pc, sm, sp, &out);
            }
            for (i, (bp, bm)) in batched.into_iter().enumerate() {
                batch.train(pcs[i], bm, bp, &out);
            }
            assert_eq!(scalar.noise_ctr, batch.noise_ctr, "round {round}");
        }
    }

    #[test]
    fn snapshot_roundtrips_key_and_noise_phase() {
        let mut p = RandomizedMascot::with_key(small_cfg(), 0xdead_beef).unwrap();
        let out = dep_out(2);
        for i in 0..300u64 {
            let pc = 0x40_0000 + (i % 16) * 4;
            let (pred, meta) = p.predict(pc, 0, None);
            p.train(pc, meta, pred, &out);
        }
        let mut w = SnapWriter::new();
        p.snap_encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut q = RandomizedMascot::snap_decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(q.key(), 0xdead_beef, "key must survive the restart");
        assert_eq!(q.noise_ctr, p.noise_ctr);
        // Identical continued traffic must stay bit-identical (noise
        // stream included).
        for i in 0..200u64 {
            let pc = 0x40_0000 + (i % 16) * 4;
            let (pp, pm) = p.predict(pc, 0, None);
            let (qp, qm) = q.predict(pc, 0, None);
            assert_eq!(pp, qp, "prediction diverged at step {i}");
            p.train(pc, pm, pp, &out);
            q.train(pc, qm, qp, &out);
        }
    }

    #[test]
    fn merge_fails_closed_on_key_mismatch() {
        let mut a = RandomizedMascot::with_key(small_cfg(), 1).unwrap();
        let b = RandomizedMascot::with_key(small_cfg(), 2).unwrap();
        assert!(a.merge_from(&b).is_err(), "different keys must not merge");
        let c = RandomizedMascot::with_key(small_cfg(), 1).unwrap();
        assert!(a.merge_from(&c).is_ok());
    }
}
