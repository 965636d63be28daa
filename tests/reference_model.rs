//! Differential test of the tagged-table bank against a from-the-definition
//! reference.
//!
//! `TaggedTables` keeps each table's index and tag as folded registers that
//! advance on every branch and are refolded from the restored log on a
//! squash. The reference here keeps the raw history as a `Vec<BranchEvent>`
//! and recomputes every table's index and tag from it at each lookup: no
//! folds, no ring, and a squash truncates the `Vec` (SNIPPETS.md snippet 1's
//! `recordPath` idiom). Seeded random streams of branches, lookups, rewinds
//! of 0 to 40 wrong-path branches and snapshot round trips drive both, and
//! every `(index, tag)`, every `find`/`way_of` answer and every payload must
//! agree.
//!
//! The shapes cover every bank the five tagged structures build (MASCOT,
//! MASCOT-OPT, PHAST, MDP-TAGE, NoSQ and the frontend TAGE), plus edge
//! geometries: fold widths of 1 to 5 bits (where a 5-bit chunk is squashed),
//! windows of 0 and 1, a window equal to or a multiple of a fold width, and a
//! window of half the history ring.

use mascot::history::{BranchEvent, BranchKind};
use mascot::table::INVALID_TAG;
use mascot::tagged::{TableLookup, TableShape, TaggedTables};
use mascot::MascotConfig;
use mascot_predictors::{MdpTageConfig, NoSqConfig, PhastConfig};
use mascot_sim::BranchPredictorConfig;
use mascot_snapshot::{SnapReader, SnapWriter};

/// The most wrong-path branches pushed before a rewind.
const MAX_WRONG_PATH: u64 = 40;

/// Events of path history folded into each index (`history::PATH_WINDOW`).
const PATH_WINDOW: u32 = 16;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// `x` rotated left by `r` within `bits` bits.
fn rotl(x: u64, r: u32, bits: u32) -> u64 {
    let mask = (1u64 << bits) - 1;
    if r == 0 {
        x & mask
    } else {
        ((x << r) | (x >> (bits - r))) & mask
    }
}

/// A 5-bit chunk reduced to `bits` bits: kept as is when it fits, else its
/// low bits XORed with the bits above them.
fn squash(chunk: u64, bits: u32) -> u64 {
    let mask = (1u64 << bits) - 1;
    if bits >= 5 {
        chunk & mask
    } else {
        ((chunk >> bits) ^ chunk) & mask
    }
}

/// One table of the reference: its shape and its ways, `None` where empty.
struct RefTable {
    shape: TableShape,
    ways: Vec<Option<(u64, u8)>>,
}

impl RefTable {
    fn index_bits(&self) -> u32 {
        self.shape.sets.trailing_zeros()
    }

    fn set(&self, index: u64) -> &[Option<(u64, u8)>] {
        let base = index as usize * self.shape.assoc;
        &self.ways[base..base + self.shape.assoc]
    }

    /// The lowest way of set `index` holding `tag`.
    fn way_of(&self, index: u64, tag: u64) -> Option<usize> {
        self.set(index)
            .iter()
            .position(|w| matches!(w, Some((t, _)) if *t == tag))
    }
}

/// Raw history plus the tables, with every coordinate recomputed on demand.
struct Reference {
    events: Vec<BranchEvent>,
    tables: Vec<RefTable>,
}

impl Reference {
    fn new(shapes: &[TableShape]) -> Self {
        Self {
            events: Vec::new(),
            tables: shapes
                .iter()
                .map(|&shape| RefTable {
                    shape,
                    ways: vec![None; shape.sets * shape.assoc],
                })
                .collect(),
        }
    }

    /// XOR over the newest `window` events of each chunk squashed to `bits`
    /// and rotated left by its age modulo `bits`.
    fn fold(&self, window: u32, bits: u32, chunk_of: fn(&BranchEvent) -> u64) -> u64 {
        self.events
            .iter()
            .rev()
            .take(window as usize)
            .enumerate()
            .fold(0, |acc, (age, ev)| {
                acc ^ rotl(squash(chunk_of(ev), bits), age as u32 % bits, bits)
            })
    }

    /// Table `t`'s set index and tag for `pc` (§IV-B: the load PC hashed
    /// with the table's window of direction and path history).
    fn lookup(&self, t: usize, pc: u64) -> TableLookup {
        let table = &self.tables[t];
        let window = table.shape.history_len;
        let p = pc >> 2;
        let ib = table.index_bits();
        let fold_bits = ib.max(1);
        let index = (p
            ^ (p >> ib)
            ^ (p >> (2 * ib))
            ^ self.fold(window, fold_bits, BranchEvent::chunk)
            ^ self.fold(window.min(PATH_WINDOW), fold_bits, BranchEvent::path_chunk))
            & ((1u64 << ib) - 1);
        let tb = table.shape.tag_bits;
        let tag_b = if tb > 1 { tb - 1 } else { tb };
        let tag = (p
            ^ (p >> tb)
            ^ self.fold(window, tb, BranchEvent::chunk)
            ^ (self.fold(window, tag_b, BranchEvent::chunk) << 1))
            & ((1u64 << tb) - 1);
        TableLookup {
            index: index as u32,
            tag: tag as u32,
        }
    }
}

fn random_event(rng: &mut u64) -> BranchEvent {
    let r = xorshift(rng);
    BranchEvent {
        pc: 0x40_0000 + (r % 509) * 4,
        kind: if r.is_multiple_of(5) {
            BranchKind::Indirect
        } else {
            BranchKind::Conditional
        },
        taken: !(r >> 20).is_multiple_of(3),
        target: 0x50_0000 + ((r >> 24) % 1021) * 4,
    }
}

/// Encodes the bank's history and tables and decodes them into a fresh bank
/// of the same shapes.
fn round_trip(bank: &TaggedTables<u8>, shapes: &[TableShape]) -> TaggedTables<u8> {
    let mut w = SnapWriter::new();
    bank.snap_encode_history(&mut w);
    bank.snap_encode_tables(&mut w, |e, w| w.u8(*e));
    let bytes = w.into_bytes();
    let mut back = TaggedTables::new(shapes, 0u8);
    let mut r = SnapReader::new(&bytes);
    back.snap_decode_history(&mut r)
        .expect("own history decodes");
    back.snap_decode_tables(&mut r, |r| r.u8("payload"))
        .expect("own tables decode");
    r.finish().expect("nothing left over");
    back
}

/// How often each path ran, so a run that never reaches one fails loudly.
#[derive(Default, Debug)]
struct Coverage {
    lookups: u64,
    hits: u64,
    rewinds: u64,
    tail_rewinds: u64,
    round_trips: u64,
}

/// Drives the bank and the reference through `steps` random operations and
/// checks every observable coordinate along the way.
fn differential(name: &str, shapes: &[TableShape], seed: u64, steps: usize) -> Coverage {
    let mut bank = TaggedTables::new(shapes, 0u8);
    let mut reference = Reference::new(shapes);
    let mut rng = seed;
    let mut cov = Coverage::default();
    // Loads recur, so inserted entries are found again.
    let pcs: Vec<u64> = (0..24).map(|i| 0x60_0000 + i * 0x34).collect();
    for step in 0..steps {
        let roll = xorshift(&mut rng) % 100;
        if roll < 45 {
            let ev = random_event(&mut rng);
            bank.on_branch(&ev);
            reference.events.push(ev);
        } else if roll < 85 {
            let pc = pcs[(xorshift(&mut rng) % pcs.len() as u64) as usize];
            let all = bank.lookups(pc);
            for (t, &got) in all.iter().enumerate().take(shapes.len()) {
                let want = reference.lookup(t, pc);
                assert_eq!(got, want, "{name}: lookups, table {t}, step {step}");
                assert_eq!(
                    bank.lookup(t, pc),
                    want,
                    "{name}: lookup, table {t}, step {step}"
                );
                check_probe(name, &bank, &reference, t, want, &mut rng, &mut cov);
            }
            assert!(
                all[shapes.len()..]
                    .iter()
                    .all(|lk| *lk == TableLookup::default()),
                "{name}: slots past the last table stay default"
            );
            cov.lookups += 1;
            // Fill or empty one way, so sets mix live and invalid ways.
            let t = (xorshift(&mut rng) % shapes.len() as u64) as usize;
            let way = (xorshift(&mut rng) % shapes[t].assoc as u64) as usize;
            let (index, tag) = (u64::from(all[t].index), u64::from(all[t].tag));
            let slot = index as usize * shapes[t].assoc + way;
            if xorshift(&mut rng).is_multiple_of(4) {
                bank.tables_mut()[t].invalidate(index, way);
                reference.tables[t].ways[slot] = None;
            } else {
                let payload = (xorshift(&mut rng) % 251) as u8;
                bank.tables_mut()[t].insert_at(index, way, tag, payload);
                reference.tables[t].ways[slot] = Some((tag, payload));
            }
        } else if roll < 97 {
            // Squash: wrong-path branches, then back to the architectural
            // path; now and then only the newest part of it is handed back,
            // as the simulator does.
            let arch = reference.events.len();
            let depth = (xorshift(&mut rng) % (MAX_WRONG_PATH + 1)) as usize;
            for _ in 0..depth {
                let ev = random_event(&mut rng);
                bank.on_branch(&ev);
                reference.events.push(ev);
            }
            reference.events.truncate(arch);
            if xorshift(&mut rng).is_multiple_of(5) {
                let keep = (xorshift(&mut rng) % 300) as usize;
                let start = arch.saturating_sub(keep);
                reference.events.drain(..start);
                cov.tail_rewinds += 1;
            }
            cov.rewinds += 1;
            bank.rewind(&reference.events);
        } else {
            bank = round_trip(&bank, shapes);
            cov.round_trips += 1;
        }
    }
    cov
}

/// `way_of`/`find` on table `t` at `lk` agree with the reference, for the
/// lookup's own tag, for every tag resident in the set and for one absent
/// tag.
fn check_probe(
    name: &str,
    bank: &TaggedTables<u8>,
    reference: &Reference,
    t: usize,
    lk: TableLookup,
    rng: &mut u64,
    cov: &mut Coverage,
) {
    let table = &bank.tables()[t];
    let model = &reference.tables[t];
    let index = u64::from(lk.index);
    let mask = (1u64 << model.shape.tag_bits) - 1;
    let mut tags: Vec<u64> = model
        .set(index)
        .iter()
        .flatten()
        .map(|&(tag, _)| tag)
        .collect();
    tags.push(u64::from(lk.tag));
    tags.push(xorshift(rng) & mask);
    assert_eq!(
        table
            .set_tags(index)
            .iter()
            .filter(|&&tag| tag == INVALID_TAG)
            .count(),
        model.set(index).iter().filter(|w| w.is_none()).count(),
        "{name}: invalid ways, table {t}"
    );
    for tag in tags {
        let want = model.way_of(index, tag);
        assert_eq!(
            table.way_of(index, tag),
            want,
            "{name}: way_of, table {t}, tag {tag:#x}"
        );
        let found = table.find(index, tag).map(|(way, &e)| (way, e));
        let want_found = want.map(|way| (way, model.set(index)[way].expect("live way").1));
        assert_eq!(found, want_found, "{name}: find, table {t}, tag {tag:#x}");
        cov.hits += u64::from(want.is_some());
    }
}

fn shape(history_len: u32, sets: usize, assoc: usize, tag_bits: u32) -> TableShape {
    TableShape {
        history_len,
        sets,
        assoc,
        tag_bits,
    }
}

/// The banks MASCOT, MASCOT-OPT, PHAST, MDP-TAGE, NoSQ and the frontend
/// TAGE build from their default configurations.
fn user_shapes() -> Vec<(&'static str, Vec<TableShape>)> {
    let mascot = |cfg: MascotConfig| -> Vec<TableShape> {
        (0..cfg.num_tables())
            .map(|i| {
                shape(
                    cfg.history_lengths[i],
                    cfg.sets(i),
                    cfg.associativity as usize,
                    u32::from(cfg.tag_bits[i]),
                )
            })
            .collect()
    };
    let per_table = |hist: &[u32], entries: &[u32], assoc: u32, tag_bits: u8| -> Vec<TableShape> {
        hist.iter()
            .zip(entries)
            .map(|(&h, &e)| shape(h, (e / assoc) as usize, assoc as usize, u32::from(tag_bits)))
            .collect()
    };
    let phast = PhastConfig::default();
    let mdp_tage = MdpTageConfig::default();
    let nosq = NoSqConfig::default();
    let nosq_shape = |h| {
        shape(
            h,
            (nosq.entries_per_table / nosq.associativity) as usize,
            nosq.associativity as usize,
            u32::from(nosq.tag_bits),
        )
    };
    let tage = BranchPredictorConfig::default();
    vec![
        ("mascot", mascot(MascotConfig::default())),
        ("mascot-opt", mascot(MascotConfig::opt())),
        (
            "phast",
            per_table(
                &phast.history_lengths,
                &phast.table_entries,
                phast.associativity,
                phast.tag_bits,
            ),
        ),
        (
            "mdp-tage",
            per_table(
                &mdp_tage.history_lengths,
                &mdp_tage.table_entries,
                mdp_tage.associativity,
                mdp_tage.tag_bits,
            ),
        ),
        ("nosq", vec![nosq_shape(nosq.history_len), nosq_shape(0)]),
        (
            "tage",
            tage.history_lengths
                .iter()
                .map(|&h| {
                    shape(
                        h,
                        tage.table_entries as usize / 4,
                        4,
                        u32::from(tage.tag_bits),
                    )
                })
                .collect(),
        ),
    ]
}

/// Geometries at the edges of the fold arithmetic.
fn edge_shapes() -> Vec<(&'static str, Vec<TableShape>)> {
    vec![
        // Index and tag folds of 1 to 5 bits; a one-set table; windows of
        // 0 and 1.
        (
            "narrow",
            vec![
                shape(0, 2, 2, 1),
                shape(1, 1, 4, 2),
                shape(3, 4, 2, 3),
                shape(5, 8, 4, 4),
                shape(9, 16, 2, 5),
                shape(2, 32, 1, 6),
            ],
        ),
        // Windows equal to a fold width (7 index bits, 11 tag bits) and
        // multiples of one (14, 22, 24), and a window of exactly half the
        // minimum 64-event ring.
        (
            "aligned",
            vec![
                shape(7, 128, 4, 11),
                shape(11, 64, 4, 11),
                shape(14, 128, 2, 12),
                shape(22, 64, 4, 11),
                shape(32, 32, 4, 17),
                shape(24, 128, 4, 12),
            ],
        ),
        // The longest window sets the ring (2 × 100 events), and is half of
        // it; the others wrap the ring many times over.
        (
            "half-ring",
            vec![
                shape(100, 64, 4, 13),
                shape(16, 16, 4, 9),
                shape(50, 256, 2, 22),
            ],
        ),
        // Sets wider than the four ways the unrolled probe serves: 8, 3, 33
        // and 64 ways, so hits land past way 32 and empty sets are probed.
        (
            "wide",
            vec![
                shape(12, 4, 64, 10),
                shape(6, 8, 8, 9),
                shape(3, 16, 3, 7),
                shape(20, 1, 33, 12),
            ],
        ),
    ]
}

#[test]
fn bank_matches_the_reference_on_every_user_shape() {
    for (i, (name, shapes)) in user_shapes().into_iter().enumerate() {
        let cov = differential(name, &shapes, 0x5eed_0000 + i as u64, 3000);
        assert!(cov.lookups > 800 && cov.hits > 400, "{name}: {cov:?}");
        assert!(cov.rewinds > 200 && cov.tail_rewinds > 5, "{name}: {cov:?}");
        assert!(cov.round_trips > 20, "{name}: {cov:?}");
    }
}

#[test]
fn bank_matches_the_reference_on_edge_shapes() {
    for (i, (name, shapes)) in edge_shapes().into_iter().enumerate() {
        let cov = differential(name, &shapes, 0xed6e_0000 + i as u64, 4000);
        assert!(cov.lookups > 1000 && cov.hits > 500, "{name}: {cov:?}");
        assert!(cov.rewinds > 200 && cov.tail_rewinds > 5, "{name}: {cov:?}");
    }
}
