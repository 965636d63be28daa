//! §III-A / footnote 1: how long a saturating counter takes to unlearn.
//!
//! Reproduces the paper's claim that a 3-bit usefulness counter initialised
//! to its maximum needs an expected ≈1,625 predictions to decay to zero when
//! the entry is correct 70 % of the time — the motivation for allocating
//! explicit non-dependence entries instead of waiting for decay.

use crate::{Run, TextTable};
use mascot_stats::markov::{expected_predictions_to_saturate, expected_predictions_to_zero};

pub fn run(_run: &Run) {
    let mut t = TextTable::new(["counter", "p(correct)", "E[predictions to zero]"]);
    for (bits, label) in [
        (2u8, "2-bit"),
        (3, "3-bit (MASCOT usefulness)"),
        (4, "4-bit (PHAST)"),
    ] {
        for p in [0.5, 0.6, 0.7, 0.8] {
            let start = (1u8 << bits) - 1;
            let n = expected_predictions_to_zero(bits, start, p);
            t.row([label.to_string(), format!("{p:.1}"), format!("{n:.1}")]);
        }
    }
    println!("== §III-A — expected predictions for a max-initialised counter to decay ==");
    println!("{}", t.render());
    let headline = expected_predictions_to_zero(3, 7, 0.7);
    println!("paper footnote 1: 3-bit counter @ 70% correct -> 1,625; measured {headline:.1}\n");

    let mut t2 = TextTable::new(["counter", "p(bypassable)", "E[predictions to saturate]"]);
    for p in [0.7, 0.9, 0.99] {
        let n = expected_predictions_to_saturate(2, 1, p);
        t2.row([
            "2-bit bypass (from 1)".to_string(),
            format!("{p:.2}"),
            format!("{n:.2}"),
        ]);
    }
    println!("== §IV-E — predictions before the bypass counter trusts an entry ==");
    println!("{}", t2.render());
}
