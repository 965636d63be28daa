//! Table II: configuration and storage of the evaluated predictors.

use crate::{PredictorKind, Run, TextTable};
use mascot::MemDepPredictor;

pub fn run(_run: &Run) {
    let kinds = [
        (
            PredictorKind::StoreSets,
            "SSIT 8K direct (1v+12b SSID), LFST 4K direct (1v+10b StID)",
        ),
        (
            PredictorKind::NoSq,
            "2 tables, 4-way, 4K entries: 22b tag + 7b counter + 7b distance + 2b LRU",
        ),
        (
            PredictorKind::Phast,
            "8 tables, 4-way, 4K entries: 16b tag + 4b counter + 7b distance + 2b LRU",
        ),
        (
            PredictorKind::Mascot,
            "8 tables, 4-way, 4K entries: 16b tag + 3b counter + 7b distance + 2b bypass",
        ),
        (
            PredictorKind::MascotOpt(0),
            "MASCOT-OPT: tables [1024,512,512,512,256,256,256,128], tags [15,16,16,16,17,17,17,18]",
        ),
        (
            PredictorKind::MascotOpt(4),
            "MASCOT-OPT with 4-bit tag reduction (the paper's 10.1 KiB point)",
        ),
    ];
    let mut t = TextTable::new(["predictor", "size (KiB)", "size (bits)", "fields"]);
    for (kind, desc) in kinds {
        let p = kind.build();
        t.row([
            kind.label().into_owned(),
            format!("{:.2}", p.storage_kib()),
            p.storage_bits().to_string(),
            desc.to_string(),
        ]);
    }
    println!(
        "== Table II — evaluated predictor configurations ==\n{}",
        t.render()
    );
    println!(
        "paper sizes: Store Sets 18.5 KB, NoSQ 19 KB, PHAST 14.5 KB, MASCOT 14 KB, \
         MASCOT-OPT 11.8 KiB, MASCOT-OPT(tag-4) 10.1 KiB"
    );
}
