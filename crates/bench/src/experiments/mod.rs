//! The paper's experiments, one module each, run in one process by the
//! `all_experiments` binary. Every experiment prints its tables to stdout
//! and takes the same [`Run`], so all of them share the process-wide trace
//! and sampling-prep caches.

use crate::Run;

mod ablations;
mod bottleneck;
mod counter_decay;
mod figure02;
mod figure07;
mod figure08;
mod figure09;
mod figure10;
mod figure11;
mod figure12;
mod figure13;
mod figure14;
mod figure15;
mod table01;
mod table02;
mod window_sweep;

/// One experiment: the name `all_experiments` selects it by and prints in
/// its header, and its body.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Selection name, also the module's name.
    pub name: &'static str,
    /// Prints the experiment's tables.
    pub run: fn(&Run),
}

/// Every experiment, in the paper's order; `all_experiments` with no
/// names runs them in this order.
pub const EXPERIMENTS: [Experiment; 16] = [
    Experiment {
        name: "table01",
        run: table01::run,
    },
    Experiment {
        name: "table02",
        run: table02::run,
    },
    Experiment {
        name: "counter_decay",
        run: counter_decay::run,
    },
    Experiment {
        name: "figure02",
        run: figure02::run,
    },
    Experiment {
        name: "figure07",
        run: figure07::run,
    },
    Experiment {
        name: "figure08",
        run: figure08::run,
    },
    Experiment {
        name: "figure09",
        run: figure09::run,
    },
    Experiment {
        name: "figure10",
        run: figure10::run,
    },
    Experiment {
        name: "figure11",
        run: figure11::run,
    },
    Experiment {
        name: "figure12",
        run: figure12::run,
    },
    Experiment {
        name: "figure13",
        run: figure13::run,
    },
    Experiment {
        name: "figure14",
        run: figure14::run,
    },
    Experiment {
        name: "figure15",
        run: figure15::run,
    },
    Experiment {
        name: "ablations",
        run: ablations::run,
    },
    Experiment {
        name: "window_sweep",
        run: window_sweep::run,
    },
    Experiment {
        name: "bottleneck",
        run: bottleneck::run,
    },
];

/// Parses `all_experiments`' arguments, `[NAME ...] [--sampled]`: the named
/// experiments in the order given (all of [`EXPERIMENTS`] when none is
/// named) and whether `--sampled` was passed.
///
/// # Errors
///
/// A message naming the unknown argument and listing the valid names.
pub fn parse_args<I>(args: I) -> Result<(Vec<Experiment>, bool), String>
where
    I: IntoIterator,
    I::Item: AsRef<str>,
{
    let mut sampled = false;
    let mut chosen = Vec::new();
    for arg in args {
        match arg.as_ref() {
            "--sampled" => sampled = true,
            name => match EXPERIMENTS.iter().find(|e| e.name == name) {
                Some(e) => chosen.push(*e),
                None => {
                    let valid: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
                    return Err(format!(
                        "unknown experiment `{name}`; valid names: {}",
                        valid.join(", ")
                    ));
                }
            },
        }
    }
    if chosen.is_empty() {
        chosen = EXPERIMENTS.to_vec();
    }
    Ok((chosen, sampled))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(experiments: &[Experiment]) -> Vec<&'static str> {
        experiments.iter().map(|e| e.name).collect()
    }

    #[test]
    fn experiments_are_unique_and_in_paper_order() {
        let expected = [
            "table01",
            "table02",
            "counter_decay",
            "figure02",
            "figure07",
            "figure08",
            "figure09",
            "figure10",
            "figure11",
            "figure12",
            "figure13",
            "figure14",
            "figure15",
            "ablations",
            "window_sweep",
            "bottleneck",
        ];
        assert_eq!(names(&EXPERIMENTS), expected);
        let unique: std::collections::HashSet<_> = expected.iter().collect();
        assert_eq!(unique.len(), expected.len());
    }

    #[test]
    fn no_names_selects_every_experiment_in_full_mode() {
        let (chosen, sampled) = parse_args(std::iter::empty::<&str>()).unwrap();
        assert_eq!(names(&chosen), names(&EXPERIMENTS));
        assert!(!sampled);
    }

    #[test]
    fn names_run_in_the_given_order_and_sampled_is_a_flag() {
        let (chosen, sampled) = parse_args(["figure12", "--sampled", "table01"]).unwrap();
        assert_eq!(names(&chosen), ["figure12", "table01"]);
        assert!(sampled);
        let (chosen, sampled) = parse_args(["--sampled"]).unwrap();
        assert_eq!(chosen.len(), EXPERIMENTS.len());
        assert!(sampled);
    }

    #[test]
    fn unknown_name_is_rejected_with_the_valid_names() {
        let err = parse_args(["figure07", "figure99"]).unwrap_err();
        assert!(err.contains("`figure99`"), "{err}");
        for e in &EXPERIMENTS {
            assert!(err.contains(e.name), "{err} lacks {}", e.name);
        }
    }
}
