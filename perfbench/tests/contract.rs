//! Tests of the benchmark's own parts: `BENCHMARK.json` agrees with the
//! metric registry, every declared metric is printed by every workload,
//! and the predictor wrapper is a pure pass-through.

use std::collections::BTreeMap;

use mascot_predictors::PredictorKind;
use mascot_sim::{CoreConfig, Simulator};
use mascot_workloads::{generate, spec};
use perfbench::metrics::{valid_name, MetricSpec, END_TO_END, PER_LAYER};
use perfbench::traced::Traced;
use perfbench::{run_workload, RunCfg, WORKLOADS};

/// A parsed JSON value (enough of JSON for `BENCHMARK.json` and the
/// benchmark's result line).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            other => panic!("not an object: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing characters");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i] as char, c as char, "at byte {}", self.i);
        self.i += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.i;
        while self.s[self.i] != b'"' {
            assert_ne!(self.s[self.i], b'\\', "escapes are not used");
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8")
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    let k = self.string();
                    self.eat(b':');
                    assert!(
                        m.insert(k.clone(), self.value()).is_none(),
                        "duplicate key {k}"
                    );
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.0123456789eE".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
}

fn assert_matches_registry(declared: &[Json], registry: &[MetricSpec], with_bound: bool) {
    assert_eq!(declared.len(), registry.len(), "metric count");
    for (d, spec) in declared.iter().zip(registry) {
        let keys: Vec<&str> = d.obj().keys().map(String::as_str).collect();
        let expected: &[&str] = if with_bound {
            &["better", "bound", "name", "unit"]
        } else {
            &["better", "name", "unit"]
        };
        assert_eq!(keys, expected, "keys of {}", spec.name);
        assert_eq!(d.get("name").str(), spec.name);
        assert_eq!(d.get("unit").str(), spec.unit, "unit of {}", spec.name);
        assert_eq!(
            d.get("better").str(),
            spec.better.as_str(),
            "direction of {}",
            spec.name
        );
        if with_bound {
            match d.get("bound") {
                Json::Num(b) => assert!(*b > 0.0 && *b <= 0.25, "bound of {}", spec.name),
                other => panic!("bound of {} is {other:?}", spec.name),
            }
        }
    }
}

#[test]
fn benchmark_json_matches_the_registry() {
    let b = benchmark_json();
    assert_matches_registry(b.get("end_to_end").arr(), END_TO_END, true);
    assert_matches_registry(b.get("per_layer").arr(), PER_LAYER, false);
    let workloads: Vec<&str> = b
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let setup = b
        .get("end_to_end")
        .arr()
        .iter()
        .find(|m| m.get("name").str() == "setup_s")
        .expect("setup_s is declared");
    let bounds: Vec<f64> = b
        .get("end_to_end")
        .arr()
        .iter()
        .map(|m| match m.get("bound") {
            Json::Num(x) => *x,
            _ => unreachable!(),
        })
        .collect();
    assert_eq!(
        setup.get("bound"),
        &Json::Num(bounds.iter().copied().fold(0.0, f64::max))
    );
}

#[test]
fn declared_names_follow_the_name_rule() {
    let b = benchmark_json();
    for section in ["workloads", "end_to_end", "per_layer"] {
        for entry in b.get(section).arr() {
            let name = entry.get("name").str();
            assert!(valid_name(name), "{section}: {name}");
        }
    }
}

/// Runs every workload at a tiny size in both modes and checks that the
/// result line carries exactly the metrics `BENCHMARK.json` declares.
#[test]
fn every_declared_metric_is_printed() {
    let b = benchmark_json();
    for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let declared: Vec<&str> = b
            .get(section)
            .arr()
            .iter()
            .map(|m| m.get("name").str())
            .collect();
        for workload in WORKLOADS {
            let cfg = RunCfg {
                seed: 7,
                seconds: 0.0,
                traced,
                uops: Some(12_000),
            };
            let (mut report, _) = run_workload(workload, &cfg).expect("known workload");
            let result = Parser::parse(&report.result_json(traced));
            assert_eq!(
                result.get("correct"),
                &Json::Bool(true),
                "{workload}: {:?}",
                report.failures
            );
            let printed: Vec<&str> = result
                .get("metrics")
                .obj()
                .keys()
                .map(String::as_str)
                .collect();
            let mut expected = declared.clone();
            expected.sort_unstable();
            assert_eq!(printed, expected, "{workload}, trace {traced}");
            if !traced {
                for (name, m) in result.get("metrics").obj() {
                    assert!(
                        matches!(m.get("value"), Json::Num(v) if *v > 0.0),
                        "{workload}: end-to-end {name} must never be 0"
                    );
                }
            }
        }
    }
}

#[test]
fn unknown_workload_is_rejected() {
    let cfg = RunCfg {
        seed: 1,
        seconds: 0.0,
        traced: false,
        uops: Some(1_000),
    };
    assert!(run_workload("no-such-workload", &cfg).is_none());
}

/// The timing wrapper must not change a single simulated statistic.
#[test]
fn wrapper_is_a_pure_pass_through() {
    let core = CoreConfig::golden_cove();
    for (bench, kind) in [
        ("perlbench2", PredictorKind::Mascot),
        ("mcf", PredictorKind::StoreSets),
    ] {
        let trace = generate(&spec::profile(bench).expect("known profile"), 3, 20_000);
        let mut direct = kind.build();
        let plain = Simulator::new(&trace, &core, &mut direct).run();
        let mut wrapped = Traced::new(kind.build());
        let traced = Simulator::new(&trace, &core, &mut wrapped).run();
        assert_eq!(plain, traced, "{bench} under {kind:?}");
        let calls = wrapped.calls();
        assert!(calls.predict.count > 0 && calls.train.count > 0 && calls.history.count > 0);
        assert!(calls.total_ns() > 0);
    }
}
