//! `ledger compare <A> <B>`: medians per (workload, metric) of two sets of
//! result files, judged against the bounds in `BENCHMARK.json`; and
//! `ledger baseline`, which folds a set into one file per workload.
//!
//! A set is a directory of `<workload>.<anything>.json` files, each either
//! one run's result line (as `ledger --workload …` prints it last) or a
//! baseline file written by `ledger baseline` (which keeps every sample).

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use crate::json::{self, Json};
use crate::report::{END_TO_END, WORKLOADS};
use crate::stats::{median, spread};

/// Samples per `(workload, metric)`, and each metric's unit.
#[derive(Default, Debug)]
pub struct Set {
    pub samples: BTreeMap<(String, String), Vec<f64>>,
    pub units: BTreeMap<String, String>,
}

impl Set {
    /// Adds one result or baseline document for `workload`.
    pub fn add(&mut self, workload: &str, doc: &Json) -> Result<(), String> {
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("no \"metrics\" object")?;
        for (name, m) in metrics {
            let values: Vec<f64> = match m.get("samples").and_then(Json::as_arr) {
                Some(all) => all.iter().filter_map(Json::as_f64).collect(),
                None => m.get("value").and_then(Json::as_f64).into_iter().collect(),
            };
            self.samples
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .extend(values);
            if let Some(unit) = m.get("unit").and_then(Json::as_str) {
                self.units.insert(name.clone(), unit.to_string());
            }
        }
        Ok(())
    }

    pub fn load(dir: &Path) -> Result<Set, String> {
        let mut set = Set::default();
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        paths.sort();
        for path in paths {
            let stem = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            let workload = stem.split('.').next().unwrap_or("");
            if !WORKLOADS.contains(&workload) {
                continue;
            }
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            // A saved run may hold the metric lines too; the result is the
            // last line. A baseline file is one (pretty-printed) document.
            let doc = json::parse(&text).or_else(|_| {
                json::parse(
                    text.lines()
                        .rev()
                        .find(|l| !l.trim().is_empty())
                        .unwrap_or(""),
                )
            });
            let doc = doc.map_err(|e| format!("{}: {e}", path.display()))?;
            set.add(workload, &doc)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        if set.samples.is_empty() {
            return Err(format!("{}: no result files", dir.display()));
        }
        Ok(set)
    }
}

/// Where the bounds live, relative to the repository root.
const SPEC: &str = "BENCHMARK.json";

/// An end-to-end metric's rule, from `BENCHMARK.json`.
#[derive(Clone, Copy, Debug)]
pub struct Rule {
    pub bound: f64,
    pub higher_is_better: bool,
}

pub fn rules(spec: &Json) -> Result<BTreeMap<String, Rule>, String> {
    let list = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("spec has no \"end_to_end\" list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .ok_or("metric without a direction")?;
            Ok((
                name.to_string(),
                Rule {
                    bound,
                    higher_is_better: better == "higher",
                },
            ))
        })
        .collect()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread is wider than the bound: no call either way.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug)]
pub struct Row {
    pub median_a: f64,
    pub median_b: f64,
    /// By how much B is worse than A, as a share of A's median (negative:
    /// better).
    pub worse_by: f64,
    /// The wider of the two sets' quartile spreads.
    pub spread: f64,
    pub verdict: Verdict,
}

pub fn judge(a: &[f64], b: &[f64], rule: Rule) -> Row {
    let (median_a, median_b) = (median(a), median(b));
    let change = if median_a == 0.0 {
        if median_b == 0.0 {
            0.0
        } else {
            f64::INFINITY.copysign(median_b)
        }
    } else {
        (median_b - median_a) / median_a.abs()
    };
    let worse_by = if rule.higher_is_better {
        -change
    } else {
        change
    };
    let noise = spread(a).max(spread(b));
    let verdict = if worse_by > rule.bound && worse_by > noise {
        Verdict::Worse
    } else if noise > rule.bound {
        Verdict::Unresolved
    } else if -worse_by > rule.bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    Row {
        median_a,
        median_b,
        worse_by,
        spread: noise,
        verdict,
    }
}

/// `sparse128.op_p50_ms / (2 × cluster128x2.op_p50_ms)`: how much of the
/// second rank's worth of speed-up the cluster run keeps.
pub fn scaling_eff(set: &Set) -> Option<f64> {
    let p50 = |w: &str| {
        set.samples
            .get(&(w.to_string(), "op_p50_ms".to_string()))
            .filter(|v| !v.is_empty())
            .map(|v| median(v))
    };
    Some(p50("sparse128")? / (2.0 * p50("cluster128x2")?))
}

/// Prints the comparison; returns how many rows are worse.
pub fn report(a: &Set, b: &Set, rules: &BTreeMap<String, Rule>) -> usize {
    let mut worse = 0;
    println!(
        "{:<13} {:<24} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "B worse", "spread", "bound"
    );
    let pct = |v: f64| format!("{:+.2}%", v * 100.0);
    for workload in WORKLOADS {
        for (metric, _) in END_TO_END {
            let key = (workload.to_string(), metric.to_string());
            let (Some(va), Some(vb), Some(rule)) =
                (a.samples.get(&key), b.samples.get(&key), rules.get(metric))
            else {
                continue;
            };
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let row = judge(va, vb, *rule);
            worse += usize::from(row.verdict == Verdict::Worse);
            println!(
                "{workload:<13} {metric:<24} {:>14.6} {:>14.6} {:>9} {:>8} {:>6}  {}",
                row.median_a,
                row.median_b,
                pct(row.worse_by),
                pct(row.spread),
                pct(rule.bound),
                row.verdict.word()
            );
        }
    }
    // Per-layer rows carry no bound and get no verdict.
    let layer_keys: Vec<&(String, String)> = a
        .samples
        .keys()
        .filter(|k| !rules.contains_key(&k.1) && b.samples.contains_key(*k))
        .collect();
    if !layer_keys.is_empty() {
        println!("\nper-layer (no bound, no verdict; change is B over A):");
        for workload in WORKLOADS {
            for key in layer_keys.iter().filter(|k| k.0 == workload) {
                let (ma, mb) = (median(&a.samples[*key]), median(&b.samples[*key]));
                if ma == 0.0 && mb == 0.0 {
                    continue;
                }
                let unit = a.units.get(&key.1).map_or("", String::as_str);
                println!(
                    "{workload:<13} {:<30} {ma:>14.6} {mb:>14.6} {:>9} {unit}",
                    key.1,
                    if ma == 0.0 {
                        "n/a".to_string()
                    } else {
                        pct((mb - ma) / ma.abs())
                    }
                );
            }
        }
    }
    for (label, set) in [("A", a), ("B", b)] {
        if let Some(eff) = scaling_eff(set) {
            println!(
                "pair          comm.scaling_eff ({label}) = sparse128.op_p50_ms / (2 x cluster128x2.op_p50_ms) = {eff:.4}"
            );
        }
    }
    worse
}

/// `ledger compare <dir A> <dir B>`, with the bounds of the `BENCHMARK.json`
/// in the current directory.
pub fn main(args: &[String]) -> ExitCode {
    let [dir_a, dir_b] = args else {
        return fail("usage: ledger compare <dir A> <dir B>");
    };
    let loaded = std::fs::read_to_string(SPEC)
        .map_err(|e| format!("{SPEC}: {e}"))
        .and_then(|t| json::parse(&t))
        .and_then(|spec| rules(&spec))
        .and_then(|rules| {
            Ok((
                Set::load(Path::new(dir_a))?,
                Set::load(Path::new(dir_b))?,
                rules,
            ))
        });
    match loaded {
        Ok((a, b, rules)) => {
            let worse = report(&a, &b, &rules);
            if worse > 0 {
                eprintln!("{worse} pairing(s) worse than the bound allows");
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => fail(&e),
    }
}

fn fail(why: &str) -> ExitCode {
    eprintln!("ledger: {why}");
    ExitCode::from(2)
}

/// `ledger spread <dir>`: for one set, each end-to-end metric's quartile
/// spread as a share of its median — what a bound has to stay above.
pub fn spread_main(args: &[String]) -> ExitCode {
    let [dir] = args else {
        return fail("usage: ledger spread <dir of result files>");
    };
    let set = match Set::load(Path::new(dir)) {
        Ok(set) => set,
        Err(e) => return fail(&e),
    };
    println!(
        "{:<13} {:<24} {:>5} {:>14} {:>8}",
        "workload", "metric", "runs", "median", "spread"
    );
    for workload in WORKLOADS {
        for (metric, _) in END_TO_END {
            if let Some(v) = set.samples.get(&(workload.to_string(), metric.to_string())) {
                println!(
                    "{workload:<13} {metric:<24} {:>5} {:>14.6} {:>7.2}%",
                    v.len(),
                    median(v),
                    spread(v) * 100.0
                );
            }
        }
    }
    ExitCode::SUCCESS
}

/// One baseline document: per metric the median, the unit and every sample.
pub fn baseline_doc(set: &Set, workload: &str) -> String {
    let mut rows = Vec::new();
    for ((w, metric), values) in &set.samples {
        if w != workload || values.is_empty() {
            continue;
        }
        let samples: Vec<String> = values.iter().map(|v| json::number(*v)).collect();
        rows.push(format!(
            "    {}: {{\"value\": {}, \"unit\": {}, \"samples\": [{}]}}",
            json::quote(metric),
            json::number(median(values)),
            json::quote(set.units.get(metric).map_or("", String::as_str)),
            samples.join(", ")
        ));
    }
    format!(
        "{{\n  \"workload\": {},\n  \"metrics\": {{\n{}\n  }}\n}}\n",
        json::quote(workload),
        rows.join(",\n")
    )
}

pub fn baseline_main(args: &[String]) -> ExitCode {
    let [from, to] = args else {
        return fail("usage: ledger baseline <dir of result files> <out dir>");
    };
    let written = Set::load(Path::new(from)).and_then(|set| {
        std::fs::create_dir_all(to).map_err(|e| format!("{to}: {e}"))?;
        for workload in WORKLOADS {
            if set.samples.keys().any(|k| k.0 == workload) {
                let path = Path::new(to).join(format!("{workload}.json"));
                std::fs::write(&path, baseline_doc(&set, workload))
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                println!("wrote {}", path.display());
            }
        }
        Ok(())
    });
    match written {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Rule = Rule {
        bound: 0.10,
        higher_is_better: false,
    };
    const HIGHER: Rule = Rule {
        bound: 0.10,
        higher_is_better: true,
    };

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0];
        let scale = |f: f64| steady.map(|v| v * f);
        assert_eq!(judge(&steady, &scale(1.05), LOWER).verdict, Verdict::Same);
        assert_eq!(judge(&steady, &scale(1.2), LOWER).verdict, Verdict::Worse);
        assert_eq!(judge(&steady, &scale(0.8), LOWER).verdict, Verdict::Better);
        // The same moves read the other way for a higher-is-better metric.
        assert_eq!(judge(&steady, &scale(1.2), HIGHER).verdict, Verdict::Better);
        assert_eq!(judge(&steady, &scale(0.8), HIGHER).verdict, Verdict::Worse);
        let row = judge(&steady, &scale(0.8), HIGHER);
        assert!((row.worse_by - 0.2).abs() < 1e-9);

        // A spread wider than the bound leaves a small move unresolved …
        let noisy = [80.0, 120.0, 95.0, 105.0, 70.0, 130.0];
        assert_eq!(
            judge(&noisy, &noisy.map(|v| v * 1.05), LOWER).verdict,
            Verdict::Unresolved
        );
        assert_eq!(judge(&noisy, &noisy, LOWER).verdict, Verdict::Unresolved);
        // … but not a move that is larger than the noise itself.
        assert_eq!(
            judge(&noisy, &noisy.map(|v| v * 3.0), LOWER).verdict,
            Verdict::Worse
        );
    }

    #[test]
    fn exact_counts_use_a_zero_width_bound() {
        let exact = Rule {
            bound: 0.0,
            higher_is_better: false,
        };
        assert_eq!(
            judge(&[840.0; 3], &[840.0; 3], exact).verdict,
            Verdict::Same
        );
        assert_eq!(
            judge(&[840.0; 3], &[841.0; 3], exact).verdict,
            Verdict::Worse
        );
        assert_eq!(
            judge(&[840.0; 3], &[839.0; 3], exact).verdict,
            Verdict::Better
        );
        // Single samples have no spread to speak of.
        assert_eq!(judge(&[1.0], &[1.0], LOWER).verdict, Verdict::Same);
    }

    fn run_doc(p50: f64) -> Json {
        json::parse(&format!(
            r#"{{"correct": true, "attempted": 3, "failed": 0, "metrics":
               {{"op_p50_ms": {{"value": {p50}, "unit": "ms"}},
                 "core.accumulate_s": {{"value": 0.3, "unit": "s"}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn sets_pool_runs_and_baselines_round_trip() {
        let mut set = Set::default();
        for v in [600.0, 620.0, 610.0] {
            set.add("sparse128", &run_doc(v)).unwrap();
        }
        for v in [320.0, 330.0, 310.0] {
            set.add("cluster128x2", &run_doc(v)).unwrap();
        }
        let key = ("sparse128".to_string(), "op_p50_ms".to_string());
        assert_eq!(set.samples[&key], vec![600.0, 620.0, 610.0]);
        assert_eq!(set.units["op_p50_ms"], "ms");
        let eff = scaling_eff(&set).unwrap();
        assert!((eff - 610.0 / 640.0).abs() < 1e-12);

        // A baseline keeps every sample, so loading it gives the same set.
        let doc = json::parse(&baseline_doc(&set, "sparse128")).unwrap();
        let mut again = Set::default();
        again.add("sparse128", &doc).unwrap();
        assert_eq!(again.samples[&key], set.samples[&key]);
        let m = doc.get("metrics").and_then(|m| m.get("op_p50_ms")).unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(610.0));
        assert!(Set::default().add("sparse128", &Json::Null).is_err());
    }

    #[test]
    fn rules_come_from_the_spec_and_report_counts_worse_rows() {
        let spec = json::parse(
            r#"{"end_to_end": [
                {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
                {"name": "throughput_ops_s", "unit": "ops/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        let rules = rules(&spec).unwrap();
        assert!(!rules["op_p50_ms"].higher_is_better && rules["throughput_ops_s"].higher_is_better);
        let (mut a, mut b) = (Set::default(), Set::default());
        for v in [600.0, 605.0, 610.0] {
            a.add("sparse128", &run_doc(v)).unwrap();
            b.add("sparse128", &run_doc(v * 1.3)).unwrap();
        }
        assert_eq!(report(&a, &a, &rules), 0);
        assert_eq!(report(&a, &b, &rules), 1);
        assert!(super::rules(&Json::Null).is_err());
    }
}
