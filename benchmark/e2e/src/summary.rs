//! Result sets of many runs: their quartiles and spread, and the
//! comparison of two sets against the bounds `BENCHMARK.json` declares.
//! A set is a directory holding one `<workload>.jsonl` per workload, one
//! result line per run.

use crate::stats;
use magic_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// One declared end-to-end metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The workloads and end-to-end gates `BENCHMARK.json` declares.
pub fn load_spec(path: &Path) -> Result<(Vec<String>, Vec<Gate>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let root = magic_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let array = |key: &str| {
        root[key]
            .as_array()
            .cloned()
            .ok_or(format!("{key} is not an array"))
    };
    let workloads = array("workloads")?
        .iter()
        .map(|w| {
            w["name"]
                .as_str()
                .map(str::to_string)
                .ok_or("workload without a name".to_string())
        })
        .collect::<Result<_, _>>()?;
    let gates = array("end_to_end")?
        .iter()
        .map(|m| {
            Ok(Gate {
                name: m["name"]
                    .as_str()
                    .ok_or("metric without a name")?
                    .to_string(),
                unit: m["unit"]
                    .as_str()
                    .ok_or("metric without a unit")?
                    .to_string(),
                lower_is_better: m["better"].as_str() == Some("lower"),
                bound: m["bound"].as_f64().ok_or("metric without a bound")?,
            })
        })
        .collect::<Result<_, &str>>()?;
    Ok((workloads, gates))
}

/// The runs of one workload in a set.
#[derive(Debug, Default)]
pub struct Runs {
    pub values: BTreeMap<String, Vec<f64>>,
    pub runs: usize,
    pub incorrect: usize,
}

pub fn load_runs(dir: &Path, workload: &str) -> Result<Runs, String> {
    let path = dir.join(format!("{workload}.jsonl"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs = Runs::default();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = magic_json::from_str(line).map_err(|e| format!("{}: {e}", path.display()))?;
        runs.runs += 1;
        if v["correct"].as_bool() != Some(true) || v["failed"].as_u64() != Some(0) {
            runs.incorrect += 1;
        }
        if let Value::Object(metrics) = &v["metrics"] {
            for (name, m) in metrics.iter() {
                if let Some(x) = m["value"].as_f64() {
                    runs.values.entry(name.to_string()).or_default().push(x);
                }
            }
        }
    }
    Ok(runs)
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    let change = (b - a) / a.abs();
    if lower_is_better {
        change
    } else {
        -change
    }
}

fn fmt_row(workload: &str, gate: &Gate, values: &[f64]) -> String {
    if values.len() < 2 {
        return format!(
            "{workload:<22} {:<18} n={} (quartiles need two runs)",
            gate.name,
            values.len()
        );
    }
    let [q1, q2, q3] = stats::quartiles(values);
    format!(
        "{workload:<22} {:<18} n={:<3} median {q2:>12.4} {:<5} q1 {q1:>12.4} q3 {q3:>12.4} spread {:>6.2}% (bound {:.0}%)",
        gate.name,
        values.len(),
        gate.unit,
        100.0 * stats::spread(values),
        100.0 * gate.bound
    )
}

/// Prints the quartiles and spread of every gated metric in a set.
/// Fails when a run was incorrect or a spread exceeds its bound.
pub fn summarize(spec: &Path, dir: &Path) -> Result<bool, String> {
    let (workloads, gates) = load_spec(spec)?;
    let mut ok = true;
    for workload in &workloads {
        let runs = load_runs(dir, workload)?;
        if runs.incorrect > 0 {
            println!(
                "{workload}: {} of {} run(s) failed their checks",
                runs.incorrect, runs.runs
            );
            ok = false;
        }
        for gate in &gates {
            let values = runs.values.get(&gate.name).cloned().unwrap_or_default();
            println!("{}", fmt_row(workload, gate, &values));
            // Set-up time is reported, not gated on its spread.
            if gate.name != "setup_s" && values.len() >= 2 && stats::spread(&values) > gate.bound {
                println!("  ^ spread exceeds the bound");
                ok = false;
            }
        }
    }
    Ok(ok)
}

/// Compares set `b` against set `a`: fails when any gated median of `b`
/// is worse than `a`'s by more than the metric's bound.
pub fn compare(spec: &Path, a: &Path, b: &Path) -> Result<bool, String> {
    let (workloads, gates) = load_spec(spec)?;
    let mut ok = true;
    for workload in &workloads {
        let (ra, rb) = (load_runs(a, workload)?, load_runs(b, workload)?);
        if ra.incorrect + rb.incorrect > 0 {
            println!(
                "{workload}: incorrect runs (a: {}, b: {})",
                ra.incorrect, rb.incorrect
            );
            ok = false;
        }
        for gate in &gates {
            let va = ra.values.get(&gate.name).cloned().unwrap_or_default();
            let vb = rb.values.get(&gate.name).cloned().unwrap_or_default();
            if va.len() < 2 || vb.len() < 2 {
                println!(
                    "{workload:<22} {:<18} missing runs (a: {}, b: {})",
                    gate.name,
                    va.len(),
                    vb.len()
                );
                ok = false;
                continue;
            }
            let (ma, mb) = (stats::quartiles(&va)[1], stats::quartiles(&vb)[1]);
            let worse = worsening(ma, mb, gate.lower_is_better);
            let verdict = if worse > gate.bound { "WORSE" } else { "ok" };
            ok &= worse <= gate.bound;
            println!(
                "{workload:<22} {:<18} a {ma:>12.4} b {mb:>12.4} {:<5} change {:>+7.2}% worse-by {:>+7.2}% (bound {:.0}%) spread a {:.2}% b {:.2}%  {verdict}",
                gate.name,
                gate.unit,
                100.0 * (mb - ma) / ma.abs(),
                100.0 * worse,
                100.0 * gate.bound,
                100.0 * stats::spread(&va),
                100.0 * stats::spread(&vb),
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(10.0, 11.0, true) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, false) + 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, false) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn spec_declares_every_workload_the_binary_runs() {
        let spec = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
        let (workloads, gates) = load_spec(&spec).unwrap();
        assert_eq!(workloads, crate::WORKLOADS);
        assert!(gates.iter().all(|g| g.bound > 0.0 && g.bound <= 0.25));
        let setup = gates
            .iter()
            .find(|g| g.name == "setup_s")
            .expect("setup_s is gated");
        assert!(setup.lower_is_better && setup.unit == "s");
        assert!(
            gates.iter().all(|g| g.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }
}
