//! Result persistence: every experiment binary writes a JSON record under
//! `results/` so EXPERIMENTS.md can cite machine-generated numbers.

use magic_metrics::ScoreReport;
use magic_json::{json, Value};
use std::path::PathBuf;

/// Directory where experiment outputs are stored (relative to the
/// workspace root).
pub fn results_dir() -> PathBuf {
    // Under cargo, CARGO_MANIFEST_DIR = crates/bench and results/ lives
    // two levels up at the repo root. When the binary is invoked
    // directly, fall back to ./results relative to the working directory.
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(manifest) => PathBuf::from(manifest).join("../../results"),
        Err(_) => PathBuf::from("results"),
    }
}

/// Serializes a [`ScoreReport`] to JSON.
pub fn report_to_json(report: &ScoreReport) -> Value {
    json!({
        "accuracy": report.accuracy,
        "macro_f1": report.macro_f1,
        "log_loss": report.log_loss,
        "classes": report.classes.iter().map(|c| json!({
            "name": c.name,
            "precision": c.precision,
            "recall": c.recall,
            "f1": c.f1,
            "support": c.support,
        })).collect::<Vec<_>>(),
    })
}

/// Writes `value` to `results/<name>.json`, creating the directory if
/// needed. Prints the destination so the run is self-documenting.
pub fn write_result(name: &str, value: &Value) {
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match std::fs::write(&path, magic_json::to_string_pretty(value)) {
        Ok(()) => println!("\nresult written to {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Renders a crude horizontal bar (for the figure binaries' terminal
/// output).
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let filled = ((value / max).clamp(0.0, 1.0) * width as f64).round() as usize;
    let mut s = String::with_capacity(width);
    for i in 0..width {
        s.push(if i < filled { '#' } else { '.' });
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use magic_metrics::ConfusionMatrix;

    #[test]
    fn report_json_has_expected_fields() {
        let mut cm = ConfusionMatrix::new(2);
        cm.record(0, 0);
        cm.record(1, 0);
        let report = ScoreReport::from_confusion(&cm, &["A".into(), "B".into()]);
        let v = report_to_json(&report);
        assert!(v["accuracy"].as_f64().is_some());
        assert_eq!(v["classes"].as_array().unwrap().len(), 2);
        assert_eq!(v["classes"][0]["name"], "A");
    }

    #[test]
    fn bar_renders_proportionally() {
        assert_eq!(bar(0.5, 1.0, 10), "#####.....");
        assert_eq!(bar(2.0, 1.0, 4), "####");
        assert_eq!(bar(0.0, 1.0, 3), "...");
    }
}
