//! Metric records, the printed table, and the JSON the run leaves behind.

use std::fmt::Write as _;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Context printed beside the value (median, slow tail, sample count).
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self {
            name,
            unit,
            value,
            note: String::new(),
        }
    }

    pub fn with_note(mut self, note: String) -> Self {
        self.note = note;
        self
    }
}

/// One workload's metrics, in the order they were measured.
pub struct Section {
    pub workload: &'static str,
    pub metrics: Vec<Metric>,
}

pub fn print_section(title: &str, s: &Section) {
    println!("\n{title}: {}", s.workload);
    for m in &s.metrics {
        println!(
            "  {:<22} {:>14.4} {:<7} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// A JSON number; a non-finite value (which no metric should produce) is
/// written as 0 so the line stays parseable, and reported on stderr.
fn number(name: &str, v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        eprintln!("warning: metric {name} is not finite ({v}); reported as 0");
        "0".into()
    }
}

/// The result line: metric names are bare for a one-workload run and
/// `<workload>.<metric>` when several workloads ran.
pub fn result_line(correct: bool, attempted: u64, failed: u64, sections: &[Section]) -> String {
    let prefixed = sections.len() > 1;
    let mut metrics = Vec::new();
    for s in sections {
        for m in &s.metrics {
            let key = if prefixed {
                format!("{}.{}", s.workload, m.name)
            } else {
                m.name.to_string()
            };
            metrics.push(format!(
                "\"{key}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                number(&key, m.value),
                m.unit
            ));
        }
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn group(out: &mut String, key: &str, sections: &[Section]) {
    let _ = writeln!(out, "  \"{key}\": {{");
    for (i, s) in sections.iter().enumerate() {
        let _ = writeln!(out, "    \"{}\": {{", s.workload);
        for (j, m) in s.metrics.iter().enumerate() {
            let _ = writeln!(
                out,
                "      \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"note\": \"{}\"}}{}",
                m.name,
                number(m.name, m.value),
                m.unit,
                escape(&m.note),
                if j + 1 < s.metrics.len() { "," } else { "" }
            );
        }
        let _ = writeln!(
            out,
            "    }}{}",
            if i + 1 < sections.len() { "," } else { "" }
        );
    }
    out.push_str("  },\n");
}

/// Every metric with its note, by kind and workload, for `result.json`.
pub fn result_file(
    seed: u64,
    seconds: f64,
    result_line: &str,
    end_to_end: &[Section],
    per_layer: &[Section],
) -> String {
    let mut out = format!("{{\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n");
    group(&mut out, "end_to_end", end_to_end);
    group(&mut out, "per_layer", per_layer);
    let _ = write!(out, "  \"result\": {result_line}\n}}\n");
    out
}
