//! Named metrics with units, printed as text and as the final JSON line.

use crate::stats::Pct;

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

/// An ordered set of named metrics.
#[derive(Default)]
pub struct Metrics {
    list: Vec<Metric>,
}

impl Metrics {
    /// A metric with a free-form note printed beside it.
    pub fn push_noted(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        let (value, note) = if value.is_finite() {
            (value, note)
        } else {
            (0.0, format!("not measured (no successful sample) {note}"))
        };
        self.list.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note,
        });
    }

    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push_noted(name, value, unit, String::new());
    }

    /// A median, with the number of samples it was taken over.
    pub fn push_counted(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.push_noted(name, value, unit, format!("(median of {n})"));
    }

    /// An exact percentile with its sample count. One with fewer than
    /// ten samples beyond it is not reported: it reads 0 and the text
    /// output marks it.
    pub fn push_pct(&mut self, name: &str, pct: Pct, unit: &'static str) {
        match pct.value {
            Some(v) => self.push_noted(name, v, unit, format!("(n={})", pct.n)),
            None => self.push_noted(
                name,
                0.0,
                unit,
                format!("(n={}: n/a, fewer than ten samples beyond)", pct.n),
            ),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.list.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// One aligned line per metric.
    pub fn text(&self) -> String {
        self.list
            .iter()
            .map(|m| {
                format!(
                    "  {:<30} {:>16} {:<12} {}\n",
                    m.name,
                    fmt_value(m.value),
                    m.unit,
                    m.note
                )
            })
            .collect()
    }

    /// JSON members `"name": {"value": v, "unit": u}` for the listed
    /// `(name, unit)` metrics, in the listed order, each name prefixed by
    /// `prefix`. A metric a failed run could not record reads 0.
    pub fn json_members(&self, names: &[(&str, &str)], prefix: &str) -> Vec<String> {
        names
            .iter()
            .map(|&(name, unit)| {
                let value = self.get(name).unwrap_or(0.0);
                format!("\"{prefix}{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect()
    }
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
