//! Plain-text report formatting shared by the benchmark targets.

use std::time::Duration;

/// Prints a top-level experiment heading.
pub fn heading(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Prints a sub-heading.
pub fn subheading(title: &str) {
    println!();
    println!("--- {title} ---");
}

/// Formats a duration in seconds with 3 decimals (the paper reports
/// seconds).
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Formats a ratio as `N.NNx`.
pub fn speedup(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats a large count with thousands separators.
pub fn count(n: usize) -> String {
    let s = n.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Formats a byte count with a binary unit suffix.
pub fn bytes(n: usize) -> String {
    const UNITS: [&str; 4] = ["B", "KiB", "MiB", "GiB"];
    let mut v = n as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit + 1 < UNITS.len() {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{n} B")
    } else {
        format!("{v:.1} {}", UNITS[unit])
    }
}

/// A fixed-width text table writer.
pub struct Table {
    widths: Vec<usize>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        let mut t = Table {
            widths: headers.iter().map(|h| h.len()).collect(),
            rows: Vec::new(),
        };
        t.push(headers.iter().map(|s| s.to_string()).collect());
        t
    }

    /// Adds one row; panics if the column count mismatches.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.widths.len(), "column count mismatch");
        self.push(cells);
    }

    fn push(&mut self, cells: Vec<String>) {
        for (w, c) in self.widths.iter_mut().zip(&cells) {
            *w = (*w).max(c.len());
        }
        self.rows.push(cells);
    }

    /// Prints the table with a separator under the header.
    pub fn print(&self) {
        for (i, row) in self.rows.iter().enumerate() {
            let line: Vec<String> = row
                .iter()
                .zip(&self.widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            println!("  {}", line.join("  "));
            if i == 0 {
                let sep: Vec<String> = self.widths.iter().map(|w| "-".repeat(*w)).collect();
                println!("  {}", sep.join("  "));
            }
        }
    }
}

/// A JSON scalar for [`JsonReport`] rows. Hand-rolled (no serde in the
/// dependency closure): benches only need flat records of strings and
/// numbers.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// A string, escaped on output.
    Str(String),
    /// A float, printed with enough digits to round-trip.
    Num(f64),
    /// An unsigned integer, printed exactly.
    Int(u64),
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::Str(s)
    }
}
impl From<f64> for JsonValue {
    fn from(x: f64) -> Self {
        JsonValue::Num(x)
    }
}
impl From<u64> for JsonValue {
    fn from(n: u64) -> Self {
        JsonValue::Int(n)
    }
}
impl From<usize> for JsonValue {
    fn from(n: usize) -> Self {
        JsonValue::Int(n as u64)
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl JsonValue {
    fn render(&self) -> String {
        match self {
            JsonValue::Str(s) => format!("\"{}\"", json_escape(s)),
            JsonValue::Num(x) if x.is_finite() => {
                // Shortest representation that round-trips through f64.
                let short = format!("{x}");
                if short.parse::<f64>() == Ok(*x) {
                    short
                } else {
                    format!("{x:e}")
                }
            }
            // JSON has no NaN/Infinity; null is the conventional stand-in.
            JsonValue::Num(_) => "null".to_string(),
            JsonValue::Int(n) => n.to_string(),
        }
    }
}

/// A machine-readable benchmark baseline: named metadata plus a list of
/// flat records, serialized as pretty-printed JSON. Committed baselines
/// (e.g. `BENCH_fig9.json`) let later PRs diff quick-mode numbers without
/// re-parsing the text tables.
pub struct JsonReport {
    name: String,
    meta: Vec<(String, JsonValue)>,
    rows: Vec<Vec<(String, JsonValue)>>,
}

impl JsonReport {
    /// Starts a report labeled `name` (stored under the `"bench"` key).
    pub fn new(name: &str) -> Self {
        JsonReport {
            name: name.to_string(),
            meta: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Attaches a top-level metadata field (scale, date, config, ...).
    pub fn meta(&mut self, key: &str, value: impl Into<JsonValue>) -> &mut Self {
        self.meta.push((key.to_string(), value.into()));
        self
    }

    /// Appends one flat record.
    pub fn row(&mut self, fields: Vec<(&str, JsonValue)>) -> &mut Self {
        self.rows.push(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        );
        self
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"bench\": \"{}\",\n", json_escape(&self.name)));
        for (k, v) in &self.meta {
            out.push_str(&format!("  \"{}\": {},\n", json_escape(k), v.render()));
        }
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let fields: Vec<String> = row
                .iter()
                .map(|(k, v)| format!("\"{}\": {}", json_escape(k), v.render()))
                .collect();
            out.push_str(&format!(
                "    {{{}}}{}\n",
                fields.join(", "),
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the report to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }
}

/// Parses the flat `"rows"` records of a committed [`JsonReport`] baseline
/// back into key → raw-value maps, so benches can diff fresh numbers against
/// the committed file without a JSON dependency. The inverse of
/// [`JsonReport::render`]'s row format only: one `{...}` object per line,
/// string values unescaped of `\"` and `\\`, numbers kept as their source
/// text (parse at the use site).
pub fn parse_json_rows(text: &str) -> Vec<std::collections::BTreeMap<String, String>> {
    let mut rows = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(body) = line.strip_prefix('{').and_then(|l| l.strip_suffix('}')) else {
            continue;
        };
        // Split on top-level commas, respecting string quoting.
        let mut fields = Vec::new();
        let (mut start, mut in_str, mut escaped) = (0usize, false, false);
        for (i, c) in body.char_indices() {
            match c {
                _ if escaped => escaped = false,
                '\\' if in_str => escaped = true,
                '"' => in_str = !in_str,
                ',' if !in_str => {
                    fields.push(&body[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
        }
        fields.push(&body[start..]);
        let mut row = std::collections::BTreeMap::new();
        for f in fields {
            let Some((k, v)) = f.split_once(':') else {
                continue;
            };
            let key = k.trim().trim_matches('"').to_string();
            let v = v.trim();
            let value = match v.strip_prefix('"').and_then(|v| v.strip_suffix('"')) {
                Some(s) => s.replace("\\\"", "\"").replace("\\\\", "\\"),
                None => v.to_string(),
            };
            row.insert(key, value);
        }
        rows.push(row);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_formats_thousands() {
        assert_eq!(count(5), "5");
        assert_eq!(count(1234), "1,234");
        assert_eq!(count(1_234_567), "1,234,567");
    }

    #[test]
    fn secs_formats() {
        assert_eq!(secs(Duration::from_millis(1500)), "1.500");
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn table_checks_columns() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn json_report_renders_and_parses_shapes() {
        let mut r = JsonReport::new("fig9");
        r.meta("scale", 0.1).meta("workers", 48usize);
        r.row(vec![
            ("workload", "PR \"quoted\"".into()),
            ("speedup", 1.5.into()),
            ("messages", 1234usize.into()),
        ]);
        r.row(vec![("workload", "SSSP".into()), ("speedup", 2.0.into())]);
        let s = r.render();
        assert!(s.starts_with("{\n  \"bench\": \"fig9\""));
        assert!(s.contains("\"scale\": 0.1"));
        assert!(s.contains("\"workload\": \"PR \\\"quoted\\\"\""));
        assert!(s.contains("\"messages\": 1234"));
        assert!(s.trim_end().ends_with('}'));
        // Balanced braces/brackets — cheap structural sanity without a parser.
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    #[test]
    fn parse_json_rows_round_trips_a_report() {
        let mut r = JsonReport::new("fig9");
        r.meta("scale", 0.1);
        r.row(vec![
            ("workload", "PR \"quoted\", yes".into()),
            ("speedup", 1.5.into()),
            ("messages", 1234usize.into()),
        ]);
        r.row(vec![("workload", "SSSP".into()), ("speedup", 2.0.into())]);
        let rows = parse_json_rows(&r.render());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0]["workload"], "PR \"quoted\", yes");
        assert_eq!(rows[0]["speedup"].parse::<f64>().unwrap(), 1.5);
        assert_eq!(rows[0]["messages"].parse::<u64>().unwrap(), 1234);
        assert_eq!(rows[1]["workload"], "SSSP");
    }

    #[test]
    fn json_value_handles_non_finite_floats() {
        assert_eq!(JsonValue::Num(f64::NAN).render(), "null");
        assert_eq!(JsonValue::Num(0.1).render(), "0.1");
        assert_eq!(JsonValue::Int(u64::MAX).render(), u64::MAX.to_string());
    }
}
