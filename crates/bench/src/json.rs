//! Minimal JSON writing/scanning helpers for benchmark baselines.
//!
//! The build is offline (no JSON crate), and the only JSON this workspace
//! handles is machine-written benchmark baselines (`BENCH_*.json`): flat
//! objects plus one array of flat row objects. [`JsonObject`] writes that
//! shape; [`scan_f64_field`] pulls a numeric field back out of a file this
//! module wrote — a field scan is sufficient because the input is always
//! our own output, and malformed files simply yield `None`.

use std::fmt::Write as _;

/// Builds a pretty-printed JSON object, field by field.
#[derive(Debug, Clone, Default)]
pub struct JsonObject {
    fields: Vec<(String, String)>,
}

/// Escapes a string for use inside a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.fields
            .push((key.to_string(), format!("\"{}\"", escape(value))));
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, key: &str, value: u64) -> Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Adds a float field rendered with the given number of decimals.
    pub fn float(mut self, key: &str, value: f64, decimals: usize) -> Self {
        self.fields
            .push((key.to_string(), format!("{value:.decimals$}")));
        self
    }

    /// Adds an array-of-objects field; each row renders on its own line.
    pub fn rows(mut self, key: &str, rows: &[JsonObject]) -> Self {
        let mut s = String::from("[\n");
        for (i, row) in rows.iter().enumerate() {
            let _ = write!(s, "    {}", row.render_inline());
            s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ]");
        self.fields.push((key.to_string(), s));
        self
    }

    /// Renders the object on a single line (used for array rows).
    pub fn render_inline(&self) -> String {
        let mut s = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{}\": {v}", escape(k));
        }
        s.push('}');
        s
    }

    /// Renders the object pretty-printed, one field per line, with a
    /// trailing newline (the `BENCH_*.json` on-disk format).
    pub fn render(&self) -> String {
        let mut s = String::from("{\n");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            let _ = write!(s, "  \"{}\": {v}", escape(k));
            s.push_str(if i + 1 < self.fields.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("}\n");
        s
    }
}

/// Pulls `"key": <number>` out of a JSON string written by [`JsonObject`].
/// Returns `None` if the field is absent or not a plain number.
pub fn scan_f64_field(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_flat_object() {
        let j = JsonObject::new()
            .int("uops", 40_000)
            .float("aggregate", 123456.789, 0)
            .str("note", "a\"b");
        let s = j.render();
        assert!(s.starts_with("{\n"));
        assert!(s.ends_with("}\n"));
        assert!(s.contains("\"uops\": 40000,\n"));
        assert!(s.contains("\"aggregate\": 123457,\n"));
        assert!(s.contains("\"note\": \"a\\\"b\"\n"));
    }

    #[test]
    fn renders_rows_one_per_line() {
        let rows = [
            JsonObject::new().str("b", "x").float("v", 1.25, 2),
            JsonObject::new().str("b", "y").float("v", 2.5, 2),
        ];
        let s = JsonObject::new().rows("runs", &rows).render();
        assert!(s.contains("\"runs\": [\n"));
        assert!(s.contains("    {\"b\": \"x\", \"v\": 1.25},\n"));
        assert!(s.contains("    {\"b\": \"y\", \"v\": 2.50}\n"));
    }

    #[test]
    fn scan_reads_own_output() {
        let s = JsonObject::new()
            .float("aggregate_uops_per_sec", 3_064_212.0, 0)
            .render();
        assert_eq!(
            scan_f64_field(&s, "aggregate_uops_per_sec"),
            Some(3_064_212.0)
        );
        assert_eq!(scan_f64_field(&s, "missing"), None);
        assert_eq!(scan_f64_field("{}", "aggregate_uops_per_sec"), None);
    }
}
