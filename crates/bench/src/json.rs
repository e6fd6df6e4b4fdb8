//! Hand-rolled JSON output for the bench binaries: a value tree and one
//! pretty-printer, so every result file shares a layout.

/// A JSON value. Numbers are rendered when built (callers pick the
/// precision), so printing never reformats them.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// A number, already rendered.
    Num(String),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An integer.
    pub fn int(v: u64) -> Self {
        Json::Num(v.to_string())
    }

    /// A float with `decimals` fractional digits.
    pub fn fixed(v: f64, decimals: usize) -> Self {
        Json::Num(format!("{v:.decimals$}"))
    }

    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Self {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Two-space-indented text. An object or array of scalars stays on one
    /// line, which keeps a table of timing rows one row per line.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let (brackets, items): (&str, Vec<(String, &Json)>) = match self {
            Json::Num(n) => return out.push_str(n),
            Json::Str(s) => return out.push_str(&quote(s)),
            Json::Arr(items) => ("[]", items.iter().map(|v| (String::new(), v)).collect()),
            Json::Obj(pairs) => (
                "{}",
                pairs.iter().map(|(k, v)| (quote(k) + ": ", v)).collect(),
            ),
        };
        let scalar = |v: &Json| matches!(v, Json::Num(_) | Json::Str(_));
        let (before_item, before_close) = match items.iter().all(|(_, v)| scalar(v)) {
            true => (" ".to_string(), " ".to_string()),
            false => (
                format!("\n{}", "  ".repeat(depth + 1)),
                format!("\n{}", "  ".repeat(depth)),
            ),
        };
        out.push_str(&brackets[..1]);
        for (i, (key, value)) in items.iter().enumerate() {
            out.push_str(if i > 0 { "," } else { "" });
            out.push_str(&before_item);
            out.push_str(key);
            value.write(out, depth + 1);
        }
        out.push_str(if items.is_empty() { "" } else { &before_close });
        out.push_str(&brackets[1..]);
    }
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out + "\""
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_objects_indent_and_scalar_rows_stay_inline() {
        let doc = Json::obj([
            ("bench", Json::Str("x\"y\n".into())),
            (
                "timings",
                Json::obj([(
                    "pairing",
                    Json::obj([
                        ("ns_per_op", Json::fixed(12.34, 1)),
                        ("iters", Json::int(5)),
                    ]),
                )]),
            ),
            ("sizes", Json::Arr(vec![Json::int(1), Json::int(2)])),
            ("empty", Json::Arr(vec![])),
        ]);
        assert_eq!(
            doc.pretty(),
            "{\n  \"bench\": \"x\\\"y\\u000a\",\n  \"timings\": {\n    \"pairing\": { \"ns_per_op\": 12.3, \"iters\": 5 }\n  },\n  \"sizes\": [ 1, 2 ],\n  \"empty\": []\n}\n"
        );
    }
}
