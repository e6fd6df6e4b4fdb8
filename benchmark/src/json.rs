//! Hand-written JSON: the emitter for result lines and files, and the one
//! reader the benchmark needs (metric bounds out of `BENCHMARK.json`). No
//! serde — the container resolves it to an empty stand-in.

use std::fmt::Write as _;

/// A JSON string literal for `s`, quotes included.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

/// A JSON number. Non-finite values have no JSON spelling and would make a
/// result line unparseable, so they are a bug in the caller.
pub fn number(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value");
    let mut s = format!("{v}");
    if !s.contains(['.', 'e']) {
        s.push_str(".0");
    }
    s
}

/// `{"k": v, ...}` from already-rendered values.
pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// `[v, ...]` from already-rendered values.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(", "))
}

/// The objects of the metric list `key` (`end_to_end` or `per_layer`) in
/// `BENCHMARK.json`, as source text.
///
/// Not a JSON parser: it relies on that file's fixed shape — a flat array
/// of flat objects whose `name` is a plain string and `bound` a plain
/// number — and the readers below return `None` when the shape is not what
/// they expect.
fn metric_objects<'a>(manifest: &'a str, key: &str) -> Option<Vec<&'a str>> {
    let list = manifest.split(&format!("\"{key}\"")).nth(1)?;
    let list = &list[list.find('[')? + 1..];
    let list = &list[..list.find(']')?];
    Some(list.split('}').filter(|o| o.contains('{')).collect())
}

fn name_of(object: &str) -> Option<String> {
    Some(
        object
            .split("\"name\"")
            .nth(1)?
            .split('"')
            .nth(1)?
            .to_string(),
    )
}

/// The metric names the manifest lists under `key`, in its order.
pub fn metric_names(manifest: &str, key: &str) -> Option<Vec<String>> {
    let names: Option<Vec<String>> = metric_objects(manifest, key)?
        .into_iter()
        .map(name_of)
        .collect();
    names.filter(|n| !n.is_empty())
}

/// The `(name, bound)` pairs of the manifest's `end_to_end` list.
pub fn end_to_end_bounds(manifest: &str) -> Option<Vec<(String, f64)>> {
    let mut out = Vec::new();
    for object in metric_objects(manifest, "end_to_end")? {
        let bound = object.split("\"bound\"").nth(1)?.split(':').nth(1)?;
        let bound = bound.split([',', '}']).next()?.trim().parse().ok()?;
        out.push((name_of(object)?, bound));
    }
    (!out.is_empty()).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_controls_and_keep_unicode() {
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(string("l1\nl2\t\r"), "\"l1\\nl2\\t\\r\"");
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
        assert_eq!(string("µs ≤"), "\"µs ≤\"");
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(number(1.0), "1.0");
        assert_eq!(number(108.4375), "108.4375");
        assert_eq!(number(0.0), "0.0");
        assert_eq!(number(-2.5), "-2.5");
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_is_refused() {
        number(f64::NAN);
    }

    #[test]
    fn objects_and_arrays_nest() {
        let inner = object([("value", number(2.0)), ("unit", string("ms"))]);
        assert_eq!(inner, "{\"value\": 2.0, \"unit\": \"ms\"}");
        assert_eq!(array([inner.clone(), "1".into()]), format!("[{inner}, 1]"));
        assert_eq!(array([]), "[]");
    }

    #[test]
    fn bounds_come_out_of_the_manifest_shape() {
        let manifest = r#"{
  "command": ["bash", "benchmark/run.sh"],
  "end_to_end": [
    {"name": "ops_per_s", "unit": "op/s", "better": "higher", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
  ],
  "per_layer": [{"name": "x", "unit": "us", "better": "lower"}]
}"#;
        assert_eq!(
            end_to_end_bounds(manifest),
            Some(vec![("ops_per_s".into(), 0.1), ("setup_s".into(), 0.25)])
        );
        assert_eq!(end_to_end_bounds("{}"), None);
        assert_eq!(metric_names(manifest, "per_layer"), Some(vec!["x".into()]));
        assert_eq!(metric_names(manifest, "workloads"), None);
    }
}
