//! The workspace's one JSON emitter, and the structural scanner that checks
//! what it (or anything else) emitted. No serde resolves in the offline
//! build, and every document written here is small and flat.
//!
//! [`JsonWriter`] streams compact JSON into one `String`: it owns the
//! separators and the string escaping, the caller owns the nesting (every
//! `begin_*` needs its `end_*`). [`scan`] walks a document without building
//! a tree, checks that scopes and strings nest, and reports every object
//! key with its path — enough to ask "does this report carry
//! `rowhammer.points.flips`" structurally instead of by substring.

use std::fmt::{Display, Write as _};

/// A streaming writer of compact JSON.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Whether the next key or value needs a `,` in front of it.
    comma: bool,
}

impl JsonWriter {
    /// An empty document.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn separate(&mut self) {
        if self.comma {
            self.out.push(',');
        }
    }

    fn open(&mut self, c: char) -> &mut Self {
        self.separate();
        self.out.push(c);
        self.comma = false;
        self
    }

    fn close(&mut self, c: char) -> &mut Self {
        self.out.push(c);
        self.comma = true;
        self
    }

    /// Opens an object (as a value).
    pub fn begin_object(&mut self) -> &mut Self {
        self.open('{')
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.close('}')
    }

    /// Opens an array (as a value).
    pub fn begin_array(&mut self) -> &mut Self {
        self.open('[')
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.close(']')
    }

    /// Writes an object key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.string(key);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// Writes a string value, escaping quotes, backslashes and control
    /// characters.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.separate();
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' | '\\' => self.out.extend(['\\', c]),
                c if c < ' ' => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
        self.comma = true;
        self
    }

    fn value(&mut self, v: impl Display) -> &mut Self {
        self.separate();
        let _ = write!(self.out, "{v}");
        self.comma = true;
        self
    }

    /// Writes a number as `n` displays: an integer, or a float through
    /// `format_args!("{x:.3}")` when the precision matters. The caller keeps
    /// floats finite (JSON has no NaN or infinity).
    pub fn number(&mut self, n: impl Display) -> &mut Self {
        self.value(n)
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.value(b)
    }

    /// Splices in a value that is already JSON (a document read back from
    /// disk); [`scan`] it first.
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.value(json.trim())
    }

    /// The finished document, newline-terminated.
    #[must_use]
    pub fn finish(mut self) -> String {
        self.out.push('\n');
        self.out
    }
}

/// Scans a JSON document structurally: scopes balance, strings and escapes
/// terminate. Calls `on_key` for every object key with the path of keys
/// leading to it (arrays add no path element), e.g. `["points", "flips"]`
/// for each `flips` in `{"points":[{"flips":0}]}`.
///
/// # Errors
///
/// Returns a human-readable description of the first structural defect.
pub fn scan<'a>(json: &'a str, mut on_key: impl FnMut(&[&'a str])) -> Result<(), String> {
    let mut closers: Vec<char> = Vec::new();
    // One element per open object: the key whose value is being read.
    let mut path: Vec<&'a str> = Vec::new();
    let mut string_start = None;
    let mut escaped = false;
    for (i, c) in json.char_indices() {
        if let Some(start) = string_start {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                string_start = None;
                if closers.last() == Some(&'}') && json[i + 1..].trim_start().starts_with(':') {
                    if let Some(slot) = path.last_mut() {
                        *slot = &json[start..i];
                    }
                    on_key(&path);
                }
            }
            continue;
        }
        match c {
            '"' => string_start = Some(i + 1),
            '{' => {
                closers.push('}');
                path.push("");
            }
            '[' => closers.push(']'),
            '}' | ']' => {
                if closers.pop() != Some(c) {
                    return Err(format!("unbalanced `{c}` at byte {i}"));
                }
                if c == '}' {
                    path.pop();
                }
            }
            _ => {}
        }
    }
    if string_start.is_some() {
        return Err("unterminated string".to_string());
    }
    if !closers.is_empty() {
        return Err(format!("{} unclosed scopes at end of input", closers.len()));
    }
    Ok(())
}

/// Every key path of `json`, dot-joined (see [`scan`]).
///
/// # Errors
///
/// Propagates [`scan`]'s structural defects.
pub fn key_paths(json: &str) -> Result<std::collections::BTreeSet<String>, String> {
    let mut paths = std::collections::BTreeSet::new();
    scan(json, |path| {
        paths.insert(path.join("."));
    })?;
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_escapes_and_nests_and_the_scanner_accepts_it() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("q\"uote").string("back\\slash \"q\" \u{1}\n");
        w.key("empty").begin_object().end_object();
        w.key("list").begin_array();
        w.begin_array()
            .end_array()
            .number(3)
            .number(format_args!("{:.2}", 0.5));
        w.begin_object().key("ok").bool(true).end_object();
        w.end_array();
        w.key("spliced").raw(" {\"x\":null}\n");
        w.end_object();
        let json = w.finish();
        assert_eq!(
            json,
            r#"{"q\"uote":"back\\slash \"q\" \u0001\u000a","empty":{},"list":[[],3,0.50,{"ok":true}],"spliced":{"x":null}}"#
                .to_string()
                + "\n"
        );
        let paths = key_paths(&json).expect("well-formed");
        let paths: Vec<&str> = paths.iter().map(String::as_str).collect();
        assert_eq!(
            paths,
            [
                "empty",
                "list",
                "list.ok",
                r#"q\"uote"#,
                "spliced",
                "spliced.x"
            ]
        );
    }

    #[test]
    fn scan_tells_keys_from_values_and_rejects_defects() {
        let paths = key_paths(r#"{"a":{"b":[{"c":1},{"c":"x:y"}]},"d":"\"e\":"}"#).unwrap();
        let paths: Vec<&str> = paths.iter().map(String::as_str).collect();
        assert_eq!(paths, ["a", "a.b", "a.b.c", "d"]);
        for defect in ["{\"a\":[}", "{\"a\":[]", "{\"a\": \"unterminated}"] {
            assert!(scan(defect, |_| {}).is_err(), "{defect}");
        }
    }
}
