//! The JSON writer behind the Chrome trace exporter
//! ([`crate::TraceLog::to_chrome_json`]), and the structural scanner
//! that checks what it (or anything else) emitted. No serde resolves in the
//! offline build.
//!
//! [`JsonWriter`] streams compact JSON into one buffer: it owns the
//! separators and the string escaping, the caller owns the nesting (every
//! `begin_*` needs its `end_*`). It writes exactly what a trace needs:
//! scopes, keys, strings, unsigned integers and fixed six-digit decimals.
//! [`scan`] walks a document without building a tree, checks that scopes
//! and strings nest, and reports every object key with its path — enough
//! to ask "does this document carry a top-level `traceEvents`"
//! structurally instead of by substring.

/// Whether a byte of a string must be written as an escape.
#[inline(always)]
fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < b' '
}

/// A streaming writer of compact JSON.
#[derive(Debug, Default)]
pub struct JsonWriter {
    /// Only ASCII and whole `str`s are ever pushed, so always UTF-8.
    out: Vec<u8>,
    /// Whether the next key or value needs a `,` in front of it.
    comma: bool,
}

impl JsonWriter {
    /// An empty document with room for `bytes` of output.
    #[must_use]
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            out: Vec::with_capacity(bytes),
            comma: false,
        }
    }

    /// Starts a value: the separator, then `bytes`.
    #[inline(always)]
    fn value(&mut self, bytes: &[u8]) -> &mut Self {
        if self.comma {
            self.out.push(b',');
        }
        self.out.extend_from_slice(bytes);
        self.comma = true;
        self
    }

    /// Opens an object (as a value).
    #[inline]
    pub fn begin_object(&mut self) -> &mut Self {
        self.value(b"{").comma = false;
        self
    }

    /// Closes the innermost object.
    #[inline]
    pub fn end_object(&mut self) -> &mut Self {
        self.comma = false;
        self.value(b"}")
    }

    /// Opens an array (as a value).
    #[inline]
    pub fn begin_array(&mut self) -> &mut Self {
        self.value(b"[").comma = false;
        self
    }

    /// Closes the innermost array.
    #[inline]
    pub fn end_array(&mut self) -> &mut Self {
        self.comma = false;
        self.value(b"]")
    }

    /// Writes an object key; the next call writes its value.
    #[inline(always)]
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.string(key);
        self.out.push(b':');
        self.comma = false;
        self
    }

    /// Writes a string value, escaping quotes, backslashes and control
    /// characters. A string that needs no escaping is copied in one piece
    /// (inlined, so that a literal's check folds away at the call site).
    #[inline(always)]
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.value(b"\"");
        if s.bytes().any(needs_escape) {
            self.escaped(s.as_bytes());
        } else {
            self.out.extend_from_slice(s.as_bytes());
        }
        self.out.push(b'"');
        self
    }

    /// Pushes `rest` with its escapes, every run between two in one piece.
    #[cold]
    fn escaped(&mut self, mut rest: &[u8]) {
        while let Some(i) = rest.iter().position(|&b| needs_escape(b)) {
            self.out.extend_from_slice(&rest[..i]);
            match rest[i] {
                c @ (b'"' | b'\\') => self.out.extend_from_slice(&[b'\\', c]),
                c => {
                    let lo = b"0123456789abcdef"[usize::from(c & 15)];
                    let escape = [b'\\', b'u', b'0', b'0', b'0' + (c >> 4), lo];
                    self.out.extend_from_slice(&escape);
                }
            }
            rest = &rest[i + 1..];
        }
        self.out.extend_from_slice(rest);
    }

    /// Pushes `n` in decimal, zero-padded to `width` digits.
    #[inline(always)]
    fn digits(&mut self, mut n: u64, width: usize) {
        let mut buf = [b'0'; 20];
        let mut at = buf.len();
        while n > 0 {
            at -= 1;
            buf[at] = b'0' + (n % 10) as u8;
            n /= 10;
        }
        let from = at.min(buf.len() - width);
        self.out.extend_from_slice(&buf[from..]);
    }

    /// Writes an unsigned integer.
    #[inline]
    pub fn uint(&mut self, n: u64) -> &mut Self {
        self.value(b"").digits(n, 1);
        self
    }

    /// Writes `n` millionths as a decimal with six fractional digits:
    /// `1234567` is `1.234567`.
    #[inline]
    pub fn millionths(&mut self, n: u64) -> &mut Self {
        self.value(b"").digits(n / 1_000_000, 1);
        self.out.push(b'.');
        self.digits(n % 1_000_000, 6);
        self
    }

    /// The finished document, newline-terminated.
    #[must_use]
    pub fn finish(mut self) -> String {
        self.out.push(b'\n');
        String::from_utf8(self.out).expect("only ASCII and whole strs were pushed")
    }
}

/// Scans a JSON document structurally: scopes balance, strings and escapes
/// terminate. Calls `on_key` for every object key with the path of keys
/// leading to it (arrays add no path element), e.g. `["points", "flips"]`
/// for each `flips` in `{"points":[{"flips":0}]}`. A key is a string
/// directly inside an object with only JSON whitespace before its `:`.
///
/// # Errors
///
/// Returns a human-readable description of the first structural defect.
pub fn scan<'a>(json: &'a str, mut on_key: impl FnMut(&[&'a str])) -> Result<(), String> {
    let bytes = json.as_bytes();
    let mut closers: Vec<u8> = Vec::new();
    // One element per open object: the key whose value is being read.
    let mut path: Vec<&'a str> = Vec::new();
    let mut i = 0;
    // Outside a string only quotes and brackets matter.
    while let Some(&c) = bytes.get(i) {
        i += 1;
        match c {
            b'"' => {
                let start = i;
                // Inside one, only the closing quote and `\`, which hides
                // the byte after it (never the lead byte of a character the
                // scanner would otherwise act on: those are all ASCII).
                loop {
                    match bytes.get(i) {
                        None => return Err("unterminated string".to_string()),
                        Some(b'"') => break,
                        Some(b'\\') => i += 2,
                        Some(_) => i += 1,
                    }
                }
                let mut after = bytes[i + 1..]
                    .iter()
                    .skip_while(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'));
                if closers.last() == Some(&b'}') && after.next() == Some(&b':') {
                    if let Some(slot) = path.last_mut() {
                        *slot = &json[start..i];
                    }
                    on_key(&path);
                }
                i += 1;
            }
            b'{' => {
                closers.push(b'}');
                path.push("");
            }
            b'[' => closers.push(b']'),
            b'}' | b']' => {
                if closers.pop() != Some(c) {
                    let (c, at) = (char::from(c), i - 1);
                    return Err(format!("unbalanced `{c}` at byte {at}"));
                }
                if c == b'}' {
                    path.pop();
                }
            }
            _ => {}
        }
    }
    if !closers.is_empty() {
        return Err(format!("{} unclosed scopes at end of input", closers.len()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every key path of `json`, dot-joined (see [`scan`]).
    fn key_paths(json: &str) -> Result<std::collections::BTreeSet<String>, String> {
        let mut paths = std::collections::BTreeSet::new();
        scan(json, |path| {
            paths.insert(path.join("."));
        })?;
        Ok(paths)
    }

    /// The scanner `scan` replaced, decoding characters and trimming the
    /// rest of the input at every closing quote: the oracle for it.
    fn scan_by_chars<'a>(json: &'a str, mut on_key: impl FnMut(&[&'a str])) -> Result<(), String> {
        let mut closers: Vec<char> = Vec::new();
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

    /// Pieces a generated document is concatenated from: scopes, whole and
    /// broken strings, escapes (a string ending in `\\`, a lone `\` that can
    /// land last in the input), non-ASCII text, and every JSON whitespace
    /// between a key and its colon.
    const PIECES: [&str; 24] = [
        "{",
        "}",
        "[",
        "]",
        "\"",
        "\\\"",
        "\\\\",
        "\\",
        ":",
        ",",
        " ",
        "\t",
        "\n",
        "\r",
        "1.5",
        "é",
        "\u{1F980}",
        "{\"k\":",
        "\"key\" \t\r\n:",
        "\"tail\\\\\"",
        "\"q\\\"uote\":",
        "\"ключ\":[",
        "\"a}]{[b\"",
        "null",
    ];

    /// The pieces `picks` names, joined; `balance` closes what they left
    /// open, so that a good share of the documents scan `Ok`.
    fn document(picks: &[usize], balance: bool) -> String {
        let mut doc: String = picks.iter().map(|&p| PIECES[p]).collect();
        if balance {
            let mut closers = Vec::new();
            let mut in_string = false;
            let mut chars = doc.chars();
            while let Some(c) = chars.next() {
                match c {
                    '\\' if in_string => drop(chars.next()),
                    '"' => in_string = !in_string,
                    '{' if !in_string => closers.push('}'),
                    '[' if !in_string => closers.push(']'),
                    '}' | ']' if !in_string => drop(closers.pop()),
                    _ => {}
                }
            }
            if in_string {
                doc.push('"');
            }
            doc.extend(closers.into_iter().rev());
        }
        doc
    }

    proptest! {
        /// The byte scanner accepts, rejects and reports key paths exactly
        /// as the character scanner did, on well-formed and broken input.
        #[test]
        fn byte_scanner_matches_the_character_scanner(
            docs in prop::collection::vec(
                (prop::collection::vec(0usize..PIECES.len(), 0..40), any::<bool>()),
                16..17,
            ),
        ) {
            for (picks, balance) in docs {
                let doc = document(&picks, balance);
                let (mut new_keys, mut old_keys) = (Vec::new(), Vec::new());
                let new = scan(&doc, |path| new_keys.push(path.join("\0")));
                let old = scan_by_chars(&doc, |path| old_keys.push(path.join("\0")));
                prop_assert_eq!(new, old, "{:?}", doc);
                prop_assert_eq!(new_keys, old_keys, "{:?}", doc);
            }
        }
    }

    #[test]
    fn digit_writers_match_display() {
        let ends = [0, 9, 10, 999_999, 1_000_000, 1_000_000_000_001, u64::MAX];
        for n in ends {
            let (whole, frac) = (n / 1_000_000, n % 1_000_000);
            let mut w = JsonWriter::default();
            w.begin_array()
                .uint(n)
                .millionths(n)
                .millionths(frac)
                .end_array();
            assert_eq!(w.finish(), format!("[{n},{whole}.{frac:06},0.{frac:06}]\n"));
        }
    }

    #[test]
    fn control_escapes_match_the_formatted_ones() {
        for c in 0..0x20u8 {
            let mut w = JsonWriter::default();
            w.string(&format!("a{}é", char::from(c)));
            assert_eq!(w.finish(), format!("\"a\\u{c:04x}é\"\n"));
        }
    }

    #[test]
    fn writer_escapes_and_nests_and_the_scanner_accepts_it() {
        let mut w = JsonWriter::default();
        w.begin_object();
        w.key("q\"uote").string("back\\slash \"q\" \u{1}\n");
        w.key("empty").begin_object().end_object();
        w.key("list").begin_array();
        w.begin_array().end_array().uint(3).millionths(500_000);
        w.begin_object().key("ok").uint(1).end_object();
        w.end_array();
        w.key("nested")
            .begin_object()
            .key("x")
            .string("")
            .end_object();
        w.end_object();
        let json = w.finish();
        assert_eq!(
            json,
            r#"{"q\"uote":"back\\slash \"q\" \u0001\u000a","empty":{},"list":[[],3,0.500000,{"ok":1}],"nested":{"x":""}}"#
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
                "nested",
                "nested.x",
                r#"q\"uote"#
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
