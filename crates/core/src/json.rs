//! The JSON writer behind the Chrome trace exporter
//! ([`crate::TraceLog::to_chrome_json`]), and the structural scanner
//! that checks what it (or anything else) emitted. No serde resolves in the
//! offline build.
//!
//! [`JsonWriter`] streams compact JSON into one buffer: it owns the
//! separators and the string escaping, the caller owns the nesting (every
//! `begin_*` needs its `end_*`). It writes exactly what a trace needs:
//! scopes, keys, strings, unsigned integers and fixed six-digit decimals.
//! `top_level_keys` walks a document once without building a tree, checks
//! that scopes and strings nest, and reports the keys of the outermost
//! object only — enough to ask "does this document carry a top-level
//! `traceEvents`" structurally instead of by substring, without paying for
//! the hundreds of thousands of keys inside the events.
//!
//! The trace's other export, the binary dump
//! ([`crate::TraceLog::to_binary`]), needs neither: its codec writes and
//! reads one fixed 36-byte record array at a time.

/// `00`, `01`, … `99`: the two decimal digits of every value below 100.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut n = 0;
    while n < 100 {
        pairs[2 * n] = b'0' + (n / 10) as u8;
        pairs[2 * n + 1] = b'0' + (n % 10) as u8;
        n += 1;
    }
    pairs
};

/// Writes the two digits of `n` (below 100) into `out`, two bytes long.
#[inline(always)]
fn write_pair(out: &mut [u8], n: u64) {
    let from = 2 * n as usize;
    out.copy_from_slice(&DIGIT_PAIRS[from..from + 2]);
}

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
        self.open_string(key);
        self.out.extend_from_slice(b"\":");
        self.comma = false;
        self
    }

    /// Writes a string value, escaping quotes, backslashes and control
    /// characters.
    #[inline(always)]
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.open_string(s);
        self.out.push(b'"');
        self
    }

    /// Starts a string value and writes its escaped body, without the
    /// closing quote. A string that needs no escaping is copied in one
    /// piece (inlined, so that a literal's check folds away at the call
    /// site).
    #[inline(always)]
    fn open_string(&mut self, s: &str) {
        self.value(b"\"");
        if s.bytes().any(needs_escape) {
            self.escaped(s.as_bytes());
        } else {
            self.out.extend_from_slice(s.as_bytes());
        }
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

    /// Pushes `n` in decimal. Twenty `0`s are pushed as one fixed-size
    /// copy (no variable-length `memcpy` call per number), the digits are
    /// written over their start, two at a time from [`DIGIT_PAIRS`], and
    /// the rest is cut off. The digits go straight into the output: a stack
    /// buffer read back in one piece right after its bytes were stored
    /// stalls on every number.
    #[inline(always)]
    fn digits(&mut self, mut n: u64) {
        let len = n.checked_ilog10().map_or(1, |log| log as usize + 1);
        let start = self.out.len();
        self.out.extend_from_slice(&[b'0'; 20]);
        let digits: &mut [u8; 20] = (&mut self.out[start..]).try_into().expect("20 bytes");
        let mut at = len;
        while n >= 10 {
            at -= 2;
            write_pair(&mut digits[at..at + 2], n % 100);
            n /= 100;
        }
        if at == 1 {
            digits[0] = b'0' + n as u8;
        }
        self.out.truncate(start + len);
    }

    /// Writes an unsigned integer.
    #[inline]
    pub fn uint(&mut self, n: u64) -> &mut Self {
        self.value(b"").digits(n);
        self
    }

    /// Writes `n` millionths as a decimal with six fractional digits:
    /// `1234567` is `1.234567`. The fraction is always three digit pairs,
    /// written over a pushed `.000000`.
    #[inline]
    pub fn millionths(&mut self, n: u64) -> &mut Self {
        self.value(b"").digits(n / 1_000_000);
        let frac = n % 1_000_000;
        let start = self.out.len();
        self.out.extend_from_slice(b".000000");
        let six = &mut self.out[start + 1..];
        write_pair(&mut six[..2], frac / 10_000);
        write_pair(&mut six[2..4], frac / 100 % 100);
        write_pair(&mut six[4..], frac % 100);
        self
    }

    /// The finished document, newline-terminated.
    #[must_use]
    pub fn finish(mut self) -> String {
        self.out.push(b'\n');
        String::from_utf8(self.out).expect("only ASCII and whole strs were pushed")
    }
}

/// Scans a JSON document structurally, as the path-reporting scanner in
/// the tests does: scopes balance, strings and escapes terminate. Calls
/// `on_key` for every key of an outermost object: a string directly inside
/// an object that no other object encloses (arrays do not count), with only
/// JSON whitespace before its `:`. `{"a":[{"b":0}],"c":1}` reports `a` and
/// `c`. Only scope nesting is tracked; no other key costs anything.
///
/// # Errors
///
/// Returns a human-readable description of the first structural defect.
pub(crate) fn top_level_keys<'a>(
    json: &'a str,
    mut on_key: impl FnMut(&'a str),
) -> Result<(), String> {
    let bytes = json.as_bytes();
    let mut closers: Vec<u8> = Vec::new();
    // Objects among the open scopes: a key is reported at exactly one.
    let mut objects = 0usize;
    // One pass of a slice iterator (no index to bounds-check): the offset
    // of the next byte is the length less what is left to walk.
    let mut rest = bytes.iter();
    let offset = |rest: &std::slice::Iter<'_, u8>| bytes.len() - rest.len();
    // Outside a string only quotes and brackets matter.
    while let Some(&c) = rest.next() {
        match c {
            b'"' => {
                let start = offset(&rest);
                // Inside one, only the closing quote and `\`, which hides
                // the byte after it (never the lead byte of a character the
                // scanner would otherwise act on: those are all ASCII).
                loop {
                    match rest.next() {
                        Some(b'"') => break,
                        Some(b'\\') => _ = rest.next(),
                        Some(_) => {}
                        None => return Err("unterminated string".to_string()),
                    }
                }
                if objects == 1 && closers.last() == Some(&b'}') {
                    let end = offset(&rest) - 1;
                    let mut after =
                        (rest.clone()).skip_while(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'));
                    if after.next() == Some(&b':') {
                        on_key(&json[start..end]);
                    }
                }
            }
            b'{' => {
                closers.push(b'}');
                objects += 1;
            }
            b'[' => closers.push(b']'),
            b'}' | b']' => {
                if closers.pop() != Some(c) {
                    let (c, at) = (char::from(c), offset(&rest) - 1);
                    return Err(format!("unbalanced `{c}` at byte {at}"));
                }
                if c == b'}' {
                    objects -= 1;
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

    /// The path-reporting scanner `top_level_keys` replaced in
    /// `validate_chrome_json`, kept as its oracle: the same structural walk,
    /// calling `on_key` for every object key with the path of keys leading
    /// to it (arrays add no path element), e.g. `["points", "flips"]` for
    /// each `flips` in `{"points":[{"flips":0}]}`.
    fn scan<'a>(json: &'a str, mut on_key: impl FnMut(&[&'a str])) -> Result<(), String> {
        let bytes = json.as_bytes();
        let mut closers: Vec<u8> = Vec::new();
        // One element per open object: the key whose value is being read.
        let mut path: Vec<&'a str> = Vec::new();
        let mut i = 0;
        while let Some(&c) = bytes.get(i) {
            i += 1;
            match c {
                b'"' => {
                    let start = i;
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

    /// What `top_level_keys` reports and returns on `json`.
    fn top_level(json: &str) -> (Result<(), String>, Vec<&str>) {
        let mut keys = Vec::new();
        let result = top_level_keys(json, |key| keys.push(key));
        (result, keys)
    }

    /// What the path oracle reports on `json`, narrowed to `top_level_keys`'
    /// contract: the keys whose path is one key long.
    fn oracle_top_level(json: &str) -> (Result<(), String>, Vec<&str>) {
        let mut keys = Vec::new();
        let result = scan(json, |path| {
            if let [key] = path {
                keys.push(*key);
            }
        });
        (result, keys)
    }

    /// Every key path of `json`, dot-joined (see [`scan`]).
    fn key_paths(json: &str) -> Result<std::collections::BTreeSet<String>, String> {
        let mut paths = std::collections::BTreeSet::new();
        scan(json, |path| {
            paths.insert(path.join("."));
        })?;
        Ok(paths)
    }

    /// The scanner the byte scanner `scan` replaced, decoding characters
    /// and trimming the rest of the input at every closing quote: the
    /// oracle for it.
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

    /// `doc` without its stray and mismatched closers, and with its open
    /// string and scopes closed: well-formed unless it ends in a lone `\`.
    fn repaired(doc: &str) -> String {
        let mut out = String::new();
        let mut closers = Vec::new();
        let mut in_string = false;
        let mut chars = doc.chars();
        while let Some(c) = chars.next() {
            match c {
                '\\' if in_string => out.extend([Some(c), chars.next()].into_iter().flatten()),
                '"' => {
                    in_string = !in_string;
                    out.push(c);
                }
                '{' | '[' if !in_string => {
                    closers.push(if c == '{' { '}' } else { ']' });
                    out.push(c);
                }
                '}' | ']' if !in_string => {
                    if closers.last() == Some(&c) {
                        closers.pop();
                        out.push(c);
                    }
                }
                _ => out.push(c),
            }
        }
        if in_string {
            out.push('"');
        }
        out.extend(closers.into_iter().rev());
        out
    }

    /// Characters a hostile document is drawn from: every byte the scanner
    /// acts on, JSON whitespace, and multi-byte characters whose
    /// continuation bytes must never be taken for structure.
    const HOSTILE: [char; 16] = [
        '{',
        '}',
        '[',
        ']',
        '"',
        '\\',
        ':',
        ',',
        ' ',
        '\n',
        'a',
        '0',
        'é',
        '\u{7FF}',
        '\u{FFFF}',
        '\u{10FFFF}',
    ];

    proptest! {
        /// The top-level scanner accepts and rejects exactly what the path
        /// oracle does, on well-formed and broken input, and reports exactly
        /// the oracle's keys whose path is one key long.
        #[test]
        fn top_level_scanner_matches_the_path_oracle(
            docs in prop::collection::vec(
                (prop::collection::vec(0usize..PIECES.len(), 0..40), any::<bool>()),
                16..17,
            ),
        ) {
            for (picks, balance) in docs {
                let doc = document(&picks, balance);
                prop_assert_eq!(top_level(&doc), oracle_top_level(&doc), "{:?}", doc);
            }
        }

        /// Hostile input: arbitrary strings of structural bytes, lone `\`s
        /// and multi-byte characters, and deep runs of brackets around
        /// them. The scanner never panics and agrees with the oracle, and
        /// every document made broken by construction (an unterminated
        /// string, a trailing lone `\`, a scope left open, a stray or
        /// mismatched closer) is an error.
        #[test]
        fn hostile_input_is_rejected_without_panicking(
            picks in prop::collection::vec(0usize..HOSTILE.len(), 0..200),
            balance in any::<bool>(),
            depth in 0usize..3_000,
            opener in 0usize..2,
        ) {
            let doc: String = picks.iter().map(|&p| HOSTILE[p]).collect();
            let doc = if balance { repaired(&doc) } else { doc };
            let (open, close) = [("{", "}"), ("[", "]")][opener];
            let deep = format!("{}{doc}{}", open.repeat(depth), close.repeat(depth));
            for doc in [&doc, &deep] {
                prop_assert_eq!(top_level(doc), oracle_top_level(doc), "{:?}", doc);
            }
            if top_level(&doc).0.is_ok() {
                let broken = [
                    format!("{doc}\"unterminated"),
                    format!("{doc}\"lone \\"),
                    format!("{doc}\"\\"),
                    format!("{}{doc}", open.repeat(depth + 1)),
                    format!("{doc}{}", close.repeat(depth + 1)),
                    format!("{}{doc}{}", "{".repeat(depth + 1), "]".repeat(depth + 1)),
                ];
                for doc in &broken {
                    prop_assert!(top_level(doc).0.is_err(), "{:?}", doc);
                    prop_assert_eq!(top_level(doc), oracle_top_level(doc), "{:?}", doc);
                }
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
        assert_eq!(
            top_level(&json),
            (Ok(()), vec![r#"q\"uote"#, "empty", "list", "nested"])
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
        let doc = r#"{"a":{"b":[{"c":1},{"c":"x:y"}]},"d":"\"e\":"} [{"f" :0}]"#;
        assert_eq!(top_level(doc), (Ok(()), vec!["a", "d", "f"]));
        for defect in ["{\"a\":[}", "{\"a\":[]", "{\"a\": \"unterminated}"] {
            assert!(scan(defect, |_| {}).is_err(), "{defect}");
            assert!(top_level_keys(defect, |_| {}).is_err(), "{defect}");
        }
    }
}
