//! A hand-rolled Rust token scanner.
//!
//! The container has no crates.io access, so the lint engine cannot lean
//! on `syn`/`proc-macro2`; this module implements the small slice of Rust
//! lexing the rules actually need:
//!
//! * identifiers and punctuation with exact `line:col` positions
//!   (1-based, columns counted in characters, like rustc);
//! * comments (line, nested block) and every string-ish literal form
//!   (`"…"`, `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `c"…"`, char literals,
//!   lifetimes) are consumed without producing identifier tokens, so a
//!   `HashMap` inside a doc comment or an error string never trips a rule;
//! * `// cim-lint: allow(<rule>)` pragma comments are surfaced as
//!   structured [`Pragma`] values for the suppression machinery.
//!
//! The scanner is **total**: any byte sequence (decoded lossily to UTF-8)
//! produces a token list without panicking — unterminated literals simply
//! run to end of input. This is proven by a property test over arbitrary
//! bytes (`tests/lexer_props.rs`).

/// What a token is, at the granularity the lint rules need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`HashMap`, `fn`, `unwrap`, …).
    Ident,
    /// A single punctuation character (`.`, `:`, `#`, `{`, …).
    Punct,
    /// A literal: number, string, char, or byte-string. Rules only need
    /// to know these are *not* identifiers.
    Literal,
    /// A lifetime (`'a`). Kept distinct so `'static` is not an ident.
    Lifetime,
}

/// One scanned token with its source position.
#[derive(Debug, Clone, Copy)]
pub struct Token<'a> {
    /// The kind of token.
    pub kind: TokenKind,
    /// The token's text (for [`TokenKind::Punct`], a single character).
    pub text: &'a str,
    /// 1-based source line.
    pub line: u32,
    /// 1-based column, counted in characters.
    pub col: u32,
}

impl Token<'_> {
    /// Whether this token is the identifier `s`.
    pub(crate) fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation character `c`.
    pub(crate) fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.starts_with(c)
    }
}

/// Scope of one `cim-lint` allow pragma.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PragmaScope {
    /// `// cim-lint: allow(rule)` — suppresses diagnostics on the pragma's
    /// own line and on the next source line.
    Line,
    /// `// cim-lint: allow-file(rule)` — suppresses diagnostics for the
    /// named rules anywhere in the file.
    File,
}

/// One parsed `cim-lint` pragma comment.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// The rule names listed in the pragma, e.g. `["hash-collection"]`.
    pub rules: Vec<String>,
    /// Line the pragma comment starts on (1-based).
    pub line: u32,
    /// Whether the pragma covers one line or the whole file.
    pub scope: PragmaScope,
}

/// Result of scanning one source file.
#[derive(Debug, Default)]
pub struct Lexed<'a> {
    /// Every identifier/punct/literal token, in source order.
    pub tokens: Vec<Token<'a>>,
    /// Every `cim-lint` pragma comment found.
    pub pragmas: Vec<Pragma>,
}

/// Character-level cursor over the source with line/column tracking.
struct Cursor<'a> {
    src: &'a str,
    /// Byte offset of the next unread character.
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor {
            src,
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn peek2(&self) -> Option<char> {
        let mut it = self.src[self.pos..].chars();
        it.next();
        it.next()
    }

    fn peek3(&self) -> Option<char> {
        let mut it = self.src[self.pos..].chars();
        it.next();
        it.next();
        it.next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// Consumes characters while `f` holds, returning the consumed slice.
    fn eat_while(&mut self, f: impl Fn(char) -> bool) -> &'a str {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if !f(c) {
                break;
            }
            self.bump();
        }
        &self.src[start..self.pos]
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Parses the body of a `cim-lint` comment, if it is one.
///
/// Recognized forms (whitespace-tolerant):
/// `cim-lint: allow(rule-a, rule-b)` and `cim-lint: allow-file(rule)`.
fn parse_pragma(comment: &str, line: u32) -> Option<Pragma> {
    let body = comment.trim_start_matches('/').trim_start_matches('!').trim();
    let rest = body.strip_prefix("cim-lint:")?.trim();
    let (scope, rest) = if let Some(r) = rest.strip_prefix("allow-file") {
        (PragmaScope::File, r)
    } else if let Some(r) = rest.strip_prefix("allow") {
        (PragmaScope::Line, r)
    } else {
        return None;
    };
    let rest = rest.trim();
    let inner = rest.strip_prefix('(')?;
    let close = inner.find(')')?;
    let rules: Vec<String> = inner[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return None;
    }
    Some(Pragma { rules, line, scope })
}

/// Scans `src` into tokens and pragmas. Total: never panics, any input.
pub fn lex(src: &str) -> Lexed<'_> {
    let mut cur = Cursor::new(src);
    let mut out = Lexed::default();

    while let Some(c) = cur.peek() {
        let (line, col) = (cur.line, cur.col);
        // Whitespace.
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        // Comments (and pragma extraction).
        if c == '/' && cur.peek2() == Some('/') {
            let start = cur.pos;
            let comment_line = cur.line;
            cur.eat_while(|c| c != '\n');
            if let Some(p) = parse_pragma(&src[start..cur.pos], comment_line) {
                out.pragmas.push(p);
            }
            continue;
        }
        if c == '/' && cur.peek2() == Some('*') {
            cur.bump();
            cur.bump();
            let mut depth = 1u32;
            while depth > 0 {
                match (cur.peek(), cur.peek2()) {
                    (Some('/'), Some('*')) => {
                        cur.bump();
                        cur.bump();
                        depth += 1;
                    }
                    (Some('*'), Some('/')) => {
                        cur.bump();
                        cur.bump();
                        depth -= 1;
                    }
                    (Some(_), _) => {
                        cur.bump();
                    }
                    (None, _) => break,
                }
            }
            continue;
        }
        // Raw strings and byte/C-string prefixes: r"…", r#"…"#, br"…",
        // b"…", c"…". Scan the prefix letters, then the quoted body.
        if (c == 'r' || c == 'b' || c == 'c') && raw_or_bytestring(&mut cur, &mut out, line, col) {
            continue;
        }
        // Identifiers and keywords.
        if is_ident_start(c) {
            let text = cur.eat_while(is_ident_continue);
            out.tokens.push(Token {
                kind: TokenKind::Ident,
                text,
                line,
                col,
            });
            continue;
        }
        // Numbers (consumed coarsely — rules never inspect them). A `.` is
        // part of the number only when a digit follows, so tuple-field
        // method chains like `x.0.unwrap()` still surface `unwrap`.
        if c.is_ascii_digit() {
            let start = cur.pos;
            while let Some(n) = cur.peek() {
                let in_number = n.is_ascii_alphanumeric()
                    || n == '_'
                    || (n == '.' && cur.peek2().is_some_and(|d| d.is_ascii_digit()));
                if !in_number {
                    break;
                }
                cur.bump();
            }
            out.tokens.push(Token {
                kind: TokenKind::Literal,
                text: &src[start..cur.pos],
                line,
                col,
            });
            continue;
        }
        // Plain strings.
        if c == '"' {
            let text = eat_string(&mut cur);
            out.tokens.push(Token {
                kind: TokenKind::Literal,
                text,
                line,
                col,
            });
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let text = eat_char_or_lifetime(&mut cur);
            let kind = if text.ends_with('\'') && text.len() > 1 {
                TokenKind::Literal
            } else {
                TokenKind::Lifetime
            };
            out.tokens.push(Token {
                kind,
                text,
                line,
                col,
            });
            continue;
        }
        // Everything else: single punctuation character.
        let start = cur.pos;
        cur.bump();
        out.tokens.push(Token {
            kind: TokenKind::Punct,
            text: &src[start..cur.pos],
            line,
            col,
        });
    }
    out
}

/// Handles `r`/`b`/`c`-prefixed string forms. Returns `true` when a token
/// was consumed, `false` when the `r`/`b`/`c` is an ordinary identifier
/// start (the caller then scans it as an identifier).
fn raw_or_bytestring<'a>(
    cur: &mut Cursor<'a>,
    out: &mut Lexed<'a>,
    line: u32,
    col: u32,
) -> bool {
    let src = cur.src;
    let start = cur.pos;
    let c = match cur.peek() {
        Some(c) => c,
        None => return false,
    };
    // Determine the literal shape by lookahead only; bail out without
    // consuming anything unless it really is a string form.
    let (raw, skip) = match (c, cur.peek2(), cur.peek3()) {
        ('r', Some('"'), _) => (true, 1),
        ('r', Some('#'), _) => (true, 1),
        ('b', Some('"'), _) => (false, 1),
        ('b', Some('r'), Some('"' | '#')) => (true, 2),
        ('b', Some('\''), _) => {
            // Byte char literal b'x'.
            cur.bump(); // b
            let text_start = cur.pos;
            let t = eat_char_or_lifetime(cur);
            debug_assert_eq!(&src[text_start..cur.pos], t);
            out.tokens.push(Token {
                kind: TokenKind::Literal,
                text: &src[start..cur.pos],
                line,
                col,
            });
            return true;
        }
        ('c', Some('"'), _) => (false, 1),
        _ => return false,
    };
    for _ in 0..skip {
        cur.bump();
    }
    if raw {
        // r…: count '#'s, then scan to '"' + same number of '#'s.
        let mut hashes = 0usize;
        while cur.peek() == Some('#') {
            hashes += 1;
            cur.bump();
        }
        if cur.peek() != Some('"') {
            // `r#foo` raw identifier (or stray `r#`): emit the ident.
            let text = cur.eat_while(is_ident_continue);
            out.tokens.push(Token {
                kind: TokenKind::Ident,
                text,
                line,
                col,
            });
            return true;
        }
        cur.bump(); // opening quote
        loop {
            match cur.bump() {
                None => break,
                Some('"') => {
                    let mut seen = 0usize;
                    while seen < hashes && cur.peek() == Some('#') {
                        cur.bump();
                        seen += 1;
                    }
                    if seen == hashes {
                        break;
                    }
                }
                Some(_) => {}
            }
        }
    } else {
        // b"…" / c"…": ordinary escaped string body.
        eat_string(cur);
    }
    out.tokens.push(Token {
        kind: TokenKind::Literal,
        text: &src[start..cur.pos],
        line,
        col,
    });
    true
}

/// Consumes a `"`-delimited string (cursor on the opening quote),
/// honouring backslash escapes; unterminated strings run to end of input.
fn eat_string<'a>(cur: &mut Cursor<'a>) -> &'a str {
    let start = cur.pos;
    cur.bump(); // opening quote
    while let Some(c) = cur.bump() {
        match c {
            '\\' => {
                cur.bump();
            }
            '"' => break,
            _ => {}
        }
    }
    &cur.src[start..cur.pos]
}

/// Consumes either a char literal (`'a'`, `'\n'`, `'\u{1F600}'`) or a
/// lifetime (`'a`, `'static`), cursor on the `'`.
fn eat_char_or_lifetime<'a>(cur: &mut Cursor<'a>) -> &'a str {
    let start = cur.pos;
    cur.bump(); // '
    match cur.peek() {
        Some('\\') => {
            // Escaped char literal: consume escape, then to closing quote.
            cur.bump();
            cur.bump();
            while let Some(c) = cur.peek() {
                cur.bump();
                if c == '\'' {
                    break;
                }
            }
        }
        Some(c) if is_ident_start(c) => {
            // `'a'` is a char; `'ab`, `'a ` are lifetimes. Disambiguate by
            // the character after the ident-ish run.
            cur.bump();
            if cur.peek() == Some('\'') && !is_ident_continue(c) {
                cur.bump();
            } else if cur.peek() == Some('\'') {
                // Exactly one ident char then a quote: char literal.
                cur.bump();
            } else {
                // Lifetime: consume the rest of the identifier.
                cur.eat_while(is_ident_continue);
            }
        }
        Some('\'') => {
            // `''` — empty/invalid; consume the second quote and move on.
            cur.bump();
        }
        Some(_) => {
            // Non-ident single char like '+': char literal.
            cur.bump();
            if cur.peek() == Some('\'') {
                cur.bump();
            }
        }
        None => {}
    }
    &cur.src[start..cur.pos]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<&str> {
        lex(src)
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_identifiers() {
        let src = r##"
            // HashMap in a line comment
            /* HashMap in /* a nested */ block */
            let s = "HashMap in a string";
            let r = r#"HashMap in a raw string"#;
            let b = b"HashMap bytes";
            let real = HashMap::new();
        "##;
        let ids = idents(src);
        assert_eq!(ids.iter().filter(|&&i| i == "HashMap").count(), 1);
    }

    #[test]
    fn positions_are_one_based_and_char_counted() {
        let l = lex("ab cd\n  ef");
        assert_eq!(l.tokens[0].text, "ab");
        assert_eq!((l.tokens[0].line, l.tokens[0].col), (1, 1));
        assert_eq!((l.tokens[1].line, l.tokens[1].col), (1, 4));
        assert_eq!((l.tokens[2].line, l.tokens[2].col), (2, 3));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'x'; let nl = '\\n'; }");
        let lifetimes: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        let chars: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Literal && t.text.starts_with('\''))
            .collect();
        assert_eq!(chars.len(), 2);
    }

    #[test]
    fn line_pragmas_parse() {
        let l = lex("// cim-lint: allow(wall-clock, hash-collection)\nfn f() {}");
        assert_eq!(l.pragmas.len(), 1);
        assert_eq!(l.pragmas[0].rules, vec!["wall-clock", "hash-collection"]);
        assert_eq!(l.pragmas[0].line, 1);
        assert_eq!(l.pragmas[0].scope, PragmaScope::Line);
    }

    #[test]
    fn file_pragmas_parse_and_tolerate_reasons() {
        let l = lex("// cim-lint: allow-file(panic-unwrap) — constructors assert valid shapes\n");
        assert_eq!(l.pragmas.len(), 1);
        assert_eq!(l.pragmas[0].scope, PragmaScope::File);
        assert_eq!(l.pragmas[0].rules, vec!["panic-unwrap"]);
    }

    #[test]
    fn non_pragma_comments_are_ignored() {
        let l = lex("// cim-lint: disallow(x)\n// cim-lint: allow()\n// nothing\n");
        assert!(l.pragmas.is_empty());
    }

    #[test]
    fn unterminated_forms_do_not_panic() {
        for src in ["\"abc", "r#\"abc", "/* abc", "'", "b'", "r#", "ident\u{85}"] {
            let _ = lex(src);
        }
    }

    #[test]
    fn raw_identifiers_scan_as_identifiers() {
        let ids = idents("let r#type = 1;");
        assert!(ids.contains(&"type"));
    }
}
