//! A lightweight Rust lexer.
//!
//! Produces just enough structure for the lint rules: identifier and
//! punctuation tokens with line numbers, literals collapsed to opaque
//! tokens (their contents can never trigger a rule), and comments
//! surfaced separately so `lint:` directives can be read from them.
//!
//! This is deliberately **not** a full Rust grammar — no `syn`, per the
//! workspace policy. The subset it understands is exactly what the
//! rules need:
//!
//! * line (`//`) and block (`/* */`, nested) comments;
//! * string / raw-string / byte-string / char literals (so a
//!   `"HashMap"` inside a string never counts as a use of `HashMap`);
//! * the `'a` lifetime vs `'a'` char-literal ambiguity;
//! * identifiers (including raw `r#ident`) and single-char punctuation.

/// What kind of token a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`HashMap`, `fn`, `r#type`, ...).
    Ident,
    /// One punctuation character (`{`, `.`, `!`, `:`, ...).
    Punct,
    /// A string / char / byte / numeric literal (contents opaque).
    Literal,
    /// A lifetime (`'a`). Kept distinct so it is never confused with
    /// punctuation or a char literal.
    Lifetime,
}

/// One lexed token.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token kind.
    pub kind: TokKind,
    /// The token text; empty for [`TokKind::Literal`] (contents opaque).
    pub text: String,
    /// 1-based source line of the token's first character.
    pub line: u32,
}

impl Token {
    /// True when the token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True when the token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.as_bytes()[0] == c as u8
    }
}

/// One comment, with its text stripped of the comment markers.
#[derive(Debug, Clone, PartialEq)]
pub struct Comment {
    /// The comment body (everything after `//`, `//!`, `///` or between
    /// `/*`/`*/`), untrimmed.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
    /// True when the comment had code before it on the same line
    /// (a trailing comment), false when it stands alone.
    pub trailing: bool,
}

/// The result of lexing one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

/// Lexes Rust source. Never fails: unterminated constructs consume the
/// rest of the input, which is the right degradation for a linter.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    // Whether a code token has been seen on the current line (to mark
    // comments as trailing).
    let mut code_on_line = false;

    macro_rules! bump_lines {
        ($s:expr) => {
            for &c in $s {
                if c == b'\n' {
                    line += 1;
                }
            }
        };
    }

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                code_on_line = false;
                i += 1;
            }
            c if c.is_ascii_whitespace() => {
                i += 1;
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i + 2;
                let mut j = start;
                while j < b.len() && b[j] != b'\n' {
                    j += 1;
                }
                // Strip doc-comment markers (`///`, `//!`) so directive
                // parsing sees the same body everywhere.
                let mut body_start = start;
                if body_start < j && (b[body_start] == b'/' || b[body_start] == b'!') {
                    body_start += 1;
                }
                out.comments.push(Comment {
                    text: src[body_start..j].to_string(),
                    line,
                    trailing: code_on_line,
                });
                i = j;
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let start_line = line;
                let trailing = code_on_line;
                let mut depth = 1usize;
                let mut j = i + 2;
                let body_start = j;
                while j < b.len() && depth > 0 {
                    if b[j] == b'\n' {
                        line += 1;
                        j += 1;
                    } else if b[j] == b'/' && j + 1 < b.len() && b[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if b[j] == b'*' && j + 1 < b.len() && b[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                let body_end = if depth == 0 { j - 2 } else { j };
                let mut body = &src[body_start..body_end];
                if let Some(stripped) = body.strip_prefix(['*', '!']) {
                    body = stripped;
                }
                out.comments.push(Comment { text: body.to_string(), line: start_line, trailing });
                i = j;
            }
            b'"' => {
                let (j, _) = scan_string(b, i);
                let tok_line = line;
                bump_lines!(&b[i..j]);
                out.tokens.push(Token {
                    kind: TokKind::Literal,
                    text: String::new(),
                    line: tok_line,
                });
                code_on_line = true;
                i = j;
            }
            b'r' | b'b' if starts_raw_or_byte_string(b, i) => {
                let (j, _) = scan_raw_or_byte(b, i);
                let tok_line = line;
                bump_lines!(&b[i..j]);
                out.tokens.push(Token { kind: TokKind::Literal, text: String::new(), line: tok_line });
                code_on_line = true;
                i = j;
            }
            b'\'' => {
                // Lifetime or char literal.
                if is_char_literal(b, i) {
                    let j = scan_char_literal(b, i);
                    out.tokens.push(Token { kind: TokKind::Literal, text: String::new(), line });
                    code_on_line = true;
                    i = j;
                } else {
                    let mut j = i + 1;
                    while j < b.len() && (b[j] == b'_' || b[j].is_ascii_alphanumeric()) {
                        j += 1;
                    }
                    out.tokens.push(Token {
                        kind: TokKind::Lifetime,
                        text: src[i..j].to_string(),
                        line,
                    });
                    code_on_line = true;
                    i = j;
                }
            }
            c if c == b'_' || c.is_ascii_alphabetic() => {
                let start = i;
                let mut j = i;
                // Raw identifier `r#ident`.
                if c == b'r' && j + 1 < b.len() && b[j + 1] == b'#' {
                    j += 2;
                }
                while j < b.len() && (b[j] == b'_' || b[j].is_ascii_alphanumeric()) {
                    j += 1;
                }
                let text = src[start..j].trim_start_matches("r#").to_string();
                out.tokens.push(Token { kind: TokKind::Ident, text, line });
                code_on_line = true;
                i = j;
            }
            c if c.is_ascii_digit() => {
                let mut j = i;
                // Numbers, including underscores, suffixes, exponents,
                // hex/oct/bin; a coarse scan is fine (contents opaque).
                while j < b.len()
                    && (b[j].is_ascii_alphanumeric() || b[j] == b'_' || b[j] == b'.')
                {
                    // Don't swallow `..` range punctuation or a method
                    // call on a literal (`1.max(2)`).
                    if b[j] == b'.'
                        && j + 1 < b.len()
                        && (b[j + 1] == b'.' || b[j + 1].is_ascii_alphabetic())
                    {
                        break;
                    }
                    j += 1;
                }
                out.tokens.push(Token { kind: TokKind::Literal, text: String::new(), line });
                code_on_line = true;
                i = j;
            }
            _ => {
                out.tokens.push(Token {
                    kind: TokKind::Punct,
                    text: (c as char).to_string(),
                    line,
                });
                code_on_line = true;
                i += 1;
            }
        }
    }
    out
}

/// Scans a regular `"..."` string starting at `b[i] == '"'`; returns
/// the index one past the closing quote.
fn scan_string(b: &[u8], i: usize) -> (usize, ()) {
    let mut j = i + 1;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'"' => return (j + 1, ()),
            _ => j += 1,
        }
    }
    (j, ())
}

/// True when `b[i..]` starts a raw string (`r"`, `r#"`), byte string
/// (`b"`, `br"`, `br#"`) or byte char (`b'`).
fn starts_raw_or_byte_string(b: &[u8], i: usize) -> bool {
    let rest = &b[i..];
    if rest.starts_with(b"r\"") || rest.starts_with(b"r#") && raw_hashes_then_quote(rest, 1) {
        return true;
    }
    if rest.starts_with(b"b\"") || rest.starts_with(b"b'") {
        return true;
    }
    if rest.starts_with(b"br") {
        return rest[2..].first() == Some(&b'"') || raw_hashes_then_quote(rest, 2);
    }
    false
}

/// True when `rest[from..]` is `#...#"` (raw-string opener hashes).
fn raw_hashes_then_quote(rest: &[u8], from: usize) -> bool {
    let mut k = from;
    while k < rest.len() && rest[k] == b'#' {
        k += 1;
    }
    k > from && k < rest.len() && rest[k] == b'"'
}

/// Scans a raw/byte string or byte char starting at `i`; returns the
/// index one past its end.
fn scan_raw_or_byte(b: &[u8], i: usize) -> (usize, ()) {
    let mut j = i;
    // Skip the `b` / `r` / `br` prefix.
    if b[j] == b'b' {
        j += 1;
    }
    if j < b.len() && b[j] == b'r' {
        j += 1;
        // Raw string: count hashes.
        let mut hashes = 0usize;
        while j < b.len() && b[j] == b'#' {
            hashes += 1;
            j += 1;
        }
        if j < b.len() && b[j] == b'"' {
            j += 1;
            // Find `"` followed by `hashes` hashes.
            while j < b.len() {
                if b[j] == b'"' {
                    let mut k = j + 1;
                    let mut seen = 0usize;
                    while k < b.len() && b[k] == b'#' && seen < hashes {
                        k += 1;
                        seen += 1;
                    }
                    if seen == hashes {
                        return (k, ());
                    }
                }
                j += 1;
            }
            return (j, ());
        }
        return (j, ());
    }
    if j < b.len() && b[j] == b'"' {
        return scan_string(b, j);
    }
    if j < b.len() && b[j] == b'\'' {
        return (scan_char_literal(b, j), ());
    }
    (j + 1, ())
}

/// Heuristic for the `'` ambiguity: a char literal is `'x'` or `'\..'`;
/// anything else (`'a` followed by non-quote) is a lifetime.
fn is_char_literal(b: &[u8], i: usize) -> bool {
    if i + 1 >= b.len() {
        return false;
    }
    if b[i + 1] == b'\\' {
        return true;
    }
    // `'c'` — a quote two ahead closes a char literal. A lifetime is
    // never a single character followed by `'`.
    if i + 2 < b.len() && b[i + 1] != b'\'' && b[i + 2] == b'\'' {
        return true;
    }
    false
}

/// Scans a char literal starting at `b[i] == '\''`; returns the index
/// one past the closing quote.
fn scan_char_literal(b: &[u8], i: usize) -> usize {
    let mut j = i + 1;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'\'' => return j + 1,
            b'\n' => return j, // malformed; stop at the line end
            _ => j += 1,
        }
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn idents_and_puncts() {
        let l = lex("use std::collections::HashMap;");
        let names = idents("use std::collections::HashMap;");
        assert_eq!(names, vec!["use", "std", "collections", "HashMap"]);
        assert!(l.tokens.iter().any(|t| t.is_punct(';')));
    }

    #[test]
    fn strings_are_opaque() {
        assert_eq!(idents(r#"let s = "HashMap::new()";"#), vec!["let", "s"]);
        assert_eq!(idents(r##"let s = r#"HashMap"# ;"##), vec!["let", "s"]);
        assert_eq!(idents(r#"let s = b"HashMap";"#), vec!["let", "s"]);
    }

    #[test]
    fn comments_are_captured_not_tokenized() {
        let l = lex("let x = 1; // HashMap here\n/* and\nHashMap there */ fn f() {}");
        assert!(l.tokens.iter().all(|t| !t.is_ident("HashMap")));
        assert_eq!(l.comments.len(), 2);
        assert!(l.comments[0].trailing);
        assert_eq!(l.comments[0].line, 1);
        assert!(!l.comments[1].trailing);
        assert_eq!(l.comments[1].line, 2);
        assert!(l.comments[1].text.contains("HashMap there"));
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* a /* b */ c */ fn f() {}");
        assert_eq!(l.comments.len(), 1);
        assert!(l.tokens.iter().any(|t| t.is_ident("fn")));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<_> =
            l.tokens.iter().filter(|t| t.kind == TokKind::Lifetime).collect();
        assert_eq!(lifetimes.len(), 2);
        let lits = l.tokens.iter().filter(|t| t.kind == TokKind::Literal).count();
        assert_eq!(lits, 2);
    }

    #[test]
    fn line_numbers_advance() {
        let l = lex("a\nb\n\nc");
        let lines: Vec<u32> = l.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn raw_identifiers_strip_the_prefix() {
        assert_eq!(idents("let r#type = 1;"), vec!["let", "type"]);
    }

    #[test]
    fn doc_comment_markers_stripped() {
        let l = lex("/// doc line\n//! inner doc\nfn f() {}");
        assert_eq!(l.comments[0].text.trim(), "doc line");
        assert_eq!(l.comments[1].text.trim(), "inner doc");
    }

    #[test]
    fn numeric_literals_do_not_eat_methods() {
        let names = idents("let x = 1.max(2); let y = 0..10;");
        assert!(names.contains(&"max".to_string()));
    }

    #[test]
    fn unterminated_string_consumes_rest() {
        let l = lex("let s = \"unterminated");
        assert_eq!(l.tokens.last().unwrap().kind, TokKind::Literal);
    }
}
