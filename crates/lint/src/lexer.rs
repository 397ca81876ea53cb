//! A hand-rolled Rust lexer, just deep enough for lint rules.
//!
//! The rules in [`crate::rules`] match identifier sequences (`env :: var`,
//! `HashMap`, `unsafe`, …), so the only hard requirement on the lexer is
//! that those sequences are **never** reported from inside places where
//! they are inert: string literals, raw strings, byte strings, char
//! literals, and (nested) comments. Everything else — numbers, operators,
//! generics — can be tokenized loosely.
//!
//! No `syn`: the vendor/ tree is offline API stubs and this crate stays
//! dependency-free by design (see crates/lint/Cargo.toml).

/// What a token is, as coarsely as the rules need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`unsafe`, `HashMap`, `env`, …).
    Ident,
    /// Single punctuation character (`:`, `!`, `#`, `{`, …).
    Punct,
    /// String literal of any flavour (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Char or byte-char literal (`'x'`, `b'\n'`).
    Char,
    /// Lifetime (`'static`, `'a`).
    Lifetime,
    /// Numeric literal (loosely lexed; rules never match numbers).
    Num,
}

/// One lexed token with its 1-indexed source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// Coarse token class (see [`TokenKind`]).
    pub kind: TokenKind,
    /// Token text. For [`TokenKind::Str`] this is the literal's *content*
    /// (delimiters stripped) so lock-discipline can read the entries of a
    /// `LOCK_ORDER` table; for puncts it is the single character.
    pub text: String,
    /// Line the token starts on (1-indexed).
    pub line: usize,
}

/// One comment with its line span and undelimited text. Contiguous `//`
/// line comments merge into a single block (newline-joined text), so a
/// multi-line lint directive or SAFETY note reads as one unit whose
/// `end_line` sits directly above the code it covers.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Text without the `//`/`/*`/`*/` delimiters; merged line comments
    /// are newline-joined.
    pub text: String,
    /// Line the comment starts on (1-indexed).
    pub line: usize,
    /// Line the comment ends on.
    pub end_line: usize,
    /// Whether this is a `/* … */` block comment (never merged).
    pub block: bool,
}

/// A lexed source file: token stream, comments, and `#[cfg(test)]`-module
/// line ranges (so determinism rules can exempt test scaffolding).
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order (comments excluded).
    pub tokens: Vec<Token>,
    /// Comments in source order (lint directives and SAFETY notes live here).
    pub comments: Vec<Comment>,
    /// Inclusive `(start_line, end_line)` spans of `#[cfg(test)] mod … { … }`.
    pub test_regions: Vec<(usize, usize)>,
}

impl Lexed {
    /// Whether `line` falls inside a `#[cfg(test)]` module.
    pub fn in_test_region(&self, line: usize) -> bool {
        self.test_regions.iter().any(|&(s, e)| s <= line && line <= e)
    }
}

/// Lex `src` into tokens + comments. Never fails: unterminated literals
/// or comments are closed at end-of-file (the Rust compiler is the
/// authority on well-formedness; the lint only needs consistent scanning).
pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut i = 0;
    let mut line = 1;
    let mut out = Lexed::default();

    macro_rules! bump {
        () => {{
            if b[i] == '\n' {
                line += 1;
            }
            i += 1;
        }};
    }

    while i < n {
        let c = b[i];
        // Whitespace.
        if c.is_whitespace() {
            bump!();
            continue;
        }
        // Line comment (also `///` and `//!` docs).
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            let start_line = line;
            let mut text = String::new();
            i += 2;
            while i < n && b[i] != '\n' {
                text.push(b[i]);
                i += 1;
            }
            // Merge with a line comment ending on the line directly above
            // (and nothing lexed in between on that line span).
            match out.comments.last_mut() {
                Some(prev)
                    if !prev.block
                        && prev.end_line + 1 == start_line
                        && out.tokens.last().is_none_or(|t| t.line < prev.line) =>
                {
                    prev.text.push('\n');
                    prev.text.push_str(&text);
                    prev.end_line = start_line;
                }
                _ => out.comments.push(Comment {
                    text,
                    line: start_line,
                    end_line: start_line,
                    block: false,
                }),
            }
            continue;
        }
        // Block comment, nesting honoured.
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let start_line = line;
            let mut depth = 1usize;
            let mut text = String::new();
            i += 2;
            while i < n && depth > 0 {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    text.push_str("/*");
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    if depth > 0 {
                        text.push_str("*/");
                    }
                    i += 2;
                } else {
                    if b[i] == '\n' {
                        line += 1;
                    }
                    text.push(b[i]);
                    i += 1;
                }
            }
            out.comments.push(Comment { text, line: start_line, end_line: line, block: true });
            continue;
        }
        // Raw strings: r"…", r#"…"#, br"…", br#"…"# (any # count).
        if (c == 'r' || c == 'b') && raw_string_at(&b, i) {
            let start_line = line;
            let mut j = i + 1; // past 'r' (or 'b')
            if b[i] == 'b' {
                j += 1; // past the 'r' of "br"
            }
            let mut hashes = 0usize;
            while j < n && b[j] == '#' {
                hashes += 1;
                j += 1;
            }
            j += 1; // past opening quote
            let content_start = j;
            // Find `"` followed by `hashes` hash marks.
            while j < n {
                if b[j] == '"' && (1..=hashes).all(|k| j + k < n && b[j + k] == '#') {
                    break;
                }
                if b[j] == '\n' {
                    line += 1;
                }
                j += 1;
            }
            let text: String = b[content_start..j.min(n)].iter().collect();
            out.tokens.push(Token { kind: TokenKind::Str, text, line: start_line });
            i = (j + 1 + hashes).min(n);
            continue;
        }
        // Plain / byte strings with escapes.
        if c == '"' || (c == 'b' && i + 1 < n && b[i + 1] == '"') {
            let start_line = line;
            let mut j = if c == 'b' { i + 2 } else { i + 1 };
            let content_start = j;
            while j < n && b[j] != '"' {
                if b[j] == '\\' && j + 1 < n {
                    if b[j + 1] == '\n' {
                        line += 1;
                    }
                    j += 2;
                    continue;
                }
                if b[j] == '\n' {
                    line += 1;
                }
                j += 1;
            }
            let text: String = b[content_start..j.min(n)].iter().collect();
            out.tokens.push(Token { kind: TokenKind::Str, text, line: start_line });
            i = (j + 1).min(n);
            continue;
        }
        // Byte char b'x'.
        if c == 'b' && i + 1 < n && b[i + 1] == '\'' {
            let start_line = line;
            let j = skip_char_literal(&b, i + 1);
            out.tokens.push(Token { kind: TokenKind::Char, text: String::new(), line: start_line });
            i = j;
            continue;
        }
        // Lifetime vs char literal.
        if c == '\'' {
            let is_lifetime = i + 1 < n
                && (b[i + 1].is_alphabetic() || b[i + 1] == '_')
                && !char_literal_at(&b, i);
            if is_lifetime {
                let mut j = i + 1;
                let mut text = String::from("'");
                while j < n && is_ident_char(b[j]) {
                    text.push(b[j]);
                    j += 1;
                }
                out.tokens.push(Token { kind: TokenKind::Lifetime, text, line });
                i = j;
            } else {
                let j = skip_char_literal(&b, i);
                out.tokens.push(Token { kind: TokenKind::Char, text: String::new(), line });
                i = j;
            }
            continue;
        }
        // Identifier / keyword.
        if c.is_alphabetic() || c == '_' {
            let mut j = i;
            let mut text = String::new();
            while j < n && is_ident_char(b[j]) {
                text.push(b[j]);
                j += 1;
            }
            out.tokens.push(Token { kind: TokenKind::Ident, text, line });
            i = j;
            continue;
        }
        // Number (loose: digits, hex/bin prefixes, suffixes, exponents).
        if c.is_ascii_digit() {
            let mut j = i;
            let mut text = String::new();
            while j < n
                && (is_ident_char(b[j]) || (b[j] == '.' && j + 1 < n && b[j + 1].is_ascii_digit()))
            {
                text.push(b[j]);
                j += 1;
            }
            out.tokens.push(Token { kind: TokenKind::Num, text, line });
            i = j;
            continue;
        }
        // Single punctuation char.
        out.tokens.push(Token { kind: TokenKind::Punct, text: c.to_string(), line });
        bump!();
    }

    out.test_regions = find_test_regions(&out.tokens);
    out
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Is there a raw string (`r"`, `r#`, `br"`, `br#`) starting at `i`?
fn raw_string_at(b: &[char], i: usize) -> bool {
    let mut j = i;
    if b[j] == 'b' {
        j += 1;
        if j >= b.len() || b[j] != 'r' {
            return false;
        }
    }
    if b[j] != 'r' {
        return false;
    }
    j += 1;
    while j < b.len() && b[j] == '#' {
        j += 1;
    }
    j < b.len() && b[j] == '"' && {
        // `r` followed by quote/hashes only counts when `r` is not the tail
        // of a longer identifier (e.g. `var"` cannot happen, but `_r"` could
        // in theory); the caller only probes at token starts, so this holds.
        true
    }
}

/// Is `'` at `i` a char literal (vs a lifetime)? True when a closing quote
/// appears right after one (possibly escaped) char.
fn char_literal_at(b: &[char], i: usize) -> bool {
    // 'x' → quote, one char, quote.
    if i + 2 < b.len() && b[i + 1] != '\\' && b[i + 2] == '\'' {
        return true;
    }
    // '\n' and friends → quote, backslash, …
    b.get(i + 1) == Some(&'\\')
}

/// Skip a char literal starting at the opening quote `b[i] == '\''`,
/// returning the index just past the closing quote.
fn skip_char_literal(b: &[char], i: usize) -> usize {
    let n = b.len();
    let mut j = i + 1;
    if j < n && b[j] == '\\' {
        j += 2; // escape + escaped char (covers \', \\, \n; \u{…} handled below)
        while j < n && b[j] != '\'' {
            j += 1;
        }
    } else if j < n {
        j += 1;
    }
    (j + 1).min(n) // past closing quote
}

/// Find `#[cfg(test)] … mod name { … }` spans so rules can exempt test
/// scaffolding (assertion bookkeeping legitimately uses `HashMap`,
/// `println!`, wall-clock timers).
fn find_test_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let t = |k: usize| tokens.get(k);
    let is = |k: usize, s: &str| t(k).is_some_and(|tok| tok.text == s);
    let mut i = 0;
    while i < tokens.len() {
        // Match `# [ cfg ( test ) ]`.
        if is(i, "#")
            && is(i + 1, "[")
            && is(i + 2, "cfg")
            && is(i + 3, "(")
            && is(i + 4, "test")
            && is(i + 5, ")")
            && is(i + 6, "]")
        {
            let mut j = i + 7;
            // Skip further attributes `# [ … ]` (balanced brackets).
            while is(j, "#") && is(j + 1, "[") {
                let mut depth = 0usize;
                j += 1;
                while let Some(tok) = t(j) {
                    if tok.text == "[" {
                        depth += 1;
                    } else if tok.text == "]" {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
            }
            // Optional visibility: `pub` or `pub ( … )`.
            if is(j, "pub") {
                j += 1;
                if is(j, "(") {
                    while let Some(tok) = t(j) {
                        let done = tok.text == ")";
                        j += 1;
                        if done {
                            break;
                        }
                    }
                }
            }
            if is(j, "mod") {
                // `mod name {` — find the block's matching close brace.
                let start_line = tokens[i].line;
                let mut k = j + 1;
                while let Some(tok) = t(k) {
                    if tok.text == "{" {
                        break;
                    }
                    if tok.text == ";" {
                        // `mod name;` — out-of-line test module, no span here.
                        k = usize::MAX;
                        break;
                    }
                    k += 1;
                }
                if k != usize::MAX && t(k).is_some() {
                    let mut depth = 0usize;
                    let mut end_line = tokens[k].line;
                    while let Some(tok) = t(k) {
                        if tok.text == "{" {
                            depth += 1;
                        } else if tok.text == "}" {
                            depth -= 1;
                            if depth == 0 {
                                end_line = tok.line;
                                break;
                            }
                        }
                        end_line = tok.line;
                        k += 1;
                    }
                    regions.push((start_line, end_line));
                    i = k;
                }
            }
        }
        i += 1;
    }
    regions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.clone())
            .collect()
    }

    #[test]
    fn identifiers_inside_strings_are_not_tokens() {
        let src = r##"let x = "HashMap in a string"; let y = r#"env::var"#;"##;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()), "{ids:?}");
        assert!(!ids.contains(&"env".to_string()), "{ids:?}");
        assert!(ids.contains(&"let".to_string()));
    }

    #[test]
    fn nested_block_comments_are_one_comment() {
        let src = "/* outer /* inner HashMap */ tail */ fn f() {}";
        let l = lex(src);
        assert_eq!(l.comments.len(), 1);
        assert!(l.comments[0].text.contains("inner HashMap"));
        assert!(idents(src).contains(&"fn".to_string()));
        assert!(!idents(src).contains(&"HashMap".to_string()));
    }

    #[test]
    fn char_literals_and_lifetimes_disambiguate() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' } // 'y is a lifetime";
        let l = lex(src);
        let lifetimes: Vec<_> = l.tokens.iter().filter(|t| t.kind == TokenKind::Lifetime).collect();
        assert_eq!(lifetimes.len(), 2, "{lifetimes:?}");
        assert_eq!(l.tokens.iter().filter(|t| t.kind == TokenKind::Char).count(), 1);
    }

    #[test]
    fn escaped_quote_in_char_does_not_derail() {
        let src = r"let q = '\''; let s = 'n'; let x = HashMap::new();";
        assert!(idents(src).contains(&"HashMap".to_string()));
    }

    #[test]
    fn raw_string_with_hashes_and_inner_quotes() {
        let src = r###"let s = r#"quote " inside SystemTime"#; let t = Instant;"###;
        let ids = idents(src);
        assert!(!ids.contains(&"SystemTime".to_string()));
        assert!(ids.contains(&"Instant".to_string()));
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let src = "let a = \"line\nline\nline\";\nlet b = Foo;";
        let l = lex(src);
        let foo = l.tokens.iter().find(|t| t.text == "Foo").unwrap();
        assert_eq!(foo.line, 4);
    }

    #[test]
    fn cfg_test_regions_are_found() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}";
        let l = lex(src);
        assert_eq!(l.test_regions, vec![(2, 5)]);
        assert!(l.in_test_region(4));
        assert!(!l.in_test_region(6));
    }

    #[test]
    fn comments_carry_their_lines() {
        let src = "// first\nfn f() {}\n// lint: allow(x) — reason\nfn g() {}";
        let l = lex(src);
        assert_eq!(l.comments.len(), 2);
        assert_eq!(l.comments[1].line, 3);
        assert!(l.comments[1].text.contains("lint: allow"));
    }
}
