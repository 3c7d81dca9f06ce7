//! A lightweight Rust tokenizer — just enough lexical structure for the
//! lint rules: identifiers, punctuation and literals with line numbers,
//! comments kept separately (they carry the waiver syntax), string/char
//! contents never confused for code.
//!
//! This is deliberately not a parser. The rules pattern-match short token
//! sequences (`Instant :: now`, `name . keys (`), which is robust against
//! formatting and cheap to maintain, at the cost of being name-based
//! rather than type-based — see the README's "Static analysis" section for
//! the resulting waiver etiquette.

/// One lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Single punctuation character (`::` arrives as two `:` tokens).
    Punct(char),
    /// String/char/numeric literal. `text` keeps the raw contents.
    Literal,
    /// A lifetime such as `'a` (distinguished from char literals).
    Lifetime,
}

/// A token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

impl Tok {
    /// True iff this is an identifier with exactly this text.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True iff this is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// A comment with the line it starts on (`//…` and `/*…*/` alike, markers
/// stripped are NOT — the raw text including `//` is kept).
#[derive(Debug, Clone)]
pub struct Comment {
    pub text: String,
    pub line: u32,
}

/// Tokenized file: code tokens plus the comment stream.
#[derive(Debug, Default)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
}

/// Tokenizes `src`. Unterminated constructs are tolerated (the tail is
/// swallowed into the open literal/comment) — lint rules must not panic on
/// fixture or in-progress code.
pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    let n = b.len();

    let count_lines = |s: &[char]| s.iter().filter(|&&c| c == '\n').count() as u32;

    while i < n {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && b[i + 1] == '/' => {
                let start = i;
                while i < n && b[i] != '\n' {
                    i += 1;
                }
                out.comments.push(Comment {
                    text: b[start..i].iter().collect(),
                    line,
                });
            }
            '/' if i + 1 < n && b[i + 1] == '*' => {
                let (start, start_line) = (i, line);
                let mut depth = 1;
                i += 2;
                while i < n && depth > 0 {
                    if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                out.comments.push(Comment {
                    text: b[start..i].iter().collect(),
                    line: start_line,
                });
            }
            '"' => {
                let start_line = line;
                let mut text = String::new();
                i += 1;
                while i < n && b[i] != '"' {
                    if b[i] == '\\' && i + 1 < n {
                        text.push(b[i]);
                        text.push(b[i + 1]);
                        line += count_lines(&b[i..i + 2]);
                        i += 2;
                    } else {
                        if b[i] == '\n' {
                            line += 1;
                        }
                        text.push(b[i]);
                        i += 1;
                    }
                }
                i += 1; // closing quote
                out.toks.push(Tok {
                    kind: TokKind::Literal,
                    text,
                    line: start_line,
                });
            }
            'r' | 'b' if raw_string_start(&b, i).is_some() => {
                let (body_start, hashes) = raw_string_start(&b, i).unwrap();
                let start_line = line;
                let closer: String = std::iter::once('"')
                    .chain("#".repeat(hashes).chars())
                    .collect();
                let closer: Vec<char> = closer.chars().collect();
                let mut j = body_start;
                while j < n && b[j..].len() >= closer.len() && b[j..j + closer.len()] != closer[..]
                {
                    if b[j] == '\n' {
                        line += 1;
                    }
                    j += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Literal,
                    text: b[body_start..j.min(n)].iter().collect(),
                    line: start_line,
                });
                i = (j + closer.len()).min(n);
            }
            '\'' => {
                // Lifetime (`'a`, `'static`) vs char literal (`'x'`, `'\n'`).
                let is_lifetime = i + 1 < n
                    && (b[i + 1].is_alphabetic() || b[i + 1] == '_')
                    && !(i + 2 < n && b[i + 2] == '\'');
                if is_lifetime {
                    let start = i + 1;
                    i += 1;
                    while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                        i += 1;
                    }
                    out.toks.push(Tok {
                        kind: TokKind::Lifetime,
                        text: b[start..i].iter().collect(),
                        line,
                    });
                } else {
                    let start_line = line;
                    let mut text = String::new();
                    i += 1;
                    while i < n && b[i] != '\'' {
                        if b[i] == '\\' && i + 1 < n {
                            text.push(b[i]);
                            text.push(b[i + 1]);
                            i += 2;
                        } else {
                            if b[i] == '\n' {
                                line += 1;
                            }
                            text.push(b[i]);
                            i += 1;
                        }
                    }
                    i += 1;
                    out.toks.push(Tok {
                        kind: TokKind::Literal,
                        text,
                        line: start_line,
                    });
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Ident,
                    text: b[start..i].iter().collect(),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                // Loose number scan: digits, `_`, `.` (not `..`), exponent
                // signs and type suffixes — precision is irrelevant to the
                // rules, not splitting mid-literal is what matters.
                while i < n
                    && (b[i].is_alphanumeric()
                        || b[i] == '_'
                        || (b[i] == '.' && i + 1 < n && b[i + 1].is_ascii_digit()))
                {
                    i += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Literal,
                    text: b[start..i].iter().collect(),
                    line,
                });
            }
            other => {
                out.toks.push(Tok {
                    kind: TokKind::Punct(other),
                    text: other.to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

/// If position `i` starts a raw (byte) string (`r"`, `r#"`, `br##"` …),
/// returns `(index of first body char, hash count)`.
fn raw_string_start(b: &[char], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    if b[j] == 'b' {
        j += 1;
    }
    if j >= b.len() || b[j] != 'r' {
        return None;
    }
    j += 1;
    let mut hashes = 0;
    while j < b.len() && b[j] == '#' {
        hashes += 1;
        j += 1;
    }
    if j < b.len() && b[j] == '"' {
        Some((j + 1, hashes))
    } else {
        None
    }
}

/// Token-index ranges (half-open) of `#[cfg(test)] mod … { … }` bodies.
/// Rules that lint only shipping code subtract these ranges; test modules
/// get to `unwrap` and to iterate hash maps in order-independent asserts.
pub fn cfg_test_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i + 6 < toks.len() {
        let is_cfg_test = toks[i].is_punct('#')
            && toks[i + 1].is_punct('[')
            && toks[i + 2].is_ident("cfg")
            && toks[i + 3].is_punct('(')
            && toks[i + 4].is_ident("test")
            && toks[i + 5].is_punct(')')
            && toks[i + 6].is_punct(']');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Skip any further attributes, then require an item with a brace
        // body (`mod tests { … }`, or a `#[cfg(test)] fn`/`impl`).
        let mut j = i + 7;
        while j + 1 < toks.len() && toks[j].is_punct('#') && toks[j + 1].is_punct('[') {
            let mut depth = 0;
            j += 1;
            while j < toks.len() {
                if toks[j].is_punct('[') {
                    depth += 1;
                } else if toks[j].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        // Find the opening brace of the item (stop at `;` — e.g.
        // `#[cfg(test)] use …;` has no body to skip).
        let mut k = j;
        let mut open = None;
        while k < toks.len() {
            if toks[k].is_punct('{') {
                open = Some(k);
                break;
            }
            if toks[k].is_punct(';') {
                break;
            }
            k += 1;
        }
        let Some(open) = open else {
            i = k + 1;
            continue;
        };
        let mut depth = 0;
        let mut end = toks.len();
        for (idx, t) in toks.iter().enumerate().skip(open) {
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    end = idx + 1;
                    break;
                }
            }
        }
        ranges.push((i, end));
        i = end;
    }
    ranges
}

/// True iff token index `i` falls inside any of `ranges`.
pub fn in_ranges(ranges: &[(usize, usize)], i: usize) -> bool {
    ranges.iter().any(|&(a, b)| (a..b).contains(&i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_do_not_leak_tokens() {
        let l = lex("let x = \"HashMap // not a comment\"; // real comment\nfoo();");
        assert!(l
            .toks
            .iter()
            .all(|t| t.kind != TokKind::Ident || t.text != "HashMap"));
        assert_eq!(l.comments.len(), 1);
        assert!(l.comments[0].text.contains("real comment"));
        assert!(l.toks.iter().any(|t| t.is_ident("foo") && t.line == 2));
    }

    #[test]
    fn literal_contents_are_searchable() {
        let l = lex("emit(\"dominance_checks\")");
        assert!(l
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Literal && t.text == "dominance_checks"));
    }

    #[test]
    fn raw_strings_and_chars_and_lifetimes() {
        let l = lex("r#\"no \" escape\"# 'a' '\\n' fn f<'a>(x: &'a str) {}");
        assert!(l
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Literal && t.text.contains("escape")));
        assert_eq!(
            l.toks
                .iter()
                .filter(|t| t.kind == TokKind::Lifetime)
                .count(),
            2
        );
        assert!(l.toks.iter().any(|t| t.is_ident("str")));
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* outer /* inner */ still comment */ ident");
        assert_eq!(l.comments.len(), 1);
        assert_eq!(l.toks.len(), 1);
        assert!(l.toks[0].is_ident("ident"));
    }

    #[test]
    fn cfg_test_mod_is_ranged_out() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n fn t() { y.unwrap(); }\n}\nfn tail() {}";
        let l = lex(src);
        let ranges = cfg_test_ranges(&l.toks);
        assert_eq!(ranges.len(), 1);
        let outside: Vec<&str> = l
            .toks
            .iter()
            .enumerate()
            .filter(|(i, t)| !in_ranges(&ranges, *i) && t.kind == TokKind::Ident)
            .map(|(_, t)| t.text.as_str())
            .collect();
        assert!(outside.contains(&"live") && outside.contains(&"tail"));
        assert!(!outside.contains(&"y"));
        assert_eq!(outside.iter().filter(|s| **s == "unwrap").count(), 1);
    }
}
