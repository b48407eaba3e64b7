//! A hand-rolled token-level Rust lexer.
//!
//! The linter's rules are all expressible over a flat token stream —
//! no parse tree is built.  The lexer's contract is therefore modest but
//! strict:
//!
//! 1. **Total**: it never panics, on any input (proptested).
//! 2. **Lossless**: the concatenation of every token's text is exactly
//!    the input (`tests/lexer_roundtrip.rs` round-trips arbitrary
//!    strings), so byte offsets, lines and columns are always exact.
//! 3. **Comment/string-safe**: rule patterns never fire inside comments,
//!    strings (including raw strings with any number of `#`s) or char
//!    literals, because those regions lex into single opaque tokens.
//!
//! Classification is deliberately approximate where precision does not
//! matter for the rules (keywords are plain [`TokenKind::Ident`]s,
//! multi-character operators are consecutive [`TokenKind::Punct`]s).

/// What a token is, at the granularity the rules need.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TokenKind {
    /// A run of whitespace.
    Whitespace,
    /// `// ...` (including `///` and `//!` doc comments), newline excluded.
    LineComment,
    /// `/* ... */`, nesting honoured; unterminated comments extend to EOF.
    BlockComment,
    /// An identifier or keyword: `[_a-zA-Z][_a-zA-Z0-9]*` (plus any
    /// alphabetic unicode start, so exotic input cannot derail the lexer).
    Ident,
    /// A lifetime such as `'a` or `'static`.
    Lifetime,
    /// A character or byte literal: `'x'`, `'\n'`, `b'x'`.
    CharLit,
    /// A string literal: `"..."`, `r"..."`, `r#"..."#`, `b"..."` etc.
    StrLit,
    /// A numeric literal, including suffixes: `42`, `0xff_u8`, `1.5e-3`.
    NumLit,
    /// One punctuation character that is not a delimiter.
    Punct(char),
    /// An opening delimiter: `(`, `[` or `{`.
    Open(char),
    /// A closing delimiter: `)`, `]` or `}`.
    Close(char),
    /// Any other character (stray unicode, invalid bytes): one per token.
    Unknown,
}

/// One lexed token: classification plus its exact span in the source.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// Byte offset of the first byte, inclusive.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line of the token's first byte.
    pub line: u32,
    /// 1-based column (in bytes) of the token's first byte.
    pub col: u32,
}

impl Token {
    /// The token's text within `src` (the source it was lexed from).
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        src.get(self.start..self.end).unwrap_or("")
    }

    /// True for tokens rules should skip: whitespace and comments.
    pub(crate) fn is_trivia(&self) -> bool {
        matches!(
            self.kind,
            TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
        )
    }
}

struct Cursor<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<char> {
        self.src.get(self.pos..).and_then(|s| s.chars().next())
    }

    fn peek_at(&self, offset: usize) -> Option<char> {
        self.src.get(self.pos..).and_then(|s| s.chars().nth(offset))
    }

    /// Advances one char, maintaining line/col bookkeeping.
    fn bump(&mut self) {
        if let Some(c) = self.peek() {
            self.pos += c.len_utf8();
            if c == '\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
        }
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(s))
    }
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Lexes `src` into a lossless token stream.  Never panics.
pub(crate) fn lex(src: &str) -> Vec<Token> {
    let mut cursor = Cursor {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut tokens = Vec::new();
    while cursor.pos < cursor.bytes.len() {
        let start = cursor.pos;
        let line = cursor.line;
        let col = cursor.col;
        let kind = next_kind(&mut cursor);
        // Defensive: every branch of `next_kind` advances, but if one ever
        // failed to, emit the char as Unknown rather than looping forever.
        if cursor.pos == start {
            cursor.bump();
            tokens.push(Token {
                kind: TokenKind::Unknown,
                start,
                end: cursor.pos,
                line,
                col,
            });
            continue;
        }
        tokens.push(Token {
            kind,
            start,
            end: cursor.pos,
            line,
            col,
        });
    }
    tokens
}

fn next_kind(c: &mut Cursor) -> TokenKind {
    let Some(first) = c.peek() else {
        return TokenKind::Unknown;
    };

    if first.is_whitespace() {
        while c.peek().is_some_and(char::is_whitespace) {
            c.bump();
        }
        return TokenKind::Whitespace;
    }

    if c.starts_with("//") {
        while c.peek().is_some_and(|ch| ch != '\n') {
            c.bump();
        }
        return TokenKind::LineComment;
    }

    if c.starts_with("/*") {
        c.bump();
        c.bump();
        let mut depth = 1usize;
        while depth > 0 {
            if c.starts_with("/*") {
                depth += 1;
                c.bump();
                c.bump();
            } else if c.starts_with("*/") {
                depth -= 1;
                c.bump();
                c.bump();
            } else if c.peek().is_some() {
                c.bump();
            } else {
                break; // unterminated: extend to EOF
            }
        }
        return TokenKind::BlockComment;
    }

    // Raw strings and byte literals: r"...", r#"..."#, br"...", b"...", b'x'.
    if first == 'r' || first == 'b' {
        if let Some(kind) = try_string_prefix(c) {
            return kind;
        }
    }

    if is_ident_start(first) {
        while c.peek().is_some_and(is_ident_continue) {
            c.bump();
        }
        return TokenKind::Ident;
    }

    if first == '\'' {
        return lex_quote(c);
    }

    if first == '"' {
        lex_string_body(c);
        return TokenKind::StrLit;
    }

    if first.is_ascii_digit() {
        lex_number(c);
        return TokenKind::NumLit;
    }

    match first {
        '(' | '[' | '{' => {
            c.bump();
            TokenKind::Open(first)
        }
        ')' | ']' | '}' => {
            c.bump();
            TokenKind::Close(first)
        }
        _ if first.is_ascii_punctuation() => {
            c.bump();
            TokenKind::Punct(first)
        }
        _ => {
            c.bump();
            TokenKind::Unknown
        }
    }
}

/// Handles `r`/`b`-prefixed literals; returns `None` when the prefix is
/// just the start of a plain identifier (`radius`, `block`).
fn try_string_prefix(c: &mut Cursor) -> Option<TokenKind> {
    let rest = c.src.get(c.pos..)?;
    let prefix_len = if rest.starts_with("br") || rest.starts_with("rb") {
        2
    } else {
        1
    };
    let after: &str = rest.get(prefix_len..)?;
    if after.starts_with('\'') && prefix_len == 1 && rest.starts_with('b') {
        // b'x' byte literal.
        c.bump(); // b
        return Some(lex_quote_as_char(c));
    }
    if after.starts_with('"') {
        for _ in 0..prefix_len {
            c.bump();
        }
        lex_string_body(c);
        return Some(TokenKind::StrLit);
    }
    if after.starts_with('#') {
        // Possible raw string: count the #s, require a quote after them.
        let hashes = after.chars().take_while(|&ch| ch == '#').count();
        if after.get(hashes..)?.starts_with('"') {
            for _ in 0..prefix_len + hashes {
                c.bump();
            }
            c.bump(); // opening quote
            let closer: String = std::iter::once('"')
                .chain("#".repeat(hashes).chars())
                .collect();
            while c.peek().is_some() && !c.starts_with(&closer) {
                c.bump();
            }
            for _ in 0..closer.len() {
                if c.peek().is_some() {
                    c.bump();
                }
            }
            return Some(TokenKind::StrLit);
        }
    }
    None
}

/// Lexes a `"`-delimited string body (cursor on the opening quote).
fn lex_string_body(c: &mut Cursor) {
    c.bump(); // opening quote
    loop {
        match c.peek() {
            None => break,
            Some('\\') => {
                c.bump();
                if c.peek().is_some() {
                    c.bump();
                }
            }
            Some('"') => {
                c.bump();
                break;
            }
            Some(_) => c.bump(),
        }
    }
}

/// Disambiguates lifetimes from char literals (cursor on the `'`).
fn lex_quote(c: &mut Cursor) -> TokenKind {
    match c.peek_at(1) {
        Some(next) if is_ident_start(next) => {
            // 'a could open 'a' (char) or 'a (lifetime): scan the ident,
            // then check for a closing quote.
            let mut lookahead = 2;
            while c.peek_at(lookahead).is_some_and(is_ident_continue) {
                lookahead += 1;
            }
            if c.peek_at(lookahead) == Some('\'') {
                lex_quote_as_char(c)
            } else {
                c.bump(); // '
                while c.peek().is_some_and(is_ident_continue) {
                    c.bump();
                }
                TokenKind::Lifetime
            }
        }
        _ => lex_quote_as_char(c),
    }
}

/// Lexes a char literal (cursor on the `'`), tolerant of malformed input:
/// scans to the closing quote or end of line.
fn lex_quote_as_char(c: &mut Cursor) -> TokenKind {
    c.bump(); // opening '
    loop {
        match c.peek() {
            None | Some('\n') => break,
            Some('\\') => {
                c.bump();
                if c.peek().is_some() {
                    c.bump();
                }
            }
            Some('\'') => {
                c.bump();
                break;
            }
            Some(_) => c.bump(),
        }
    }
    TokenKind::CharLit
}

/// Lexes a numeric literal (cursor on the first digit).
fn lex_number(c: &mut Cursor) {
    // Integer part (covers 0x/0b/0o digits and `_` separators).
    let radix_chars = |ch: char| ch.is_ascii_alphanumeric() || ch == '_';
    while c.peek().is_some_and(radix_chars) {
        c.bump();
    }
    // Fractional part: only consume `.` when a digit follows, so `1.max()`
    // keeps its method call and ranges like `0..n` stay punctuation.
    if c.peek() == Some('.') && c.peek_at(1).is_some_and(|ch| ch.is_ascii_digit()) {
        c.bump();
        while c.peek().is_some_and(radix_chars) {
            c.bump();
        }
    }
    // Exponent sign (the `e`/`E` itself was consumed by radix_chars).
    if c.src[..c.pos].ends_with(['e', 'E'])
        && c.peek().is_some_and(|ch| ch == '+' || ch == '-')
        && c.peek_at(1).is_some_and(|ch| ch.is_ascii_digit())
    {
        c.bump();
        while c.peek().is_some_and(radix_chars) {
            c.bump();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn roundtrip(src: &str) -> Vec<Token> {
        let tokens = lex(src);
        let rebuilt: String = tokens.iter().map(|t| t.text(src)).collect();
        assert_eq!(rebuilt, src, "lexer must be lossless");
        tokens
    }

    fn kinds(src: &str) -> Vec<TokenKind> {
        roundtrip(src)
            .into_iter()
            .filter(|t| !t.is_trivia())
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn idents_keywords_and_calls() {
        let k = kinds("fn main() { foo.unwrap(); }");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident,
                TokenKind::Ident,
                TokenKind::Open('('),
                TokenKind::Close(')'),
                TokenKind::Open('{'),
                TokenKind::Ident,
                TokenKind::Punct('.'),
                TokenKind::Ident,
                TokenKind::Open('('),
                TokenKind::Close(')'),
                TokenKind::Punct(';'),
                TokenKind::Close('}'),
            ]
        );
    }

    #[test]
    fn comments_are_opaque() {
        let k = kinds("// foo.unwrap()\n/* panic!() /* nested */ */ x");
        assert_eq!(k, vec![TokenKind::Ident]);
    }

    #[test]
    fn strings_are_opaque() {
        let k = kinds(r##"let s = "a.unwrap()"; let r = r#"panic!()"#;"##);
        assert!(k.contains(&TokenKind::StrLit));
        let src = r##"let s = "a.unwrap()"; let r = r#"panic!()"#;"##;
        let unwraps = roundtrip(src)
            .iter()
            .filter(|t| t.text(src) == "unwrap")
            .count();
        assert_eq!(unwraps, 0);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let k = kinds("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(k.contains(&TokenKind::Lifetime));
        assert!(k.contains(&TokenKind::CharLit));
        assert_eq!(kinds("'\\n'"), vec![TokenKind::CharLit]);
        assert_eq!(kinds("'static"), vec![TokenKind::Lifetime]);
    }

    #[test]
    fn numbers_including_floats_and_ranges() {
        assert_eq!(kinds("1_000"), vec![TokenKind::NumLit]);
        assert_eq!(kinds("0xff_u8"), vec![TokenKind::NumLit]);
        assert_eq!(kinds("1.5e-3"), vec![TokenKind::NumLit]);
        // A range must stay three tokens: num, two dots, num.
        let k = kinds("0..7");
        assert_eq!(
            k,
            vec![
                TokenKind::NumLit,
                TokenKind::Punct('.'),
                TokenKind::Punct('.'),
                TokenKind::NumLit,
            ]
        );
    }

    #[test]
    fn byte_and_raw_literals() {
        assert_eq!(kinds("b'x'"), vec![TokenKind::CharLit]);
        assert_eq!(kinds(r#"b"bytes""#), vec![TokenKind::StrLit]);
        assert_eq!(kinds(r###"r##"raw "# inner"##"###), vec![TokenKind::StrLit]);
    }

    #[test]
    fn unterminated_input_does_not_panic() {
        roundtrip("\"unterminated");
        roundtrip("/* unterminated");
        roundtrip("'u");
        roundtrip("r#\"unterminated");
        roundtrip("b");
        roundtrip("r");
    }

    #[test]
    fn line_and_column_tracking() {
        let src = "a\nbb ccc";
        let toks = roundtrip(src);
        let sig: Vec<&Token> = toks.iter().filter(|t| !t.is_trivia()).collect();
        assert_eq!((sig[0].line, sig[0].col), (1, 1));
        assert_eq!((sig[1].line, sig[1].col), (2, 1));
        assert_eq!((sig[2].line, sig[2].col), (2, 4));
    }

    // Round-trip properties: the lexer never panics, and the
    // concatenated token texts reproduce the input byte for byte.

    /// Rebuilds the source from its tokens and asserts exact equality.
    fn assert_roundtrip(src: &str) {
        let tokens = lex(src);
        let rebuilt: String = tokens.iter().map(|t| t.text(src)).collect();
        assert_eq!(rebuilt, src, "lexer dropped or duplicated bytes");
        // Spans must tile the input: contiguous and in order.
        let mut pos = 0;
        for t in &tokens {
            assert_eq!(t.start, pos, "gap or overlap at byte {pos}");
            assert!(t.end > t.start, "empty token at byte {pos}");
            pos = t.end;
        }
        assert_eq!(pos, src.len());
    }

    /// Maps a byte to a character from a Rust-flavored alphabet, weighted
    /// toward the characters that drive the lexer's tricky states: quotes,
    /// escapes, comment openers, raw-string hashes, and some multibyte
    /// unicode for good measure.
    fn flavored_char(b: u8) -> char {
        const ALPHABET: &[char] = &[
            '"', '\'', '\\', '/', '*', '#', 'r', 'b', '_', 'a', 'z', 'A', '0', '9', '.', ':', ';',
            '(', ')', '[', ']', '{', '}', '<', '>', '!', '&', '=', ' ', '\n', '\t', 'é', '入',
            '🦀', 'e', '-', '+', 'x', 'f',
        ];
        ALPHABET[b as usize % ALPHABET.len()]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary bytes pushed through lossy UTF-8: the lexer must accept
        /// whatever text arrives and reproduce it exactly.
        #[test]
        fn roundtrips_arbitrary_text(bytes in vec(any::<u8>(), 0..200)) {
            let src = String::from_utf8_lossy(&bytes).into_owned();
            assert_roundtrip(&src);
        }

        /// Rust-flavored soup: dense in quote/comment/raw-string state
        /// transitions, where a lossless lexer is hardest to get right.
        #[test]
        fn roundtrips_rust_flavored_soup(bytes in vec(any::<u8>(), 0..200)) {
            let src: String = bytes.iter().map(|&b| flavored_char(b)).collect();
            assert_roundtrip(&src);
        }
    }

    #[test]
    fn roundtrips_this_crate_itself() {
        // The most realistic corpus available offline: every source file of
        // the linter itself.
        for entry in std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/src")).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "rs") {
                let src = std::fs::read_to_string(&path).unwrap();
                assert_roundtrip(&src);
            }
        }
    }
}
