//! Lexer for the HQL surface language.

use std::fmt;

/// A token with its byte offset in the source (for error messages).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Token {
    /// The token kind and payload.
    pub kind: TokenKind,
    /// Byte offset where the token starts.
    pub offset: usize,
}

/// Token kinds of the surface language.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TokenKind {
    /// Identifier (relation name or keyword — keywords are recognized by
    /// the parser, so they can also appear as context-free identifiers).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// String literal (double-quoted, with the dump format's `\"`, `\\`,
    /// `\t` and `\n` escapes).
    Str(String),
    /// `#` (column reference prefix).
    Hash,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `/`
    Slash,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Int(v) => write!(f, "integer `{v}`"),
            TokenKind::Str(s) => write!(f, "string {s:?}"),
            TokenKind::Hash => write!(f, "`#`"),
            TokenKind::LParen => write!(f, "`(`"),
            TokenKind::RParen => write!(f, "`)`"),
            TokenKind::LBrace => write!(f, "`{{`"),
            TokenKind::RBrace => write!(f, "`}}`"),
            TokenKind::LBracket => write!(f, "`[`"),
            TokenKind::RBracket => write!(f, "`]`"),
            TokenKind::Comma => write!(f, "`,`"),
            TokenKind::Semi => write!(f, "`;`"),
            TokenKind::Slash => write!(f, "`/`"),
            TokenKind::Eq => write!(f, "`=`"),
            TokenKind::Ne => write!(f, "`<>`"),
            TokenKind::Lt => write!(f, "`<`"),
            TokenKind::Le => write!(f, "`<=`"),
            TokenKind::Gt => write!(f, "`>`"),
            TokenKind::Ge => write!(f, "`>=`"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// A lexing error: an unexpected character or unterminated string.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LexError {
    /// Byte offset of the problem.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenize a source string. `--` starts a comment to end of line.
pub fn tokenize(src: &str) -> Result<Vec<Token>, LexError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                i += 1;
            }
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            // An integer literal, read with its sign so that `i64::MIN`
            // reads back; `+` too, as the dump format's integers take it.
            '-' | '+' | '0'..='9'
                if c.is_ascii_digit() || bytes.get(i + 1).is_some_and(u8::is_ascii_digit) =>
            {
                i += 1;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let v: i64 = src[start..i].parse().map_err(|_| LexError {
                    offset: start,
                    message: "integer literal out of range".into(),
                })?;
                out.push(Token {
                    kind: TokenKind::Int(v),
                    offset: start,
                });
            }
            '"' => {
                let mut s = String::new();
                let mut chars = src[i + 1..].char_indices();
                loop {
                    match chars.next() {
                        None => {
                            return Err(LexError {
                                offset: start,
                                message: "unterminated string literal".into(),
                            })
                        }
                        Some((j, '"')) => {
                            i += j + 2;
                            break;
                        }
                        Some((j, '\\')) => match chars.next() {
                            Some((_, '"')) => s.push('"'),
                            Some((_, '\\')) => s.push('\\'),
                            Some((_, 't')) => s.push('\t'),
                            Some((_, 'n')) => s.push('\n'),
                            _ => {
                                return Err(LexError {
                                    offset: i + 1 + j,
                                    message: "bad escape in string literal".into(),
                                })
                            }
                        },
                        Some((_, c)) => s.push(c),
                    }
                }
                out.push(Token {
                    kind: TokenKind::Str(s),
                    offset: start,
                });
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                out.push(Token {
                    kind: TokenKind::Ident(src[start..i].to_string()),
                    offset: start,
                });
            }
            '#' => {
                out.push(Token {
                    kind: TokenKind::Hash,
                    offset: start,
                });
                i += 1;
            }
            '(' => {
                out.push(Token {
                    kind: TokenKind::LParen,
                    offset: start,
                });
                i += 1;
            }
            ')' => {
                out.push(Token {
                    kind: TokenKind::RParen,
                    offset: start,
                });
                i += 1;
            }
            '{' => {
                out.push(Token {
                    kind: TokenKind::LBrace,
                    offset: start,
                });
                i += 1;
            }
            '}' => {
                out.push(Token {
                    kind: TokenKind::RBrace,
                    offset: start,
                });
                i += 1;
            }
            '[' => {
                out.push(Token {
                    kind: TokenKind::LBracket,
                    offset: start,
                });
                i += 1;
            }
            ']' => {
                out.push(Token {
                    kind: TokenKind::RBracket,
                    offset: start,
                });
                i += 1;
            }
            ',' => {
                out.push(Token {
                    kind: TokenKind::Comma,
                    offset: start,
                });
                i += 1;
            }
            ';' => {
                out.push(Token {
                    kind: TokenKind::Semi,
                    offset: start,
                });
                i += 1;
            }
            '/' => {
                out.push(Token {
                    kind: TokenKind::Slash,
                    offset: start,
                });
                i += 1;
            }
            '=' => {
                out.push(Token {
                    kind: TokenKind::Eq,
                    offset: start,
                });
                i += 1;
            }
            '<' => match bytes.get(i + 1) {
                Some(b'>') => {
                    out.push(Token {
                        kind: TokenKind::Ne,
                        offset: start,
                    });
                    i += 2;
                }
                Some(b'=') => {
                    out.push(Token {
                        kind: TokenKind::Le,
                        offset: start,
                    });
                    i += 2;
                }
                _ => {
                    out.push(Token {
                        kind: TokenKind::Lt,
                        offset: start,
                    });
                    i += 1;
                }
            },
            '>' => match bytes.get(i + 1) {
                Some(b'=') => {
                    out.push(Token {
                        kind: TokenKind::Ge,
                        offset: start,
                    });
                    i += 2;
                }
                _ => {
                    out.push(Token {
                        kind: TokenKind::Gt,
                        offset: start,
                    });
                    i += 1;
                }
            },
            other => {
                return Err(LexError {
                    offset: start,
                    message: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    out.push(Token {
        kind: TokenKind::Eof,
        offset: src.len(),
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds("select #0 >= 60 (S)"),
            vec![
                TokenKind::Ident("select".into()),
                TokenKind::Hash,
                TokenKind::Int(0),
                TokenKind::Ge,
                TokenKind::Int(60),
                TokenKind::LParen,
                TokenKind::Ident("S".into()),
                TokenKind::RParen,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            kinds("= <> < <= > >="),
            vec![
                TokenKind::Eq,
                TokenKind::Ne,
                TokenKind::Lt,
                TokenKind::Le,
                TokenKind::Gt,
                TokenKind::Ge,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn strings_and_escapes() {
        assert_eq!(
            kinds(r#""hello" "a\"b" "c\\d" "t\tn\n" "é,)""#),
            vec![
                TokenKind::Str("hello".into()),
                TokenKind::Str("a\"b".into()),
                TokenKind::Str("c\\d".into()),
                TokenKind::Str("t\tn\n".into()),
                TokenKind::Str("é,)".into()),
                TokenKind::Eof
            ]
        );
        assert!(tokenize("\"oops").is_err());
        assert!(tokenize(r#""bad \x""#).is_err());
    }

    #[test]
    fn negative_ints_and_comments() {
        assert_eq!(
            kinds("-5 7 +8 -- a comment\n 9 -9223372036854775808"),
            vec![
                TokenKind::Int(-5),
                TokenKind::Int(7),
                TokenKind::Int(8),
                TokenKind::Int(9),
                TokenKind::Int(i64::MIN),
                TokenKind::Eof
            ]
        );
        assert!(tokenize("9223372036854775808").is_err());
        assert!(tokenize("- 5").is_err());
    }

    #[test]
    fn braces_and_update_syntax() {
        assert_eq!(
            kinds("{insert into R (S); delete from S (S)}").len(),
            // { insert into R ( S ) ; delete from S ( S ) } eof
            16
        );
    }

    #[test]
    fn rejects_unknown_characters() {
        let e = tokenize("R $ S").unwrap_err();
        assert!(e.to_string().contains("unexpected character"));
        assert_eq!(e.offset, 2);
    }

    #[test]
    fn offsets_are_recorded() {
        let toks = tokenize("ab cd").unwrap();
        assert_eq!(toks[0].offset, 0);
        assert_eq!(toks[1].offset, 3);
    }
}
