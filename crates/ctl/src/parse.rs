//! A recursive-descent parser for the paper's CTL surface syntax.
//!
//! Grammar (lowest to highest precedence):
//!
//! ```text
//! iff    := imp ('<->' imp)*
//! imp    := or ('->' imp)?                  (right associative)
//! or     := and ('|' and)*
//! and    := unary ('&' unary)*
//! unary  := ('~' | '!') unary
//!         | ('AX' | 'EX') digits? unary     (digits = 1-based process)
//!         | ('AF' | 'EF' | 'AG' | 'EG') unary
//!         | ('A' | 'E') '[' iff ('U' | 'W') iff ']'
//!         | '(' iff ')' | 'true' | 'false' | ident
//! ```
//!
//! Identifiers may contain letters, digits and `_`. The weak-until
//! bracket form `A[g W h]` follows the paper's convention: `h` is the
//! invariant, `g` the release (see [`FormulaArena`]).
//!
//! Input nests at most 256 levels deep (prefix operators, parentheses,
//! until brackets and the right operands of `&`, `|` and `->`); deeper
//! input is a [`ParseError`], not a stack overflow.

use crate::arena::FormulaArena;
use crate::ids::FormulaId;
use crate::props::{Owner, PropTable};
use std::fmt;

/// Deepest nesting [`parse`] accepts (module docs list what counts as
/// a level). Real specifications nest a few levels; the cap keeps the
/// parser, and closure construction over its result, far from the
/// stack limit of a thread parsing untrusted text.
const MAX_NESTING: usize = 256;

/// Error produced while parsing a formula.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input at which the error occurred.
    pub at: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses `input`, interning the result into `arena`.
///
/// Unknown identifiers are looked up in `props`; if `auto_register` is
/// set, they are registered with [`Owner::Env`], otherwise parsing fails.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input, nesting deeper than 256
/// levels, out-of-range process indices, or (without
/// `auto_register`) unknown propositions.
///
/// # Examples
///
/// ```
/// use ftsyn_ctl::{FormulaArena, PropTable, parse::parse, print::render};
///
/// let mut props = PropTable::new();
/// let mut arena = FormulaArena::new(2);
/// let f = parse(&mut arena, &mut props, "AG(T1 -> AF C1)", true).unwrap();
/// assert_eq!(render(&arena, &props, f), "AG(~T1 | AF C1)");
/// ```
pub fn parse(
    arena: &mut FormulaArena,
    props: &mut PropTable,
    input: &str,
    auto_register: bool,
) -> Result<FormulaId, ParseError> {
    let mut p = Parser {
        src: input.as_bytes(),
        pos: 0,
        arena,
        props,
        auto_register,
        depth: 0,
    };
    let f = p.iff()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("trailing input"));
    }
    Ok(f)
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
    arena: &'a mut FormulaArena,
    props: &'a mut PropTable,
    auto_register: bool,
    /// Nesting levels open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            at: self.pos,
            message: msg.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.get(self.pos).copied()
    }

    fn eat(&mut self, tok: &str) -> bool {
        self.skip_ws();
        if self.src[self.pos..].starts_with(tok.as_bytes()) {
            self.pos += tok.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &str) -> Result<(), ParseError> {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{tok}`")))
        }
    }

    fn iff(&mut self) -> Result<FormulaId, ParseError> {
        let mut lhs = self.imp()?;
        while self.eat("<->") {
            let rhs = self.imp()?;
            lhs = self.arena.iff(lhs, rhs);
        }
        Ok(lhs)
    }

    fn imp(&mut self) -> Result<FormulaId, ParseError> {
        let lhs = self.or_expr()?;
        // Look ahead for `->` without consuming `-` of something else.
        if self.eat("->") {
            let rhs = self.nested(Self::imp)?;
            return Ok(self.arena.implies(lhs, rhs));
        }
        Ok(lhs)
    }

    // `|` and `&` are parsed right-associatively, matching the
    // right-nesting produced by `FormulaArena::or_all`/`and_all` and the
    // pretty-printer, so print→parse round trips are exact.
    fn or_expr(&mut self) -> Result<FormulaId, ParseError> {
        let lhs = self.and_expr()?;
        self.skip_ws();
        if self.peek() == Some(b'|') {
            self.pos += 1;
            let rhs = self.nested(Self::or_expr)?;
            return Ok(self.arena.or(lhs, rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<FormulaId, ParseError> {
        let lhs = self.unary()?;
        self.skip_ws();
        if self.peek() == Some(b'&') {
            self.pos += 1;
            let rhs = self.nested(Self::and_expr)?;
            return Ok(self.arena.and(lhs, rhs));
        }
        Ok(lhs)
    }

    fn ident(&mut self) -> Option<String> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.src.len()
            && (self.src[self.pos].is_ascii_alphanumeric() || self.src[self.pos] == b'_')
        {
            self.pos += 1;
        }
        if self.pos == start {
            None
        } else {
            Some(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
        }
    }

    /// Runs one recursive descent step one nesting level down, refusing
    /// to go deeper than [`MAX_NESTING`].
    fn nested(
        &mut self,
        step: fn(&mut Self) -> Result<FormulaId, ParseError>,
    ) -> Result<FormulaId, ParseError> {
        self.skip_ws();
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("formula nested deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let f = step(self);
        self.depth -= 1;
        f
    }

    fn unary(&mut self) -> Result<FormulaId, ParseError> {
        self.nested(Self::unary_body)
    }

    fn unary_body(&mut self) -> Result<FormulaId, ParseError> {
        match self.peek() {
            Some(b'~') | Some(b'!') => {
                self.pos += 1;
                let g = self.unary()?;
                Ok(self.arena.not(g))
            }
            Some(b'(') => {
                self.pos += 1;
                let g = self.iff()?;
                self.expect(")")?;
                Ok(g)
            }
            _ => {
                let save = self.pos;
                let Some(word) = self.ident() else {
                    return Err(self.err("expected a formula"));
                };
                match word.as_str() {
                    "true" => Ok(self.arena.tru()),
                    "false" => Ok(self.arena.fls()),
                    "AF" => {
                        let g = self.unary()?;
                        Ok(self.arena.af(g))
                    }
                    "EF" => {
                        let g = self.unary()?;
                        Ok(self.arena.ef(g))
                    }
                    "AG" => {
                        let g = self.unary()?;
                        Ok(self.arena.ag(g))
                    }
                    "EG" => {
                        let g = self.unary()?;
                        Ok(self.arena.eg(g))
                    }
                    "A" | "E" if self.peek() == Some(b'[') => {
                        self.pos += 1;
                        let g = self.iff()?;
                        self.skip_ws();
                        let Some(mode) = self.ident() else {
                            return Err(self.err("expected `U` or `W`"));
                        };
                        let h = self.iff()?;
                        self.expect("]")?;
                        match (word.as_str(), mode.as_str()) {
                            ("A", "U") => Ok(self.arena.au(g, h)),
                            ("E", "U") => Ok(self.arena.eu(g, h)),
                            ("A", "W") => Ok(self.arena.aw(g, h)),
                            ("E", "W") => Ok(self.arena.ew(g, h)),
                            _ => Err(self.err("expected `U` or `W`")),
                        }
                    }
                    _ if word.starts_with("AX") || word.starts_with("EX") => {
                        let rest = &word[2..];
                        let g_needed = true;
                        let idx = if rest.is_empty() {
                            None
                        } else if let Ok(n) = rest.parse::<usize>() {
                            if n == 0 || n > self.arena.num_procs() {
                                return Err(self.err(format!(
                                    "process index {n} out of range 1..={}",
                                    self.arena.num_procs()
                                )));
                            }
                            Some(n - 1)
                        } else {
                            // Not a nexttime token after all (e.g. `AXE`
                            // as a proposition name): treat as identifier.
                            self.pos = save;
                            let name = self.ident().expect("ident re-read");
                            return self.prop_by_name(&name);
                        };
                        debug_assert!(g_needed);
                        let g = self.unary()?;
                        match (&word[..2], idx) {
                            ("AX", Some(i)) => Ok(self.arena.ax(i, g)),
                            ("EX", Some(i)) => Ok(self.arena.ex(i, g)),
                            ("AX", None) => Ok(self.arena.ax_all(g)),
                            ("EX", None) => Ok(self.arena.ex_all(g)),
                            _ => unreachable!(),
                        }
                    }
                    _ => self.prop_by_name(&word),
                }
            }
        }
    }

    fn prop_by_name(&mut self, name: &str) -> Result<FormulaId, ParseError> {
        match self.props.id(name) {
            Ok(p) => Ok(self.arena.prop(p)),
            Err(_) if self.auto_register => {
                let p = self
                    .props
                    .add(name.to_owned(), Owner::Env)
                    .map_err(|e| self.err(e.to_string()))?;
                Ok(self.arena.prop(p))
            }
            Err(e) => Err(self.err(e.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::print::render;

    fn roundtrip(input: &str) -> String {
        let mut props = PropTable::new();
        let mut arena = FormulaArena::new(3);
        let f = parse(&mut arena, &mut props, input, true).unwrap();
        render(&arena, &props, f)
    }

    #[test]
    fn parses_paper_mutex_clauses() {
        assert_eq!(roundtrip("N1 & N2"), "N1 & N2");
        assert_eq!(
            roundtrip("AG(N1 -> (AX1 T1 & EX1 T1))"),
            "AG(~N1 | AX1 T1 & EX1 T1)"
        );
        assert_eq!(roundtrip("AG(T1 -> AF C1)"), "AG(~T1 | AF C1)");
        assert_eq!(roundtrip("AG(~(C1 & C2))"), "AG(~C1 | ~C2)");
        assert_eq!(
            roundtrip("AG EX true"),
            "AG(EX1 true | EX2 true | EX3 true)"
        );
    }

    #[test]
    fn parses_until_brackets() {
        assert_eq!(roundtrip("A[p U q]"), "A[p U q]");
        assert_eq!(roundtrip("E[p W q]"), "E[p W q]");
    }

    #[test]
    fn negation_goes_to_pnf() {
        assert_eq!(roundtrip("~A[p U q]"), "E[~p W ~q]");
        assert_eq!(roundtrip("~AG p"), "EF ~p");
    }

    #[test]
    fn iff_desugars() {
        assert_eq!(roundtrip("p <-> q"), "(~p | q) & (~q | p)");
    }

    #[test]
    fn unknown_prop_rejected_without_auto_register() {
        let mut props = PropTable::new();
        let mut arena = FormulaArena::new(1);
        let r = parse(&mut arena, &mut props, "mystery", false);
        assert!(r.is_err());
    }

    #[test]
    fn out_of_range_process_rejected() {
        let mut props = PropTable::new();
        let mut arena = FormulaArena::new(2);
        let r = parse(&mut arena, &mut props, "AX3 p", true);
        assert!(r.unwrap_err().message.contains("out of range"));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut props = PropTable::new();
        let mut arena = FormulaArena::new(1);
        let r = parse(&mut arena, &mut props, "p )", true);
        assert!(r.is_err());
    }

    /// `levels` nesting levels: each `open` prefix adds one, closed by
    /// `close`, around the innermost `p`.
    fn nested(open: &str, close: &str, levels: usize) -> String {
        format!("{}p{}", open.repeat(levels - 1), close.repeat(levels - 1))
    }

    /// Nesting is capped: `MAX_NESTING` levels parse, and the closure
    /// of such a formula builds on a thread with the default 2 MiB
    /// stack; one more level is an error at the offending byte, and
    /// far deeper input is an error too, not a stack overflow.
    #[test]
    fn nesting_is_capped() {
        let forms = [
            ("(", ")"),
            ("~", ""),
            ("AG ", ""),
            ("EF ", ""),
            ("EX1 ", ""),
            ("A[q U ", "]"),
            ("q & ", ""),
            ("q | ", ""),
            ("q -> ", ""),
        ];
        for (open, close) in forms {
            let at_cap = nested(open, close, MAX_NESTING);
            let closure_len = std::thread::Builder::new()
                .stack_size(2 << 20)
                .spawn(move || {
                    let mut props = PropTable::new();
                    let mut arena = FormulaArena::new(1);
                    let f = parse(&mut arena, &mut props, &at_cap, true).unwrap();
                    crate::Closure::build(&mut arena, &props, &[f]).len()
                })
                .unwrap()
                .join()
                .unwrap();
            assert!(closure_len > 0, "{open}");

            let mut props = PropTable::new();
            let mut arena = FormulaArena::new(1);
            let over = nested(open, close, MAX_NESTING + 1);
            let err = parse(&mut arena, &mut props, &over, true).unwrap_err();
            // Reported inside the innermost prefix, where the excess level opens.
            let innermost = (MAX_NESTING - 1) * open.len()..=MAX_NESTING * open.len();
            assert!(innermost.contains(&err.at), "{open}: {err}");
            assert!(err.message.contains("nested deeper than"), "{err}");
            let far = nested(open, close, 100_000);
            assert!(parse(&mut arena, &mut props, &far, true).is_err(), "{open}");
        }
    }

    #[test]
    fn precedence_and_over_or() {
        assert_eq!(roundtrip("p & q | r"), "p & q | r");
        assert_eq!(roundtrip("p | q & r"), "p | q & r");
        assert_eq!(roundtrip("(p | q) & r"), "(p | q) & r");
    }
}
