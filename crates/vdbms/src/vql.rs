//! VQL — a minimal textual vector query language (§2.1 "query
//! interfaces").
//!
//! The survey contrasts simple-API systems with SQL-extension systems;
//! VQL is the facade's SQL-flavoured surface. Statements:
//!
//! ```text
//! SEARCH docs K 10 NEAR [0.1, 0.2, 0.3]
//!        WHERE price < 50 AND (brand = 'acme' OR brand = 'zen')
//!        USING visit_first BEAM 64 NPROBE 8
//! SEARCH docs K 10 NEAR [0.1, 0.2, 0.3] MATCH 'rust vector database'
//!        FUSE rrf 60 HYBRID fused WHERE price < 50
//! SEARCH docs WITHIN 2.5 NEAR [0.1, 0.2, 0.3] WHERE price < 50
//! INSERT INTO docs KEY 42 VALUES [0.1, 0.2, 0.3] SET brand = 'acme', price = 10
//! DELETE FROM docs KEY 42
//! COUNT docs
//! ```
//!
//! Malformed statements fail with [`Error::ParseAt`] carrying the
//! character offset of the offending token, so clients (including
//! remote ones — the error round-trips the wire) can point at the
//! mistake instead of grepping a message.

use vdb_core::attr::AttrValue;
use vdb_core::error::{Error, Result};
use vdb_core::index::SearchParams;
use vdb_query::{CmpOp, Fusion, HybridStrategy, Predicate, Strategy};

/// A parsed VQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum VqlStatement {
    /// k-NN / hybrid-predicate search.
    Search {
        /// Target collection.
        collection: String,
        /// Query vector literal.
        vector: Vec<f32>,
        /// Result size.
        k: usize,
        /// Predicate (True when no WHERE clause).
        predicate: Predicate,
        /// Optional strategy override from USING.
        strategy: Option<Strategy>,
        /// Search parameters from BEAM / NPROBE.
        params: SearchParams,
    },
    /// Hybrid text + vector search (NEAR … MATCH '…').
    HybridSearch {
        /// Target collection.
        collection: String,
        /// Query vector literal.
        vector: Vec<f32>,
        /// Full-text query from the MATCH clause.
        query: String,
        /// Result size.
        k: usize,
        /// Predicate (True when no WHERE clause).
        predicate: Predicate,
        /// Rank/score fusion from the FUSE clause (RRF k0=60 default).
        fusion: Fusion,
        /// Optional retrieval strategy override from HYBRID.
        strategy: Option<HybridStrategy>,
        /// Search parameters from BEAM / NPROBE.
        params: SearchParams,
    },
    /// Range search: all entities within a distance threshold.
    RangeSearch {
        /// Target collection.
        collection: String,
        /// Query vector literal.
        vector: Vec<f32>,
        /// Distance threshold (collection-metric units).
        radius: f32,
        /// Predicate (True when no WHERE clause).
        predicate: Predicate,
        /// Search parameters from BEAM / NPROBE.
        params: SearchParams,
    },
    /// Insert one entity.
    Insert {
        /// Target collection.
        collection: String,
        /// Entity key.
        key: u64,
        /// Vector literal.
        vector: Vec<f32>,
        /// Attribute assignments.
        attrs: Vec<(String, AttrValue)>,
    },
    /// Delete one entity.
    Delete {
        /// Target collection.
        collection: String,
        /// Entity key.
        key: u64,
    },
    /// Count live entities.
    Count {
        /// Target collection.
        collection: String,
    },
}

/// Statement keywords that only read. The test
/// `text_classifier_agrees_with_parsed_statements` keeps this in step with
/// the parser.
const READ_HEADS: [&str; 2] = ["search", "count"];

/// Whether `statement` only reads, judged from its leading keyword without
/// parsing it. For every statement that parses this is true exactly for
/// `SEARCH` in every form and `COUNT`; text that does not parse never changes
/// anything, whatever this says. Serving classifies VQL with it before a
/// statement is parsed: its queue lane, and whether a client may resend it
/// after a lost reply.
pub fn is_read(statement: &str) -> bool {
    let head = statement
        .trim_start()
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .next()
        .unwrap_or("");
    READ_HEADS.iter().any(|r| head.eq_ignore_ascii_case(r))
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Sym(&'static str),
}

/// Positional parse error.
fn err_at(pos: usize, msg: impl Into<String>) -> Error {
    Error::ParseAt {
        msg: msg.into(),
        pos,
    }
}

/// Tokens paired with the character offset where each starts.
fn lex(input: &str) -> Result<Vec<(Tok, usize)>> {
    let mut out = Vec::new();
    let chars: Vec<char> = input.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let start = i;
        if c.is_whitespace() {
            i += 1;
        } else if c.is_alphabetic() || c == '_' {
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            out.push((Tok::Ident(chars[start..i].iter().collect()), start));
        } else if c.is_ascii_digit()
            || (c == '-'
                && i + 1 < chars.len()
                && (chars[i + 1].is_ascii_digit() || chars[i + 1] == '.'))
        {
            i += 1;
            let mut is_float = false;
            while i < chars.len()
                && (chars[i].is_ascii_digit()
                    || chars[i] == '.'
                    || chars[i] == 'e'
                    || chars[i] == 'E'
                    || ((chars[i] == '-' || chars[i] == '+') && matches!(chars[i - 1], 'e' | 'E')))
            {
                if chars[i] == '.' || chars[i] == 'e' || chars[i] == 'E' {
                    is_float = true;
                }
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            if is_float {
                out.push((
                    Tok::Float(
                        text.parse()
                            .map_err(|_| err_at(start, format!("bad number `{text}`")))?,
                    ),
                    start,
                ));
            } else {
                out.push((
                    Tok::Int(
                        text.parse()
                            .map_err(|_| err_at(start, format!("bad number `{text}`")))?,
                    ),
                    start,
                ));
            }
        } else if c == '\'' {
            i += 1;
            let body = i;
            while i < chars.len() && chars[i] != '\'' {
                i += 1;
            }
            if i >= chars.len() {
                return Err(err_at(start, "unterminated string literal"));
            }
            out.push((Tok::Str(chars[body..i].iter().collect()), start));
            i += 1;
        } else {
            let two: String = chars[i..(i + 2).min(chars.len())].iter().collect();
            let sym = match two.as_str() {
                "!=" => Some("!="),
                "<=" => Some("<="),
                ">=" => Some(">="),
                _ => None,
            };
            if let Some(s) = sym {
                out.push((Tok::Sym(s), start));
                i += 2;
            } else {
                let s = match c {
                    '[' => "[",
                    ']' => "]",
                    '(' => "(",
                    ')' => ")",
                    ',' => ",",
                    '=' => "=",
                    '<' => "<",
                    '>' => ">",
                    _ => return Err(err_at(start, format!("unexpected character `{c}`"))),
                };
                out.push((Tok::Sym(s), start));
                i += 1;
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Deepest `(` / `NOT` nesting a predicate may use. The parser and every
/// consumer of a [`Predicate`] (compile, evaluate, clone, drop) recurse
/// once per level, so the cap bounds their stack on any thread; deeper
/// nesting is a parse error at the opener that crosses it.
pub const MAX_PREDICATE_DEPTH: usize = 64;

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
    /// Character length of the input — the position blamed when a
    /// statement ends too early.
    end: usize,
    /// `(` / `NOT` levels open at the current token.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    /// Position of the current token (input length at end-of-statement).
    fn here(&self) -> usize {
        self.toks.get(self.pos).map(|&(_, p)| p).unwrap_or(self.end)
    }

    fn next(&mut self) -> Result<(Tok, usize)> {
        let t = self
            .toks
            .get(self.pos)
            .cloned()
            .ok_or_else(|| err_at(self.end, "unexpected end of statement"))?;
        self.pos += 1;
        Ok(t)
    }

    fn keyword(&mut self, kw: &str) -> Result<()> {
        match self.next()? {
            (Tok::Ident(s), _) if s.eq_ignore_ascii_case(kw) => Ok(()),
            (other, at) => Err(err_at(at, format!("expected `{kw}`, got {other:?}"))),
        }
    }

    fn try_keyword(&mut self, kw: &str) -> bool {
        if let Some(Tok::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn ident(&mut self) -> Result<String> {
        match self.next()? {
            (Tok::Ident(s), _) => Ok(s),
            (other, at) => Err(err_at(at, format!("expected identifier, got {other:?}"))),
        }
    }

    fn uint(&mut self) -> Result<u64> {
        match self.next()? {
            (Tok::Int(v), _) if v >= 0 => Ok(v as u64),
            (other, at) => Err(err_at(
                at,
                format!("expected non-negative integer, got {other:?}"),
            )),
        }
    }

    fn number(&mut self) -> Result<f64> {
        match self.next()? {
            (Tok::Float(f), _) => Ok(f),
            (Tok::Int(i), _) => Ok(i as f64),
            (other, at) => Err(err_at(at, format!("expected number, got {other:?}"))),
        }
    }

    fn string(&mut self) -> Result<String> {
        match self.next()? {
            (Tok::Str(s), _) => Ok(s),
            (other, at) => Err(err_at(at, format!("expected quoted string, got {other:?}"))),
        }
    }

    fn sym(&mut self, s: &str) -> Result<()> {
        match self.next()? {
            (Tok::Sym(t), _) if t == s => Ok(()),
            (other, at) => Err(err_at(at, format!("expected `{s}`, got {other:?}"))),
        }
    }

    fn vector_literal(&mut self) -> Result<Vec<f32>> {
        let open = self.here();
        self.sym("[")?;
        let mut out = Vec::new();
        loop {
            match self.next()? {
                (Tok::Float(f), _) => out.push(f as f32),
                (Tok::Int(i), _) => out.push(i as f32),
                (Tok::Sym("]"), _) if out.is_empty() => break,
                (other, at) => {
                    return Err(err_at(
                        at,
                        format!("expected number in vector, got {other:?}"),
                    ))
                }
            }
            match self.next()? {
                (Tok::Sym(","), _) => continue,
                (Tok::Sym("]"), _) => break,
                (other, at) => {
                    return Err(err_at(at, format!("expected `,` or `]`, got {other:?}")))
                }
            }
        }
        if out.is_empty() {
            return Err(err_at(open, "empty vector literal"));
        }
        Ok(out)
    }

    fn value(&mut self) -> Result<AttrValue> {
        match self.next()? {
            (Tok::Int(v), _) => Ok(AttrValue::Int(v)),
            (Tok::Float(v), _) => Ok(AttrValue::Float(v)),
            (Tok::Str(s), _) => Ok(AttrValue::Str(s)),
            (Tok::Ident(s), _) if s.eq_ignore_ascii_case("true") => Ok(AttrValue::Bool(true)),
            (Tok::Ident(s), _) if s.eq_ignore_ascii_case("false") => Ok(AttrValue::Bool(false)),
            (Tok::Ident(s), _) if s.eq_ignore_ascii_case("null") => Ok(AttrValue::Null),
            (other, at) => Err(err_at(at, format!("expected literal, got {other:?}"))),
        }
    }

    /// predicate := or_expr
    fn predicate(&mut self) -> Result<Predicate> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Predicate> {
        let mut terms = vec![self.and_expr()?];
        while self.try_keyword("or") {
            terms.push(self.and_expr()?);
        }
        Ok(if terms.len() == 1 {
            terms.pop().expect("one term")
        } else {
            Predicate::Or(terms)
        })
    }

    fn and_expr(&mut self) -> Result<Predicate> {
        let mut terms = vec![self.unary_expr()?];
        while self.try_keyword("and") {
            terms.push(self.unary_expr()?);
        }
        Ok(if terms.len() == 1 {
            terms.pop().expect("one term")
        } else {
            Predicate::And(terms)
        })
    }

    /// Open one `(` / `NOT` level at `at`, refusing past
    /// [`MAX_PREDICATE_DEPTH`] before recursing into it.
    fn descend(&mut self, at: usize) -> Result<()> {
        if self.depth == MAX_PREDICATE_DEPTH {
            return Err(err_at(
                at,
                format!("predicate nested deeper than {MAX_PREDICATE_DEPTH} levels"),
            ));
        }
        self.depth += 1;
        Ok(())
    }

    fn unary_expr(&mut self) -> Result<Predicate> {
        let at = self.here();
        if self.try_keyword("not") {
            self.descend(at)?;
            let inner = self.unary_expr()?;
            self.depth -= 1;
            return Ok(Predicate::Not(Box::new(inner)));
        }
        if let Some(Tok::Sym("(")) = self.peek() {
            self.descend(at)?;
            self.pos += 1;
            let inner = self.predicate()?;
            self.sym(")")?;
            self.depth -= 1;
            return Ok(inner);
        }
        self.atom()
    }

    /// atom := ident (cmp value | IS NULL | IN (v,...) | BETWEEN v AND v)
    fn atom(&mut self) -> Result<Predicate> {
        let column = self.ident()?;
        match self.next()? {
            (Tok::Sym(op @ ("=" | "!=" | "<" | "<=" | ">" | ">=")), _) => {
                let op = match op {
                    "=" => CmpOp::Eq,
                    "!=" => CmpOp::Ne,
                    "<" => CmpOp::Lt,
                    "<=" => CmpOp::Le,
                    ">" => CmpOp::Gt,
                    _ => CmpOp::Ge,
                };
                Ok(Predicate::Cmp {
                    column,
                    op,
                    value: self.value()?,
                })
            }
            (Tok::Ident(s), _) if s.eq_ignore_ascii_case("is") => {
                self.keyword("null")?;
                Ok(Predicate::IsNull { column })
            }
            (Tok::Ident(s), _) if s.eq_ignore_ascii_case("in") => {
                self.sym("(")?;
                let mut values = vec![self.value()?];
                loop {
                    match self.next()? {
                        (Tok::Sym(","), _) => values.push(self.value()?),
                        (Tok::Sym(")"), _) => break,
                        (other, at) => {
                            return Err(err_at(at, format!("expected `,` or `)`, got {other:?}")))
                        }
                    }
                }
                Ok(Predicate::In { column, values })
            }
            (Tok::Ident(s), _) if s.eq_ignore_ascii_case("between") => {
                let lo = self.value()?;
                self.keyword("and")?;
                let hi = self.value()?;
                Ok(Predicate::Between { column, lo, hi })
            }
            (other, at) => Err(err_at(
                at,
                format!("expected operator after `{column}`, got {other:?}"),
            )),
        }
    }
}

/// Parse one VQL statement.
pub fn parse(input: &str) -> Result<VqlStatement> {
    let mut p = Parser {
        toks: lex(input)?,
        pos: 0,
        end: input.chars().count(),
        depth: 0,
    };
    let head = p.ident()?;
    let stmt = if head.eq_ignore_ascii_case("search") {
        let collection = p.ident()?;
        if p.try_keyword("within") {
            let radius_at = p.here();
            let radius = p.number()? as f32;
            if radius.is_nan() || radius < 0.0 {
                return Err(err_at(radius_at, "radius must be non-negative"));
            }
            p.keyword("near")?;
            let vector = p.vector_literal()?;
            let mut predicate = Predicate::True;
            let mut params = SearchParams::default();
            loop {
                if p.try_keyword("where") {
                    predicate = p.predicate()?;
                } else if p.try_keyword("beam") {
                    params.beam_width = p.uint()? as usize;
                } else if p.try_keyword("nprobe") {
                    params.nprobe = p.uint()? as usize;
                } else {
                    break;
                }
            }
            if p.pos != p.toks.len() {
                return Err(err_at(
                    p.here(),
                    format!(
                        "trailing tokens after statement: {:?}",
                        p.toks[p.pos..].iter().map(|(t, _)| t).collect::<Vec<_>>()
                    ),
                ));
            }
            return Ok(VqlStatement::RangeSearch {
                collection,
                vector,
                radius,
                predicate,
                params,
            });
        }
        p.keyword("k")?;
        let k = p.uint()? as usize;
        p.keyword("near")?;
        let vector = p.vector_literal()?;
        let mut predicate = Predicate::True;
        let mut strategy: Option<(Strategy, usize)> = None;
        let mut params = SearchParams::default();
        let mut match_text: Option<String> = None;
        let mut fusion: Option<Fusion> = None;
        let mut hybrid: Option<HybridStrategy> = None;
        let mut fuse_at = 0usize;
        let mut hybrid_at = 0usize;
        loop {
            let clause_at = p.here();
            if p.try_keyword("where") {
                predicate = p.predicate()?;
            } else if p.try_keyword("using") {
                let at = p.here();
                let name = p.ident()?;
                let st = Strategy::ALL
                    .into_iter()
                    .find(|s| s.name() == name)
                    .ok_or_else(|| err_at(at, format!("unknown strategy `{name}`")))?;
                strategy = Some((st, clause_at));
            } else if p.try_keyword("match") {
                match_text = Some(p.string()?);
            } else if p.try_keyword("fuse") {
                let at = p.here();
                let name = p.ident()?;
                fusion = Some(if name.eq_ignore_ascii_case("rrf") {
                    let k0 = if matches!(p.peek(), Some(Tok::Int(_))) {
                        p.uint()? as u32
                    } else {
                        60
                    };
                    Fusion::Rrf { k0 }
                } else if name.eq_ignore_ascii_case("convex") {
                    let alpha_at = p.here();
                    let alpha = if matches!(p.peek(), Some(Tok::Int(_) | Tok::Float(_))) {
                        p.number()? as f32
                    } else {
                        0.5
                    };
                    if !(0.0..=1.0).contains(&alpha) {
                        return Err(err_at(
                            alpha_at,
                            format!("convex alpha must be in [0, 1], got {alpha}"),
                        ));
                    }
                    Fusion::Convex { alpha }
                } else {
                    return Err(err_at(
                        at,
                        format!("unknown fusion `{name}` (expected rrf or convex)"),
                    ));
                });
                fuse_at = clause_at;
            } else if p.try_keyword("hybrid") {
                let at = p.here();
                let name = p.ident()?;
                hybrid = Some(
                    HybridStrategy::parse(&name)
                        .ok_or_else(|| err_at(at, format!("unknown hybrid strategy `{name}`")))?,
                );
                hybrid_at = clause_at;
            } else if p.try_keyword("beam") {
                params.beam_width = p.uint()? as usize;
            } else if p.try_keyword("nprobe") {
                params.nprobe = p.uint()? as usize;
            } else {
                break;
            }
        }
        if match_text.is_none() {
            if fusion.is_some() {
                return Err(err_at(fuse_at, "FUSE requires a MATCH clause"));
            }
            if hybrid.is_some() {
                return Err(err_at(hybrid_at, "HYBRID requires a MATCH clause"));
            }
        }
        if let (Some(_), Some((_, using_at))) = (&match_text, &strategy) {
            return Err(err_at(
                *using_at,
                "USING applies to vector-only search; pick the retrieval order with HYBRID",
            ));
        }
        match match_text {
            Some(query) => VqlStatement::HybridSearch {
                collection,
                vector,
                query,
                k,
                predicate,
                fusion: fusion.unwrap_or_default(),
                strategy: hybrid,
                params,
            },
            None => VqlStatement::Search {
                collection,
                vector,
                k,
                predicate,
                strategy: strategy.map(|(s, _)| s),
                params,
            },
        }
    } else if head.eq_ignore_ascii_case("insert") {
        p.keyword("into")?;
        let collection = p.ident()?;
        p.keyword("key")?;
        let key = p.uint()?;
        p.keyword("values")?;
        let vector = p.vector_literal()?;
        let mut attrs = Vec::new();
        if p.try_keyword("set") {
            loop {
                let col = p.ident()?;
                p.sym("=")?;
                attrs.push((col, p.value()?));
                if let Some(Tok::Sym(",")) = p.peek() {
                    p.pos += 1;
                } else {
                    break;
                }
            }
        }
        VqlStatement::Insert {
            collection,
            key,
            vector,
            attrs,
        }
    } else if head.eq_ignore_ascii_case("delete") {
        p.keyword("from")?;
        let collection = p.ident()?;
        p.keyword("key")?;
        let key = p.uint()?;
        VqlStatement::Delete { collection, key }
    } else if head.eq_ignore_ascii_case("count") {
        VqlStatement::Count {
            collection: p.ident()?,
        }
    } else {
        return Err(err_at(0, format!("unknown statement `{head}`")));
    };
    if p.pos != p.toks.len() {
        return Err(err_at(
            p.here(),
            format!(
                "trailing tokens after statement: {:?}",
                p.toks[p.pos..].iter().map(|(t, _)| t).collect::<Vec<_>>()
            ),
        ));
    }
    Ok(stmt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic_search() {
        let s = parse("SEARCH docs K 10 NEAR [0.1, 0.2, -3]").unwrap();
        match s {
            VqlStatement::Search {
                collection,
                vector,
                k,
                predicate,
                strategy,
                ..
            } => {
                assert_eq!(collection, "docs");
                assert_eq!(k, 10);
                assert_eq!(vector, vec![0.1, 0.2, -3.0]);
                assert_eq!(predicate, Predicate::True);
                assert!(strategy.is_none());
            }
            _ => panic!("wrong statement"),
        }
    }

    #[test]
    fn parse_hybrid_search_with_options() {
        let s = parse(
            "search products k 5 near [1.0] where price < 50 and (brand = 'acme' or brand = 'zen') using visit_first beam 64 nprobe 4",
        )
        .unwrap();
        match s {
            VqlStatement::Search {
                predicate,
                strategy,
                params,
                ..
            } => {
                assert_eq!(strategy, Some(Strategy::VisitFirst));
                assert_eq!(params.beam_width, 64);
                assert_eq!(params.nprobe, 4);
                assert_eq!(
                    predicate.to_string(),
                    "(price < 50 AND (brand = 'acme' OR brand = 'zen'))"
                );
            }
            _ => panic!("wrong statement"),
        }
    }

    #[test]
    fn parse_match_and_fuse_clauses() {
        let s = parse(
            "SEARCH docs K 5 NEAR [1, 0] MATCH 'rust vector database' FUSE convex 0.7 HYBRID text_first WHERE year > 2020",
        )
        .unwrap();
        match s {
            VqlStatement::HybridSearch {
                collection,
                query,
                k,
                fusion,
                strategy,
                predicate,
                ..
            } => {
                assert_eq!(collection, "docs");
                assert_eq!(query, "rust vector database");
                assert_eq!(k, 5);
                assert_eq!(fusion, Fusion::Convex { alpha: 0.7 });
                assert_eq!(strategy, Some(HybridStrategy::TextFirst));
                assert_eq!(predicate.to_string(), "year > 2020");
            }
            _ => panic!("wrong statement"),
        }
        // Defaults: RRF k0=60, planner-chosen strategy.
        match parse("SEARCH docs K 3 NEAR [1] MATCH 'query'").unwrap() {
            VqlStatement::HybridSearch {
                fusion, strategy, ..
            } => {
                assert_eq!(fusion, Fusion::Rrf { k0: 60 });
                assert!(strategy.is_none());
            }
            _ => panic!("wrong statement"),
        }
        match parse("SEARCH docs K 3 NEAR [1] MATCH 'q' FUSE rrf 10").unwrap() {
            VqlStatement::HybridSearch { fusion, .. } => {
                assert_eq!(fusion, Fusion::Rrf { k0: 10 })
            }
            _ => panic!("wrong statement"),
        }
    }

    #[test]
    fn hybrid_clause_errors_carry_positions() {
        // FUSE without MATCH: blamed at the FUSE keyword.
        let input = "SEARCH docs K 5 NEAR [1] FUSE rrf";
        match parse(input).unwrap_err() {
            Error::ParseAt { pos, msg } => {
                assert_eq!(pos, input.find("FUSE").unwrap());
                assert!(msg.contains("MATCH"), "{msg}");
            }
            other => panic!("expected ParseAt, got {other:?}"),
        }
        // Unknown fusion name: blamed at the name.
        let input = "SEARCH docs K 5 NEAR [1] MATCH 'q' FUSE borda";
        match parse(input).unwrap_err() {
            Error::ParseAt { pos, .. } => assert_eq!(pos, input.find("borda").unwrap()),
            other => panic!("expected ParseAt, got {other:?}"),
        }
        // Alpha outside [0, 1]: blamed at the number.
        let input = "SEARCH docs K 5 NEAR [1] MATCH 'q' FUSE convex 1.5";
        match parse(input).unwrap_err() {
            Error::ParseAt { pos, .. } => assert_eq!(pos, input.find("1.5").unwrap()),
            other => panic!("expected ParseAt, got {other:?}"),
        }
        // USING conflicts with MATCH.
        let input = "SEARCH docs K 5 NEAR [1] MATCH 'q' USING pre_filter";
        match parse(input).unwrap_err() {
            Error::ParseAt { pos, .. } => assert_eq!(pos, input.find("USING").unwrap()),
            other => panic!("expected ParseAt, got {other:?}"),
        }
        // MATCH wants a quoted string.
        let input = "SEARCH docs K 5 NEAR [1] MATCH unquoted";
        match parse(input).unwrap_err() {
            Error::ParseAt { pos, .. } => assert_eq!(pos, input.find("unquoted").unwrap()),
            other => panic!("expected ParseAt, got {other:?}"),
        }
    }

    #[test]
    fn parse_errors_carry_positions() {
        // Offending token mid-statement.
        let input = "SEARCH docs K nope NEAR [1]";
        match parse(input).unwrap_err() {
            Error::ParseAt { pos, .. } => assert_eq!(pos, input.find("nope").unwrap()),
            other => panic!("expected ParseAt, got {other:?}"),
        }
        // Truncated statement: blamed at end of input.
        let input = "SEARCH docs K 5 NEAR [1] WHERE";
        match parse(input).unwrap_err() {
            Error::ParseAt { pos, .. } => assert_eq!(pos, input.chars().count()),
            other => panic!("expected ParseAt, got {other:?}"),
        }
        // Lexer errors are positional too.
        let input = "SEARCH docs K 5 NEAR [1] WHERE a = 'unterminated";
        match parse(input).unwrap_err() {
            Error::ParseAt { pos, .. } => assert_eq!(pos, input.find('\'').unwrap()),
            other => panic!("expected ParseAt, got {other:?}"),
        }
        let input = "SEARCH docs K 5 NEAR [1] WHERE a ? 1";
        match parse(input).unwrap_err() {
            Error::ParseAt { pos, .. } => assert_eq!(pos, input.find('?').unwrap()),
            other => panic!("expected ParseAt, got {other:?}"),
        }
    }

    #[test]
    fn parse_predicate_variants() {
        let s = parse(
            "SEARCH c K 1 NEAR [1] WHERE a IN (1, 2, 3) AND b BETWEEN 0.5 AND 1.5 AND c IS NULL AND NOT d = true",
        )
        .unwrap();
        if let VqlStatement::Search { predicate, .. } = s {
            let txt = predicate.to_string();
            assert!(txt.contains("a IN (1, 2, 3)"), "{txt}");
            assert!(txt.contains("b BETWEEN 0.5 AND 1.5"), "{txt}");
            assert!(txt.contains("c IS NULL"), "{txt}");
            assert!(txt.contains("NOT d = true"), "{txt}");
        } else {
            panic!("wrong statement");
        }
    }

    #[test]
    fn parse_insert_and_delete_and_count() {
        let s =
            parse("INSERT INTO docs KEY 42 VALUES [1, 2] SET brand = 'acme', price = 10").unwrap();
        assert_eq!(
            s,
            VqlStatement::Insert {
                collection: "docs".into(),
                key: 42,
                vector: vec![1.0, 2.0],
                attrs: vec![
                    ("brand".into(), AttrValue::Str("acme".into())),
                    ("price".into(), AttrValue::Int(10)),
                ],
            }
        );
        assert_eq!(
            parse("DELETE FROM docs KEY 7").unwrap(),
            VqlStatement::Delete {
                collection: "docs".into(),
                key: 7
            }
        );
        assert_eq!(
            parse("COUNT docs").unwrap(),
            VqlStatement::Count {
                collection: "docs".into()
            }
        );
    }

    #[test]
    fn parse_errors_are_reported() {
        for bad in [
            "",
            "FROB docs",
            "SEARCH docs K near [1]",
            "SEARCH docs K 5 NEAR []",
            "SEARCH docs K 5 NEAR [1] WHERE",
            "SEARCH docs K 5 NEAR [1] USING warp_drive",
            "INSERT INTO docs KEY -1 VALUES [1]",
            "SEARCH docs K 5 NEAR [1] trailing garbage",
            "SEARCH docs K 5 NEAR [1] WHERE a = 'unterminated",
            "SEARCH docs K 5 NEAR [1] MATCH",
            "SEARCH docs K 5 NEAR [1] MATCH 'q' FUSE",
            "SEARCH docs K 5 NEAR [1] MATCH 'q' HYBRID warp",
        ] {
            assert!(parse(bad).is_err(), "should fail: {bad}");
        }
    }

    #[test]
    fn operator_precedence_or_lower_than_and() {
        let s = parse("SEARCH c K 1 NEAR [1] WHERE a = 1 OR b = 2 AND c = 3").unwrap();
        if let VqlStatement::Search { predicate, .. } = s {
            // a=1 OR (b=2 AND c=3)
            assert_eq!(predicate.to_string(), "(a = 1 OR (b = 2 AND c = 3))");
        } else {
            panic!();
        }
    }

    #[test]
    fn parse_range_search() {
        let s = parse("SEARCH docs WITHIN 2.5 NEAR [1, 2] WHERE price < 50 BEAM 32").unwrap();
        match s {
            VqlStatement::RangeSearch {
                collection,
                vector,
                radius,
                predicate,
                params,
            } => {
                assert_eq!(collection, "docs");
                assert_eq!(vector, vec![1.0, 2.0]);
                assert_eq!(radius, 2.5);
                assert_eq!(predicate.to_string(), "price < 50");
                assert_eq!(params.beam_width, 32);
            }
            _ => panic!("wrong statement"),
        }
        // Integer radius accepted.
        assert!(matches!(
            parse("SEARCH docs WITHIN 3 NEAR [1]").unwrap(),
            VqlStatement::RangeSearch { radius, .. } if radius == 3.0
        ));
        // Negative radius rejected; USING not valid for range search.
        assert!(parse("SEARCH docs WITHIN -1 NEAR [1]").is_err());
        assert!(parse("SEARCH docs WITHIN 1 NEAR [1] USING post_filter").is_err());
    }

    #[test]
    fn text_classifier_agrees_with_parsed_statements() {
        let forms = [
            ("SEARCH docs K 3 NEAR [1, 2]", true),
            (
                "search docs k 3 near [1, 2] where price < 5 using pre_filter",
                true,
            ),
            ("SEARCH docs K 3 NEAR [1] MATCH 'rust db' FUSE rrf 60", true),
            ("  Search docs WITHIN 2.5 NEAR [1] WHERE price < 50", true),
            ("COUNT docs", true),
            ("\tcount docs", true),
            ("INSERT INTO docs KEY 1 VALUES [1] SET price = 3", false),
            ("insert into docs key 1 values [1]", false),
            ("DELETE FROM docs KEY 7", false),
            ("\n delete from docs key 7", false),
        ];
        for (text, read) in forms {
            let stmt = parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            let parsed_read = !matches!(
                stmt,
                VqlStatement::Insert { .. } | VqlStatement::Delete { .. }
            );
            assert_eq!(parsed_read, read, "{text}");
            assert_eq!(is_read(text), read, "{text}");
        }
        // Every variant is covered above.
        let variants: std::collections::HashSet<_> = forms
            .iter()
            .map(|(t, _)| std::mem::discriminant(&parse(t).unwrap()))
            .collect();
        assert_eq!(variants.len(), 6);
        // Without a read keyword in front, text is not a read.
        for bad in [
            "",
            "FROB docs",
            "searching docs",
            "SEARCHdocs K 1",
            "[1] SEARCH",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
            assert!(!is_read(bad), "{bad}");
        }
    }

    /// A predicate at the cap parses, compiles, evaluates and drops on the
    /// default 2 MiB stack of a spawned (server worker) thread; one level
    /// more is refused at the opener that crosses the cap.
    #[test]
    fn predicate_nesting_is_capped() {
        use vdb_core::attr::AttrType;
        use vdb_query::CompiledPredicate;
        use vdb_storage::{AttributeStore, Column};
        // `depth` openers alternating `NOT` and `(price >= 0 AND `.
        let nested = |depth: usize| {
            let mut text = String::from("SEARCH docs K 1 NEAR [1] WHERE ");
            for level in 0..depth {
                text += if level % 2 == 0 {
                    "NOT "
                } else {
                    "(price >= 0 AND "
                };
            }
            text + "price > 1" + &")".repeat(depth / 2)
        };
        let over = nested(MAX_PREDICATE_DEPTH + 1);
        match parse(&over) {
            Err(Error::ParseAt { pos, .. }) => assert_eq!(pos, over.rfind("NOT").unwrap()),
            other => panic!("expected a positioned parse error, got {other:?}"),
        }
        let at_cap = nested(MAX_PREDICATE_DEPTH);
        let run = move || {
            let Ok(VqlStatement::Search { predicate, .. }) = parse(&at_cap) else {
                panic!("expected a search");
            };
            let mut attrs = AttributeStore::new();
            attrs
                .add_column(Column::new("price", AttrType::Int))
                .unwrap();
            for price in [0, 2] {
                attrs.push_row(&[("price", AttrValue::Int(price))]).unwrap();
            }
            let compiled = CompiledPredicate::compile(&predicate, &attrs).unwrap();
            // Every `price >= 0` holds: what is left is `price > 1` under
            // one NOT per two levels.
            let negated = MAX_PREDICATE_DEPTH.div_ceil(2) % 2 == 1;
            assert_eq!((compiled.eval(0), compiled.eval(1)), (negated, !negated));
        };
        let thread = std::thread::Builder::new().stack_size(2 << 20);
        thread.spawn(run).unwrap().join().unwrap();
    }

    #[test]
    fn scientific_notation_and_negatives() {
        let s = parse("SEARCH c K 1 NEAR [1e-2, -2.5, 3]").unwrap();
        if let VqlStatement::Search { vector, .. } = s {
            assert!((vector[0] - 0.01).abs() < 1e-9);
            assert_eq!(vector[1], -2.5);
        } else {
            panic!();
        }
    }
}
