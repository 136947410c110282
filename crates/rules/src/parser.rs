//! A textual rule language close to the paper's notation.
//!
//! One rule per line; `#` starts a comment; blank lines are skipped.
//!
//! ```text
//! cfd phi1: tran([AC=131] -> [city=Edi])
//! cfd phi3: tran([city, phn] -> [St, AC, post])
//! cfd phi4: tran([FN=Bob] -> [FN=Robert])
//! md  psi:  tran[LN] = card[LN] AND tran[FN] ~lev(2) card[FN]
//!           -> tran[FN] <=> card[FN], tran[phn] <=> card[tel]
//! neg psi1: tran[gd] != card[gd] -> tran[FN] <!> card[FN]
//! ```
//!
//! (MDs may not span lines in the input — the example above is wrapped for
//! readability only.) Constants containing spaces, commas or brackets are
//! double-quoted: `[city="New York"]`. Similarity predicates: `=`,
//! `~lev(K)`, `~jaro(S)`, `~jw(S)`, `~qgram(Q,S)`.

use std::fmt;
use std::sync::Arc;

use uniclean_model::{Schema, Value};
use uniclean_similarity::SimilarityPredicate;

use crate::cfd::Cfd;
use crate::md::{Md, MdPremise};
use crate::negative::NegativeMd;
use crate::pattern::PatternValue;

/// Rules read from text, still unnormalized.
#[derive(Debug, Default)]
pub struct ParsedRules {
    /// CFDs in input order.
    pub cfds: Vec<Cfd>,
    /// Positive MDs in input order.
    pub positive_mds: Vec<Md>,
    /// Negative MDs in input order.
    pub negative_mds: Vec<NegativeMd>,
}

/// A parse failure, with a 1-based line number and an explanation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based input line.
    pub line: usize,
    /// Human-readable message.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rule parse error on line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parse a rule file against the data schema and (optionally) the master
/// schema. Lines mentioning MDs fail if `master` is `None`.
pub fn parse_rules(
    input: &str,
    schema: &Arc<Schema>,
    master: Option<&Arc<Schema>>,
) -> Result<ParsedRules, ParseError> {
    let mut out = ParsedRules::default();
    for (i, raw) in input.lines().enumerate() {
        let lineno = i + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let mut p = Parser {
            chars: line.chars().collect(),
            pos: 0,
            line: lineno,
        };
        let kind = p.ident().map_err(|m| p.err(m))?;
        match kind.as_str() {
            "cfd" => out.cfds.push(parse_cfd(&mut p, schema)?),
            "md" => {
                let m = master.ok_or_else(|| p.err("md rule requires a master schema".into()))?;
                out.positive_mds.push(parse_md(&mut p, schema, m)?);
            }
            "neg" => {
                let m = master.ok_or_else(|| p.err("neg rule requires a master schema".into()))?;
                out.negative_mds.push(parse_neg(&mut p, schema, m)?);
            }
            other => {
                return Err(p.err(format!("expected `cfd`, `md` or `neg`, found `{other}`")));
            }
        }
    }
    Ok(out)
}

fn strip_comment(line: &str) -> &str {
    // `#` outside quotes starts a comment.
    let mut in_quotes = false;
    for (idx, ch) in line.char_indices() {
        match ch {
            '"' => in_quotes = !in_quotes,
            '#' if !in_quotes => return &line[..idx],
            _ => {}
        }
    }
    line
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
    line: usize,
}

impl Parser {
    fn err(&self, msg: String) -> ParseError {
        ParseError {
            line: self.line,
            msg,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.chars.len() && self.chars[self.pos].is_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.chars.get(self.pos).copied()
    }

    fn eat(&mut self, ch: char) -> Result<(), String> {
        self.skip_ws();
        if self.chars.get(self.pos) == Some(&ch) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{ch}` at column {}, found {}",
                self.pos + 1,
                self.chars
                    .get(self.pos)
                    .map(|c| format!("`{c}`"))
                    .unwrap_or_else(|| "end of line".into())
            ))
        }
    }

    fn try_eat(&mut self, ch: char) -> bool {
        self.skip_ws();
        if self.chars.get(self.pos) == Some(&ch) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_str(&mut self, s: &str) -> Result<(), String> {
        for ch in s.chars() {
            if self.chars.get(self.pos) == Some(&ch) {
                self.pos += 1;
            } else {
                return Err(format!("expected `{s}` at column {}", self.pos + 1));
            }
        }
        Ok(())
    }

    fn ident(&mut self) -> Result<String, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .chars
            .get(self.pos)
            .is_some_and(|c| c.is_alphanumeric() || *c == '_' || *c == '-' || *c == '.')
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected an identifier at column {}", self.pos + 1));
        }
        Ok(self.chars[start..self.pos].iter().collect())
    }

    /// A constant: bare token (no spaces/commas/brackets) or "quoted".
    fn constant(&mut self) -> Result<String, String> {
        self.skip_ws();
        if self.chars.get(self.pos) == Some(&'"') {
            self.pos += 1;
            let start = self.pos;
            while self.chars.get(self.pos).is_some_and(|c| *c != '"') {
                self.pos += 1;
            }
            if self.chars.get(self.pos) != Some(&'"') {
                return Err("unterminated quoted constant".into());
            }
            let s: String = self.chars[start..self.pos].iter().collect();
            self.pos += 1;
            Ok(s)
        } else {
            let start = self.pos;
            while self
                .chars
                .get(self.pos)
                .is_some_and(|c| !matches!(c, ',' | ']' | ')' | '"') && !c.is_whitespace())
            {
                self.pos += 1;
            }
            if self.pos == start {
                return Err(format!("expected a constant at column {}", self.pos + 1));
            }
            Ok(self.chars[start..self.pos].iter().collect())
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .chars
            .get(self.pos)
            .is_some_and(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        {
            self.pos += 1;
        }
        let s: String = self.chars[start..self.pos].iter().collect();
        s.parse::<f64>()
            .map_err(|_| format!("expected a number, found `{s}`"))
    }

    fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.pos >= self.chars.len()
    }
}

/// `name: R([A=c, B] -> [C=d, E])` (the leading `cfd` is already consumed).
fn parse_cfd(p: &mut Parser, schema: &Arc<Schema>) -> Result<Cfd, ParseError> {
    let build = |p: &mut Parser| -> Result<Cfd, String> {
        let name = p.ident()?;
        p.eat(':')?;
        let rel = p.ident()?;
        if rel != schema.name() {
            return Err(format!(
                "unknown relation `{rel}` (expected `{}`)",
                schema.name()
            ));
        }
        p.eat('(')?;
        let (lhs, lhs_pattern) = parse_attr_pattern_list(p, schema)?;
        // `Cfd::new` asserts a duplicate-free LHS; a rule file is input.
        let repeated = (1..lhs.len()).find(|&i| lhs[..i].contains(&lhs[i]));
        if let Some(i) = repeated {
            return Err(format!(
                "attribute `{}` appears more than once in the CFD's LHS",
                schema.attr_name(lhs[i])
            ));
        }
        p.eat('-')?;
        p.eat_str(">")?;
        let (rhs, rhs_pattern) = parse_attr_pattern_list(p, schema)?;
        p.eat(')')?;
        if !p.at_end() {
            return Err(format!("unexpected trailing input at column {}", p.pos + 1));
        }
        Ok(Cfd::new(
            name,
            schema.clone(),
            lhs,
            lhs_pattern,
            rhs,
            rhs_pattern,
        ))
    };
    build(p).map_err(|m| p.err(m))
}

fn parse_attr_pattern_list(
    p: &mut Parser,
    schema: &Arc<Schema>,
) -> Result<(Vec<uniclean_model::AttrId>, Vec<PatternValue>), String> {
    p.eat('[')?;
    let mut attrs = Vec::new();
    let mut pats = Vec::new();
    loop {
        let attr = p.ident()?;
        let id = schema
            .attr_id(&attr)
            .ok_or_else(|| format!("schema `{}` has no attribute `{attr}`", schema.name()))?;
        attrs.push(id);
        if p.try_eat('=') {
            pats.push(PatternValue::Const(Value::str(p.constant()?)));
        } else {
            pats.push(PatternValue::Wildcard);
        }
        if !p.try_eat(',') {
            break;
        }
    }
    p.eat(']')?;
    Ok((attrs, pats))
}

/// One side of an MD conjunct: `R[attr]`.
fn parse_qualified_attr(
    p: &mut Parser,
    schema: &Arc<Schema>,
) -> Result<uniclean_model::AttrId, String> {
    let rel = p.ident()?;
    if rel != schema.name() {
        return Err(format!(
            "unknown relation `{rel}` (expected `{}`)",
            schema.name()
        ));
    }
    p.eat('[')?;
    let attr = p.ident()?;
    let id = schema
        .attr_id(&attr)
        .ok_or_else(|| format!("schema `{}` has no attribute `{attr}`", schema.name()))?;
    p.eat(']')?;
    Ok(id)
}

fn parse_similarity(p: &mut Parser) -> Result<SimilarityPredicate, String> {
    if p.try_eat('=') {
        return Ok(SimilarityPredicate::Equal);
    }
    p.eat('~')?;
    let kind = p.ident()?;
    p.eat('(')?;
    let pred = match kind.as_str() {
        "lev" => SimilarityPredicate::Levenshtein {
            max: p.number()? as usize,
        },
        "jaro" => SimilarityPredicate::Jaro { min: p.number()? },
        "jw" => SimilarityPredicate::JaroWinkler { min: p.number()? },
        "qgram" => {
            let q = p.number()? as usize;
            p.eat(',')?;
            SimilarityPredicate::QGramJaccard {
                q,
                min: p.number()?,
            }
        }
        other => return Err(format!("unknown similarity predicate `~{other}`")),
    };
    p.eat(')')?;
    Ok(pred)
}

/// `name: R[a] ≈ Rm[b] AND … -> R[e] <=> Rm[f], …`
fn parse_md(p: &mut Parser, schema: &Arc<Schema>, master: &Arc<Schema>) -> Result<Md, ParseError> {
    let build = |p: &mut Parser| -> Result<Md, String> {
        let name = p.ident()?;
        p.eat(':')?;
        let mut premises = Vec::new();
        loop {
            let attr = parse_qualified_attr(p, schema)?;
            let pred = parse_similarity(p)?;
            let mattr = parse_qualified_attr(p, master)?;
            premises.push(MdPremise {
                attr,
                master_attr: mattr,
                pred,
            });
            // `AND` continues the premise, `->` starts the conclusion.
            if p.peek() == Some('A') {
                p.eat_str("AND")?;
                continue;
            }
            break;
        }
        p.eat('-')?;
        p.eat_str(">")?;
        let mut rhs = Vec::new();
        loop {
            let e = parse_qualified_attr(p, schema)?;
            p.eat('<')?;
            p.eat_str("=>")?;
            let f = parse_qualified_attr(p, master)?;
            rhs.push((e, f));
            if !p.try_eat(',') {
                break;
            }
        }
        if !p.at_end() {
            return Err(format!("unexpected trailing input at column {}", p.pos + 1));
        }
        Ok(Md::new(name, schema.clone(), master.clone(), premises, rhs))
    };
    build(p).map_err(|m| p.err(m))
}

/// `name: R[a] != Rm[b] AND … -> R[e] <!> Rm[f], …`
fn parse_neg(
    p: &mut Parser,
    schema: &Arc<Schema>,
    master: &Arc<Schema>,
) -> Result<NegativeMd, ParseError> {
    let build = |p: &mut Parser| -> Result<NegativeMd, String> {
        let name = p.ident()?;
        p.eat(':')?;
        let mut premises = Vec::new();
        loop {
            let attr = parse_qualified_attr(p, schema)?;
            p.eat('!')?;
            p.eat_str("=")?;
            let mattr = parse_qualified_attr(p, master)?;
            premises.push((attr, mattr));
            if p.peek() == Some('A') {
                p.eat_str("AND")?;
                continue;
            }
            break;
        }
        p.eat('-')?;
        p.eat_str(">")?;
        let mut rhs = Vec::new();
        loop {
            let e = parse_qualified_attr(p, schema)?;
            p.eat('<')?;
            p.eat_str("!>")?;
            let f = parse_qualified_attr(p, master)?;
            rhs.push((e, f));
            if !p.try_eat(',') {
                break;
            }
        }
        if !p.at_end() {
            return Err(format!("unexpected trailing input at column {}", p.pos + 1));
        }
        Ok(NegativeMd::new(
            name,
            schema.clone(),
            master.clone(),
            premises,
            rhs,
        ))
    };
    build(p).map_err(|m| p.err(m))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schemas() -> (Arc<Schema>, Arc<Schema>) {
        (
            Schema::of_strings(
                "tran",
                &["FN", "LN", "city", "AC", "post", "phn", "gd", "St"],
            ),
            Schema::of_strings(
                "card",
                &["FN", "LN", "city", "AC", "zip", "tel", "gd", "St"],
            ),
        )
    }

    #[test]
    fn parses_the_running_example() {
        let (tran, card) = schemas();
        let text = r#"
            # Example 1.1 rules
            cfd phi1: tran([AC=131] -> [city=Edi])
            cfd phi2: tran([AC=020] -> [city=Ldn])
            cfd phi3: tran([city, phn] -> [St, AC, post])
            cfd phi4: tran([FN=Bob] -> [FN=Robert])
            md psi: tran[LN] = card[LN] AND tran[city] = card[city] AND tran[St] = card[St] AND tran[post] = card[zip] AND tran[FN] ~lev(3) card[FN] -> tran[FN] <=> card[FN], tran[phn] <=> card[tel]
            neg psi1: tran[gd] != card[gd] -> tran[FN] <!> card[FN]
        "#;
        let rules = parse_rules(text, &tran, Some(&card)).unwrap();
        assert_eq!(rules.cfds.len(), 4);
        assert_eq!(rules.positive_mds.len(), 1);
        assert_eq!(rules.negative_mds.len(), 1);
        assert_eq!(
            rules.cfds[0].to_string(),
            "phi1: tran([AC=131] -> [city=Edi])"
        );
        assert!(rules.cfds[2].is_plain_fd());
        assert_eq!(rules.positive_mds[0].premises().len(), 5);
        assert_eq!(rules.positive_mds[0].rhs().len(), 2);
    }

    #[test]
    fn quoted_constants_allow_spaces_and_commas() {
        let (tran, _) = schemas();
        let rules = parse_rules(
            r#"cfd c: tran([city="New York, NY"] -> [AC=212])"#,
            &tran,
            None,
        )
        .unwrap();
        assert_eq!(
            rules.cfds[0].lhs_pattern()[0],
            PatternValue::Const(Value::str("New York, NY"))
        );
    }

    #[test]
    fn display_round_trips_constants_needing_quotes() {
        let (tran, _) = schemas();
        // Spaces, commas and `#` in constants must re-quote on Display so
        // `cfd {cfd}` re-parses to the same rule.
        let text = r#"cfd c: tran([city="New York, NY", AC=212] -> [St="Main St #4"])"#;
        let rules = parse_rules(text, &tran, None).unwrap();
        let rendered = format!("cfd {}", rules.cfds[0]);
        let reparsed = parse_rules(&rendered, &tran, None)
            .unwrap_or_else(|e| panic!("`{rendered}` does not re-parse: {e}"));
        assert_eq!(reparsed.cfds[0], rules.cfds[0]);
    }

    #[test]
    fn similarity_predicate_variants_parse() {
        let (tran, card) = schemas();
        let text = "md m: tran[FN] ~jw(0.9) card[FN] AND tran[LN] ~qgram(2,0.5) card[LN] AND tran[city] ~jaro(0.8) card[city] -> tran[phn] <=> card[tel]";
        let rules = parse_rules(text, &tran, Some(&card)).unwrap();
        let prem = rules.positive_mds[0].premises();
        assert_eq!(prem[0].pred, SimilarityPredicate::JaroWinkler { min: 0.9 });
        assert_eq!(
            prem[1].pred,
            SimilarityPredicate::QGramJaccard { q: 2, min: 0.5 }
        );
        assert_eq!(prem[2].pred, SimilarityPredicate::Jaro { min: 0.8 });
    }

    #[test]
    fn unknown_attribute_reports_line() {
        let (tran, _) = schemas();
        let err = parse_rules("\ncfd c: tran([bogus] -> [city])", &tran, None).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.msg.contains("bogus"), "{}", err.msg);
    }

    #[test]
    fn repeated_lhs_attribute_is_a_parse_error() {
        let (tran, _) = schemas();
        for lhs in [
            "[AC, AC]",
            "[AC=131, AC]",
            "[AC=131, AC=020]",
            "[city, AC, city]",
        ] {
            let text = format!("cfd c: tran({lhs} -> [St])");
            let err = parse_rules(&text, &tran, None).unwrap_err();
            assert_eq!(err.line, 1, "{text}");
            assert!(
                err.msg.contains("appears more than once"),
                "{text}: {}",
                err.msg
            );
        }
        let err = parse_rules("cfd c: tran([city, AC, city] -> [St])", &tran, None).unwrap_err();
        assert!(err.msg.contains("`city`"), "{}", err.msg);
    }

    #[test]
    fn unknown_relation_rejected() {
        let (tran, _) = schemas();
        let err = parse_rules("cfd c: wrong([AC] -> [city])", &tran, None).unwrap_err();
        assert!(err.msg.contains("unknown relation"), "{}", err.msg);
    }

    #[test]
    fn md_without_master_schema_rejected() {
        let (tran, _) = schemas();
        let err = parse_rules(
            "md m: tran[FN] = tran[FN] -> tran[FN] <=> tran[FN]",
            &tran,
            None,
        )
        .unwrap_err();
        assert!(err.msg.contains("master schema"), "{}", err.msg);
    }

    #[test]
    fn trailing_garbage_rejected() {
        let (tran, _) = schemas();
        let err = parse_rules("cfd c: tran([AC] -> [city]) extra", &tran, None).unwrap_err();
        assert!(err.msg.contains("trailing"), "{}", err.msg);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let (tran, _) = schemas();
        let rules = parse_rules("\n# only a comment\n\n", &tran, None).unwrap();
        assert!(rules.cfds.is_empty());
    }

    #[test]
    fn hash_inside_quotes_is_content() {
        let (tran, _) = schemas();
        let rules =
            parse_rules(r##"cfd c: tran([city="#1 Place"] -> [AC=1])"##, &tran, None).unwrap();
        assert_eq!(
            rules.cfds[0].lhs_pattern()[0],
            PatternValue::Const(Value::str("#1 Place"))
        );
    }

    #[test]
    fn unknown_predicate_rejected() {
        let (tran, card) = schemas();
        let err = parse_rules(
            "md m: tran[FN] ~cosine(0.9) card[FN] -> tran[phn] <=> card[tel]",
            &tran,
            Some(&card),
        )
        .unwrap_err();
        assert!(err.msg.contains("cosine"), "{}", err.msg);
    }
}
