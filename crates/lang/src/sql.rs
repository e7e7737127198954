//! SQL front end for built-in aggregate and action definitions.
//!
//! The paper defines its built-ins directly in SQL: aggregate functions have
//! the shape of Eq. (5) and action functions the shape of Eq. (4), and
//! Figures 4 and 5 show their concrete text.  In the data-driven architecture
//! of §2 these definitions are *game content*, authored by designers and
//! modders in data files, not by engine programmers in Rust.  This module
//! closes that loop: it parses the Figure-4/5 syntax into the same
//! [`AggregateDef`] / [`ActionDef`] values that [`crate::builtins`] builds
//! programmatically, so a registry can be assembled (or extended by a mod)
//! entirely from SQL text:
//!
//! ```
//! use sgl_lang::sql::parse_sql_registry;
//!
//! let registry = parse_sql_registry(r#"
//!     constant _SKELETON_PLAYER = 2;
//!
//!     function CountSkeletons(u, range) returns
//!       SELECT Count(*)
//!       FROM E e
//!       WHERE e.posx >= u.posx - range AND e.posx <= u.posx + range
//!         AND e.posy >= u.posy - range AND e.posy <= u.posy + range
//!         AND e.player = _SKELETON_PLAYER;
//! "#).unwrap();
//! assert!(registry.aggregate("CountSkeletons").is_some());
//! ```
//!
//! ## Supported surface syntax
//!
//! * `constant NAME = literal;` — game constants (`_HEAL_AURA`, ...).
//! * `function Name(u, p1, ...) returns SELECT ...;` — one definition.
//! * Aggregate definitions (Eq. (5)): every select item is an SQL aggregate
//!   `Count(*) | Sum(x) | Avg(x) | Min(x) | Max(x) | StdDev(x)`, optionally
//!   `AS name` and `DEFAULT literal`.
//! * Nearest-neighbour style aggregates (§5.3.2) use the standard SQL idiom
//!   `ORDER BY rank ASC|DESC LIMIT 1`: the select items are expressions over
//!   the best row (an *argmin/argmax*, [`AggSpec::ArgBest`]).
//! * Action definitions (Eq. (4)): select items describe the new value of
//!   each effect attribute.  `e.damage + X AS damage` and
//!   `nonsql_max(e.inaura, X) AS inaura` contribute the effect `X`; columns
//!   copied unchanged (`e.posx`, `e.key`, ...) contribute nothing.  Several
//!   `SELECT`s joined by `UNION` become separate effect clauses.
//! * `WHERE` accepts conjunctions, disjunctions and `NOT` over comparisons of
//!   arithmetic terms, exactly like SGL conditions; `e.attr` (or the FROM
//!   alias) refers to the candidate row, `u.attr` (the first parameter) to
//!   the acting unit, bare names to parameters and constants.
//!
//! Names and shapes are validated later against the schema by
//! [`crate::typecheck::check_registry`], identically to Rust-built registries.

use sgl_env::Value;

use crate::ast::{BinOp, CmpOp, Cond, Term, VarRef};
use crate::builtins::{
    ActionDef, AggOutput, AggSpec, AggregateDef, EffectClause, Registry, SimpleAgg,
};
use crate::error::{LangError, Pos, Result};
use crate::lexer::{tokenize, Tok, Token};

/// One parsed SQL definition.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlItem {
    /// A game constant.
    Constant(String, Value),
    /// An aggregate function (Eq. (5)).
    Aggregate(AggregateDef),
    /// An action function (Eq. (4)).
    Action(ActionDef),
}

/// Parse a whole definition file into a fresh [`Registry`].
pub fn parse_sql_registry(src: &str) -> Result<Registry> {
    let mut registry = Registry::new();
    extend_registry_from_sql(&mut registry, src)?;
    Ok(registry)
}

/// Parse a definition file and register everything into an existing registry
/// (this is how a mod layers new behaviour on top of the base game: later
/// definitions replace earlier ones of the same name).
pub fn extend_registry_from_sql(registry: &mut Registry, src: &str) -> Result<()> {
    for item in parse_sql_items(src)? {
        match item {
            SqlItem::Constant(name, value) => registry.set_constant(&name, value),
            SqlItem::Aggregate(def) => registry.register_aggregate(def),
            SqlItem::Action(def) => registry.register_action(def),
        }
    }
    Ok(())
}

/// Parse a definition file into its items without touching a registry.
pub fn parse_sql_items(src: &str) -> Result<Vec<SqlItem>> {
    let tokens = tokenize(src)?;
    let mut parser = SqlParser::new(tokens);
    parser.items()
}

/// Parse a single `function ... returns SELECT ...;` definition.
pub fn parse_sql_function(src: &str) -> Result<SqlItem> {
    let items = parse_sql_items(src)?;
    match items.len() {
        1 => Ok(items.into_iter().next().unwrap()),
        n => Err(LangError::Semantic(format!(
            "expected exactly one definition, found {n}"
        ))),
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct SqlParser {
    tokens: Vec<Token>,
    pos: usize,
    /// Name of the acting-unit parameter of the definition being parsed.
    unit_param: String,
    /// FROM alias for the candidate row (`e` by default).
    row_alias: String,
    /// Current nesting depth (see [`crate::parser::MAX_NESTING`]).
    depth: usize,
}

impl SqlParser {
    fn new(tokens: Vec<Token>) -> SqlParser {
        SqlParser {
            tokens,
            pos: 0,
            unit_param: "u".into(),
            row_alias: "e".into(),
            depth: 0,
        }
    }

    /// Run `f` one nesting level deeper.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        crate::parser::check_nesting(self.depth, self.peek_pos())?;
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn peek_pos(&self) -> Pos {
        self.tokens[self.pos].pos
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].tok.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T> {
        Err(LangError::Parse {
            pos: self.peek_pos(),
            message: message.into(),
        })
    }

    fn expect(&mut self, tok: Tok) -> Result<()> {
        if *self.peek() == tok {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {tok:?}, found {:?}", self.peek()))
        }
    }

    /// Is the current token the given (case-insensitive) keyword?
    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(name) if name.eq_ignore_ascii_case(kw))
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            self.err(format!("expected `{kw}`, found {:?}", self.peek()))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.peek().clone() {
            Tok::Ident(name) => {
                self.bump();
                Ok(name)
            }
            other => self.err(format!("expected identifier, found {other:?}")),
        }
    }

    // ------------------------------------------------------------- top level

    fn items(&mut self) -> Result<Vec<SqlItem>> {
        let mut items = Vec::new();
        loop {
            match self.peek().clone() {
                Tok::Eof => break,
                Tok::Semi => {
                    self.bump();
                }
                Tok::Ident(name) if name.eq_ignore_ascii_case("constant") => {
                    self.bump();
                    items.push(self.constant_decl()?);
                }
                Tok::Ident(name) if name.eq_ignore_ascii_case("function") => {
                    self.bump();
                    items.push(self.function_decl()?);
                }
                other => {
                    return self.err(format!(
                        "expected `function` or `constant`, found {other:?}"
                    ))
                }
            }
        }
        Ok(items)
    }

    fn constant_decl(&mut self) -> Result<SqlItem> {
        let name = self.ident()?;
        self.expect(Tok::Eq)?;
        let value = self.literal()?;
        self.expect(Tok::Semi)?;
        Ok(SqlItem::Constant(name, value))
    }

    fn literal(&mut self) -> Result<Value> {
        let negative = if *self.peek() == Tok::Minus {
            self.bump();
            true
        } else {
            false
        };
        let value = match self.peek().clone() {
            Tok::Int(v) => {
                self.bump();
                Value::Int(if negative { -v } else { v })
            }
            Tok::Float(v) => {
                self.bump();
                Value::Float(if negative { -v } else { v })
            }
            Tok::Str(s) if !negative => {
                self.bump();
                Value::str(s)
            }
            other => return self.err(format!("expected a literal, found {other:?}")),
        };
        Ok(value)
    }

    fn function_decl(&mut self) -> Result<SqlItem> {
        let name = self.ident()?;
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if *self.peek() != Tok::RParen {
            loop {
                params.push(self.ident()?);
                if *self.peek() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        if params.is_empty() {
            return Err(LangError::Semantic(format!(
                "function `{name}` must take the acting unit as its first parameter"
            )));
        }
        self.unit_param = params[0].clone();
        self.expect_keyword("returns")?;

        // One or more SELECT statements joined by UNION.
        let mut selects = Vec::new();
        loop {
            selects.push(self.select()?);
            if !self.eat_keyword("union") {
                break;
            }
        }
        if *self.peek() == Tok::Semi {
            self.bump();
        }

        self.classify(name, params, selects)
    }

    // ---------------------------------------------------------------- SELECT

    fn select(&mut self) -> Result<Select> {
        self.expect_keyword("select")?;
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if *self.peek() == Tok::Comma {
                self.bump();
            } else {
                break;
            }
        }
        self.expect_keyword("from")?;
        let table = self.ident()?;
        if !table.eq_ignore_ascii_case("e") {
            return Err(LangError::Semantic(format!(
                "built-in definitions read the environment table `E`, not `{table}`"
            )));
        }
        // Optional row alias (`FROM E e`); defaults to `e`.
        self.row_alias = "e".into();
        if let Tok::Ident(alias) = self.peek().clone() {
            if !is_sql_keyword(&alias) {
                self.bump();
                self.row_alias = alias;
            }
        }
        let filter = if self.eat_keyword("where") {
            self.cond()?
        } else {
            Cond::Lit(true)
        };
        let order = if self.eat_keyword("order") {
            self.expect_keyword("by")?;
            let rank = self.term()?;
            let minimize = if self.eat_keyword("desc") {
                false
            } else {
                self.eat_keyword("asc");
                true
            };
            self.expect_keyword("limit")?;
            match self.bump() {
                Tok::Int(1) => {}
                other => return self.err(format!("only `LIMIT 1` is supported, found {other:?}")),
            }
            Some((rank, minimize))
        } else {
            None
        };
        Ok(Select {
            items,
            filter,
            order,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        // SQL aggregate call?
        if let Tok::Ident(name) = self.peek().clone() {
            if let Some(func) = simple_agg_of(&name) {
                if self.tokens[self.pos + 1].tok == Tok::LParen {
                    self.bump();
                    self.bump();
                    let value = if *self.peek() == Tok::Star {
                        self.bump();
                        Term::int(1)
                    } else {
                        self.term()?
                    };
                    self.expect(Tok::RParen)?;
                    let (alias, default) = self.item_suffix()?;
                    return Ok(SelectItem::Aggregate {
                        func,
                        value,
                        alias,
                        default,
                    });
                }
            }
        }
        let expr = self.term()?;
        let (alias, default) = self.item_suffix()?;
        Ok(SelectItem::Plain {
            expr,
            alias,
            default,
        })
    }

    /// Optional `AS alias` and `DEFAULT literal` suffixes of a select item.
    fn item_suffix(&mut self) -> Result<(Option<String>, Option<Value>)> {
        let alias = if self.eat_keyword("as") {
            Some(self.ident()?)
        } else {
            None
        };
        let default = if self.eat_keyword("default") {
            Some(self.literal()?)
        } else {
            None
        };
        Ok((alias, default))
    }

    // ------------------------------------------------------------ conditions

    fn cond(&mut self) -> Result<Cond> {
        let mut left = self.cond_and()?;
        while self.eat_keyword("or") {
            let right = self.cond_and()?;
            left = Cond::or(left, right);
        }
        Ok(left)
    }

    fn cond_and(&mut self) -> Result<Cond> {
        let mut left = self.cond_not()?;
        while self.eat_keyword("and") {
            let right = self.cond_not()?;
            left = Cond::and(left, right);
        }
        Ok(left)
    }

    fn cond_not(&mut self) -> Result<Cond> {
        self.nested(|p| {
            if p.eat_keyword("not") {
                return Ok(Cond::not(p.cond_not()?));
            }
            p.cond_primary()
        })
    }

    fn cond_primary(&mut self) -> Result<Cond> {
        if self.at_keyword("true") {
            self.bump();
            return Ok(Cond::Lit(true));
        }
        if self.at_keyword("false") {
            self.bump();
            return Ok(Cond::Lit(false));
        }
        let save = self.pos;
        match self.comparison() {
            Ok(c) => Ok(c),
            Err(first_err) => {
                self.pos = save;
                if *self.peek() == Tok::LParen {
                    self.bump();
                    let inner = self.cond()?;
                    self.expect(Tok::RParen)?;
                    Ok(inner)
                } else {
                    Err(first_err)
                }
            }
        }
    }

    fn comparison(&mut self) -> Result<Cond> {
        let left = self.term()?;
        let op = match self.peek() {
            Tok::Eq => CmpOp::Eq,
            Tok::Ne => CmpOp::Ne,
            Tok::Lt => CmpOp::Lt,
            Tok::Le => CmpOp::Le,
            Tok::Gt => CmpOp::Gt,
            Tok::Ge => CmpOp::Ge,
            other => return self.err(format!("expected a comparison operator, found {other:?}")),
        };
        self.bump();
        let right = self.term()?;
        Ok(Cond::Cmp { op, left, right })
    }

    // ----------------------------------------------------------------- terms

    fn term(&mut self) -> Result<Term> {
        let mut left = self.mul_div()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let right = self.mul_div()?;
            left = Term::bin(op, left, right);
        }
        Ok(left)
    }

    fn mul_div(&mut self) -> Result<Term> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                Tok::Ident(n) if n.eq_ignore_ascii_case("mod") => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let right = self.unary()?;
            left = Term::bin(op, left, right);
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Term> {
        self.nested(|p| {
            if *p.peek() == Tok::Minus {
                p.bump();
                return Ok(Term::Neg(Box::new(p.unary()?)));
            }
            p.primary()
        })
    }

    fn primary(&mut self) -> Result<Term> {
        match self.peek().clone() {
            Tok::Int(v) => {
                self.bump();
                Ok(Term::Const(Value::Int(v)))
            }
            Tok::Float(v) => {
                self.bump();
                Ok(Term::Const(Value::Float(v)))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Term::Const(Value::str(s)))
            }
            Tok::LParen => {
                self.bump();
                let inner = self.term()?;
                self.expect(Tok::RParen)?;
                Ok(inner)
            }
            Tok::Ident(name) => {
                self.bump();
                // Function-style calls usable inside definitions.
                if *self.peek() == Tok::LParen {
                    self.bump();
                    let mut args = Vec::new();
                    if *self.peek() != Tok::RParen {
                        loop {
                            args.push(self.term()?);
                            if *self.peek() == Tok::Comma {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(Tok::RParen)?;
                    return self.call(&name, args);
                }
                // Qualified column access (`e.attr`, `E.attr`, `u.attr`).
                if *self.peek() == Tok::Dot {
                    self.bump();
                    let field = self.ident()?;
                    if name == self.unit_param {
                        return Ok(Term::Var(VarRef::Unit(field)));
                    }
                    if name.eq_ignore_ascii_case(&self.row_alias) || name.eq_ignore_ascii_case("e")
                    {
                        return Ok(Term::Var(VarRef::Row(field)));
                    }
                    return Err(LangError::Semantic(format!(
                        "unknown table alias `{name}` (expected `{}` or `{}`)",
                        self.row_alias, self.unit_param
                    )));
                }
                Ok(Term::Var(VarRef::Name(name)))
            }
            other => self.err(format!("expected a term, found {other:?}")),
        }
    }

    fn call(&mut self, name: &str, mut args: Vec<Term>) -> Result<Term> {
        match name.to_ascii_lowercase().as_str() {
            "abs" => {
                if args.len() != 1 {
                    return Err(LangError::Semantic("abs takes exactly one argument".into()));
                }
                Ok(Term::Abs(Box::new(args.pop().unwrap())))
            }
            "sqrt" => {
                if args.len() != 1 {
                    return Err(LangError::Semantic(
                        "sqrt takes exactly one argument".into(),
                    ));
                }
                Ok(Term::Sqrt(Box::new(args.pop().unwrap())))
            }
            "random" => {
                // Figure 5 writes `Random(e, 1)`; the row argument is implicit
                // in our semantics, so accept one or two arguments and keep
                // only the seed.
                match args.len() {
                    1 => Ok(Term::Random(Box::new(args.pop().unwrap()))),
                    2 => Ok(Term::Random(Box::new(args.pop().unwrap()))),
                    n => Err(LangError::Semantic(format!(
                        "Random takes 1 or 2 arguments, found {n}"
                    ))),
                }
            }
            "nonsql_max" => {
                // `nonsql_max(e.attr, X)` — the paper's way of writing a
                // nonstackable effect.  Inside an expression it reads as
                // "the larger of the current value and X"; the effect
                // extraction in `classify` special-cases it.
                if args.len() != 2 {
                    return Err(LangError::Semantic(
                        "nonsql_max takes exactly two arguments".into(),
                    ));
                }
                let second = args.pop().unwrap();
                let first = args.pop().unwrap();
                Ok(Term::Tuple(vec![
                    Term::Var(VarRef::Name("nonsql_max".into())),
                    first,
                    second,
                ]))
            }
            other => Err(LangError::Semantic(format!(
                "unsupported function `{other}` inside a built-in definition"
            ))),
        }
    }

    // --------------------------------------------------------- classification

    fn classify(&self, name: String, params: Vec<String>, selects: Vec<Select>) -> Result<SqlItem> {
        let first = &selects[0];
        let has_sql_aggregate = first
            .items
            .iter()
            .any(|item| matches!(item, SelectItem::Aggregate { .. }));

        if has_sql_aggregate || first.order.is_some() {
            if selects.len() != 1 {
                return Err(LangError::Semantic(format!(
                    "aggregate function `{name}` must consist of a single SELECT"
                )));
            }
            let select = selects.into_iter().next().unwrap();
            let def = if let Some((rank, minimize)) = select.order {
                self.build_argbest(name, params, select.items, select.filter, rank, minimize)?
            } else {
                self.build_simple_aggregate(name, params, select.items, select.filter)?
            };
            Ok(SqlItem::Aggregate(def))
        } else {
            let mut clauses = Vec::with_capacity(selects.len());
            for select in selects {
                clauses.push(self.build_effect_clause(&name, select)?);
            }
            Ok(SqlItem::Action(ActionDef {
                name,
                params,
                clauses,
            }))
        }
    }

    fn build_simple_aggregate(
        &self,
        name: String,
        params: Vec<String>,
        items: Vec<SelectItem>,
        filter: Cond,
    ) -> Result<AggregateDef> {
        let single = items.len() == 1;
        let mut outputs = Vec::with_capacity(items.len());
        for (i, item) in items.into_iter().enumerate() {
            match item {
                SelectItem::Aggregate {
                    func,
                    value,
                    alias,
                    default,
                } => {
                    let name = alias.unwrap_or_else(|| {
                        if single {
                            "value".to_string()
                        } else {
                            format!("col{i}")
                        }
                    });
                    let default = default.unwrap_or(match func {
                        SimpleAgg::Count => Value::Int(0),
                        _ => Value::Float(0.0),
                    });
                    outputs.push(AggOutput {
                        name,
                        func,
                        value,
                        default,
                    });
                }
                SelectItem::Plain { .. } => {
                    return Err(LangError::Semantic(format!(
                        "aggregate function `{name}` mixes aggregated and plain columns; \
                         use ORDER BY ... LIMIT 1 for per-row outputs"
                    )));
                }
            }
        }
        Ok(AggregateDef {
            name,
            params,
            filter,
            spec: AggSpec::Simple { outputs },
        })
    }

    fn build_argbest(
        &self,
        name: String,
        params: Vec<String>,
        items: Vec<SelectItem>,
        filter: Cond,
        rank: Term,
        minimize: bool,
    ) -> Result<AggregateDef> {
        let mut outputs = Vec::with_capacity(items.len());
        for (i, item) in items.into_iter().enumerate() {
            match item {
                SelectItem::Plain {
                    expr,
                    alias,
                    default,
                } => {
                    let out_name = alias.unwrap_or(match &expr {
                        Term::Var(VarRef::Row(attr)) => attr.clone(),
                        _ => format!("col{i}"),
                    });
                    let default = default.unwrap_or(match &expr {
                        // Key-like outputs default to the sentinel "no unit".
                        Term::Var(VarRef::Row(attr)) if attr == "key" => Value::Int(-1),
                        _ => Value::Float(0.0),
                    });
                    outputs.push((out_name, expr, default));
                }
                SelectItem::Aggregate { .. } => {
                    return Err(LangError::Semantic(format!(
                        "`{name}`: ORDER BY ... LIMIT 1 definitions select plain expressions, not aggregates"
                    )));
                }
            }
        }
        Ok(AggregateDef {
            name,
            params,
            filter,
            spec: AggSpec::ArgBest {
                minimize,
                rank,
                outputs,
            },
        })
    }

    fn build_effect_clause(&self, fn_name: &str, select: Select) -> Result<EffectClause> {
        let mut effects = Vec::new();
        for (i, item) in select.items.into_iter().enumerate() {
            let (expr, alias) = match item {
                SelectItem::Plain {
                    expr,
                    alias,
                    default: None,
                } => (expr, alias),
                SelectItem::Plain {
                    default: Some(_), ..
                } => {
                    return Err(LangError::Semantic(format!(
                        "`{fn_name}`: DEFAULT is only meaningful for aggregate outputs"
                    )));
                }
                SelectItem::Aggregate { .. } => {
                    return Err(LangError::Semantic(format!(
                        "`{fn_name}`: action definitions cannot contain SQL aggregates"
                    )));
                }
            };
            let target = match (&alias, &expr) {
                (Some(name), _) => name.clone(),
                (None, Term::Var(VarRef::Row(attr))) => attr.clone(),
                _ => {
                    return Err(LangError::Semantic(format!(
                        "`{fn_name}`: select item {i} needs an `AS attribute` alias"
                    )));
                }
            };
            if let Some(effect) = extract_effect(&target, &expr) {
                effects.push((target, effect));
            }
        }
        if effects.is_empty() {
            return Err(LangError::Semantic(format!(
                "action `{fn_name}` has a clause with no effect columns"
            )));
        }
        Ok(EffectClause {
            filter: select.filter,
            effects,
        })
    }
}

/// Extract the effect contributed to `target` by a select expression, or
/// `None` when the column is just copied through unchanged.
///
/// * `e.target`                         → no effect;
/// * `e.target + X` / `X + e.target`    → effect `X` (stackable increment);
/// * `e.target - X`                     → effect `-X`;
/// * `nonsql_max(e.target, X)`          → effect `X` (nonstackable, combined
///   by the attribute's `max` tag);
/// * anything else                      → the whole expression is the effect.
fn extract_effect(target: &str, expr: &Term) -> Option<Term> {
    let is_current = |t: &Term| matches!(t, Term::Var(VarRef::Row(attr)) if attr == target);
    if is_current(expr) {
        return None;
    }
    if let Term::Bin { op, left, right } = expr {
        match op {
            BinOp::Add if is_current(left) => return Some((**right).clone()),
            BinOp::Add if is_current(right) => return Some((**left).clone()),
            BinOp::Sub if is_current(left) => return Some(Term::Neg(Box::new((**right).clone()))),
            _ => {}
        }
    }
    if let Term::Tuple(items) = expr {
        if items.len() == 3 {
            if let Term::Var(VarRef::Name(marker)) = &items[0] {
                if marker == "nonsql_max" && is_current(&items[1]) {
                    return Some(items[2].clone());
                }
            }
        }
    }
    Some(expr.clone())
}

fn simple_agg_of(name: &str) -> Option<SimpleAgg> {
    match name.to_ascii_lowercase().as_str() {
        "count" => Some(SimpleAgg::Count),
        "sum" => Some(SimpleAgg::Sum),
        "avg" => Some(SimpleAgg::Avg),
        "min" => Some(SimpleAgg::Min),
        "max" => Some(SimpleAgg::Max),
        "stddev" | "std_dev" => Some(SimpleAgg::StdDev),
        _ => None,
    }
}

fn is_sql_keyword(name: &str) -> bool {
    matches!(
        name.to_ascii_lowercase().as_str(),
        "select"
            | "from"
            | "where"
            | "and"
            | "or"
            | "not"
            | "as"
            | "order"
            | "by"
            | "asc"
            | "desc"
            | "limit"
            | "union"
            | "default"
            | "returns"
            | "function"
            | "constant"
            | "group"
    )
}

#[derive(Debug, Clone)]
struct Select {
    items: Vec<SelectItem>,
    filter: Cond,
    order: Option<(Term, bool)>,
}

#[derive(Debug, Clone)]
enum SelectItem {
    Aggregate {
        func: SimpleAgg,
        value: Term,
        alias: Option<String>,
        default: Option<Value>,
    },
    Plain {
        expr: Term,
        alias: Option<String>,
        default: Option<Value>,
    },
}

// ---------------------------------------------------------------------------
// Pretty printer (round trip back to Figure-4/5 style SQL)
// ---------------------------------------------------------------------------

/// Render an aggregate definition in the style of Figure 4.
pub fn aggregate_to_sql(def: &AggregateDef) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "function {}({}) returns\n",
        def.name,
        def.params.join(", ")
    ));
    match &def.spec {
        AggSpec::Simple { outputs } => {
            let items: Vec<String> = outputs
                .iter()
                .map(|o| {
                    let call = match o.func {
                        SimpleAgg::Count => "Count(*)".to_string(),
                        _ => format!("{}({})", agg_name(o.func), term_to_sql(&o.value)),
                    };
                    format!("{call} AS {} DEFAULT {}", o.name, value_to_sql(&o.default))
                })
                .collect();
            out.push_str(&format!("  SELECT {}\n", items.join(", ")));
            out.push_str("  FROM E e\n");
            out.push_str(&format!("  WHERE {};", cond_to_sql(&def.filter)));
        }
        AggSpec::ArgBest {
            minimize,
            rank,
            outputs,
        } => {
            let items: Vec<String> = outputs
                .iter()
                .map(|(name, expr, default)| {
                    format!(
                        "{} AS {} DEFAULT {}",
                        term_to_sql(expr),
                        name,
                        value_to_sql(default)
                    )
                })
                .collect();
            out.push_str(&format!("  SELECT {}\n", items.join(", ")));
            out.push_str("  FROM E e\n");
            out.push_str(&format!("  WHERE {}\n", cond_to_sql(&def.filter)));
            out.push_str(&format!(
                "  ORDER BY {} {} LIMIT 1;",
                term_to_sql(rank),
                if *minimize { "ASC" } else { "DESC" }
            ));
        }
    }
    out
}

/// Render an action definition in the style of Figure 5 (effect columns only;
/// pass-through columns are implied by Eq. (4)).
pub fn action_to_sql(def: &ActionDef) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "function {}({}) returns\n",
        def.name,
        def.params.join(", ")
    ));
    let clauses: Vec<String> = def
        .clauses
        .iter()
        .map(|clause| {
            let items: Vec<String> = clause
                .effects
                .iter()
                .map(|(attr, effect)| format!("e.{attr} + {} AS {attr}", term_to_sql(effect)))
                .collect();
            format!(
                "  SELECT e.key, {}\n  FROM E e\n  WHERE {}",
                items.join(", "),
                cond_to_sql(&clause.filter)
            )
        })
        .collect();
    out.push_str(&clauses.join("\n  UNION\n"));
    out.push(';');
    out
}

fn agg_name(func: SimpleAgg) -> &'static str {
    match func {
        SimpleAgg::Count => "Count",
        SimpleAgg::Sum => "Sum",
        SimpleAgg::Avg => "Avg",
        SimpleAgg::Min => "Min",
        SimpleAgg::Max => "Max",
        SimpleAgg::StdDev => "StdDev",
    }
}

fn value_to_sql(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("\"{s}\""),
        other => format!("{other}"),
    }
}

fn term_to_sql(t: &Term) -> String {
    match t {
        Term::Const(v) => value_to_sql(v),
        Term::Var(VarRef::Unit(a)) => format!("u.{a}"),
        Term::Var(VarRef::Row(a)) => format!("e.{a}"),
        Term::Var(VarRef::Name(n)) => n.clone(),
        Term::Random(seed) => format!("Random(e, {})", term_to_sql(seed)),
        Term::Agg(call) => {
            let args: Vec<String> = call.args.iter().map(term_to_sql).collect();
            format!("{}({})", call.name, args.join(", "))
        }
        Term::Bin { op, left, right } => {
            let op = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Mod => "mod",
            };
            format!("({} {} {})", term_to_sql(left), op, term_to_sql(right))
        }
        Term::Neg(inner) => format!("(-{})", term_to_sql(inner)),
        Term::Abs(inner) => format!("abs({})", term_to_sql(inner)),
        Term::Sqrt(inner) => format!("sqrt({})", term_to_sql(inner)),
        Term::Field(inner, field) => format!("{}.{field}", term_to_sql(inner)),
        Term::Tuple(items) => {
            // The nonsql_max marker tuple renders back to its surface form.
            if items.len() == 3 {
                if let Term::Var(VarRef::Name(marker)) = &items[0] {
                    if marker == "nonsql_max" {
                        return format!(
                            "nonsql_max({}, {})",
                            term_to_sql(&items[1]),
                            term_to_sql(&items[2])
                        );
                    }
                }
            }
            let rendered: Vec<String> = items.iter().map(term_to_sql).collect();
            format!("({})", rendered.join(", "))
        }
    }
}

fn cond_to_sql(c: &Cond) -> String {
    match c {
        Cond::Lit(true) => "true".to_string(),
        Cond::Lit(false) => "false".to_string(),
        Cond::Cmp { op, left, right } => {
            let op = match op {
                CmpOp::Eq => "=",
                CmpOp::Ne => "<>",
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
            };
            format!("{} {} {}", term_to_sql(left), op, term_to_sql(right))
        }
        Cond::And(a, b) => format!("{} AND {}", cond_to_sql(a), cond_to_sql(b)),
        Cond::Or(a, b) => format!("({} OR {})", cond_to_sql(a), cond_to_sql(b)),
        Cond::Not(inner) => format!("NOT ({})", cond_to_sql(inner)),
    }
}

// ---------------------------------------------------------------------------
// The paper's definition file
// ---------------------------------------------------------------------------

/// The built-in definitions of Figures 4 and 5 written as an SQL definition
/// file over the paper schema of Eq. (1).  Parsing this produces a registry
/// equivalent to [`crate::builtins::paper_registry`]; the equivalence is
/// checked by tests and by the `sql_modding` integration test.
pub const PAPER_DEFINITIONS_SQL: &str = r#"
constant _ARROW_HIT_DAMAGE = 6;
constant _ARMOR = 2;
constant _HEAL_AURA = 4;
constant _HEALER_RANGE = 8.0;
constant _TIME_RELOAD = 3;
constant _WALK_DIST_PER_TICK = 1.0;

# Figure 4: aggregate functions.
function CountEnemiesInRange(u, range) returns
  SELECT Count(*)
  FROM E e
  WHERE e.posx >= u.posx - range AND e.posx <= u.posx + range
    AND e.posy >= u.posy - range AND e.posy <= u.posy + range
    AND e.player <> u.player;

function CentroidOfEnemyUnits(u, range) returns
  SELECT Avg(e.posx) AS x, Avg(e.posy) AS y
  FROM E e
  WHERE e.posx >= u.posx - range AND e.posx <= u.posx + range
    AND e.posy >= u.posy - range AND e.posy <= u.posy + range
    AND e.player <> u.player;

# Nearest-neighbour aggregate of the Figure 3 script (a spatial aggregate in
# the sense of section 5.3.2, written with the ORDER BY ... LIMIT 1 idiom).
function getNearestEnemy(u) returns
  SELECT e.key DEFAULT -1, e.posx DEFAULT 0.0, e.posy DEFAULT 0.0
  FROM E e
  WHERE e.player <> u.player
  ORDER BY (e.posx - u.posx) * (e.posx - u.posx) + (e.posy - u.posy) * (e.posy - u.posy) ASC
  LIMIT 1;

# Figure 5: action functions.
function FireAt(u, target_key) returns
  SELECT e.key,
         e.damage + (_ARROW_HIT_DAMAGE - _ARMOR) * (Random(e, 1) mod 2) AS damage
  FROM E e
  WHERE e.key = target_key
  UNION
  SELECT e.key, e.weaponused + 1 AS weaponused
  FROM E e
  WHERE e.key = u.key;

function MoveInDirection(u, x, y) returns
  SELECT e.key,
         x - e.posx AS movevect_x,
         y - e.posy AS movevect_y
  FROM E e
  WHERE e.key = u.key;

function Heal(u) returns
  SELECT e.key, nonsql_max(e.inaura, _HEAL_AURA) AS inaura
  FROM E e
  WHERE u.player = e.player
    AND e.posx >= u.posx - _HEALER_RANGE AND e.posx <= u.posx + _HEALER_RANGE
    AND e.posy >= u.posy - _HEALER_RANGE AND e.posy <= u.posy + _HEALER_RANGE;
"#;

/// Parse [`PAPER_DEFINITIONS_SQL`] into a registry (the SQL-sourced
/// counterpart of [`crate::builtins::paper_registry`]).
pub fn paper_registry_from_sql() -> Registry {
    parse_sql_registry(PAPER_DEFINITIONS_SQL).expect("the bundled paper definitions parse")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtins::paper_registry;
    use crate::typecheck::check_registry;
    use sgl_env::schema::paper_schema;

    #[test]
    fn constants_parse_with_signs_and_types() {
        let reg = parse_sql_registry(
            "constant _A = 3; constant _B = -2; constant _C = 1.5; constant _D = \"skeleton\";",
        )
        .unwrap();
        assert_eq!(reg.constant("_A"), Some(&Value::Int(3)));
        assert_eq!(reg.constant("_B"), Some(&Value::Int(-2)));
        assert_eq!(reg.constant("_C"), Some(&Value::Float(1.5)));
        assert_eq!(reg.constant("_D").unwrap().as_str(), Some("skeleton"));
    }

    #[test]
    fn figure_4_count_parses_to_a_divisible_aggregate() {
        let item = parse_sql_function(
            r#"
            function CountEnemiesInRange(u, range) returns
              SELECT Count(*)
              FROM E e
              WHERE e.posx >= u.posx - range AND e.posx <= u.posx + range
                AND e.posy >= u.posy - range AND e.posy <= u.posy + range
                AND e.player <> u.player;
            "#,
        )
        .unwrap();
        let SqlItem::Aggregate(def) = item else {
            panic!("expected an aggregate")
        };
        assert_eq!(def.name, "CountEnemiesInRange");
        assert_eq!(def.params, vec!["u".to_string(), "range".to_string()]);
        assert!(def.is_divisible());
        assert_eq!(def.output_names(), vec!["value"]);
        assert_eq!(def.filter.conjuncts().unwrap().len(), 5);
    }

    #[test]
    fn figure_4_centroid_has_two_avg_outputs() {
        let item = parse_sql_function(
            r#"
            function Centroid(u, range) returns
              SELECT Avg(e.posx) AS x, Avg(e.posy) AS y
              FROM E e
              WHERE e.player <> u.player;
            "#,
        )
        .unwrap();
        let SqlItem::Aggregate(def) = item else {
            panic!("expected an aggregate")
        };
        assert_eq!(def.output_names(), vec!["x", "y"]);
        assert!(def.is_divisible());
        match def.spec {
            AggSpec::Simple { outputs } => {
                assert!(outputs.iter().all(|o| o.func == SimpleAgg::Avg));
                assert_eq!(outputs[0].value, Term::row("posx"));
            }
            other => panic!("unexpected spec {other:?}"),
        }
    }

    #[test]
    fn order_by_limit_one_becomes_argbest() {
        let item = parse_sql_function(
            r#"
            function getNearestEnemy(u) returns
              SELECT e.key, e.posx, e.posy
              FROM E e
              WHERE e.player <> u.player
              ORDER BY (e.posx - u.posx) * (e.posx - u.posx) + (e.posy - u.posy) * (e.posy - u.posy)
              LIMIT 1;
            "#,
        )
        .unwrap();
        let SqlItem::Aggregate(def) = item else {
            panic!("expected an aggregate")
        };
        assert!(!def.is_divisible());
        match &def.spec {
            AggSpec::ArgBest {
                minimize, outputs, ..
            } => {
                assert!(*minimize);
                assert_eq!(outputs.len(), 3);
                assert_eq!(outputs[0].0, "key");
                assert_eq!(outputs[0].2, Value::Int(-1));
                assert_eq!(outputs[1].2, Value::Float(0.0));
            }
            other => panic!("unexpected spec {other:?}"),
        }
    }

    #[test]
    fn order_by_desc_maximizes() {
        let item = parse_sql_function(
            "function StrongestEnemy(u) returns SELECT e.key FROM E e WHERE e.player <> u.player ORDER BY e.health DESC LIMIT 1;",
        )
        .unwrap();
        let SqlItem::Aggregate(def) = item else {
            panic!("expected an aggregate")
        };
        match def.spec {
            AggSpec::ArgBest { minimize, .. } => assert!(!minimize),
            other => panic!("unexpected spec {other:?}"),
        }
    }

    #[test]
    fn figure_5_heal_becomes_a_nonstackable_effect() {
        let item = parse_sql_function(
            r#"
            function Heal(u) returns
              SELECT e.key, nonsql_max(e.inaura, _HEAL_AURA) AS inaura
              FROM E e
              WHERE u.player = e.player
                AND e.posx >= u.posx - _HEALER_RANGE AND e.posx <= u.posx + _HEALER_RANGE
                AND e.posy >= u.posy - _HEALER_RANGE AND e.posy <= u.posy + _HEALER_RANGE;
            "#,
        )
        .unwrap();
        let SqlItem::Action(def) = item else {
            panic!("expected an action")
        };
        assert_eq!(def.clauses.len(), 1);
        let clause = &def.clauses[0];
        assert_eq!(clause.effects.len(), 1);
        assert_eq!(clause.effects[0].0, "inaura");
        assert_eq!(clause.effects[0].1, Term::name("_HEAL_AURA"));
    }

    #[test]
    fn union_produces_multiple_effect_clauses() {
        let item = parse_sql_function(
            r#"
            function FireAt(u, target_key) returns
              SELECT e.key, e.damage + (_ARROW_HIT_DAMAGE - _ARMOR) * (Random(e, 1) mod 2) AS damage
              FROM E e
              WHERE e.key = target_key
              UNION
              SELECT e.key, e.weaponused + 1 AS weaponused
              FROM E e
              WHERE e.key = u.key;
            "#,
        )
        .unwrap();
        let SqlItem::Action(def) = item else {
            panic!("expected an action")
        };
        assert_eq!(def.clauses.len(), 2);
        assert_eq!(def.clauses[0].effects[0].0, "damage");
        assert!(matches!(
            def.clauses[0].effects[0].1,
            Term::Bin { op: BinOp::Mul, .. }
        ));
        assert_eq!(def.clauses[1].effects[0].0, "weaponused");
        assert_eq!(def.clauses[1].effects[0].1, Term::int(1));
    }

    #[test]
    fn pass_through_columns_contribute_no_effects() {
        let item = parse_sql_function(
            r#"
            function Mark(u) returns
              SELECT e.key, e.player, e.posx, e.posy, e.damage + 1 AS damage
              FROM E e
              WHERE e.key = u.key;
            "#,
        )
        .unwrap();
        let SqlItem::Action(def) = item else {
            panic!("expected an action")
        };
        assert_eq!(def.clauses[0].effects.len(), 1);
        assert_eq!(def.clauses[0].effects[0].0, "damage");
    }

    #[test]
    fn effect_extraction_rules() {
        let current = Term::row("damage");
        assert_eq!(extract_effect("damage", &current), None);
        let add = Term::bin(BinOp::Add, Term::row("damage"), Term::int(5));
        assert_eq!(extract_effect("damage", &add), Some(Term::int(5)));
        let add_flipped = Term::bin(BinOp::Add, Term::int(5), Term::row("damage"));
        assert_eq!(extract_effect("damage", &add_flipped), Some(Term::int(5)));
        let sub = Term::bin(BinOp::Sub, Term::row("damage"), Term::int(5));
        assert_eq!(
            extract_effect("damage", &sub),
            Some(Term::Neg(Box::new(Term::int(5))))
        );
        let unrelated = Term::bin(BinOp::Sub, Term::name("x"), Term::row("posx"));
        assert_eq!(
            extract_effect("movevect_x", &unrelated),
            Some(unrelated.clone())
        );
    }

    #[test]
    fn paper_definitions_type_check_against_the_paper_schema() {
        let schema = paper_schema();
        let registry = paper_registry_from_sql();
        check_registry(&registry, &schema).unwrap();
        assert_eq!(
            registry.aggregate_names(),
            paper_registry().aggregate_names()
        );
        assert_eq!(registry.action_names(), paper_registry().action_names());
        for name in [
            "_ARROW_HIT_DAMAGE",
            "_ARMOR",
            "_HEAL_AURA",
            "_HEALER_RANGE",
            "_TIME_RELOAD",
        ] {
            assert_eq!(
                registry.constant(name),
                paper_registry().constant(name),
                "constant {name}"
            );
        }
    }

    #[test]
    fn sql_and_rust_registries_agree_on_structure() {
        let from_sql = paper_registry_from_sql();
        let from_rust = paper_registry();
        for name in [
            "CountEnemiesInRange",
            "CentroidOfEnemyUnits",
            "getNearestEnemy",
        ] {
            let a = from_sql.aggregate(name).unwrap();
            let b = from_rust.aggregate(name).unwrap();
            assert_eq!(a.params, b.params, "{name} params");
            assert_eq!(a.output_names(), b.output_names(), "{name} outputs");
            assert_eq!(a.is_divisible(), b.is_divisible(), "{name} divisibility");
            assert_eq!(
                a.filter.conjuncts().map(|c| c.len()),
                b.filter.conjuncts().map(|c| c.len()),
                "{name} filter conjuncts"
            );
        }
        for name in ["FireAt", "MoveInDirection", "Heal"] {
            let a = from_sql.action(name).unwrap();
            let b = from_rust.action(name).unwrap();
            assert_eq!(a.params, b.params, "{name} params");
            assert_eq!(a.clauses.len(), b.clauses.len(), "{name} clauses");
            for (ca, cb) in a.clauses.iter().zip(&b.clauses) {
                let names_a: Vec<&String> = ca.effects.iter().map(|(n, _)| n).collect();
                let names_b: Vec<&String> = cb.effects.iter().map(|(n, _)| n).collect();
                assert_eq!(names_a, names_b, "{name} effect attributes");
            }
        }
    }

    #[test]
    fn round_trip_through_the_pretty_printer() {
        let registry = paper_registry_from_sql();
        for name in registry.aggregate_names() {
            let def = registry.aggregate(name).unwrap();
            let sql = aggregate_to_sql(def);
            let reparsed = parse_sql_function(&sql).unwrap();
            let SqlItem::Aggregate(def2) = reparsed else {
                panic!("expected aggregate")
            };
            assert_eq!(def2.name, def.name);
            assert_eq!(def2.params, def.params);
            assert_eq!(def2.output_names(), def.output_names());
            assert_eq!(def2.is_divisible(), def.is_divisible());
        }
        for name in registry.action_names() {
            let def = registry.action(name).unwrap();
            let sql = action_to_sql(def);
            let reparsed = parse_sql_function(&sql).unwrap();
            let SqlItem::Action(def2) = reparsed else {
                panic!("expected action")
            };
            assert_eq!(def2.name, def.name);
            assert_eq!(def2.clauses.len(), def.clauses.len());
        }
    }

    #[test]
    fn mods_can_replace_existing_definitions() {
        let mut registry = paper_registry();
        extend_registry_from_sql(
            &mut registry,
            r#"
            constant _ARROW_HIT_DAMAGE = 12;
            function CountEnemiesInRange(u, range) returns
              SELECT Count(*) FROM E e WHERE e.player <> u.player;
            "#,
        )
        .unwrap();
        assert_eq!(
            registry.constant("_ARROW_HIT_DAMAGE"),
            Some(&Value::Int(12))
        );
        let def = registry.aggregate("CountEnemiesInRange").unwrap();
        assert_eq!(def.filter.conjuncts().unwrap().len(), 1);
        // Untouched definitions survive.
        assert!(registry.action("Heal").is_some());
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        let n = 10_000;
        for body in [
            format!("WHERE {}e.key = 1{}", "(".repeat(n), ")".repeat(n)),
            format!("WHERE {}e.key = 1", "NOT ".repeat(n)),
            format!("WHERE e.key = {}1{}", "(".repeat(n), ")".repeat(n)),
            format!("WHERE e.key = {}1", "- ".repeat(n)),
        ] {
            let src = format!("function F(u) returns SELECT Count(*) FROM E e {body};");
            let err = parse_sql_items(&src).unwrap_err();
            assert!(
                matches!(&err, LangError::Parse { message, .. } if message.contains("nesting")),
                "{err}"
            );
        }
    }

    #[test]
    fn errors_are_reported() {
        // No parameters.
        assert!(parse_sql_items("function F() returns SELECT Count(*) FROM E e;").is_err());
        // Unknown table.
        assert!(parse_sql_items("function F(u) returns SELECT Count(*) FROM Other o;").is_err());
        // Mixed aggregate and plain columns.
        assert!(parse_sql_items(
            "function F(u) returns SELECT Count(*), e.posx FROM E e WHERE e.player <> u.player;"
        )
        .is_err());
        // LIMIT other than 1.
        assert!(parse_sql_items(
            "function F(u) returns SELECT e.key FROM E e ORDER BY e.health LIMIT 2;"
        )
        .is_err());
        // Action column without a name.
        assert!(parse_sql_items("function F(u) returns SELECT e.posx + 1 FROM E e;").is_err());
        // Action with no effects at all.
        assert!(parse_sql_items("function F(u) returns SELECT e.key FROM E e;").is_err());
        // Unknown scalar function.
        assert!(
            parse_sql_items("function F(u) returns SELECT Median(e.health) FROM E e;").is_err()
        );
        // Unknown alias.
        assert!(
            parse_sql_items("function F(u) returns SELECT Count(*) FROM E e WHERE x.key = 1;")
                .is_err()
        );
        // Garbage at the top level.
        assert!(parse_sql_items("select 1;").is_err());
        // Two definitions passed to the single-definition entry point.
        assert!(parse_sql_function(
            "constant _A = 1; function F(u) returns SELECT Count(*) FROM E e;"
        )
        .is_err());
    }

    #[test]
    fn where_clause_supports_boolean_structure() {
        let item = parse_sql_function(
            r#"
            function Wounded(u) returns
              SELECT Count(*)
              FROM E e
              WHERE (e.health < 10 OR e.health < u.health) AND NOT e.player = u.player;
            "#,
        )
        .unwrap();
        let SqlItem::Aggregate(def) = item else {
            panic!("expected aggregate")
        };
        // Not a conjunctive query (contains OR / NOT): conjuncts() refuses.
        assert!(def.filter.conjuncts().is_none());
    }

    #[test]
    fn abs_sqrt_and_random_in_definitions() {
        let item = parse_sql_function(
            r#"
            function Jitter(u) returns
              SELECT e.key, e.damage + abs(sqrt(Random(e, 3)) - 1) AS damage
              FROM E e
              WHERE e.key = u.key;
            "#,
        )
        .unwrap();
        let SqlItem::Action(def) = item else {
            panic!("expected action")
        };
        let effect = &def.clauses[0].effects[0].1;
        assert!(matches!(effect, Term::Abs(_)));
    }
}
