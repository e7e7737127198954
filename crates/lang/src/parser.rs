//! Recursive-descent parser for SGL scripts.
//!
//! The concrete syntax follows the grammar of §4.1 and the example script of
//! Figure 3: scripts consist of helper `function` definitions and a `main(u)`
//! entry point; statements are `let` bindings, conditionals, `perform`
//! statements, blocks and the empty statement.

use sgl_env::Value;

use crate::ast::{Action, AggCall, BinOp, CmpOp, Cond, FunctionDef, Script, Term, VarRef};
use crate::error::{LangError, Pos, Result};
use crate::lexer::{tokenize, Tok, Token};

/// Deepest nesting of statements, conditions or terms the parsers accept
/// (this one and [`crate::sql`]'s).  Scripts and SQL definitions are game
/// content, so a hostile input must end in a typed [`LangError::Parse`],
/// not a stack overflow — here, and in every later pass that recurses over
/// the tree.
pub const MAX_NESTING: usize = 128;

/// Parse a complete SGL script.
pub fn parse_script(src: &str) -> Result<Script> {
    Parser::new(src)?.script()
}

/// Parse a single term (used by tests and by programmatic builders).
pub fn parse_term(src: &str) -> Result<Term> {
    let mut p = Parser::new(src)?;
    let t = p.term()?;
    p.expect_eof()?;
    Ok(t)
}

/// Parse a single condition.
pub fn parse_cond(src: &str) -> Result<Cond> {
    let mut p = Parser::new(src)?;
    let c = p.cond()?;
    p.expect_eof()?;
    Ok(c)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    unit_param: String,
    /// Current nesting depth (see [`MAX_NESTING`]).
    depth: usize,
}

/// The parse error for entering one more level at `depth` past
/// [`MAX_NESTING`] (shared by the SGL and SQL parsers).
pub(crate) fn check_nesting(depth: usize, pos: Pos) -> Result<()> {
    if depth < MAX_NESTING {
        return Ok(());
    }
    Err(LangError::Parse {
        pos,
        message: format!("nesting deeper than {MAX_NESTING} levels"),
    })
}

impl Parser {
    fn new(src: &str) -> Result<Parser> {
        Ok(Parser {
            tokens: tokenize(src)?,
            pos: 0,
            unit_param: "u".to_string(),
            depth: 0,
        })
    }

    /// Run `f` one nesting level deeper.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        check_nesting(self.depth, self.peek_pos())?;
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

    fn peek2(&self) -> &Tok {
        let i = (self.pos + 1).min(self.tokens.len() - 1);
        &self.tokens[i].tok
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

    fn expect_eof(&self) -> Result<()> {
        if *self.peek() == Tok::Eof {
            Ok(())
        } else {
            Err(LangError::Parse {
                pos: self.peek_pos(),
                message: format!("unexpected trailing input {:?}", self.peek()),
            })
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

    fn is_keyword(name: &str) -> bool {
        matches!(
            name,
            "let"
                | "if"
                | "then"
                | "else"
                | "perform"
                | "function"
                | "and"
                | "or"
                | "not"
                | "true"
                | "false"
                | "mod"
        )
    }

    // ---------------------------------------------------------------- script

    fn script(&mut self) -> Result<Script> {
        let mut functions = Vec::new();
        let mut main = None;
        loop {
            match self.peek().clone() {
                Tok::Eof => break,
                Tok::Ident(name) if name == "function" => {
                    self.bump();
                    functions.push(self.function_def()?);
                }
                Tok::Ident(name) if name == "main" => {
                    self.bump();
                    let def = self.function_body("main".to_string())?;
                    if main.is_some() {
                        return self.err("duplicate main function");
                    }
                    main = Some(def);
                }
                other => {
                    return self.err(format!("expected `function` or `main`, found {other:?}"))
                }
            }
        }
        let main = main.ok_or(LangError::Semantic("script has no main(u) function".into()))?;
        Ok(Script { functions, main })
    }

    fn function_def(&mut self) -> Result<FunctionDef> {
        let name = self.ident()?;
        if Self::is_keyword(&name) {
            return self.err(format!("`{name}` cannot be used as a function name"));
        }
        self.function_body(name)
    }

    fn function_body(&mut self, name: String) -> Result<FunctionDef> {
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
        if let Some(first) = params.first() {
            self.unit_param = first.clone();
        }
        self.expect(Tok::LBrace)?;
        let body = self.statement_sequence(Tok::RBrace)?;
        self.expect(Tok::RBrace)?;
        Ok(FunctionDef { name, params, body })
    }

    // -------------------------------------------------------------- actions

    fn statement_sequence(&mut self, terminator: Tok) -> Result<Action> {
        let mut items = Vec::new();
        while *self.peek() != terminator && *self.peek() != Tok::Eof {
            let stmt = self.statement()?;
            if stmt != Action::Nop {
                items.push(stmt);
            }
        }
        Ok(match items.len() {
            0 => Action::Nop,
            1 => items.pop().unwrap(),
            _ => Action::Seq(items),
        })
    }

    fn statement(&mut self) -> Result<Action> {
        self.nested(Self::statement_inner)
    }

    fn statement_inner(&mut self) -> Result<Action> {
        match self.peek().clone() {
            Tok::Semi => {
                self.bump();
                Ok(Action::Nop)
            }
            Tok::LBrace => {
                self.bump();
                let seq = self.statement_sequence(Tok::RBrace)?;
                self.expect(Tok::RBrace)?;
                Ok(seq)
            }
            Tok::LParen if matches!(self.peek2(), Tok::Ident(n) if n == "let") => {
                self.bump(); // (
                self.bump(); // let
                let name = self.ident()?;
                self.expect(Tok::Eq)?;
                let term = self.term()?;
                self.expect(Tok::RParen)?;
                let body = self.statement()?;
                Ok(Action::Let {
                    name,
                    term,
                    body: Box::new(body),
                })
            }
            Tok::Ident(name) if name == "if" => {
                self.bump();
                let cond = self.cond()?;
                match self.peek().clone() {
                    Tok::Ident(t) if t == "then" => {
                        self.bump();
                    }
                    _ => return self.err("expected `then` after if condition"),
                }
                let then = self.statement()?;
                let els = match self.peek().clone() {
                    Tok::Ident(e) if e == "else" => {
                        self.bump();
                        Some(Box::new(self.statement()?))
                    }
                    _ => None,
                };
                Ok(Action::If {
                    cond,
                    then: Box::new(then),
                    els,
                })
            }
            Tok::Ident(name) if name == "perform" => {
                self.bump();
                let fname = self.ident()?;
                self.expect(Tok::LParen)?;
                let args = self.arg_list()?;
                self.expect(Tok::RParen)?;
                if *self.peek() == Tok::Semi {
                    self.bump();
                }
                Ok(Action::Perform { name: fname, args })
            }
            other => self.err(format!("expected a statement, found {other:?}")),
        }
    }

    fn arg_list(&mut self) -> Result<Vec<Term>> {
        let mut args = Vec::new();
        if *self.peek() == Tok::RParen {
            return Ok(args);
        }
        loop {
            args.push(self.term()?);
            if *self.peek() == Tok::Comma {
                self.bump();
            } else {
                break;
            }
        }
        Ok(args)
    }

    // ----------------------------------------------------------- conditions

    fn cond(&mut self) -> Result<Cond> {
        self.cond_or()
    }

    fn cond_or(&mut self) -> Result<Cond> {
        let mut left = self.cond_and()?;
        loop {
            match self.peek().clone() {
                Tok::Ident(n) if n == "or" => {
                    self.bump();
                    let right = self.cond_and()?;
                    left = Cond::or(left, right);
                }
                _ => break,
            }
        }
        Ok(left)
    }

    fn cond_and(&mut self) -> Result<Cond> {
        let mut left = self.cond_not()?;
        loop {
            match self.peek().clone() {
                Tok::Ident(n) if n == "and" => {
                    self.bump();
                    let right = self.cond_not()?;
                    left = Cond::and(left, right);
                }
                _ => break,
            }
        }
        Ok(left)
    }

    fn cond_not(&mut self) -> Result<Cond> {
        self.nested(|p| match p.peek().clone() {
            Tok::Ident(n) if n == "not" => {
                p.bump();
                Ok(Cond::not(p.cond_not()?))
            }
            _ => p.cond_primary(),
        })
    }

    fn cond_primary(&mut self) -> Result<Cond> {
        match self.peek().clone() {
            Tok::Ident(n) if n == "true" => {
                self.bump();
                return Ok(Cond::Lit(true));
            }
            Tok::Ident(n) if n == "false" => {
                self.bump();
                return Ok(Cond::Lit(false));
            }
            _ => {}
        }
        // Try `term cmp term` first; fall back to a parenthesised condition.
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

    // ---------------------------------------------------------------- terms

    fn term(&mut self) -> Result<Term> {
        self.add_sub()
    }

    fn add_sub(&mut self) -> Result<Term> {
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
                Tok::Ident(n) if n == "mod" => BinOp::Mod,
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
            p.postfix()
        })
    }

    fn postfix(&mut self) -> Result<Term> {
        let mut t = self.primary()?;
        while *self.peek() == Tok::Dot {
            // `.field` on a non-variable primary (e.g. an aggregate call).
            // Variable field access is resolved in `primary` already.
            self.bump();
            let field = self.ident()?;
            t = Term::Field(Box::new(t), field);
        }
        Ok(t)
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
                let first = self.term()?;
                if *self.peek() == Tok::Comma {
                    let mut items = vec![first];
                    while *self.peek() == Tok::Comma {
                        self.bump();
                        items.push(self.term()?);
                    }
                    self.expect(Tok::RParen)?;
                    Ok(Term::Tuple(items))
                } else {
                    self.expect(Tok::RParen)?;
                    Ok(first)
                }
            }
            Tok::Ident(name) => {
                if Self::is_keyword(&name) {
                    return self.err(format!("unexpected keyword `{name}` in a term"));
                }
                self.bump();
                // Function call?
                if *self.peek() == Tok::LParen {
                    self.bump();
                    let args = self.arg_list()?;
                    self.expect(Tok::RParen)?;
                    if name == "Random" {
                        if args.len() != 1 {
                            return self.err("Random takes exactly one argument");
                        }
                        return Ok(Term::Random(Box::new(args.into_iter().next().unwrap())));
                    }
                    if name == "abs" {
                        if args.len() != 1 {
                            return self.err("abs takes exactly one argument");
                        }
                        return Ok(Term::Abs(Box::new(args.into_iter().next().unwrap())));
                    }
                    if name == "sqrt" {
                        if args.len() != 1 {
                            return self.err("sqrt takes exactly one argument");
                        }
                        return Ok(Term::Sqrt(Box::new(args.into_iter().next().unwrap())));
                    }
                    return Ok(Term::Agg(AggCall { name, args }));
                }
                // Attribute access `u.attr` / `e.attr` / `var.field`.
                if *self.peek() == Tok::Dot {
                    if let Tok::Ident(field) = self.peek2().clone() {
                        self.bump(); // .
                        self.bump(); // field
                        if name == self.unit_param {
                            return Ok(Term::Var(VarRef::Unit(field)));
                        }
                        if name == "e" {
                            return Ok(Term::Var(VarRef::Row(field)));
                        }
                        return Ok(Term::Field(Box::new(Term::Var(VarRef::Name(name))), field));
                    }
                }
                Ok(Term::Var(VarRef::Name(name)))
            }
            other => self.err(format!("expected a term, found {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIGURE_3: &str = r#"
        main(u) {
          (let c = CountEnemiesInRange(u, u.range))
          (let away_vector = (u.posx, u.posy) - CentroidOfEnemyUnits(u, u.range)) {
            if (c > u.morale) then
              perform MoveInDirection(u, away_vector);
            else if (c > 0 and u.cooldown = 0) then
              (let target_key = getNearestEnemy(u).key) {
                perform FireAt(u, target_key);
              }
          }
        }
    "#;

    fn is_nesting_error(err: &LangError) -> bool {
        matches!(err, LangError::Parse { message, .. } if message.contains("nesting"))
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        let deep = |open: &str, inner: &str, close: &str| {
            format!("{}{inner}{}", open.repeat(10_000), close.repeat(10_000))
        };
        let errors = [
            parse_term(&deep("(", "1", ")")).unwrap_err(),
            parse_term(&deep("- ", "1", "")).unwrap_err(),
            parse_term(&deep("abs(", "1", ")")).unwrap_err(),
            parse_cond(&deep("(", "1 < 2", ")")).unwrap_err(),
            parse_cond(&deep("not ", "true", "")).unwrap_err(),
            parse_script(&format!("main(u) {{ {} }}", deep("{", ";", "}"))).unwrap_err(),
            parse_script(&format!(
                "main(u) {{ {} }}",
                deep("if 1 < 2 then ", ";", "")
            ))
            .unwrap_err(),
        ];
        for err in &errors {
            assert!(is_nesting_error(err), "{err}");
        }
        // Nesting within the budget still parses.
        let ok = MAX_NESTING / 2;
        let term = format!("{}1{}", "(".repeat(ok), ")".repeat(ok));
        assert_eq!(parse_term(&term).unwrap(), Term::int(1));
    }

    #[test]
    fn figure_three_parses() {
        let script = parse_script(FIGURE_3).unwrap();
        assert_eq!(script.main.name, "main");
        assert_eq!(script.main.params, vec!["u".to_string()]);
        // Outer structure: let c = ... (let away_vector = ... (if ...))
        match &script.main.body {
            Action::Let { name, term, body } => {
                assert_eq!(name, "c");
                assert!(matches!(term, Term::Agg(_)));
                match body.as_ref() {
                    Action::Let { name, body, .. } => {
                        assert_eq!(name, "away_vector");
                        assert!(matches!(body.as_ref(), Action::If { .. }));
                    }
                    other => panic!("expected nested let, got {other:?}"),
                }
            }
            other => panic!("expected let, got {other:?}"),
        }
        let mut aggs = Vec::new();
        script.main.body.collect_aggregates(&mut aggs);
        assert_eq!(aggs.len(), 3);
        assert_eq!(script.main.body.count_performs(), 2);
    }

    #[test]
    fn terms_parse_with_precedence() {
        let t = parse_term("1 + 2 * 3").unwrap();
        match t {
            Term::Bin {
                op: BinOp::Add,
                right,
                ..
            } => {
                assert!(matches!(*right, Term::Bin { op: BinOp::Mul, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
        let t = parse_term("(1 + 2) * 3").unwrap();
        assert!(matches!(t, Term::Bin { op: BinOp::Mul, .. }));
    }

    #[test]
    fn unit_and_row_attributes() {
        assert_eq!(parse_term("u.posx").unwrap(), Term::unit("posx"));
        assert_eq!(parse_term("e.posx").unwrap(), Term::row("posx"));
        assert_eq!(
            parse_term("nearest.key").unwrap(),
            Term::Field(Box::new(Term::name("nearest")), "key".into())
        );
    }

    #[test]
    fn random_abs_sqrt_and_mod() {
        assert!(matches!(parse_term("Random(1)").unwrap(), Term::Random(_)));
        assert!(matches!(parse_term("abs(u.posx)").unwrap(), Term::Abs(_)));
        assert!(matches!(parse_term("sqrt(2)").unwrap(), Term::Sqrt(_)));
        assert!(matches!(
            parse_term("Random(1) mod 2").unwrap(),
            Term::Bin { op: BinOp::Mod, .. }
        ));
        assert!(parse_term("Random(1, 2)").is_err());
        assert!(parse_term("abs(1, 2)").is_err());
        assert!(parse_term("sqrt()").is_err());
    }

    #[test]
    fn tuples_and_field_access_on_calls() {
        let t = parse_term("(u.posx, u.posy)").unwrap();
        assert!(matches!(t, Term::Tuple(ref items) if items.len() == 2));
        let t = parse_term("getNearestEnemy(u).key").unwrap();
        match t {
            Term::Field(inner, field) => {
                assert_eq!(field, "key");
                assert!(matches!(*inner, Term::Agg(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn negative_numbers() {
        assert!(matches!(parse_term("-5").unwrap(), Term::Neg(_)));
        assert!(matches!(
            parse_term("3 - -2").unwrap(),
            Term::Bin { op: BinOp::Sub, .. }
        ));
    }

    #[test]
    fn conditions_with_boolean_connectives() {
        let c = parse_cond("c > 0 and u.cooldown = 0").unwrap();
        assert!(matches!(c, Cond::And(_, _)));
        let c = parse_cond("not (a = 1 or b < 2)").unwrap();
        assert!(matches!(c, Cond::Not(_)));
        let c = parse_cond("true").unwrap();
        assert_eq!(c, Cond::Lit(true));
        let c = parse_cond("(x = 1)").unwrap();
        assert!(matches!(c, Cond::Cmp { op: CmpOp::Eq, .. }));
    }

    #[test]
    fn string_literals_in_terms() {
        let c = parse_cond("u.unittype = \"knight\"").unwrap();
        match c {
            Cond::Cmp {
                right: Term::Const(v),
                ..
            } => assert_eq!(v.as_str(), Some("knight")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn helper_functions_parse() {
        let src = r#"
            function Flee(u, dist) {
              perform MoveInDirection(u, dist, 0);
            }
            main(u) {
              if u.health < 5 then perform Flee(u, 10);
            }
        "#;
        let script = parse_script(src).unwrap();
        assert_eq!(script.functions.len(), 1);
        assert_eq!(
            script.functions[0].params,
            vec!["u".to_string(), "dist".to_string()]
        );
        assert!(script.function("Flee").is_some());
    }

    #[test]
    fn sequencing_inside_blocks() {
        let src = r#"
            main(u) {
              perform A(u);
              perform B(u);
              perform C(u);
            }
        "#;
        let script = parse_script(src).unwrap();
        match &script.main.body {
            Action::Seq(items) => assert_eq!(items.len(), 3),
            other => panic!("expected sequence, got {other:?}"),
        }
    }

    #[test]
    fn empty_main_is_nop() {
        let script = parse_script("main(u) { }").unwrap();
        assert_eq!(script.main.body, Action::Nop);
        let script = parse_script("main(u) { ; ; }").unwrap();
        assert_eq!(script.main.body, Action::Nop);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse_script("main(u) { perform }").is_err());
        assert!(parse_script("main(u) { if then perform A(u); }").is_err());
        assert!(parse_script("main(u) { (let = 3) ; }").is_err());
        assert!(parse_script("function f(u) { }").is_err()); // no main
        assert!(parse_script("main(u) { } main(u) { }").is_err());
        assert!(parse_script("banana(u) { }").is_err());
        assert!(parse_term("1 +").is_err());
        assert!(parse_cond("1 ++ 2").is_err());
    }

    #[test]
    fn custom_unit_parameter_name() {
        let src = "main(self) { if self.health < 3 then perform Flee(self); }";
        let script = parse_script(src).unwrap();
        match &script.main.body {
            Action::If { cond, .. } => match cond {
                Cond::Cmp { left, .. } => assert_eq!(left, &Term::unit("health")),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn else_if_chains() {
        let src = r#"
            main(u) {
              if u.health < 3 then perform Flee(u);
              else if u.health < 10 then perform Hold(u);
              else perform Charge(u);
            }
        "#;
        let script = parse_script(src).unwrap();
        match &script.main.body {
            Action::If { els: Some(els), .. } => {
                assert!(matches!(els.as_ref(), Action::If { els: Some(_), .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
