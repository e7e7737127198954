//! Lowering normalised scripts to register bytecode (§5-style physical
//! compilation of the script layer).
//!
//! Walking the script tree would re-resolve every name, attribute and
//! built-in on every tick for every unit.  This pass runs once per script
//! install instead: it flattens the normalised action tree into a
//! [`CompiledScript`] — a flat instruction array over virtual registers with
//! a constant pool, pre-resolved [`AttrId`] attribute slots, and aggregate /
//! perform *call sites* whose argument registers, parameter names, filter
//! analyses and effect attribute ids are all computed ahead of time — so no
//! name lookup survives into the per-unit hot loop of the VM (`vm` module).
//!
//! Compilation is semantically conservative: every construct the evaluator
//! of `sgl-lang` supports is lowered to an instruction that calls the *same*
//! shared semantics helpers (`ScriptValue::zip_binop`, `as_scalar`,
//! `loose_eq`/`compare`) as the oracle of [`crate::oracle`], so compiled
//! execution is bit-identical to it.  Compilation is total for registered
//! scripts: anything outside the normal form (nested aggregates, row
//! references in a script body, unknown names) is a [`CompileError`] that
//! the engine reports at registration.
//!
//! One deliberate restriction: built-in definitions are *closed* SQL
//! fragments (they may reference their parameters, `u.*`, `e.*` and game
//! constants, never a script-local `let` variable), so compiled call sites
//! evaluate them in a context without the script's let bindings.  The
//! oracle happens to leak script bindings into definition evaluation; no
//! well-formed registry definition can observe the difference.

use std::fmt;

use sgl_env::{AttrId, Schema, Value};
use sgl_lang::ast::{Action, AggCall, BinOp, CmpOp, Cond, Term, VarRef};
use sgl_lang::builtins::Registry;
use sgl_lang::normalize::NormalScript;

use crate::config::SpatialAttrs;
use crate::filter::{analyze_filter, FilterAnalysis};

/// A virtual register index.  Registers hold `ScriptValue`s and are written
/// exactly once per unit execution before any read (the compiler emits
/// straight-line code per scope, so no clearing between units is needed).
pub(crate) type Reg = u16;

/// Why a script could not be lowered to bytecode.  The engine rejects such a
/// script at registration (and on every recompile: `set_exec_config`,
/// `resume`) with this error.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// A bare name is neither a let binding in scope, a registry constant,
    /// nor the conventional unit marker `u`/`self` in call-argument position.
    Unresolved(String),
    /// A construct outside the compilable normal form (nested aggregates,
    /// `e.*` in a script body, unknown built-ins or attributes, or a script
    /// too large for 16-bit registers).
    Unsupported(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Unresolved(name) => {
                write!(f, "cannot compile script: unresolved name `{name}`")
            }
            CompileError::Unsupported(what) => write!(f, "cannot compile script: {what}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// One bytecode instruction.  All operands are pre-resolved indices — into
/// the register file, the constant pools or the call-site tables — so the
/// dispatch loop never touches a string.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Instr {
    /// `dst = consts[idx]` (literal constant from the pool).
    Const { dst: Reg, idx: u16 },
    /// `dst = constants[const_names[idx]]` — a registry game constant,
    /// re-resolved once per shard run so late registry edits behave exactly
    /// like a per-probe lookup.
    NamedConst { dst: Reg, idx: u16 },
    /// `dst = u.attr` (pre-resolved attribute slot of the acting unit).
    UnitAttr { dst: Reg, attr: AttrId },
    /// `dst = key(u)` — the bare `u`/`self` marker in call-argument position.
    UnitKey { dst: Reg },
    /// `dst = Random(seed)` (the deterministic per-tick random function).
    Random { dst: Reg, seed: Reg },
    /// `dst = a op b` via the shared `zip_binop` semantics.
    Bin { dst: Reg, op: BinOp, a: Reg, b: Reg },
    /// `dst = -src` (per-field on records).
    Neg { dst: Reg, src: Reg },
    /// `dst = abs(src)` (scalar).
    Abs { dst: Reg, src: Reg },
    /// `dst = sqrt(src)` (scalar).
    Sqrt { dst: Reg, src: Reg },
    /// `dst = src.field` with a per-VM inline cache (`cache` indexes the
    /// VM's field-position cache; records produced by a given site have a
    /// stable layout, so the cached position almost always hits).
    Field {
        /// Destination register.
        dst: Reg,
        /// Record-valued source register.
        src: Reg,
        /// Index into the compiled field-name table.
        field: u16,
        /// Inline-cache slot.
        cache: u16,
    },
    /// `dst = (items...)` — a tuple literal with `_0`, `_1`, ... field names.
    Tuple { dst: Reg, items: Vec<Reg> },
    /// `dst = aggregate call site `site`` (answered by the per-tick index
    /// cache or the reference scan).
    CallAgg { dst: Reg, site: u16 },
    /// Execute perform call site `site` (buffers its effects site-major).
    Perform { site: u16 },
    /// Unconditional jump.
    Jump { target: u32 },
    /// Evaluate `a op b` on scalars (loose equality for `=`/`!=`, ordered
    /// comparison otherwise) and jump to `if_true` or `if_false`.
    Branch {
        /// Comparison operator.
        op: CmpOp,
        /// Left operand register.
        a: Reg,
        /// Right operand register.
        b: Reg,
        /// Target when the comparison holds.
        if_true: u32,
        /// Target when it does not.
        if_false: u32,
    },
    /// End of the script for one unit.
    Return,
}

/// One aggregate call site: the pre-resolved name and argument registers.
/// The definition and its physical plan are looked up once per tick (the
/// cost-based planner may switch backends between ticks), never per unit.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AggSite {
    /// Aggregate name (also the observation key).
    pub(crate) name: String,
    /// Argument registers, in call order.
    pub(crate) args: Vec<Reg>,
}

/// One compiled effect clause of a perform site: the original filter (for
/// the per-target residual check), its ahead-of-time [`FilterAnalysis`]
/// (computed per *install*, not per unit per tick)
/// and the effect assignments with attribute ids already resolved.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CompiledClause {
    /// The clause filter, evaluated per candidate row.
    pub(crate) filter: Cond,
    /// Pre-computed index analysis of the filter.
    pub(crate) analysis: FilterAnalysis,
    /// `(attribute id, attribute name, value term)` per effect.
    pub(crate) effects: Vec<(AttrId, String, Term)>,
}

/// One perform call site: argument registers plus a snapshot of the action
/// definition with everything the hot loop needs pre-resolved.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PerformSite {
    /// Action name (for arity errors and display).
    pub(crate) name: String,
    /// Parameter names of the definition (first is the implicit unit).
    pub(crate) params: Vec<String>,
    /// Argument registers, in call order.
    pub(crate) args: Vec<Reg>,
    /// Compiled effect clauses.
    pub(crate) clauses: Vec<CompiledClause>,
}

/// A script lowered to register bytecode.  Everything here is immutable,
/// `Send + Sync` plain data: worker shards share one `&CompiledScript` and
/// keep their mutable state (registers, inline caches, effect buffers) in
/// their own VM instance (`vm` module).  Checkpoints never serialise this —
/// resume recompiles from the stored normalised AST.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledScript {
    /// Script name (display only).
    pub(crate) name: String,
    /// Literal constant pool.
    pub(crate) consts: Vec<Value>,
    /// Names of referenced registry constants (resolved once per shard run).
    pub(crate) const_names: Vec<String>,
    /// Record field names referenced by `Field` instructions.
    pub(crate) field_names: Vec<String>,
    /// Display names for the unit attributes referenced by `UnitAttr`.
    pub(crate) attr_names: Vec<(AttrId, String)>,
    /// Placeholder field names `_0`, `_1`, ... shared by tuple literals.
    pub(crate) placeholder_names: Vec<String>,
    /// The flat instruction array.
    pub(crate) instrs: Vec<Instr>,
    /// Number of virtual registers.
    pub(crate) num_regs: usize,
    /// Number of inline-cache slots for `Field` instructions.
    pub(crate) num_field_caches: usize,
    /// Aggregate call sites.
    pub(crate) agg_sites: Vec<AggSite>,
    /// Perform call sites.
    pub(crate) perform_sites: Vec<PerformSite>,
}

impl CompiledScript {
    /// Number of instructions (for `explain` output and tests).
    pub fn instr_count(&self) -> usize {
        self.instrs.len()
    }

    /// Number of virtual registers.
    pub fn reg_count(&self) -> usize {
        self.num_regs
    }

    /// One human-readable line per aggregate call site, keyed by aggregate
    /// name — the engine's `explain()` attaches these as `↳ compiled:`
    /// annotations under the matching cost lines.
    pub fn agg_site_lines(&self) -> Vec<(String, String)> {
        self.agg_sites
            .iter()
            .enumerate()
            .map(|(i, site)| {
                (
                    site.name.clone(),
                    format!("site #{i} {}({})", site.name, regs_list(&site.args)),
                )
            })
            .collect()
    }

    /// One human-readable line per perform call site, keyed by action name.
    pub fn perform_site_lines(&self) -> Vec<(String, String)> {
        self.perform_sites
            .iter()
            .enumerate()
            .map(|(i, site)| {
                let shapes: Vec<&str> = site.clauses.iter().map(clause_shape).collect();
                (
                    site.name.clone(),
                    format!(
                        "site #{i} {}({}) [{}]",
                        site.name,
                        regs_list(&site.args),
                        shapes.join(", ")
                    ),
                )
            })
            .collect()
    }

    fn attr_name(&self, attr: AttrId) -> &str {
        self.attr_names
            .iter()
            .find(|(a, _)| *a == attr)
            .map(|(_, n)| n.as_str())
            .unwrap_or("?")
    }
}

fn regs_list(regs: &[Reg]) -> String {
    let parts: Vec<String> = regs.iter().map(|r| format!("r{r}")).collect();
    parts.join(", ")
}

/// Shape of a compiled clause, as the candidate enumerator will treat it.
fn clause_shape(clause: &CompiledClause) -> &'static str {
    if clause.analysis.key_eq.is_some() {
        "targeted"
    } else if clause.analysis.has_rect() && clause.analysis.conjunctive {
        "rect"
    } else {
        "scan"
    }
}

fn bin_symbol(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Mod => "mod",
    }
}

fn cmp_symbol(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "=",
        CmpOp::Ne => "!=",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

impl fmt::Display for CompiledScript {
    /// The disassembler: a stable, line-oriented rendering used by the
    /// golden-snapshot tests.  Every operand resolves back to a readable
    /// name so a diff in a golden file reads like a code review.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "compiled script `{}`: {} instrs, {} regs, {} agg sites, {} perform sites",
            self.name,
            self.instrs.len(),
            self.num_regs,
            self.agg_sites.len(),
            self.perform_sites.len()
        )?;
        for (i, v) in self.consts.iter().enumerate() {
            writeln!(f, "  const c{i} = {v}")?;
        }
        for (i, n) in self.const_names.iter().enumerate() {
            writeln!(f, "  name  n{i} = {n}")?;
        }
        for (pc, instr) in self.instrs.iter().enumerate() {
            write!(f, "  {pc:3}: ")?;
            match instr {
                Instr::Const { dst, idx } => {
                    writeln!(f, "r{dst} = c{idx} ({})", self.consts[*idx as usize])?
                }
                Instr::NamedConst { dst, idx } => {
                    writeln!(f, "r{dst} = n{idx} ({})", self.const_names[*idx as usize])?
                }
                Instr::UnitAttr { dst, attr } => {
                    writeln!(f, "r{dst} = u.{}", self.attr_name(*attr))?
                }
                Instr::UnitKey { dst } => writeln!(f, "r{dst} = unit-key")?,
                Instr::Random { dst, seed } => writeln!(f, "r{dst} = random(r{seed})")?,
                Instr::Bin { dst, op, a, b } => {
                    writeln!(f, "r{dst} = r{a} {} r{b}", bin_symbol(*op))?
                }
                Instr::Neg { dst, src } => writeln!(f, "r{dst} = -r{src}")?,
                Instr::Abs { dst, src } => writeln!(f, "r{dst} = abs(r{src})")?,
                Instr::Sqrt { dst, src } => writeln!(f, "r{dst} = sqrt(r{src})")?,
                Instr::Field {
                    dst,
                    src,
                    field,
                    cache,
                } => writeln!(
                    f,
                    "r{dst} = r{src}.{} [ic{cache}]",
                    self.field_names[*field as usize]
                )?,
                Instr::Tuple { dst, items } => writeln!(f, "r{dst} = ({})", regs_list(items))?,
                Instr::CallAgg { dst, site } => {
                    let s = &self.agg_sites[*site as usize];
                    writeln!(f, "r{dst} = agg#{site} {}({})", s.name, regs_list(&s.args))?
                }
                Instr::Perform { site } => {
                    let s = &self.perform_sites[*site as usize];
                    let shapes: Vec<&str> = s.clauses.iter().map(clause_shape).collect();
                    writeln!(
                        f,
                        "perform#{site} {}({}) [{}]",
                        s.name,
                        regs_list(&s.args),
                        shapes.join(", ")
                    )?
                }
                Instr::Jump { target } => writeln!(f, "jump {target}")?,
                Instr::Branch {
                    op,
                    a,
                    b,
                    if_true,
                    if_false,
                } => writeln!(
                    f,
                    "if r{a} {} r{b} then {if_true} else {if_false}",
                    cmp_symbol(*op)
                )?,
                Instr::Return => writeln!(f, "return")?,
            }
        }
        Ok(())
    }
}

/// A jump label: an index into the compiler's label table, resolved to an
/// instruction address after the whole body is emitted.
#[derive(Debug, Clone, Copy)]
struct Label(u32);

struct Compiler<'a> {
    registry: &'a Registry,
    schema: &'a Schema,
    spatial: Option<SpatialAttrs>,
    instrs: Vec<Instr>,
    consts: Vec<Value>,
    const_names: Vec<String>,
    field_names: Vec<String>,
    attr_names: Vec<(AttrId, String)>,
    agg_sites: Vec<AggSite>,
    perform_sites: Vec<PerformSite>,
    /// Lexical scope: let-bound names to the register holding their value.
    /// Later entries shadow earlier ones, mirroring the oracle's
    /// binding-map insert order.
    scope: Vec<(String, Reg)>,
    num_regs: usize,
    num_field_caches: usize,
    max_tuple_arity: usize,
    /// Label table: `u32::MAX` until bound to an instruction address.
    labels: Vec<u32>,
}

/// Compile a normalised script into register bytecode.  `spatial` must be
/// the executing configuration's spatial-attribute mapping — the per-clause
/// filter analyses bake it in, so the engine recompiles when the exec
/// configuration changes.
pub fn compile_script(
    name: &str,
    normal: &NormalScript,
    registry: &Registry,
    schema: &Schema,
    spatial: Option<SpatialAttrs>,
) -> Result<CompiledScript, CompileError> {
    let mut c = Compiler {
        registry,
        schema,
        spatial,
        instrs: Vec::new(),
        consts: Vec::new(),
        const_names: Vec::new(),
        field_names: Vec::new(),
        attr_names: Vec::new(),
        agg_sites: Vec::new(),
        perform_sites: Vec::new(),
        scope: Vec::new(),
        num_regs: 0,
        num_field_caches: 0,
        max_tuple_arity: 0,
        labels: Vec::new(),
    };
    c.compile_action(&normal.body)?;
    c.instrs.push(Instr::Return);
    c.patch_labels()?;
    Ok(CompiledScript {
        name: name.to_string(),
        consts: c.consts,
        const_names: c.const_names,
        field_names: c.field_names,
        attr_names: c.attr_names,
        placeholder_names: (0..c.max_tuple_arity).map(|i| format!("_{i}")).collect(),
        instrs: c.instrs,
        num_regs: c.num_regs,
        num_field_caches: c.num_field_caches,
        agg_sites: c.agg_sites,
        perform_sites: c.perform_sites,
    })
}

impl<'a> Compiler<'a> {
    fn fresh(&mut self) -> Result<Reg, CompileError> {
        if self.num_regs > Reg::MAX as usize {
            return Err(CompileError::Unsupported(
                "script needs more than 65536 registers".into(),
            ));
        }
        let reg = self.num_regs as Reg;
        self.num_regs += 1;
        Ok(reg)
    }

    fn u16_index(len: usize, what: &str) -> Result<u16, CompileError> {
        u16::try_from(len).map_err(|_| CompileError::Unsupported(format!("too many {what}")))
    }

    fn lookup(&self, name: &str) -> Option<Reg> {
        self.scope
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, r)| *r)
    }

    fn const_idx(&mut self, v: &Value) -> Result<u16, CompileError> {
        if let Some(i) = self.consts.iter().position(|c| c == v) {
            return Self::u16_index(i, "constants");
        }
        self.consts.push(v.clone());
        Self::u16_index(self.consts.len() - 1, "constants")
    }

    fn const_name_idx(&mut self, name: &str) -> Result<u16, CompileError> {
        if let Some(i) = self.const_names.iter().position(|n| n == name) {
            return Self::u16_index(i, "constant names");
        }
        self.const_names.push(name.to_string());
        Self::u16_index(self.const_names.len() - 1, "constant names")
    }

    fn field_idx(&mut self, name: &str) -> Result<u16, CompileError> {
        if let Some(i) = self.field_names.iter().position(|n| n == name) {
            return Self::u16_index(i, "field names");
        }
        self.field_names.push(name.to_string());
        Self::u16_index(self.field_names.len() - 1, "field names")
    }

    fn attr_id(&mut self, name: &str) -> Result<AttrId, CompileError> {
        let id = self
            .schema
            .attr_id(name)
            .ok_or_else(|| CompileError::Unsupported(format!("unknown attribute `{name}`")))?;
        if !self.attr_names.iter().any(|(a, _)| *a == id) {
            self.attr_names.push((id, name.to_string()));
        }
        Ok(id)
    }

    fn new_label(&mut self) -> Label {
        self.labels.push(u32::MAX);
        Label(self.labels.len() as u32 - 1)
    }

    fn bind_label(&mut self, label: Label) {
        self.labels[label.0 as usize] = self.instrs.len() as u32;
    }

    /// Rewrite label ids stored in jump targets into instruction addresses.
    fn patch_labels(&mut self) -> Result<(), CompileError> {
        let resolve = |labels: &[u32], id: u32| -> Result<u32, CompileError> {
            let pc = labels[id as usize];
            if pc == u32::MAX {
                return Err(CompileError::Unsupported("unbound jump label".into()));
            }
            Ok(pc)
        };
        let labels = std::mem::take(&mut self.labels);
        for instr in &mut self.instrs {
            match instr {
                Instr::Jump { target } => *target = resolve(&labels, *target)?,
                Instr::Branch {
                    if_true, if_false, ..
                } => {
                    *if_true = resolve(&labels, *if_true)?;
                    *if_false = resolve(&labels, *if_false)?;
                }
                _ => {}
            }
        }
        Ok(())
    }

    fn compile_action(&mut self, action: &Action) -> Result<(), CompileError> {
        match action {
            Action::Let { name, term, body } => {
                let reg = match term {
                    Term::Agg(call) => self.compile_agg_call(call)?,
                    other => self.compile_term(other)?,
                };
                self.scope.push((name.clone(), reg));
                self.compile_action(body)?;
                self.scope.pop();
                Ok(())
            }
            Action::Seq(items) => {
                for item in items {
                    self.compile_action(item)?;
                }
                Ok(())
            }
            Action::If { cond, then, els } => {
                let t = self.new_label();
                let end = self.new_label();
                match els {
                    None => {
                        self.compile_cond(cond, t, end)?;
                        self.bind_label(t);
                        self.compile_action(then)?;
                        self.bind_label(end);
                    }
                    Some(els) => {
                        let f = self.new_label();
                        self.compile_cond(cond, t, f)?;
                        self.bind_label(t);
                        self.compile_action(then)?;
                        self.instrs.push(Instr::Jump { target: end.0 });
                        self.bind_label(f);
                        self.compile_action(els)?;
                        self.bind_label(end);
                    }
                }
                Ok(())
            }
            Action::Perform { name, args } => self.compile_perform(name, args),
            Action::Nop => Ok(()),
        }
    }

    /// Two-target condition compilation: emit code that transfers control to
    /// `t` when the condition holds and `f` otherwise.  Native short-circuit
    /// (`and` skips its right operand on false, `or` on true) with the same
    /// left-to-right evaluation/error order as [`sgl_lang::eval::eval_cond`].
    fn compile_cond(&mut self, cond: &Cond, t: Label, f: Label) -> Result<(), CompileError> {
        match cond {
            Cond::Lit(true) => {
                self.instrs.push(Instr::Jump { target: t.0 });
                Ok(())
            }
            Cond::Lit(false) => {
                self.instrs.push(Instr::Jump { target: f.0 });
                Ok(())
            }
            Cond::Cmp { op, left, right } => {
                let a = self.compile_term(left)?;
                let b = self.compile_term(right)?;
                self.instrs.push(Instr::Branch {
                    op: *op,
                    a,
                    b,
                    if_true: t.0,
                    if_false: f.0,
                });
                Ok(())
            }
            Cond::And(x, y) => {
                let mid = self.new_label();
                self.compile_cond(x, mid, f)?;
                self.bind_label(mid);
                self.compile_cond(y, t, f)
            }
            Cond::Or(x, y) => {
                let mid = self.new_label();
                self.compile_cond(x, t, mid)?;
                self.bind_label(mid);
                self.compile_cond(y, t, f)
            }
            Cond::Not(c) => self.compile_cond(c, f, t),
        }
    }

    fn compile_term(&mut self, term: &Term) -> Result<Reg, CompileError> {
        match term {
            Term::Const(v) => {
                let idx = self.const_idx(v)?;
                let dst = self.fresh()?;
                self.instrs.push(Instr::Const { dst, idx });
                Ok(dst)
            }
            Term::Var(VarRef::Unit(attr)) => {
                let attr = self.attr_id(attr)?;
                let dst = self.fresh()?;
                self.instrs.push(Instr::UnitAttr { dst, attr });
                Ok(dst)
            }
            Term::Var(VarRef::Row(attr)) => Err(CompileError::Unsupported(format!(
                "`e.{attr}` referenced in a script body"
            ))),
            Term::Var(VarRef::Name(name)) => {
                // The oracle resolves bindings first, then constants.
                if let Some(reg) = self.lookup(name) {
                    return Ok(reg);
                }
                if self.registry.constant(name).is_some() {
                    let idx = self.const_name_idx(name)?;
                    let dst = self.fresh()?;
                    self.instrs.push(Instr::NamedConst { dst, idx });
                    return Ok(dst);
                }
                Err(CompileError::Unresolved(name.clone()))
            }
            Term::Random(seed) => {
                let seed = self.compile_term(seed)?;
                let dst = self.fresh()?;
                self.instrs.push(Instr::Random { dst, seed });
                Ok(dst)
            }
            Term::Agg(call) => Err(CompileError::Unsupported(format!(
                "aggregate `{}` nested inside a term (script not in normal form)",
                call.name
            ))),
            Term::Bin { op, left, right } => {
                let a = self.compile_term(left)?;
                let b = self.compile_term(right)?;
                let dst = self.fresh()?;
                self.instrs.push(Instr::Bin { dst, op: *op, a, b });
                Ok(dst)
            }
            Term::Neg(t) => {
                let src = self.compile_term(t)?;
                let dst = self.fresh()?;
                self.instrs.push(Instr::Neg { dst, src });
                Ok(dst)
            }
            Term::Abs(t) => {
                let src = self.compile_term(t)?;
                let dst = self.fresh()?;
                self.instrs.push(Instr::Abs { dst, src });
                Ok(dst)
            }
            Term::Sqrt(t) => {
                let src = self.compile_term(t)?;
                let dst = self.fresh()?;
                self.instrs.push(Instr::Sqrt { dst, src });
                Ok(dst)
            }
            Term::Field(t, field) => {
                let src = self.compile_term(t)?;
                let field = self.field_idx(field)?;
                let cache = Self::u16_index(self.num_field_caches, "field caches")?;
                self.num_field_caches += 1;
                let dst = self.fresh()?;
                self.instrs.push(Instr::Field {
                    dst,
                    src,
                    field,
                    cache,
                });
                Ok(dst)
            }
            Term::Tuple(items) => {
                let regs = items
                    .iter()
                    .map(|i| self.compile_term(i))
                    .collect::<Result<Vec<_>, _>>()?;
                self.max_tuple_arity = self.max_tuple_arity.max(items.len());
                let dst = self.fresh()?;
                self.instrs.push(Instr::Tuple { dst, items: regs });
                Ok(dst)
            }
        }
    }

    /// Compile one call argument.  Mirrors `eval_call_args`: the bare names
    /// `u`/`self` act as a unit marker when (and only when) they are neither
    /// let-bound nor a registry constant.
    fn compile_call_arg(&mut self, arg: &Term) -> Result<Reg, CompileError> {
        if let Term::Var(VarRef::Name(n)) = arg {
            if (n == "u" || n == "self")
                && self.lookup(n).is_none()
                && self.registry.constant(n).is_none()
            {
                let dst = self.fresh()?;
                self.instrs.push(Instr::UnitKey { dst });
                return Ok(dst);
            }
        }
        self.compile_term(arg)
    }

    fn compile_agg_call(&mut self, call: &AggCall) -> Result<Reg, CompileError> {
        if self.registry.aggregate(&call.name).is_none() {
            return Err(CompileError::Unsupported(format!(
                "unknown aggregate `{}`",
                call.name
            )));
        }
        let args = call
            .args
            .iter()
            .map(|a| self.compile_call_arg(a))
            .collect::<Result<Vec<_>, _>>()?;
        let site = Self::u16_index(self.agg_sites.len(), "aggregate call sites")?;
        self.agg_sites.push(AggSite {
            name: call.name.clone(),
            args,
        });
        let dst = self.fresh()?;
        self.instrs.push(Instr::CallAgg { dst, site });
        Ok(dst)
    }

    fn compile_perform(&mut self, name: &str, args: &[Term]) -> Result<(), CompileError> {
        let def = self
            .registry
            .action(name)
            .ok_or_else(|| CompileError::Unsupported(format!("unknown action `{name}`")))?
            .clone();
        let args = args
            .iter()
            .map(|a| self.compile_call_arg(a))
            .collect::<Result<Vec<_>, _>>()?;
        let mut clauses = Vec::with_capacity(def.clauses.len());
        for clause in &def.clauses {
            let analysis = analyze_filter(&clause.filter, self.schema, self.spatial);
            let effects = clause
                .effects
                .iter()
                .map(|(attr_name, term)| {
                    Ok((self.attr_id(attr_name)?, attr_name.clone(), term.clone()))
                })
                .collect::<Result<Vec<_>, CompileError>>()?;
            clauses.push(CompiledClause {
                filter: clause.filter.clone(),
                analysis,
                effects,
            });
        }
        let site = Self::u16_index(self.perform_sites.len(), "perform call sites")?;
        self.perform_sites.push(PerformSite {
            name: def.name.clone(),
            params: def.params.clone(),
            args,
            clauses,
        });
        self.instrs.push(Instr::Perform { site });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_env::schema::paper_schema;
    use sgl_lang::builtins::paper_registry;
    use sgl_lang::normalize::normalize;
    use sgl_lang::parse_script;

    fn compiled(src: &str) -> CompiledScript {
        let registry = paper_registry();
        let schema = paper_schema();
        let script = parse_script(src).unwrap();
        let normal = normalize(&script, &registry).unwrap();
        compile_script(
            "test",
            &normal,
            &registry,
            &schema,
            SpatialAttrs::from_schema(&schema),
        )
        .unwrap()
    }

    const SCRIPT: &str = r#"
        main(u) {
          (let c = CountEnemiesInRange(u, 12))
          if c > 3 then
            perform MoveInDirection(u, u.posx - 5, u.posy - 5);
          else if c > 0 and u.cooldown = 0 then
            perform FireAt(u, getNearestEnemy(u).key);
        }
    "#;

    #[test]
    fn compiles_the_paper_script_shape() {
        let c = compiled(SCRIPT);
        assert_eq!(c.agg_sites.len(), 2, "{c}");
        assert_eq!(c.perform_sites.len(), 2, "{c}");
        assert!(c.instr_count() > 5);
        assert!(c.reg_count() > 0);
        // Pre-resolved call metadata: FireAt's targeted clause and the
        // MoveInDirection self-clause are both key-equality shapes.
        for site in &c.perform_sites {
            assert!(!site.clauses.is_empty());
            for clause in &site.clauses {
                assert!(clause.analysis.key_eq.is_some());
                assert!(!clause.effects.is_empty());
            }
        }
        assert!(c.instrs.iter().any(|i| matches!(i, Instr::UnitKey { .. })));
        assert_eq!(c.instrs.last(), Some(&Instr::Return));
    }

    #[test]
    fn jump_targets_resolve_to_instruction_addresses() {
        let c = compiled(SCRIPT);
        let len = c.instrs.len() as u32;
        for instr in &c.instrs {
            match instr {
                Instr::Jump { target } => assert!(*target < len || *target == len - 1),
                Instr::Branch {
                    if_true, if_false, ..
                } => {
                    assert!(*if_true < len);
                    assert!(*if_false < len);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn disassembly_is_stable_and_readable() {
        let c = compiled(SCRIPT);
        let text = format!("{c}");
        assert!(text.contains("compiled script `test`"), "{text}");
        assert!(text.contains("CountEnemiesInRange"), "{text}");
        assert!(text.contains("getNearestEnemy"), "{text}");
        assert!(text.contains("perform#"), "{text}");
        assert!(text.contains("return"), "{text}");
        // Deterministic.
        assert_eq!(text, format!("{}", compiled(SCRIPT)));
    }

    #[test]
    fn named_constants_are_resolved_per_run_not_inlined() {
        let c = compiled("main(u) { perform MoveInDirection(u, _ARMOR, 0); }");
        assert_eq!(c.const_names, vec!["_ARMOR".to_string()]);
        assert!(c
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::NamedConst { .. })));
    }

    #[test]
    fn let_bindings_shadow_and_pop() {
        let c = compiled(
            r#"main(u) {
                (let x = 1)
                (let x = x + 1)
                perform MoveInDirection(u, x, x);
            }"#,
        );
        // Both uses of the inner `x` are the same register (no re-eval).
        let site = &c.perform_sites[0];
        assert_eq!(site.args[1], site.args[2]);
    }

    #[test]
    fn unresolved_names_and_row_refs_fail_to_compile() {
        let registry = paper_registry();
        let schema = paper_schema();
        let script = parse_script("main(u) { perform MoveInDirection(u, nope, 0); }").unwrap();
        let normal = normalize(&script, &registry).unwrap();
        let err = compile_script("t", &normal, &registry, &schema, None).unwrap_err();
        assert!(matches!(err, CompileError::Unresolved(n) if n == "nope"));

        let script = parse_script("main(u) { perform Vanish(u); }").unwrap();
        let normal = normalize(&script, &registry).unwrap();
        let err = compile_script("t", &normal, &registry, &schema, None).unwrap_err();
        assert!(matches!(err, CompileError::Unsupported(_)));
        assert!(err.to_string().contains("Vanish"));
    }

    #[test]
    fn short_circuit_conditions_lower_to_branches() {
        let c = compiled(
            r#"main(u) {
                if u.health > 0 and (u.cooldown = 0 or u.health > 10) then
                  perform Heal(u);
            }"#,
        );
        let branches = c
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::Branch { .. }))
            .count();
        assert_eq!(branches, 3, "{c}");
    }
}
