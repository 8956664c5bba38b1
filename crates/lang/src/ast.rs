//! Abstract syntax tree for PyLite.
//!
//! Every branch-bearing and return-bearing node carries the 1-based source
//! line so the interpreter can attribute trace events to a stable
//! `(file, line)` site, mirroring AutoType's bytecode instrumentation which
//! dumps "the filename and line number of the corresponding branch/return"
//! (paper, Appendix D.2).
//!
//! Function bodies sit behind `Arc`: binding a `def` or a class at run time
//! shares the parsed body instead of copying it (parse once, execute many).

use std::sync::Arc;

/// A parsed source file: a sequence of top-level statements.
///
/// Top-level `def`/`class` statements define module globals; other
/// statements form the module's script body (AutoType also executes code
/// snippets living outside functions, Appendix D.1).
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    pub body: Vec<Stmt>,
}

/// A binary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    FloorDiv,
    Mod,
    Pow,
}

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    In,
    NotIn,
}

/// An expression node.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    None,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Name(String),
    List(Vec<Expr>),
    Dict(Vec<(Expr, Expr)>),
    Bin {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
        line: u32,
    },
    Cmp {
        op: CmpOp,
        left: Box<Expr>,
        right: Box<Expr>,
        line: u32,
    },
    /// Short-circuiting `and` / `or`.
    BoolOp {
        is_and: bool,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    Not(Box<Expr>),
    Neg(Box<Expr>, u32),
    Call {
        callee: Box<Expr>,
        args: Vec<Expr>,
        line: u32,
    },
    Attr {
        object: Box<Expr>,
        name: String,
        line: u32,
    },
    Index {
        object: Box<Expr>,
        index: Box<Expr>,
        line: u32,
    },
    Slice {
        object: Box<Expr>,
        low: Option<Box<Expr>>,
        high: Option<Box<Expr>>,
        line: u32,
    },
}

/// Assignment target forms.
#[derive(Debug, Clone, PartialEq)]
pub enum Target {
    Name(String),
    Attr { object: Expr, name: String },
    Index { object: Expr, index: Expr },
}

/// A statement node.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    Expr(Expr),
    Assign {
        target: Target,
        value: Expr,
        line: u32,
    },
    AugAssign {
        target: Target,
        op: BinOp,
        value: Expr,
        line: u32,
    },
    If {
        cond: Expr,
        then_body: Vec<Stmt>,
        else_body: Vec<Stmt>,
        /// The line of the `if`/`elif` keyword — the branch site.
        line: u32,
    },
    While {
        cond: Expr,
        body: Vec<Stmt>,
        line: u32,
    },
    For {
        var: String,
        iter: Expr,
        body: Vec<Stmt>,
        line: u32,
    },
    Return {
        value: Option<Expr>,
        line: u32,
    },
    Raise {
        /// Exception kind name, e.g. `ValueError`.
        kind: String,
        message: Option<Expr>,
        line: u32,
    },
    Try {
        body: Vec<Stmt>,
        handlers: Vec<ExceptHandler>,
        line: u32,
    },
    FuncDef(Arc<FuncDef>),
    ClassDef(ClassDef),
    Import {
        module: String,
        line: u32,
    },
    Pass,
    Break(u32),
    Continue(u32),
}

/// One `except` clause of a `try` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct ExceptHandler {
    /// Exception kind to catch; `None` is a bare `except:` catching all.
    pub kind: Option<String>,
    /// Optional `as name` binding (bound to the exception message string).
    pub bind: Option<String>,
    pub body: Vec<Stmt>,
    pub line: u32,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDef {
    pub name: String,
    pub params: Vec<String>,
    pub body: Vec<Stmt>,
    pub line: u32,
}

/// A class definition: only methods are supported (no class-level fields).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDef {
    pub name: String,
    pub methods: Vec<Arc<FuncDef>>,
    pub line: u32,
}

impl Module {
    /// All top-level function definitions in the module.
    pub fn functions(&self) -> impl Iterator<Item = &FuncDef> {
        self.body.iter().filter_map(|s| match s {
            Stmt::FuncDef(f) => Some(&**f),
            _ => None,
        })
    }

    /// All top-level class definitions in the module.
    pub fn classes(&self) -> impl Iterator<Item = &ClassDef> {
        self.body.iter().filter_map(|s| match s {
            Stmt::ClassDef(c) => Some(c),
            _ => None,
        })
    }

    /// Modules imported anywhere at the top level.
    pub fn imports(&self) -> Vec<&str> {
        self.body
            .iter()
            .filter_map(|s| match s {
                Stmt::Import { module, .. } => Some(module.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Modules imported *anywhere* in the module, including inside function
    /// bodies, class methods, and nested control flow. Used to decide
    /// whether executing the module could ever trigger a dynamic package
    /// install (the execute-parse-install-rerun loop of §4.2).
    pub fn all_imports(&self) -> Vec<&str> {
        fn walk<'a>(body: &'a [Stmt], out: &mut Vec<&'a str>) {
            for s in body {
                match s {
                    Stmt::Import { module, .. } => out.push(module.as_str()),
                    Stmt::If {
                        then_body,
                        else_body,
                        ..
                    } => {
                        walk(then_body, out);
                        walk(else_body, out);
                    }
                    Stmt::While { body, .. } | Stmt::For { body, .. } => walk(body, out),
                    Stmt::Try { body, handlers, .. } => {
                        walk(body, out);
                        for h in handlers {
                            walk(&h.body, out);
                        }
                    }
                    Stmt::FuncDef(f) => walk(&f.body, out),
                    Stmt::ClassDef(c) => {
                        for m in &c.methods {
                            walk(&m.body, out);
                        }
                    }
                    _ => {}
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.body, &mut out);
        out
    }

    /// True if the module has executable statements outside `def`/`class`
    /// (a "script" in AutoType's terminology, runnable standalone).
    pub fn has_script_body(&self) -> bool {
        self.body.iter().any(|s| {
            !matches!(
                s,
                Stmt::FuncDef(_) | Stmt::ClassDef(_) | Stmt::Import { .. } | Stmt::Pass
            )
        })
    }
}
