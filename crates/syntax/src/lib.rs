//! The source language Λ of Sabry & Felleisen, *"Is Continuation-Passing
//! Useful for Data Flow Analysis?"* (PLDI 1994), §2.
//!
//! Λ is the core of a call-by-value higher-order language (Scheme, ML, Lisp):
//!
//! ```text
//! M ::= V | (M M) | (let (x M) M) | (if0 M M M)
//! V ::= n | x | add1 | sub1 | (λx.M)
//! ```
//!
//! plus the `loop` extension of §6.2 whose collecting semantics is the
//! infinite value set `{0, 1, 2, …}`.
//!
//! This crate provides:
//!
//! * the abstract syntax ([`Term`], [`Value`], [`Ident`], [`KIdent`]);
//! * a global [string interner](intern) — identifiers are `u32` symbols, so
//!   comparison, hashing, and ordering never walk a string;
//! * a [hash-consed term arena](arena) with `u32` node ids, the front end's
//!   flat representation (O(1) subtree equality, shared substructure);
//! * the one [parser](parse), which reads source text straight into the
//!   arena ([`parse_term`](parse::parse_term) wraps it for callers that
//!   want a boxed [`Term`]), and a round-tripping pretty
//!   [printer](mod@print);
//! * [builder](build) combinators for constructing terms in tests and
//!   workload generators;
//! * [free-variable computation](free) and
//!   [α-freshening](fresh) (the analyses of the paper assume all bound
//!   variables in a program are unique).
//!
//! # Example
//!
//! ```
//! use cpsdfa_syntax::{parse::parse_term, build};
//!
//! let t = parse_term("(let (x 1) (add1 x))")?;
//! let u = build::let_("x", build::num(1), build::app(build::add1(), build::var("x")));
//! assert_eq!(t, u);
//! # Ok::<(), cpsdfa_syntax::parse::ParseError>(())
//! ```

pub mod arena;
pub mod ast;
pub mod build;
pub mod free;
pub mod fresh;
pub mod fxhash;
pub mod ident;
pub mod intern;
pub mod label;
pub mod parse;
pub mod print;

pub use arena::{TermArena, TermId};
pub use ast::{Term, Value};
pub use ident::{FreshGen, Ident, KIdent};
pub use intern::Symbol;
pub use label::Label;
