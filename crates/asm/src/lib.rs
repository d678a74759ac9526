#![warn(missing_docs)]

//! Assembly front-end of the MAGIC reproduction: instruction model,
//! IDA-style listing parser, and the paper's two-pass control-flow-graph
//! construction (Section IV-A, Algorithms 1 and 2).
//!
//! The paper extracts CFGs from IDA Pro `.asm` listings. This crate
//! implements that path from scratch:
//!
//! 1. [`parse_listing`] turns a textual listing into a [`Program`] — "a
//!    one-to-one mapping from sorted addresses to assembly instructions",
//!    held as one address-sorted vector. Each [`Instruction`] borrows its
//!    text from the listing and is classified once, at parse time: its
//!    [`FlowKind`] and its Table I [`InstrCategory`].
//! 2. A first pass ([`tagging`], Algorithm 1) marks the `start`,
//!    `branchTo`, `fallThrough` and `return` tags. The paper's if-else-free
//!    visitor is one `match` on the stored [`FlowKind`].
//! 3. A second pass ([`CfgBuilder`]) creates basic blocks, as index
//!    ranges into the program, and connects them (Algorithm 2), yielding a
//!    [`Cfg`].
//!
//! # Example
//!
//! ```
//! use magic_asm::{parse_listing, CfgBuilder};
//!
//! let listing = "\
//! .text:00401000    cmp     eax, 1
//! .text:00401002    jz      loc_401006
//! .text:00401004    add     eax, 2
//! .text:00401006    retn
//! ";
//! let program = parse_listing(listing)?;
//! let cfg = CfgBuilder::new(&program).build();
//! assert_eq!(cfg.block_count(), 3);
//! # Ok::<(), magic_asm::ParseError>(())
//! ```

mod builder;
mod category;
mod instr;
mod parser;
pub mod tagging;

pub use builder::{Cfg, CfgBuilder};
pub use category::{categorize, FlowKind, InstrCategory};
pub use instr::{Instruction, Program};
pub use parser::{parse_listing, ParseError};
