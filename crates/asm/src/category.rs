//! Instruction categorization for the Table I block attributes.

use std::fmt;

/// The instruction classes counted per basic block (Table I of the
/// paper): transfer, call, arithmetic, compare, mov, termination and
/// data-declaration instructions, with everything else in `Other`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrCategory {
    /// Control transfers: unconditional and conditional jumps, loops.
    Transfer,
    /// Procedure calls.
    Call,
    /// Integer/bitwise arithmetic.
    Arithmetic,
    /// Comparisons and tests.
    Compare,
    /// Data movement (mov family, push/pop, exchanges, lea).
    Mov,
    /// Returns, halts and interrupts-returns.
    Termination,
    /// Assembler data declarations (`db`, `dd`, ...).
    DataDeclaration,
    /// Anything not covered above.
    Other,
}

impl InstrCategory {
    /// All categories that Table I counts explicitly (excludes `Other`).
    pub const COUNTED: [InstrCategory; 7] = [
        InstrCategory::Transfer,
        InstrCategory::Call,
        InstrCategory::Arithmetic,
        InstrCategory::Compare,
        InstrCategory::Mov,
        InstrCategory::Termination,
        InstrCategory::DataDeclaration,
    ];
}

impl fmt::Display for InstrCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            InstrCategory::Transfer => "transfer",
            InstrCategory::Call => "call",
            InstrCategory::Arithmetic => "arithmetic",
            InstrCategory::Compare => "compare",
            InstrCategory::Mov => "mov",
            InstrCategory::Termination => "termination",
            InstrCategory::DataDeclaration => "data declaration",
            InstrCategory::Other => "other",
        };
        f.write_str(name)
    }
}

/// How an instruction moves control, the distinction Algorithm 1 tags
/// on. Resolved once per instruction, together with its
/// [`InstrCategory`], when the instruction is created.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowKind {
    /// Conditional jump or loop: branches *and* falls through.
    ConditionalJump,
    /// Unconditional jump: branches, never falls through.
    Jump,
    /// Call: branches to the callee and falls through on return.
    Call,
    /// Return or halt: no successors.
    Return,
    /// Any other instruction: plain fall-through.
    Other,
}

const CONDITIONAL_JUMPS: &[&str] = &[
    "ja", "jae", "jb", "jbe", "jc", "jcxz", "jecxz", "je", "jg", "jge", "jl", "jle", "jna",
    "jnae", "jnb", "jnbe", "jnc", "jne", "jng", "jnge", "jnl", "jnle", "jno", "jnp", "jns",
    "jnz", "jo", "jp", "jpe", "jpo", "js", "jz", "loop", "loope", "loopne", "loopnz", "loopz",
];

const UNCONDITIONAL_JUMPS: &[&str] = &["jmp", "ljmp"];

const CALLS: &[&str] = &["call", "lcall"];

const ARITHMETIC: &[&str] = &[
    "add", "adc", "sub", "sbb", "mul", "imul", "div", "idiv", "inc", "dec", "neg", "not",
    "and", "or", "xor", "shl", "shr", "sal", "sar", "rol", "ror", "rcl", "rcr", "cdq", "cbw",
    "cwde", "aaa", "aad", "aam", "aas", "daa", "das",
];

const COMPARES: &[&str] = &["cmp", "test", "cmpsb", "cmpsw", "cmpsd", "scasb", "scasw", "scasd"];

const MOVS: &[&str] = &[
    "mov", "movzx", "movsx", "movsb", "movsw", "movsd", "movaps", "movups", "movdqa", "movdqu",
    "xchg", "push", "pusha", "pushad", "pushf", "pushfd", "pop", "popa", "popad", "popf",
    "popfd", "lea", "lodsb", "lodsw", "lodsd", "stosb", "stosw", "stosd",
];

const TERMINATIONS: &[&str] = &["ret", "retn", "retf", "iret", "iretd", "hlt"];

const DATA_DECLS: &[&str] = &["db", "dw", "dd", "dq", "dt", "align", "unicode"];

/// Every mnemonic list with the flow kind and category it stands for, in
/// lookup order. The lists are disjoint, so the order only decides how
/// soon a match is found.
const TABLE: [(&[&str], FlowKind, InstrCategory); 8] = [
    (CONDITIONAL_JUMPS, FlowKind::ConditionalJump, InstrCategory::Transfer),
    (UNCONDITIONAL_JUMPS, FlowKind::Jump, InstrCategory::Transfer),
    (CALLS, FlowKind::Call, InstrCategory::Call),
    (ARITHMETIC, FlowKind::Other, InstrCategory::Arithmetic),
    (COMPARES, FlowKind::Other, InstrCategory::Compare),
    (MOVS, FlowKind::Other, InstrCategory::Mov),
    (TERMINATIONS, FlowKind::Return, InstrCategory::Termination),
    (DATA_DECLS, FlowKind::Other, InstrCategory::DataDeclaration),
];

/// Resolves a (lower-case) mnemonic's flow kind and Table I category in
/// one scan of the mnemonic lists.
pub(crate) fn classify(mnemonic: &str) -> (FlowKind, InstrCategory) {
    TABLE
        .iter()
        .find(|(list, _, _)| list.contains(&mnemonic))
        .map_or((FlowKind::Other, InstrCategory::Other), |&(_, kind, cat)| (kind, cat))
}

/// Classifies a (lower-case) mnemonic into its Table I category.
///
/// # Example
///
/// ```
/// use magic_asm::{categorize, InstrCategory};
///
/// assert_eq!(categorize("jz"), InstrCategory::Transfer);
/// assert_eq!(categorize("retn"), InstrCategory::Termination);
/// assert_eq!(categorize("fnop"), InstrCategory::Other);
/// ```
pub fn categorize(mnemonic: &str) -> InstrCategory {
    classify(mnemonic).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jumps_are_transfer() {
        for m in ["jmp", "jz", "jnz", "ja", "loop"] {
            assert_eq!(categorize(m), InstrCategory::Transfer, "{m}");
        }
    }

    #[test]
    fn representative_mnemonics_map_to_expected_categories() {
        assert_eq!(categorize("call"), InstrCategory::Call);
        assert_eq!(categorize("xor"), InstrCategory::Arithmetic);
        assert_eq!(categorize("cmp"), InstrCategory::Compare);
        assert_eq!(categorize("test"), InstrCategory::Compare);
        assert_eq!(categorize("push"), InstrCategory::Mov);
        assert_eq!(categorize("lea"), InstrCategory::Mov);
        assert_eq!(categorize("hlt"), InstrCategory::Termination);
        assert_eq!(categorize("db"), InstrCategory::DataDeclaration);
        assert_eq!(categorize("nop"), InstrCategory::Other);
    }

    #[test]
    fn categories_are_disjoint() {
        let mut seen = std::collections::HashSet::new();
        for (list, _, _) in TABLE {
            for m in list {
                assert!(seen.insert(*m), "mnemonic {m} appears in two categories");
            }
        }
    }

    #[test]
    fn predicates_agree_with_categorize() {
        assert_eq!(classify("jz").0, FlowKind::ConditionalJump);
        assert_eq!(classify("jmp").0, FlowKind::Jump);
        assert_eq!(classify("call").0, FlowKind::Call);
        assert_eq!(classify("retn").0, FlowKind::Return);
        assert_eq!(classify("hlt").0, FlowKind::Return);
        assert_eq!(classify("mov").0, FlowKind::Other);
        for (list, kind, cat) in TABLE {
            for m in list {
                assert_eq!(classify(m), (kind, cat), "{m}");
                assert_eq!(categorize(m), cat, "{m}");
            }
        }
    }

    #[test]
    fn counted_excludes_other() {
        assert_eq!(InstrCategory::COUNTED.len(), 7);
        assert!(!InstrCategory::COUNTED.contains(&InstrCategory::Other));
    }
}
