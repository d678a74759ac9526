//! Instructions and programs.

use crate::category::{classify, FlowKind, InstrCategory};
use std::borrow::Cow;
use std::fmt;
use std::ops::Deref;

/// One assembly instruction at a fixed address, borrowing its text from
/// the listing it was parsed from.
///
/// Its [`FlowKind`] and [`InstrCategory`] are resolved once, when it is
/// created; tagging and the Table I attributes read them from here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instruction<'a> {
    /// Virtual address of the instruction.
    pub addr: u64,
    /// Encoded size in bytes.
    pub size: u64,
    /// Lower-case mnemonic, e.g. `mov`. Borrowed from the listing unless
    /// the listing spells it with upper-case letters.
    pub mnemonic: Cow<'a, str>,
    /// How the instruction moves control (Algorithm 1).
    pub kind: FlowKind,
    /// Table I category of the mnemonic.
    pub category: InstrCategory,
    /// Operand text, comma-separated, trimmed.
    pub(crate) operand_text: &'a str,
}

impl<'a> Instruction<'a> {
    /// Creates an instruction from its mnemonic and its comma-separated
    /// operand text, and classifies it.
    pub fn new(addr: u64, size: u64, mnemonic: &'a str, operands: &'a str) -> Self {
        let mnemonic = if mnemonic.bytes().all(|b| b.is_ascii() && !b.is_ascii_uppercase()) {
            Cow::Borrowed(mnemonic)
        } else {
            Cow::Owned(mnemonic.to_lowercase())
        };
        let (kind, category) = classify(&mnemonic);
        Instruction { addr, size, mnemonic, kind, category, operand_text: operands.trim() }
    }

    /// Operand strings: the operand text split at commas outside
    /// brackets and quotes, each trimmed, empty ones skipped.
    pub fn operands(&self) -> impl Iterator<Item = &'a str> {
        let mut rest = Some(self.operand_text);
        std::iter::from_fn(move || loop {
            let text = rest?;
            let (operand, tail) = match top_level_comma(text) {
                Some(i) => (&text[..i], Some(&text[i + 1..])),
                None => (text, None),
            };
            rest = tail;
            let operand = operand.trim();
            if !operand.is_empty() {
                return Some(operand);
            }
        })
    }

    /// Number of numeric constants among the operands (a Table I
    /// attribute). Handles `123`, `0x1F`, `1Fh`, and negative forms,
    /// including constants inside memory expressions like `[ebp-8]`.
    pub fn numeric_constant_count(&self) -> usize {
        // Commas and blanks are token separators, so counting over the
        // whole operand text equals summing over the split operands.
        self.operand_text
            .split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
            .filter(|tok| !tok.is_empty() && is_numeric_token(tok))
            .count()
    }

    /// Destination address for jump/call operands, when statically known.
    ///
    /// Recognizes IDA-style symbolic targets (`loc_401000`, `sub_401000`,
    /// `locret_401000`), raw hex (`0x401000`), and assembler hex
    /// (`401000h`). Register or memory targets return `None`.
    pub fn dst_addr(&self) -> Option<u64> {
        parse_target(self.operands().next()?)
    }
}

impl fmt::Display for Instruction<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:08X}  {}", self.addr, self.mnemonic)?;
        for (i, operand) in self.operands().enumerate() {
            f.write_str(if i == 0 { " " } else { ", " })?;
            f.write_str(operand)?;
        }
        Ok(())
    }
}

/// Byte offset of the first comma outside brackets and quotes.
fn top_level_comma(text: &str) -> Option<usize> {
    let mut depth = 0usize;
    let mut in_quote = false;
    for (i, b) in text.bytes().enumerate() {
        match b {
            b'\'' | b'"' => in_quote = !in_quote,
            b'[' | b'(' if !in_quote => depth += 1,
            b']' | b')' if !in_quote => depth = depth.saturating_sub(1),
            b',' if depth == 0 && !in_quote => return Some(i),
            _ => {}
        }
    }
    None
}

fn is_numeric_token(tok: &str) -> bool {
    if let Some(hex) = tok.strip_prefix("0x").or_else(|| tok.strip_prefix("0X")) {
        return !hex.is_empty() && hex.chars().all(|c| c.is_ascii_hexdigit());
    }
    if let Some(hex) = tok.strip_suffix('h').or_else(|| tok.strip_suffix('H')) {
        return !hex.is_empty()
            && hex.chars().all(|c| c.is_ascii_hexdigit())
            && hex.starts_with(|c: char| c.is_ascii_digit());
    }
    tok.chars().all(|c| c.is_ascii_digit())
}

/// Parses a symbolic or literal branch target into an address.
fn parse_target(op: &str) -> Option<u64> {
    let op = op.trim();
    // Strip IDA "short"/"near ptr"/"far ptr" qualifiers.
    let op = op
        .trim_start_matches("short ")
        .trim_start_matches("near ptr ")
        .trim_start_matches("far ptr ")
        .trim();
    for prefix in ["loc_", "locret_", "sub_", "off_", "unk_"] {
        if let Some(hex) = op.strip_prefix(prefix) {
            return u64::from_str_radix(hex, 16).ok();
        }
    }
    if let Some(hex) = op.strip_prefix("0x").or_else(|| op.strip_prefix("0X")) {
        return u64::from_str_radix(hex, 16).ok();
    }
    if let Some(hex) = op.strip_suffix('h').or_else(|| op.strip_suffix('H')) {
        if hex.starts_with(|c: char| c.is_ascii_digit()) {
            return u64::from_str_radix(hex, 16).ok();
        }
    }
    if op.chars().all(|c| c.is_ascii_digit()) && !op.is_empty() {
        return op.parse().ok();
    }
    None
}

/// A program: the paper's `P : Z+ -> I`, a one-to-one mapping from sorted
/// addresses to instructions (Section IV-A), held as one vector sorted by
/// address. It dereferences to that slice; the paper's
/// `getNextInst(P, inst)` is the next index.
///
/// # Example
///
/// ```
/// use magic_asm::{Instruction, Program};
///
/// let p: Program = [
///     Instruction::new(0x1002, 1, "retn", ""),
///     Instruction::new(0x1000, 2, "mov", "eax, 1"),
/// ]
/// .into_iter()
/// .collect();
/// assert_eq!(p.len(), 2);
/// assert_eq!(p[0].mnemonic, "mov");
/// assert_eq!(p.position(0x1002), Some(1));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program<'a> {
    instructions: Vec<Instruction<'a>>,
}

impl<'a> Program<'a> {
    /// Builds a program from instructions in listing order: sorts them by
    /// address and, of instructions sharing an address, keeps the one
    /// listed last.
    pub(crate) fn from_listing_order(mut instructions: Vec<Instruction<'a>>) -> Self {
        // Stable, so a shared address keeps its listing order ...
        instructions.sort_by_key(|inst| inst.addr);
        // ... and each run of it collapses onto its last member.
        instructions.dedup_by(|later, kept| {
            let same = later.addr == kept.addr;
            if same {
                std::mem::swap(later, kept);
            }
            same
        });
        Program { instructions }
    }

    /// Index of the instruction at `addr`, if present (binary search).
    pub fn position(&self, addr: u64) -> Option<usize> {
        self.instructions.binary_search_by_key(&addr, |inst| inst.addr).ok()
    }

    /// The instruction at `addr`, if present.
    pub fn at(&self, addr: u64) -> Option<&Instruction<'a>> {
        self.position(addr).map(|i| &self.instructions[i])
    }
}

impl<'a> Deref for Program<'a> {
    type Target = [Instruction<'a>];

    fn deref(&self) -> &[Instruction<'a>] {
        &self.instructions
    }
}

impl<'a> FromIterator<Instruction<'a>> for Program<'a> {
    /// Collects instructions in listing order; see [`Program`] for how
    /// they are ordered and deduplicated.
    fn from_iter<T: IntoIterator<Item = Instruction<'a>>>(iter: T) -> Self {
        Program::from_listing_order(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst<'a>(addr: u64, mnemonic: &'a str, operands: &'a str) -> Instruction<'a> {
        Instruction::new(addr, 2, mnemonic, operands)
    }

    #[test]
    fn program_iterates_in_address_order() {
        let p: Program = [inst(0x30, "nop", ""), inst(0x10, "nop", ""), inst(0x20, "nop", "")]
            .into_iter()
            .collect();
        let addrs: Vec<u64> = p.iter().map(|i| i.addr).collect();
        assert_eq!(addrs, vec![0x10, 0x20, 0x30]);
    }

    #[test]
    fn next_inst_skips_gaps() {
        let p: Program = [inst(0x10, "nop", ""), inst(0x40, "nop", "")].into_iter().collect();
        let first = p.position(0x10).unwrap();
        assert_eq!(p[first + 1].addr, 0x40);
        assert_eq!(p.position(0x40), Some(p.len() - 1));
        assert_eq!(p.position(0x20), None);
    }

    #[test]
    fn numeric_constants_in_various_forms() {
        assert_eq!(inst(0, "mov", "eax, 5").numeric_constant_count(), 1);
        assert_eq!(inst(0, "mov", "eax, 0x1F").numeric_constant_count(), 1);
        assert_eq!(inst(0, "mov", "eax, 1Fh").numeric_constant_count(), 1);
        assert_eq!(inst(0, "mov", "eax, [ebp-8]").numeric_constant_count(), 1);
        assert_eq!(inst(0, "mov", "eax, ebx").numeric_constant_count(), 0);
        assert_eq!(inst(0, "add", "dword ptr [esi+4], 10h").numeric_constant_count(), 2);
    }

    #[test]
    fn registers_are_not_numeric() {
        // `ah` looks hex-suffixed but starts with a letter.
        assert_eq!(inst(0, "mov", "ah, bh").numeric_constant_count(), 0);
    }

    #[test]
    fn dst_addr_parses_symbolic_targets() {
        assert_eq!(inst(0, "jmp", "loc_401000").dst_addr(), Some(0x401000));
        assert_eq!(inst(0, "jz", "short loc_4F").dst_addr(), Some(0x4F));
        assert_eq!(inst(0, "call", "sub_1234").dst_addr(), Some(0x1234));
        assert_eq!(inst(0, "jmp", "0x500").dst_addr(), Some(0x500));
        assert_eq!(inst(0, "jmp", "500h").dst_addr(), Some(0x500));
        assert_eq!(inst(0, "jmp", "eax").dst_addr(), None);
        assert_eq!(inst(0, "call", "dword ptr [eax+4]").dst_addr(), None);
    }

    #[test]
    fn repeated_address_keeps_last() {
        let p: Program =
            [inst(0x10, "nop", ""), inst(0x12, "nop", ""), inst(0x10, "mov", "eax, 1")]
                .into_iter()
                .collect();
        assert_eq!(p.len(), 2);
        assert_eq!(p.at(0x10).unwrap().mnemonic, "mov");
    }

    #[test]
    fn new_lower_cases_and_classifies() {
        let i = inst(0, "JNZ", "short loc_10");
        assert_eq!(i.mnemonic, "jnz");
        assert!(matches!(i.mnemonic, Cow::Owned(_)));
        assert_eq!((i.kind, i.category), (FlowKind::ConditionalJump, InstrCategory::Transfer));
        assert!(matches!(inst(0, "jnz", "").mnemonic, Cow::Borrowed(_)));
    }

    #[test]
    fn operands_split_outside_brackets_and_quotes() {
        let i = inst(0, "mov", " dword ptr [eax+4] , 10h ");
        assert_eq!(i.operands().collect::<Vec<_>>(), ["dword ptr [eax+4]", "10h"]);
        let q = inst(0, "dd", "'a,b', ,5");
        assert_eq!(q.operands().collect::<Vec<_>>(), ["'a,b'", "5"]);
        assert_eq!(inst(0, "retn", "").operands().count(), 0);
    }

    #[test]
    fn display_formats_instruction() {
        let i = inst(0x401000, "mov", "eax,1");
        assert_eq!(i.to_string(), "00401000  mov eax, 1");
    }
}
