//! Parser for IDA-Pro-style `.asm` listings.
//!
//! The Microsoft malware challenge ships files like
//!
//! ```text
//! .text:00401000                 push    ebp
//! .text:00401001                 mov     ebp, esp
//! .text:00401003 loc_401003:                 ; CODE XREF: sub_401000+12
//! .text:00401003                 cmp     [ebp+arg_0], 0
//! ```
//!
//! This parser accepts that shape: a `section:ADDRESS` prefix, optional
//! label, a mnemonic, comma-separated operands, and `;` comments. Lines
//! without a recognizable instruction (pure labels, directives, comments,
//! byte dumps) are skipped. Lines sharing an address keep the last
//! instruction listed (IDA repeats addresses for label lines).

use crate::instr::{Instruction, Program};
use std::error::Error;
use std::fmt;

/// Error produced when a listing line has an address field that cannot be
/// parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    line_number: usize,
    message: String,
}

impl ParseError {
    /// 1-based line number of the offending line.
    pub fn line_number(&self) -> usize {
        self.line_number
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line_number, self.message)
    }
}

impl Error for ParseError {}

/// Mnemonics that start an operand-bearing data declaration we keep.
const DATA_DECLS: &[&str] = &["db", "dw", "dd", "dq", "dt"];

/// Registers and keywords that can never be a mnemonic; lines whose first
/// token is one of these are metadata, not instructions.
const NON_MNEMONICS: &[&str] = &[
    "proc", "endp", "segment", "ends", "assume", "public", "extrn", "include", ";",
];

/// Parses a listing into a [`Program`].
///
/// Each instruction borrows its mnemonic and operand text from `text`
/// and is classified once, here.
///
/// # Errors
///
/// Returns [`ParseError`] if a line carries a malformed address field
/// (e.g. `.text:ZZZZ`). Unrecognized but well-addressed content is
/// silently skipped, mirroring how MAGIC tolerates IDA's imperfect
/// disassembly (Section V-A).
pub fn parse_listing(text: &str) -> Result<Program<'_>, ParseError> {
    let _span = magic_obs::span(magic_obs::stage::ASM_PARSE);
    let mut instructions: Vec<Instruction> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        // Strip comments.
        let line = match raw.find(';') {
            Some(pos) => &raw[..pos],
            None => raw,
        };
        let line = line.trim_end();
        if line.trim().is_empty() {
            continue;
        }

        let Some((addr, rest)) = split_address(line, lineno + 1)? else {
            continue;
        };
        let Some(inst) = parse_instruction(addr, rest) else {
            continue;
        };

        // The previous instruction's size is the address delta in listing
        // order (IDA does not print encoded sizes, so the delta is the
        // faithful reconstruction); the last instruction keeps size 2.
        if let Some(prev) = instructions.last_mut() {
            prev.size = addr.saturating_sub(prev.addr).max(1);
        }
        instructions.push(inst);
    }
    let program = Program::from_listing_order(instructions);
    magic_obs::counter(magic_obs::stage::C_ASM_INSTRUCTIONS, program.len() as f64);
    Ok(program)
}

/// Splits `section:ADDRESS rest` into the address and the remaining text.
/// Returns `Ok(None)` for lines without an address prefix.
fn split_address(line: &str, lineno: usize) -> Result<Option<(u64, &str)>, ParseError> {
    let trimmed = line.trim_start();
    let Some(colon) = trimmed.find(':') else {
        return Ok(None);
    };
    let (section, rest) = trimmed.split_at(colon);
    if section.is_empty() || section.contains(char::is_whitespace) {
        return Ok(None);
    }
    let rest = &rest[1..];
    let addr_end = rest
        .char_indices()
        .find(|(_, c)| !c.is_ascii_hexdigit())
        .map(|(i, _)| i)
        .unwrap_or(rest.len());
    if addr_end == 0 {
        return Err(ParseError {
            line_number: lineno,
            message: format!("missing address after section prefix {section:?}"),
        });
    }
    let addr = u64::from_str_radix(&rest[..addr_end], 16).map_err(|e| ParseError {
        line_number: lineno,
        message: format!("bad address: {e}"),
    })?;
    Ok(Some((addr, &rest[addr_end..])))
}

/// Parses `[label:] mnemonic [operands]` from the post-address text.
fn parse_instruction(addr: u64, rest: &str) -> Option<Instruction<'_>> {
    let mut text = rest.trim();
    // Skip a leading label ("loc_401003:" or "start:").
    while let Some(first) = text.split_whitespace().next() {
        if let Some(label) = first.strip_suffix(':') {
            if label.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '@') {
                text = text[first.len()..].trim_start();
                continue;
            }
        }
        break;
    }
    // Empty text and label-definition lines like "var_8 = dword ptr -8".
    if text.is_empty() || text.contains(" = ") {
        return None;
    }
    let (mnemonic, op_text) = text.split_once(char::is_whitespace).unwrap_or((text, ""));
    // The lower-cased mnemonic must be ASCII alphanumeric.
    if !mnemonic.chars().flat_map(char::to_lowercase).all(|c| c.is_ascii_alphanumeric()) {
        return None;
    }
    let mut inst = Instruction::new(addr, 2, mnemonic, op_text);
    if NON_MNEMONICS.contains(&&*inst.mnemonic) {
        return None;
    }
    // Data declarations are kept (they are a Table I category) but their
    // operand dumps can be huge; keep at most the first operand.
    if DATA_DECLS.contains(&&*inst.mnemonic) {
        inst.operand_text = inst.operands().next().unwrap_or("");
    }
    Some(inst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_listing() {
        let p = parse_listing(
            ".text:00401000                 push    ebp\n\
             .text:00401001                 mov     ebp, esp\n\
             .text:00401003                 retn\n",
        )
        .unwrap();
        assert_eq!(p.len(), 3);
        let mov = p.at(0x401001).unwrap();
        assert_eq!(mov.mnemonic, "mov");
        assert_eq!(mov.operands().collect::<Vec<_>>(), ["ebp", "esp"]);
        // Size reconstructed from the address delta.
        assert_eq!(p.at(0x401000).unwrap().size, 1);
        assert_eq!(mov.size, 2);
    }

    #[test]
    fn skips_labels_and_comments() {
        let p = parse_listing(
            ".text:00401000 loc_401000:             ; CODE XREF: foo\n\
             .text:00401000                 inc     eax ; bump\n",
        )
        .unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.at(0x401000).unwrap().mnemonic, "inc");
    }

    #[test]
    fn skips_directives_and_definitions() {
        let p = parse_listing(
            ".text:00401000 sub_401000      proc near\n\
             .text:00401000 var_8           = dword ptr -8\n\
             .text:00401000                 push    ebp\n\
             .text:00401005 sub_401000      endp\n",
        )
        .unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.at(0x401000).unwrap().mnemonic, "push");
    }

    #[test]
    fn operand_splitting_respects_brackets() {
        let p = parse_listing(".text:00401000    mov     dword ptr [eax+4], 10h\n").unwrap();
        let i = p.at(0x401000).unwrap();
        assert_eq!(i.operands().collect::<Vec<_>>(), ["dword ptr [eax+4]", "10h"]);
    }

    #[test]
    fn data_declarations_are_kept_truncated() {
        let p = parse_listing(".data:00402000    db 90h, 90h, 90h, 90h\n").unwrap();
        let i = p.at(0x402000).unwrap();
        assert_eq!(i.mnemonic, "db");
        assert_eq!(i.operands().collect::<Vec<_>>(), ["90h"]);
    }

    #[test]
    fn bad_address_is_an_error() {
        let err = parse_listing(".text:    mov eax, 1\n").unwrap_err();
        assert_eq!(err.line_number(), 1);
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn lines_without_prefix_are_skipped() {
        let p = parse_listing("just some text\n\n.text:00401000 nop\n").unwrap();
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn end_to_end_with_builder() {
        use crate::builder::CfgBuilder;
        let p = parse_listing(
            ".text:00401000                 cmp     eax, 0\n\
             .text:00401003                 jz      short loc_401008\n\
             .text:00401005                 add     eax, 1\n\
             .text:00401008 loc_401008:\n\
             .text:00401008                 retn\n",
        )
        .unwrap();
        let cfg = CfgBuilder::new(&p).build();
        assert_eq!(cfg.block_count(), 3);
        assert!(cfg.has_edge(0, 1) || cfg.has_edge(0, 2));
        assert_eq!(cfg.instruction_count(), 4);
    }

    #[test]
    fn quoted_strings_keep_commas() {
        let p = parse_listing(".data:00402000    dd 'a,b', 5\n").unwrap();
        let i = p.at(0x402000).unwrap();
        assert_eq!(i.operands().collect::<Vec<_>>(), ["'a,b'"]);
    }
}
