//! Polymorphism operators.
//!
//! Real malware families evade signatures by mutating their code between
//! samples: inserting junk instructions, splitting basic blocks with
//! unconditional jumps, and shuffling register assignments. These
//! operators give each generated sample an individual shape while leaving
//! the family-level statistics intact — exactly the intra-family variance
//! a CFG classifier has to be robust to.

use crate::emitter::{AsmProgram, Operand};
use magic_tensor::Rng64;

/// Junk sequences that do not change program semantics.
const JUNK: &[&[(&str, &[&str], u64)]] = &[
    &[("nop", &[], 1)],
    &[("xchg", &["eax", "eax"], 1)],
    &[("push", &["eax"], 1), ("pop", &["eax"], 1)],
    &[("lea", &["esi", "[esi+0]"], 3)],
    &[("mov", &["edi", "edi"], 2)],
    &[("pushfd", &[], 1), ("popfd", &[], 1)],
];

/// Inserts one randomly chosen junk sequence.
pub fn insert_junk(asm: &mut AsmProgram, rng: &mut Rng64) {
    let seq = JUNK[rng.next_below(JUNK.len())];
    for (m, ops, size) in seq {
        asm.push_text(m, ops, *size);
    }
}

/// Splits the current block by jumping to the immediately following
/// instruction: `jmp L ; L:`. Semantically a no-op, structurally it cuts
/// one basic block into two connected blocks.
pub fn split_block(asm: &mut AsmProgram) {
    let next = asm.fresh_label();
    asm.push("jmp", vec![Operand::Label(next)], 2);
    asm.place_label(next);
}

#[cfg(test)]
mod tests {
    use super::*;
    use magic_asm::{parse_listing, CfgBuilder};

    #[test]
    fn junk_sequences_parse_cleanly() {
        let mut rng = Rng64::new(0);
        let mut asm = AsmProgram::new();
        for _ in 0..50 {
            insert_junk(&mut asm, &mut rng);
        }
        asm.push_text("retn", &[], 1);
        let listing = asm.render(0x1000);
        let p = parse_listing(&listing).unwrap();
        assert!(p.len() > 50);
        let cfg = CfgBuilder::new(&p).build();
        assert_eq!(cfg.block_count(), 1, "junk must not add control flow");
    }

    #[test]
    fn split_block_adds_a_block_and_edge() {
        let mut asm = AsmProgram::new();
        asm.push_text("inc", &["eax"], 1);
        split_block(&mut asm);
        asm.push_text("dec", &["eax"], 1);
        asm.push_text("retn", &[], 1);
        let listing = asm.render(0x1000);
        let p = parse_listing(&listing).unwrap();
        let cfg = CfgBuilder::new(&p).build();
        assert_eq!(cfg.block_count(), 2);
        assert!(cfg.has_edge(0, 1));
    }
}
