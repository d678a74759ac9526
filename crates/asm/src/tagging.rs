//! First pass of CFG construction: instruction tagging (Algorithm 1).
//!
//! The paper associates each instruction with the tags `{start, branchTo,
//! fallThrough, return}` and fills them with an if-else-free *visitor*
//! over the instruction kinds. Here each instruction's [`FlowKind`] is
//! resolved once, when it is parsed, so the visitor is one `match` on
//! it. Tags sit in a vector indexed like the [`Program`]: the paper's
//! `getNextInst` is the next index, and a branch target is found by
//! binary search.

use crate::category::FlowKind;
use crate::instr::Program;

/// The per-instruction tags of Section IV-A.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tags {
    /// This instruction starts a new basic block.
    pub start: bool,
    /// Program index of the static branch destination, if this
    /// instruction branches to an instruction of the program.
    pub branch_to: Option<usize>,
    /// Control may continue to the textually next instruction.
    pub fall_through: bool,
    /// This instruction returns from the procedure.
    pub is_return: bool,
}

/// Runs the first pass over the whole program and returns one [`Tags`]
/// per instruction, indexed like the program. The first instruction is
/// always a block start.
pub fn tag_program(program: &Program) -> Vec<Tags> {
    let mut tags = vec![Tags::default(); program.len()];
    if let Some(first) = tags.first_mut() {
        first.start = true;
    }
    for (i, inst) in program.iter().enumerate() {
        // Algorithm 1: conditional jumps and calls branch and fall
        // through, jumps only branch, returns do neither.
        let (branches, falls_through) = match inst.kind {
            FlowKind::ConditionalJump | FlowKind::Call => (true, true),
            FlowKind::Jump => (true, false),
            FlowKind::Return => (false, false),
            FlowKind::Other => (false, true),
        };
        tags[i].fall_through = falls_through;
        tags[i].is_return = inst.kind == FlowKind::Return;
        // A statically known destination inside the program starts a
        // block; targets elsewhere (imports, registers) are dropped.
        if branches {
            if let Some(dst) = inst.dst_addr().and_then(|addr| program.position(addr)) {
                tags[i].branch_to = Some(dst);
                tags[dst].start = true;
            }
        }
        // Any control transfer ends its block, so the textually next
        // instruction starts a new one.
        if inst.kind != FlowKind::Other {
            if let Some(next) = tags.get_mut(i + 1) {
                next.start = true;
            }
        }
    }
    tags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Instruction;

    fn program<'a>(lines: &[(u64, &'a str, &'a str)]) -> Program<'a> {
        lines.iter().map(|&(addr, m, ops)| Instruction::new(addr, 2, m, ops)).collect()
    }

    #[test]
    fn conditional_jump_tags_target_and_fallthrough() {
        // 0x10: jz 0x14 ; 0x12: nop ; 0x14: nop
        let p = program(&[(0x10, "jz", "loc_14"), (0x12, "nop", ""), (0x14, "nop", "")]);
        let tags = tag_program(&p);
        assert!(tags[0].start); // entry
        assert_eq!(tags[0].branch_to, Some(2));
        assert!(tags[0].fall_through);
        assert!(tags[1].start); // fall-through successor of a branch
        assert!(tags[2].start); // branch target
    }

    #[test]
    fn unconditional_jump_does_not_fall_through() {
        let p = program(&[(0x10, "jmp", "loc_14"), (0x12, "nop", ""), (0x14, "nop", "")]);
        let tags = tag_program(&p);
        assert!(!tags[0].fall_through);
        assert_eq!(tags[0].branch_to, Some(2));
        assert!(tags[1].start);
    }

    #[test]
    fn return_has_no_successors() {
        let p = program(&[(0x10, "retn", ""), (0x12, "nop", "")]);
        let tags = tag_program(&p);
        assert!(tags[0].is_return);
        assert!(!tags[0].fall_through);
        assert_eq!(tags[0].branch_to, None);
        assert!(tags[1].start);
    }

    #[test]
    fn call_branches_and_falls_through() {
        let p = program(&[(0x10, "call", "sub_20"), (0x12, "nop", ""), (0x20, "retn", "")]);
        let tags = tag_program(&p);
        assert_eq!(tags[0].branch_to, Some(2));
        assert!(tags[0].fall_through);
        assert!(tags[1].start);
        assert!(tags[2].start);
    }

    #[test]
    fn branch_to_unknown_address_is_ignored() {
        // Target outside the program (e.g. an imported function).
        let p = program(&[(0x10, "jmp", "loc_9999"), (0x12, "nop", "")]);
        let tags = tag_program(&p);
        assert_eq!(tags[0].branch_to, None);
    }

    #[test]
    fn plain_instructions_only_fall_through() {
        let p = program(&[(0x10, "mov", "eax, 1"), (0x12, "nop", "")]);
        let tags = tag_program(&p);
        assert!(tags[0].fall_through);
        assert!(!tags[1].start);
    }

    #[test]
    fn register_indirect_jump_has_no_static_target() {
        let p = program(&[(0x10, "jmp", "eax"), (0x12, "nop", "")]);
        let tags = tag_program(&p);
        assert_eq!(tags[0].branch_to, None);
        assert!(tags[1].start, "next block still starts after jmp");
    }
}
