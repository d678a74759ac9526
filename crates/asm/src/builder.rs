//! Second pass of CFG construction: block creation and connection
//! (Algorithm 2, `CfgBuilder::connectBlocks`).

use crate::instr::{Instruction, Program};
use crate::tagging::{tag_program, Tags};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::ops::Range;

/// A control flow graph: basic blocks plus directed edges between them.
///
/// A basic block is "a straight sequence of code or assembly instructions
/// without any control flow transition except at its exit" (Section
/// II-A); here it is an index range into the program it was built from.
/// Vertex `u → v` exists iff the last instruction of `u` falls through to
/// the first instruction of `v`, or an instruction in `u` jumps/calls into
/// `v` (Section II-A).
#[derive(Debug, Clone)]
pub struct Cfg<'p> {
    instructions: &'p [Instruction<'p>],
    blocks: Vec<Range<usize>>,
    edges: BTreeSet<(usize, usize)>,
}

impl<'p> Cfg<'p> {
    /// Number of basic blocks (vertices).
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Index range of block `v` in the program, never empty.
    pub fn block_range(&self, v: usize) -> Range<usize> {
        self.blocks[v].clone()
    }

    /// The instructions of block `v`, in address order.
    pub fn block(&self, v: usize) -> &'p [Instruction<'p>] {
        &self.instructions[self.block_range(v)]
    }

    /// The blocks' instructions, indexed by vertex id.
    pub fn blocks(&self) -> impl ExactSizeIterator<Item = &'p [Instruction<'p>]> + '_ {
        (0..self.blocks.len()).map(|v| self.block(v))
    }

    /// Iterates directed edges as `(from, to)` vertex-id pairs.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.edges.iter().copied()
    }

    /// Whether edge `u → v` exists.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.edges.contains(&(u, v))
    }

    /// Out-degree of vertex `v` ("# offspring", a Table I attribute).
    pub fn out_degree(&self, v: usize) -> usize {
        self.edges.range((v, 0)..(v + 1, 0)).count()
    }

    /// Successor vertex ids of `v`.
    pub fn successors(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.edges.range((v, 0)..(v + 1, 0)).map(|&(_, t)| t)
    }

    /// Total instruction count across all blocks.
    pub fn instruction_count(&self) -> usize {
        self.blocks.iter().map(Range::len).sum()
    }

    /// Renders the CFG in Graphviz DOT format.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph cfg {\n  node [shape=box fontname=monospace];\n");
        for (v, block) in self.blocks().enumerate() {
            let _ = write!(out, "  n{v} [label=\"");
            for (i, inst) in block.iter().enumerate() {
                let _ = write!(out, "{}{inst}", if i == 0 { "" } else { "\\l" });
            }
            out.push_str("\"];\n");
        }
        for (u, v) in &self.edges {
            let _ = writeln!(out, "  n{u} -> n{v};");
        }
        out.push_str("}\n");
        out
    }
}

/// The two-pass CFG builder of Section IV-A.
///
/// # Example
///
/// ```
/// use magic_asm::{parse_listing, CfgBuilder};
///
/// let p = parse_listing(".text:00401000    retn")?;
/// let cfg = CfgBuilder::new(&p).build();
/// assert_eq!(cfg.block_count(), 1);
/// # Ok::<(), magic_asm::ParseError>(())
/// ```
#[derive(Debug)]
pub struct CfgBuilder<'p> {
    program: &'p Program<'p>,
    tags: Vec<Tags>,
}

impl<'p> CfgBuilder<'p> {
    /// Runs the first pass (Algorithm 1 tagging) over `program`.
    pub fn new(program: &'p Program<'p>) -> Self {
        CfgBuilder { program, tags: tag_program(program) }
    }

    /// Runs the second pass (Algorithm 2) and returns the CFG.
    pub fn build(&self) -> Cfg<'p> {
        let _span = magic_obs::span(magic_obs::stage::CFG_BUILD);
        let tags = &self.tags;
        let n = tags.len();
        let mut blocks: Vec<Range<usize>> = Vec::new();
        let mut vertex_at: Vec<Option<usize>> = vec![None; n];
        let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();

        // The paper's getBlockAtAddr: the vertex of the block starting at
        // instruction `i`, created first if needed, so vertex ids follow
        // creation order. Algorithm 2 appends each instruction to the
        // current block until a start tag opens the next one, so a block
        // runs from its start up to the next start.
        let mut get_block_at = |i: usize| -> usize {
            *vertex_at[i].get_or_insert_with(|| {
                let end = (i + 1..n).find(|&j| tags[j].start).unwrap_or(n);
                blocks.push(i..end);
                blocks.len() - 1
            })
        };

        let mut curr = 0;
        for (i, tag) in tags.iter().enumerate() {
            if tag.start {
                curr = get_block_at(i);
            }
            if tag.fall_through && tags.get(i + 1).is_some_and(|next| next.start) {
                edges.insert((curr, get_block_at(i + 1)));
            }
            if let Some(dst) = tag.branch_to {
                edges.insert((curr, get_block_at(dst)));
            }
        }

        magic_obs::counter(magic_obs::stage::C_CFG_BLOCKS, blocks.len() as f64);
        magic_obs::counter(magic_obs::stage::C_CFG_EDGES, edges.len() as f64);
        Cfg { instructions: self.program, blocks, edges }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program<'a>(lines: &[(u64, &'a str, &'a str)]) -> Program<'a> {
        lines.iter().map(|&(addr, m, ops)| Instruction::new(addr, 2, m, ops)).collect()
    }

    /// if/else diamond:
    ///   0x10 cmp ; 0x12 jz 0x18 ; 0x14 mov ; 0x16 jmp 0x1a ; 0x18 inc ;
    ///   0x1a retn
    fn diamond() -> Program<'static> {
        program(&[
            (0x10, "cmp", "eax, 0"),
            (0x12, "jz", "loc_18"),
            (0x14, "mov", "eax, 1"),
            (0x16, "jmp", "loc_1A"),
            (0x18, "inc", "eax"),
            (0x1A, "retn", ""),
        ])
    }

    #[test]
    fn diamond_has_four_blocks_and_four_edges() {
        let p = diamond();
        let cfg = CfgBuilder::new(&p).build();
        assert_eq!(cfg.block_count(), 4);
        assert_eq!(cfg.edge_count(), 4);
        // Entry block: cmp + jz.
        assert_eq!(cfg.block(0)[0].addr, 0x10);
        assert_eq!(cfg.block(0).len(), 2);
        assert_eq!(cfg.out_degree(0), 2);
    }

    #[test]
    fn straight_line_code_is_one_block() {
        let p = program(&[
            (0x10, "mov", "eax, 1"),
            (0x12, "add", "eax, 2"),
            (0x14, "retn", ""),
        ]);
        let cfg = CfgBuilder::new(&p).build();
        assert_eq!(cfg.block_count(), 1);
        assert_eq!(cfg.edge_count(), 0);
        assert_eq!(cfg.block(0).len(), 3);
    }

    #[test]
    fn self_loop_is_preserved() {
        // 0x10: dec eax ; 0x12: jnz 0x10 ; 0x14: retn
        let p = program(&[
            (0x10, "dec", "eax"),
            (0x12, "jnz", "loc_10"),
            (0x14, "retn", ""),
        ]);
        let cfg = CfgBuilder::new(&p).build();
        assert_eq!(cfg.block_count(), 2);
        assert!(cfg.has_edge(0, 0), "loop back edge");
        assert!(cfg.has_edge(0, 1), "fall-through exit edge");
    }

    #[test]
    fn call_creates_edge_to_callee_and_resumption() {
        let p = program(&[
            (0x10, "call", "sub_20"),
            (0x12, "retn", ""),
            (0x20, "xor", "eax, eax"),
            (0x22, "retn", ""),
        ]);
        let cfg = CfgBuilder::new(&p).build();
        // Blocks: [call], [retn@12], [xor,retn@20].
        assert_eq!(cfg.block_count(), 3);
        let call_block = 0;
        assert_eq!(cfg.out_degree(call_block), 2);
    }

    #[test]
    fn jump_into_middle_of_block_splits_it() {
        // 0x14 is entered both by fall-through from 0x12 and a back jump.
        let p = program(&[
            (0x10, "mov", "eax, 0"),
            (0x12, "mov", "ebx, 0"),
            (0x14, "inc", "eax"),
            (0x16, "jnz", "loc_14"),
            (0x18, "retn", ""),
        ]);
        let cfg = CfgBuilder::new(&p).build();
        // Blocks: [mov,mov], [inc,jnz], [retn].
        assert_eq!(cfg.block_count(), 3);
        let loop_block = cfg.blocks().position(|b| b[0].addr == 0x14).unwrap();
        assert!(cfg.has_edge(loop_block, loop_block));
    }

    #[test]
    fn out_degree_and_successors_agree() {
        let p = diamond();
        let cfg = CfgBuilder::new(&p).build();
        for v in 0..cfg.block_count() {
            assert_eq!(cfg.out_degree(v), cfg.successors(v).count());
        }
    }

    #[test]
    fn dot_output_mentions_every_block() {
        let p = diamond();
        let cfg = CfgBuilder::new(&p).build();
        let dot = cfg.to_dot();
        for i in 0..cfg.block_count() {
            assert!(dot.contains(&format!("n{i} ")), "missing node n{i}");
        }
        assert!(dot.contains("->"));
    }

    #[test]
    fn empty_program_gives_empty_cfg() {
        let p = Program::default();
        let cfg = CfgBuilder::new(&p).build();
        assert_eq!(cfg.block_count(), 0);
        assert_eq!(cfg.edge_count(), 0);
    }

    #[test]
    fn duplicate_edges_are_deduplicated() {
        // Two paths to the same target produce one edge entry per pair.
        let p = program(&[
            (0x10, "jz", "loc_14"),
            (0x12, "jmp", "loc_14"),
            (0x14, "retn", ""),
        ]);
        let cfg = CfgBuilder::new(&p).build();
        let pairs: Vec<_> = cfg.edges().collect();
        let unique: std::collections::HashSet<_> = pairs.iter().collect();
        assert_eq!(pairs.len(), unique.len());
    }
}
