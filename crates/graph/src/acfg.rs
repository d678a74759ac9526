//! Attributed control flow graphs (Section II-B, Table I).

use crate::digraph::DiGraph;
use magic_asm::{Cfg, InstrCategory};
use magic_tensor::Tensor;
use std::error::Error;
use std::fmt;

/// The eleven block-level attributes of Table I, in channel order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Attribute {
    /// `# Numeric Constants` appearing in operands.
    NumericConstants = 0,
    /// `# Transfer Instructions` (jumps).
    TransferInstructions = 1,
    /// `# Call Instructions`.
    CallInstructions = 2,
    /// `# Arithmetic Instructions`.
    ArithmeticInstructions = 3,
    /// `# Compare Instructions`.
    CompareInstructions = 4,
    /// `# Mov Instructions`.
    MovInstructions = 5,
    /// `# Termination Instructions`.
    TerminationInstructions = 6,
    /// `# Data Declaration Instructions`.
    DataDeclarationInstructions = 7,
    /// `# Total Instructions` in the code sequence.
    TotalInstructions = 8,
    /// `# Offspring, i.e., Degree` — the vertex out-degree.
    Offspring = 9,
    /// `# Instructions in the Vertex` (vertex-structure view).
    InstructionsInVertex = 10,
}

impl Attribute {
    /// All attributes, in channel order.
    pub const ALL: [Attribute; NUM_ATTRIBUTES] = [
        Attribute::NumericConstants,
        Attribute::TransferInstructions,
        Attribute::CallInstructions,
        Attribute::ArithmeticInstructions,
        Attribute::CompareInstructions,
        Attribute::MovInstructions,
        Attribute::TerminationInstructions,
        Attribute::DataDeclarationInstructions,
        Attribute::TotalInstructions,
        Attribute::Offspring,
        Attribute::InstructionsInVertex,
    ];

    /// Human-readable name, as printed in Table I.
    pub fn name(self) -> &'static str {
        match self {
            Attribute::NumericConstants => "# Numeric Constants",
            Attribute::TransferInstructions => "# Transfer Instructions",
            Attribute::CallInstructions => "# Call Instructions",
            Attribute::ArithmeticInstructions => "# Arithmetic Instructions",
            Attribute::CompareInstructions => "# Compare Instructions",
            Attribute::MovInstructions => "# Mov Instructions",
            Attribute::TerminationInstructions => "# Termination Instructions",
            Attribute::DataDeclarationInstructions => "# Data Declaration Instructions",
            Attribute::TotalInstructions => "# Total Instructions",
            Attribute::Offspring => "# Offspring, i.e., Degree",
            Attribute::InstructionsInVertex => "# Instructions in the Vertex",
        }
    }
}

/// Number of attribute channels (`c` in the paper's notation).
pub const NUM_ATTRIBUTES: usize = 11;

/// An attributed CFG: the graph structure plus an `(n, 11)` vertex
/// attribute matrix `X` (the paper's machine-learning-ready malware
/// representation).
#[derive(Debug, Clone, PartialEq)]
pub struct Acfg {
    graph: DiGraph,
    attributes: Tensor,
}

impl Acfg {
    /// Builds an ACFG from a structure and a pre-computed attribute
    /// matrix.
    ///
    /// # Panics
    ///
    /// Panics if the attribute matrix is not `(vertex_count, 11)`.
    pub fn new(graph: DiGraph, attributes: Tensor) -> Self {
        assert_eq!(
            attributes.shape().dims(),
            &[graph.vertex_count(), NUM_ATTRIBUTES],
            "attribute matrix must be (n, {NUM_ATTRIBUTES})"
        );
        Acfg { graph, attributes }
    }

    /// Extracts an ACFG from a CFG by computing all Table I attributes.
    pub fn from_cfg(cfg: &Cfg) -> Self {
        let _span = magic_obs::span(magic_obs::stage::ACFG_ATTRIBUTES);
        let n = cfg.block_count();
        let mut graph = DiGraph::new(n);
        for (u, v) in cfg.edges() {
            graph.add_edge(u, v);
        }
        let mut attributes = Tensor::zeros([n, NUM_ATTRIBUTES]);
        for (v, block) in cfg.blocks().enumerate() {
            let mut row = [0.0f32; NUM_ATTRIBUTES];
            for inst in block {
                row[Attribute::NumericConstants as usize] +=
                    inst.numeric_constant_count() as f32;
                let idx = match inst.category {
                    InstrCategory::Transfer => Some(Attribute::TransferInstructions),
                    InstrCategory::Call => Some(Attribute::CallInstructions),
                    InstrCategory::Arithmetic => Some(Attribute::ArithmeticInstructions),
                    InstrCategory::Compare => Some(Attribute::CompareInstructions),
                    InstrCategory::Mov => Some(Attribute::MovInstructions),
                    InstrCategory::Termination => Some(Attribute::TerminationInstructions),
                    InstrCategory::DataDeclaration => Some(Attribute::DataDeclarationInstructions),
                    InstrCategory::Other => None,
                };
                if let Some(a) = idx {
                    row[a as usize] += 1.0;
                }
                row[Attribute::TotalInstructions as usize] += 1.0;
            }
            row[Attribute::Offspring as usize] = cfg.out_degree(v) as f32;
            row[Attribute::InstructionsInVertex as usize] = block.len() as f32;
            attributes.set_row(v, &row);
        }
        Acfg { graph, attributes }
    }

    /// Number of vertices (basic blocks).
    pub fn vertex_count(&self) -> usize {
        self.graph.vertex_count()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// The structural half.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// The raw attribute matrix `X ∈ R^{n×11}`.
    pub fn attributes(&self) -> &Tensor {
        &self.attributes
    }

    /// One attribute value.
    pub fn attribute(&self, vertex: usize, attr: Attribute) -> f32 {
        self.attributes.get2(vertex, attr as usize)
    }

    /// `log(1+x)`-scaled attributes — raw counts have heavy-tailed
    /// magnitudes (a packer block may hold thousands of instructions),
    /// and compressing them stabilizes DGCNN training.
    pub fn log_scaled_attributes(&self) -> Tensor {
        self.attributes.map(|x| (1.0 + x).ln())
    }

    /// Serializes to a compact line format (for caching corpora):
    /// `n m` / `m` edge lines `u v` / `n` attribute lines.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{} {}", self.vertex_count(), self.edge_count());
        for (u, v) in self.graph.edges() {
            let _ = writeln!(out, "{u} {v}");
        }
        for i in 0..self.vertex_count() {
            let row: Vec<String> = self
                .attributes
                .row(i)
                .iter()
                .map(|x| format!("{x}"))
                .collect();
            let _ = writeln!(out, "{}", row.join(" "));
        }
        out
    }

    /// Parses the [`Acfg::to_text`] format.
    ///
    /// # Errors
    ///
    /// Returns [`AcfgParseError`] on malformed input.
    pub fn from_text(text: &str) -> Result<Self, AcfgParseError> {
        let bad = |msg: &str| AcfgParseError { message: msg.to_string() };
        let mut lines = text.lines();
        let header = lines.next().ok_or_else(|| bad("empty input"))?;
        let mut parts = header.split_whitespace();
        let n: usize = parts
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad("bad vertex count"))?;
        let m: usize = parts
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad("bad edge count"))?;
        let mut graph = DiGraph::new(n);
        for _ in 0..m {
            let line = lines.next().ok_or_else(|| bad("missing edge line"))?;
            let mut it = line.split_whitespace();
            let u: usize = it
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad("bad edge source"))?;
            let v: usize = it
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad("bad edge target"))?;
            if u >= n || v >= n {
                return Err(bad("edge endpoint out of range"));
            }
            graph.add_edge(u, v);
        }
        let mut attributes = Tensor::zeros([n, NUM_ATTRIBUTES]);
        for i in 0..n {
            let line = lines.next().ok_or_else(|| bad("missing attribute line"))?;
            let row: Result<Vec<f32>, _> = line.split_whitespace().map(str::parse).collect();
            let row = row.map_err(|_| bad("bad attribute value"))?;
            if row.len() != NUM_ATTRIBUTES {
                return Err(bad("wrong attribute count"));
            }
            attributes.set_row(i, &row);
        }
        Ok(Acfg { graph, attributes })
    }
}

/// Error from [`Acfg::from_text`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcfgParseError {
    message: String,
}

impl fmt::Display for AcfgParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid ACFG text: {}", self.message)
    }
}

impl Error for AcfgParseError {}

#[cfg(test)]
mod tests {
    use super::*;
    use magic_asm::{parse_listing, CfgBuilder};

    fn sample_acfg() -> Acfg {
        let p = parse_listing(
            ".text:00401000    cmp     eax, 5\n\
             .text:00401003    jz      short loc_401008\n\
             .text:00401005    add     eax, 0x10\n\
             .text:00401008 loc_401008:\n\
             .text:00401008    mov     ebx, eax\n\
             .text:0040100A    retn\n",
        )
        .unwrap();
        Acfg::from_cfg(&CfgBuilder::new(&p).build())
    }

    #[test]
    fn table1_attributes_of_entry_block() {
        let acfg = sample_acfg();
        // Entry block: cmp eax,5 ; jz loc.
        assert_eq!(acfg.attribute(0, Attribute::CompareInstructions), 1.0);
        assert_eq!(acfg.attribute(0, Attribute::TransferInstructions), 1.0);
        assert_eq!(acfg.attribute(0, Attribute::NumericConstants), 1.0);
        assert_eq!(acfg.attribute(0, Attribute::TotalInstructions), 2.0);
        assert_eq!(acfg.attribute(0, Attribute::Offspring), 2.0);
        assert_eq!(acfg.attribute(0, Attribute::InstructionsInVertex), 2.0);
    }

    #[test]
    fn arithmetic_and_mov_counted_in_middle_blocks() {
        let acfg = sample_acfg();
        // Block 1: add eax, 0x10 (arithmetic, one constant).
        let add_block = (0..acfg.vertex_count())
            .find(|&v| acfg.attribute(v, Attribute::ArithmeticInstructions) > 0.0)
            .expect("some block has arithmetic");
        assert_eq!(acfg.attribute(add_block, Attribute::NumericConstants), 1.0);
        // Final block: mov + retn.
        let term_block = (0..acfg.vertex_count())
            .find(|&v| acfg.attribute(v, Attribute::TerminationInstructions) > 0.0)
            .expect("some block has a return");
        assert_eq!(acfg.attribute(term_block, Attribute::MovInstructions), 1.0);
    }

    #[test]
    fn log_scaling_is_monotone_and_zero_preserving() {
        let acfg = sample_acfg();
        let scaled = acfg.log_scaled_attributes();
        for (raw, s) in acfg.attributes().as_slice().iter().zip(scaled.as_slice()) {
            if *raw == 0.0 {
                assert_eq!(*s, 0.0);
            } else {
                assert!(*s > 0.0 && *s < *raw + 1.0);
            }
        }
    }

    #[test]
    fn text_roundtrip_preserves_acfg() {
        let acfg = sample_acfg();
        let text = acfg.to_text();
        let back = Acfg::from_text(&text).unwrap();
        assert_eq!(back.vertex_count(), acfg.vertex_count());
        assert_eq!(back.edge_count(), acfg.edge_count());
        assert!(back.attributes().approx_eq(acfg.attributes(), 1e-6));
    }

    #[test]
    fn from_text_rejects_malformed_input() {
        assert!(Acfg::from_text("").is_err());
        assert!(Acfg::from_text("2 1\n0 5\n").is_err());
        assert!(Acfg::from_text("1 0\n1 2 3\n").is_err());
    }

    #[test]
    fn attribute_names_cover_all_channels() {
        assert_eq!(Attribute::ALL.len(), NUM_ATTRIBUTES);
        for (i, a) in Attribute::ALL.iter().enumerate() {
            assert_eq!(*a as usize, i);
            assert!(a.name().starts_with('#'));
        }
    }

    #[test]
    #[should_panic(expected = "attribute matrix")]
    fn new_rejects_wrong_attribute_shape() {
        Acfg::new(DiGraph::new(2), Tensor::zeros([2, 3]));
    }
}
