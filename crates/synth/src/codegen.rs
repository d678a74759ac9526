//! Assembly code generation from family profiles.
//!
//! Produces structured control flow — straight blocks, if/else diamonds,
//! counted loops, switch dispatch, subroutine calls and packer-style
//! decoder stubs — as an [`AsmProgram`] that renders to an IDA-style
//! listing. The output deliberately goes through the *real* MAGIC
//! front-end (`magic-asm`) rather than skipping to CFGs, so parsing,
//! tagging and block building are exercised on every sample.

use crate::emitter::{AsmProgram, LabelId, Operand};
use crate::polymorph;
use crate::profile::FamilyProfile;
use magic_tensor::Rng64;

const REGISTERS: &[&str] = &["eax", "ebx", "ecx", "edx", "esi", "edi"];

const ARITH: &[&str] = &["add", "sub", "xor", "and", "or", "shl", "shr", "adc", "inc", "dec"];
const MOVS: &[&str] = &["mov", "movzx", "push", "pop", "lea", "xchg"];
const OTHERS: &[&str] = &["nop", "cld", "std", "cwde"];

/// The filler instruction kinds, matching
/// [`crate::profile::InstructionMix::weights`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Filler {
    Arithmetic,
    Mov,
    Compare,
    ApiCall,
    Other,
}

const FILLER_KINDS: [Filler; 5] = [
    Filler::Arithmetic,
    Filler::Mov,
    Filler::Compare,
    Filler::ApiCall,
    Filler::Other,
];

/// The structured constructs, matching
/// [`FamilyProfile::construct_weights`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Construct {
    Straight,
    Branch,
    Loop,
    Switch,
    Call,
    Decoder,
}

const CONSTRUCT_KINDS: [Construct; 6] = [
    Construct::Straight,
    Construct::Branch,
    Construct::Loop,
    Construct::Switch,
    Construct::Call,
    Construct::Decoder,
];

/// Generates one program (an IDA-style listing body) for a family.
///
/// # Example
///
/// ```
/// use magic_synth::codegen::CodeGenerator;
/// use magic_synth::profile::FamilyProfile;
/// use magic_tensor::Rng64;
///
/// let profile = FamilyProfile::base("Demo");
/// let mut rng = Rng64::new(1);
/// let listing = CodeGenerator::new(&profile).generate(&mut rng);
/// assert!(listing.contains("retn"));
/// ```
#[derive(Debug)]
pub struct CodeGenerator<'a> {
    profile: &'a FamilyProfile,
}

impl<'a> CodeGenerator<'a> {
    /// Creates a generator for `profile`.
    pub fn new(profile: &'a FamilyProfile) -> Self {
        CodeGenerator { profile }
    }

    /// Generates a full listing (main body plus subroutines), rendered at
    /// the conventional PE image base.
    pub fn generate(&self, rng: &mut Rng64) -> String {
        let program = self.generate_program(rng);
        program.render(0x401000)
    }

    /// Generates the unrendered instruction stream.
    pub fn generate_program(&self, rng: &mut Rng64) -> AsmProgram {
        let mut asm = AsmProgram::new();
        let p = self.profile;

        // Pre-allocate subroutine labels so calls can reference them.
        let sub_labels: Vec<LabelId> = (0..p.subroutines).map(|_| asm.fresh_label()).collect();

        // Sample a block budget around the family mean.
        let jitter = 1.0 + p.block_jitter * (rng.next_f64() * 2.0 - 1.0);
        let mut budget = ((p.mean_blocks * jitter).round() as i64).max(3);

        // Function prologue.
        asm.push_text("push", &["ebp"], 1);
        asm.push_text("mov", &["ebp", "esp"], 2);
        self.gen_sequence(&mut asm, rng, &mut budget, &sub_labels, 0);
        asm.push_text("pop", &["ebp"], 1);
        asm.push_text("retn", &[], 1);

        // Subroutine bodies, each a smaller function.
        for &label in &sub_labels {
            asm.place_label(label);
            asm.push_text("push", &["ebp"], 1);
            let mut sub_budget = (budget.max(4) / 2).clamp(2, 12);
            self.gen_sequence(&mut asm, rng, &mut sub_budget, &[], 1);
            asm.push_text("pop", &["ebp"], 1);
            asm.push_text("retn", &[], 1);
        }
        asm
    }

    /// Generates a nested sub-sequence that consumes from the *shared*
    /// block budget, capped at `limit` constructs. Without this shared
    /// accounting, nested branches/switches multiply and graph sizes
    /// explode combinatorially.
    fn gen_nested(
        &self,
        asm: &mut AsmProgram,
        rng: &mut Rng64,
        budget: &mut i64,
        subs: &[LabelId],
        depth: usize,
        limit: i64,
    ) {
        if *budget <= 0 {
            // Budget exhausted: keep the construct structurally complete
            // with a single filler instruction, nothing recursive.
            self.gen_filler(asm, rng);
            *budget -= 1;
            return;
        }
        let mut child = (*budget).clamp(1, limit);
        let before = child;
        self.gen_sequence(asm, rng, &mut child, subs, depth);
        // `child` may have gone negative; charge the parent for everything
        // actually consumed (at least one block).
        *budget -= before - child;
    }

    /// Emits constructs until the block budget is exhausted.
    fn gen_sequence(
        &self,
        asm: &mut AsmProgram,
        rng: &mut Rng64,
        budget: &mut i64,
        subs: &[LabelId],
        depth: usize,
    ) {
        while *budget > 0 {
            let construct = CONSTRUCT_KINDS[rng.next_weighted(&self.profile.construct_weights())];
            match construct {
                Construct::Straight => self.gen_straight(asm, rng, budget),
                Construct::Branch if depth < 6 => self.gen_branch(asm, rng, budget, subs, depth),
                Construct::Loop if depth < 6 => self.gen_loop(asm, rng, budget, subs, depth),
                Construct::Switch if depth < 4 => self.gen_switch(asm, rng, budget, subs, depth),
                Construct::Call if !subs.is_empty() => self.gen_call(asm, rng, budget, subs),
                Construct::Decoder => self.gen_decoder(asm, rng, budget),
                _ => self.gen_straight(asm, rng, budget),
            }
        }
    }

    /// A straight block of filler instructions.
    fn gen_straight(&self, asm: &mut AsmProgram, rng: &mut Rng64, budget: &mut i64) {
        let len = self.sample_block_len(rng);
        for _ in 0..len {
            self.gen_filler(asm, rng);
        }
        *budget -= 1;
    }

    /// `cmp/jcc` diamond: condition, then-arm, else-arm, join.
    fn gen_branch(
        &self,
        asm: &mut AsmProgram,
        rng: &mut Rng64,
        budget: &mut i64,
        subs: &[LabelId],
        depth: usize,
    ) {
        let else_label = asm.fresh_label();
        let end_label = asm.fresh_label();
        self.gen_compare(asm, rng);
        let jcc = ["jz", "jnz", "jle", "jg", "jb", "jae"][rng.next_below(6)];
        asm.push(jcc, vec![Operand::Label(else_label)], 2);
        *budget -= 3;
        self.gen_nested(asm, rng, budget, subs, depth + 1, 4);
        asm.push("jmp", vec![Operand::Label(end_label)], 2);
        asm.place_label(else_label);
        self.gen_nested(asm, rng, budget, subs, depth + 1, 4);
        asm.place_label(end_label);
        self.gen_filler(asm, rng);
    }

    /// Counted loop: `mov ecx, N ; top: body ; dec ecx ; jnz top`.
    fn gen_loop(
        &self,
        asm: &mut AsmProgram,
        rng: &mut Rng64,
        budget: &mut i64,
        subs: &[LabelId],
        depth: usize,
    ) {
        let top = asm.fresh_label();
        let count = rng.next_range(2, 256);
        asm.push_text("mov", &["ecx", &format!("{count}")], 5);
        asm.place_label(top);
        *budget -= 2;
        self.gen_nested(asm, rng, budget, subs, depth + 1, 3);
        asm.push_text("dec", &["ecx"], 1);
        asm.push("jnz", vec![Operand::Label(top)], 2);
    }

    /// Switch dispatch: a chain of `cmp`/`je` to per-case blocks — the
    /// bot-command-loop shape.
    fn gen_switch(
        &self,
        asm: &mut AsmProgram,
        rng: &mut Rng64,
        budget: &mut i64,
        subs: &[LabelId],
        depth: usize,
    ) {
        let cases = rng.next_range(3, 7);
        let end_label = asm.fresh_label();
        let case_labels: Vec<LabelId> = (0..cases).map(|_| asm.fresh_label()).collect();
        for (i, &label) in case_labels.iter().enumerate() {
            asm.push_text("cmp", &["eax", &format!("{i}")], 3);
            asm.push("je", vec![Operand::Label(label)], 2);
        }
        asm.push("jmp", vec![Operand::Label(end_label)], 2);
        *budget -= (cases as i64) + 1;
        for &label in &case_labels {
            asm.place_label(label);
            self.gen_nested(asm, rng, budget, subs, depth + 1, 1);
            asm.push("jmp", vec![Operand::Label(end_label)], 2);
        }
        asm.place_label(end_label);
        self.gen_filler(asm, rng);
    }

    /// A call to one of the generated subroutines.
    fn gen_call(&self, asm: &mut AsmProgram, rng: &mut Rng64, budget: &mut i64, subs: &[LabelId]) {
        let target = subs[rng.next_below(subs.len())];
        // Argument setup then the call (creates a CFG edge to the callee).
        asm.push_text("push", &[REGISTERS[rng.next_below(REGISTERS.len())]], 1);
        asm.push("call", vec![Operand::Label(target)], 5);
        *budget -= 1;
    }

    /// A packer-style decoder: one long straight run of constant-heavy
    /// ALU/mov traffic (the Gatak/packed-dropper signature).
    fn gen_decoder(&self, asm: &mut AsmProgram, rng: &mut Rng64, budget: &mut i64) {
        let len = rng.next_range(30, 120);
        for i in 0..len {
            let reg = REGISTERS[i % REGISTERS.len()];
            match i % 4 {
                0 => asm.push_text("mov", &[reg, &format!("0x{:X}", rng.next_below(0xFFFF))], 5),
                1 => asm.push_text("xor", &[reg, &format!("0x{:X}", rng.next_below(0xFF))], 3),
                2 => asm.push_text("add", &[reg, "4"], 3),
                _ => asm.push_text("mov", &[&format!("[esi+{}]", i * 4) as &str, reg], 3),
            }
        }
        *budget -= 1;
    }

    /// One filler instruction according to the family mix (possibly
    /// preceded by junk or followed by a polymorphic block split).
    fn gen_filler(&self, asm: &mut AsmProgram, rng: &mut Rng64) {
        let p = self.profile;
        if rng.next_bool(p.junk_rate) {
            polymorph::insert_junk(asm, rng);
        }
        if rng.next_bool(p.data_decl_rate) {
            asm.push_text("db", &[&format!("{:#04X}", rng.next_below(256)) as &str], 1);
            return;
        }
        let kind = FILLER_KINDS[rng.next_weighted(&p.mix.weights())];
        let r1 = REGISTERS[rng.next_below(REGISTERS.len())];
        let r2 = REGISTERS[rng.next_below(REGISTERS.len())];
        match kind {
            Filler::Arithmetic => {
                let m = ARITH[rng.next_below(ARITH.len())];
                if m == "inc" || m == "dec" {
                    asm.push_text(m, &[r1], 1);
                } else if rng.next_bool(p.const_density) {
                    asm.push_text(m, &[r1, &format!("0x{:X}", rng.next_below(0x1000))], 3);
                } else {
                    asm.push_text(m, &[r1, r2], 2);
                }
            }
            Filler::Mov => {
                let m = MOVS[rng.next_below(MOVS.len())];
                match m {
                    "push" | "pop" => asm.push_text(m, &[r1], 1),
                    "lea" => asm.push_text(m, &[r1, &format!("[{r2}+{}]", rng.next_below(64))], 3),
                    _ if rng.next_bool(p.const_density) => {
                        asm.push_text(m, &[r1, &format!("0x{:X}", rng.next_below(0x10000))], 5)
                    }
                    _ => asm.push_text(m, &[r1, r2], 2),
                }
            }
            Filler::Compare => {
                let m = if rng.next_bool(0.5) { "cmp" } else { "test" };
                if rng.next_bool(p.const_density) {
                    asm.push_text(m, &[r1, &format!("{}", rng.next_below(100))], 3);
                } else {
                    asm.push_text(m, &[r1, r2], 2);
                }
            }
            Filler::ApiCall => {
                // Imported API: no static target, still a call instruction.
                let api = format!("ds:Api_{}", rng.next_below(40));
                asm.push_text("call", &[&api], 6);
            }
            Filler::Other => {
                asm.push_text(OTHERS[rng.next_below(OTHERS.len())], &[], 1);
            }
        }
        if rng.next_bool(p.split_rate) {
            polymorph::split_block(asm);
        }
    }

    fn gen_compare(&self, asm: &mut AsmProgram, rng: &mut Rng64) {
        let r = REGISTERS[rng.next_below(REGISTERS.len())];
        asm.push_text("cmp", &[r, &format!("{}", rng.next_below(64))], 3);
    }

    fn sample_block_len(&self, rng: &mut Rng64) -> usize {
        let mean = self.profile.block_len_mean;
        let v = mean * (0.5 + rng.next_f64());
        (v.round() as usize).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magic_asm::{parse_listing, CfgBuilder};
    use magic_graph::Acfg;

    #[test]
    fn generated_listing_parses_into_nontrivial_cfg() {
        let profile = FamilyProfile::base("Test");
        let mut rng = Rng64::new(7);
        let listing = CodeGenerator::new(&profile).generate(&mut rng);
        let program = parse_listing(&listing).unwrap();
        assert!(program.len() > 20, "{} instructions", program.len());
        let cfg = CfgBuilder::new(&program).build();
        assert!(cfg.block_count() >= 5, "{} blocks", cfg.block_count());
        assert!(cfg.edge_count() > 0);
        let acfg = Acfg::from_cfg(&cfg);
        assert_eq!(acfg.vertex_count(), cfg.block_count());
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let profile = FamilyProfile::base("Test");
        let a = CodeGenerator::new(&profile).generate(&mut Rng64::new(5));
        let b = CodeGenerator::new(&profile).generate(&mut Rng64::new(5));
        assert_eq!(a, b);
        let c = CodeGenerator::new(&profile).generate(&mut Rng64::new(6));
        assert_ne!(a, c);
    }

    #[test]
    fn block_budget_scales_graph_size() {
        let mut small = FamilyProfile::base("Small");
        small.mean_blocks = 10.0;
        small.block_jitter = 0.0;
        let mut large = FamilyProfile::base("Large");
        large.mean_blocks = 120.0;
        large.block_jitter = 0.0;

        let count = |p: &FamilyProfile, seed| {
            let listing = CodeGenerator::new(p).generate(&mut Rng64::new(seed));
            let program = parse_listing(&listing).unwrap();
            CfgBuilder::new(&program).build().block_count()
        };
        let s: usize = (0..5).map(|i| count(&small, i)).sum();
        let l: usize = (0..5).map(|i| count(&large, i)).sum();
        assert!(l > s * 2, "small {s}, large {l}");
    }

    #[test]
    fn decoder_heavy_profile_has_longer_blocks() {
        let mut packer = FamilyProfile::base("Packer");
        packer.decoder_weight = 5.0;
        packer.branch_weight = 0.1;
        packer.loop_weight = 0.1;
        let mut branchy = FamilyProfile::base("Branchy");
        branchy.decoder_weight = 0.0;
        branchy.branch_weight = 5.0;

        let avg_block_len = |p: &FamilyProfile| {
            let listing = CodeGenerator::new(p).generate(&mut Rng64::new(3));
            let program = parse_listing(&listing).unwrap();
            let cfg = CfgBuilder::new(&program).build();
            cfg.instruction_count() as f64 / cfg.block_count() as f64
        };
        assert!(avg_block_len(&packer) > avg_block_len(&branchy));
    }

    #[test]
    fn block_count_stays_proportional_to_budget_for_every_construct() {
        // Nested constructs share the block budget; without that
        // accounting a switch-heavy profile explodes combinatorially
        // (x14 was observed before the fix). Assert each pure-construct
        // profile stays within a small constant factor of its budget.
        type Construct = fn(&mut FamilyProfile);
        let cases: [(&str, Construct); 3] = [
            ("branch", |p| p.branch_weight = 1.0),
            ("loop", |p| p.loop_weight = 1.0),
            ("switch", |p| p.switch_weight = 1.0),
        ];
        for (name, set) in cases {
            let mut profile = FamilyProfile::base("T");
            profile.mean_blocks = 100.0;
            profile.block_jitter = 0.0;
            profile.subroutines = 0;
            profile.junk_rate = 0.0;
            profile.split_rate = 0.0;
            profile.straight_weight = 0.0;
            profile.branch_weight = 0.0;
            profile.loop_weight = 0.0;
            profile.switch_weight = 0.0;
            profile.call_weight = 0.0;
            profile.decoder_weight = 0.0;
            set(&mut profile);
            let listing = CodeGenerator::new(&profile).generate(&mut Rng64::new(1));
            let program = parse_listing(&listing).unwrap();
            let blocks = CfgBuilder::new(&program).build().block_count();
            assert!(
                blocks <= 300,
                "{name}: budget 100 produced {blocks} blocks"
            );
            assert!(blocks >= 30, "{name}: budget 100 produced only {blocks} blocks");
        }
    }

    #[test]
    fn switch_profile_produces_high_fanout() {
        let mut bot = FamilyProfile::base("Bot");
        bot.switch_weight = 4.0;
        bot.branch_weight = 0.2;
        bot.loop_weight = 0.2;
        let listing = CodeGenerator::new(&bot).generate(&mut Rng64::new(11));
        let program = parse_listing(&listing).unwrap();
        let cfg = CfgBuilder::new(&program).build();
        let max_out = (0..cfg.block_count()).map(|v| cfg.out_degree(v)).max().unwrap();
        assert!(max_out >= 2, "max out-degree {max_out}");
    }
}
