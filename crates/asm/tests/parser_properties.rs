//! Property-based tests of the listing parser and CFG builder, driven by
//! a seeded [`Rng64`] loop (the build is offline, so no proptest).

use magic_asm::{categorize, parse_listing, CfgBuilder, InstrCategory};
use magic_tensor::Rng64;

const CASES: u64 = 128;

/// A printable-plus-unicode byte soup of up to `max_len` characters.
fn random_text(rng: &mut Rng64, max_len: usize) -> String {
    const POOL: &[char] = &[
        'a', 'Z', '0', '9', ' ', '\t', ':', '.', ',', ';', '_', '-', '[', ']', '(', ')', '+',
        '*', '#', '"', '\'', '\\', '/', '|', '!', '?', '=', '<', '>', 'é', 'λ', '中', '😀',
        '\n',
    ];
    let len = rng.next_below(max_len + 1);
    (0..len).map(|_| POOL[rng.next_below(POOL.len())]).collect()
}

/// Parsing is total: any byte soup either parses or errors, never
/// panics.
#[test]
fn parse_never_panics() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let text = random_text(&mut rng, 300);
        let _ = parse_listing(&text);
    }
}

/// A well-formed single instruction always parses to exactly one program
/// entry with the expected mnemonic.
#[test]
fn well_formed_instruction_roundtrips() {
    const MNEMONICS: &[&str] = &["mov", "add", "xor", "cmp", "push", "pop", "test", "inc"];
    const REGS: &[&str] = &["eax", "ebx", "ecx", "edx", "esi", "edi"];
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let addr = 1 + rng.next_u64() % (0xFFFF_FF00 - 1);
        let mnemonic = MNEMONICS[rng.next_below(MNEMONICS.len())];
        let reg = REGS[rng.next_below(REGS.len())];
        let imm = rng.next_below(0xFFFF) as u32;
        let listing = format!(".text:{addr:08X}    {mnemonic}    {reg}, {imm}\n");
        let program = parse_listing(&listing).unwrap();
        assert_eq!(program.len(), 1);
        let inst = program.at(addr).unwrap();
        assert_eq!(inst.mnemonic, mnemonic);
        assert_eq!(inst.operands().count(), 2);
        assert_eq!(inst.numeric_constant_count(), 1);
    }
}

/// Random straight-line programs (no control flow) always produce a
/// single basic block whose instruction count matches.
#[test]
fn straight_line_code_is_one_block() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let len = rng.next_range(1, 30);
        let mut listing = String::new();
        for i in 0..len {
            listing.push_str(&format!(".text:{:08X}    mov eax, {i}\n", 0x1000 + 4 * i));
        }
        listing.push_str(&format!(".text:{:08X}    retn\n", 0x1000 + 4 * len));
        let program = parse_listing(&listing).unwrap();
        let cfg = CfgBuilder::new(&program).build();
        assert_eq!(cfg.block_count(), 1);
        assert_eq!(cfg.instruction_count(), len + 1);
        assert_eq!(cfg.edge_count(), 0);
    }
}

/// Total instructions across CFG blocks always equals the program size,
/// whatever the (valid-target) jump structure.
#[test]
fn blocks_partition_instructions() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let len = 20usize;
        let mut lines: Vec<String> = (0..len)
            .map(|i| format!(".text:{:08X}    nop\n", 0x1000 + 2 * i))
            .collect();
        for _ in 0..rng.next_below(10) {
            let src = rng.next_below(len);
            let dst = rng.next_below(len);
            lines[src] = format!(
                ".text:{:08X}    jnz loc_{:X}\n",
                0x1000 + 2 * src,
                0x1000 + 2 * dst
            );
        }
        let listing = lines.concat();
        let program = parse_listing(&listing).unwrap();
        let cfg = CfgBuilder::new(&program).build();
        let total: usize = cfg.blocks().map(|b| b.len()).sum();
        assert_eq!(total, program.len());
        // Out-degree is at most 2 (branch + fall-through) for any vertex.
        for v in 0..cfg.block_count() {
            assert!(cfg.out_degree(v) <= 2);
        }
    }
}

/// Every known mnemonic category is stable under categorize (no overlaps
/// drift in).
#[test]
fn categorize_is_deterministic() {
    const MNEMONICS: &[&str] = &["jmp", "jz", "call", "add", "cmp", "mov", "retn", "db", "nop", "fld"];
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let m = MNEMONICS[rng.next_below(MNEMONICS.len())];
        let a = categorize(m);
        let b = categorize(m);
        assert_eq!(a, b);
        if m == "fld" || m == "nop" {
            assert_eq!(a, InstrCategory::Other);
        }
    }
}
