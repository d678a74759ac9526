//! Golden outputs of the `.asm` front end (listing → CFG → ACFG).
//!
//! The expected values are the front end's output byte for byte, so any
//! change to tagging, block boundaries, vertex order, edges or Table I
//! attributes shows up as a byte difference. Regenerate them only for a
//! change that means to alter an ACFG.

use magic_asm::{parse_listing, CfgBuilder};
use magic_graph::Acfg;
use magic_synth::MskcfgGenerator;

const DEMO: &str = include_str!("../../samples/demo.asm");

/// `(Acfg::to_text, Cfg::to_dot)` of one listing.
fn front_end(listing: &str) -> (String, String) {
    let program = parse_listing(listing).expect("listing parses");
    let cfg = CfgBuilder::new(&program).build();
    (Acfg::from_cfg(&cfg).to_text(), cfg.to_dot())
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// `samples/demo.asm` holds a label line, a `proc`/`endp` pair, a
/// backward loop, a forward branch and addresses out of order (`00401019
/// retn` is listed before `00401017`).
#[test]
fn demo_listing_matches_golden_files() {
    let (text, dot) = front_end(DEMO);
    assert_eq!(text, include_str!("../golden/demo.acfg.txt"));
    assert_eq!(dot, include_str!("../golden/demo.cfg.dot"));
}

/// One FNV-1a 64 digest over the `to_text()` of every ACFG in the
/// seed-1 mskcfg corpus at scale 0.05, in corpus order.
#[test]
fn seeded_mskcfg_corpus_digest() {
    let samples = MskcfgGenerator::new(1, 0.05).generate();
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let mut instructions = 0;
    for sample in &samples {
        let program = parse_listing(&sample.listing).expect("generated listings parse");
        instructions += program.len();
        let cfg = CfgBuilder::new(&program).build();
        digest = fnv1a(digest, Acfg::from_cfg(&cfg).to_text().as_bytes());
    }
    assert_eq!((samples.len(), instructions), (552, 198_186));
    assert_eq!(digest, 0xd60a_440e_b6ce_b6c0, "digest {digest:#018x}");
}

/// Upper-case mnemonics classify and tag like lower-case ones and print
/// in lower case.
#[test]
fn upper_case_mnemonics() {
    let (text, dot) = front_end(
        ".text:00401000    MOV     EAX, 1\n\
         .text:00401005    CMP     EAX, 0\n\
         .text:00401008    JZ      short loc_401010\n\
         .text:0040100A    CALL    sub_401020\n\
         .text:0040100F    Xor     eax, 10h\n\
         .text:00401010    RETN\n\
         .text:00401020    PUSH    ebp\n\
         .text:00401021    RetN\n",
    );
    assert_eq!(
        text,
        concat!(
            "5 5\n",
            "0 1\n",
            "0 2\n",
            "1 3\n",
            "1 4\n",
            "3 2\n",
            "2 1 0 0 1 1 0 0 3 2 3\n",
            "0 0 1 0 0 0 0 0 1 2 1\n",
            "0 0 0 0 0 0 1 0 1 0 1\n",
            "1 0 0 1 0 0 0 0 1 1 1\n",
            "0 0 0 0 0 1 1 0 2 0 2\n",
        )
    );
    assert_eq!(
        dot,
        concat!(
            "digraph cfg {\n",
            "  node [shape=box fontname=monospace];\n",
            "  n0 [label=\"00401000  mov EAX, 1\\l00401005  cmp EAX, 0\\l00401008  jz short loc_401010\"];\n",
            "  n1 [label=\"0040100A  call sub_401020\"];\n",
            "  n2 [label=\"00401010  retn\"];\n",
            "  n3 [label=\"0040100F  xor eax, 10h\"];\n",
            "  n4 [label=\"00401020  push ebp\\l00401021  retn\"];\n",
            "  n0 -> n1;\n",
            "  n0 -> n2;\n",
            "  n1 -> n3;\n",
            "  n1 -> n4;\n",
            "  n3 -> n2;\n",
            "}\n",
        )
    );
}

/// Lines listed in descending address order are placed by address, not
/// by text position.
#[test]
fn descending_addresses() {
    let (text, dot) = front_end(
        ".text:00401010    retn\n\
         .text:0040100C    jnz     loc_401004\n\
         .text:00401008    dec     ecx\n\
         .text:00401004    add     eax, 3\n\
         .text:00401000    jmp     loc_401008\n",
    );
    assert_eq!(
        text,
        concat!(
            "4 4\n",
            "0 1\n",
            "1 2\n",
            "1 3\n",
            "2 1\n",
            "0 1 0 0 0 0 0 0 1 1 1\n",
            "0 1 0 1 0 0 0 0 2 2 2\n",
            "1 0 0 1 0 0 0 0 1 1 1\n",
            "0 0 0 0 0 0 1 0 1 0 1\n",
        )
    );
    assert_eq!(
        dot,
        concat!(
            "digraph cfg {\n",
            "  node [shape=box fontname=monospace];\n",
            "  n0 [label=\"00401000  jmp loc_401008\"];\n",
            "  n1 [label=\"00401008  dec ecx\\l0040100C  jnz loc_401004\"];\n",
            "  n2 [label=\"00401004  add eax, 3\"];\n",
            "  n3 [label=\"00401010  retn\"];\n",
            "  n0 -> n1;\n",
            "  n1 -> n2;\n",
            "  n1 -> n3;\n",
            "  n2 -> n1;\n",
            "}\n",
        )
    );
}

/// A repeated address keeps the instruction listed last, even when other
/// addresses come between the two lines.
#[test]
fn repeated_non_adjacent_address_keeps_last() {
    let (text, dot) = front_end(
        ".text:00401000    mov     eax, 1\n\
         .text:00401002    jmp     loc_401006\n\
         .text:00401004    retn\n\
         .text:00401000    xor     eax, eax\n\
         .text:00401006    jz      loc_401004\n\
         .text:00401002    cmp     eax, 5\n\
         .text:00401008    retn\n",
    );
    assert_eq!(
        text,
        concat!(
            "4 3\n",
            "0 1\n",
            "2 1\n",
            "2 3\n",
            "1 0 0 1 1 0 0 0 2 1 2\n",
            "0 0 0 0 0 0 1 0 1 0 1\n",
            "0 1 0 0 0 0 0 0 1 2 1\n",
            "0 0 0 0 0 0 1 0 1 0 1\n",
        )
    );
    assert_eq!(
        dot,
        concat!(
            "digraph cfg {\n",
            "  node [shape=box fontname=monospace];\n",
            "  n0 [label=\"00401000  xor eax, eax\\l00401002  cmp eax, 5\"];\n",
            "  n1 [label=\"00401004  retn\"];\n",
            "  n2 [label=\"00401006  jz loc_401004\"];\n",
            "  n3 [label=\"00401008  retn\"];\n",
            "  n0 -> n1;\n",
            "  n2 -> n1;\n",
            "  n2 -> n3;\n",
            "}\n",
        )
    );
}
