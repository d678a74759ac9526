//! CFG explorer: parse an IDA-style `.asm` listing and dump its control
//! flow graph — blocks, edges, Table I attributes and Graphviz DOT.
//!
//! Run with: `cargo run --release --example cfg_explorer [-- path/to/listing.asm]`
//! Without an argument, a built-in demo listing is explored.

use magic_asm::{parse_listing, CfgBuilder};
use magic_graph::{Acfg, Attribute, GraphStats};

const DEMO: &str = "\
.text:00401000                 push    ebp
.text:00401001                 mov     ebp, esp
.text:00401003                 mov     ecx, 10
.text:00401008 loc_401008:
.text:00401008                 xor     eax, 3Fh
.text:0040100B                 dec     ecx
.text:0040100C                 jnz     short loc_401008
.text:0040100E                 cmp     eax, 0
.text:00401011                 jz      short loc_401017
.text:00401013                 call    ds:MessageBoxA
.text:00401019                 retn
.text:00401017 loc_401017:
.text:00401017                 pop     ebp
.text:00401018                 retn
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let text = match std::env::args().nth(1) {
        Some(path) => std::fs::read_to_string(path)?,
        None => DEMO.to_string(),
    };

    let program = parse_listing(&text)?;
    println!("parsed {} instructions", program.len());
    let cfg = CfgBuilder::new(&program).build();
    let acfg = Acfg::from_cfg(&cfg);
    let stats = GraphStats::of(&acfg);
    println!(
        "{} blocks, {} edges, density {:.3}, entry coverage {:.0}%\n",
        stats.vertices,
        stats.edges,
        stats.density,
        stats.entry_coverage * 100.0
    );

    for (v, block) in cfg.blocks().enumerate() {
        let successors: Vec<String> = cfg.successors(v).map(|s| format!("n{s}")).collect();
        println!(
            "block n{v} @ {:08X} ({} instructions) -> [{}]",
            block[0].addr,
            block.len(),
            successors.join(", ")
        );
        for inst in block {
            println!("    {inst}");
        }
        let interesting: Vec<String> = Attribute::ALL
            .iter()
            .filter(|&&a| acfg.attribute(v, a) > 0.0)
            .map(|&a| format!("{}={}", a.name().trim_start_matches("# "), acfg.attribute(v, a)))
            .collect();
        println!("    attributes: {}\n", interesting.join(", "));
    }

    println!("--- Graphviz DOT (pipe into `dot -Tpng`) ---\n{}", cfg.to_dot());
    Ok(())
}
