//! Table I: the block-level attributes used in MAGIC.
//!
//! Demonstrates the attribute extractor on a representative basic block
//! and prints the full attribute catalogue, then summarizes the attribute
//! distributions over a generated MSKCFG-like corpus slice.

use magic::pipeline::extract_acfg;
use magic_bench::experiments::Corpus;
use magic_bench::RunArgs;
use magic_graph::Attribute;
use magic_json::json;

const DEMO_LISTING: &str = "\
.text:00401000                 push    ebp
.text:00401001                 mov     ebp, esp
.text:00401003                 mov     eax, [ebp+8]
.text:00401006                 cmp     eax, 0x40
.text:00401009                 jz      short loc_401012
.text:0040100B                 add     eax, 1Fh
.text:0040100E                 xor     eax, 0xFF
.text:00401011                 retn
.text:00401012 loc_401012:
.text:00401012                 call    ds:ExitProcess
.text:00401018                 retn
";

fn main() {
    let args = RunArgs::parse(RunArgs::quick());
    println!("=== Table I: Block-Level Attributes Used in MAGIC ===\n");
    println!("{:<4} {:<36} Source", "Ch", "Attribute");
    for attr in Attribute::ALL {
        let source = match attr {
            Attribute::Offspring | Attribute::InstructionsInVertex => "Vertex Structure",
            _ => "Code Sequence",
        };
        println!("{:<4} {:<36} {}", attr as usize, attr.name(), source);
    }

    println!("\n--- extraction demo on a hand-written function ---\n{DEMO_LISTING}");
    let acfg = extract_acfg(DEMO_LISTING).expect("demo listing parses");
    println!(
        "{} basic blocks, {} edges\n",
        acfg.vertex_count(),
        acfg.edge_count()
    );
    println!("{:<4} attribute vector (Table I channel order)", "Blk");
    for v in 0..acfg.vertex_count() {
        let row: Vec<String> = acfg
            .attributes()
            .row(v)
            .iter()
            .map(|x| format!("{x:>3}"))
            .collect();
        println!("{v:<4} [{}]", row.join(" "));
    }

    println!("\n--- attribute means over a generated MSKCFG-like slice ---");
    let corpus = RunArgs { scale: args.scale.min(0.01), ..args.clone() }.corpus(Corpus::Mskcfg);
    let mut sums = vec![0.0f64; Attribute::ALL.len()];
    let mut vertices = 0usize;
    for acfg in &corpus.acfgs {
        let row_sums = acfg.attributes().sum_rows();
        for (s, r) in sums.iter_mut().zip(&row_sums) {
            *s += *r as f64;
        }
        vertices += acfg.vertex_count();
    }
    println!("({} samples, {} vertices)", corpus.len(), vertices);
    let mut json_means = magic_json::Map::new();
    for (attr, &total) in Attribute::ALL.iter().zip(&sums) {
        let mean = total / vertices.max(1) as f64;
        println!("{:<36} mean/vertex = {mean:.3}", attr.name());
        json_means.insert(attr.name().to_string(), json!(mean));
    }
    magic_bench::results::write_result(
        "table1_attributes",
        &json!({
            "samples": corpus.len(),
            "vertices": vertices,
            "mean_per_vertex": json_means,
        }),
    );
}
