//! Property-based tests on the substrates' core invariants, driven by
//! seeded [`Rng64`] loops (the build is offline, so no proptest).

use magic_asm::{parse_listing, CfgBuilder};
use magic_graph::Acfg;
use magic_tensor::{Rng64, Tensor};

const CASES: u64 = 64;

/// Runs the whole front end (listing → program → CFG → ACFG) on a
/// listing that parses, so its index and binary-search code is part of
/// every totality check.
fn front_end_if_parsed(text: &str) {
    if let Ok(program) = parse_listing(text) {
        let cfg = CfgBuilder::new(&program).build();
        let acfg = Acfg::from_cfg(&cfg);
        assert_eq!(acfg.vertex_count(), cfg.block_count());
        assert_eq!(cfg.instruction_count(), program.len());
    }
}

/// The parser never panics on arbitrary input, only errors.
#[test]
fn parser_total_on_arbitrary_text() {
    const POOL: &[char] = &[
        'a', 'Q', '7', ' ', '\t', '\n', '\r', ':', '.', ',', ';', '_', '[', ']', '(', ')', '+',
        '*', '#', '"', '\'', '\\', '/', '|', '!', '?', '=', '<', '>', '\u{0}', '\u{7}', 'ß',
        'Ω', '語', '🦀',
    ];
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let len = rng.next_below(401);
        let text: String = (0..len).map(|_| POOL[rng.next_below(POOL.len())]).collect();
        front_end_if_parsed(&text);
    }
}

/// The parser is total on address-prefixed garbage too.
#[test]
fn parser_total_on_addressed_garbage() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let addr = rng.next_u64() % 0xFFFF_FFFF;
        let len = rng.next_below(61);
        // Printable ASCII body, like proptest's `[ -~]` class.
        let body: String = (0..len)
            .map(|_| (b' ' + rng.next_below(95) as u8) as char)
            .collect();
        let line = format!(".text:{addr:08X} {body}\n");
        front_end_if_parsed(&line);
    }
}

/// CFG structural invariants hold for every random jump program, with
/// its lines shuffled and some addresses repeated: every instruction
/// lands in exactly one block, each block is a contiguous ascending run
/// of the address-sorted program, edges are in range, and block start
/// addresses are unique.
#[test]
fn cfg_invariants_on_random_jump_programs() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let len = rng.next_range(3, 40);
        let line_at = |rng: &mut Rng64, i: usize| {
            let addr = 0x1000 + i * 2;
            match rng.next_below(5) {
                0 => {
                    let dst = 0x1000 + rng.next_below(len) * 2;
                    format!(".text:{addr:08X} jz loc_{dst:X}\n")
                }
                1 => {
                    let dst = 0x1000 + rng.next_below(len) * 2;
                    format!(".text:{addr:08X} jmp loc_{dst:X}\n")
                }
                2 => format!(".text:{addr:08X} retn\n"),
                3 => format!(".text:{addr:08X} add eax, {i}\n"),
                _ => format!(".text:{addr:08X} mov eax, ebx\n"),
            }
        };
        let mut lines: Vec<String> = (0..len).map(|i| line_at(&mut rng, i)).collect();
        for _ in 0..rng.next_below(len / 2 + 1) {
            let i = rng.next_below(len);
            let repeat = line_at(&mut rng, i);
            lines.push(repeat);
        }
        rng.shuffle(&mut lines);
        let listing = lines.concat();
        let program = parse_listing(&listing).unwrap();
        assert_eq!(program.len(), len, "one instruction per distinct address");
        assert!(program.windows(2).all(|w| w[0].addr < w[1].addr));
        // Of the lines sharing an address, the one listed last wins.
        for inst in program.iter() {
            let addr = format!("{:08X}", inst.addr);
            let last = lines.iter().rev().find(|l| l[6..14] == addr).unwrap();
            assert!(last[6..].split_whitespace().eq(inst.to_string().split_whitespace()));
        }
        let cfg = CfgBuilder::new(&program).build();

        // The blocks tile the sorted program: sorted by their first
        // index, each range starts where the previous one ended, and the
        // block holds exactly that run of the program.
        let mut ranges: Vec<_> = (0..cfg.block_count()).map(|v| cfg.block_range(v)).collect();
        for (v, range) in ranges.iter().enumerate() {
            assert!(!range.is_empty());
            assert_eq!(cfg.block(v), &program[range.clone()]);
        }
        ranges.sort_by_key(|r| r.start);
        let mut next = 0;
        for range in &ranges {
            assert_eq!(range.start, next, "blocks are contiguous");
            next = range.end;
        }
        assert_eq!(next, program.len(), "every instruction is placed");
        assert_eq!(cfg.instruction_count(), program.len());

        // Edge endpoints are valid vertices.
        for (u, v) in cfg.edges() {
            assert!(u < cfg.block_count() && v < cfg.block_count());
        }

        // Block start addresses are unique.
        let mut starts: Vec<u64> = cfg.blocks().map(|b| b[0].addr).collect();
        starts.sort_unstable();
        starts.dedup();
        assert_eq!(starts.len(), cfg.block_count());
    }
}

/// ACFG text serialization round-trips losslessly.
#[test]
fn acfg_text_roundtrip() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let n = rng.next_range(2, 20);
        let acfg = magic_integration::random_acfg(n, seed);
        let text = acfg.to_text();
        let back = Acfg::from_text(&text).unwrap();
        assert_eq!(back.vertex_count(), acfg.vertex_count());
        assert_eq!(back.edge_count(), acfg.edge_count());
        assert!(back.attributes().approx_eq(acfg.attributes(), 1e-4));
    }
}

/// Softmax of any finite tensor is a probability distribution.
#[test]
fn softmax_is_always_a_distribution() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let len = rng.next_range(1, 20);
        let values: Vec<f32> = (0..len).map(|_| rng.next_f32() * 100.0 - 50.0).collect();
        let t = Tensor::from_slice(&values);
        let s = t.softmax();
        assert!(s.all_finite());
        assert!((s.sum() - 1.0).abs() < 1e-4);
        assert!(s.as_slice().iter().all(|&p| p >= 0.0));
    }
}

/// Matmul distributes over addition: A(B + C) = AB + AC.
#[test]
fn matmul_distributes() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let a = Tensor::rand_uniform([3, 4], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform([4, 2], -1.0, 1.0, &mut rng);
        let c = Tensor::rand_uniform([4, 2], -1.0, 1.0, &mut rng);
        let left = a.matmul(&b.add(&c));
        let right = a.matmul(&b).add(&a.matmul(&c));
        assert!(left.approx_eq(&right, 1e-4));
    }
}

/// The stratified splitter always partitions, for any label multiset.
#[test]
fn kfold_partitions_any_labeling() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let len = rng.next_range(10, 60);
        let labels: Vec<usize> = (0..len).map(|_| rng.next_below(4)).collect();
        let folds = magic_data::stratified_kfold(&labels, 5, seed);
        let mut seen = vec![0usize; labels.len()];
        for fold in &folds {
            for &i in &fold.validation {
                seen[i] += 1;
            }
            let mut all: Vec<usize> =
                fold.train.iter().chain(&fold.validation).copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..labels.len()).collect::<Vec<_>>());
        }
        assert!(seen.iter().all(|&c| c == 1));
    }
}

/// Gradient check on a random small network through the tape (a matrix
/// product, a square, log-softmax and NLL): analytic gradients match
/// finite differences.
#[test]
fn tape_gradients_match_finite_differences() {
    use magic_autograd::{finite_difference_gradient, max_grad_error, Tape};
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let x0 = Tensor::rand_uniform([2, 3], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform([3, 2], -1.0, 1.0, &mut rng);

        let run = |input: &Tensor, want_grad: bool| {
            let mut tape = Tape::new();
            let xv = tape.leaf(input.clone(), want_grad);
            let wv = tape.leaf(w.clone(), false);
            let h = tape.matmul(xv, wv);
            let r = tape.mul(h, h);
            let lp = tape.log_softmax_rows(r);
            let rows = tape.nll_loss_rows(lp, vec![0, 1]);
            let loss = tape.sum(rows);
            (tape, xv, loss)
        };
        let (mut tape, xv, loss) = run(&x0, true);
        tape.backward(loss);
        let analytic = tape.grad(xv).unwrap().clone();
        let numeric = finite_difference_gradient(&x0, 1e-2, |t| {
            let (tape, _, loss) = run(t, false);
            tape.value(loss).item()
        });
        assert!(max_grad_error(&analytic, &numeric) < 2e-2);
    }
}
