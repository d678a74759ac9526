//! Both instances of the register-tiled kernels — the baseline build and
//! the AVX2 build of the same source — against each other and against
//! the span-order scalar references in [`magic_integration::oracle`],
//! bitwise, over every tile remainder; both instances of the direct
//! convolution against the im2col + GEMM lowering; and both instances of
//! the pooling pass against the scan-order adaptive max pooling of the
//! ReLU'd map.
//!
//! The instances are called directly through an explicit
//! [`magic_tensor::simd::Isa`], so the fallback stays covered on an AVX2
//! machine. The AVX2 cases are skipped, with a note, only on a CPU
//! without AVX2.

use magic_autograd::Tape;
use magic_integration::oracle;
use magic_tensor::simd::{self, ColumnMax, Isa};
use magic_tensor::{gemm_nt_strided_into, CsrMatrix, Rng64, Tensor};
use std::sync::Arc;

/// Every instance this CPU can run, baseline first.
fn instances() -> Vec<Isa> {
    let mut all = vec![Isa::BASELINE];
    match Isa::avx2() {
        Some(avx2) => all.push(avx2),
        None => eprintln!("note: CPU lacks AVX2; checking the baseline instance only"),
    }
    all
}

/// Row counts covering `m % 4` = 0..3, column counts covering `n % 8` =
/// 0..7 and `n < 8`, and depths covering `k % 4` (and `k % 8`) plus
/// `k = 0`.
const MS: [usize; 6] = [1, 2, 3, 4, 5, 11];
const NS: [usize; 9] = [1, 3, 5, 7, 8, 9, 14, 16, 23];
const KS: [usize; 12] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 18];

fn random(len: usize, rng: &mut Rng64) -> Vec<f32> {
    Tensor::rand_uniform([len], -2.0, 2.0, rng).as_slice().to_vec()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs `kernel` on every instance from the same starting `out` and
/// checks each result bitwise against `want`.
fn check_instances(what: &str, init: &[f32], want: &[f32], kernel: impl Fn(Isa, &mut [f32])) {
    for isa in instances() {
        let mut out = init.to_vec();
        kernel(isa, &mut out);
        assert_eq!(bits(&out), bits(want), "{what} on {}", isa.name());
    }
}

#[test]
fn gemm_instances_match_span_order_on_every_remainder() {
    let mut rng = Rng64::new(1);
    for m in MS {
        for n in NS {
            for k in KS {
                let (a, b, init) =
                    (random(m * k, &mut rng), random(k * n, &mut rng), random(m * n, &mut rng));
                let mut want = init.clone();
                oracle::gemm_span_order(m, k, n, &a, &b, &mut want);
                check_instances(&format!("gemm ({m},{k},{n})"), &init, &want, |isa, out| {
                    simd::gemm(isa, m, k, n, &a, &b, out)
                });
            }
        }
    }
}

#[test]
fn gemm_tn_instances_match_span_order_on_every_remainder() {
    let mut rng = Rng64::new(2);
    for m in MS {
        for n in NS {
            for k in KS {
                let (a, b, init) =
                    (random(k * m, &mut rng), random(k * n, &mut rng), random(m * n, &mut rng));
                let mut want = init.clone();
                oracle::gemm_tn_span_order(m, k, n, &a, &b, &mut want);
                check_instances(&format!("gemm_tn ({m},{k},{n})"), &init, &want, |isa, out| {
                    simd::gemm_tn(isa, m, k, n, &a, &b, out)
                });
            }
        }
    }
}

#[test]
fn gemm_nt_instances_match_span_order_on_every_remainder() {
    let mut rng = Rng64::new(3);
    for m in MS {
        for n in NS {
            for k in KS {
                let (a, b, init) =
                    (random(m * k, &mut rng), random(n * k, &mut rng), random(m * n, &mut rng));
                let mut want = init.clone();
                oracle::gemm_nt_span_order(m, k, n, &a, k, &b, k, &mut want);
                check_instances(&format!("gemm_nt ({m},{k},{n})"), &init, &want, |isa, out| {
                    simd::gemm_nt(isa, m, k, n, &a, k, &b, k, out)
                });
            }
        }
    }
}

#[test]
fn dense_instances_agree_across_cache_panels() {
    // Wide enough that the column sweep spans several cache panels, with
    // a ragged last panel and a ragged last tile.
    let mut rng = Rng64::new(4);
    let (m, k, n) = (6, 9, 4_101);
    let (a, b, init) = (random(m * k, &mut rng), random(k * n, &mut rng), random(m * n, &mut rng));
    let mut want = init.clone();
    oracle::gemm_span_order(m, k, n, &a, &b, &mut want);
    check_instances("gemm wide", &init, &want, |isa, out| simd::gemm(isa, m, k, n, &a, &b, out));

    let at = random(k * m, &mut rng);
    let mut want = init.clone();
    oracle::gemm_tn_span_order(m, k, n, &at, &b, &mut want);
    check_instances("gemm_tn wide", &init, &want, |isa, out| {
        simd::gemm_tn(isa, m, k, n, &at, &b, out)
    });
}

#[test]
fn strided_gemm_nt_equals_the_copy_then_dot_span_path() {
    // The conv weight gradient reads one sample's column range of gOut
    // and of the im2col buffer in place. It must equal copying those
    // ranges into contiguous rows and dotting them with `dot_span`.
    let mut rng = Rng64::new(5);
    let (c_out, ck, total) = (5, 9, 97);
    let gout = random(c_out * total, &mut rng);
    let cols = random(ck * total, &mut rng);
    for (off, len) in [(0, 97), (0, 40), (40, 33), (73, 24), (90, 7), (96, 1), (12, 0)] {
        let mut want = vec![0.0f32; c_out * ck];
        let g: Vec<&[f32]> = (0..c_out).map(|o| &gout[o * total + off..][..len]).collect();
        let c: Vec<&[f32]> = (0..ck).map(|r| &cols[r * total + off..][..len]).collect();
        let (g_copy, c_copy): (Vec<f32>, Vec<f32>) = (g.concat(), c.concat());
        for o in 0..c_out {
            for r in 0..ck {
                want[o * ck + r] +=
                    simd::dot_span(&g_copy[o * len..][..len], &c_copy[r * len..][..len]);
            }
        }
        let init = vec![0.0f32; c_out * ck];
        check_instances(&format!("strided nt at {off}+{len}"), &init, &want, |isa, out| {
            simd::gemm_nt(isa, c_out, len, ck, &gout[off..], total, &cols[off..], total, out)
        });
        let mut public = init.clone();
        gemm_nt_strided_into(c_out, len, ck, &gout[off..], total, &cols[off..], total, &mut public);
        assert_eq!(bits(&public), bits(&want), "gemm_nt_strided_into at {off}+{len}");
    }
}

#[test]
fn spmm_instances_match_span_order_on_every_remainder() {
    let mut rng = Rng64::new(6);
    let n = 37;
    let edges: Vec<(usize, usize)> =
        (0..90).map(|_| (rng.next_below(n), rng.next_below(n))).collect();
    let (adj, inv_degree) = CsrMatrix::augmented_from_edges(n, edges);
    // Every third row empty: the zero-nonzero analogue of `k = 0`.
    let mut gappy = Tensor::rand_uniform([n, n], -1.0, 1.0, &mut rng);
    for i in (0..n).step_by(3) {
        gappy.as_mut_slice()[i * n..(i + 1) * n].fill(0.0);
    }
    let gappy = CsrMatrix::from_dense(&gappy);
    // Channel counts covering the 32-column group, the 8-lane tile and
    // the scalar tail, each with and without the fused row scale.
    for c in [1, 3, 7, 8, 9, 16, 31, 32, 33, 40, 45, 64, 75] {
        let dense = random(n * c, &mut rng);
        for (csr, scale) in [(&adj, None), (&adj, Some(inv_degree.as_slice())), (&gappy, None)] {
            let mut want = vec![0.0f32; n * c];
            let (offs, cols, vals) = (csr.row_offsets(), csr.col_indices(), csr.values());
            oracle::spmm_span_order(offs, cols, vals, scale, &dense, c, &mut want);
            // The kernel overwrites its output, so start from garbage.
            let init = vec![f32::NAN; n * c];
            check_instances(&format!("spmm c={c}"), &init, &want, |isa, out| {
                simd::spmm(isa, offs, cols, vals, scale, &dense, c, out)
            });
        }
    }
}

/// The zero-bordered input [`simd::conv_band`] reads for output rows
/// `rows` of a stride-1 convolution of the `(c_in, h·w)` map `x` with
/// `kh` kernel rows and padding `pad`.
fn halo(x: &[f32], c_in: usize, (h, w): (usize, usize), (kh, pad): (usize, usize), rows: std::ops::Range<usize>) -> Vec<f32> {
    let mut band = Vec::new();
    for ci in 0..c_in {
        for iy in rows.start as isize - pad as isize..(rows.end + kh - 1) as isize - pad as isize {
            for ix in -(pad as isize)..(w + pad) as isize {
                let inside = (0..h as isize).contains(&iy) && (0..w as isize).contains(&ix);
                band.push(if inside { x[ci * h * w + iy as usize * w + ix as usize] } else { 0.0 });
            }
        }
    }
    band
}

#[test]
fn conv_band_instances_match_the_im2col_gemm_lowering() {
    // `Tape::conv2d` gathers patches into an im2col panel and runs
    // `gemm_into` on the bias-filled output; every band of the direct
    // body must give the same bits. Draws hold `±0.0` inputs, biases and
    // weights, and negative weights, whose products with the padding's
    // `+0.0` are `−0.0`.
    let mut rng = Rng64::new(8);
    let h = 5;
    let c_out = 5;
    let signed = [-1.5, -0.0, 0.0, 0.75];
    let draw = |rng: &mut Rng64, len: usize| -> Vec<f32> {
        let mixed = |rng: &mut Rng64| {
            if rng.next_below(3) == 0 { signed[rng.next_below(signed.len())] } else { rng.next_f32() * 4.0 - 2.0 }
        };
        (0..len).map(|_| mixed(rng)).collect()
    };
    for c_in in [1, 2] {
        for k in [2, 3] {
            for pad in [0, 1] {
                for w in [1, 7, 8, 9, 11, 256, 257] {
                    if k > w + 2 * pad {
                        continue;
                    }
                    let (oh, ow) = (h + 2 * pad - k + 1, w + 2 * pad - k + 1);
                    let x = draw(&mut rng, c_in * h * w);
                    let wt = draw(&mut rng, c_out * c_in * k * k);
                    let bias = draw(&mut rng, c_out);
                    let mut tape = Tape::new();
                    let xv = tape.leaf(Tensor::from_vec(x.clone(), [c_in, h * w]), false);
                    let wv = tape.leaf(Tensor::from_vec(wt.clone(), [c_out, c_in, k, k]), false);
                    let bv = tape.leaf(Tensor::from_vec(bias.clone(), [c_out]), false);
                    let map = tape.conv2d(xv, wv, bv, pad, Arc::new(vec![(h, w)]));
                    let want = tape.value(map).as_slice();
                    for band in [1, 3, oh] {
                        for oy0 in (0..oh).step_by(band) {
                            let oy1 = (oy0 + band).min(oh);
                            let input = halo(&x, c_in, (h, w), (k, pad), oy0..oy1);
                            let rows: Vec<f32> = want
                                .chunks_exact(oh * ow)
                                .flat_map(|m| m[oy0 * ow..oy1 * ow].iter().copied())
                                .collect();
                            let init = vec![f32::NAN; rows.len()];
                            let what = format!("conv c_in {c_in}, k {k}, pad {pad}, {h}x{w}, rows {oy0}..{oy1}");
                            check_instances(&what, &init, &rows, |isa, out| {
                                simd::conv_band(isa, c_in, (k, k), ow, &input, &wt, &bias, out)
                            });
                        }
                    }
                }
            }
        }
    }
}

/// `c` maps of `(oh, ow)` pooled to `(gh, gw)` by instance `isa` of
/// [`ColumnMax`], fed bands of `band` rows: the pooled `(c, gh·gw)`
/// values and, per cell, the flat index of its winner in the maps.
fn column_max_pool(
    isa: Isa,
    maps: &[f32],
    c: usize,
    (oh, ow): (usize, usize),
    (gh, gw): (usize, usize),
    band: usize,
) -> (Vec<f32>, Vec<usize>) {
    let windows = |n: usize, len: usize| -> Vec<usize> {
        (0..n).flat_map(|i| <[usize; 2]>::from(oracle::adaptive_window(i, n, len))).collect()
    };
    let (ywin, xwin) = (windows(gh, oh), windows(gw, ow));
    let mut acc = vec![f32::NAN; 2 * c * gh * ow];
    let mut pool = ColumnMax::new(c, ow, &ywin, &mut acc);
    let mut rows = Vec::new();
    for oy0 in (0..oh).step_by(band) {
        let oy1 = (oy0 + band).min(oh);
        rows.clear();
        for map in maps.chunks_exact(oh * ow) {
            rows.extend_from_slice(&map[oy0 * ow..oy1 * ow]);
        }
        pool.rows(isa, &rows, oy0);
    }
    let cells = gh * gw;
    let (mut values, mut winners) = (vec![f32::NAN; c * cells], vec![usize::MAX; c * cells]);
    let maps = values.chunks_exact_mut(cells).zip(winners.chunks_exact_mut(cells));
    for (o, (v, w)) in maps.enumerate() {
        pool.fold(isa, o, &xwin, o * oh * ow, v, w);
    }
    (values, winners)
}

#[test]
fn pool_instances_match_the_scan_of_the_relu_map() {
    let mut rng = Rng64::new(7);
    // Widths off the 8-lane tile and the 32-column group; `oh < gh` and
    // `ow < gw`, where neighbouring windows share rows or columns.
    let shapes = [
        ((7, 13), (3, 3)),
        ((2, 5), (4, 3)),
        ((9, 3), (2, 6)),
        ((1, 1), (2, 2)),
        ((16, 45), (6, 6)),
        ((12, 77), (5, 4)),
        ((5, 8), (2, 2)),
        ((33, 256), (6, 6)),
    ];
    // Uniform values; a few exact values, so windows hold ties, `+0.0`
    // and `−0.0`; and nothing positive, so every window pools ReLU's
    // `+0.0`.
    let ties = [-1.0, -0.0, 0.0, 0.5, 1.0];
    let draws: [&dyn Fn(&mut Rng64) -> f32; 3] = [
        &|rng| rng.next_f32() * 4.0 - 2.0,
        &|rng| ties[rng.next_below(ties.len())],
        &|rng| [-2.0, -0.0, 0.0][rng.next_below(3)],
    ];
    let c = 3;
    for ((oh, ow), grid) in shapes {
        for draw in draws {
            let maps: Vec<f32> = (0..c * oh * ow).map(|_| draw(&mut rng)).collect();
            // ReLU as the optimized `v.max(0.0)` computes it: `+0.0` for
            // `−0.0` too (an unoptimized `f32::max` may keep `−0.0`; Rust
            // leaves that sign unspecified).
            let relu: Vec<f32> = maps.iter().map(|&v| if v > 0.0 { v } else { 0.0 }).collect();
            let relu = Tensor::from_vec(relu, [c, oh * ow]);
            let (want, want_winners) =
                oracle::adaptive_max_pool2d(&relu, &[(oh, ow)], grid.0, grid.1);
            for isa in instances() {
                for band in [1, 3, oh] {
                    let (values, winners) = column_max_pool(isa, &maps, c, (oh, ow), grid, band);
                    let what = format!("pool {oh}x{ow} -> {grid:?}, band {band}, {}", isa.name());
                    assert_eq!(bits(&values), bits(want.as_slice()), "{what}: values");
                    assert_eq!(winners, want_winners, "{what}: winners");
                }
            }
        }
    }
}

#[test]
fn the_process_instance_is_the_best_supported_one() {
    assert_eq!(simd::isa(), Isa::avx2().unwrap_or(Isa::BASELINE));
    assert_eq!(simd::isa().name(), if Isa::avx2().is_some() { "avx2" } else { "baseline" });
}
