//! End-to-end integration: assembly text → parser → Algorithms 1-2 →
//! Table I attribution → DGCNN → family verdict, plus checkpointing.

use magic::checkpoint::{load_weights, save_weights};
use magic::pipeline::{extract_acfg, MagicPipeline};
use magic::trainer::{evaluate_with, TrainConfig, Trainer};
use magic_model::{Dgcnn, DgcnnConfig, GraphInput, PoolingHead};
use magic_synth::codegen::CodeGenerator;
use magic_synth::profile::FamilyProfile;
use magic_tensor::Rng64;

fn two_family_corpus(samples_per_family: usize) -> (Vec<GraphInput>, Vec<usize>, Vec<String>) {
    let mut loopy = FamilyProfile::base("Loopy");
    loopy.loop_weight = 3.0;
    loopy.mean_blocks = 20.0;
    let mut packer = FamilyProfile::base("Packer");
    packer.decoder_weight = 3.0;
    packer.branch_weight = 0.2;
    packer.mean_blocks = 12.0;

    let mut rng = Rng64::new(77);
    let mut inputs = Vec::new();
    let mut labels = Vec::new();
    let mut listings = Vec::new();
    for i in 0..2 * samples_per_family {
        let profile = if i % 2 == 0 { &loopy } else { &packer };
        let text = CodeGenerator::new(profile).generate(&mut rng);
        let acfg = extract_acfg(&text).expect("generated listings parse");
        inputs.push(GraphInput::from_acfg(&acfg));
        labels.push(i % 2);
        listings.push(text);
    }
    (inputs, labels, vec!["Loopy".into(), "Packer".into()])
}

#[test]
fn listing_to_verdict_through_every_layer() {
    let (inputs, labels, names) = two_family_corpus(12);
    let config = DgcnnConfig::new(2, PoolingHead::adaptive_max_pool(3));
    let mut model = Dgcnn::new(&config, 5);
    let trainer = Trainer::new(TrainConfig {
        epochs: 8,
        batch_size: 4,
        learning_rate: 0.01,
        ..TrainConfig::default()
    });
    let train_idx: Vec<usize> = (0..20).collect();
    let val_idx: Vec<usize> = (20..24).collect();
    trainer.train(&mut model, &inputs, &labels, &train_idx, &val_idx);
    let (_, accuracy) = evaluate_with(1, &model, &inputs, &labels, &val_idx);
    assert!(accuracy >= 0.75, "end-to-end accuracy {accuracy}");

    // Checkpoint round-trip through the pipeline API.
    let checkpoint = save_weights(&model);
    let mut restored = Dgcnn::new(&config, 1234);
    load_weights(&mut restored, &checkpoint).expect("round trip");
    let pipeline = MagicPipeline::new(restored, names);
    let acfg = extract_acfg(
        ".text:00401000   mov ecx, 5\n\
         .text:00401005 loc_401005:\n\
         .text:00401005   dec ecx\n\
         .text:00401006   jnz short loc_401005\n\
         .text:00401008   retn\n",
    )
    .unwrap();
    let (family, p) = pipeline.classify_acfg(&acfg);
    assert!(["Loopy", "Packer"].contains(&family));
    assert!(p > 0.0 && p <= 1.0);
}

#[test]
fn all_three_heads_survive_the_full_pipeline() {
    let (inputs, labels, _) = two_family_corpus(4);
    for head in [
        PoolingHead::adaptive_max_pool(3),
        PoolingHead::sort_pool_conv1d(12),
        PoolingHead::sort_pool_weighted(10),
    ] {
        let config = DgcnnConfig::new(2, head.clone());
        let model = Dgcnn::new(&config, 2);
        for input in &inputs {
            let probs = model.predict(input);
            assert_eq!(probs.len(), 2, "head {head:?}");
            assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-3);
        }
        let _ = &labels;
    }
}

#[test]
fn synthetic_mskcfg_families_are_learnable_above_chance() {
    // Three structurally distinct MSKCFG families at tiny scale.
    use magic_synth::MskcfgGenerator;
    let mut generator = MskcfgGenerator::new(3, 0.002);
    let chosen = [1usize, 3, 8]; // Lollipop, Vundo, Gatak
    let mut inputs = Vec::new();
    let mut labels = Vec::new();
    for (new_label, &family) in chosen.iter().enumerate() {
        for _ in 0..10 {
            let sample = generator.generate_one(family);
            let acfg = extract_acfg(&sample.listing).unwrap();
            inputs.push(GraphInput::from_acfg(&acfg));
            labels.push(new_label);
        }
    }
    let config = DgcnnConfig::new(3, PoolingHead::adaptive_max_pool(3));
    let mut model = Dgcnn::new(&config, 11);
    let trainer = Trainer::new(TrainConfig {
        epochs: 8,
        batch_size: 5,
        learning_rate: 0.01,
        ..TrainConfig::default()
    });
    // Train on 8 of each family, validate on the held-out 2.
    let train_idx: Vec<usize> = (0..30).filter(|i| i % 10 < 8).collect();
    let val_idx: Vec<usize> = (0..30).filter(|i| i % 10 >= 8).collect();
    trainer.train(&mut model, &inputs, &labels, &train_idx, &val_idx);
    let (_, accuracy) = evaluate_with(1, &model, &inputs, &labels, &val_idx);
    assert!(accuracy > 0.34, "above 3-class chance, got {accuracy}");
}
