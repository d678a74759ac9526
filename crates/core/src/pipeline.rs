//! The MAGIC front half: listing → CFG → ACFG, plus the assembled
//! classify-one-binary pipeline.

use magic_asm::{parse_listing, CfgBuilder, ParseError, Program};
use magic_graph::{Acfg, ReduceStrategy};
use magic_model::{Dgcnn, GraphInput};
use std::error::Error;
use std::fmt;

/// Error from ACFG extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The listing could not be parsed.
    Parse(ParseError),
    /// The listing parsed but produced no basic blocks.
    EmptyProgram,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Parse(e) => write!(f, "parse failure: {e}"),
            PipelineError::EmptyProgram => f.write_str("listing contains no instructions"),
        }
    }
}

impl Error for PipelineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PipelineError::Parse(e) => Some(e),
            PipelineError::EmptyProgram => None,
        }
    }
}

impl From<ParseError> for PipelineError {
    fn from(e: ParseError) -> Self {
        PipelineError::Parse(e)
    }
}

/// Extracts an attributed CFG from one IDA-style listing (the first half
/// of Fig. 1's workflow).
///
/// # Errors
///
/// Returns [`PipelineError`] if the listing cannot be parsed or holds no
/// instructions.
pub fn extract_acfg(listing: &str) -> Result<Acfg, PipelineError> {
    let _span = magic_obs::span(magic_obs::stage::EXTRACT_ACFG);
    let program = parse_program(listing)?;
    let cfg = CfgBuilder::new(&program).build();
    Ok(Acfg::from_cfg(&cfg))
}

/// Parses one listing into a [`Program`] that holds at least one
/// instruction.
///
/// # Errors
///
/// Returns [`PipelineError`] if the listing cannot be parsed or holds no
/// instructions.
pub fn parse_program(listing: &str) -> Result<Program<'_>, PipelineError> {
    let program = parse_listing(listing)?;
    if program.is_empty() {
        return Err(PipelineError::EmptyProgram);
    }
    Ok(program)
}

/// The assembled end-to-end system: a trained DGCNN plus family names.
///
/// In the paper's deployment story (Section VII), this is the object that
/// would live on the cloud: it takes raw disassembly and returns a family
/// verdict.
#[derive(Debug)]
pub struct MagicPipeline {
    model: Dgcnn,
    family_names: Vec<String>,
    reduce: ReduceStrategy,
}

impl MagicPipeline {
    /// Wraps a trained model with its family vocabulary (no graph
    /// reduction — equivalent to [`with_reduce`](Self::with_reduce) and
    /// [`ReduceStrategy::None`]).
    ///
    /// # Panics
    ///
    /// Panics if the name count differs from the model's class count.
    pub fn new(model: Dgcnn, family_names: Vec<String>) -> Self {
        Self::with_reduce(model, family_names, ReduceStrategy::None)
    }

    /// Wraps a trained model with its family vocabulary and the graph
    /// reduction the model was trained with. Every incoming graph —
    /// extracted or pre-extracted — passes through the same strategy
    /// before inference, so serving matches training.
    ///
    /// # Panics
    ///
    /// Panics if the name count differs from the model's class count.
    pub fn with_reduce(
        model: Dgcnn,
        family_names: Vec<String>,
        reduce: ReduceStrategy,
    ) -> Self {
        assert_eq!(
            model.config().num_classes,
            family_names.len(),
            "one family name per class required"
        );
        MagicPipeline { model, family_names, reduce }
    }

    /// The wrapped model.
    pub fn model(&self) -> &Dgcnn {
        &self.model
    }

    /// The family vocabulary.
    pub fn family_names(&self) -> &[String] {
        &self.family_names
    }

    /// The reduction strategy applied to every graph before inference.
    pub fn reduce(&self) -> ReduceStrategy {
        self.reduce
    }

    /// Builds the model input for an ACFG, applying this pipeline's
    /// reduction strategy first. Idempotence of the strategies makes
    /// this safe for graphs that were already reduced upstream (e.g. a
    /// client sending pre-reduced ACFGs).
    pub fn input_for(&self, acfg: &Acfg) -> GraphInput {
        if self.reduce.is_none() {
            GraphInput::from_acfg(acfg)
        } else {
            GraphInput::from_acfg(&self.reduce.apply(acfg))
        }
    }

    /// Classifies one listing, returning `(family name, probability)`.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] if extraction fails.
    pub fn classify_listing(&self, listing: &str) -> Result<(&str, f32), PipelineError> {
        let _span = magic_obs::span(magic_obs::stage::PREDICT);
        let acfg = extract_acfg(listing)?;
        Ok(self.classify_acfg(&acfg))
    }

    /// Classifies a pre-extracted ACFG.
    pub fn classify_acfg(&self, acfg: &Acfg) -> (&str, f32) {
        let probs = self.model.predict(&self.input_for(acfg));
        let best = magic_tensor::argmax(&probs).expect("non-empty probability vector");
        (&self.family_names[best], probs[best])
    }

    /// Full probability distribution over families for an ACFG.
    pub fn family_distribution(&self, acfg: &Acfg) -> Vec<(&str, f32)> {
        let probs = self.model.predict(&self.input_for(acfg));
        self.family_names
            .iter()
            .map(String::as_str)
            .zip(probs)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magic_model::{DgcnnConfig, PoolingHead};

    const LISTING: &str = "\
.text:00401000    cmp     eax, 1
.text:00401003    jz      short loc_401008
.text:00401005    add     eax, 2
.text:00401008 loc_401008:
.text:00401008    retn
";

    #[test]
    fn extract_acfg_builds_three_blocks() {
        let acfg = extract_acfg(LISTING).unwrap();
        assert_eq!(acfg.vertex_count(), 3);
        assert_eq!(acfg.edge_count(), 3);
    }

    #[test]
    fn empty_listing_is_rejected() {
        assert_eq!(extract_acfg("; nothing\n"), Err(PipelineError::EmptyProgram));
    }

    #[test]
    fn parse_error_propagates_with_source() {
        let err = extract_acfg(".text:  mov eax, 1").unwrap_err();
        assert!(matches!(err, PipelineError::Parse(_)));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn pipeline_classifies_listing_to_a_named_family() {
        let config = DgcnnConfig::new(3, PoolingHead::sort_pool_weighted(8));
        let model = Dgcnn::new(&config, 4);
        let pipeline = MagicPipeline::new(
            model,
            vec!["Ramnit".into(), "Vundo".into(), "Gatak".into()],
        );
        let (family, p) = pipeline.classify_listing(LISTING).unwrap();
        assert!(["Ramnit", "Vundo", "Gatak"].contains(&family));
        assert!(p > 0.0 && p <= 1.0);
        let dist = pipeline.family_distribution(&extract_acfg(LISTING).unwrap());
        let total: f32 = dist.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-3);
    }

    #[test]
    fn reduced_pipeline_matches_manual_reduction() {
        let config = DgcnnConfig::new(3, PoolingHead::sort_pool_weighted(8));
        let model = Dgcnn::new(&config, 4);
        let pipeline = MagicPipeline::with_reduce(
            model,
            vec!["Ramnit".into(), "Vundo".into(), "Gatak".into()],
            ReduceStrategy::Chain,
        );
        let acfg = extract_acfg(LISTING).unwrap();
        let reduced = ReduceStrategy::Chain.apply(&acfg);
        // The pipeline reduces internally; feeding a pre-reduced graph
        // is bitwise identical (idempotence).
        let a = pipeline.family_distribution(&acfg);
        let b = pipeline.family_distribution(&reduced);
        for ((fa, pa), (fb, pb)) in a.iter().zip(&b) {
            assert_eq!(fa, fb);
            assert_eq!(pa.to_bits(), pb.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "one family name per class")]
    fn pipeline_rejects_mismatched_names() {
        let config = DgcnnConfig::new(3, PoolingHead::sort_pool_weighted(8));
        MagicPipeline::new(Dgcnn::new(&config, 0), vec!["OnlyOne".into()]);
    }
}
