#![warn(missing_docs)]

//! Dense `f32` tensor library underpinning the MAGIC DGCNN reproduction.
//!
//! This crate provides the numeric substrate for everything above it: the
//! autodiff engine (`magic-autograd`), the neural network layers
//! (`magic-nn`) and the DGCNN model itself. It implements a row-major,
//! contiguous, n-dimensional `f32` array with the operations the paper's
//! Equations (1)-(5) require: matrix multiplication, elementwise arithmetic,
//! reductions, row gathering/sorting (for the SortPooling layer) and 2-D
//! window maxima (for the AdaptiveMaxPooling layer).
//!
//! # Example
//!
//! ```
//! use magic_tensor::Tensor;
//!
//! let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! ```

mod linalg;
pub mod mem;
mod ops;
mod reduce;
mod rng;
mod shape;
pub mod simd;
mod sparse;
mod tensor;
mod workspace;

pub use linalg::{gemm_into, gemm_nt_into, gemm_nt_strided_into, gemm_tn_into};
pub use mem::MemStats;
pub use ops::relu;
pub use reduce::argmax;
pub use rng::Rng64;
pub use shape::Shape;
pub use sparse::CsrMatrix;
pub use tensor::Tensor;
pub use workspace::{Workspace, WorkspaceStats};
