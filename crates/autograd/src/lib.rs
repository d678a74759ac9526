#![warn(missing_docs)]

//! Tape-based reverse-mode automatic differentiation for the MAGIC
//! reproduction.
//!
//! The paper trains its DGCNN with PyTorch's autograd; this crate is the
//! from-scratch equivalent. A [`Tape`] records every tensor operation of a
//! forward pass as a node; [`Tape::backward`] then walks the recording in
//! reverse, accumulating gradients into every node that requires them.
//!
//! The operation set is exactly what the MAGIC architecture records:
//! matrix products and the sparse propagation of the graph convolution
//! of Eq. (1), row gathering and padding for SortPooling, one stride-1
//! 2-D convolution (the SortPooling head's 1-D convolutions are its
//! `1 × k`-kernel case), 1-D max pooling, adaptive max pooling fused with the
//! convolution and ReLU before it, plus ReLU, bias, concatenation,
//! dropout, log-softmax and the negative log-likelihood loss of Eq. (5).
//! Two more ops, `mul` and `scale_rows`, serve the tests' references.
//! The model-facing ops all run over a block-diagonal mini-batch; a
//! single graph is a batch of one.
//!
//! # Example
//!
//! ```
//! use magic_autograd::Tape;
//! use magic_tensor::Tensor;
//!
//! let mut tape = Tape::new();
//! let x = tape.leaf(Tensor::from_rows(&[&[1.0, 2.0]]), true);
//! let w = tape.leaf(Tensor::from_rows(&[&[3.0], &[4.0]]), true);
//! let y = tape.matmul(x, w);
//! let loss = tape.sum(y);
//! tape.backward(loss);
//! // d(x@w)/dw = x^T
//! assert_eq!(tape.grad(w).unwrap().as_slice(), &[1.0, 2.0]);
//! ```

mod check;
mod conv;
pub mod profile;
mod tape;

pub use check::{finite_difference_gradient, first_bitwise_mismatch, max_grad_error};
pub use conv::conv2d_shape;
pub use profile::{OpKey, OpProfile, OpStat};
pub use tape::{Tape, Var};
