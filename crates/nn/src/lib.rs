#![warn(missing_docs)]

//! Neural network building blocks for the MAGIC DGCNN reproduction.
//!
//! This crate layers on top of [`magic_autograd`]: it owns trainable
//! parameters (in a [`ParamStore`]), binds them onto a gradient [`Tape`]
//! for each forward pass, and provides the layers the paper's architecture
//! needs — [`Linear`], [`GraphConv`] (Eq. 1), [`SortPooling`],
//! [`WeightedVertices`] (Eq. 3–4), [`Conv1dLayer`], [`Conv2dLayer`],
//! [`AdaptiveMaxPool2d`] and [`Dropout`] — together with the [`Adam`]
//! optimizer and the reduce-on-plateau learning-rate schedule of
//! Section V-B.
//!
//! [`Tape`]: magic_autograd::Tape
//!
//! # Example
//!
//! ```
//! use magic_autograd::Tape;
//! use magic_nn::{Linear, ParamStore};
//! use magic_tensor::{Rng64, Tensor};
//!
//! let mut store = ParamStore::new();
//! let mut rng = Rng64::new(0);
//! let layer = Linear::new(&mut store, "fc", 4, 2, &mut rng);
//!
//! let mut tape = Tape::new();
//! let binding = store.bind(&mut tape);
//! let x = tape.leaf(Tensor::ones([3, 4]), false);
//! let y = layer.forward(&mut tape, &binding, x);
//! assert_eq!(tape.value(y).shape().dims(), &[3, 2]);
//! ```

mod init;
mod layers;
mod optim;
mod param;
mod sched;

pub use init::{he_uniform, xavier_uniform};
pub use layers::{
    augment_adjacency, AdaptiveMaxPool2d, Conv1dLayer, Conv2dLayer, Dropout, GraphConv, Linear,
    SortPooling, WeightedVertices,
};
pub use optim::Adam;
pub use param::{Binding, GradBuffer, ParamId, ParamStore, PartJob};
pub use sched::{ReduceLrOnPlateau, LR_DECAY_FACTOR};
