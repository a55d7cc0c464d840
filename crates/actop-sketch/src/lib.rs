//! Stream sketches for edge sampling (§4.3 of the paper).
//!
//! The partitioner must not store the full actor-communication graph: with
//! millions of actors the per-server edge table would dominate memory and
//! the "light" edges would never influence migration decisions anyway. Each
//! server instead keeps only its heaviest edges, maintained online with the
//! Space-Saving algorithm (Metwally, Agrawal, El Abbadi — ICDT 2005) applied
//! to the stream of observed `(source actor, target actor, weight)`
//! messages.

pub mod fxmap;
mod slot_index;
pub mod space_saving;

pub use fxmap::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use space_saving::{SketchEntry, SpaceSaving};
