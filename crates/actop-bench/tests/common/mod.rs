//! Helpers shared by the integration tests.

use actop_core::RunSummary;

/// Every `RunSummary` field as exact bits, so float equality is checked
/// bit-for-bit rather than within an epsilon (counts widen to `f64`
/// exactly).
pub fn summary_bits(s: &RunSummary) -> Vec<u64> {
    s.fields().iter().map(|&(_, v)| v.to_bits()).collect()
}
