//! Correctness tooling for the subset3d workspace.
//!
//! Five independent layers, each attacking a different failure class of
//! the optimized pipeline (see `DESIGN.md`, *Correctness tooling*):
//!
//! 1. **Differential oracle** ([`oracle`]) — runs the deliberately naive
//!    reference model in [`subset3d_gpusim::reference`] side by side with
//!    the columnar, parallel [`subset3d_gpusim::Simulator`] and compares
//!    every `f64` **bitwise**. Catches batching and prepared-draw slips,
//!    non-deterministic parallel reductions and accidental formula edits
//!    at the first differing bit.
//! 2. **Metamorphic invariants** ([`metamorphic`]) — reusable checkers for
//!    properties the model must satisfy for *any* workload (frequency
//!    monotonicity, sweep-session memo transparency, permutation and
//!    relabeling invariance). Returning `Result<(), String>`, they slot into both
//!    plain `#[test]`s and `proptest!` properties.
//! 3. **Golden snapshots** ([`golden`]) — end-to-end pipeline runs
//!    serialised to committed JSON under `tests/golden/`; any byte of
//!    drift names the first divergent field. Regenerate deliberately with
//!    `UPDATE_GOLDEN=1`.
//! 4. **Streaming oracle** ([`streaming`]) — drains corpora through
//!    `subset3d-serve` sessions and holds the result to the batch
//!    pipeline's output: bit-identical while the stream fits the session
//!    reservoir (at any chunk size and thread count), bounded error-bound
//!    drift once the reservoir overflows.
//! 5. **Frozen references** ([`reference`]) — the scalar leader scan,
//!    medoid and canonical presort over one `Vec<f64>` per point, and the
//!    column-at-a-time feature normaliser, frozen as the bit-for-bit
//!    references of the production lane-block kernel and one-pass
//!    normaliser.
//!
//! [`corpus`] supplies the fixed-seed workloads every layer runs against.

#![warn(missing_docs)]

pub mod corpus;
pub mod golden;
pub mod metamorphic;
pub mod oracle;
pub mod reference;
pub mod streaming;
