//! # `idldp-stream` — online, sharded report aggregation
//!
//! The batch crates simulate a whole client population and estimate once;
//! a real ID-LDP deployment ingests perturbed reports *continuously*. This
//! crate is that online layer:
//!
//! * [`accumulator`] — [`ShapedAccumulator`]: mergeable, `Send` per-shard
//!   count state for one wire shape, picked from
//!   [`idldp_core::mechanism::Mechanism::report_shape`] (bit vectors for
//!   the unary-encoding family, values for GRR/matrix/PS, OLH
//!   `(seed, value)` pairs folded through the shared hash,
//!   subset-selection item sets), with an atomic batched fold.
//! * [`sharded`] — [`ShardedAccumulator`]: stripes the state across `N`
//!   independently locked shards with round-robin fan-out and exact
//!   merge-on-demand snapshots.
//! * [`source`] — [`SeededReportStream`]: the deterministic report stream
//!   sharing the batch pipeline's chunk/RNG grid ([`chunk_ranges`]), so
//!   streaming counts are bit-identical to a batch
//!   `SimulationPipeline::run` of the same `(mechanism, inputs, seed)`.
//! * [`topk`] — [`HeavyHitterTracker`]: online heavy-hitter identification
//!   over any sharded sink via the snapshot → prune → re-estimate loop;
//!   its final top-k is provably identical to the batch answer (see the
//!   module docs and `crates/sim/tests/topk_conformance.rs`).
//!
//! The server-side estimate path is *incremental*: freeze the shards into
//! an [`idldp_core::snapshot::AccumulatorSnapshot`], build the mechanism's
//! oracle for the snapshot's user count, and call
//! [`idldp_core::mechanism::FrequencyOracle::estimate_from`]. Snapshots
//! serialize to a stable checkpoint format, so an ingestion service can
//! restart mid-stream (`idldp ingest --checkpoint`).
//!
//! ```
//! use idldp_core::budget::Epsilon;
//! use idldp_core::grr::GeneralizedRandomizedResponse;
//! use idldp_core::mechanism::Mechanism;
//! use idldp_stream::{Report, ShapedAccumulator, ShardedAccumulator};
//!
//! // A GRR server accumulating categorical value reports over 4 shards.
//! let grr = GeneralizedRandomizedResponse::new(Epsilon::new(2.0).unwrap(), 5).unwrap();
//! let sink = ShardedAccumulator::new(ShapedAccumulator::for_mechanism(&grr), 4);
//! for value in [0usize, 3, 3, 1, 4, 3] {
//!     sink.push(Report::Value(value)).unwrap();
//! }
//! let snapshot = sink.snapshot();
//! let estimates = grr
//!     .frequency_oracle(snapshot.num_users())
//!     .estimate_from(&snapshot)
//!     .unwrap();
//! assert_eq!(estimates.len(), 5);
//! ```

#![deny(missing_docs)]

pub mod accumulator;
pub mod sharded;
pub mod source;
pub mod topk;

pub use accumulator::{Report, ShapedAccumulator};
pub use sharded::{ShardedAccumulator, DEFAULT_SHARDS};
pub use source::{chunk_ranges, SeededReportStream, DEFAULT_CHUNK_SIZE};
pub use topk::{Candidate, HeavyHitterTracker, TrackerMode, DEFAULT_CADENCE};
