//! Shards as supervised child processes.
//!
//! Everything the grid needs to run a shard *outside* its own address
//! space, without the rest of the system noticing:
//!
//! * [`frame`] — the length-prefixed, checksummed framing layer that
//!   carries JSON messages over a pipe and fails loudly (never
//!   silently, never by panicking) on truncation or corruption;
//! * [`protocol`] — the typed conversation: one [`ShardSpec`] in, a
//!   stream of [`ShardFrame::Batch`] telemetry out, one terminal
//!   [`ShardFrame::Ledger`] (or [`ShardFrame::Fatal`]);
//! * [`child`] — the child entry point ([`serve_stdio`]), whose only
//!   input is its spec, plus the chaos self-kill that makes crash
//!   testing *real* (`kill -9`, not a simulated flap);
//! * [`supervisor`] — process ownership: per-frame liveness deadlines,
//!   bounded restart with exponential backoff, chaos on the first
//!   attempt only, deterministic frame-replay dedupe, and graceful
//!   degradation to in-thread execution.
//!
//! The seam the rest of the crate sees is
//! [`crate::grid::ShardBackend`]: `InThread` keeps every existing
//! code path byte-identical, `Process` swaps each shard's scoped
//! thread for a supervised child without changing a single ledger.

pub mod child;
pub mod frame;
pub mod protocol;
pub mod supervisor;

pub use child::{serve, serve_stdio};
pub use frame::{write_frame, write_msg, FrameError, FrameReader};
pub use protocol::{ChaosSpec, ShardFrame, ShardLedger, ShardSpec};
pub use supervisor::{
    run_shard_traced, ProcAttempt, ProcConfig, ProcGridLedger, ProcOutcome, ProcShardLedger,
};
