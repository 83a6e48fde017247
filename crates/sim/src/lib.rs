//! # manycore-sim — analytic performance model of many-core accelerators
//!
//! The paper runs its OpenCL dedispersion kernel on five accelerators
//! (Table I): an AMD HD7970, an Intel Xeon Phi 5110P, and three NVIDIA
//! GPUs (GTX 680, K20, GTX Titan). Real devices of that generation are
//! not available to this reproduction, so this crate substitutes an
//! *analytic execution model* of the same five devices — the substrate on
//! which the auto-tuning experiments run.
//!
//! The model implements the first-order performance physics the paper
//! reasons with:
//!
//! * **Memory traffic** ([`traffic`]): cache-line-granular coalesced
//!   loads, the ≤ 2× misalignment overhead of delayed reads
//!   (Section III-B), per-channel tile spans widened by the delay spread
//!   across the tile's trial DMs (the data-reuse mechanism), aligned
//!   coalesced writes, and a mostly-cached delay table.
//! * **Occupancy** ([`occupancy`]): concurrent work-groups per compute
//!   unit limited by the register file, local memory, work-group slots
//!   and wavefront slots; SIMD-width rounding of work-groups.
//! * **Latency hiding** ([`cost`]): utilization grows with active
//!   wavefronts (TLP) and per-item unrolled accumulators (ILP/MLP) until
//!   the device saturates — producing the paper's better-than-linear
//!   scaling at small instances and plateau at large ones.
//! * **Compute ceiling** ([`cost`]): dedispersion cannot use fused
//!   multiply-adds, capping it at 50% of peak before per-element
//!   addressing overhead (Section VI).
//!
//! A sweep over one (device, workload) cell prices through a [`Cell`]
//! ([`cell`]): the context that works out once what no configuration
//! changes. The per-question entry points ([`check_config`],
//! [`Occupancy::compute`], [`TrafficEstimate::estimate`],
//! [`CostModel::evaluate`]) are that context asked one question.
//!
//! Device-specific runtime-maturity factors (e.g. the Xeon Phi's immature
//! OpenCL stack, Section V-D) are explicit named constants in
//! [`presets`]. They are calibrated once against the paper's reported
//! performance plateaus; every experiment is then *regenerated* from the
//! model, not hard-coded.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod algorithm;
pub mod cell;
pub mod constraints;
pub mod cost;
pub mod device;
pub mod noise;
pub mod occupancy;
pub mod presets;
pub mod traffic;
pub mod transfer;
pub mod workload;

pub use algorithm::{Algorithm, FFT_FLOP_PER_POINT, MAX_SUBBANDS, PHASE_FLOP_PER_POINT};
pub use cell::Cell;
pub use constraints::{check_config, ConfigViolation};
pub use cost::{BoundKind, CostEstimate, CostModel};
pub use device::{DeviceDescriptor, Vendor};
pub use occupancy::{Occupancy, OccupancyLimit};
pub use presets::{
    all_devices, amd_hd7970, intel_xeon_phi_5110p, nvidia_gtx680, nvidia_gtx_titan, nvidia_k20,
};
pub use traffic::TrafficEstimate;
pub use transfer::{Interconnect, TransferEstimate, PCIE2_X16, PCIE3_X16};
pub use workload::Workload;
