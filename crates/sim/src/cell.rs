//! The per-cell cost context.
//!
//! The paper tunes by exhaustive search: every meaningful configuration
//! of every (platform, setup, instance) *cell* is priced (Section IV-A).
//! A price depends on four things, each varying slower than the next:
//!
//! | level | what it fixes | worked out |
//! |-------|---------------|------------|
//! | device | limits, line size, bandwidth, ceilings | [`DeviceDescriptor`] fields |
//! | cell | largest gradient, whether it is monotone, noise key through `trials` | once, in [`Cell::new`] |
//! | tile shape | input lines one work-group reads | once per shape, [`Cell::tile_lines`] |
//! | configuration | grid, occupancy, ceiling, noise | per configuration, [`Cell::price`] |
//!
//! Only the cell and shape levels read the workload's channels — the
//! cell level in one pass, the shape level one probe per run of equal
//! terms on a monotone gradient — so a sweep that builds one [`Cell`]
//! and prices each distinct tile shape once never touches the gradient
//! per configuration. The free
//! functions ([`crate::check_config`], [`crate::Occupancy::compute`],
//! [`crate::TrafficEstimate::estimate`], [`crate::CostModel::evaluate`])
//! are the one-configuration case: each builds a context and asks it —
//! there is no second copy of any formula.
//!
//! The derived values live here and not in [`Workload`] because its
//! fields are public and `Deserialize`: a cached maximum could go stale
//! behind a `gradient` edit, while a context borrows the workload and so
//! cannot outlive a change to it.

use crate::device::DeviceDescriptor;
use crate::workload::Workload;

/// Everything a price on one (device, workload) cell depends on that a
/// configuration does not.
#[derive(Debug, Clone, Copy)]
pub struct Cell<'a> {
    pub(crate) device: &'a DeviceDescriptor,
    pub(crate) workload: &'a Workload,
    /// [`Workload::max_gradient`], folded once.
    pub(crate) max_gradient: f64,
    /// Whether the gradient never rises or never falls along the
    /// channels (no NaN): then equal [`Cell::tile_lines`] terms sit in
    /// runs of adjacent channels.
    pub(crate) monotone: bool,
    /// The [`crate::noise::time_multiplier`] key hashed through `trials`;
    /// `None` prices exactly.
    pub(crate) noise_key: Option<u64>,
}

impl<'a> Cell<'a> {
    /// The noise-free context of `workload` on `device`: what the
    /// constraint, occupancy and traffic questions need. Prices asked of
    /// it are those of [`crate::CostModel::exact`]; use
    /// [`crate::CostModel::cell`] for a model's own.
    ///
    /// Costs one pass over the workload's channels, which folds the
    /// largest gradient and notes whether the gradient is monotone.
    pub fn new(device: &'a DeviceDescriptor, workload: &'a Workload) -> Self {
        let mut max_gradient = 0.0;
        let (mut rising, mut falling) = (true, true);
        let mut prev = workload.gradient.first().copied().unwrap_or_default();
        for &g in &workload.gradient {
            // The same fold as `Workload::max_gradient`, bit for bit.
            max_gradient = f64::max(max_gradient, g);
            rising &= prev <= g;
            falling &= prev >= g;
            prev = g;
        }
        Self {
            device,
            workload,
            max_gradient,
            monotone: rising || falling,
            noise_key: None,
        }
    }

    /// The device this cell prices on.
    pub fn device(&self) -> &'a DeviceDescriptor {
        self.device
    }

    /// The workload this cell prices.
    pub fn workload(&self) -> &'a Workload {
        self.workload
    }
}
