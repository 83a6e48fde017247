//! Fleet composition and per-device throughput resolution.
//!
//! A fleet is declared as groups of identical accelerators (paper
//! Table I descriptors, or anything else the model can evaluate). Before
//! scheduling, the fleet is *resolved* against a [`TuningDatabase`]: for
//! each distinct platform the optimal kernel configuration for the
//! survey's (setup, #DMs) instance is looked up — falling back to the
//! nearest tuned instance re-scored by the cost model, or to a fresh
//! auto-tuning run when the platform was never tuned at all. A group may
//! instead carry a measured rate ([`RateSource::Measured`]). The result
//! assigns every physical device a sustained GFLOP/s rate and a
//! seconds-per-beam cost, which is all the scheduler needs; a fleet
//! that also offers alternate algorithms to demote to is built with
//! [`ResolvedFleet::synthetic_with_algorithms`].

use autotune::{ConfigSpace, SimExecutor, Tuner, TuningDatabase};
use dedisp_core::KernelConfig;
use manycore_sim::{Algorithm, CostModel, DeviceDescriptor, Workload};
use radioastro::{ObservationalSetup, RealtimeCheck};
use serde::{Deserialize, Serialize};
use std::fmt;

/// An error while resolving a fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetError {
    message: String,
}

impl FleetError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fleet error: {}", self.message)
    }
}

impl std::error::Error for FleetError {}

/// Where a device group's sustained rate comes from at resolution time.
///
/// The paper tunes on real accelerators; this reproduction usually
/// substitutes the analytic device model. A production fleet mixes
/// both: platforms that have been benchmarked for real carry a
/// *measured* rate (e.g. from [`autotune::host`]'s wall-clock
/// executor), everything else falls back to the model via the tuning
/// database.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateSource {
    /// Resolve the rate from the tuning database / analytic cost model.
    Modeled,
    /// Use a rate measured on the physical device, bypassing the model.
    Measured {
        /// Sustained GFLOP/s observed on the device.
        gflops: f64,
    },
}

/// A group of `count` identical devices.
#[derive(Debug, Clone)]
pub struct DeviceGroup {
    /// The device model all members share.
    pub descriptor: DeviceDescriptor,
    /// How many physical devices of this model the fleet has.
    pub count: usize,
    /// Where the group's brute-force rate comes from.
    pub rate: RateSource,
}

/// A declared (unresolved) fleet: heterogeneous groups of accelerators.
#[derive(Debug, Clone, Default)]
pub struct FleetSpec {
    groups: Vec<DeviceGroup>,
}

impl FleetSpec {
    /// An empty fleet.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fleet of `count` identical devices.
    pub fn homogeneous(descriptor: DeviceDescriptor, count: usize) -> Self {
        Self::new().with_group(descriptor, count)
    }

    /// Adds a group of `count` identical devices whose rate will be
    /// resolved from the tuning database / analytic model.
    #[must_use]
    pub fn with_group(self, descriptor: DeviceDescriptor, count: usize) -> Self {
        self.push_group(descriptor, count, RateSource::Modeled)
    }

    /// Adds a group of `count` identical devices at a measured
    /// sustained rate (GFLOP/s), bypassing the model.
    #[must_use]
    pub fn with_measured_group(
        self,
        descriptor: DeviceDescriptor,
        count: usize,
        gflops: f64,
    ) -> Self {
        self.push_group(descriptor, count, RateSource::Measured { gflops })
    }

    fn push_group(mut self, descriptor: DeviceDescriptor, count: usize, rate: RateSource) -> Self {
        self.groups.push(DeviceGroup {
            descriptor,
            count,
            rate,
        });
        self
    }

    /// The declared groups.
    pub fn groups(&self) -> &[DeviceGroup] {
        &self.groups
    }

    /// Total number of physical devices.
    pub fn device_count(&self) -> usize {
        self.groups.iter().map(|g| g.count).sum()
    }

    /// Resolves every device's kernel configuration and sustained rate
    /// for `trials` DMs under `setup`, consulting (and extending) `db`.
    ///
    /// A group declared with a measured [`RateSource`] uses its
    /// measured GFLOP/s directly (the database is neither consulted nor
    /// extended) under the unit `1 × 1 × 1 × 1` configuration. Modeled
    /// groups resolve per platform, in order of
    /// preference:
    ///
    /// 1. an exact `(platform, setup, trials)` tuple from `db`;
    /// 2. the nearest tuned instance ([`TuningDatabase::resolve`]),
    ///    whose configuration is re-scored by the analytic model on the
    ///    actual workload (and re-tuned if it is not even valid there);
    /// 3. a fresh exhaustive tuning run over `space`, whose optimum is
    ///    inserted into `db` for the next caller.
    ///
    /// # Errors
    ///
    /// Returns a [`FleetError`] if the fleet is empty, a measured rate
    /// is not finite and positive, the setup cannot form a workload for
    /// `trials`, or no valid configuration exists.
    pub fn resolve(
        &self,
        db: &mut TuningDatabase,
        setup: &ObservationalSetup,
        trials: usize,
        space: &ConfigSpace,
    ) -> Result<ResolvedFleet, FleetError> {
        if self.device_count() == 0 {
            return Err(FleetError::new("fleet has no devices"));
        }
        let grid = setup
            .dm_grid(trials)
            .map_err(|e| FleetError::new(format!("bad DM grid: {e}")))?;
        let workload = Workload::analytic(&setup.name, &setup.band, &grid, setup.sample_rate)
            .map_err(|e| FleetError::new(format!("bad workload: {e}")))?;
        let check = RealtimeCheck::for_setup(setup, trials);

        let mut devices = Vec::with_capacity(self.device_count());
        for group in &self.groups {
            let (config, gflops) = match group.rate {
                RateSource::Modeled => {
                    resolve_platform(db, &group.descriptor, setup, trials, &workload, space)?
                }
                RateSource::Measured { gflops } => {
                    if !(gflops.is_finite() && gflops > 0.0) {
                        return Err(FleetError::new(format!(
                            "measured rate for {} must be finite and positive, got {gflops}",
                            group.descriptor.name
                        )));
                    }
                    (KernelConfig::new(1, 1, 1, 1).expect("non-zero"), gflops)
                }
            };
            let seconds_per_beam = check.load_fraction(gflops);
            for _ in 0..group.count {
                let id = devices.len();
                devices.push(ResolvedDevice {
                    id,
                    name: format!("{} #{id}", group.descriptor.name),
                    platform: group.descriptor.name.clone(),
                    gflops,
                    config,
                    seconds_per_beam,
                    rates: vec![AlgorithmRate {
                        algorithm: Algorithm::BruteForce,
                        seconds_per_beam,
                    }],
                });
            }
        }
        Ok(ResolvedFleet {
            setup: setup.name.clone(),
            trials,
            devices,
        })
    }
}

/// Resolves one platform's `(config, gflops)` for the instance.
fn resolve_platform(
    db: &mut TuningDatabase,
    descriptor: &DeviceDescriptor,
    setup: &ObservationalSetup,
    trials: usize,
    workload: &Workload,
    space: &ConfigSpace,
) -> Result<(KernelConfig, f64), FleetError> {
    let model = CostModel::exact(descriptor.clone());
    if let Some((tuned_at, entry)) = db.resolve(&descriptor.name, &setup.name, trials) {
        if tuned_at == trials {
            return Ok((entry.config, entry.gflops));
        }
        // Nearby instance: keep its configuration but re-score it on the
        // workload actually being deployed.
        if let Ok(estimate) = model.evaluate(workload, &entry.config) {
            return Ok((entry.config, estimate.gflops));
        }
        // The borrowed configuration is not even valid here (e.g. its
        // tile exceeds the smaller problem): fall through to tuning.
    }
    let executor = SimExecutor::new(&model, workload, space);
    let result = Tuner.try_tune(&executor).ok_or_else(|| {
        FleetError::new(format!(
            "no meaningful configuration for {} on {} x{trials}",
            descriptor.name, setup.name
        ))
    })?;
    let (config, gflops) = (result.best_config(), result.best_gflops());
    db.insert(&descriptor.name, &setup.name, trials, config, gflops);
    Ok((config, gflops))
}

/// One resolved `(algorithm, seconds-per-beam)` row of a device's rate
/// table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlgorithmRate {
    /// The algorithm family this rate was resolved for.
    pub algorithm: Algorithm,
    /// Seconds to dedisperse one beam-second of data with it.
    pub seconds_per_beam: f64,
}

/// One physical device, ready to schedule onto.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResolvedDevice {
    /// Fleet-wide device index.
    pub id: usize,
    /// Unique instance name, e.g. `"AMD HD7970 #3"`.
    pub name: String,
    /// Platform (device model) name shared by the group.
    pub platform: String,
    /// Sustained throughput on this instance, GFLOP/s (primary
    /// algorithm).
    pub gflops: f64,
    /// The kernel configuration achieving it.
    pub config: KernelConfig,
    /// Seconds to dedisperse one beam-second of data on the primary
    /// algorithm (`rates[0]`).
    pub seconds_per_beam: f64,
    /// The full per-algorithm rate table, primary first, in fidelity
    /// order. A resolved [`FleetSpec`] gives each device its one
    /// brute-force row; alternates come from
    /// [`ResolvedFleet::synthetic_with_algorithms`].
    pub rates: Vec<AlgorithmRate>,
}

impl ResolvedDevice {
    /// Beams this device can sustain in real time (⌊period /
    /// seconds-per-beam⌋ with a one-second period) — one term of the
    /// §V-D capacity sum.
    pub fn beams_capacity(&self) -> usize {
        if self.seconds_per_beam > 0.0 {
            (1.0 / self.seconds_per_beam).floor() as usize
        } else {
            0
        }
    }
}

/// A fleet with every device's throughput resolved.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResolvedFleet {
    /// Observational setup name the resolution targeted.
    pub setup: String,
    /// Trial DMs per beam.
    pub trials: usize,
    /// The devices, ids `0..len`.
    pub devices: Vec<ResolvedDevice>,
}

impl ResolvedFleet {
    /// A fleet built directly from per-device beam costs, bypassing
    /// tuning — for tests and benchmarks of the scheduler itself.
    pub fn synthetic(trials: usize, seconds_per_beam: &[f64]) -> Self {
        let tables: Vec<[(Algorithm, f64); 1]> = seconds_per_beam
            .iter()
            .map(|&spb| [(Algorithm::BruteForce, spb)])
            .collect();
        let tables: Vec<&[(Algorithm, f64)]> = tables.iter().map(|t| &t[..]).collect();
        Self::synthetic_with_algorithms(trials, &tables)
    }

    /// A synthetic fleet with a full per-algorithm rate table per
    /// device, bypassing tuning — for tests and harnesses of the
    /// algorithm ladder. Each device's first `(algorithm, spb)` entry
    /// is its primary.
    ///
    /// # Panics
    ///
    /// Panics if any device declares an empty table.
    pub fn synthetic_with_algorithms(trials: usize, devices: &[&[(Algorithm, f64)]]) -> Self {
        let devices = devices
            .iter()
            .enumerate()
            .map(|(id, table)| {
                assert!(!table.is_empty(), "device {id} declares no rates");
                let spb = table[0].1;
                ResolvedDevice {
                    id,
                    name: format!("synthetic #{id}"),
                    platform: "synthetic".to_string(),
                    gflops: if spb > 0.0 { 1.0 / spb } else { f64::INFINITY },
                    config: KernelConfig::new(1, 1, 1, 1).expect("non-zero"),
                    seconds_per_beam: spb,
                    rates: table
                        .iter()
                        .map(|&(algorithm, seconds_per_beam)| AlgorithmRate {
                            algorithm,
                            seconds_per_beam,
                        })
                        .collect(),
                }
            })
            .collect();
        Self {
            setup: "synthetic".to_string(),
            trials,
            devices,
        }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Beams the whole fleet can sustain in real time (Σ per-device
    /// ⌊period / seconds-per-beam⌋ with a one-second period) — the
    /// §V-D capacity arithmetic applied device by device.
    pub fn beams_capacity(&self) -> usize {
        self.devices
            .iter()
            .map(ResolvedDevice::beams_capacity)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manycore_sim::amd_hd7970;

    #[test]
    fn synthetic_fleet_capacity() {
        let fleet = ResolvedFleet::synthetic(100, &[0.106, 0.25, 2.0]);
        assert_eq!(fleet.len(), 3);
        // 9 + 4 + 0 beams.
        assert_eq!(fleet.beams_capacity(), 13);
        assert_eq!(fleet.devices[1].id, 1);
    }

    #[test]
    fn empty_fleet_is_an_error() {
        let mut db = TuningDatabase::new();
        let err = FleetSpec::new().resolve(
            &mut db,
            &ObservationalSetup::apertif(),
            64,
            &ConfigSpace::reduced(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn a_space_with_no_meaningful_configuration_is_an_error_not_a_panic() {
        // 4,096 work-items exceed every device's work-group limit.
        let space = ConfigSpace {
            wi_time: vec![4096],
            wi_dm: vec![1],
            el_time: vec![1],
            el_dm: vec![1],
        };
        let mut db = TuningDatabase::new();
        let err = FleetSpec::homogeneous(amd_hd7970(), 2)
            .resolve(&mut db, &ObservationalSetup::apertif(), 64, &space)
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "fleet error: no meaningful configuration for AMD HD7970 on Apertif x64"
        );
        assert!(db.is_empty(), "nothing was tuned, nothing is stored");
    }

    #[test]
    fn resolution_tunes_once_then_reuses_the_database() {
        let mut db = TuningDatabase::new();
        let setup = ObservationalSetup::apertif();
        let space = ConfigSpace::reduced();
        let spec = FleetSpec::homogeneous(amd_hd7970(), 3);
        let fleet = spec.resolve(&mut db, &setup, 64, &space).unwrap();
        assert_eq!(fleet.len(), 3);
        // One platform, one instance: exactly one stored tuple.
        assert_eq!(db.len(), 1);
        let first = fleet.devices[0].clone();
        assert!(first.gflops > 0.0 && first.seconds_per_beam > 0.0);
        // All group members share the resolution.
        assert_eq!(fleet.devices[1].config, first.config);
        // Resolving again hits the database and changes nothing.
        let again = spec.resolve(&mut db, &setup, 64, &space).unwrap();
        assert_eq!(db.len(), 1);
        assert_eq!(again.devices[0].config, first.config);
        assert!((again.devices[0].gflops - first.gflops).abs() < 1e-12);
    }

    #[test]
    fn nearest_instance_is_rescored_not_retuned() {
        let mut db = TuningDatabase::new();
        let setup = ObservationalSetup::apertif();
        let space = ConfigSpace::reduced();
        let spec = FleetSpec::homogeneous(amd_hd7970(), 1);
        // Tune at 64, then resolve 128: the 64-DM optimum is borrowed.
        spec.resolve(&mut db, &setup, 64, &space).unwrap();
        let fleet = spec.resolve(&mut db, &setup, 128, &space).unwrap();
        assert_eq!(db.len(), 1, "no second tuple inserted");
        let (_, entry) = db.resolve("AMD HD7970", "Apertif", 128).unwrap();
        assert_eq!(fleet.devices[0].config, entry.config);
        // Re-scored on the larger workload, not copied verbatim.
        assert!(fleet.devices[0].gflops > 0.0);
    }

    #[test]
    fn measured_and_modeled_groups_mix_in_one_fleet() {
        let mut db = TuningDatabase::new();
        let setup = ObservationalSetup::apertif();
        let space = ConfigSpace::reduced();
        // The paper's §V-D HD7970 measurement: 0.106 s per 2,000-DM
        // beam-second. Declare it as a measured rate alongside a
        // modeled K20 group.
        let check = radioastro::RealtimeCheck::for_setup(&setup, 2000);
        let measured_gflops = check.required_gflops / 0.106;
        let spec = FleetSpec::new()
            .with_measured_group(amd_hd7970(), 2, measured_gflops)
            .with_group(manycore_sim::nvidia_k20(), 1);
        let fleet = spec.resolve(&mut db, &setup, 2000, &space).unwrap();
        assert_eq!(fleet.len(), 3);
        // Only the modeled platform touched the tuning database.
        assert_eq!(db.len(), 1);
        assert!(db.resolve("AMD HD7970", "Apertif", 2000).is_none());
        // Measured devices carry exactly the measured rate...
        assert!((fleet.devices[0].gflops - measured_gflops).abs() < 1e-12);
        // ...and the seconds-per-beam it implies.
        assert!((fleet.devices[0].seconds_per_beam - 0.106).abs() < 1e-9);
        // The modeled device got a genuine tuning result instead.
        assert!(fleet.devices[2].gflops > 0.0);
        assert!(fleet.devices[2].gflops != measured_gflops);
    }

    #[test]
    fn non_positive_measured_rate_is_an_error() {
        for gflops in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut db = TuningDatabase::new();
            let err = FleetSpec::new()
                .with_measured_group(amd_hd7970(), 1, gflops)
                .resolve(
                    &mut db,
                    &ObservationalSetup::apertif(),
                    64,
                    &ConfigSpace::reduced(),
                )
                .unwrap_err();
            assert!(err.to_string().contains("finite and positive"), "{err}");
        }
    }

    #[test]
    fn single_entry_tables_resolve_exactly_as_the_scalar_did() {
        // The rate-table refactor must be invisible until a second row
        // is declared: one brute-force row whose spb equals the scalar.
        let fleet = ResolvedFleet::synthetic(100, &[0.106, 0.25]);
        for d in &fleet.devices {
            assert_eq!(d.rates.len(), 1);
            assert_eq!(d.rates[0].algorithm, Algorithm::BruteForce);
            assert_eq!(d.rates[0].seconds_per_beam, d.seconds_per_beam);
        }
    }

    #[test]
    fn synthetic_with_algorithms_builds_the_declared_table() {
        let fleet = ResolvedFleet::synthetic_with_algorithms(
            2000,
            &[
                &[
                    (Algorithm::BruteForce, 0.106),
                    (Algorithm::Subband { factor: 32 }, 0.02),
                ],
                &[(Algorithm::BruteForce, 0.25)],
            ],
        );
        assert_eq!(fleet.devices[0].rates.len(), 2);
        assert_eq!(fleet.devices[0].seconds_per_beam, 0.106);
        assert_eq!(
            fleet.devices[0].rates[1].algorithm,
            Algorithm::Subband { factor: 32 }
        );
        assert_eq!(fleet.devices[1].rates.len(), 1);
    }

    #[test]
    fn heterogeneous_groups_get_distinct_rates() {
        let mut db = TuningDatabase::new();
        let setup = ObservationalSetup::apertif();
        let space = ConfigSpace::reduced();
        let spec = FleetSpec::new()
            .with_group(amd_hd7970(), 2)
            .with_group(manycore_sim::nvidia_k20(), 2);
        let fleet = spec.resolve(&mut db, &setup, 64, &space).unwrap();
        assert_eq!(fleet.len(), 4);
        assert_eq!(db.len(), 2);
        assert!(fleet.devices[0].gflops != fleet.devices[2].gflops);
        assert_eq!(fleet.devices[3].platform, "NVIDIA K20");
    }
}
