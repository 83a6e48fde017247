//! The four user-controlled kernel parameters (paper, Section III-B).
//!
//! The parallel dedispersion kernel assigns each work-item a (DM, time)
//! pair and groups work-items into two-dimensional work-groups. Its
//! structure is instantiated from four parameters:
//!
//! * `wi_time`, `wi_dm` — work-items per work-group along the time and DM
//!   dimensions, controlling the amount of available parallelism;
//! * `el_time`, `el_dm` — elements computed per work-item along each
//!   dimension, controlling the amount of work (and register pressure)
//!   per work-item.
//!
//! A work-group therefore computes a tile of `wi_dm·el_dm` trial DMs by
//! `wi_time·el_time` time samples, its work-items cooperating through
//! local memory to load each input element once per tile. The paper's
//! "registers per work-item" metric (Figures 4 and 5) is the number of
//! per-item accumulators, `el_time × el_dm`.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::{DedispError, Result};

/// A concrete instantiation of the four tunable kernel parameters.
///
/// Every value went through [`KernelConfig::new`] — deserializing
/// included — so the four products the accessors return fit a `u32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct KernelConfig {
    wi_time: u32,
    wi_dm: u32,
    el_time: u32,
    el_dm: u32,
}

impl KernelConfig {
    /// Creates a configuration; all four parameters must be non-zero,
    /// and the work-group size, the tile's two sides and the per-item
    /// accumulator count must each fit a `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`DedispError::InvalidParameter`] if any parameter is
    /// zero or any of those products overflows.
    pub fn new(wi_time: u32, wi_dm: u32, el_time: u32, el_dm: u32) -> Result<Self> {
        for (name, v) in [
            ("wi_time", wi_time),
            ("wi_dm", wi_dm),
            ("el_time", el_time),
            ("el_dm", el_dm),
        ] {
            if v == 0 {
                return Err(DedispError::invalid(name, "must be non-zero"));
            }
        }
        for (name, a, b) in [
            ("work_items", wi_time, wi_dm),
            ("tile_time", wi_time, el_time),
            ("tile_dm", wi_dm, el_dm),
            ("registers_per_item", el_time, el_dm),
        ] {
            if a.checked_mul(b).is_none() {
                return Err(DedispError::invalid(
                    name,
                    format!("{a} x {b} overflows u32"),
                ));
            }
        }
        Ok(Self {
            wi_time,
            wi_dm,
            el_time,
            el_dm,
        })
    }

    /// The trivial configuration: one work-item computes one output
    /// element, work-groups of a single item. Always valid; the
    /// one-dimensional organization is a special case of the
    /// two-dimensional one (paper, Section III-B).
    pub fn scalar() -> Self {
        Self {
            wi_time: 1,
            wi_dm: 1,
            el_time: 1,
            el_dm: 1,
        }
    }

    /// Work-items per work-group along the time dimension.
    #[inline]
    pub fn wi_time(&self) -> u32 {
        self.wi_time
    }

    /// Work-items per work-group along the DM dimension.
    #[inline]
    pub fn wi_dm(&self) -> u32 {
        self.wi_dm
    }

    /// Elements computed per work-item along the time dimension.
    #[inline]
    pub fn el_time(&self) -> u32 {
        self.el_time
    }

    /// Elements computed per work-item along the DM dimension.
    #[inline]
    pub fn el_dm(&self) -> u32 {
        self.el_dm
    }

    /// Total work-items per work-group (the quantity plotted in the
    /// paper's Figures 2 and 3).
    #[inline]
    pub fn work_items(&self) -> u32 {
        self.wi_time * self.wi_dm
    }

    /// Per-work-item accumulator registers, `el_time × el_dm` (the
    /// quantity plotted in the paper's Figures 4 and 5).
    #[inline]
    pub fn registers_per_item(&self) -> u32 {
        self.el_time * self.el_dm
    }

    /// Time samples covered by one work-group's tile.
    #[inline]
    pub fn tile_time(&self) -> u32 {
        self.wi_time * self.el_time
    }

    /// Trial DMs covered by one work-group's tile.
    #[inline]
    pub fn tile_dm(&self) -> u32 {
        self.wi_dm * self.el_dm
    }

    /// Output elements computed by one work-group.
    #[inline]
    pub fn tile_elements(&self) -> u64 {
        u64::from(self.tile_time()) * u64::from(self.tile_dm())
    }

    /// Checks the configuration against a problem of `samples` output
    /// samples and `trials` trial DMs: a tile must not exceed the problem
    /// in either dimension (otherwise part of the work-group is idle by
    /// construction, which the paper excludes as not meaningful).
    ///
    /// # Errors
    ///
    /// Returns [`DedispError::IncompatibleConfig`] on violation.
    pub fn validate_for(&self, samples: usize, trials: usize) -> Result<()> {
        if self.tile_time() as usize > samples {
            return Err(DedispError::incompatible(format!(
                "time tile of {} exceeds {} output samples",
                self.tile_time(),
                samples
            )));
        }
        if self.tile_dm() as usize > trials {
            return Err(DedispError::incompatible(format!(
                "DM tile of {} exceeds {} trials",
                self.tile_dm(),
                trials
            )));
        }
        Ok(())
    }

    /// Number of work-groups needed along (time, dm) for a problem of
    /// `samples` × `trials`, using ceiling division (partial tiles are
    /// clamped by the kernels).
    pub fn grid(&self, samples: usize, trials: usize) -> (usize, usize) {
        let t = samples.div_ceil(self.tile_time() as usize);
        let d = trials.div_ceil(self.tile_dm() as usize);
        (t, d)
    }
}

// Hand-written serde: the derive would build the struct field by field
// and let a zero (a divide by zero in `grid`) or an overflowing product
// in from a file or a wire frame. Same object shape as the derive's.
impl Deserialize for KernelConfig {
    fn from_value(value: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        let map = value
            .as_object()
            .ok_or_else(|| serde::DeError::new("expected object for KernelConfig"))?;
        let field = |name: &str| {
            u32::from_value(map.get(name).unwrap_or(&serde::Value::Null))
                .map_err(|e| e.context(&format!("KernelConfig.{name}")))
        };
        Self::new(
            field("wi_time")?,
            field("wi_dm")?,
            field("el_time")?,
            field("el_dm")?,
        )
        .map_err(|e| serde::DeError::new(format!("KernelConfig: {e}")))
    }
}

impl fmt::Display for KernelConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "wi={}x{} el={}x{}",
            self.wi_time, self.wi_dm, self.el_time, self.el_dm
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        // The paper's GTX 680 Apertif optimum: 32×32 work-items.
        let c = KernelConfig::new(32, 32, 4, 1).unwrap();
        assert_eq!(c.work_items(), 1024);
        assert_eq!(c.tile_time(), 128);
        assert_eq!(c.tile_dm(), 32);
        assert_eq!(c.registers_per_item(), 4);
        assert_eq!(c.tile_elements(), 128 * 32);
    }

    #[test]
    fn lofar_gtx680_shape() {
        // The paper's GTX 680 LOFAR optimum: 250×4 work-items.
        let c = KernelConfig::new(250, 4, 1, 1).unwrap();
        assert_eq!(c.work_items(), 1000);
    }

    #[test]
    fn k20_register_heavy_shape() {
        // The paper's K20/Titan Apertif register optimum: 25×4 elements.
        let c = KernelConfig::new(16, 8, 25, 4).unwrap();
        assert_eq!(c.registers_per_item(), 100);
    }

    #[test]
    fn scalar_is_identity_tile() {
        let c = KernelConfig::scalar();
        assert_eq!(c.work_items(), 1);
        assert_eq!(c.tile_elements(), 1);
        assert_eq!(c.registers_per_item(), 1);
        c.validate_for(1, 1).unwrap();
    }

    #[test]
    fn rejects_zero_parameters() {
        assert!(KernelConfig::new(0, 1, 1, 1).is_err());
        assert!(KernelConfig::new(1, 0, 1, 1).is_err());
        assert!(KernelConfig::new(1, 1, 0, 1).is_err());
        assert!(KernelConfig::new(1, 1, 1, 0).is_err());
    }

    #[test]
    fn rejects_overflowing_products() {
        // u32::MAX × 2 time samples used to wrap to 4,294,967,294.
        for (params, name) in [
            ((u32::MAX, 1, 2, 1), "tile_time"),
            ((u32::MAX, 2, 1, 1), "work_items"),
            ((1, 65_536, 1, 65_536), "tile_dm"),
            ((1, 1, 65_536, 65_536), "registers_per_item"),
        ] {
            let (wt, wd, et, ed) = params;
            match KernelConfig::new(wt, wd, et, ed) {
                Err(DedispError::InvalidParameter { name: got, .. }) => assert_eq!(got, name),
                other => panic!("{params:?}: {other:?}"),
            }
        }
        // The largest products that fit are fine.
        let c = KernelConfig::new(u32::MAX, 1, 1, 1).unwrap();
        assert_eq!(c.tile_time(), u32::MAX);
        assert!(KernelConfig::new(65_536, 65_535, 1, 1).is_ok());
    }

    #[test]
    fn deserializing_goes_through_new() {
        use serde::Value;
        let c = KernelConfig::new(32, 2, 4, 8).unwrap();
        assert_eq!(KernelConfig::from_value(&c.to_value()).unwrap(), c);
        // The scalar configuration's object with some fields replaced.
        let with = |fields: &[(&str, Value)]| {
            let Value::Object(mut map) = KernelConfig::scalar().to_value() else {
                unreachable!("a struct serializes as an object")
            };
            for (field, v) in fields {
                map.insert(field.to_string(), v.clone());
            }
            Value::Object(map)
        };
        let max = Value::UInt(u64::from(u32::MAX));
        for (bad, why) in [
            (with(&[("wi_time", Value::UInt(0))]), "wi_time"),
            (
                with(&[("wi_time", max), ("el_time", Value::UInt(2))]),
                "tile_time",
            ),
            (with(&[("el_dm", Value::Null)]), "el_dm"),
            (with(&[("wi_dm", Value::Int(-1))]), "wi_dm"),
            (Value::Array(vec![Value::UInt(1); 4]), "object"),
        ] {
            let err = KernelConfig::from_value(&bad).unwrap_err().to_string();
            assert!(err.contains(why), "{err}");
        }
    }

    #[test]
    fn validate_tile_against_problem() {
        let c = KernelConfig::new(8, 4, 2, 2).unwrap(); // tile 16 x 8
        assert!(c.validate_for(16, 8).is_ok());
        assert!(c.validate_for(15, 8).is_err());
        assert!(c.validate_for(16, 7).is_err());
    }

    #[test]
    fn grid_uses_ceiling_division() {
        let c = KernelConfig::new(8, 4, 2, 2).unwrap(); // tile 16 x 8
        assert_eq!(c.grid(16, 8), (1, 1));
        assert_eq!(c.grid(17, 8), (2, 1));
        assert_eq!(c.grid(160, 64), (10, 8));
        assert_eq!(c.grid(161, 65), (11, 9));
    }

    #[test]
    fn display_format() {
        let c = KernelConfig::new(32, 2, 4, 8).unwrap();
        assert_eq!(c.to_string(), "wi=32x2 el=4x8");
    }
}
