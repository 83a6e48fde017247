//! Persistent tuning results.
//!
//! The output of the paper's first experiment is "a set of tuples
//! representing the optimal configuration of the algorithm's parameters;
//! there is a tuple for every combination of platform, observational
//! setup and input instance" (Section IV-A). Production pipelines ship
//! exactly such files. [`TuningDatabase`] is that artifact: store tuned
//! optima, serialize to JSON, and look configurations up — falling back
//! to the nearest smaller instance when the exact one was never tuned
//! (configurations stay valid when the problem grows, not when it
//! shrinks).

use std::collections::BTreeMap;

use dedisp_core::KernelConfig;
use serde::{Deserialize, Serialize};

/// One stored optimum.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TunedEntry {
    /// The optimal configuration.
    pub config: KernelConfig,
    /// Its score when tuned, GFLOP/s.
    pub gflops: f64,
}

/// Key: platform and setup names (instance count is the inner map key).
fn key(platform: &str, setup: &str) -> String {
    format!("{platform}\u{1f}{setup}")
}

/// Why [`TuningDatabase::from_json`] refused a file.
#[derive(Debug)]
pub enum DatabaseError {
    /// Not JSON, or not a database's shape — a configuration that
    /// [`KernelConfig::new`] rejects included.
    Json(serde_json::Error),
    /// A key that is not a platform and a setup name joined by exactly
    /// one U+001F.
    Key(String),
    /// A stored score that is not a finite, positive GFLOP/s.
    Gflops {
        /// The entry's key.
        key: String,
        /// The entry's instance.
        trials: usize,
        /// The score read (non-finite scores are written as `null` and
        /// read back as NaN).
        gflops: f64,
    },
}

impl std::fmt::Display for DatabaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatabaseError::Json(e) => write!(f, "tuning database: {e}"),
            DatabaseError::Key(key) => {
                write!(f, "tuning database: key {key:?} is not platform\\u{{1f}}setup")
            }
            DatabaseError::Gflops {
                key,
                trials,
                gflops,
            } => write!(
                f,
                "tuning database: {key:?} x{trials} scores {gflops} GFLOP/s, not a finite positive rate"
            ),
        }
    }
}

impl std::error::Error for DatabaseError {}

/// A persistent store of tuned optima.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TuningDatabase {
    // platform␟setup → trials → entry. BTreeMaps keep serialization
    // stable and make nearest-instance lookups ordered.
    entries: BTreeMap<String, BTreeMap<usize, TunedEntry>>,
}

impl TuningDatabase {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an optimum for `(platform, setup, trials)`. Neither name
    /// may contain U+001F, the key separator: [`Self::from_json`]
    /// refuses such a key.
    pub fn insert(
        &mut self,
        platform: &str,
        setup: &str,
        trials: usize,
        config: KernelConfig,
        gflops: f64,
    ) {
        self.entries
            .entry(key(platform, setup))
            .or_default()
            .insert(trials, TunedEntry { config, gflops });
    }

    /// Exact lookup.
    pub fn get(&self, platform: &str, setup: &str, trials: usize) -> Option<TunedEntry> {
        self.entries
            .get(&key(platform, setup))
            .and_then(|m| m.get(&trials))
            .copied()
    }

    /// Lookup with fallback: the entry for the largest tuned instance
    /// not exceeding `trials` (whose tile necessarily fits the larger
    /// problem). Returns the instance actually matched.
    pub fn get_nearest(
        &self,
        platform: &str,
        setup: &str,
        trials: usize,
    ) -> Option<(usize, TunedEntry)> {
        self.entries.get(&key(platform, setup)).and_then(|m| {
            m.range(..=trials)
                .next_back()
                .map(|(&t, &entry)| (t, entry))
        })
    }

    /// Total lookup: like [`TuningDatabase::get_nearest`], but when no
    /// tuned instance is small enough it falls back *upward* to the
    /// smallest tuned instance above `trials` (its configuration may
    /// over-tile the smaller problem, but remains a sane starting point
    /// and its throughput a usable estimate). Returns `None` only when
    /// `(platform, setup)` has no entries at all, which makes fleet
    /// lookups total for any platform that has been tuned at least once.
    pub fn resolve(
        &self,
        platform: &str,
        setup: &str,
        trials: usize,
    ) -> Option<(usize, TunedEntry)> {
        let m = self.entries.get(&key(platform, setup))?;
        m.range(..=trials)
            .next_back()
            .or_else(|| m.range(trials..).next())
            .map(|(&t, &entry)| (t, entry))
    }

    /// Number of stored tuples.
    pub fn len(&self) -> usize {
        self.entries.values().map(BTreeMap::len).sum()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes to pretty JSON.
    ///
    /// # Panics
    ///
    /// Panics only if serde_json fails on a plain map, which cannot
    /// happen for this type.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("plain maps always serialize")
    }

    /// Deserializes from JSON — the artifact a pipeline ships, so every
    /// entry is checked: a two-part key, a configuration
    /// [`KernelConfig::new`] accepts, a finite positive score.
    ///
    /// # Errors
    ///
    /// Returns the first malformed part as a [`DatabaseError`].
    pub fn from_json(json: &str) -> Result<Self, DatabaseError> {
        let db: Self = serde_json::from_str(json).map_err(DatabaseError::Json)?;
        for (key, instances) in &db.entries {
            if key.matches('\u{1f}').count() != 1 {
                return Err(DatabaseError::Key(key.clone()));
            }
            for (&trials, entry) in instances {
                if !(entry.gflops.is_finite() && entry.gflops > 0.0) {
                    return Err(DatabaseError::Gflops {
                        key: key.clone(),
                        trials,
                        gflops: entry.gflops,
                    });
                }
            }
        }
        Ok(db)
    }

    /// Iterates `(platform, setup, trials, entry)` over everything
    /// stored, in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, usize, TunedEntry)> + '_ {
        self.entries.iter().flat_map(|(k, m)| {
            // `insert` writes the separator and `from_json` checks it.
            let (platform, setup) = k.split_once('\u{1f}').expect("keys are two-part");
            m.iter()
                .map(move |(&trials, &entry)| (platform, setup, trials, entry))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(wt: u32, wd: u32) -> KernelConfig {
        KernelConfig::new(wt, wd, 1, 1).unwrap()
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut db = TuningDatabase::new();
        assert!(db.is_empty());
        db.insert("AMD HD7970", "Apertif", 1024, cfg(64, 4), 342.0);
        db.insert("AMD HD7970", "LOFAR", 1024, cfg(100, 2), 109.0);
        db.insert("NVIDIA K20", "Apertif", 1024, cfg(32, 1), 163.0);
        assert_eq!(db.len(), 3);
        let e = db.get("AMD HD7970", "Apertif", 1024).unwrap();
        assert_eq!(e.config, cfg(64, 4));
        assert_eq!(e.gflops, 342.0);
        assert!(db.get("AMD HD7970", "Apertif", 2048).is_none());
        assert!(db.get("Intel Xeon Phi 5110P", "Apertif", 1024).is_none());
    }

    #[test]
    fn nearest_falls_back_downward_only() {
        let mut db = TuningDatabase::new();
        db.insert("dev", "setup", 64, cfg(8, 2), 10.0);
        db.insert("dev", "setup", 1024, cfg(64, 4), 40.0);
        // Exact.
        assert_eq!(db.get_nearest("dev", "setup", 1024).unwrap().0, 1024);
        // Between: picks the largest not exceeding.
        assert_eq!(db.get_nearest("dev", "setup", 512).unwrap().0, 64);
        // Above everything: picks the largest stored.
        assert_eq!(db.get_nearest("dev", "setup", 4096).unwrap().0, 1024);
        // Below everything: nothing fits.
        assert!(db.get_nearest("dev", "setup", 32).is_none());
    }

    #[test]
    fn resolve_is_total_once_any_instance_is_tuned() {
        let mut db = TuningDatabase::new();
        db.insert("dev", "setup", 64, cfg(8, 2), 10.0);
        db.insert("dev", "setup", 1024, cfg(64, 4), 40.0);
        // Exact and downward matches agree with get_nearest.
        assert_eq!(db.resolve("dev", "setup", 1024).unwrap().0, 1024);
        assert_eq!(db.resolve("dev", "setup", 512).unwrap().0, 64);
        assert_eq!(db.resolve("dev", "setup", 4096).unwrap().0, 1024);
        // Below everything: falls back upward instead of failing.
        assert_eq!(db.resolve("dev", "setup", 32).unwrap().0, 64);
        assert_eq!(db.resolve("dev", "setup", 1).unwrap().0, 64);
        // Unknown pair: still None.
        assert!(db.resolve("dev", "other", 64).is_none());
        assert!(db.resolve("other", "setup", 64).is_none());
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let mut db = TuningDatabase::new();
        db.insert("A", "Apertif", 2, cfg(2, 1), 1.5);
        db.insert("A", "Apertif", 4096, cfg(256, 1), 300.25);
        db.insert("B", "LOFAR", 16, cfg(25, 2), 77.0);
        let back = TuningDatabase::from_json(&db.to_json()).unwrap();
        assert_eq!(back.len(), db.len());
        for (p, s, t, e) in db.iter() {
            let b = back.get(p, s, t).unwrap();
            assert_eq!(b.config, e.config);
            assert!((b.gflops - e.gflops).abs() < 1e-9);
        }
    }

    #[test]
    fn iter_is_deterministic_and_complete() {
        let mut db = TuningDatabase::new();
        db.insert("B", "LOFAR", 16, cfg(25, 2), 1.0);
        db.insert("A", "Apertif", 2, cfg(2, 1), 2.0);
        db.insert("A", "Apertif", 64, cfg(8, 4), 3.0);
        let items: Vec<_> = db
            .iter()
            .map(|(p, s, t, _)| (p.to_string(), s.to_string(), t))
            .collect();
        assert_eq!(
            items,
            vec![
                ("A".to_string(), "Apertif".to_string(), 2),
                ("A".to_string(), "Apertif".to_string(), 64),
                ("B".to_string(), "LOFAR".to_string(), 16),
            ]
        );
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(matches!(
            TuningDatabase::from_json("{not json"),
            Err(DatabaseError::Json(_))
        ));
    }

    /// A one-entry database file with `key`, `config` and `gflops`
    /// spliced in as raw JSON.
    fn file(key: &str, config: &str, gflops: &str) -> String {
        let key = key.replace('\u{1f}', "\\u001f");
        format!(
            r#"{{"entries": {{"{key}": {{"64": {{"config": {config}, "gflops": {gflops}}}}}}}}}"#
        )
    }

    const CONFIG: &str = r#"{"wi_time": 8, "wi_dm": 2, "el_time": 1, "el_dm": 1}"#;

    #[test]
    fn a_well_formed_file_loads() {
        let db = TuningDatabase::from_json(&file("dev\u{1f}setup", CONFIG, "10.5")).unwrap();
        assert_eq!(db.get("dev", "setup", 64).unwrap().config, cfg(8, 2));
    }

    #[test]
    fn a_key_without_a_separator_is_refused() {
        // It used to load, then panic `iter()` with "keys are two-part".
        let err = TuningDatabase::from_json(&file("devsetup", CONFIG, "10.5")).unwrap_err();
        assert!(
            matches!(&err, DatabaseError::Key(k) if k == "devsetup"),
            "{err}"
        );
    }

    #[test]
    fn a_key_with_two_separators_is_refused() {
        let key = "dev\u{1f}set\u{1f}up";
        let err = TuningDatabase::from_json(&file(key, CONFIG, "10.5")).unwrap_err();
        assert!(matches!(&err, DatabaseError::Key(k) if k == key), "{err}");
    }

    #[test]
    fn a_non_finite_score_is_refused() {
        // JSON has no NaN or infinity: a non-finite score is written as
        // `null`, and an out-of-range literal overflows to infinity.
        for gflops in ["null", "1e999"] {
            let err = TuningDatabase::from_json(&file("d\u{1f}s", CONFIG, gflops)).unwrap_err();
            assert!(
                matches!(err, DatabaseError::Gflops { trials: 64, gflops, .. } if !gflops.is_finite()),
                "{gflops}: {err}"
            );
        }
    }

    #[test]
    fn a_non_positive_score_is_refused() {
        for gflops in ["0", "-0.0", "-3.5"] {
            let err = TuningDatabase::from_json(&file("d\u{1f}s", CONFIG, gflops)).unwrap_err();
            assert!(
                matches!(err, DatabaseError::Gflops { .. }),
                "{gflops}: {err}"
            );
        }
    }

    #[test]
    fn a_zero_configuration_is_refused() {
        let zero = r#"{"wi_time": 0, "wi_dm": 2, "el_time": 1, "el_dm": 1}"#;
        let err = TuningDatabase::from_json(&file("d\u{1f}s", zero, "10.5")).unwrap_err();
        assert!(matches!(err, DatabaseError::Json(_)), "{err}");
        assert!(err.to_string().contains("wi_time"), "{err}");
    }
}
