//! Where one beam goes: the §V-D placement cascade, written once.
//!
//! A beam of `kept` trials on a device finishes at
//! `max(avail, release) + seconds_per_beam · kept/trials` and is on
//! time iff that is `≤ deadline + ε`. Placement is greedy
//! earliest-predicted-finish over the eligible devices, ties to the
//! lowest index — if per-device capacities sum to the batch, the
//! earliest-finish device can always take one more beam. A beam that
//! does not fit at its preferred level walks down the shed ladder; one
//! that fits nowhere runs in full and misses.
//!
//! The dispatcher places real beams with [`place_beam`], and both
//! planners ([`crate::AlgorithmLadder`]'s scoring and the coordinated
//! grid planner) predict a tick by playing its beams through the same
//! function, so "fits" has one definition. Callers differ only in the
//! eligibility predicate: the dispatcher also counts a probation
//! device whose canary slot is free, the fault-free planners count
//! [`DeviceCapacity::healthy`] alone.

use crate::admission::{DeviceCapacity, TierLadder, DEADLINE_EPS};

/// Where one beam goes, and at what level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Placement {
    /// Index of the chosen device.
    pub device: usize,
    /// Trial DMs the beam keeps.
    pub kept: usize,
    /// Predicted start: the later of the device draining and `release`.
    pub start: f64,
    /// Predicted finish.
    pub finish: f64,
    /// Whether `finish` meets the deadline. A beam that fits at no
    /// admissible level is placed in full (`kept` = every trial) with
    /// this false: it runs anyway and is reported as a miss.
    pub on_time: bool,
}

/// Places one beam released at `release` and due by `deadline`:
/// `preferred` kept trials first, then — with `cascade` — each deeper
/// level of `ladder`, else full resolution and a miss. `None` when no
/// device is eligible.
pub(crate) fn place_beam(
    devices: &[DeviceCapacity<'_>],
    eligible: impl Fn(usize, &DeviceCapacity<'_>) -> bool,
    ladder: &TierLadder,
    release: f64,
    deadline: f64,
    preferred: usize,
    cascade: bool,
) -> Option<Placement> {
    let trials = ladder.trials();
    let earliest = |kept: usize| {
        let frac = kept as f64 / trials as f64;
        let mut best: Option<Placement> = None;
        for (device, cap) in devices.iter().enumerate() {
            if !eligible(device, cap) {
                continue;
            }
            let start = cap.avail.max(release);
            let finish = start + cap.seconds_per_beam * frac;
            if best.is_none_or(|b| finish < b.finish) {
                best = Some(Placement {
                    device,
                    kept,
                    start,
                    finish,
                    on_time: finish <= deadline + DEADLINE_EPS,
                });
            }
        }
        best
    };
    let deeper = ladder.kept_options().iter().copied();
    std::iter::once(preferred)
        .chain(deeper.filter(|&kept| cascade && kept < preferred))
        .filter_map(&earliest)
        .find(|p| p.on_time)
        .or_else(|| earliest(trials))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1000 trials in 8 tiers of 125, at most 4 shed: 875/750/625/500.
    fn ladder() -> TierLadder {
        TierLadder::new(1000)
    }

    fn healthy(_: usize, cap: &DeviceCapacity<'_>) -> bool {
        cap.healthy
    }

    fn dev(avail: f64, spb: f64) -> DeviceCapacity<'static> {
        DeviceCapacity::new(avail, spb, true)
    }

    #[test]
    fn earliest_finish_wins_and_ties_go_to_the_lowest_index() {
        let l = ladder();
        // Devices 1 and 2 tie at 0.25; device 0 is slower.
        let devices = [dev(0.0, 0.5), dev(0.0, 0.25), dev(0.125, 0.125)];
        let p = place_beam(&devices, healthy, &l, 0.0, 1.0, 1000, true).unwrap();
        assert_eq!((p.device, p.kept, p.start, p.finish), (1, 1000, 0.0, 0.25));
        assert!(p.on_time);
        // A release after the queue drains is the start.
        let p = place_beam(&devices, healthy, &l, 0.5, 1.5, 1000, true).unwrap();
        assert_eq!((p.device, p.start, p.finish), (2, 0.5, 0.625));
        // The preferred level scales the cost, not the choice rule.
        let p = place_beam(&devices, healthy, &l, 0.0, 1.0, 500, true).unwrap();
        assert_eq!((p.device, p.kept, p.finish), (1, 500, 0.125));
    }

    #[test]
    fn the_cascade_sheds_only_as_deep_as_it_must_and_only_when_allowed() {
        let l = ladder();
        // 0.2 s of budget on a 0.25 s/beam device: 875 (0.21875) still
        // misses, 750 (0.1875) is the first level that fits.
        let devices = [dev(0.8, 0.25)];
        let p = place_beam(&devices, healthy, &l, 0.0, 1.0, 1000, true).unwrap();
        assert_eq!((p.kept, p.on_time), (750, true));
        // Levels above the preferred one are never revisited.
        let p = place_beam(&devices, healthy, &l, 0.0, 1.0, 625, true).unwrap();
        assert_eq!(p.kept, 625);
        // `cascade = false` never sheds deeper: full resolution, late.
        let p = place_beam(&devices, healthy, &l, 0.0, 1.0, 1000, false).unwrap();
        assert_eq!((p.kept, p.on_time), (1000, false));
        // Nothing fits even at the floor: run in full and miss — no
        // stealth shedding.
        let devices = [dev(0.9, 0.25)];
        let p = place_beam(&devices, healthy, &l, 0.0, 1.0, 875, true).unwrap();
        assert_eq!((p.kept, p.on_time), (1000, false));
    }

    #[test]
    fn eligibility_is_the_callers_and_nobody_eligible_is_none() {
        let l = ladder();
        let probation = DeviceCapacity {
            healthy: false,
            ..dev(0.0, 0.1)
        };
        let devices = [probation, dev(0.0, 0.2)];
        // The planners' predicate skips the unhealthy device.
        let p = place_beam(&devices, healthy, &l, 0.0, 1.0, 1000, true).unwrap();
        assert_eq!(p.device, 1);
        // The dispatcher's also counts a free canary slot — the one
        // intended difference between the callers.
        let canary_free = [true, false];
        let dispatcher = |d: usize, cap: &DeviceCapacity<'_>| cap.healthy || canary_free[d];
        let p = place_beam(&devices, dispatcher, &l, 0.0, 1.0, 1000, true).unwrap();
        assert_eq!(p.device, 0);
        // No eligible device: the dispatcher sheds the beam whole
        // (`NoAliveDevices`), the planners count a miss.
        assert_eq!(
            place_beam(&devices[..1], healthy, &l, 0.0, 1.0, 1000, true),
            None
        );
        assert_eq!(place_beam(&[], healthy, &l, 0.0, 1.0, 1000, true), None);
    }
}
