//! Sharding: carving one survey into per-scheduler slices.
//!
//! A single [`crate::Scheduler`] tops out at one dispatcher thread and
//! one machine's worth of accelerators; the Apertif-scale surveys of
//! §V-D (and anything aimed at the roadmap's "millions of users")
//! partition beams across several cooperating schedulers instead. This
//! module is the partitioning half of that grid: a [`RebalancePolicy`]
//! routes every tick's beams to shards, a [`GridFaultPlan`] schedules
//! per-shard device faults, whole-shard kills, and whole-shard *flaps*
//! (the shard goes down and comes back), and the resulting
//! [`ShardLoad`]s — each a [`LoadSource`] remembering the *global*
//! identity of every beam it carries — plug straight into unmodified
//! scheduler sessions. Beams whose home shard is down at release are
//! *re-homed* to survivors; beams in flight when a shard dies are
//! handled by the shard's own recovery (re-queued on its surviving
//! devices, or shed whole — loudly — when none remain), so the merged
//! ledger stays conserved no matter what is killed. The routing layer
//! doubles as a supervisor: a flapped shard is restarted when its down
//! window ends, beams are homed back onto it, and the per-shard
//! [`ShardCondition`] ledger records every outage, restart, and
//! re-homing.

use crate::admission::{GridAdmission, GridPlanner};
use crate::descriptor::ResolvedFleet;
use crate::fault::{FaultEvent, FaultPlan};
use crate::load::LoadSource;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How the grid routes each tick's beams to shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RebalancePolicy {
    /// Beam `b` of every tick lives on shard `b mod N`; when its home
    /// shard is dead at release it is re-homed to the next surviving
    /// shard in id order. Placement-stable and oblivious to capacity.
    #[default]
    StaticHash,
    /// Each tick's beams are apportioned over the *surviving* shards
    /// proportionally to their full-resolution beam capacity (D'Hondt
    /// rounding, lowest shard id wins ties), so a dead shard's load is
    /// handed off to whoever has the most headroom.
    LoadAware,
}

/// A beam's identity in the global survey, as carried by a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GlobalBeam {
    /// Global job index over the whole survey horizon.
    pub index: usize,
    /// Releasing tick.
    pub tick: usize,
    /// Beam number within the tick, across all shards.
    pub beam: usize,
}

/// One tick's slice of the survey assigned to one shard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct TickSlice {
    release: f64,
    deadline: f64,
    beams: Vec<GlobalBeam>,
}

/// The slice of a survey that one shard's scheduler sees.
///
/// Implements [`LoadSource`], so a plain [`crate::Scheduler`] session
/// runs it unchanged; the shard-local job index of each beam maps back
/// to its global identity via [`ShardLoad::global_beams`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardLoad {
    setup: String,
    trials: usize,
    ticks: Vec<TickSlice>,
}

impl ShardLoad {
    /// The global identity of every beam this shard schedules, in
    /// shard-local job-index order (the order of the shard's
    /// [`crate::FleetRun`] ledger).
    ///
    /// This table powers both re-keyings of a shard's telemetry to
    /// global identity: the post-run [`crate::ShardEvent`] stream and
    /// the live per-shard forwarding behind
    /// [`crate::GridSession::run_with`] — which remaps whole
    /// [`crate::TickBatch`] blocks column-wise
    /// ([`crate::TickBatch::rekey`]) rather than decoding events.
    pub fn global_beams(&self) -> Vec<GlobalBeam> {
        self.ticks
            .iter()
            .flat_map(|t| t.beams.iter().copied())
            .collect()
    }
}

impl LoadSource for ShardLoad {
    fn setup(&self) -> &str {
        &self.setup
    }

    fn trials(&self) -> usize {
        self.trials
    }

    fn ticks(&self) -> usize {
        self.ticks.len()
    }

    fn beams_at(&self, tick: usize) -> usize {
        self.ticks[tick].beams.len()
    }

    fn release(&self, tick: usize) -> f64 {
        self.ticks[tick].release
    }

    fn deadline(&self, tick: usize) -> f64 {
        self.ticks[tick].deadline
    }
}

/// Failure schedules for a whole grid: per-shard device faults,
/// whole-shard kills, and whole-shard flaps.
///
/// Device-level events behave exactly like a single-scheduler
/// [`FaultPlan`] scoped to one shard. A *shard* kill takes every device
/// of the shard down at once, permanently; a shard *flap* takes every
/// device down for a window and brings them back. In both cases the
/// grid front-end additionally stops routing new beams there while the
/// shard is down (the re-homing of [`RebalancePolicy`]) — and, for
/// flaps, the supervisor restarts the shard when the window ends and
/// homes beams back onto it.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GridFaultPlan {
    device_kills: BTreeMap<usize, FaultPlan>,
    shard_kills: BTreeMap<usize, f64>,
    shard_flaps: BTreeMap<usize, Vec<(f64, f64)>>,
}

impl GridFaultPlan {
    /// No failures.
    pub fn none() -> Self {
        Self::default()
    }

    /// Schedules device `device` of shard `shard` to die at `at`.
    #[must_use]
    pub fn with_device_kill(mut self, shard: usize, device: usize, at: f64) -> Self {
        let plan = self.device_kills.entry(shard).or_default();
        *plan = plan.clone().with_kill(device, at);
        self
    }

    /// Schedules an arbitrary [`FaultEvent`] for device `device` of
    /// shard `shard` — flaps, slowdowns, and transients included.
    #[must_use]
    pub fn with_device_event(mut self, shard: usize, device: usize, event: FaultEvent) -> Self {
        let plan = self.device_kills.entry(shard).or_default();
        *plan = plan.clone().with_event(device, event);
        self
    }

    /// Schedules the whole of shard `shard` — every device — to die at
    /// `at`; from then on the grid re-homes its beams to survivors.
    #[must_use]
    pub fn with_shard_kill(mut self, shard: usize, at: f64) -> Self {
        self.shard_kills.insert(shard, at);
        self
    }

    /// Schedules the whole of shard `shard` to go down on
    /// `[down_at, up_at)` and come back: its beams re-home to survivors
    /// during the outage, and the supervisor homes them back once the
    /// shard restarts.
    #[must_use]
    pub fn with_shard_flap(mut self, shard: usize, down_at: f64, up_at: f64) -> Self {
        self.shard_flaps
            .entry(shard)
            .or_default()
            .push((down_at, up_at));
        self
    }

    /// When (if ever) shard `shard` is killed whole.
    pub fn shard_kill_time(&self, shard: usize) -> Option<f64> {
        self.shard_kills.get(&shard).copied()
    }

    /// The scheduled whole-shard down windows of `shard`.
    pub fn shard_flaps(&self, shard: usize) -> &[(f64, f64)] {
        self.shard_flaps.get(&shard).map_or(&[], Vec::as_slice)
    }

    /// Whether shard `shard` is down — killed or inside a flap window —
    /// at virtual time `t`.
    pub fn shard_down_at(&self, shard: usize, t: f64) -> bool {
        self.shard_kill_time(shard).is_some_and(|k| k <= t)
            || self
                .shard_flaps(shard)
                .iter()
                .any(|&(down, up)| t >= down && t < up)
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.shard_kills.is_empty()
            && self.shard_flaps.values().all(Vec::is_empty)
            && self.device_kills.values().all(FaultPlan::is_empty)
    }

    /// The largest shard index the plan refers to, if any.
    pub fn max_shard(&self) -> Option<usize> {
        self.device_kills
            .keys()
            .chain(self.shard_kills.keys())
            .chain(self.shard_flaps.keys())
            .copied()
            .max()
    }

    /// The device-level [`FaultPlan`] shard `shard` (with `devices`
    /// devices) hands to its scheduler: its scheduled device events,
    /// with a whole-shard kill folded in as a kill of every device at
    /// the earlier of the two times, and every whole-shard flap window
    /// folded in as a flap of every device.
    pub fn plan_for(&self, shard: usize, devices: usize) -> FaultPlan {
        let mut plan = self.device_kills.get(&shard).cloned().unwrap_or_default();
        if let Some(at) = self.shard_kill_time(shard) {
            for device in 0..devices {
                let effective = plan.kill_time(device).map_or(at, |t| t.min(at));
                plan = plan.with_kill(device, effective);
            }
        }
        for &(down, up) in self.shard_flaps(shard) {
            for device in 0..devices {
                plan = plan.with_flap(device, down, up);
            }
        }
        plan
    }
}

/// The supervisor's ledger for one shard: what was scheduled to go
/// wrong, how often it was restarted, and how many beams moved because
/// of it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardCondition {
    /// Shard index.
    pub shard: usize,
    /// When (if ever) the shard was killed permanently.
    pub killed_at: Option<f64>,
    /// Whole-shard down windows scheduled.
    pub flaps: usize,
    /// Down windows that ended within the survey horizon — outages the
    /// supervisor recovered from by restarting the shard.
    pub restarts: usize,
    /// Beams homed on this shard that were routed elsewhere while it
    /// was down.
    pub rehomed_away: usize,
    /// Beams routed onto this shard at ticks after its first restart —
    /// the re-homing back on recovery.
    pub returned_home: usize,
}

/// The outcome of partitioning a load over shards.
pub(crate) struct Partition {
    /// One load slice per shard, every tick present (possibly empty).
    pub shard_loads: Vec<ShardLoad>,
    /// Beams routed to a different shard than they would have been had
    /// every shard been alive under the baseline routing.
    pub rehomed: usize,
    /// The supervisor's per-shard outage/restart accounting.
    pub supervisor: Vec<ShardCondition>,
    /// Per-shard, per-tick admission ceilings (kept trials) from the
    /// coordinated controller; `None` under per-shard admission.
    pub ceilings: Option<Vec<Vec<usize>>>,
    /// Every beam moved off its baseline home shard, as
    /// `(tick, global index, from, to)` — the grid-level half of the
    /// telemetry stream.
    pub rebalances: Vec<(usize, usize, usize, usize)>,
}

/// Routes every beam of `load` to a shard, tick by tick.
///
/// A shard that is down — killed, or inside a flap window — at a
/// tick's release takes no beams that tick; a flapped shard rejoins
/// routing at the first tick after its window ends (the supervisor's
/// restart). If *no* shard survives, routing proceeds as if all were
/// alive — the dead shards' schedulers then shed every beam whole,
/// loudly, keeping the global ledger conserved.
///
/// Under [`GridAdmission::Coordinated`] a [`GridPlanner`] re-evaluates
/// every tick: capacity-aware routing plus one fleet-wide shed level,
/// adopted only when it Pareto-improves on the baseline. Its verdicts
/// come back as per-shard admission ceilings and a rebalance ledger.
pub(crate) fn partition(
    load: &dyn LoadSource,
    shards: &[ResolvedFleet],
    policy: RebalancePolicy,
    faults: &GridFaultPlan,
    admission: GridAdmission,
) -> Partition {
    let n = shards.len();
    let weights: Vec<usize> = shards.iter().map(|s| s.beams_capacity()).collect();
    let mut shard_loads: Vec<ShardLoad> = (0..n)
        .map(|_| ShardLoad {
            setup: load.setup().to_string(),
            trials: load.trials(),
            ticks: Vec::with_capacity(load.ticks()),
        })
        .collect();
    let all_alive = vec![true; n];
    let mut rehomed = 0usize;
    let mut rehomed_away = vec![0usize; n];
    let mut returned_home = vec![0usize; n];
    // When each flapped shard first comes back, if ever.
    let first_restart: Vec<Option<f64>> = (0..n)
        .map(|s| {
            faults
                .shard_flaps(s)
                .iter()
                .map(|&(_, up)| up)
                .min_by(f64::total_cmp)
        })
        .collect();
    let mut planner = match admission {
        GridAdmission::PerShard => None,
        GridAdmission::Coordinated => Some(GridPlanner::new(shards, load.trials())),
    };
    let mut ceilings: Option<Vec<Vec<usize>>> = planner
        .as_ref()
        .map(|_| vec![Vec::with_capacity(load.ticks()); n]);
    let mut rebalances = Vec::new();
    let mut next_index = 0usize;
    let mut horizon = 0.0f64;
    for tick in 0..load.ticks() {
        let release = load.release(tick);
        horizon = horizon.max(release);
        let deadline = load.deadline(tick);
        let beams = load.beams_at(tick);
        for sl in &mut shard_loads {
            sl.ticks.push(TickSlice {
                release,
                deadline,
                beams: Vec::new(),
            });
        }
        let mut alive: Vec<bool> = (0..n).map(|s| !faults.shard_down_at(s, release)).collect();
        if !alive.iter().any(|&a| a) {
            alive = all_alive.clone();
        }
        let base_routes = route_tick(policy, beams, &weights, &alive);
        let routes = match planner.as_mut() {
            None => base_routes,
            Some(planner) => {
                let plan = planner.plan_tick(release, deadline, &alive, base_routes);
                let per_tick = ceilings.as_mut().expect("ceilings exist with a planner");
                for (s, col) in per_tick.iter_mut().enumerate() {
                    col.push(plan.kept[s]);
                }
                plan.routes
            }
        };
        if alive != all_alive || ceilings.is_some() {
            let baseline = route_tick(policy, beams, &weights, &all_alive);
            for (beam, (&got, &home)) in routes.iter().zip(&baseline).enumerate() {
                if got != home {
                    rehomed += 1;
                    rehomed_away[home] += 1;
                    rebalances.push((tick, next_index + beam, home, got));
                }
            }
        }
        for (beam, &shard) in routes.iter().enumerate() {
            if first_restart[shard].is_some_and(|up| release >= up) {
                returned_home[shard] += 1;
            }
            shard_loads[shard].ticks[tick].beams.push(GlobalBeam {
                index: next_index,
                tick,
                beam,
            });
            next_index += 1;
        }
    }
    let supervisor = (0..n)
        .map(|s| {
            let flaps = faults.shard_flaps(s);
            ShardCondition {
                shard: s,
                killed_at: faults.shard_kill_time(s),
                flaps: flaps.len(),
                restarts: flaps.iter().filter(|&&(_, up)| up <= horizon).count(),
                rehomed_away: rehomed_away[s],
                returned_home: returned_home[s],
            }
        })
        .collect();
    Partition {
        shard_loads,
        rehomed,
        supervisor,
        ceilings,
        rebalances,
    }
}

/// Chooses a shard for each of one tick's beams.
fn route_tick(
    policy: RebalancePolicy,
    beams: usize,
    weights: &[usize],
    alive: &[bool],
) -> Vec<usize> {
    let n = weights.len();
    match policy {
        RebalancePolicy::StaticHash => (0..beams)
            .map(|b| {
                let home = b % n;
                (0..n)
                    .map(|offset| (home + offset) % n)
                    .find(|&s| alive[s])
                    .unwrap_or(home)
            })
            .collect(),
        RebalancePolicy::LoadAware => dhondt(beams, weights, alive),
    }
}

/// D'Hondt apportionment of one tick's beams over alive shards by
/// weight: each beam goes to the alive shard with the largest
/// weight-per-assigned-beam quotient (lowest shard id wins ties), so
/// the tick ends distributed proportionally to weight. `LoadAware`
/// feeds it static capacity, the coordinated planner remaining
/// headroom.
pub(crate) fn dhondt(beams: usize, weights: &[usize], alive: &[bool]) -> Vec<usize> {
    let mut assigned = vec![0usize; weights.len()];
    (0..beams)
        .map(|_| {
            let mut best = 0usize;
            let mut best_quotient = f64::NEG_INFINITY;
            for (s, (&w, &up)) in weights.iter().zip(alive).enumerate() {
                if !up {
                    continue;
                }
                let quotient = w.max(1) as f64 / (assigned[s] + 1) as f64;
                if quotient > best_quotient {
                    best_quotient = quotient;
                    best = s;
                }
            }
            assigned[best] += 1;
            best
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::survey::SurveyLoad;

    fn shards(spb_per_shard: &[&[f64]]) -> Vec<ResolvedFleet> {
        spb_per_shard
            .iter()
            .map(|spb| ResolvedFleet::synthetic(100, spb))
            .collect()
    }

    /// `partition` under per-shard admission — the historical call
    /// shape every routing test exercises.
    fn per_shard_partition(
        load: &dyn LoadSource,
        shards: &[ResolvedFleet],
        policy: RebalancePolicy,
        faults: &GridFaultPlan,
    ) -> Partition {
        partition(load, shards, policy, faults, GridAdmission::PerShard)
    }

    #[test]
    fn static_hash_partitions_round_robin_and_keeps_global_identity() {
        let shards = shards(&[&[0.2, 0.2], &[0.2, 0.2]]);
        let load = SurveyLoad::custom(100, 5, 2);
        let part = per_shard_partition(
            &load,
            &shards,
            RebalancePolicy::StaticHash,
            &GridFaultPlan::none(),
        );
        assert_eq!(part.rehomed, 0);
        assert!(part.ceilings.is_none(), "per-shard admission: no ceilings");
        assert!(part.rebalances.is_empty());
        assert_eq!(part.shard_loads.len(), 2);
        // Beams 0,2,4 home on shard 0; 1,3 on shard 1 — every tick.
        let s0 = &part.shard_loads[0];
        let s1 = &part.shard_loads[1];
        assert_eq!(s0.beams_at(0), 3);
        assert_eq!(s1.beams_at(0), 2);
        assert_eq!(s0.total_beams() + s1.total_beams(), load.total_beams());
        // Global identities: shard-local order maps back losslessly.
        let globals = s0.global_beams();
        assert_eq!(
            globals[0],
            GlobalBeam {
                index: 0,
                tick: 0,
                beam: 0
            }
        );
        assert_eq!(
            globals[1],
            GlobalBeam {
                index: 2,
                tick: 0,
                beam: 2
            }
        );
        assert_eq!(
            globals[3],
            GlobalBeam {
                index: 5,
                tick: 1,
                beam: 0
            }
        );
        // Release/deadline pass through unchanged.
        assert_eq!(s1.release(1), 1.0);
        assert_eq!(s1.deadline(1), 2.0);
    }

    #[test]
    fn dead_shard_beams_rehome_to_survivors() {
        let shards = shards(&[&[0.2, 0.2], &[0.2, 0.2]]);
        let load = SurveyLoad::custom(100, 4, 3);
        let faults = GridFaultPlan::none().with_shard_kill(0, 1.0);
        let part = per_shard_partition(&load, &shards, RebalancePolicy::StaticHash, &faults);
        // Tick 0 (release 0.0): shard 0 alive, splits 2/2. Ticks 1–2
        // (release ≥ kill): all four beams re-home to shard 1.
        assert_eq!(part.shard_loads[0].beams_at(0), 2);
        assert_eq!(part.shard_loads[0].beams_at(1), 0);
        assert_eq!(part.shard_loads[0].beams_at(2), 0);
        assert_eq!(part.shard_loads[1].beams_at(1), 4);
        assert_eq!(part.rehomed, 4, "two home beams per tick, two ticks");
        // Nothing is lost in the handoff.
        let total: usize = part.shard_loads.iter().map(|s| s.total_beams()).sum();
        assert_eq!(total, load.total_beams());
    }

    #[test]
    fn killing_every_shard_still_routes_every_beam() {
        let shards = shards(&[&[0.2], &[0.2]]);
        let load = SurveyLoad::custom(100, 3, 2);
        let faults = GridFaultPlan::none()
            .with_shard_kill(0, 0.0)
            .with_shard_kill(1, 0.0);
        let part = per_shard_partition(&load, &shards, RebalancePolicy::StaticHash, &faults);
        let total: usize = part.shard_loads.iter().map(|s| s.total_beams()).sum();
        assert_eq!(
            total,
            load.total_beams(),
            "dead shards still get routed beams"
        );
    }

    #[test]
    fn load_aware_routing_is_proportional_to_capacity() {
        // Shard 0 has twice shard 1's capacity (10 vs 5 beams/s).
        let shards = shards(&[&[0.1, 0.1], &[0.1]]);
        let load = SurveyLoad::custom(100, 9, 1);
        let part = per_shard_partition(
            &load,
            &shards,
            RebalancePolicy::LoadAware,
            &GridFaultPlan::none(),
        );
        assert_eq!(part.shard_loads[0].beams_at(0), 6);
        assert_eq!(part.shard_loads[1].beams_at(0), 3);
    }

    #[test]
    fn load_aware_hands_off_to_the_biggest_survivor() {
        let shards = shards(&[&[0.1], &[0.1, 0.1], &[0.1]]);
        let load = SurveyLoad::custom(100, 8, 2);
        let faults = GridFaultPlan::none().with_shard_kill(1, 1.0);
        let part = per_shard_partition(&load, &shards, RebalancePolicy::LoadAware, &faults);
        // Tick 1: the big middle shard is gone; the two unit shards
        // split its share evenly.
        assert_eq!(part.shard_loads[1].beams_at(1), 0);
        assert_eq!(part.shard_loads[0].beams_at(1), 4);
        assert_eq!(part.shard_loads[2].beams_at(1), 4);
        assert!(part.rehomed > 0);
    }

    #[test]
    fn coordinated_partition_hands_out_ceilings_and_a_rebalance_ledger() {
        // Skewed grid: StaticHash overloads the lone slow device of
        // shard 0, which the baseline absorbs by shedding tiers; the
        // coordinated planner reroutes by headroom instead.
        let shards = shards(&[&[0.3], &[0.2, 0.2, 0.2, 0.2]]);
        let load = SurveyLoad::custom(100, 10, 2);
        let part = partition(
            &load,
            &shards,
            RebalancePolicy::StaticHash,
            &GridFaultPlan::none(),
            GridAdmission::Coordinated,
        );
        let ceilings = part.ceilings.as_ref().expect("coordinated mode plans");
        assert_eq!(ceilings.len(), 2);
        assert!(
            ceilings.iter().all(|c| c.len() == 2),
            "one ceiling per tick"
        );
        assert!(!part.rebalances.is_empty(), "headroom routing moves beams");
        assert_eq!(part.rebalances.len(), part.rehomed);
        let total: usize = part.shard_loads.iter().map(|s| s.total_beams()).sum();
        assert_eq!(total, load.total_beams(), "rerouting loses nothing");
    }

    #[test]
    fn coordinated_single_shard_partition_is_unconstrained() {
        let shards = shards(&[&[0.2, 0.2]]);
        let load = SurveyLoad::custom(100, 4, 3);
        let part = partition(
            &load,
            &shards,
            RebalancePolicy::StaticHash,
            &GridFaultPlan::none(),
            GridAdmission::Coordinated,
        );
        // One shard: every candidate ties, ties go to the baseline, and
        // the baseline's ceiling is the full-resolution sentinel.
        let ceilings = part.ceilings.as_ref().unwrap();
        assert!(ceilings[0].iter().all(|&k| k == 100));
        assert!(part.rebalances.is_empty());
    }

    #[test]
    fn plan_for_folds_shard_kills_over_device_kills() {
        let plan = GridFaultPlan::none()
            .with_device_kill(1, 0, 0.5)
            .with_device_kill(1, 2, 3.0)
            .with_shard_kill(1, 2.0);
        let shard1 = plan.plan_for(1, 3);
        // Earlier device kill survives; later one is pulled forward to
        // the shard kill; untouched devices die at the shard kill.
        assert_eq!(shard1.kill_time(0), Some(0.5));
        assert_eq!(shard1.kill_time(1), Some(2.0));
        assert_eq!(shard1.kill_time(2), Some(2.0));
        // Other shards are untouched.
        assert!(plan.plan_for(0, 3).is_empty());
        assert_eq!(plan.max_shard(), Some(1));
        assert!(!plan.is_empty());
        assert!(GridFaultPlan::none().is_empty());
    }

    #[test]
    fn plan_for_folds_shard_flaps_onto_every_device() {
        let plan = GridFaultPlan::none()
            .with_shard_flap(0, 1.0, 2.0)
            .with_device_event(
                0,
                1,
                FaultEvent::Slowdown {
                    from: 0.0,
                    until: 4.0,
                    factor: 2.0,
                },
            );
        assert!(!plan.is_empty());
        assert_eq!(plan.max_shard(), Some(0));
        assert_eq!(plan.shard_flaps(0), &[(1.0, 2.0)]);
        assert!(plan.shard_down_at(0, 1.5));
        assert!(!plan.shard_down_at(0, 2.0), "window is half-open");
        assert!(!plan.shard_down_at(0, 0.5));
        let shard0 = plan.plan_for(0, 2);
        // Every device gets the flap; device 1 keeps its slowdown too.
        assert_eq!(
            shard0.events_for(0),
            &[FaultEvent::Flap {
                down_at: 1.0,
                up_at: 2.0
            }]
        );
        assert_eq!(shard0.events_for(1).len(), 2);
        assert_eq!(shard0.kill_time(0), None, "a flap is not a kill");
    }

    #[test]
    fn flapped_shard_reroutes_during_the_outage_and_returns_home() {
        let shards = shards(&[&[0.2, 0.2], &[0.2, 0.2]]);
        let load = SurveyLoad::custom(100, 4, 4);
        // Shard 0 down for tick 1 only (release 1.0), back by tick 2.
        let faults = GridFaultPlan::none().with_shard_flap(0, 0.9, 1.9);
        let part = per_shard_partition(&load, &shards, RebalancePolicy::StaticHash, &faults);
        assert_eq!(part.shard_loads[0].beams_at(0), 2);
        assert_eq!(part.shard_loads[0].beams_at(1), 0, "down during the flap");
        assert_eq!(part.shard_loads[1].beams_at(1), 4);
        assert_eq!(part.shard_loads[0].beams_at(2), 2, "restart homes it back");
        assert_eq!(part.rehomed, 2);
        // The supervisor ledger tells the same story.
        let s0 = &part.supervisor[0];
        assert_eq!(s0.flaps, 1);
        assert_eq!(s0.restarts, 1);
        assert_eq!(s0.rehomed_away, 2);
        assert_eq!(s0.returned_home, 4, "ticks 2 and 3 run at home again");
        assert_eq!(s0.killed_at, None);
        assert_eq!(part.supervisor[1].flaps, 0);
        assert_eq!(part.supervisor[1].rehomed_away, 0);
        // Nothing is lost across the outage.
        let total: usize = part.shard_loads.iter().map(|s| s.total_beams()).sum();
        assert_eq!(total, load.total_beams());
    }
}
