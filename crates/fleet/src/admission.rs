//! The admission policy layer: who decides how much of a tick runs.
//!
//! The scheduler's dispatcher used to hard-code the §V-D shed-tier
//! arithmetic — how many trailing DM tiers a batch may drop, the floor
//! below which no beam is degraded, and the deadline-feasibility check
//! that picks a tier. This module pulls that logic out behind the
//! [`AdmissionPolicy`] trait so the *same* decision procedure can run
//! at two scopes:
//!
//! * **Per-fleet** — the dispatcher lends the session's policy (default
//!   [`PerDeviceGreedy`], which reproduces the historical behaviour
//!   exactly) a [`CapacityView`] of the device table it keeps, each
//!   tick, for an [`AdmissionDecision`].
//! * **Per-grid** — with [`GridAdmission::Coordinated`], a grid-scope
//!   controller runs the policy over the union of every shard's
//!   capacity view at partition time, trades shed tiers across shards
//!   (shed one tier fleet-wide before any shard sheds two), and hands
//!   each shard a per-tick admission ceiling.
//!
//! The tier arithmetic itself lives in [`TierLadder`]: eight equal DM
//! tiers per beam, at most four of which may be shed, never below the
//! floor. Where a beam goes once a level is
//! ruled is [`crate::placement`]'s one function; the planners here
//! predict a tick by playing its beams through that same function.

use crate::descriptor::{AlgorithmRate, ResolvedFleet};
use crate::metrics::ShedReason;
use crate::placement::place_beam;
use crate::shard::dhondt;
use manycore_sim::Algorithm;
use serde::{Deserialize, Serialize};

/// Slack tolerated when comparing virtual times against deadlines, so
/// exact-fit packings are not rejected over float rounding.
pub(crate) const DEADLINE_EPS: f64 = 1e-9;

/// Equal DM tiers a beam is divided into for shedding; a capture
/// session's `NarrowDmPlan` ceilings are expressed in the same tiers.
pub(crate) const SHED_TIERS: usize = 8;

/// Most tiers admission control may shed from one beam.
const MAX_SHED_TIERS: usize = 4;

/// The shed-tier ladder for one load: the admissible per-beam DM
/// counts, from full resolution down to the floor.
///
/// A beam of `trials` DMs is divided into eight equal tiers (the last
/// possibly short); admission may shed at most four of them, and never
/// sheds a beam to zero trials.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierLadder {
    trials: usize,
    tier: usize,
    /// Admissible degraded sizes, largest first.
    kept_options: Vec<usize>,
}

impl TierLadder {
    /// Builds the ladder for `trials` DMs.
    pub fn new(trials: usize) -> Self {
        Self::with_tiers(trials, SHED_TIERS, MAX_SHED_TIERS)
    }

    /// The ladder of `shed_tiers` equal tiers, at most `max_shed` of
    /// them shed.
    fn with_tiers(trials: usize, shed_tiers: usize, max_shed: usize) -> Self {
        let tier = trials.div_ceil(shed_tiers);
        let mut kept_options = Vec::new();
        for shed in 1..=max_shed.min(shed_tiers) {
            let kept = trials.saturating_sub(shed * tier);
            if kept == 0 {
                break;
            }
            kept_options.push(kept);
        }
        Self {
            trials,
            tier,
            kept_options,
        }
    }

    /// Full-resolution trial DMs per beam.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// Trial DMs per shed tier.
    pub fn tier_size(&self) -> usize {
        self.tier
    }

    /// The admissible degraded sizes, largest first (full resolution
    /// excluded).
    pub fn kept_options(&self) -> &[usize] {
        &self.kept_options
    }

    /// Every admissible level, largest first: full resolution, then
    /// each degraded size.
    pub fn levels(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::once(self.trials).chain(self.kept_options.iter().copied())
    }

    /// The smallest admissible per-beam DM count — the shed floor.
    pub fn floor(&self) -> usize {
        self.kept_options.last().copied().unwrap_or(self.trials)
    }

    /// The kept-trials level reached by shedding `shed_tiers` tiers
    /// (clamped to the deepest admissible level).
    pub fn kept_for(&self, shed_tiers: usize) -> usize {
        if shed_tiers == 0 {
            self.trials
        } else {
            self.kept_options
                .get(shed_tiers - 1)
                .copied()
                .unwrap_or_else(|| self.floor())
        }
    }

    /// How many tiers were shed to reach `kept` trials (0 at full
    /// resolution; computed from the tier size for off-ladder values).
    pub fn tiers_for(&self, kept: usize) -> usize {
        if kept >= self.trials {
            return 0;
        }
        if let Some(pos) = self.kept_options.iter().position(|&k| k == kept) {
            return pos + 1;
        }
        (self.trials - kept).div_ceil(self.tier.max(1))
    }

    /// The largest admissible level at or below `kept` (the floor when
    /// `kept` undercuts every level).
    pub fn snap(&self, kept: usize) -> usize {
        self.levels()
            .find(|&k| k <= kept)
            .unwrap_or_else(|| self.floor())
    }
}

/// One tick's batch, as the admission policy sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeamDemand {
    /// Virtual time the batch's data becomes available.
    pub release: f64,
    /// Virtual time by which every beam must be dedispersed.
    pub deadline: f64,
    /// Beams in the batch.
    pub beams: usize,
}

/// One device's remaining capacity, as the admission policy sees it.
///
/// A row of the table a dispatcher keeps per device and updates in
/// place; the rate table is borrowed from the fleet, so a row is `Copy`
/// and a planner's what-if copy of a fleet is one `memcpy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceCapacity<'a> {
    /// Predicted virtual time the device's queue drains.
    pub avail: f64,
    /// Full-resolution seconds per beam *on the current algorithm*.
    pub seconds_per_beam: f64,
    /// Whether the device currently counts toward admission capacity.
    /// Probation devices do not: they have one unproven canary slot,
    /// not real capacity.
    pub healthy: bool,
    /// The algorithm the device is currently running.
    pub algorithm: Algorithm,
    /// The device's rate table, fidelity order (primary first): the
    /// rows a policy with an algorithm axis may switch it between.
    /// Empty or single-entry when there is nothing to switch to.
    pub rates: &'a [AlgorithmRate],
}

impl<'a> DeviceCapacity<'a> {
    /// A single-algorithm capacity: brute force at `seconds_per_beam`,
    /// no alternates — exactly the pre-table shape.
    pub fn new(avail: f64, seconds_per_beam: f64, healthy: bool) -> Self {
        Self {
            avail,
            seconds_per_beam,
            healthy,
            algorithm: Algorithm::BruteForce,
            rates: &[],
        }
    }

    /// Replaces the rate table and pins the current algorithm,
    /// re-deriving `seconds_per_beam` from the matching row when the
    /// table lists it.
    #[must_use]
    pub fn with_rates(mut self, algorithm: Algorithm, rates: &'a [AlgorithmRate]) -> Self {
        self.algorithm = algorithm;
        if let Some(row) = rates.iter().find(|r| r.algorithm == algorithm) {
            self.seconds_per_beam = row.seconds_per_beam;
        }
        self.rates = rates;
        self
    }

    /// Switches the device to `row`'s algorithm at `row`'s rate.
    pub(crate) fn rerate(&mut self, row: AlgorithmRate) {
        self.algorithm = row.algorithm;
        self.seconds_per_beam = row.seconds_per_beam;
    }

    /// The current algorithm's position in the rate table.
    fn position(&self) -> Option<usize> {
        self.rates
            .iter()
            .position(|r| r.algorithm == self.algorithm)
    }

    /// The next (cheaper) row below the current algorithm, if any.
    fn demotion(&self) -> Option<AlgorithmRate> {
        self.rates.get(self.position()? + 1).copied()
    }

    /// The next (higher-fidelity) row above the current algorithm.
    fn promotion(&self) -> Option<AlgorithmRate> {
        let pos = self.position()?;
        pos.checked_sub(1).and_then(|p| self.rates.get(p)).copied()
    }
}

/// The capacity side of an admission decision: the tier ladder plus
/// every device's remaining budget.
#[derive(Debug, Clone, Copy)]
pub struct CapacityView<'a> {
    /// The load's shed-tier ladder.
    pub ladder: &'a TierLadder,
    /// Per-device capacity, in device order.
    pub devices: &'a [DeviceCapacity<'a>],
}

impl CapacityView<'_> {
    /// Beams the healthy devices can still finish by `demand.deadline`
    /// at `kept` trials each — the §V-D capacity sum, restricted to the
    /// budget each device has left. Saturates at `demand.beams`.
    pub fn feasible_beams(&self, demand: &BeamDemand, kept: usize) -> usize {
        let cap = demand.beams;
        let frac = kept as f64 / self.ladder.trials() as f64;
        let mut total = 0usize;
        for d in self.devices {
            if !d.healthy {
                continue;
            }
            let budget = (demand.deadline - d.avail.max(demand.release)).max(0.0);
            let cost = d.seconds_per_beam * frac;
            let slots = if cost > 0.0 {
                ((budget + DEADLINE_EPS) / cost) as usize
            } else {
                cap
            };
            total += slots.min(cap);
            if total >= cap {
                return cap;
            }
        }
        total
    }
}

/// What an admission policy rules for one tick's batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Admit the batch with `shed_tiers` trailing DM tiers shed from
    /// every beam (0 = full resolution). Individual beams under further
    /// pressure may still shed extra tiers on their own, and beams that
    /// cannot fit even at maximum shed run at full resolution and are
    /// reported as misses.
    Admit {
        /// Tiers to shed from every beam of the batch.
        shed_tiers: usize,
        /// Algorithm switches to apply before placement: device index
        /// paired with the algorithm it should run from this tick on.
        /// Empty for policies without an algorithm axis.
        switches: Vec<(usize, Algorithm)>,
    },
    /// Admit the batch at full resolution *without* per-beam tier
    /// shedding: the policy declines to degrade, accepting that beams
    /// which do not fit will miss their deadline instead.
    Defer,
    /// Drop the whole batch: every beam is recorded as shed whole with
    /// this reason.
    Shed(ShedReason),
}

impl AdmissionDecision {
    /// Admit with `shed_tiers` and no algorithm switches — the shape
    /// every pre-table policy produces.
    pub fn admit(shed_tiers: usize) -> Self {
        AdmissionDecision::Admit {
            shed_tiers,
            switches: Vec::new(),
        }
    }
}

/// A batch-granularity admission rule: given one tick's demand and the
/// fleet's remaining capacity, decide how much of the batch runs.
///
/// The same trait runs at two scopes — per-fleet inside the scheduler's
/// dispatcher, and per-grid inside the coordinated partition planner —
/// which is the point of pulling it out of the scheduler. Policies must
/// be [`Sync`]: grid sessions share one policy reference across shard
/// threads, and a policy is a pure decision rule over the view it is
/// handed.
pub trait AdmissionPolicy: Sync {
    /// Rules on one tick's batch.
    fn decide(&self, demand: &BeamDemand, view: &CapacityView<'_>) -> AdmissionDecision;
}

/// The historical admission rule, now the default policy: the largest
/// per-beam DM count (full resolution first, then one shed tier at a
/// time, never below the floor) at which the whole batch fits the
/// fleet's remaining deadline budget. When even maximum shedding cannot
/// fit the batch, the maximum shed level is admitted and the stragglers
/// will miss.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerDeviceGreedy;

impl PerDeviceGreedy {
    /// The kept-trials level the rule admits `demand` at.
    fn level(demand: &BeamDemand, view: &CapacityView<'_>) -> usize {
        let fits = |&kept: &usize| view.feasible_beams(demand, kept) >= demand.beams;
        view.ladder
            .levels()
            .find(fits)
            .unwrap_or_else(|| view.ladder.floor())
    }
}

impl AdmissionPolicy for PerDeviceGreedy {
    fn decide(&self, demand: &BeamDemand, view: &CapacityView<'_>) -> AdmissionDecision {
        AdmissionDecision::admit(view.ladder.tiers_for(Self::level(demand, view)))
    }
}

/// Algorithm-aware admission: demote before shedding.
///
/// Starts from the [`PerDeviceGreedy`] ruling, then — when that plan
/// still sheds tiers or predicts misses — walks each device's rate
/// table downward one step at a time, re-scoring the whole tick after
/// every candidate demotion with the same fault-free placement cascade
/// the dispatcher runs. When no single-device step improves the plan
/// (on wide fleets one demotion rarely moves the batch-wide tier
/// level), a fleet-wide step — every healthy device down one entry
/// together — is probed under the same rule before the walk stops.
/// The accumulated switch set is adopted **only**
/// when the final plan Pareto-improves on the baseline (never more
/// predicted misses, never more shed trials), mirroring the
/// [`GridAdmission::Coordinated`] adoption rule; otherwise the
/// baseline decision is returned untouched.
///
/// When the fleet is fully idle at full resolution, one demoted device
/// per tick is promoted back up its table, provided the promoted plan
/// is still cost-free — so a burst's demotions retire once the burst
/// passes instead of pinning the fleet on approximate kernels forever.
///
/// Every rate table with a single entry makes demotion and promotion
/// impossible, so on such fleets this policy is *identical* to
/// [`PerDeviceGreedy`] by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlgorithmLadder;

impl AdmissionPolicy for AlgorithmLadder {
    fn decide(&self, demand: &BeamDemand, view: &CapacityView<'_>) -> AdmissionDecision {
        let baseline = PerDeviceGreedy.decide(demand, view);
        let has_alternates = view.devices.iter().any(|d| d.rates.len() > 1);
        if !has_alternates || demand.beams == 0 {
            return baseline;
        }

        let ladder = view.ladder;
        let full = ladder.trials();
        let score = |devices: &mut [DeviceCapacity<'_>]| play_tick(demand, ladder, devices, full);
        let (base_kept, base_cost) = score(&mut view.devices.to_vec());
        let zero = PlanCost::default();

        if base_cost == zero && base_kept == full {
            // No pressure: try promoting one demoted device back up.
            for (d, cap) in view.devices.iter().enumerate() {
                if !cap.healthy {
                    continue;
                }
                let Some(up) = cap.promotion() else { continue };
                let mut trial = view.devices.to_vec();
                trial[d].rerate(up);
                // A promotion that would shed is not worth playing out.
                let devices = &trial;
                if PerDeviceGreedy::level(demand, &CapacityView { ladder, devices }) == full
                    && score(&mut trial) == (full, zero)
                {
                    return AdmissionDecision::Admit {
                        shed_tiers: 0,
                        switches: vec![(d, up.algorithm)],
                    };
                }
            }
            return baseline;
        }

        // Pressure: greedily demote, one device-step at a time, as long
        // as each step Pareto-improves the best plan so far. When no
        // single step helps on its own — on wide fleets one device's
        // demotion rarely moves the batch-wide tier level, so every
        // candidate ties the bar — probe a fleet-wide step (every
        // healthy device down one entry together) before giving up:
        // capacity has to cross the tier boundary collectively.
        let mut devices: Vec<DeviceCapacity<'_>> = view.devices.to_vec();
        let mut switches: Vec<(usize, Algorithm)> = Vec::new();
        let mut best_cost = base_cost;
        let mut best_kept = base_kept;
        loop {
            // Every healthy device's next step down its table.
            let steps: Vec<(usize, AlgorithmRate)> = devices
                .iter()
                .enumerate()
                .filter(|(_, cap)| cap.healthy)
                .filter_map(|(d, cap)| cap.demotion().map(|down| (d, down)))
                .collect();
            // The plan with `group` demoted, if it Pareto-improves `bar`.
            let attempt = |group: &[(usize, AlgorithmRate)], bar: PlanCost| {
                let mut trial = devices.clone();
                for &(d, down) in group {
                    trial[d].rerate(down);
                }
                let (kept, cost) = score(&mut trial);
                cost.pareto_improves(&bar)
                    .then(|| (group.to_vec(), kept, cost))
            };
            let mut step: Option<LadderStep> = None;
            for single in steps.chunks(1) {
                let bar = step.as_ref().map_or(best_cost, |&(.., cost)| cost);
                step = attempt(single, bar).or(step);
            }
            if step.is_none() && steps.len() > 1 {
                step = attempt(&steps, best_cost);
            }
            let Some((group, kept, cost)) = step else {
                break;
            };
            for &(d, down) in &group {
                devices[d].rerate(down);
                match switches.iter_mut().find(|(i, _)| *i == d) {
                    Some(entry) => entry.1 = down.algorithm,
                    None => switches.push((d, down.algorithm)),
                }
            }
            best_cost = cost;
            best_kept = kept;
            if best_cost == zero {
                break;
            }
        }

        if switches.is_empty() || !best_cost.pareto_improves(&base_cost) {
            return baseline;
        }
        AdmissionDecision::Admit {
            shed_tiers: ladder.tiers_for(best_kept),
            switches,
        }
    }
}

/// What a fault-free [`PerDeviceGreedy`] dispatcher over `devices` does
/// with one tick: admit at the lower of its own level and the
/// `ceiling`, then place every beam with [`place_beam`] — the function
/// the dispatcher runs, so the prediction is exact. Only `healthy`
/// devices are eligible: a planner cannot see a probation device's
/// canary slot. Advances the device clocks; returns the admitted level
/// and the predicted cost.
fn play_tick(
    demand: &BeamDemand,
    ladder: &TierLadder,
    devices: &mut [DeviceCapacity<'_>],
    ceiling: usize,
) -> (usize, PlanCost) {
    let view = CapacityView { ladder, devices };
    let kept = PerDeviceGreedy::level(demand, &view).min(ladder.snap(ceiling));
    let mut cost = PlanCost::default();
    let healthy = |_: usize, cap: &DeviceCapacity<'_>| cap.healthy;
    let (release, deadline) = (demand.release, demand.deadline);
    for _ in 0..demand.beams {
        let Some(p) = place_beam(devices, healthy, ladder, release, deadline, kept, true) else {
            cost.misses += 1;
            continue;
        };
        devices[p.device].avail = p.finish;
        if p.on_time {
            cost.shed_trials += ladder.trials() - p.kept;
        } else {
            cost.misses += 1;
        }
    }
    (kept, cost)
}

/// How a grid session runs admission control.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum GridAdmission {
    /// Each shard sheds independently, exactly as a standalone
    /// scheduler would — the historical behaviour.
    #[default]
    PerShard,
    /// A grid-scope controller observes every shard's capacity view at
    /// each tick, routes the tick by remaining headroom, and picks one
    /// fleet-wide shed level, committing the cross-shard plan only when
    /// it Pareto-improves on the per-shard baseline (never more
    /// predicted misses, never more total shed trials). Shards receive
    /// the plan as per-tick admission ceilings; faults discovered at
    /// runtime are still absorbed by their own per-beam shedding.
    Coordinated,
}

/// One candidate demotion step in the ladder walk: the device-level
/// switches it applies, the kept-trials level the demoted fleet
/// settles at, and the predicted cost of that plan.
type LadderStep = (Vec<(usize, AlgorithmRate)>, usize, PlanCost);

/// The predicted cost of one candidate plan for one tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PlanCost {
    misses: usize,
    shed_trials: usize,
}

impl PlanCost {
    /// Whether `self` Pareto-improves on `other`: no worse on either
    /// axis and strictly better on at least one.
    fn pareto_improves(&self, other: &PlanCost) -> bool {
        self.misses <= other.misses
            && self.shed_trials <= other.shed_trials
            && (self.misses < other.misses || self.shed_trials < other.shed_trials)
    }
}

/// One shard's capacity table during grid-scope planning.
type ShardTable = Vec<DeviceCapacity<'static>>;

/// The coordinated grid admission planner: one capacity table per
/// shard, advanced by [`play_tick`], used to score a cross-shard plan
/// against the per-shard baseline each tick.
///
/// The planner only ever hands shards admission *ceilings* — a shard's
/// dispatcher still runs its own policy and takes the lower of the two
/// levels — so runtime faults the planner cannot see degrade exactly as
/// they would without coordination. Candidates are therefore evaluated
/// under the same min-of-local-and-ceiling rule the dispatchers apply,
/// which makes the predictions exact for fault-free runs. A tick where
/// the baseline wins hands out an unconstrained ceiling, so a
/// single-shard grid under coordination is *identical* to per-shard
/// admission by construction.
pub(crate) struct GridPlanner {
    /// Planning assumes every device healthy on its primary algorithm:
    /// runtime faults are the shard's own business.
    shards: Vec<ShardTable>,
    ladder: TierLadder,
}

/// What the planner rules for one tick.
pub(crate) struct TickPlan {
    /// Shard for each of the tick's beams.
    pub routes: Vec<usize>,
    /// Per-shard admission ceiling (kept trials) for the tick; the
    /// full-resolution trial count means "unconstrained".
    pub kept: Vec<usize>,
}

impl GridPlanner {
    pub(crate) fn new(shards: &[ResolvedFleet], trials: usize) -> Self {
        Self {
            shards: shards
                .iter()
                .map(|s| {
                    s.devices
                        .iter()
                        .map(|d| DeviceCapacity::new(0.0, d.seconds_per_beam, true))
                        .collect()
                })
                .collect(),
            ladder: TierLadder::new(trials),
        }
    }

    /// Plans one tick: evaluates the per-shard baseline (`routes` as
    /// the grid would route them anyway, each shard shedding locally)
    /// against a coordinated candidate (capacity-aware routing plus one
    /// fleet-wide shed level), commits whichever the Pareto rule picks,
    /// and returns the chosen routes and per-shard ceilings.
    pub(crate) fn plan_tick(
        &mut self,
        release: f64,
        deadline: f64,
        alive: &[bool],
        baseline_routes: Vec<usize>,
    ) -> TickPlan {
        let n = self.shards.len();
        let ladder = &self.ladder;
        let demand = BeamDemand {
            release,
            deadline,
            beams: baseline_routes.len(),
        };

        // Baseline candidate: the grid's own routing, each shard
        // shedding locally (no ceiling).
        let unconstrained = vec![ladder.trials(); n];
        let (baseline_cost, baseline_shards) =
            self.evaluate(&baseline_routes, &unconstrained, &demand);

        // Coordinated candidate: one fleet-wide shed level from the
        // union view of every alive shard, routed by remaining headroom.
        let union: ShardTable = (0..n)
            .filter(|&s| alive[s])
            .flat_map(|s| self.shards[s].iter().copied())
            .collect();
        let devices = &union;
        let global_kept = PerDeviceGreedy::level(&demand, &CapacityView { ladder, devices });
        let headroom: Vec<usize> = (0..n)
            .map(|s| {
                if !alive[s] {
                    return 0;
                }
                let devices = &self.shards[s];
                CapacityView { ladder, devices }.feasible_beams(&demand, global_kept)
            })
            .collect();
        let coordinated_routes = dhondt(demand.beams, &headroom, alive);
        let coordinated_ceilings: Vec<usize> = (0..n)
            .map(|s| {
                if alive[s] {
                    global_kept
                } else {
                    ladder.trials()
                }
            })
            .collect();
        let (coordinated_cost, coordinated_shards) =
            self.evaluate(&coordinated_routes, &coordinated_ceilings, &demand);

        if coordinated_cost.pareto_improves(&baseline_cost) {
            self.shards = coordinated_shards;
            TickPlan {
                routes: coordinated_routes,
                kept: coordinated_ceilings,
            }
        } else {
            self.shards = baseline_shards;
            TickPlan {
                routes: baseline_routes,
                kept: unconstrained,
            }
        }
    }

    /// Plays one tick's routed beams through a copy of every shard's
    /// table under per-shard ceilings — shards are independent, so each
    /// plays its own share of the tick — and returns the summed
    /// predicted cost plus the advanced tables.
    fn evaluate(
        &self,
        routes: &[usize],
        ceilings: &[usize],
        demand: &BeamDemand,
    ) -> (PlanCost, Vec<ShardTable>) {
        let mut counts = vec![0usize; self.shards.len()];
        for &s in routes {
            counts[s] += 1;
        }
        let mut shards = self.shards.clone();
        let mut total = PlanCost::default();
        for ((devices, &beams), &ceiling) in shards.iter_mut().zip(&counts).zip(ceilings) {
            let share = BeamDemand { beams, ..*demand };
            let (_, cost) = play_tick(&share, &self.ladder, devices, ceiling);
            total.misses += cost.misses;
            total.shed_trials += cost.shed_trials;
        }
        (total, shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_reproduces_the_historical_tier_arithmetic() {
        // 1000 trials, 8 tiers of 125, at most 4 shed: 875/750/625/500.
        let l = TierLadder::new(1000);
        assert_eq!(l.trials(), 1000);
        assert_eq!(l.tier_size(), 125);
        assert_eq!(l.kept_options(), &[875, 750, 625, 500]);
        assert_eq!(l.floor(), 500);
        assert_eq!(
            l.levels().collect::<Vec<_>>(),
            vec![1000, 875, 750, 625, 500]
        );
        assert_eq!(l.kept_for(0), 1000);
        assert_eq!(l.kept_for(2), 750);
        assert_eq!(l.kept_for(99), 500, "deep requests clamp to the floor");
        assert_eq!(l.tiers_for(1000), 0);
        assert_eq!(l.tiers_for(625), 3);
        assert_eq!(l.snap(1000), 1000);
        assert_eq!(l.snap(700), 625);
        assert_eq!(l.snap(10), 500, "sub-floor snaps to the floor");
    }

    #[test]
    fn ladder_handles_uneven_tiers_and_disabled_shedding() {
        // 10 trials over 3 tiers of ceil(10/3)=4: kept 6, then 2.
        let l = TierLadder::with_tiers(10, 3, 3);
        assert_eq!(l.kept_options(), &[6, 2]);
        // A zero shed budget disables shedding entirely.
        let none = TierLadder::with_tiers(1000, 8, 0);
        assert!(none.kept_options().is_empty());
        assert_eq!(none.floor(), 1000);
        assert_eq!(none.kept_for(3), 1000);
    }

    fn view_of<'a>(ladder: &'a TierLadder, devices: &'a [DeviceCapacity]) -> CapacityView<'a> {
        CapacityView { ladder, devices }
    }

    fn dev(avail: f64, spb: f64) -> DeviceCapacity<'static> {
        DeviceCapacity::new(avail, spb, true)
    }

    #[test]
    fn feasible_beams_counts_healthy_budget_only() {
        let l = TierLadder::new(1000);
        let devices = [
            dev(0.0, 0.25),
            DeviceCapacity {
                healthy: false,
                ..dev(0.0, 0.25)
            },
        ];
        let view = view_of(&l, &devices);
        let demand = BeamDemand {
            release: 0.0,
            deadline: 1.0,
            beams: 10,
        };
        // One healthy device, 4 beams/s at full resolution.
        assert_eq!(view.feasible_beams(&demand, 1000), 4);
        // At the 500-trial floor the same device doubles up.
        assert_eq!(view.feasible_beams(&demand, 500), 8);
        // Saturation at the batch size.
        let small = BeamDemand { beams: 3, ..demand };
        assert_eq!(view.feasible_beams(&small, 1000), 3);
    }

    #[test]
    fn greedy_policy_walks_the_ladder_and_clamps_at_the_floor() {
        let l = TierLadder::new(1000);
        let devices = [dev(0.0, 0.25)];
        let view = view_of(&l, &devices);
        let fits_full = BeamDemand {
            release: 0.0,
            deadline: 1.0,
            beams: 4,
        };
        assert_eq!(
            PerDeviceGreedy.decide(&fits_full, &view),
            AdmissionDecision::admit(0)
        );
        let needs_shed = BeamDemand {
            beams: 5,
            ..fits_full
        };
        // 5 beams need ≤0.2 s each: kept 750 (cost 0.1875) is the first
        // level that fits.
        assert_eq!(
            PerDeviceGreedy.decide(&needs_shed, &view),
            AdmissionDecision::admit(2)
        );
        let hopeless = BeamDemand {
            beams: 100,
            ..fits_full
        };
        assert_eq!(
            PerDeviceGreedy.decide(&hopeless, &view),
            AdmissionDecision::admit(4),
            "hopeless batches admit at the deepest level and miss"
        );
        let empty = BeamDemand {
            beams: 0,
            ..fits_full
        };
        assert_eq!(
            PerDeviceGreedy.decide(&empty, &view),
            AdmissionDecision::admit(0)
        );
    }

    fn rate(algorithm: Algorithm, spb: f64) -> AlgorithmRate {
        AlgorithmRate {
            algorithm,
            seconds_per_beam: spb,
        }
    }

    #[test]
    fn algorithm_ladder_matches_greedy_on_single_entry_tables() {
        let l = TierLadder::new(1000);
        let devices = [dev(0.0, 0.25), dev(0.3, 0.5)];
        let view = view_of(&l, &devices);
        for beams in [0, 1, 4, 5, 100] {
            let demand = BeamDemand {
                release: 0.0,
                deadline: 1.0,
                beams,
            };
            assert_eq!(
                AlgorithmLadder.decide(&demand, &view),
                PerDeviceGreedy.decide(&demand, &view),
                "single-entry tables leave nothing to demote ({beams} beams)"
            );
        }
    }

    #[test]
    fn algorithm_ladder_demotes_instead_of_shedding() {
        let l = TierLadder::new(1000);
        let table = [
            rate(Algorithm::BruteForce, 0.25),
            rate(Algorithm::Subband { factor: 32 }, 0.125),
        ];
        let devices = [dev(0.0, 0.25).with_rates(Algorithm::BruteForce, &table)];
        let view = view_of(&l, &devices);
        // 5 beams by 1.0 s: brute force must shed to 750 (the greedy
        // test above); subband at 0.125 s/beam fits all 5 at full
        // resolution with zero cost.
        let demand = BeamDemand {
            release: 0.0,
            deadline: 1.0,
            beams: 5,
        };
        assert_eq!(
            AlgorithmLadder.decide(&demand, &view),
            AdmissionDecision::Admit {
                shed_tiers: 0,
                switches: vec![(0, Algorithm::Subband { factor: 32 })],
            }
        );
    }

    #[test]
    fn algorithm_ladder_rejects_non_pareto_demotions() {
        let l = TierLadder::new(1000);
        // The alternate is *slower* than the primary: demoting can only
        // hurt, so the baseline ruling must come back unchanged.
        let table = [
            rate(Algorithm::BruteForce, 0.25),
            rate(Algorithm::Subband { factor: 2 }, 0.4),
        ];
        let devices = [dev(0.0, 0.25).with_rates(Algorithm::BruteForce, &table)];
        let view = view_of(&l, &devices);
        let demand = BeamDemand {
            release: 0.0,
            deadline: 1.0,
            beams: 5,
        };
        assert_eq!(
            AlgorithmLadder.decide(&demand, &view),
            AdmissionDecision::admit(2)
        );
    }

    #[test]
    fn algorithm_ladder_promotes_once_pressure_passes() {
        let l = TierLadder::new(1000);
        // Device already demoted to subband; one beam with a generous
        // deadline fits at full fidelity, so the ladder promotes.
        let table = [
            rate(Algorithm::BruteForce, 0.25),
            rate(Algorithm::Subband { factor: 32 }, 0.125),
        ];
        let devices = [dev(0.0, 0.25).with_rates(Algorithm::Subband { factor: 32 }, &table)];
        assert_eq!(devices[0].seconds_per_beam, 0.125);
        let view = view_of(&l, &devices);
        let calm = BeamDemand {
            release: 0.0,
            deadline: 1.0,
            beams: 2,
        };
        assert_eq!(
            AlgorithmLadder.decide(&calm, &view),
            AdmissionDecision::Admit {
                shed_tiers: 0,
                switches: vec![(0, Algorithm::BruteForce)],
            }
        );
        // Under continuing pressure the demotion sticks: 5 beams only
        // fit cleanly on subband, so no promotion is offered.
        let busy = BeamDemand { beams: 5, ..calm };
        assert_eq!(
            AlgorithmLadder.decide(&busy, &view),
            AdmissionDecision::admit(0),
            "promotion is withheld while the cheap algorithm is load-bearing"
        );
    }

    #[test]
    fn algorithm_ladder_takes_multiple_steps_down_one_table() {
        let l = TierLadder::new(1000);
        // Neither the primary nor the middle row fits 5 beams at full
        // resolution by the deadline; the bottom row does, so the
        // ladder walks two steps in a single tick.
        let table = [
            rate(Algorithm::BruteForce, 0.5),
            rate(Algorithm::Subband { factor: 32 }, 0.3),
            rate(Algorithm::FourierDomain, 0.125),
        ];
        let devices = [dev(0.0, 0.5).with_rates(Algorithm::BruteForce, &table)];
        let view = view_of(&l, &devices);
        let demand = BeamDemand {
            release: 0.0,
            deadline: 1.0,
            beams: 5,
        };
        assert_eq!(
            AlgorithmLadder.decide(&demand, &view),
            AdmissionDecision::Admit {
                shed_tiers: 0,
                switches: vec![(0, Algorithm::FourierDomain)],
            },
            "the switch list carries only the final algorithm per device"
        );
    }

    #[test]
    fn pareto_rule_requires_improvement_on_both_axes() {
        let base = PlanCost {
            misses: 3,
            shed_trials: 100,
        };
        assert!(PlanCost {
            misses: 0,
            shed_trials: 100
        }
        .pareto_improves(&base));
        assert!(PlanCost {
            misses: 3,
            shed_trials: 50
        }
        .pareto_improves(&base));
        assert!(!base.pareto_improves(&base), "ties go to the baseline");
        assert!(
            !PlanCost {
                misses: 0,
                shed_trials: 101
            }
            .pareto_improves(&base),
            "trading misses for extra shed trials is not adopted"
        );
    }

    #[test]
    fn grid_admission_serde_roundtrip_and_default() {
        assert_eq!(GridAdmission::default(), GridAdmission::PerShard);
        for mode in [GridAdmission::PerShard, GridAdmission::Coordinated] {
            let json = serde_json::to_string(&mode).unwrap();
            let back: GridAdmission = serde_json::from_str(&json).unwrap();
            assert_eq!(back, mode);
        }
    }

    // -----------------------------------------------------------------
    // What the planners predict is what the dispatcher's ledger reports.
    // -----------------------------------------------------------------

    use crate::grid::Grid;
    use crate::load::LoadSource;
    use crate::metrics::BeamOutcome;
    use crate::scheduler::Scheduler;
    use crate::survey::SurveyLoad;
    use proptest::prelude::*;

    /// The dispatcher's side: what each tick of a fault-free run cost,
    /// read off the beam ledger.
    fn ledger_cost(
        ticks: usize,
        outcomes: impl Iterator<Item = (usize, BeamOutcome)>,
    ) -> Vec<PlanCost> {
        let mut cost = vec![PlanCost::default(); ticks];
        for (tick, outcome) in outcomes {
            match outcome {
                BeamOutcome::Completed { .. } => {}
                BeamOutcome::Degraded { shed_trials, .. } => cost[tick].shed_trials += shed_trials,
                BeamOutcome::Missed { .. } => cost[tick].misses += 1,
                BeamOutcome::ShedWhole { .. } => panic!("a fault-free run sheds nothing whole"),
            }
        }
        cost
    }

    fn demand_at(load: &SurveyLoad, tick: usize) -> BeamDemand {
        BeamDemand {
            release: load.release(tick),
            deadline: load.deadline(tick),
            beams: load.beams_at(tick),
        }
    }

    /// The planners' side: the dispatcher's tick loop with [`play_tick`]
    /// where the dispatcher places beams — rule, apply the switches,
    /// take the lower of the ruled level and the ceiling, play.
    fn predicted_cost(
        policy: &dyn AdmissionPolicy,
        fleet: &ResolvedFleet,
        load: &SurveyLoad,
        ceilings: &[usize],
    ) -> Vec<PlanCost> {
        let ladder = TierLadder::new(load.trials());
        let mut table: Vec<DeviceCapacity<'_>> = fleet
            .devices
            .iter()
            .map(|d| DeviceCapacity::new(0.0, 0.0, true).with_rates(d.rates[0].algorithm, &d.rates))
            .collect();
        let tick_cost = |tick: usize| {
            let demand = demand_at(load, tick);
            let AdmissionDecision::Admit {
                shed_tiers,
                switches,
            } = policy.decide(&demand, &view_of(&ladder, &table))
            else {
                panic!("neither in-tree policy defers or sheds a batch");
            };
            for (d, to) in switches {
                let row = table[d].rates.iter().find(|r| r.algorithm == to).unwrap();
                table[d].rerate(*row);
            }
            let ceiling = ceilings
                .get(tick)
                .map_or(load.trials(), |&c| ladder.snap(c));
            let level = ladder.kept_for(shed_tiers).min(ceiling);
            play_tick(&demand, &ladder, &mut table, level).1
        };
        (0..load.ticks()).map(tick_cost).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Both in-tree policies, free and under per-tick ceilings (on
        /// and off the ladder, fewer than there are ticks), on
        /// three-row tables whose alternates may be faster or slower
        /// than the primary: feasible, shedding and hopeless loads,
        /// backlog carried across ticks. Whatever plan the policy
        /// adopts — level and switches — costs the dispatcher what
        /// playing it predicted.
        #[test]
        fn a_policys_prediction_equals_the_ledger_with_and_without_ceilings(
            rows in prop::collection::vec((0.02f64..1.5, 0.3f64..1.2, 0.3f64..1.2), 1..8),
            trials in 8usize..2048,
            beams in 1usize..30,
            ticks in 1usize..5,
            ceilings in prop::collection::vec(0usize..2200, 0..5),
        ) {
            let tables: Vec<[(Algorithm, f64); 3]> = rows
                .iter()
                .map(|&(spb, sub, fdd)| [
                    (Algorithm::BruteForce, spb),
                    (Algorithm::Subband { factor: 32 }, spb * sub),
                    (Algorithm::FourierDomain, spb * sub * fdd),
                ])
                .collect();
            let tables: Vec<&[(Algorithm, f64)]> = tables.iter().map(|t| &t[..]).collect();
            let fleet = ResolvedFleet::synthetic_with_algorithms(trials, &tables);
            let load = SurveyLoad::custom(trials, beams, ticks);
            let policies: [&dyn AdmissionPolicy; 2] = [&PerDeviceGreedy, &AlgorithmLadder];
            for (policy, ceilings) in policies.iter().flat_map(|&p| [(p, &[][..]), (p, &ceilings)]) {
                let run = Scheduler::session(&fleet)
                    .load(&load)
                    .policy(policy)
                    .admission_ceilings(ceilings)
                    .run()
                    .unwrap();
                prop_assert_eq!(
                    predicted_cost(policy, &fleet, &load, ceilings),
                    ledger_cost(ticks, run.records.iter().map(|r| (r.tick, r.outcome)))
                );
            }
        }

        /// The coordinated planner on a 3-shard grid: whichever
        /// candidate `plan_tick` commits, its clocks are that
        /// candidate's and its summed cost is what the three shard
        /// dispatchers go on to report.
        #[test]
        fn grid_plan_prediction_equals_the_merged_ledger(
            spb in prop::collection::vec(0.05f64..1.2, 3..10),
            trials in 8usize..2048,
            beams in 1usize..30,
            ticks in 1usize..5,
        ) {
            let shards: Vec<ResolvedFleet> = (0..3)
                .map(|s| {
                    let share: Vec<f64> = spb.iter().copied().skip(s).step_by(3).collect();
                    ResolvedFleet::synthetic(trials, &share)
                })
                .collect();
            let load = SurveyLoad::custom(trials, beams, ticks);
            let mut planner = GridPlanner::new(&shards, trials);
            let predicted: Vec<PlanCost> = (0..ticks)
                .map(|tick| {
                    let demand = demand_at(&load, tick);
                    let before = GridPlanner {
                        shards: planner.shards.clone(),
                        ladder: planner.ladder.clone(),
                    };
                    // `StaticHash`, the grid's default routing.
                    let routes = (0..beams).map(|b| b % 3).collect();
                    let plan =
                        planner.plan_tick(demand.release, demand.deadline, &[true; 3], routes);
                    let (cost, clocks) = before.evaluate(&plan.routes, &plan.kept, &demand);
                    assert_eq!(clocks, planner.shards);
                    cost
                })
                .collect();
            let run = Grid::session(&shards)
                .load(&load)
                .admission(GridAdmission::Coordinated)
                .run()
                .unwrap();
            let reported = ledger_cost(ticks, run.records.iter().map(|r| (r.tick, r.outcome)));
            prop_assert_eq!(predicted, reported);
        }
    }
}
