//! The two-tier coordinator fleet (DESIGN.md §3.14).
//!
//! Every shard of streams gets a full [`Coordinator`] — the *leaf* —
//! running the unmodified flat protocol over its members with a
//! fraction of the error budget. Each leaf is simultaneously a *node*
//! of the *root* tier: a proxy [`Node`] per shard holds a root-assigned
//! safe zone over the shard's scaled partial mean, and the leaf
//! contacts the root only when a completed intra-shard sync moves that
//! partial mean out of the proxy's zone. Silence at the root is the
//! communication saving: a shard-local violation is resolved by the
//! leaf's own lazy/full sync and never crosses the tier boundary unless
//! the *shard aggregate* actually moved.
//!
//! Proxy vectors are scaled so the root's unweighted mean recovers the
//! global mean: leaf `l` publishes `v_l = (S·n_l/N)·μ_l`, where `μ_l`
//! is its partial mean, `n_l` its alive member count, `N` the alive
//! population, and `S` the alive leaf count — then
//! `(1/S)·Σ v_l = Σ (n_l/N)·μ_l = x̄`.

use std::sync::Arc;

use automon_core::{
    CommCause, Coordinator, CoordinatorStats, Epoch, MonitorConfig, MonitoredFunction, Node,
    NodeMessage, TierMessage,
};
use automon_net::ShardedFabric;
use automon_obs::{Counter, Gauge, SpanId, Telemetry};

use crate::shard::ShardMap;

/// Fraction of `ε` given to the leaf tier; the root gets the rest.
/// Not a knob: DESIGN.md §3.14's bound on the split does not hold, and
/// ROADMAP item 19(b) replaces the split altogether.
const LEAF_EPSILON_FRAC: f64 = 0.5;

/// Fleet-level configuration on top of the per-coordinator
/// [`MonitorConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of shards (leaf coordinators).
    pub shards: usize,
}

impl FleetConfig {
    /// A fleet of `shards` leaf coordinators.
    pub fn new(shards: usize) -> Self {
        Self { shards }
    }
}

/// Fleet-level event counters (protocol messages are accounted by the
/// fabrics; these count the *events* the hierarchy adds).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetEvents {
    /// Leaf→root reports routed (tier-boundary crossings).
    pub leaf_reports: u64,
    /// Shard rebalances performed (leaf crashes with survivors).
    pub rebalances: u64,
    /// Node crashes applied.
    pub node_crashes: u64,
    /// Node restarts applied.
    pub restarts: u64,
    /// Leaf crashes applied.
    pub leaf_crashes: u64,
}

struct FleetTel {
    reports: Counter,
    rebalances: Counter,
    alive_leaves: Gauge,
    alive_streams: Gauge,
}

impl FleetTel {
    fn new(tel: &Telemetry) -> Self {
        Self {
            reports: tel.counter(
                "automon_fleet_leaf_reports_total",
                "Leaf-to-root reports crossing the tier boundary",
            ),
            rebalances: tel.counter(
                "automon_fleet_rebalances_total",
                "Shard rebalances after leaf crashes",
            ),
            alive_leaves: tel.gauge(
                "automon_fleet_alive_leaves",
                "Leaf coordinators currently alive",
            ),
            alive_streams: tel.gauge(
                "automon_fleet_alive_streams",
                "Streams currently in the monitored population",
            ),
        }
    }
}

struct Leaf {
    coord: Coordinator,
    nodes: Vec<Node>,
    /// Leaf epoch whose `x0` was last pushed to the proxy.
    pushed_epoch: Epoch,
    /// Alive member count at the last proxy push (scale input).
    pushed_weight: usize,
}

/// The assembled two-tier fleet: leaves, root, proxies, and the
/// sharded fabric accounting every frame on both tiers.
pub struct Fleet {
    f: Arc<dyn MonitoredFunction>,
    leaf_cfg: MonitorConfig,
    map: ShardMap,
    leaves: Vec<Leaf>,
    leaf_alive: Vec<bool>,
    stream_alive: Vec<bool>,
    root: Coordinator,
    proxies: Vec<Node>,
    fabric: ShardedFabric,
    events: FleetEvents,
    tel: Telemetry,
    ftel: FleetTel,
}

impl Fleet {
    /// Build a fleet of `fc.shards` leaves over `streams` streams
    /// monitoring `f`. `cfg.epsilon` is split evenly between the tiers;
    /// every other knob applies to both tiers.
    /// Streams are assigned to shards round-robin
    /// ([`ShardMap::round_robin`]).
    pub fn new(
        f: Arc<dyn MonitoredFunction>,
        streams: usize,
        cfg: MonitorConfig,
        fc: FleetConfig,
    ) -> Self {
        let shards = fc.shards;
        let map = ShardMap::round_robin(streams, shards);
        let mut leaf_cfg = cfg.clone();
        leaf_cfg.epsilon = cfg.epsilon * LEAF_EPSILON_FRAC;
        let mut root_cfg = cfg.clone();
        root_cfg.epsilon = cfg.epsilon * (1.0 - LEAF_EPSILON_FRAC);
        let leaves: Vec<Leaf> = (0..shards)
            .map(|s| {
                let k = map.members(s).len();
                Leaf {
                    coord: Coordinator::new(f.clone(), k, leaf_cfg.clone()),
                    nodes: (0..k).map(|i| Node::new(i, f.clone())).collect(),
                    pushed_epoch: 0,
                    pushed_weight: 0,
                }
            })
            .collect();
        let root = Coordinator::new(f.clone(), shards, root_cfg);
        let fabric = ShardedFabric::new(shards);
        let tel = Telemetry::disabled();
        let ftel = FleetTel::new(&tel);
        Self {
            proxies: (0..shards).map(|l| Node::new(l, f.clone())).collect(),
            f,
            leaf_cfg,
            map,
            leaves,
            leaf_alive: vec![true; shards],
            stream_alive: vec![true; streams],
            root,
            fabric,
            events: FleetEvents::default(),
            tel,
            ftel,
        }
    }

    /// Attach telemetry to every coordinator, node, and fabric in the
    /// fleet, and register the fleet-level counters and gauges.
    /// Coordinator metrics aggregate across leaves (shared names);
    /// trace spans parent per tier, so the causal tree separates what
    /// the shared counters merge.
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        for leaf in &mut self.leaves {
            leaf.coord.set_telemetry(tel.clone());
            for node in &mut leaf.nodes {
                node.set_telemetry(&tel);
            }
        }
        self.root.set_telemetry(tel.clone());
        for proxy in &mut self.proxies {
            proxy.set_telemetry(&tel);
        }
        self.fabric = self.fabric.with_telemetry(&tel);
        self.ftel = FleetTel::new(&tel);
        self.ftel.alive_leaves.set(self.alive_leaves() as f64);
        self.ftel.alive_streams.set(self.alive_streams() as f64);
        self.tel = tel;
        self
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.leaves.len()
    }

    /// Leaf coordinators still alive.
    pub fn alive_leaves(&self) -> usize {
        self.leaf_alive.iter().filter(|&&a| a).count()
    }

    /// Streams still in the monitored population.
    pub fn alive_streams(&self) -> usize {
        self.stream_alive.iter().filter(|&&a| a).count()
    }

    /// The stream→shard assignment currently in force.
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// The root coordinator.
    pub fn root(&self) -> &Coordinator {
        &self.root
    }

    /// Leaf `l`'s coordinator.
    pub fn leaf_coord(&self, l: usize) -> &Coordinator {
        &self.leaves[l].coord
    }

    /// `true` while leaf `l` has not crashed.
    pub fn leaf_is_alive(&self, l: usize) -> bool {
        self.leaf_alive[l]
    }

    /// `true` while stream `g` has not crashed (or has restarted).
    pub fn stream_is_alive(&self, g: usize) -> bool {
        self.stream_alive[g]
    }

    /// The two-tier fabric (stats, ledgers, conservation).
    pub fn fabric(&self) -> &ShardedFabric {
        &self.fabric
    }

    /// Fleet-level event counters.
    pub fn events(&self) -> &FleetEvents {
        &self.events
    }

    /// The root's current approximation `f(x0)`, once both tiers have
    /// completed their first syncs.
    pub fn estimate(&self) -> Option<f64> {
        self.root.current_value()
    }

    /// Protocol statistics summed over every leaf coordinator.
    pub fn leaf_stats_total(&self) -> CoordinatorStats {
        let mut total = CoordinatorStats::default();
        for leaf in &self.leaves {
            total.absorb(leaf.coord.stats());
        }
        total
    }

    /// Push one data update for global stream `g` through the
    /// hierarchy: leaf-local constraint check, intra-shard resolution
    /// on violation, and a root report only if the resolved shard
    /// aggregate left the proxy's root-assigned zone. `x` is owned or
    /// borrowed: the stream's node copies it.
    pub fn update(&mut self, g: usize, x: impl AsRef<[f64]>) {
        assert!(g < self.stream_alive.len(), "unknown stream {g}");
        if !self.stream_alive[g] {
            return;
        }
        let (l, local) = self.map.locate(g);
        if !self.leaf_alive[l] {
            return;
        }
        let Some(msg) = self.leaves[l].nodes[local].update_data(x) else {
            return;
        };
        let cause = CommCause::of_node_message(&msg);
        let span = self.tel.span_begin(
            "violation",
            SpanId::NONE,
            &[
                ("tier", "leaf".into()),
                ("shard", l.into()),
                ("node", g.into()),
                ("cause", cause.name().into()),
            ],
        );
        let leaf = &mut self.leaves[l];
        self.fabric
            .leaf(l)
            .route_as(&mut leaf.coord, &mut leaf.nodes, msg, cause, span);
        self.after_leaf_activity(l, span);
        self.tel.span_end(span, &[]);
    }

    /// After any exchange on leaf `l`: refresh its proxy if its
    /// partial mean moved (epoch bump), or every proxy if the
    /// population weights moved (membership change — all scales
    /// depend on `N`).
    fn after_leaf_activity(&mut self, l: usize, parent: SpanId) {
        let leaf = &self.leaves[l];
        if leaf.coord.alive_count() != leaf.pushed_weight {
            self.refresh_all_proxies(parent);
        } else if leaf.coord.epoch() != leaf.pushed_epoch {
            let population = self.population();
            self.refresh_proxy(l, population, parent);
        }
    }

    /// Re-derive every proxy vector under the current weights. Root
    /// traffic never changes a leaf's membership, so one population
    /// sum serves every leaf.
    fn refresh_all_proxies(&mut self, parent: SpanId) {
        let population = self.population();
        for l in 0..self.leaves.len() {
            self.refresh_proxy(l, population, parent);
        }
    }

    /// Push leaf `l`'s scaled partial mean into its proxy; on proxy
    /// violation, report to the root and resolve the root tier.
    /// `population` is `self.population()`, summed once by the caller.
    fn refresh_proxy(&mut self, l: usize, population: (usize, usize), parent: SpanId) {
        if !self.leaf_alive[l] {
            return;
        }
        let leaf = &mut self.leaves[l];
        let Some(zone) = leaf.coord.zone() else {
            // Shard not initialized yet: nothing to publish.
            return;
        };
        let (s_alive, n_alive) = population;
        if n_alive == 0 {
            return;
        }
        let n_l = leaf.coord.alive_count();
        let scale = (s_alive as f64) * (n_l as f64) / (n_alive as f64);
        let v: Vec<f64> = zone.x0.iter().map(|&c| c * scale).collect();
        leaf.pushed_epoch = leaf.coord.epoch();
        leaf.pushed_weight = n_l;
        let Some(viol) = self.proxies[l].update_data(v.clone()) else {
            return;
        };
        let NodeMessage::Violation { kind, epoch, .. } = viol else {
            unreachable!("update_data only reports violations");
        };
        let report = TierMessage::LeafReport {
            leaf: l,
            kind,
            partial: v,
            weight: n_l as u64,
            epoch,
        };
        let span = self.tel.span_begin(
            "violation",
            parent,
            &[
                ("tier", "root".into()),
                ("shard", l.into()),
                ("violation", kind.name().into()),
            ],
        );
        self.events.leaf_reports += 1;
        self.ftel.reports.inc();
        self.fabric
            .route_leaf_report(&mut self.root, &mut self.proxies, &report, span);
        self.tel.span_end(span, &[]);
    }

    /// `(alive leaves, alive population over alive leaves)` — the
    /// scale inputs. Population counts a leaf's *registered* alive
    /// members, so restarts count from re-registration, exactly when
    /// they re-enter the shard mean. O(S).
    fn population(&self) -> (usize, usize) {
        let mut leaves = 0;
        let mut population = 0;
        for (l, leaf) in self.leaves.iter().enumerate() {
            if self.leaf_alive[l] {
                leaves += 1;
                population += leaf.coord.alive_count();
            }
        }
        (leaves, population)
    }

    /// Crash stream `g`: its leaf evicts the member (redistributing
    /// the shard's slack over the survivors) and every proxy scale is
    /// re-derived. A leaf left empty is torn down like a crashed leaf.
    pub fn crash_node(&mut self, g: usize) {
        if !self.stream_alive[g] {
            return;
        }
        self.stream_alive[g] = false;
        self.events.node_crashes += 1;
        self.ftel.alive_streams.set(self.alive_streams() as f64);
        let (l, local) = self.map.locate(g);
        if !self.leaf_alive[l] {
            return;
        }
        let leaf = &mut self.leaves[l];
        let outs = leaf.coord.evict(local);
        self.fabric.leaf(l).route_outbounds_as(
            &mut leaf.coord,
            &mut leaf.nodes,
            outs,
            CommCause::Eviction,
        );
        if self.leaves[l].coord.alive_count() == 0 {
            // Nothing left to monitor in the shard: retire the leaf.
            self.retire_leaf(l);
            return;
        }
        self.after_leaf_activity(l, SpanId::NONE);
    }

    /// Restart stream `g`: its node comes back with no protocol state
    /// and re-registers from the stream's last vector (charged as
    /// `rejoin`), and the leaf's full sync re-admits it.
    pub fn restart_node(&mut self, g: usize) {
        if self.stream_alive[g] {
            return;
        }
        let (l, local) = self.map.locate(g);
        if !self.leaf_alive[l] {
            return;
        }
        self.stream_alive[g] = true;
        self.events.restarts += 1;
        self.ftel.alive_streams.set(self.alive_streams() as f64);
        let leaf = &mut self.leaves[l];
        if let Some(m) = leaf.nodes[local].restart(local) {
            self.fabric.leaf(l).route_as(
                &mut leaf.coord,
                &mut leaf.nodes,
                m,
                CommCause::Rejoin,
                SpanId::NONE,
            );
            self.after_leaf_activity(l, SpanId::NONE);
        }
    }

    /// Crash leaf `l` permanently: the root evicts its proxy, the next
    /// alive leaf adopts its surviving streams (one `Rebalance`
    /// directive, then an intra-shard rebuild re-registering every
    /// member), and all proxy scales are re-derived.
    pub fn crash_leaf(&mut self, l: usize) {
        if !self.leaf_alive[l] {
            return;
        }
        self.events.leaf_crashes += 1;
        let survivors: Vec<usize> = self
            .map
            .members(l)
            .iter()
            .copied()
            .filter(|&g| self.stream_alive[g])
            .collect();
        for &g in self.map.members(l) {
            self.stream_alive[g] = false;
        }
        self.retire_leaf(l);
        let shards = self.leaves.len();
        let Some(successor) =
            (1..shards).map(|k| (l + k) % shards).find(|&k| self.leaf_alive[k])
        else {
            return;
        };
        if survivors.is_empty() {
            self.refresh_all_proxies(SpanId::NONE);
            return;
        }
        self.map.adopt(l, successor);
        // The adoptees' nodes follow them, appended in the order `adopt`
        // gave them local ids: each keeps its stream's last vector.
        let adopted = std::mem::take(&mut self.leaves[l].nodes);
        self.leaves[successor].nodes.extend(adopted);
        for &g in &survivors {
            self.stream_alive[g] = true;
        }
        let directive = TierMessage::Rebalance {
            leaf: successor,
            adopted: survivors,
            epoch: self.root.epoch(),
        };
        self.tel.event(
            "rebalance",
            &[
                ("from", l.into()),
                ("to", directive.leaf().into()),
                ("adopted", (self.map.members(successor).len()).into()),
            ],
        );
        self.fabric.send_rebalance(&directive, SpanId::NONE);
        self.events.rebalances += 1;
        self.ftel.rebalances.inc();
        self.ftel.alive_streams.set(self.alive_streams() as f64);
        self.rebuild_leaf(successor);
        self.refresh_all_proxies(SpanId::NONE);
    }

    /// Mark leaf `l` dead and evict its proxy from the root group
    /// (recovery traffic lifts to `shard_rebalance`).
    fn retire_leaf(&mut self, l: usize) {
        self.leaf_alive[l] = false;
        self.ftel.alive_leaves.set(self.alive_leaves() as f64);
        self.ftel.alive_streams.set(self.alive_streams() as f64);
        let outs = self.root.evict(l);
        self.fabric.root().route_outbounds_as(
            &mut self.root,
            &mut self.proxies,
            outs,
            CommCause::Eviction,
        );
    }

    /// Rebuild leaf `s`'s coordinator over its (enlarged) member set:
    /// the coordinator's group size is fixed at construction, so
    /// adoption means a fresh coordinator and a re-registration of
    /// every alive member from its node's last vector — an intra-shard
    /// full sync charged as `rejoin`. `leaves[s].nodes` already lists
    /// every member's node in local-id order; a dead member's node is
    /// kept as it is, holding its vector until the stream restarts.
    fn rebuild_leaf(&mut self, s: usize) {
        let members = self.map.members(s).to_vec();
        let k = members.len();
        let mut coord = Coordinator::new(self.f.clone(), k, self.leaf_cfg.clone());
        if self.tel.is_enabled() {
            coord.set_telemetry(self.tel.clone());
        }
        // Dead members stay dead in the new incarnation.
        for (local, &g) in members.iter().enumerate() {
            if !self.stream_alive[g] {
                let _ = coord.evict(local);
            }
        }
        let leaf = &mut self.leaves[s];
        leaf.coord = coord;
        leaf.pushed_epoch = 0;
        leaf.pushed_weight = 0;
        // Proxy state belongs to the old incarnation; a fresh node
        // re-registers at the root on the first post-rebuild push.
        let mut proxy = Node::new(s, self.f.clone());
        if self.tel.is_enabled() {
            proxy.set_telemetry(&self.tel);
        }
        self.proxies[s] = proxy;
        for (local, &g) in members.iter().enumerate() {
            if !self.stream_alive[g] {
                continue;
            }
            let leaf = &mut self.leaves[s];
            if let Some(m) = leaf.nodes[local].restart(local) {
                self.fabric.leaf(s).route_as(
                    &mut leaf.coord,
                    &mut leaf.nodes,
                    m,
                    CommCause::Rejoin,
                    SpanId::NONE,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automon_autodiff::{AutoDiffFn, Scalar, ScalarFn};
    use automon_core::NeighborhoodMode;

    struct Mean2;
    impl ScalarFn for Mean2 {
        fn dim(&self) -> usize {
            2
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            x[0] + x[1]
        }
    }

    fn fleet(streams: usize, shards: usize) -> Fleet {
        let f: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(Mean2));
        let cfg = MonitorConfig::builder(0.5)
            .neighborhood(NeighborhoodMode::Fixed(1.0))
            .build();
        Fleet::new(f, streams, cfg, FleetConfig::new(shards))
    }

    fn seed_all(fl: &mut Fleet, streams: usize) {
        for g in 0..streams {
            fl.update(g, vec![0.1 * g as f64, 0.2]);
        }
    }

    #[test]
    fn fleet_initializes_both_tiers_and_estimates() {
        let mut fl = fleet(6, 2);
        assert!(fl.estimate().is_none());
        seed_all(&mut fl, 6);
        // Every leaf synced, every proxy registered, root synced.
        for l in 0..2 {
            assert!(fl.leaf_coord(l).current_value().is_some());
        }
        let est = fl.estimate().expect("root initialized");
        // Truth: f(x̄) with x̄ = mean of all 6 vectors.
        let mean0 = (0..6).map(|g| 0.1 * g as f64).sum::<f64>() / 6.0;
        let truth = mean0 + 0.2;
        assert!((est - truth).abs() <= 0.5 + 1e-9, "est {est} truth {truth}");
        assert_eq!(fl.fabric().check_conservation(), None);
        assert!(fl.events().leaf_reports >= 2);
    }

    #[test]
    fn quiet_updates_do_not_reach_the_root() {
        let mut fl = fleet(6, 2);
        seed_all(&mut fl, 6);
        let root_msgs_before = fl.fabric().root_ref().stats().total_msgs();
        // Re-send the same vectors: inside every zone, total silence.
        seed_all(&mut fl, 6);
        assert_eq!(
            fl.fabric().root_ref().stats().total_msgs(),
            root_msgs_before
        );
    }

    #[test]
    fn node_crash_restart_round_trips() {
        let mut fl = fleet(6, 2);
        seed_all(&mut fl, 6);
        fl.crash_node(2);
        assert!(!fl.stream_is_alive(2));
        assert_eq!(fl.leaf_stats_total().evictions, 1);
        assert_eq!(fl.fabric().check_conservation(), None);
        fl.restart_node(2);
        assert!(fl.stream_is_alive(2));
        assert_eq!(fl.leaf_stats_total().rejoins, 1);
        assert_eq!(fl.fabric().check_conservation(), None);
        assert!(fl.estimate().is_some());
    }

    #[test]
    fn a_stream_dead_through_its_leafs_adoption_restarts_from_its_last_vector() {
        let mut fl = fleet(6, 3);
        seed_all(&mut fl, 6);
        // Stream 4 is member 1 of shard 1 (with stream 1).
        let g = 4;
        fl.update(g, vec![0.45, 0.2]);
        fl.crash_node(g);
        // A dead stream's updates go nowhere.
        fl.update(g, vec![9.0, 9.0]);
        fl.crash_leaf(1);
        let (s, local) = fl.shard_map().locate(g);
        assert_eq!((s, local), (2, 3), "adopted by shard 2 while dead");
        assert!(!fl.stream_is_alive(g));
        fl.restart_node(g);
        assert!(fl.stream_is_alive(g));
        let leaf = fl.leaf_coord(s);
        assert_eq!(leaf.stats().rejoins, 1);
        let snap = leaf.snapshot().expect("the rejoin sync completed");
        assert_eq!(snap.known_x[local].as_deref(), Some(&[0.45, 0.2][..]));
        assert_eq!(fl.fabric().check_conservation(), None);
    }

    #[test]
    fn leaf_crash_rebalances_survivors_onto_successor() {
        let mut fl = fleet(6, 3);
        seed_all(&mut fl, 6);
        fl.crash_leaf(1);
        assert!(!fl.leaf_is_alive(1));
        assert_eq!(fl.alive_leaves(), 2);
        // Members 1 and 4 moved to shard 2.
        assert_eq!(fl.shard_map().locate(1).0, 2);
        assert_eq!(fl.shard_map().locate(4).0, 2);
        assert_eq!(fl.alive_streams(), 6);
        assert_eq!(fl.events().rebalances, 1);
        assert_eq!(fl.fabric().check_conservation(), None);
        // The fleet still runs: updates flow through the adopter.
        for g in 0..6 {
            fl.update(g, vec![1.0 + 0.1 * g as f64, 0.4]);
        }
        assert!(fl.estimate().is_some());
        assert_eq!(fl.fabric().check_conservation(), None);
        // Root-fabric rows all carry tier causes.
        for cause in fl.fabric().root_ref().ledger().by_cause().keys() {
            assert_eq!(cause.at_root(), *cause);
        }
    }
}
