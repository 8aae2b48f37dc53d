//! The shared-fabric event core: N tenant event streams over one chip.
//!
//! This is the engine behind both [`Simulator`](crate::Simulator) and the
//! multi-tenant fabric simulation in `cim-fabric`. One event heap
//! interleaves every tenant's completions, ordered by `(finish, tenant,
//! layer, set)` — the single-tenant path is literally the `N == 1` special
//! case with an uncontended fabric, so the two can never drift apart.
//!
//! Three contention points are modelled, all inactive under
//! [`FabricContention::uncontended`]:
//!
//! * **Tile occupancy** — a tile executes one tenant's sets at a time.
//!   Ownership is tracked as a rolling window per tile: same-tenant
//!   bookings extend the window freely; a cross-tenant booking waits until
//!   the current window ends (arbitration is reservation-order, which is
//!   event-order, which is deterministic).
//! * **Link bandwidth** — a finite per-link byte budget serializes
//!   cross-tile messages: each message reserves every directed link of its
//!   XY route for `ceil(bytes / bandwidth)` cycles, injecting when the
//!   busiest link on the route frees up.
//! * **Weight residency** — each (tenant, layer) weight block occupies
//!   `pes` units of fabric capacity while resident. When a booking would
//!   overflow the capacity, least-recently-used blocks are evicted; an
//!   evicted block charges `pes × reload_cycles_per_pe` cycles on its next
//!   booking (the first-ever load is free — weights are pre-programmed).
//!
//! Determinism law: the outcome is a pure function of the workloads (in
//! slice order) and the fabric spec. No clocks, no entropy, no
//! iteration-order-dependent state (all shared maps are B-trees keyed by
//! plain integers).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, BTreeMap};

use cim_arch::{EnergyLog, FabricSpec, NocSpec, TileId};
use clsa_core::{CostedDeps, Dependencies, LayerSets, Schedule, SetRef, SetTime};

use crate::engine::SimResult;
use crate::error::{Result, SimError};
use crate::stats::{GroupStats, HopClassStats, SimStats};

/// One tenant's workload: the Stage-I/II artifacts plus its fabric
/// context (arrival time and per-group home tiles).
#[derive(Debug)]
pub struct TenantWorkload<'a> {
    /// Stage-I sets of every base layer.
    pub layers: &'a [LayerSets],
    /// Stage-II dependencies over those sets.
    pub deps: &'a Dependencies,
    /// Precomputed edge-cost tables (must be built from `deps`; the
    /// engine sorts its producer-side fan-out from them).
    pub costed: &'a CostedDeps,
    /// Cycle at which this tenant's first set may start.
    pub arrival: u64,
    /// Home tile per PE group (one per layer). `None` disables tile
    /// occupancy and link contention for this tenant — the single-tenant
    /// compatibility mode.
    pub home_tiles: Option<Vec<TileId>>,
}

/// The fabric's shared-resource model for one run.
#[derive(Debug, Clone, Default)]
pub struct FabricContention {
    /// Mesh geometry for link routing. `None` disables the link model
    /// even if a bandwidth limit is set.
    pub noc: Option<NocSpec>,
    /// Capacity and bandwidth limits (zeros = unbounded).
    pub spec: FabricSpec,
}

impl FabricContention {
    /// The idle-chip model: no geometry, no limits. [`run_shared`] under
    /// this contention is byte-identical to the single-tenant engine.
    pub fn uncontended() -> Self {
        Self::default()
    }
}

/// Per-tenant outcome of a shared run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantOutcome {
    /// The tenant's schedule and statistics, in absolute fabric time
    /// (start times are ≥ the tenant's arrival).
    pub result: SimResult,
    /// Last finish minus arrival — the tenant's observed makespan.
    pub span_cycles: u64,
    /// Cycles of tile-ownership windows attributed to this tenant,
    /// summed over tiles. Windows on one tile never overlap, so
    /// Σ_tenants `busy_cycles` ≤ tiles × makespan (the conservation law).
    pub busy_cycles: u64,
    /// Cycles this tenant's sets were pushed back waiting for a tile
    /// owned by another tenant.
    pub occupancy_stall_cycles: u64,
    /// Cycles this tenant's messages waited for busy NoC links.
    pub link_stall_cycles: u64,
    /// Cycles spent re-programming evicted weight blocks.
    pub reload_cycles: u64,
    /// This tenant's weight blocks evicted by anyone (including itself).
    pub evictions: u64,
    /// Reloads this tenant paid for (bookings that found their block
    /// evicted).
    pub reloads: u64,
}

/// Outcome of one shared-fabric run.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedOutcome {
    /// Per-tenant outcomes, in workload order.
    pub tenants: Vec<TenantOutcome>,
    /// Last finish over all tenants.
    pub makespan: u64,
}

/// A directed mesh link between two adjacent coordinates.
type Link = ((usize, usize), (usize, usize));

/// Rolling tile-ownership window (see module docs).
struct Window {
    owner: usize,
    start: u64,
    until: u64,
}

/// One resident weight block.
struct Block {
    pes: usize,
    last_use: u64,
}

/// Shared mutable fabric state, updated in event order.
#[derive(Default)]
struct FabricState {
    /// Tile id → current ownership window.
    windows: BTreeMap<u32, Window>,
    /// Directed link → cycle at which it frees up.
    link_free: BTreeMap<Link, u64>,
    /// (from tile, to tile) → cached XY route as directed links.
    routes: BTreeMap<(u32, u32), Vec<Link>>,
    /// (tenant, layer) → resident weight block.
    resident: BTreeMap<(usize, usize), Block>,
    /// PEs of capacity currently occupied by resident blocks.
    used_pes: usize,
    /// Booking sequence counter driving LRU recency.
    lru_seq: u64,
}

/// In-flight byte tracking for one message class (min-heap on arrival).
#[derive(Default)]
struct InflightTracker {
    inflight: u64,
    peak: u64,
    arrivals: BinaryHeap<Reverse<(u64, u64)>>,
}

impl InflightTracker {
    fn send(&mut self, now: u64, arrival: u64, bytes: u64) {
        while let Some(&Reverse((at, b))) = self.arrivals.peek() {
            if at > now {
                break;
            }
            self.inflight -= b;
            self.arrivals.pop();
        }
        self.arrivals.push(Reverse((arrival, bytes)));
        self.inflight += bytes;
        self.peak = self.peak.max(self.inflight);
    }
}

/// Hop-class accumulator (messages, bytes, in-flight peak).
#[derive(Default)]
struct HopClass {
    messages: u64,
    bytes: u64,
    inflight: InflightTracker,
}

/// The producer side of one tenant's cost table: per producer global
/// index, the edges it feeds, in consumer-arena order (a counting sort of
/// the consumer-side CSR by producer). Completions deliver along it.
struct FanOut {
    offsets: Vec<usize>,
    /// Per fan-out edge: the consumer, the edge latency and its hop count.
    edges: Vec<(SetRef, u64, u64)>,
}

impl FanOut {
    fn of(costed: &CostedDeps) -> Self {
        let space = costed.space();
        let total = space.total_sets();
        let mut offsets = vec![0usize; total + 1];
        for i in 0..total {
            for &pi in costed.incoming(i).0 {
                offsets[pi + 1] += 1;
            }
        }
        for i in 0..total {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut edges = vec![(SetRef { layer: 0, set: 0 }, 0, 0); costed.num_edges()];
        for l in 0..space.num_layers() {
            for s in 0..space.sets_in(l) {
                let i = space.index(l, s);
                let (producers, latencies) = costed.incoming(i);
                let hops = costed.hops_into(i);
                for (e, (&pi, &lat)) in producers.iter().zip(latencies).enumerate() {
                    let hop = hops.get(e).copied().unwrap_or(0);
                    edges[cursor[pi]] = (SetRef { layer: l, set: s }, lat, hop);
                    cursor[pi] += 1;
                }
            }
        }
        FanOut { offsets, edges }
    }

    /// The edges producer `i` feeds.
    fn of_producer(&self, i: usize) -> &[(SetRef, u64, u64)] {
        &self.edges[self.offsets[i]..self.offsets[i + 1]]
    }
}

/// Per-tenant mutable run state (the single-tenant engine's locals, one
/// copy per tenant).
struct TenantState {
    indegree: Vec<u32>,
    ready: Vec<u64>,
    next: Vec<usize>,
    group_free: Vec<u64>,
    first_start: Vec<u64>,
    last_finish: Vec<u64>,
    started: Vec<bool>,
    times: Vec<SetTime>,
    pending_consumers: Vec<u32>,
    live_bytes: u64,
    peak_live_bytes: u64,
    stats: SimStats,
    energy: EnergyLog,
    ever_loaded: Vec<bool>,
    completed: usize,
    total: usize,
    makespan: u64,
    hop_classes: BTreeMap<u64, HopClass>,
    noc_inflight: InflightTracker,
    busy_cycles: u64,
    occupancy_stall: u64,
    link_stall: u64,
    reload_cycles: u64,
    evictions: u64,
    reloads: u64,
}

impl TenantState {
    fn new(w: &TenantWorkload<'_>) -> Self {
        let total = w.costed.space().total_sets();
        let n_layers = w.layers.len();
        let mut indegree = vec![0u32; total];
        for (l, layer) in w.layers.iter().enumerate() {
            for s in 0..layer.sets.len() {
                indegree[w.costed.space().index(l, s)] = w.deps.of(l, s).len() as u32;
            }
        }
        TenantState {
            indegree,
            ready: vec![0; total],
            next: vec![0; n_layers],
            group_free: vec![w.arrival; n_layers],
            first_start: vec![u64::MAX; n_layers],
            last_finish: vec![0; n_layers],
            started: vec![false; total],
            times: vec![SetTime { start: 0, finish: 0 }; total],
            pending_consumers: vec![0; total],
            live_bytes: 0,
            peak_live_bytes: 0,
            stats: SimStats {
                groups: vec![GroupStats::default(); n_layers],
                ..SimStats::default()
            },
            energy: EnergyLog::new(),
            ever_loaded: vec![false; n_layers],
            completed: 0,
            total,
            makespan: 0,
            hop_classes: BTreeMap::new(),
            noc_inflight: InflightTracker::default(),
            busy_cycles: 0,
            occupancy_stall: 0,
            link_stall: 0,
            reload_cycles: 0,
            evictions: 0,
            reloads: 0,
        }
    }
}

/// Books `[want, want + dur)` on `tile` for `tenant`, pushing the start
/// past a foreign ownership window if needed. Returns `(start, stall)`.
fn book_tile(
    fs: &mut FabricState,
    states: &mut [TenantState],
    tile: u32,
    tenant: usize,
    want: u64,
    dur: u64,
) -> (u64, u64) {
    match fs.windows.get_mut(&tile) {
        None => {
            fs.windows.insert(
                tile,
                Window {
                    owner: tenant,
                    start: want,
                    until: want + dur,
                },
            );
            (want, 0)
        }
        Some(w) if w.owner == tenant => {
            if want >= w.until {
                // Gap in the tenant's own usage: close the window so idle
                // time is not counted as busy.
                states[tenant].busy_cycles += w.until - w.start;
                w.start = want;
                w.until = want + dur;
            } else {
                w.until = w.until.max(want + dur);
            }
            (want, 0)
        }
        Some(w) => {
            let start = want.max(w.until);
            states[w.owner].busy_cycles += w.until - w.start;
            let stall = start - want;
            *w = Window {
                owner: tenant,
                start,
                until: start + dur,
            };
            (start, stall)
        }
    }
}

/// Touches weight block `(tenant, layer)` of `pes` PEs: evicts LRU blocks
/// until it fits and returns the reload charge in cycles (0 on a hit or a
/// first-ever load).
fn touch_block(
    fs: &mut FabricState,
    states: &mut [TenantState],
    tenant: usize,
    layer: usize,
    pes: usize,
    spec: &FabricSpec,
) -> u64 {
    if spec.capacity_pes == 0 || pes == 0 {
        return 0;
    }
    fs.lru_seq += 1;
    let seq = fs.lru_seq;
    if let Some(b) = fs.resident.get_mut(&(tenant, layer)) {
        b.last_use = seq;
        return 0;
    }
    // Evict least-recently-used blocks until the new block fits. A block
    // larger than the whole capacity over-commits after evicting
    // everything else — it still runs, it just evicts the world.
    while fs.used_pes + pes > spec.capacity_pes {
        let victim = fs
            .resident
            .iter()
            .min_by_key(|(key, b)| (b.last_use, **key))
            .map(|(key, _)| *key);
        let Some(key) = victim else { break };
        if let Some(b) = fs.resident.remove(&key) {
            fs.used_pes -= b.pes;
            states[key.0].evictions += 1;
        }
    }
    fs.used_pes += pes;
    fs.resident.insert((tenant, layer), Block { pes, last_use: seq });
    if states[tenant].ever_loaded[layer] {
        let charge = pes as u64 * spec.reload_cycles_per_pe;
        states[tenant].reloads += 1;
        states[tenant].reload_cycles += charge;
        charge
    } else {
        states[tenant].ever_loaded[layer] = true;
        0
    }
}

/// Reserves the XY route `from → to` for one message of `bytes` bytes
/// sent at `now`. Returns `(wire_clear, stall)`: the cycle the last byte
/// clears the route, and how long injection waited for busy links.
fn inject_message(
    fs: &mut FabricState,
    noc: &NocSpec,
    bandwidth: u64,
    from: TileId,
    to: TileId,
    now: u64,
    bytes: u64,
) -> Result<(u64, u64)> {
    let key = (from.0, to.0);
    if let std::collections::btree_map::Entry::Vacant(e) = fs.routes.entry(key) {
        let bad = |e: cim_arch::ArchError| SimError::BadWorkload {
            detail: format!("fabric route {from} -> {to} failed: {e}"),
        };
        let start = noc.coord(from).map_err(bad)?;
        let mut prev = (start.row, start.col);
        let mut links = Vec::new();
        for c in noc.xy_route(from, to).map_err(bad)? {
            let cur = (c.row, c.col);
            links.push((prev, cur));
            prev = cur;
        }
        e.insert(links);
    }
    let links = &fs.routes[&key];
    if links.is_empty() {
        return Ok((now, 0));
    }
    let ser = bytes.div_ceil(bandwidth).max(1);
    let busiest = links
        .iter()
        .map(|l| fs.link_free.get(l).copied().unwrap_or(0))
        .max()
        .unwrap_or(0);
    let start = busiest.max(now);
    let clear = start + ser;
    let route: Vec<Link> = links.clone();
    for l in route {
        fs.link_free.insert(l, clear);
    }
    Ok((clear, start - now))
}

/// Attempts to start the current set of `workloads[k]`'s layer `l`:
/// charges residency reloads, books the home tile, and pushes the
/// completion event. The single-tenant engine's `try_start!` with the
/// fabric hooks threaded through.
fn try_start(
    workloads: &[TenantWorkload<'_>],
    states: &mut [TenantState],
    fs: &mut FabricState,
    heap: &mut BinaryHeap<Reverse<(u64, usize, usize, usize)>>,
    fabric: &FabricContention,
    k: usize,
    l: usize,
) {
    let w = &workloads[k];
    let s = states[k].next[l];
    if s >= w.layers[l].sets.len() {
        return;
    }
    let i = w.costed.space().index(l, s);
    if states[k].started[i] || states[k].indegree[i] != 0 {
        return;
    }
    let want = states[k].group_free[l].max(states[k].ready[i]);
    let reload = touch_block(fs, states, k, l, w.layers[l].pes, &fabric.spec);
    let dur = w.layers[l].sets[s].duration + reload;
    let (start, stall) = match &w.home_tiles {
        Some(tiles) => book_tile(fs, states, tiles[l].0, k, want, dur),
        None => (want, 0),
    };
    let st = &mut states[k];
    st.occupancy_stall += stall;
    let finish = start + dur;
    st.started[i] = true;
    st.times[i] = SetTime { start, finish };
    st.group_free[l] = finish;
    st.first_start[l] = st.first_start[l].min(start);
    heap.push(Reverse((finish, k, l, s)));
}

/// Runs `workloads` to completion over one shared fabric.
///
/// With a single workload (arrival 0, no home tiles) under
/// [`FabricContention::uncontended`], the outcome's `result` is
/// byte-identical to [`Simulator::run_costed`](crate::Simulator::run_costed)
/// — which is implemented as exactly that call.
///
/// Each tenant's cost table is read from the consumer side, as the
/// schedulers read it; the producer-side fan-out that completions deliver
/// along is sorted from it once per call (O(sets + edges) per tenant).
///
/// # Errors
///
/// Returns [`SimError::BadWorkload`] when any tenant's inputs disagree
/// (shapes, mismatched cost tables, wrong home-tile count) and
/// [`SimError::Deadlock`] when unfinished sets remain after the event heap
/// drains.
pub fn run_shared(
    workloads: &[TenantWorkload<'_>],
    fabric: &FabricContention,
) -> Result<SharedOutcome> {
    for (k, w) in workloads.iter().enumerate() {
        if w.deps.num_layers() != w.layers.len() {
            return Err(SimError::BadWorkload {
                detail: format!(
                    "tenant {k}: dependencies cover {} layers, sets cover {}",
                    w.deps.num_layers(),
                    w.layers.len()
                ),
            });
        }
        if !w.costed.matches(w.deps) {
            return Err(SimError::BadWorkload {
                detail: format!("tenant {k}: cost table was built from different dependencies"),
            });
        }
        if let Some(tiles) = &w.home_tiles {
            if tiles.len() != w.layers.len() {
                return Err(SimError::BadWorkload {
                    detail: format!(
                        "tenant {k}: {} home tiles for {} layers",
                        tiles.len(),
                        w.layers.len()
                    ),
                });
            }
        }
    }

    let fanouts: Vec<FanOut> = workloads.iter().map(|w| FanOut::of(w.costed)).collect();
    let mut states: Vec<TenantState> = workloads.iter().map(TenantState::new).collect();
    let mut fs = FabricState::default();
    // Event heap: Reverse ordering on (finish, tenant, layer, set).
    let mut heap: BinaryHeap<Reverse<(u64, usize, usize, usize)>> = BinaryHeap::new();

    for (k, w) in workloads.iter().enumerate() {
        for l in 0..w.layers.len() {
            try_start(workloads, &mut states, &mut fs, &mut heap, fabric, k, l);
        }
    }

    while let Some(Reverse((t, k, l, s))) = heap.pop() {
        let w = &workloads[k];
        {
            let st = &mut states[k];
            st.stats.events += 1;
            st.completed += 1;
            st.makespan = st.makespan.max(t);
            st.last_finish[l] = st.last_finish[l].max(t);
            let dur = w.layers[l].sets[s].duration;
            st.stats.groups[l].active_cycles += dur;
            st.stats.groups[l].sets_executed += 1;
            st.energy.record_mvms(dur * w.layers[l].pes as u64);
            // Chain: the group moves on to its next set.
            st.next[l] = s + 1;
        }
        try_start(workloads, &mut states, &mut fs, &mut heap, fabric, k, l);

        // Data edges: deliver this set to its consumers — latency, byte
        // count, and hop count all precomputed; link serialization is the
        // only run-time addition.
        let produced = w.costed.space().index(l, s);
        let bytes = w.costed.set_bytes(l, s);
        let fan_out = fanouts[k].of_producer(produced);
        if !fan_out.is_empty() {
            let st = &mut states[k];
            st.pending_consumers[produced] = fan_out.len() as u32;
            st.live_bytes += bytes;
            st.peak_live_bytes = st.peak_live_bytes.max(st.live_bytes);
        }
        for &(c, delay, edge_hops) in fan_out {
            let mut arrival = t + delay;
            if let (Some(noc), Some(tiles)) = (&fabric.noc, &w.home_tiles) {
                let bw = fabric.spec.link_bandwidth_bytes_per_cycle;
                if bw > 0 && tiles[l] != tiles[c.layer] {
                    let (clear, stall) =
                        inject_message(&mut fs, noc, bw, tiles[l], tiles[c.layer], t, bytes)?;
                    arrival = clear + delay;
                    states[k].link_stall += stall;
                }
            }
            let st = &mut states[k];
            let ci = w.costed.space().index(c.layer, c.set);
            st.ready[ci] = st.ready[ci].max(arrival);
            st.indegree[ci] -= 1;
            st.stats.messages += 1;
            st.stats.bytes_moved += bytes;
            if w.costed.tracks_transfers() {
                st.energy.record_transfer(bytes, edge_hops);
                let class = st.hop_classes.entry(edge_hops).or_default();
                class.messages += 1;
                class.bytes += bytes;
                class.inflight.send(t, arrival, bytes);
                st.noc_inflight.send(t, arrival, bytes);
            }
            try_start(workloads, &mut states, &mut fs, &mut heap, fabric, k, c.layer);
        }

        // Release producer buffers whose last consuming edge was this
        // completed set's own dependencies.
        let st = &mut states[k];
        for p in w.deps.of(l, s) {
            let pi = w.costed.space().index(p.layer, p.set);
            st.pending_consumers[pi] -= 1;
            if st.pending_consumers[pi] == 0 {
                st.live_bytes -= w.costed.set_bytes(p.layer, p.set);
            }
        }
    }

    let completed: usize = states.iter().map(|st| st.completed).sum();
    let total: usize = states.iter().map(|st| st.total).sum();
    if completed != total {
        return Err(SimError::Deadlock { completed, total });
    }

    // Flush open ownership windows into the busy accounting.
    for w in fs.windows.values() {
        states[w.owner].busy_cycles += w.until - w.start;
    }

    let mut makespan = 0u64;
    let tenants = workloads
        .iter()
        .zip(states)
        .map(|(w, mut st)| {
            for l in 0..w.layers.len() {
                if st.first_start[l] != u64::MAX {
                    let span = st.last_finish[l] - st.first_start[l];
                    st.stats.groups[l].stall_cycles = span - st.stats.groups[l].active_cycles;
                }
            }
            st.stats.peak_live_bytes = st.peak_live_bytes;
            st.stats.energy = st.energy;
            st.stats.hop_profile = st
                .hop_classes
                .iter()
                .map(|(&h, c)| HopClassStats {
                    hops: h,
                    messages: c.messages,
                    bytes: c.bytes,
                    peak_inflight_bytes: c.inflight.peak,
                })
                .collect();
            st.stats.peak_inflight_bytes = st.noc_inflight.peak;
            makespan = makespan.max(st.makespan);
            TenantOutcome {
                result: SimResult {
                    schedule: Schedule::from_arena(
                        w.costed.space().clone(),
                        st.times,
                        st.makespan,
                    ),
                    stats: st.stats,
                },
                span_cycles: st.makespan.saturating_sub(w.arrival),
                busy_cycles: st.busy_cycles,
                occupancy_stall_cycles: st.occupancy_stall,
                link_stall_cycles: st.link_stall,
                reload_cycles: st.reload_cycles,
                evictions: st.evictions,
                reloads: st.reloads,
            }
        })
        .collect();

    Ok(SharedOutcome { tenants, makespan })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_arch::{place_groups, Architecture, PlacementStrategy, TileSpec};
    use cim_ir::{FeatureShape, NodeId, Rect};
    use clsa_core::{cross_layer_schedule_costed, EdgeCost, OfmSet};

    /// `n` sets of `dur` cycles on a `pes`-PE group.
    fn layer(nsets: usize, dur: u64, pes: usize) -> LayerSets {
        LayerSets {
            node: NodeId(0),
            name: format!("l{nsets}x{dur}"),
            logical: 0,
            ofm: FeatureShape::new(nsets, dur as usize, 1),
            pes,
            quantum: 1,
            sets: (0..nsets)
                .map(|y| OfmSet {
                    rect: Rect::new(y, 0, y, dur as usize - 1),
                    duration: dur,
                })
                .collect(),
        }
    }

    fn chain_workload() -> (Vec<LayerSets>, Dependencies) {
        let layers = vec![layer(2, 10, 2), layer(2, 10, 2)];
        let deps = Dependencies::from_edges(
            &[2, 2],
            &[
                (SetRef { layer: 1, set: 0 }, SetRef { layer: 0, set: 0 }),
                (SetRef { layer: 1, set: 1 }, SetRef { layer: 0, set: 1 }),
            ],
        )
        .unwrap();
        (layers, deps)
    }

    fn free_costed(layers: &[LayerSets], deps: &Dependencies) -> CostedDeps {
        CostedDeps::free(layers, deps).unwrap()
    }

    /// A tenant arriving at 0 with no home tiles; override fields with
    /// struct-update syntax.
    fn tenant<'a>(
        layers: &'a [LayerSets],
        deps: &'a Dependencies,
        costed: &'a CostedDeps,
    ) -> TenantWorkload<'a> {
        TenantWorkload {
            layers,
            deps,
            costed,
            arrival: 0,
            home_tiles: None,
        }
    }

    fn uncontended(workloads: &[TenantWorkload<'_>]) -> Result<SharedOutcome> {
        run_shared(workloads, &FabricContention::uncontended())
    }

    /// Set (0,0) feeds (1,0) and (1,1); set (0,1) feeds (1,1), and a
    /// NoC + GPEU table over it.
    fn fan_workload() -> (Vec<LayerSets>, Dependencies, CostedDeps) {
        let layers = vec![layer(2, 4, 1), layer(2, 8, 1)];
        let (a, b) = (SetRef { layer: 0, set: 0 }, SetRef { layer: 0, set: 1 });
        let (c, d) = (SetRef { layer: 1, set: 0 }, SetRef { layer: 1, set: 1 });
        let deps = Dependencies::from_edges(&[2, 2], &[(c, a), (d, a), (d, b)]).unwrap();
        let arch = Architecture::builder()
            .tile(TileSpec {
                pes_per_tile: 1,
                ..TileSpec::isaac_like()
            })
            .pes(2)
            .build()
            .unwrap();
        let placement = place_groups(&arch, &[1, 1], PlacementStrategy::Contiguous).unwrap();
        let noc = EdgeCost::NocAndGpeu { arch, placement };
        let costed = CostedDeps::build(&layers, &deps, &noc).unwrap();
        (layers, deps, costed)
    }

    #[test]
    fn fanout_lists_consumers_in_arena_order() {
        let (layers, deps, noc) = fan_workload();
        for costed in [free_costed(&layers, &deps), noc] {
            let fan = FanOut::of(&costed);
            let index = |l, s| costed.space().index(l, s);
            // The `k`-th edge into consumer (1, set): latency and hops move
            // over from the consumer side unchanged.
            let edge = |set, k: usize| {
                let i = index(1, set);
                let hop = costed.hops_into(i).get(k).copied().unwrap_or(0);
                (SetRef { layer: 1, set }, costed.incoming(i).1[k], hop)
            };
            assert_eq!(fan.of_producer(index(0, 0)), &[edge(0, 0), edge(1, 0)]);
            assert_eq!(fan.of_producer(index(0, 1)), &[edge(1, 1)]);
            // Sinks feed nobody; every consumer edge appears exactly once.
            assert!(fan.of_producer(index(1, 0)).is_empty());
            let total: usize = (0..costed.space().total_sets())
                .map(|i| fan.of_producer(i).len())
                .sum();
            assert_eq!(total, costed.num_edges());
        }
    }

    #[test]
    fn free_and_noc_tables_run_side_by_side() {
        let (layers, deps, noc) = fan_workload();
        let free = free_costed(&layers, &deps);
        let out = uncontended(&[tenant(&layers, &deps, &free), tenant(&layers, &deps, &noc)]);
        let out = out.unwrap();
        for (t, costed) in out.tenants.iter().zip([&free, &noc]) {
            // Without home tiles nothing is shared: each tenant runs its own
            // analytic schedule and sends one message per edge.
            let analytic = cross_layer_schedule_costed(&layers, &deps, costed).unwrap();
            assert_eq!(t.result.schedule, analytic);
            assert_eq!(t.result.stats.messages, costed.num_edges() as u64);
        }
        let (free_run, noc_run) = (&out.tenants[0].result, &out.tenants[1].result);
        assert!(free_run.stats.hop_profile.is_empty(), "Free moves no NoC data");
        let sent: u64 = noc_run.stats.hop_profile.iter().map(|c| c.messages).sum();
        assert_eq!(sent, noc.num_edges() as u64);
        let bytes: u64 = noc_run.stats.hop_profile.iter().map(|c| c.bytes).sum();
        assert_eq!(bytes, noc.total_dep_bytes());
        assert!(noc_run.schedule.makespan > free_run.schedule.makespan);
    }

    #[test]
    fn two_tenants_on_one_tile_serialize() {
        let (layers, deps) = chain_workload();
        let costed = free_costed(&layers, &deps);
        let solo = || TenantWorkload {
            home_tiles: Some(vec![TileId(0), TileId(0)]),
            ..tenant(&layers, &deps, &costed)
        };
        // Alone: the two-layer chain finishes at cycle 40 (2 sets × 10
        // per layer, pipelined over one shared tile window).
        let alone = uncontended(&[solo()]).unwrap();
        // Together on the same tile: the second tenant's work interleaves
        // with the first's, so at least one tenant sees occupancy stalls
        // and the combined makespan exceeds the solo one.
        let both = uncontended(&[solo(), solo()]).unwrap();
        assert!(both.makespan > alone.makespan);
        let stalls: u64 = both.tenants.iter().map(|t| t.occupancy_stall_cycles).sum();
        assert!(stalls > 0, "same-tile tenants must contend");
        // Conservation: ownership windows on one tile never overlap.
        let busy: u64 = both.tenants.iter().map(|t| t.busy_cycles).sum();
        assert!(busy <= both.makespan);
    }

    #[test]
    fn disjoint_tiles_do_not_contend() {
        let (layers, deps) = chain_workload();
        let costed = free_costed(&layers, &deps);
        let on = |tile| TenantWorkload {
            home_tiles: Some(vec![TileId(tile), TileId(tile)]),
            ..tenant(&layers, &deps, &costed)
        };
        let out = uncontended(&[on(0), on(1)]).unwrap();
        for t in &out.tenants {
            assert_eq!(t.occupancy_stall_cycles, 0);
        }
        let solo = uncontended(&[on(0)]).unwrap();
        assert_eq!(out.makespan, solo.makespan);
    }

    #[test]
    fn arrival_offsets_shift_schedules() {
        let (layers, deps) = chain_workload();
        let costed = free_costed(&layers, &deps);
        let w = TenantWorkload {
            arrival: 100,
            ..tenant(&layers, &deps, &costed)
        };
        let out = uncontended(&[w]).unwrap();
        let t = &out.tenants[0];
        assert_eq!(t.result.schedule.makespan, 100 + t.span_cycles);
        assert!(t.result.schedule.time(0, 0).start >= 100);
    }

    #[test]
    fn capacity_pressure_evicts_and_reloads() {
        let (layers, deps) = chain_workload();
        let costed = free_costed(&layers, &deps);
        let w = || TenantWorkload {
            home_tiles: Some(vec![TileId(0), TileId(0)]),
            ..tenant(&layers, &deps, &costed)
        };
        // Each tenant's working set is 4 PEs; capacity 4 forces the two
        // tenants (8 PEs combined) to thrash.
        let fabric = FabricContention {
            noc: None,
            spec: FabricSpec {
                capacity_pes: 4,
                reload_cycles_per_pe: 50,
                ..FabricSpec::uncontended()
            },
        };
        let out = run_shared(&[w(), w()], &fabric).unwrap();
        let evictions: u64 = out.tenants.iter().map(|t| t.evictions).sum();
        let reloads: u64 = out.tenants.iter().map(|t| t.reloads).sum();
        assert!(evictions > 0, "combined working set must not fit");
        assert!(reloads > 0);
        let reload_cycles: u64 = out.tenants.iter().map(|t| t.reload_cycles).sum();
        assert_eq!(reload_cycles, reloads * 2 * 50, "2 PEs per reloaded block");
        // Unbounded capacity: same mix, zero evictions.
        let idle = uncontended(&[w(), w()]).unwrap();
        assert_eq!(idle.tenants.iter().map(|t| t.evictions).sum::<u64>(), 0);
    }

    #[test]
    fn link_bandwidth_serializes_cross_tile_traffic() {
        let (layers, deps) = chain_workload();
        let costed = free_costed(&layers, &deps);
        // Disjoint compute tiles so both tenants' producers finish
        // simultaneously, but the XY routes 0→3 and 1→3 on the 2×2 mesh
        // share the link (0,1)→(1,1): the second sender must wait.
        let w = |producer_tile| TenantWorkload {
            home_tiles: Some(vec![TileId(producer_tile), TileId(3)]),
            ..tenant(&layers, &deps, &costed)
        };
        let fabric = FabricContention {
            noc: Some(NocSpec::square_for(4)),
            spec: FabricSpec {
                link_bandwidth_bytes_per_cycle: 1,
                ..FabricSpec::uncontended()
            },
        };
        let contended = run_shared(&[w(0), w(1)], &fabric).unwrap();
        let stalls: u64 = contended.tenants.iter().map(|t| t.link_stall_cycles).sum();
        assert!(stalls > 0, "simultaneous sends over a shared link must queue");
        let idle = uncontended(&[w(0), w(1)]).unwrap();
        assert!(contended.makespan > idle.makespan);
    }

    #[test]
    fn insertion_of_home_tiles_is_validated() {
        let (layers, deps) = chain_workload();
        let costed = free_costed(&layers, &deps);
        let w = TenantWorkload {
            home_tiles: Some(vec![TileId(0)]), // 1 tile for 2 layers
            ..tenant(&layers, &deps, &costed)
        };
        let err = uncontended(&[w]).unwrap_err();
        assert!(matches!(err, SimError::BadWorkload { .. }));
    }

    #[test]
    fn deadlock_spans_tenants() {
        let (layers, _) = chain_workload();
        let cyclic = Dependencies::from_edges(
            &[2, 2],
            &[
                (SetRef { layer: 0, set: 0 }, SetRef { layer: 1, set: 0 }),
                (SetRef { layer: 1, set: 0 }, SetRef { layer: 0, set: 0 }),
            ],
        )
        .unwrap();
        let costed = free_costed(&layers, &cyclic);
        let err = uncontended(&[tenant(&layers, &cyclic, &costed)]).unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }));
    }
}
