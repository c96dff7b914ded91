//! Row bands: the state one engine worker owns, and the five-phase
//! cycle step that advances it — the only cycle step in the crate.
//!
//! [`Network`](crate::network::Network) partitions the fabric into `k`
//! horizontal **row bands** (band `s` owns rows `[s·h/k, (s+1)·h/k)`)
//! and gives each band its own [`RouterBank`], NICs, packet arena, event
//! rings, tracer and telemetry collector. With `k = 1` the one band is
//! the whole fabric and steps inline on the caller's thread. With
//! `k > 1` the bands step on scoped threads; events whose endpoint lies
//! in a foreign band — flit arrivals and credit returns — go to per-pair
//! outboxes and are applied, in ascending source-band order, before the
//! next cycle.
//!
//! # Why every band count gives the same result
//!
//! * **Cross-band events always apply at least one cycle later.** A NIC
//!   injection launched in `step(c)` has `ST = c` and arrives no earlier
//!   than the end of `c` (applied in `step(c+1)`); a router departure has
//!   `ST = c+1` and applies in `step(c+2)` at the earliest; credits apply
//!   at `c+1` (NIC) or `c+3` (router tail). One exchange per cycle is
//!   therefore enough — no event can be needed mid-cycle by another band.
//! * **Order within a ring slot cannot matter.** The flow table's
//!   sender↔endpoint pairing is one-to-one and every sender launches at
//!   most one flit (and frees at most one VC) per cycle, so each endpoint
//!   receives at most one arrival and each sender at most one credit per
//!   cycle. Events for *distinct* endpoints/senders touch disjoint queues
//!   and only commutative accumulators (counter sums, per-flow stats,
//!   histogram buckets), so any interleaving of the per-band streams
//!   produces the same state. (The millimetre counters are `f64` sums of
//!   per-leg link counts times the configured hop pitch; at the paper's
//!   integral 1 mm pitch these sums are exact in any order.)
//! * **Link exclusivity is checked globally.** SMART legs may cross many
//!   bands in one cycle, so the link guard is a pair of shared bitsets
//!   (one per `ST`-cycle parity). The launching band marks every link of
//!   the leg, and a second mark of the same link in the same `ST` cycle
//!   panics. Concurrent bands mark with an atomic `fetch_or`; a lone band
//!   uses a plain load and store. Each band remembers the words it
//!   dirtied and zeroes them once every band has finished the cycle they
//!   describe, so the guard's per-cycle cost scales with links *used*.
//!
//! Packets crossing a band boundary are re-interned: the head flit
//! carries its [`PacketMeta`] (including the injection timestamp) into
//! the destination band's arena, body flits find the slot through a
//! per-band `PacketId → slot` transfer map, and the tail both removes
//! the map entry on entry and releases the source band's slot on exit.

use crate::counters::ActivityCounters;
use crate::flit::{Flit, FlowId, Packet, PacketArena, PacketId, PacketMeta, PacketSlot, VcId};
use crate::forward::{Endpoint, FlowTable, LegLut, Sender};
use crate::network::{CreditPath, SimConfig, RING};
use crate::nic::{Nic, RxEvent};
use crate::router::{CreditRelease, RouterBank, RouterDeparture};
use crate::stats::SimStats;
use crate::telemetry::{CycleView, MetricsCollector, NoProbe, Probe};
use crate::topology::{Direction, LinkId, NodeId, Topology, PORTS};
use crate::trace::{TraceKind, TraceRecord, Tracer};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// An event crossing a band boundary at the per-cycle exchange.
#[derive(Debug, Clone, Copy)]
enum BoundaryEvent {
    /// A flit arriving at an endpoint owned by the receiving band.
    /// `meta` is the full packet metadata from the sending band's
    /// arena, re-interned (head) or matched (body/tail) on receipt;
    /// `arrival` is the cycle the flit lands at the endpoint.
    Arrival {
        end: Endpoint,
        flit: Flit,
        meta: PacketMeta,
        arrival: u64,
    },
    /// A freed VC travelling back to a sender owned by the receiving
    /// band, usable at `apply`.
    Credit {
        sender: Sender,
        vc: VcId,
        apply: u64,
    },
}

/// What every band reads while it steps: the route tables, the band
/// owner of each node, the shared link guard and the cross-band
/// mailboxes. Workers share it by reference; the only writes go through
/// atomics and mutexes.
#[derive(Debug)]
pub(crate) struct Fabric {
    topo: Topology,
    pub(crate) flows: FlowTable,
    /// Dense leg lookup compiled from `flows` at build time.
    lut: LegLut,
    /// Band owner of each node.
    owner: Vec<u8>,
    /// Number of bands.
    k: usize,
    /// The link-exclusivity bitsets by `ST`-cycle parity, one bit per
    /// link (indexed `node * 5 + dir`).
    planes: [Vec<AtomicU64>; 2],
    /// `k × k` outboxes, `src * k + dst`; each cell is written by one
    /// worker and drained by one worker, never concurrently.
    outbox: Vec<Mutex<Vec<BoundaryEvent>>>,
    /// Per-band packets queued by the coordinator for the next cycle.
    pub(crate) offer_box: Vec<Mutex<Vec<Packet>>>,
}

/// One row band: the engine's mutable state for a contiguous node range.
/// Owned exclusively by one worker while it steps.
#[derive(Debug)]
pub(crate) struct Shard {
    /// This band's index.
    band: usize,
    /// First node of the band (bands are contiguous node ranges because
    /// rows are contiguous in node numbering).
    start: u16,
    pub(crate) bank: RouterBank,
    pub(crate) nics: Vec<Nic>,
    arena: PacketArena,
    /// Packets currently traversing this band whose metadata arrived
    /// with a head flit from another band: stable id → local slot.
    xfer: HashMap<PacketId, PacketSlot>,
    /// Credit reverse paths for stop endpoints in this band, indexed
    /// `local_router * 5 + in_dir`.
    stop_credit: Vec<Option<CreditPath>>,
    /// Credit reverse paths for NIC endpoints in this band, by local
    /// node index.
    nic_credit: Vec<Option<CreditPath>>,
    arrivals: Vec<Vec<(Endpoint, Flit)>>,
    credit_ring: Vec<Vec<(Sender, VcId)>>,
    /// Arrivals scheduled but not yet applied (quiescence check).
    scheduled_arrivals: usize,
    /// Guard words this band set, per plane, to zero after the cycle.
    dirty: [Vec<u32>; 2],
    /// Full-fabric link counts, indexed `node * 5 + dir`: a SMART leg
    /// launched here may cross links in any band; per-band arrays sum to
    /// the fabric's counts.
    pub(crate) link_flits: Vec<u64>,
    pub(crate) counters: ActivityCounters,
    pub(crate) stats: SimStats,
    pub(crate) stats_from: u64,
    enabled_ports: u64,
    total_ports: u64,
    /// Backlogged NICs of this band by *global* node id, ascending — the
    /// only NICs the injection scan visits. Kept sorted so the scan order
    /// (and every downstream event order) matches a full sweep exactly.
    active_nics: Vec<u32>,
    /// Membership mask for `active_nics`, by local node index.
    nic_active: Vec<bool>,
    /// Per-cycle scratch, reused so the steady state allocates nothing.
    arrival_scratch: Vec<(Endpoint, Flit)>,
    credit_scratch: Vec<(Sender, VcId)>,
    dep_scratch: Vec<RouterDeparture>,
    rel_scratch: Vec<CreditRelease>,
    pub(crate) tracer: Option<Tracer>,
    /// Windowed metrics collector, sized for the *full* fabric (probe
    /// events carry global router/link indices); `None` selects the
    /// [`NoProbe`] step, whose hooks the optimizer deletes.
    pub(crate) telemetry: Option<Box<MetricsCollector>>,
}

/// Split the fabric of `cfg` into `k` row bands for `flows`.
///
/// # Panics
///
/// Panics if `k` is zero, exceeds the fabric height or 255, or the flow
/// plans are inconsistent (see [`FlowTable::sender_endpoints`]).
pub(crate) fn partition(cfg: SimConfig, flows: FlowTable, k: usize) -> (Fabric, Vec<Shard>) {
    let topo = cfg.topology;
    let n = topo.len();
    let (w, h) = (topo.width() as usize, topo.height() as usize);
    assert!(
        (1..=h.min(u8::MAX as usize)).contains(&k),
        "{k} bands on {h} rows"
    );

    // Band s owns rows [s*h/k, (s+1)*h/k); rows are contiguous node
    // ranges, so each band is the node range [row_lo*w, row_hi*w).
    let band_start = |s: usize| s * h / k * w;
    let mut owner = vec![0u8; n];
    let mut bands: Vec<Shard> = (0..k)
        .map(|s| {
            let (start, end) = (band_start(s), band_start(s + 1));
            owner[start..end].fill(s as u8);
            let len = end - start;
            let mut bank = RouterBank::new(len, cfg.vcs_per_port, cfg.vc_depth);
            bank.set_base_node(NodeId(start as u16));
            Shard {
                band: s,
                start: start as u16,
                bank,
                nics: (start..end)
                    .map(|i| Nic::new(NodeId(i as u16), cfg.vcs_per_port))
                    .collect(),
                arena: PacketArena::new(),
                xfer: HashMap::new(),
                stop_credit: vec![None; len * PORTS],
                nic_credit: vec![None; len],
                arrivals: vec![Vec::new(); RING],
                credit_ring: vec![Vec::new(); RING],
                scheduled_arrivals: 0,
                dirty: [Vec::new(), Vec::new()],
                link_flits: vec![0; n * PORTS],
                counters: ActivityCounters::new(),
                stats: SimStats::new(),
                stats_from: 0,
                enabled_ports: 0,
                total_ports: (len * 10) as u64, // 5 in + 5 out per router
                active_nics: Vec::new(),
                nic_active: vec![false; len],
                arrival_scratch: Vec::new(),
                credit_scratch: Vec::new(),
                dep_scratch: Vec::new(),
                rel_scratch: Vec::new(),
                tracer: None,
                telemetry: None,
            }
        })
        .collect();

    // Preset-driven port enables + credit reverse paths, dispatched to
    // each touched node's owner. The sender/endpoint pairing invariant
    // is checked up front.
    let _ = flows.sender_endpoints();
    fn at<'a>(bands: &'a mut [Shard], owner: &[u8], node: NodeId) -> (&'a mut Shard, usize) {
        let sh = &mut bands[owner[node.0 as usize] as usize];
        let l = sh.local(node);
        (sh, l)
    }
    for plan in flows.iter() {
        for leg in &plan.legs {
            if let Sender::RouterOutput(r, d) = leg.sender {
                let (sh, l) = at(&mut bands, &owner, r);
                sh.bank.enable_output(l, d);
            }
            for link in &leg.links {
                let (sh, l) = at(&mut bands, &owner, link.from);
                sh.bank.enable_output(l, link.dir);
                let to = topo
                    .neighbor(link.from, link.dir)
                    .unwrap_or_else(|| panic!("{link} leaves the fabric"));
                let (sh, l) = at(&mut bands, &owner, to);
                sh.bank.enable_input(l, link.dir.opposite());
            }
            let path = Some(CreditPath {
                sender: leg.sender,
                crossbars: leg.crossbars(),
                mm: leg.link_mm(),
            });
            match leg.end {
                Endpoint::Stop { router, in_dir } => {
                    let (sh, l) = at(&mut bands, &owner, router);
                    sh.bank.enable_input(l, in_dir);
                    sh.stop_credit[l * PORTS + in_dir.index()] = path;
                }
                Endpoint::Nic { node } => {
                    let (sh, l) = at(&mut bands, &owner, node);
                    sh.nic_credit[l] = path;
                }
            }
        }
    }
    for sh in &mut bands {
        sh.enabled_ports = (0..sh.bank.len())
            .map(|r| sh.bank.enabled_ports(r) as u64)
            .sum();
    }

    let words = (n * PORTS).div_ceil(64);
    let plane = || (0..words).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
    let fabric = Fabric {
        topo,
        lut: LegLut::new(&flows),
        flows,
        owner,
        k,
        planes: [plane(), plane()],
        outbox: (0..k * k).map(|_| Mutex::new(Vec::new())).collect(),
        offer_box: (0..k).map(|_| Mutex::new(Vec::new())).collect(),
    };
    (fabric, bands)
}

impl Fabric {
    /// The band that owns node `n`.
    pub(crate) fn owner_of(&self, n: NodeId) -> usize {
        self.owner[n.0 as usize] as usize
    }

    /// Queue `ev` in the outbox from band `src` to band `dest`. Kept out
    /// of line: a one-band engine never calls it.
    #[cold]
    fn post(&self, src: usize, dest: usize, ev: BoundaryEvent) {
        lock_free_of_poison(&self.outbox[src * self.k + dest]).push(ev);
    }
}

impl Shard {
    fn local(&self, n: NodeId) -> usize {
        debug_assert!(n.0 >= self.start, "{n} is not in this band");
        (n.0 - self.start) as usize
    }

    /// Queue a generated packet at its source NIC (which this band
    /// owns), interning its metadata into the packet arena.
    ///
    /// # Panics
    ///
    /// Panics if the packet's flow is unknown or its src/dst disagree
    /// with the flow's route.
    pub(crate) fn offer(&mut self, packet: Packet, fabric: &Fabric) {
        let plan = fabric.flows.plan(packet.flow);
        assert_eq!(packet.src, plan.route.source(), "packet src mismatch");
        assert_eq!(
            packet.dst,
            plan.route.destination(fabric.topo),
            "packet dst mismatch"
        );
        let l = self.local(packet.src);
        let slot = self.arena.intern(&packet);
        self.nics[l].offer(slot, self.arena.get(slot));
        if !self.nic_active[l] {
            self.nic_active[l] = true;
            let g = u32::from(packet.src.0);
            let pos = self
                .active_nics
                .binary_search(&g)
                .expect_err("mask says absent");
            self.active_nics.insert(pos, g);
        }
    }

    /// Advance this band through cycle `c`. Launches and credits whose
    /// endpoint lies in a foreign band go to the outbox instead of the
    /// local rings.
    pub(crate) fn step(&mut self, c: u64, fabric: &Fabric) {
        // Monomorphized probe dispatch: the collector is moved out for
        // the duration of the step (a pointer move), selecting the
        // telemetry instantiation; without one the `NoProbe` step runs —
        // the exact telemetry-free hot path after const folding.
        if let Some(mut t) = self.telemetry.take() {
            self.step_probed(c, fabric, &mut *t);
            self.telemetry = Some(t);
        } else {
            self.step_probed(c, fabric, &mut NoProbe);
        }
    }

    fn step_probed<P: Probe>(&mut self, c: u64, fabric: &Fabric, probe: &mut P) {
        let slot = (c % RING as u64) as usize;

        // 1. Credits landing this cycle (swapped out through the scratch
        // buffer so ring-slot capacity is reused, not reallocated).
        let mut credits = std::mem::take(&mut self.credit_scratch);
        std::mem::swap(&mut credits, &mut self.credit_ring[slot]);
        for (sender, vc) in credits.drain(..) {
            match sender {
                Sender::Nic(n) => {
                    let l = self.local(n);
                    self.nics[l].credit(vc);
                }
                Sender::RouterOutput(r, d) => {
                    let l = self.local(r);
                    self.bank.credit(l, d, vc);
                }
            }
        }
        self.credit_scratch = credits;

        // 2. Flit arrivals (scheduled for end of cycle c-1).
        let mut arrivals = std::mem::take(&mut self.arrival_scratch);
        std::mem::swap(&mut arrivals, &mut self.arrivals[slot]);
        self.scheduled_arrivals -= arrivals.len();
        for (end, flit) in arrivals.drain(..) {
            match end {
                Endpoint::Stop { router, in_dir } => {
                    let arrival_cycle = c.saturating_sub(1);
                    self.trace(
                        arrival_cycle,
                        flit,
                        TraceKind::BufferWrite { router, in_dir },
                    );
                    let l = self.local(router);
                    self.bank
                        .receive(l, in_dir, flit, arrival_cycle, &mut self.counters);
                }
                Endpoint::Nic { node } => {
                    let arrival_cycle = c - 1;
                    let (head, tail) = (flit.is_head(), flit.is_tail());
                    self.trace(arrival_cycle, flit, TraceKind::Deliver { node, head, tail });
                    let meta = *self.arena.get(flit.pkt);
                    let l = self.local(node);
                    let events =
                        self.nics[l].receive(flit, &meta, arrival_cycle, &mut self.counters);
                    if let Some(RxEvent::Head(flow, lat, srcq)) = events.head {
                        if meta.gen_cycle >= self.stats_from {
                            self.stats.record_head(flow, lat, srcq);
                        }
                    }
                    if let Some(RxEvent::Tail(flow, lat, vc)) = events.tail {
                        if meta.gen_cycle >= self.stats_from {
                            self.stats.record_tail(flow, lat);
                        }
                        // Credit for the freed NIC reception VC.
                        let path = self.nic_credit[l]
                            .unwrap_or_else(|| panic!("no sender tracks endpoint {end:?}"));
                        self.emit_credit(path, vc, c + 1, fabric);
                        // Whole packet delivered: its metadata slot can
                        // be recycled.
                        self.arena.release(flit.pkt);
                    }
                }
            }
        }
        self.arrival_scratch = arrivals;

        // 3. NIC injection, scanning only the active set (NICs with a
        // backlog). A NIC whose backlog empties retires from the set in
        // place; the compaction preserves ascending order, so the event
        // stream is bit-identical to a full sweep. Skipped idle NICs
        // would have returned `None` without touching any state.
        let mut kept = 0;
        for k in 0..self.active_nics.len() {
            let g = self.active_nics[k] as usize;
            let l = g - self.start as usize;
            if let Some(flit) = self.nics[l].try_inject(&mut self.arena, c, &mut self.counters) {
                let leg = fabric.lut.first_leg_idx(flit.flow);
                debug_assert!(
                    matches!(fabric.lut.rec(leg).sender, Sender::Nic(n) if n.0 as usize == g)
                );
                self.launch(leg, flit, c, fabric, probe);
            }
            if self.nics[l].backlog() > 0 {
                self.active_nics[kept] = self.active_nics[k];
                kept += 1;
            } else {
                self.nic_active[l] = false;
            }
        }
        self.active_nics.truncate(kept);

        // 4. Switch allocation; ST happens during c + 1. The sweep
        // touches only bank state and skips routers with nothing
        // buffered; departures and credit releases batch across routers
        // into reused scratch vectors and replay afterwards in ascending
        // router order, so each ring receives a fixed push sequence.
        let mut deps = std::mem::take(&mut self.dep_scratch);
        let mut rels = std::mem::take(&mut self.rel_scratch);
        deps.clear();
        rels.clear();
        for r in 0..self.bank.len() {
            if self.bank.is_drained(r) {
                continue;
            }
            let node = NodeId(self.start + r as u16);
            let lut = &fabric.lut;
            self.bank.allocate(
                r,
                c,
                |flow| {
                    let leg = lut.leg_idx_from(flow, node);
                    (lut.rec(leg).out_dir, leg)
                },
                &mut self.counters,
                &mut deps,
                &mut rels,
                probe,
            );
        }
        for dep in deps.drain(..) {
            let rec = fabric.lut.rec(dep.leg);
            assert_eq!(
                rec.out_dir, dep.out_dir,
                "plan/grant mismatch on leg {}",
                dep.leg
            );
            self.launch(dep.leg, dep.flit, c + 1, fabric, probe);
        }
        for rel in rels.drain(..) {
            // Tail departs the buffer during c+1; the credit crosses
            // the reverse mesh during c+2 and is usable at c+3.
            let r = usize::from(rel.router);
            let path = self.stop_credit[r * PORTS + rel.in_dir.index()].unwrap_or_else(|| {
                panic!(
                    "no sender tracks endpoint {}/{}",
                    NodeId(self.start + rel.router),
                    rel.in_dir
                )
            });
            self.emit_credit(path, rel.vc, c + 3, fabric);
        }
        self.dep_scratch = deps;
        self.rel_scratch = rels;

        // 5. Gating + cycle accounting (band-local port counts; the
        // per-band sums are the fabric totals).
        self.counters.active_port_cycles += self.enabled_ports;
        self.counters.gated_port_cycles += self.total_ports - self.enabled_ports;
        self.counters.cycles += 1;
        if P::ENABLED {
            // Bands advance in lockstep, so every band's windows close
            // at the same global cycles — the merge precondition.
            probe.on_cycle_end(&CycleView {
                cycle: c + 1,
                injected: self.counters.packets_injected,
                delivered: self.counters.packets_delivered,
                buffered: self.bank.total_buffered(),
                link_flits: &self.link_flits,
            });
        }
    }

    /// Record a flit event, if tracing is enabled.
    fn trace(&mut self, cycle: u64, flit: Flit, kind: TraceKind) {
        if let Some(t) = self.tracer.as_mut() {
            t.record(TraceRecord {
                cycle,
                flow: flit.flow,
                packet: self.arena.get(flit.pkt).id,
                kind,
            });
        }
    }

    /// Launch `flit` onto `leg`, with ST (and the whole link traversal)
    /// occurring during `st_cycle`; the arrival goes to the endpoint's
    /// owner band.
    fn launch<P: Probe>(
        &mut self,
        leg: u32,
        flit: Flit,
        st_cycle: u64,
        fabric: &Fabric,
        probe: &mut P,
    ) {
        let rec = *fabric.lut.rec(leg);
        // Single-cycle link exclusivity (the preset invariant), enforced
        // by the two-plane guard over precomputed dense link indices.
        let p = (st_cycle & 1) as usize;
        for &li in fabric.lut.rec_links(&rec) {
            let li = li as usize;
            let (w, bit) = (li / 64, 1u64 << (li % 64));
            let word = &fabric.planes[p][w];
            // Relaxed suffices: within a cycle the read-modify-write
            // alone decides which concurrent band claims a link, and the
            // session's SeqCst barrier waits order every guard write
            // before a barrier ahead of every access after it. A lone
            // band has no concurrent writer, so it skips the locked RMW.
            let prev = if fabric.k == 1 {
                let prev = word.load(Ordering::Relaxed);
                word.store(prev | bit, Ordering::Relaxed);
                prev
            } else {
                word.fetch_or(bit, Ordering::Relaxed)
            };
            assert!(
                prev & bit == 0,
                "two flits on {} in cycle {st_cycle}: preset violation",
                LinkId {
                    from: NodeId((li / PORTS) as u16),
                    dir: Direction::from_index(li % PORTS),
                }
            );
            if prev == 0 {
                self.dirty[p].push(w as u32);
            }
            self.link_flits[li] += 1;
        }
        self.counters.xbar_flit_traversals += u64::from(rec.crossbars);
        self.counters.link_flit_mm += rec.mm;
        if rec.cycles == 2 {
            self.counters.pipeline_reg_writes += 1;
        }
        if P::ENABLED {
            // Achieved bypass length: links this leg crosses in one cycle.
            probe.on_launch(rec.n_links);
        }
        let from = match rec.sender {
            Sender::Nic(n) | Sender::RouterOutput(n, _) => n,
        };
        self.trace(
            st_cycle,
            flit,
            TraceKind::Launch {
                from,
                links: rec.n_links,
                crossbars: rec.crossbars as u8,
                mm: rec.mm,
            },
        );
        let arrival = st_cycle + u64::from(rec.cycles) - 1;
        let dest = match rec.end {
            Endpoint::Stop { router: n, .. } | Endpoint::Nic { node: n } => fabric.owner_of(n),
        };
        if dest == self.band {
            let slot = ((arrival + 1) % RING as u64) as usize;
            self.arrivals[slot].push((rec.end, flit));
            self.scheduled_arrivals += 1;
        } else {
            let meta = *self.arena.get(flit.pkt);
            if flit.is_tail() {
                // Last local reference: flits traverse in order, so
                // every earlier flit of this packet has already left.
                self.arena.release(flit.pkt);
            }
            let ev = BoundaryEvent::Arrival {
                end: rec.end,
                flit,
                meta,
                arrival,
            };
            fabric.post(self.band, dest, ev);
        }
    }

    /// Schedule the credit for a freed VC back along `path` to its
    /// sender's owner band, usable at `apply`.
    fn emit_credit(&mut self, path: CreditPath, vc: VcId, apply: u64, fabric: &Fabric) {
        self.counters.xbar_credit_traversals += u64::from(path.crossbars);
        self.counters.link_credit_mm += path.mm;
        if let Some(t) = self.tracer.as_mut() {
            t.record(TraceRecord {
                cycle: apply.saturating_sub(2),
                flow: FlowId(u32::MAX),
                packet: PacketId(u64::MAX),
                kind: TraceKind::Credit {
                    crossbars: path.crossbars as u8,
                    mm: path.mm,
                },
            });
        }
        let (Sender::Nic(n) | Sender::RouterOutput(n, _)) = path.sender;
        let dest = fabric.owner_of(n);
        if dest == self.band {
            let slot = (apply % RING as u64) as usize;
            self.credit_ring[slot].push((path.sender, vc));
        } else {
            let ev = BoundaryEvent::Credit {
                sender: path.sender,
                vc,
                apply,
            };
            fabric.post(self.band, dest, ev);
        }
    }

    /// Zero the guard words this band set for `ST` cycle `c`. Run after
    /// every band has finished cycle `c` and before any starts `c + 1`,
    /// whose launches reuse the plane for cycle `c + 2`.
    pub(crate) fn release_links(&mut self, c: u64, fabric: &Fabric) {
        let p = (c & 1) as usize;
        for w in self.dirty[p].drain(..) {
            fabric.planes[p][w as usize].store(0, Ordering::Relaxed);
        }
    }

    /// Apply the boundary events every band sent this band during the
    /// cycle, in ascending source-band order. Heads re-intern their
    /// metadata (preserving the injection timestamp), bodies and tails
    /// resolve the local slot through the transfer map.
    pub(crate) fn transfer_in(&mut self, fabric: &Fabric) {
        for src in 0..fabric.k {
            let cell = &fabric.outbox[src * fabric.k + self.band];
            let mut events = std::mem::take(&mut *lock_free_of_poison(cell));
            for ev in events.drain(..) {
                self.accept(ev);
            }
            *lock_free_of_poison(cell) = events;
        }
    }

    fn accept(&mut self, ev: BoundaryEvent) {
        match ev {
            BoundaryEvent::Credit { sender, vc, apply } => {
                let slot = (apply % RING as u64) as usize;
                self.credit_ring[slot].push((sender, vc));
            }
            BoundaryEvent::Arrival {
                end,
                mut flit,
                meta,
                arrival,
            } => {
                flit.pkt = if flit.is_head() {
                    let slot = self.arena.intern_meta(meta);
                    if !flit.is_tail() {
                        let prev = self.xfer.insert(meta.id, slot);
                        debug_assert!(
                            prev.is_none(),
                            "packet {:?} re-entered a band mid-flight",
                            meta.id
                        );
                    }
                    slot
                } else if flit.is_tail() {
                    self.xfer.remove(&meta.id).unwrap_or_else(|| {
                        panic!("tail of {:?} crossed a band without its head", meta.id)
                    })
                } else {
                    *self.xfer.get(&meta.id).unwrap_or_else(|| {
                        panic!("body of {:?} crossed a band without its head", meta.id)
                    })
                };
                let slot = ((arrival + 1) % RING as u64) as usize;
                self.arrivals[slot].push((end, flit));
                self.scheduled_arrivals += 1;
            }
        }
    }

    /// `true` when nothing is queued, buffered, or in flight to this band.
    pub(crate) fn is_quiescent(&self) -> bool {
        self.bank.total_buffered() == 0
            && self.scheduled_arrivals == 0
            && self.nics.iter().all(Nic::is_drained)
    }
}

/// Lock a mutex, ignoring poisoning: a poisoned mailbox only ever means
/// a peer worker panicked mid-cycle, and the session then unwinds with
/// the original panic.
pub(crate) fn lock_free_of_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
