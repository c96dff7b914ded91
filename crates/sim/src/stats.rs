//! Latency and throughput statistics.
//!
//! The paper's Fig 10a reports **average network latency** per
//! application: the cycles a head flit spends from entering the network
//! at the source NIC to arriving at the destination NIC. Time spent
//! queueing in the source NIC before injection is tracked separately
//! (`source_queue`), as is full-packet (tail) latency.

use crate::flit::FlowId;
use std::collections::BTreeMap;

/// Accumulated latency samples for one flow.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowStats {
    /// Packets whose head reached the destination.
    pub packets: u64,
    /// Sum of head-flit network latencies (cycles).
    pub head_latency_sum: u64,
    /// Sum of packet (tail) network latencies.
    pub packet_latency_sum: u64,
    /// Sum of source-queueing delays (generation → injection).
    pub source_queue_sum: u64,
    /// Largest head latency observed.
    pub head_latency_max: u64,
    /// Smallest head latency observed.
    pub head_latency_min: u64,
}

impl FlowStats {
    /// Mean head-flit network latency.
    #[must_use]
    pub fn avg_head_latency(&self) -> f64 {
        if self.packets == 0 {
            return f64::NAN;
        }
        self.head_latency_sum as f64 / self.packets as f64
    }

    /// Mean full-packet (tail-arrival) latency.
    #[must_use]
    pub fn avg_packet_latency(&self) -> f64 {
        if self.packets == 0 {
            return f64::NAN;
        }
        self.packet_latency_sum as f64 / self.packets as f64
    }

    /// Mean source-queueing delay.
    #[must_use]
    pub fn avg_source_queue(&self) -> f64 {
        if self.packets == 0 {
            return f64::NAN;
        }
        self.source_queue_sum as f64 / self.packets as f64
    }
}

/// Statistics over all flows of a simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    flows: BTreeMap<FlowId, FlowStats>,
    /// Histogram of head latencies (bucket = exact cycle count, capped).
    histogram: BTreeMap<u64, u64>,
}

/// Histogram cap: latencies above this land in one overflow bucket.
const HIST_CAP: u64 = 512;

impl SimStats {
    /// Empty statistics.
    #[must_use]
    pub fn new() -> Self {
        SimStats::default()
    }

    /// The per-flow entry, created with the min-latency sentinel in
    /// place. Both record paths go through here, so a tail recorded
    /// before its head cannot create a flow whose `head_latency_min`
    /// is a spurious 0 instead of `u64::MAX`.
    fn flow_entry(&mut self, flow: FlowId) -> &mut FlowStats {
        self.flows.entry(flow).or_insert(FlowStats {
            head_latency_min: u64::MAX,
            ..FlowStats::default()
        })
    }

    /// Record a delivered packet's head latency; call once per packet.
    pub fn record_head(&mut self, flow: FlowId, head_latency: u64, source_queue: u64) {
        let f = self.flow_entry(flow);
        f.packets += 1;
        f.head_latency_sum += head_latency;
        f.source_queue_sum += source_queue;
        f.head_latency_max = f.head_latency_max.max(head_latency);
        f.head_latency_min = f.head_latency_min.min(head_latency);
        *self
            .histogram
            .entry(head_latency.min(HIST_CAP))
            .or_insert(0) += 1;
    }

    /// Record the same packet's tail arrival (packet latency).
    pub fn record_tail(&mut self, flow: FlowId, packet_latency: u64) {
        let f = self.flow_entry(flow);
        f.packet_latency_sum += packet_latency;
    }

    /// Fold another statistics object into this one. Sums and packet
    /// counts add, extrema combine, histogram buckets add — so merging
    /// per-band statistics yields exactly what a single-band run
    /// would have recorded (all accumulators are order-independent).
    pub fn merge(&mut self, other: &SimStats) {
        for (flow, theirs) in &other.flows {
            let ours = self.flow_entry(*flow);
            ours.packets += theirs.packets;
            ours.head_latency_sum += theirs.head_latency_sum;
            ours.packet_latency_sum += theirs.packet_latency_sum;
            ours.source_queue_sum += theirs.source_queue_sum;
            ours.head_latency_max = ours.head_latency_max.max(theirs.head_latency_max);
            ours.head_latency_min = ours.head_latency_min.min(theirs.head_latency_min);
        }
        for (bucket, n) in &other.histogram {
            *self.histogram.entry(*bucket).or_insert(0) += n;
        }
    }

    /// Per-flow statistics, ordered by flow id.
    #[must_use]
    pub fn flows(&self) -> &BTreeMap<FlowId, FlowStats> {
        &self.flows
    }

    /// Stats for one flow, if any packets arrived.
    #[must_use]
    pub fn flow(&self, flow: FlowId) -> Option<&FlowStats> {
        self.flows.get(&flow)
    }

    /// Total packets delivered.
    #[must_use]
    pub fn packets(&self) -> u64 {
        self.flows.values().map(|f| f.packets).sum()
    }

    /// Packet-weighted average head-flit network latency — the Fig 10a
    /// metric.
    #[must_use]
    pub fn avg_network_latency(&self) -> f64 {
        let n = self.packets();
        if n == 0 {
            return f64::NAN;
        }
        let sum: u64 = self.flows.values().map(|f| f.head_latency_sum).sum();
        sum as f64 / n as f64
    }

    /// Packet-weighted average full-packet latency.
    #[must_use]
    pub fn avg_packet_latency(&self) -> f64 {
        let n = self.packets();
        if n == 0 {
            return f64::NAN;
        }
        let sum: u64 = self.flows.values().map(|f| f.packet_latency_sum).sum();
        sum as f64 / n as f64
    }

    /// Packet-weighted average source-queueing delay.
    #[must_use]
    pub fn avg_source_queue(&self) -> f64 {
        let n = self.packets();
        if n == 0 {
            return f64::NAN;
        }
        let sum: u64 = self.flows.values().map(|f| f.source_queue_sum).sum();
        sum as f64 / n as f64
    }

    /// Largest head latency observed across all flows, if any packet
    /// arrived. Exact even when the histogram has clamped samples into
    /// its overflow bucket.
    #[must_use]
    pub fn head_latency_max(&self) -> Option<u64> {
        self.flows
            .values()
            .filter(|f| f.packets > 0)
            .map(|f| f.head_latency_max)
            .max()
    }

    /// `p`-quantile (0..=1) of the head-latency distribution. Buckets
    /// below the histogram cap are exact cycle counts. The overflow
    /// bucket stands for "cap or more": interior positions report the
    /// cap itself (a known lower bound), while the distribution's
    /// final position — `p` high enough to select the last sample —
    /// resolves to the tracked true maximum instead of under-reporting
    /// the cap.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn head_latency_quantile(&self, p: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&p), "quantile must be in [0,1]");
        let total: u64 = self.histogram.values().sum();
        if total == 0 {
            return None;
        }
        let target = (p * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (lat, n) in &self.histogram {
            seen += n;
            if seen >= target {
                if *lat < HIST_CAP {
                    return Some(*lat);
                }
                // Overflow bucket: only its last position is known
                // exactly — it is the tracked maximum.
                return Some(if target == total {
                    self.head_latency_max().unwrap_or(*lat)
                } else {
                    *lat
                });
            }
        }
        // `target <= total`, so the loop always returns; this covers a
        // hypothetical beyond-the-last-sample request.
        self.head_latency_max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_weight_by_packet() {
        let mut s = SimStats::new();
        s.record_head(FlowId(0), 10, 0);
        s.record_head(FlowId(0), 20, 2);
        s.record_head(FlowId(1), 1, 0);
        assert_eq!(s.packets(), 3);
        assert!((s.avg_network_latency() - 31.0 / 3.0).abs() < 1e-12);
        let f0 = s.flow(FlowId(0)).expect("flow 0 recorded");
        assert!((f0.avg_head_latency() - 15.0).abs() < 1e-12);
        assert_eq!(f0.head_latency_min, 10);
        assert_eq!(f0.head_latency_max, 20);
        assert!((s.avg_source_queue() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn tail_latency_tracked_separately() {
        let mut s = SimStats::new();
        s.record_head(FlowId(0), 8, 0);
        s.record_tail(FlowId(0), 15);
        assert!((s.avg_packet_latency() - 15.0).abs() < 1e-12);
        assert!((s.avg_network_latency() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles() {
        let mut s = SimStats::new();
        for lat in [1, 1, 1, 1, 1, 1, 1, 1, 1, 100] {
            s.record_head(FlowId(0), lat, 0);
        }
        assert_eq!(s.head_latency_quantile(0.5), Some(1));
        assert_eq!(s.head_latency_quantile(1.0), Some(100));
        assert_eq!(SimStats::new().head_latency_quantile(0.5), None);
    }

    #[test]
    fn tail_before_head_keeps_the_min_sentinel() {
        let mut s = SimStats::new();
        s.record_tail(FlowId(0), 12);
        s.record_head(FlowId(0), 9, 0);
        let f = s.flow(FlowId(0)).expect("flow recorded");
        assert_eq!(
            f.head_latency_min, 9,
            "tail-first must not clamp the min to 0"
        );
        assert_eq!(f.head_latency_max, 9);
        assert_eq!(f.packet_latency_sum, 12);
        // A flow that only ever saw a tail keeps the sentinel.
        s.record_tail(FlowId(1), 5);
        let g = s.flow(FlowId(1)).expect("flow recorded");
        assert_eq!(g.packets, 0);
        assert_eq!(g.head_latency_min, u64::MAX);
        assert!(g.avg_head_latency().is_nan());
    }

    #[test]
    fn quantile_above_the_histogram_cap_reports_the_true_max() {
        let mut s = SimStats::new();
        s.record_head(FlowId(0), 3, 0);
        s.record_head(FlowId(0), 700, 0);
        s.record_head(FlowId(0), 1234, 0);
        assert_eq!(s.head_latency_quantile(0.0), Some(3));
        assert_eq!(s.head_latency_quantile(1.0), Some(1234), "not the 512 cap");
        assert_eq!(s.head_latency_max(), Some(1234));
        // Every sample above the cap: interior quantiles keep the cap
        // as a lower bound (over-reporting the max would be worse);
        // only the final position resolves to the tracked max.
        let mut t = SimStats::new();
        t.record_head(FlowId(0), 600, 0);
        t.record_head(FlowId(0), 900, 0);
        assert_eq!(t.head_latency_quantile(0.5), Some(512));
        assert_eq!(t.head_latency_quantile(1.0), Some(900));
    }

    #[test]
    fn empty_stats_are_nan() {
        let s = SimStats::new();
        assert!(s.avg_network_latency().is_nan());
        assert!(s.avg_packet_latency().is_nan());
        assert_eq!(s.packets(), 0);
    }
}
