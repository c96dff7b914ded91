//! Spans recorded from outside the program: a timing wrapper around a
//! traffic source and a timestamping event sink. Both only observe;
//! neither changes what the wrapped code computes.

use smart_server::{EventSink, ResponseEvent};
use smart_sim::flit::Packet;
use smart_sim::traffic::TrafficSource;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A [`TrafficSource`] that forwards to `inner` and accumulates the
/// host time spent inside [`TrafficSource::generate`] and the packets
/// it returned.
pub struct TimedTraffic {
    inner: Box<dyn TrafficSource>,
    /// Host time spent generating.
    pub busy: Duration,
    /// Packets generated.
    pub packets: u64,
}

impl TimedTraffic {
    /// Wrap `inner`.
    #[must_use]
    pub fn new(inner: Box<dyn TrafficSource>) -> Self {
        TimedTraffic {
            inner,
            busy: Duration::ZERO,
            packets: 0,
        }
    }
}

impl TrafficSource for TimedTraffic {
    fn generate(&mut self, cycle: u64) -> Vec<Packet> {
        let start = Instant::now();
        let out = self.inner.generate(cycle);
        self.busy += start.elapsed();
        self.packets += out.len() as u64;
        out
    }
}

/// One event a [`StampSink`] received.
#[derive(Debug)]
pub struct Stamp {
    /// When the event reached the sink.
    pub at: Instant,
    /// The event.
    pub event: ResponseEvent,
    /// Host time [`ResponseEvent::to_line`] took on it.
    pub render: Duration,
}

/// An [`EventSink`] that records when each event arrives and renders it
/// to its wire line, timing the render, as the TCP front end does.
#[derive(Debug, Default)]
pub struct StampSink {
    stamps: Mutex<Vec<Stamp>>,
}

impl StampSink {
    /// The events received so far, in arrival order.
    ///
    /// # Panics
    ///
    /// Panics if a thread panicked while emitting.
    pub fn into_stamps(self) -> Vec<Stamp> {
        self.stamps.into_inner().expect("unpoisoned sink")
    }
}

impl EventSink for StampSink {
    fn emit(&self, event: &ResponseEvent) {
        let at = Instant::now();
        let line = event.to_line();
        let render = at.elapsed();
        std::hint::black_box(line);
        self.stamps.lock().expect("unpoisoned sink").push(Stamp {
            at,
            event: event.clone(),
            render,
        });
    }
}
