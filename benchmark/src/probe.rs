//! Drains the device's trace sink during a traced repetition.
//!
//! `TraceSink::drain` is a snapshot, not a consuming read: each call returns
//! the newest (up to 1024) events of every per-thread ring, and
//! `dump.dropped + dump.events.len()` is the number of events ever emitted.
//! The probe keeps the previous snapshot and counts an event as new when it
//! was not in it; events emitted since the last drain that no snapshot
//! holds were overwritten, and are counted in `dropped`. Draining often
//! enough keeps that at zero.
//!
//! A [`Drainer`] thread drains while the workload runs. A workload whose
//! emitting thread can outrun that thread also drains from the emitting
//! thread itself, through [`SharedProbe::draining`]: a ring cannot be
//! outrun by the thread that drains it, as long as every burst between two
//! drains fits the ring.
//!
//! Exact counts come from `TrafficCounter`; trace events are used only for
//! ratios, park/wake pairing and GC victim selection, which has no counter.
//! The device's log cleaner thread emits a flash event per page it reads or
//! programs, thousands in one pass; on a busy host no drainer is sure to be
//! scheduled in time, so its ring can overrun. The probe counts what it saw
//! of each kind, so that `stack::trace_layers` can tell losses of kinds the
//! counters also count from losses of the kinds the metrics are read from.

use std::collections::{BTreeMap, HashMap};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::JoinHandle;
use std::time::Duration;

use mssd::{Mssd, TraceEvent, TraceKind, TraceSink};

type EventKey = (u8, u16, u16, u16, u64, u64, u64, u64, u64);

fn key(e: &TraceEvent) -> EventKey {
    (e.kind as u8, e.queue, e.lane, e.tenant, e.cmd, e.vclock_ns, e.wall_ns, e.a, e.b)
}

/// The order `TraceSink::drain` sorts events in.
fn order(e: &TraceEvent) -> (u64, u64, u8, u64) {
    (e.vclock_ns, e.wall_ns, e.kind as u8, e.cmd)
}

/// New events per drain above which the drainer pauses half as long;
/// below a quarter of it, twice as long. One ring holds 1024.
const TARGET_NEW: u64 = 256;

/// Longest pause between two drains, in microseconds.
const MAX_PAUSE_US: u64 = 128;

/// What the drained events add up to.
#[derive(Debug, Default)]
pub struct TraceTotals {
    /// Events emitted that no drain saw (ring overwrites).
    pub dropped: u64,
    /// `Coalesce` events and the commands they absorbed.
    pub coalesce_events: u64,
    /// Sum of `Coalesce.a` (commands absorbed).
    pub coalesce_absorbed: u64,
    /// `GcVictim` events.
    pub gc_victims: u64,
    /// `ReactorPark` events.
    pub parks: u64,
    /// `ReactorWake` events.
    pub wakes: u64,
    /// Wall nanoseconds from each park to the wake with the same ticket.
    pub park_wall_ns: u64,
    /// Events seen, by kind.
    pub seen: BTreeMap<TraceKind, u64>,
}

/// Incremental drainer of one device's trace sink.
#[derive(Debug, Default)]
pub struct Probe {
    /// The previous drain's events.
    prev: Vec<TraceEvent>,
    emitted: u64,
    parked: HashMap<u64, u64>,
    /// Accumulated totals.
    pub totals: TraceTotals,
}

impl Probe {
    /// Drains now. Returns how many events were emitted since the last drain.
    pub fn drain(&mut self, sink: &TraceSink) -> u64 {
        let dump = sink.drain();
        let emitted = dump.dropped + dump.events.len() as u64;
        let new = emitted - self.emitted;
        self.emitted = emitted;
        // Both snapshots come sorted by `order`: one merge walk finds the
        // events the previous snapshot did not hold.
        let mut fresh = Vec::new();
        let mut old = self.prev.iter().peekable();
        for e in &dump.events {
            while old.next_if(|o| order(o) < order(e)).is_some() {}
            let seen = old.clone().take_while(|o| order(o) == order(e)).any(|o| key(o) == key(e));
            if !seen {
                fresh.push(*e);
            }
        }
        let found = fresh.len() as u64;
        for e in &fresh {
            self.absorb(e);
        }
        self.prev = dump.events;
        self.totals.dropped += new.saturating_sub(found);
        new
    }

    fn absorb(&mut self, e: &TraceEvent) {
        let t = &mut self.totals;
        *t.seen.entry(e.kind).or_default() += 1;
        match e.kind {
            TraceKind::Coalesce => {
                t.coalesce_events += 1;
                t.coalesce_absorbed += e.a;
            }
            TraceKind::GcVictim => t.gc_victims += 1,
            TraceKind::ReactorPark => {
                t.parks += 1;
                self.parked.insert(e.b, e.wall_ns);
            }
            TraceKind::ReactorWake => {
                t.wakes += 1;
                if let Some(at) = self.parked.remove(&e.b) {
                    t.park_wall_ns += e.wall_ns.saturating_sub(at);
                }
            }
            _ => {}
        }
    }
}

/// A probe of one device's sink that several threads drain into.
pub struct SharedProbe {
    device: Arc<Mssd>,
    probe: Mutex<Probe>,
}

impl SharedProbe {
    /// A probe of `device`'s sink.
    pub fn new(device: Arc<Mssd>) -> Arc<Self> {
        Arc::new(Self { device, probe: Mutex::new(Probe::default()) })
    }

    /// Drains now. Returns how many events were emitted since the last drain.
    pub fn drain(&self) -> u64 {
        self.probe.lock().expect("probe lock poisoned").drain(self.device.trace_sink())
    }

    /// Drains a last time and returns what was gathered.
    fn finish(&self) -> Probe {
        self.drain();
        std::mem::take(&mut *self.probe.lock().expect("probe lock poisoned"))
    }

    /// Wraps `fut` so that every poll of it, and every wake-up it receives,
    /// drains first.
    ///
    /// The executor rings a reactor lane's doorbell when it has nothing
    /// ready, and the device then completes every command queued on that
    /// lane, hundreds of events, before waking the batches that wait on it.
    /// Draining inside the wake-up reads each lane's burst before the next
    /// lane's begins, so no burst is longer than one lane's queue.
    pub fn draining<F: Future + Unpin>(self: &Arc<Self>, fut: F) -> Draining<F> {
        Draining { fut, probe: Arc::clone(self) }
    }
}

/// A waker that drains the probe, then wakes the task.
struct DrainingWaker {
    task: Waker,
    probe: Arc<SharedProbe>,
}

impl Wake for DrainingWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.probe.drain();
        self.task.wake_by_ref();
    }
}

/// A future whose polls and wake-ups drain a [`SharedProbe`] first.
pub struct Draining<F> {
    fut: F,
    probe: Arc<SharedProbe>,
}

impl<F: Future + Unpin> Future for Draining<F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        self.probe.drain();
        let waker = Waker::from(Arc::new(DrainingWaker {
            task: cx.waker().clone(),
            probe: Arc::clone(&self.probe),
        }));
        Pin::new(&mut self.fut).poll(&mut Context::from_waker(&waker))
    }
}

/// A thread that drains one device's trace sink while the workload runs, so
/// that a single long call (one fsync can program thousands of pages, and
/// the log cleaner thread programs while the caller waits) cannot overrun a
/// ring between two drains.
pub struct Drainer {
    stop: Arc<AtomicBool>,
    probe: Arc<SharedProbe>,
    handle: JoinHandle<()>,
}

impl Drainer {
    /// Starts draining `device`'s sink.
    pub fn start(device: Arc<Mssd>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let probe = SharedProbe::new(device);
        let (stopped, drained) = (Arc::clone(&stop), Arc::clone(&probe));
        let handle = std::thread::Builder::new()
            .name("trace-drainer".into())
            .spawn(move || {
                let mut pause_us = MAX_PAUSE_US;
                while !stopped.load(Ordering::Acquire) {
                    let new = drained.drain();
                    if new > TARGET_NEW {
                        pause_us /= 2;
                    } else if new < TARGET_NEW / 4 {
                        pause_us = (pause_us * 2).clamp(1, MAX_PAUSE_US);
                    }
                    if pause_us == 0 {
                        std::thread::yield_now();
                    } else {
                        std::thread::sleep(Duration::from_micros(pause_us));
                    }
                }
            })
            .expect("spawn the trace drainer thread");
        Self { stop, probe, handle }
    }

    /// The probe the thread drains into, for the workload to drain too.
    pub fn probe(&self) -> Arc<SharedProbe> {
        Arc::clone(&self.probe)
    }

    /// Stops the thread, drains a last time and returns what was gathered.
    pub fn finish(self) -> Probe {
        self.stop.store(true, Ordering::Release);
        self.handle.join().expect("the trace drainer thread panicked");
        self.probe.finish()
    }
}
