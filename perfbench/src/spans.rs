//! Benchmark-side spans: one span around each call the benchmark makes
//! into a layer's public functions, kept in memory and written out when
//! the run ends.
//!
//! The program's own spans (`InteriorCompute`, `GhostExchange`,
//! `CkptWrite`, `CkptRead`) are read from its trace collector after each
//! traced operation and placed on the same clock, so self time per layer
//! and the unattributed remainder of an operation come from one tree.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;
use vf_machine::trace::{self, Phase};

/// The program spans the benchmark reads; every other phase stays inside
/// the layer span that caused it.
pub const PROGRAM_PHASES: [Phase; 4] = [
    Phase::InteriorCompute,
    Phase::GhostExchange,
    Phase::CkptWrite,
    Phase::CkptRead,
];

/// One finished span on the benchmark's clock.
#[derive(Debug, Clone)]
pub struct Event {
    /// `layer.function` for benchmark spans, `program.<Phase>` for the
    /// program's own.
    pub name: String,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Calls the span covers (a span around a loop of `n` calls).
    pub calls: u64,
}

impl Event {
    fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// Records spans when on; when off, a span costs one branch.
pub struct Tracer {
    on: Cell<bool>,
    epoch: Instant,
    /// Program clock reading at `epoch`, in nanoseconds.
    program_offset_ns: i64,
    events: RefCell<Vec<Event>>,
}

impl Tracer {
    /// A tracer that records nothing (the untraced run).
    pub fn off() -> Self {
        Tracer {
            on: Cell::new(false),
            epoch: Instant::now(),
            program_offset_ns: 0,
            events: RefCell::new(Vec::new()),
        }
    }

    /// A recording tracer whose clock is aligned with the program's trace
    /// collector.  Leaves the program's tracing off.
    pub fn on() -> Self {
        trace::set_enabled(true);
        trace::reset();
        let epoch = Instant::now();
        // Align the two clocks through one marker span read back at once.
        let before = epoch.elapsed().as_nanos() as i64;
        trace::OpenSpan::begin_static(Phase::Step, "perfbench-clock-sync").end();
        let after = epoch.elapsed().as_nanos() as i64;
        let marker = trace::take()
            .events
            .into_iter()
            .find(|e| e.label == "perfbench-clock-sync")
            .expect("the clock-sync marker was recorded");
        trace::set_enabled(false);
        Tracer {
            on: Cell::new(true),
            epoch,
            program_offset_ns: marker.start_ns as i64 - (before + after) / 2,
            events: RefCell::new(Vec::new()),
        }
    }

    /// Switches the benchmark's spans and the program's tracing.
    pub fn set_on(&self, on: bool) {
        self.on.set(on);
        trace::set_enabled(on);
    }

    /// Switches only the program's tracing; the benchmark's spans stay on.
    /// Probes turn it on only where they read a program span, so its cost
    /// stays out of every other layer metric.
    pub fn set_program_tracing(&self, on: bool) {
        trace::set_enabled(on);
    }

    /// A span around one call.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        self.span_n(name, 1)
    }

    /// A span around a loop of `calls` calls.
    pub fn span_n(&self, name: &'static str, calls: u64) -> Span<'_> {
        Span {
            tracer: self,
            name,
            calls,
            start: self.on.get().then(Instant::now),
        }
    }

    /// Records a span measured elsewhere (on another thread): it is
    /// counted in [`Tracer::total`] and placed to end now.
    pub fn record(&self, name: &'static str, dur: std::time::Duration, calls: u64) {
        if !self.on.get() {
            return;
        }
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let dur_ns = dur.as_nanos() as u64;
        self.events.borrow_mut().push(Event {
            name: name.to_string(),
            start_ns: end_ns.saturating_sub(dur_ns),
            dur_ns,
            calls,
        });
    }

    /// Moves the program's recorded spans of [`PROGRAM_PHASES`] from the
    /// caller thread onto this tracer's clock, and clears the program's
    /// collector.  Spans on other threads run inside a caller-thread span
    /// and are not counted twice.
    pub fn absorb_program_spans(&self) {
        let snap = trace::take();
        let caller = trace::current_lane();
        let mut events = self.events.borrow_mut();
        for e in snap.events {
            // Zero-duration events are counters, not time.
            if e.lane != caller || e.dur_ns == 0 || !PROGRAM_PHASES.contains(&e.phase) {
                continue;
            }
            events.push(Event {
                name: format!("program.{}", e.phase.name()),
                start_ns: (e.start_ns as i64 - self.program_offset_ns).max(0) as u64,
                dur_ns: e.dur_ns,
                calls: 1,
            });
        }
    }

    /// All recorded spans.
    pub fn events(&self) -> Vec<Event> {
        self.events.borrow().clone()
    }

    /// Total nanoseconds and calls of every span named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.events
            .borrow()
            .iter()
            .filter(|e| e.name == name)
            .fold((0, 0), |(ns, n), e| (ns + e.dur_ns, n + e.calls))
    }

    /// Nanoseconds per call over every span named `name`.
    pub fn ns_per_call(&self, name: &str) -> f64 {
        let (ns, calls) = self.total(name);
        assert!(calls > 0, "no span named {name} was recorded");
        ns as f64 / calls as f64
    }

    /// Durations (ns) of the individual spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.events
            .borrow()
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.dur_ns as f64)
            .collect()
    }

    /// Renders the spans in the Chrome `trace_event` format.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, e) in self.events.borrow().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":0,\"args\":{{\"calls\":{}}}}}",
                e.name,
                e.start_ns as f64 / 1e3,
                e.dur_ns as f64 / 1e3,
                e.calls
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// An open benchmark span; it ends when dropped.
#[must_use = "a span measures the scope it lives in"]
pub struct Span<'t> {
    tracer: &'t Tracer,
    name: &'static str,
    calls: u64,
    start: Option<Instant>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let start_ns = start.duration_since(self.tracer.epoch).as_nanos() as u64;
            self.tracer.events.borrow_mut().push(Event {
                name: self.name.to_string(),
                start_ns,
                dur_ns: start.elapsed().as_nanos() as u64,
                calls: self.calls,
            });
        }
    }
}

/// Self time per span name: each span's duration minus the part its
/// direct children cover, summed by name, largest first.
pub fn self_times(events: &[Event]) -> Vec<(String, u64)> {
    let selfs = self_time_per_event(events);
    let mut by_name: Vec<(String, u64)> = Vec::new();
    for (e, s) in events.iter().zip(selfs) {
        match by_name.iter_mut().find(|(n, _)| *n == e.name) {
            Some((_, total)) => *total += s,
            None => by_name.push((e.name.clone(), s)),
        }
    }
    by_name.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    by_name
}

/// Share of the spans named `name` that none of their children cover.
pub fn uncovered_frac(events: &[Event], name: &str) -> f64 {
    let selfs = self_time_per_event(events);
    let (mut own, mut total) = (0u64, 0u64);
    for (e, s) in events.iter().zip(selfs) {
        if e.name == name {
            own += s;
            total += e.dur_ns;
        }
    }
    assert!(total > 0, "no span named {name} was recorded");
    own as f64 / total as f64
}

/// Clock alignment between the two collectors is good to well under a
/// microsecond; a child may poke out of its parent by this much.
const NEST_SLACK_NS: u64 = 1_000;

/// Self time of each event, in input order.  Spans on one thread nest
/// properly, so a stack over start-ordered spans finds each parent.
fn self_time_per_event(events: &[Event]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by(|&a, &b| {
        let (ea, eb) = (&events[a], &events[b]);
        ea.start_ns
            .cmp(&eb.start_ns)
            .then(eb.dur_ns.cmp(&ea.dur_ns))
    });
    let mut covered = vec![0u64; events.len()];
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        let e = &events[i];
        while let Some(&top) = stack.last() {
            if e.start_ns + NEST_SLACK_NS >= events[top].end_ns()
                || e.end_ns() > events[top].end_ns() + NEST_SLACK_NS
            {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = stack.last() {
            covered[parent] += e.dur_ns;
        }
        stack.push(i);
    }
    events
        .iter()
        .zip(covered)
        .map(|(e, c)| e.dur_ns.saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, start_ns: u64, dur_ns: u64) -> Event {
        Event {
            name: name.into(),
            start_ns,
            dur_ns,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let events = [
            ev("op", 0, 100_000),
            ev("a", 10_000, 50_000),
            ev("a.inner", 20_000, 20_000),
            ev("b", 70_000, 20_000),
        ];
        let selfs = self_times(&events);
        let get = |n: &str| selfs.iter().find(|(m, _)| m == n).unwrap().1;
        assert_eq!(get("op"), 30_000);
        assert_eq!(get("a"), 30_000);
        assert_eq!(get("a.inner"), 20_000);
        assert_eq!(get("b"), 20_000);
        assert!((uncovered_frac(&events, "op") - 0.3).abs() < 1e-12);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let tracer = Tracer::off();
        drop(tracer.span("x"));
        assert!(tracer.events().is_empty());
    }
}
