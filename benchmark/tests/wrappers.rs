//! The outside-in layer wrappers must be invisible to the simulator:
//! every call forwards unchanged, and wrapped runs report exactly what
//! bare runs do.

use std::sync::Arc;

use domino_benchmark::layers::{Clocks, TimedPrefetcher, TimedSource};
use domino_benchmark::Digest;
use domino_mem::interface::{PrefetchRequest, PrefetchSink, Prefetcher, TriggerEvent};
use domino_sim::timing::run_timing_warmed;
use domino_sim::{run_coverage_with_batch, run_multicore, System, SystemConfig};
use domino_telemetry::CounterSink;
use domino_trace::addr::{LineAddr, Pc};
use domino_trace::event::AccessEvent;
use domino_trace::stream::{EventSource, SliceSource};
use domino_trace::workload::catalog;

fn trace(n: usize) -> Vec<AccessEvent> {
    catalog::oltp().generator(5).take(n).collect()
}

/// Answers every query with a recognisable value and remembers what it
/// was asked.
#[derive(Default)]
struct Probe {
    reserved: Arc<std::sync::Mutex<Vec<usize>>>,
}

impl Prefetcher for Probe {
    fn name(&self) -> &str {
        "Probe"
    }

    fn on_trigger(&mut self, event: &TriggerEvent, sink: &mut dyn PrefetchSink) {
        sink.prefetch(PrefetchRequest::immediate(LineAddr::new(
            event.line.raw() + 1,
        )));
    }

    fn reserve(&mut self, expected_events: usize) {
        self.reserved
            .lock()
            .expect("probe lock")
            .push(expected_events);
    }

    fn emit_counters(&self, sink: &mut dyn CounterSink) {
        sink.counter("probe.answer", 42);
    }

    fn footprint_bytes(&self) -> usize {
        12_345
    }

    fn knows_line(&self, line: LineAddr) -> bool {
        line.raw().is_multiple_of(2)
    }
}

#[test]
fn timed_prefetcher_forwards_every_query() {
    let probe = Probe::default();
    let reserved = Arc::clone(&probe.reserved);
    let clocks = Clocks::shared();
    let mut p = TimedPrefetcher::new(Box::new(probe), Arc::clone(&clocks));
    assert_eq!(p.name(), "Probe");
    p.reserve(777);
    assert_eq!(*reserved.lock().expect("probe lock"), vec![777]);
    assert_eq!(p.footprint_bytes(), 12_345);
    assert!(p.knows_line(LineAddr::new(4)));
    assert!(!p.knows_line(LineAddr::new(5)));
    let mut seen = Vec::new();
    p.emit_counters(&mut |name: &str, v: u64| seen.push((name.to_string(), v)));
    assert_eq!(seen, vec![("probe.answer".to_string(), 42)]);
    let mut sink = domino_mem::interface::CollectSink::new();
    p.on_trigger(&TriggerEvent::miss(Pc::new(1), LineAddr::new(9)), &mut sink);
    assert_eq!(
        sink.requests,
        vec![PrefetchRequest::immediate(LineAddr::new(10))]
    );
    drop(p);
    assert_eq!(clocks.trigger.calls(), 1, "the clock settles on drop");
}

#[test]
fn wrapped_runs_match_bare_runs_for_every_system_in_both_engines() {
    let system = SystemConfig::paper();
    let events = trace(6_000);
    for sys in System::all() {
        let clocks = Clocks::shared();
        let mut wrapped = TimedPrefetcher::new(sys.build(4), Arc::clone(&clocks));
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.coverage(&run_coverage_with_batch(
            &system,
            &events,
            &mut wrapped,
            1_000,
            64,
        ));
        b.coverage(&run_coverage_with_batch(
            &system,
            &events,
            sys.build(4).as_mut(),
            1_000,
            64,
        ));
        assert_eq!(a, b, "{} coverage", sys.label());
        drop(wrapped);

        let mut wrapped = TimedPrefetcher::new(sys.build(4), Arc::clone(&clocks));
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.timing(&run_timing_warmed(&system, &events, &mut wrapped, 1_000));
        b.timing(&run_timing_warmed(
            &system,
            &events,
            sys.build(4).as_mut(),
            1_000,
        ));
        assert_eq!(a, b, "{} timing", sys.label());
        drop(wrapped);
        assert!(
            clocks.batch.calls() > 0,
            "{} coverage batches timed",
            sys.label()
        );
        assert!(
            clocks.trigger.calls() > 0,
            "{} timing triggers timed",
            sys.label()
        );
        assert!(
            clocks.coverage_triggers() > 0,
            "{} coverage triggers counted",
            sys.label()
        );
    }
}

#[test]
fn wrapped_multicore_run_matches_bare_run() {
    let system = SystemConfig::paper();
    let traces: Vec<Vec<AccessEvent>> = (0..u64::from(system.cores))
        .map(|c| catalog::web_apache().generator(c).take(3_000).collect())
        .collect();
    let clocks = Clocks::shared();
    let wrapped: Vec<Box<dyn Prefetcher>> = (0..system.cores)
        .map(|_| {
            Box::new(TimedPrefetcher::new(
                System::Domino.build(4),
                Arc::clone(&clocks),
            )) as _
        })
        .collect();
    let bare: Vec<Box<dyn Prefetcher>> =
        (0..system.cores).map(|_| System::Domino.build(4)).collect();
    let (mut a, mut b) = (Digest::default(), Digest::default());
    a.multicore(&run_multicore(&system, traces.clone(), wrapped));
    b.multicore(&run_multicore(&system, traces, bare));
    assert_eq!(a, b);
    assert!(
        clocks.trigger.calls() > 0,
        "prefetchers dropped inside the run settle"
    );
}

#[test]
fn timed_source_delivers_identical_chunks() {
    let events = trace(5_000);
    let clocks = Clocks::shared();
    let mut bare = SliceSource::from_vec(events.clone(), 700);
    let mut timed = TimedSource::new(SliceSource::from_vec(events, 700), Arc::clone(&clocks));
    assert_eq!(timed.total_events(), bare.total_events());
    assert_eq!(timed.chunk_events(), bare.chunk_events());
    let (mut x, mut y) = (Vec::new(), Vec::new());
    let mut chunks = 0;
    loop {
        let n = timed.next_chunk(&mut x).expect("slice source");
        assert_eq!(n, bare.next_chunk(&mut y).expect("slice source"));
        assert_eq!(x, y);
        chunks += 1;
        if n == 0 {
            break;
        }
    }
    assert_eq!(timed.peak_resident_bytes(), bare.peak_resident_bytes());
    assert_eq!(timed.budget_bytes(), bare.budget_bytes());
    drop(timed);
    assert_eq!(clocks.chunk.calls(), chunks);
}
