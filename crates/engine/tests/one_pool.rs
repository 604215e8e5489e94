//! The engine has no threads of its own: a single request is planned
//! on the thread that brought it, and concurrent batches share the
//! engine without mixing their answers.

use chronus_engine::{plan_sequential, Engine, EngineConfig, UpdateRequest};
use chronus_net::{motivating_example, reversal_instance};
use chronus_trace::FlightRecorder;
use std::sync::{Arc, Barrier};
use std::time::Duration;

#[test]
fn plan_one_plans_on_the_calling_thread() {
    FlightRecorder::enable(4096);
    let engine = Engine::new(EngineConfig::with_workers(2));
    const REQUEST: u64 = 0xC0FFEE;
    let caller = chronus_trace::span!("test.caller").entered();
    let caller_id = caller.id().expect("the flight recorder is on");
    let planned = engine.plan_one(UpdateRequest::new(
        REQUEST,
        Arc::new(motivating_example()),
        Duration::from_secs(30),
    ));
    drop(caller);

    // The other test of this binary plans concurrently: pick this
    // request's span by its id.
    let snapshot = FlightRecorder::snapshot();
    let by_id = |id: u64| {
        snapshot
            .events
            .iter()
            .find(|e| e.id == id)
            .expect("span recorded")
    };
    let plan_span = by_id(planned.span_id);
    let caller = by_id(caller_id);
    assert_eq!(plan_span.name, "engine.plan");
    assert_eq!(plan_span.tid, caller.tid, "caller's tid");
    let ring = snapshot.rings.iter().find(|r| r.tid == caller.tid);
    assert_eq!(ring.map(|r| r.dropped), Some(0), "{ring:?}");
    assert_eq!(plan_span.parent, Some(caller_id), "nested in the caller");
}

#[test]
fn concurrent_batches_on_one_engine_keep_their_own_order() {
    let mixed = |base: u64| -> Vec<UpdateRequest> {
        (0..8u64)
            .map(|i| {
                let inst = match (base + i) % 4 {
                    0 => motivating_example(),
                    r => reversal_instance(4 + 2 * r as usize, 2, 1),
                };
                UpdateRequest::new(base + i, Arc::new(inst), Duration::from_secs(30))
            })
            .collect()
    };
    let engine = Engine::new(EngineConfig::with_workers(2));
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        for base in [100, 201] {
            let (engine, start, requests) = (&engine, &start, mixed(base));
            scope.spawn(move || {
                let sequential = plan_sequential(&requests);
                start.wait();
                let concurrent = engine.plan_batch(requests);
                assert_eq!(concurrent.len(), sequential.len());
                for (i, (c, s)) in concurrent.iter().zip(&sequential).enumerate() {
                    assert_eq!(c.id.0, base + i as u64, "submission order");
                    assert_eq!((c.id, c.winner), (s.id, s.winner));
                    let (cs, ss) = (c.plan.schedule(), s.plan.schedule());
                    assert_eq!(cs, ss);
                    assert_eq!(cs.map(ToString::to_string), ss.map(ToString::to_string));
                }
            });
        }
    });
    assert_eq!(engine.report().completed, 16);
}
