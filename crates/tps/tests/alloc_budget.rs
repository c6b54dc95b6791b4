//! Allocation budget of one warm routed event.
//!
//! A publisher and 16 subscribers, each in its own group on one
//! `ReactorHost`, exchange a type until every `(type, interest)` pair is
//! bound. The test then counts the heap allocations this thread makes
//! for one more event: publish, `run_until_quiescent`, and a `drain`
//! plus a `get_field` per subscriber. A warm delivery decodes its
//! envelope in place and shares the contract bound in its checker's
//! verdict cache, so a per-delivery copy of an envelope header, a
//! description, a binding or a proxy that comes back shows up here as a
//! count over the budget rather than as wall time.
//!
//! Its own test binary, because the counting global allocator applies
//! to the whole binary, and exactly one test, so no other test's
//! allocations run while it counts (the counter is per thread anyway).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pti_metamodel::{bodies, primitives, Assembly, TypeDef, TypeDescription, Value};
use pti_net::{PeerId, ReactorNet};
use pti_tps::{Subscription, TypedPubSub};
use pti_transport::{CodeRegistry, ReactorHost};

/// Allocations of one warm event, measured once a warm delivery reused
/// its type's memoized contract, materialized each declared field into
/// its blank-instance slot without copying the field's name, and the
/// wire flush shipped each link's queue without copying it into chunk
/// vectors (the fabric, not the sender, attributes batched frames): 138
/// for the publish, the drive and 16 × (`drain` + `get_field`), about 9
/// per delivery. While the flush built per-link chunk vectors and a
/// list of the frames to attribute it made 170; while each declared
/// field name was copied it made 186; while every warm envelope was
/// decoded into an owned `ObjectEnvelope` (about 12 header allocations
/// per delivery) the same event made 378, and while every delivery also
/// copied its interest's description, binding and proxy it made 798.
/// The margin of 8 is less than one allocation per delivery, so a
/// single extra allocation in each delivery fails the test.
const WARM_EVENT_BUDGET: u64 = 138 + 8;

const SUBSCRIBERS: u32 = 16;
const PUBLISHER: PeerId = PeerId(1);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations and reallocations made on
/// a thread while its `COUNTING` flag is set.
struct Counting;

fn note_allocation() {
    // `try_with`: the allocator also runs while thread locals are torn
    // down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every call forwards unchanged to `System`; the bookkeeping
// only touches const-initialised thread-local `Cell`s, which never
// allocate.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations this thread makes while running `f`.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (ALLOCATIONS.with(Cell::get), out)
}

struct Subscriber {
    group: TypedPubSub<ReactorNet>,
    id: PeerId,
    sub: Subscription<ReactorNet>,
}

fn reading(salt: &str) -> TypeDef {
    TypeDef::class("Reading", salt)
        .field("value", primitives::FLOAT64)
        .ctor(vec![])
        .build()
}

/// Drains every subscriber, reading `value` through each proxy, and
/// returns the values read plus the delivered handles to free.
fn consume(subscribers: &[Subscriber]) -> (Vec<f64>, Vec<(usize, Value)>) {
    let mut values = Vec::with_capacity(subscribers.len());
    let mut delivered = Vec::with_capacity(subscribers.len());
    for (i, s) in subscribers.iter().enumerate() {
        for ev in s.sub.drain() {
            let v = s.sub.get_field(&ev, "value").unwrap();
            values.push(v.as_f64().unwrap());
            delivered.push((i, ev.value));
        }
    }
    (values, delivered)
}

fn free(subscribers: &[Subscriber], delivered: Vec<(usize, Value)>) {
    for (i, v) in delivered {
        let s = &subscribers[i];
        if let Value::Obj(h) = v {
            s.group
                .with_swarm(|sw| sw.peer_mut(s.id).runtime.heap.free(h).unwrap());
        }
    }
}

#[test]
fn a_warm_routed_event_to_16_subscribers_stays_within_its_allocation_budget() {
    let mut host = ReactorHost::new();
    let code = CodeRegistry::new();
    let publisher_group = TypedPubSub::builder()
        .code_registry(code.clone())
        .mount_on(&mut host);
    let def = reading("pub");
    let asm = Assembly::builder("reading")
        .ty(def.clone())
        .ctor_body(def.guid, 0, bodies::ctor_assign(&[]))
        .build();
    let publisher = publisher_group
        .add_member_as(PUBLISHER)
        .publisher_for(asm)
        .unwrap();
    let subscribers: Vec<Subscriber> = (0..SUBSCRIBERS)
        .map(|i| {
            let group = TypedPubSub::builder()
                .code_registry(code.clone())
                .mount_on(&mut host);
            let id = PeerId(2 + i);
            let member = group.add_member_as(id);
            group.with_swarm(|s| s.add_contact(PUBLISHER));
            let sub = member.subscribe(TypeDescription::from_def(&reading("sub")));
            Subscriber { group, id, sub }
        })
        .collect();
    host.run_until_quiescent().unwrap();

    let event = |value: f64, host: &mut ReactorHost| {
        let mut handle = None;
        publisher
            .publish_with(|e| {
                e.set("value", value)?;
                handle = Some(e.handle());
                Ok(())
            })
            .unwrap();
        host.run_until_quiescent().unwrap();
        let (values, delivered) = consume(&subscribers);
        (handle.unwrap(), values, delivered)
    };
    let release = |published, delivered| {
        free(&subscribers, delivered);
        publisher_group
            .with_swarm(|sw| sw.peer_mut(PUBLISHER).runtime.heap.free(published).unwrap());
    };

    // The first event exchanges the type; the rest settle every buffer.
    for k in 0..8 {
        let (published, values, delivered) = event(f64::from(k), &mut host);
        assert_eq!(values, vec![f64::from(k); SUBSCRIBERS as usize]);
        release(published, delivered);
    }

    let (allocations, (published, values, delivered)) = allocations_in(|| event(99.5, &mut host));
    assert_eq!(
        values,
        vec![99.5; SUBSCRIBERS as usize],
        "every subscriber read the event"
    );
    release(published, delivered);
    assert!(
        allocations <= WARM_EVENT_BUDGET,
        "one warm event to {SUBSCRIBERS} subscribers made {allocations} heap allocations, \
         over the budget of {WARM_EVENT_BUDGET}: a per-delivery copy came back"
    );
}
