//! The swarm's wire queue, observed from the fabric.
//!
//! Frames queued on random links — links that repeat, caps of one to
//! three frames and bytes, several flushes per case — must reach the
//! fabric as exactly the messages a per-link `BTreeMap<(from, to), Vec>`
//! model ships: links in `(from, to)` order, each link's frames in queue
//! order, split into runs by the caps, a lone frame as itself and a
//! longer run as one `batch`. And the frames a failed dispatch queued
//! ship before the pump polls its next message.
//!
//! The random cases are drawn from a SplitMix64 stream, so a failure
//! names the seed that reproduces it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use pti_conformance::ConformanceConfig;
use pti_net::{
    BusMessage, FaultPlan, FrameBatch, NetConfig, NetError, NetMetrics, Payload, PeerId, SimNet,
    Transport,
};
use pti_transport::{kinds, Swarm, RELIABLE_HEADER_LEN};

const CASES: u64 = 256;

/// The tiny deterministic PRNG driving the cases (SplitMix64).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// What the fabric saw, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Seen {
    /// An accepted send: link, kind and payload bytes.
    Sent(PeerId, PeerId, &'static str, Vec<u8>),
    /// A receive that returned a message: receiver and kind.
    Polled(PeerId, &'static str),
}

/// An ideal-link fabric that logs every accepted send and every receive
/// that returned a message.
struct Recording {
    net: SimNet,
    log: Rc<RefCell<Vec<Seen>>>,
}

impl Recording {
    fn new() -> (Recording, Rc<RefCell<Vec<Seen>>>) {
        let log = Rc::new(RefCell::new(Vec::new()));
        let net = SimNet::new(NetConfig::ideal());
        (
            Recording {
                net,
                log: Rc::clone(&log),
            },
            log,
        )
    }
}

impl Transport for Recording {
    fn register(&mut self, peer: PeerId) {
        self.net.register(peer);
    }

    fn unregister(&mut self, peer: PeerId) {
        Transport::unregister(&mut self.net, peer);
    }

    fn send(
        &mut self,
        from: PeerId,
        to: PeerId,
        kind: &'static str,
        payload: Payload,
    ) -> Result<(), NetError> {
        let bytes = payload.as_slice().to_vec();
        self.net.send(from, to, kind, payload)?;
        self.log
            .borrow_mut()
            .push(Seen::Sent(from, to, kind, bytes));
        Ok(())
    }

    fn try_recv(&mut self, peer: PeerId) -> Option<BusMessage> {
        let msg = self.net.try_recv(peer)?;
        self.log.borrow_mut().push(Seen::Polled(peer, msg.kind));
        Some(msg)
    }

    fn metrics(&self) -> NetMetrics {
        Transport::metrics(&self.net)
    }

    fn reset_metrics(&mut self) {
        self.net.reset_metrics();
    }

    fn record_payload_encode(&mut self) {
        self.net.record_payload_encode();
    }

    fn note_outbound(&mut self) {
        self.net.note_outbound();
    }

    fn now_us(&self) -> u64 {
        Transport::now_us(&self.net)
    }

    fn install_fault_plan(&mut self, plan: FaultPlan) {
        Transport::install_fault_plan(&mut self.net, plan);
    }

    fn advance_virtual_time(&mut self, deadline_us: u64) {
        self.net.advance_virtual_time(deadline_us);
    }
}

/// A queued frame: kind and payload bytes.
type Frame = (&'static str, Vec<u8>);

/// The model queue: each link's frames in queue order.
type Model = BTreeMap<(PeerId, PeerId), Vec<Frame>>;

const KINDS: [&str; 4] = [
    kinds::OBJECT,
    kinds::ACK,
    kinds::SUBSCRIBE,
    kinds::DESC_REQUEST,
];

/// The messages the model ships for one flush: each link's queue, in
/// link order, split greedily into runs of at most `max_frames` frames
/// and `max_bytes` payload bytes (a frame over the byte cap runs alone).
fn model_flush(queued: &Model, max_frames: usize, max_bytes: usize) -> Vec<Seen> {
    let mut shipped = Vec::new();
    for (&(from, to), frames) in queued {
        let mut runs: Vec<(Vec<Frame>, usize)> = Vec::new();
        for (kind, bytes) in frames {
            match runs.last_mut() {
                Some((run, size)) if run.len() < max_frames && *size + bytes.len() <= max_bytes => {
                    *size += bytes.len();
                    run.push((kind, bytes.clone()));
                }
                _ => runs.push((vec![(kind, bytes.clone())], bytes.len())),
            }
        }
        for (run, _) in runs {
            shipped.push(match run.as_slice() {
                [(kind, bytes)] => Seen::Sent(from, to, kind, bytes.clone()),
                _ => Seen::Sent(
                    from,
                    to,
                    kinds::BATCH,
                    FrameBatch::encode_frames(run.iter().map(|(k, b)| (*k, b.as_slice()))),
                ),
            });
        }
    }
    shipped
}

#[test]
fn the_wire_queue_ships_what_a_per_link_map_ships() {
    for seed in 0..CASES {
        let mut rng = SplitMix64(seed);
        let (net, log) = Recording::new();
        let mut swarm = Swarm::over(net);
        for to in 4..=6 {
            swarm.net_mut().register(PeerId(to));
        }
        let (max_frames, max_bytes) = if rng.below(4) == 0 {
            (
                pti_transport::DEFAULT_WIRE_MAX_FRAMES,
                pti_transport::DEFAULT_WIRE_MAX_BYTES,
            )
        } else {
            let caps = (1 + rng.below(3) as usize, 1 + rng.below(3) as usize);
            swarm.set_wire_cap(caps.0, caps.1);
            caps
        };
        for flush in 0..1 + rng.below(3) {
            let mut model = Model::new();
            for _ in 0..rng.below(25) {
                let link = (
                    PeerId(1 + rng.below(3) as u32),
                    PeerId(4 + rng.below(3) as u32),
                );
                let kind = KINDS[rng.below(KINDS.len() as u64) as usize];
                let bytes: Vec<u8> = (0..rng.below(4)).map(|_| rng.next_u64() as u8).collect();
                swarm.queue_frame(link.0, link.1, kind, bytes.clone());
                model.entry(link).or_default().push((kind, bytes));
            }
            let queued: usize = model.values().map(Vec::len).sum();
            assert_eq!(swarm.queued_frames(), queued, "seed {seed}, flush {flush}");
            swarm.flush_wire();
            assert_eq!(swarm.queued_frames(), 0, "seed {seed}, flush {flush}");
            let shipped = std::mem::take(&mut *log.borrow_mut());
            assert_eq!(
                shipped,
                model_flush(&model, max_frames, max_bytes),
                "seed {seed}, flush {flush}, caps ({max_frames}, {max_bytes})"
            );
        }
    }
}

/// A reliable frame whose envelope is garbage: its ACK is queued, then
/// the envelope fails to parse and the dispatch fails.
fn hostile_reliable(link_seq: u64, publisher: PeerId) -> Vec<u8> {
    let mut frame = Vec::with_capacity(RELIABLE_HEADER_LEN + 6);
    frame.extend_from_slice(&link_seq.to_le_bytes());
    frame.extend_from_slice(&publisher.0.to_le_bytes());
    frame.extend_from_slice(&link_seq.to_le_bytes());
    frame.extend_from_slice(&[0xEE; 6]);
    frame
}

#[test]
fn a_failed_dispatch_ships_its_frames_before_the_next_poll() {
    let (net, log) = Recording::new();
    let mut swarm = Swarm::over(net);
    let bob = swarm.add_peer_as(PeerId(2), ConformanceConfig::pragmatic());
    let alice = PeerId(1);
    swarm.net_mut().register(alice);
    for seq in 1..=2 {
        swarm
            .net_mut()
            .send(
                alice,
                bob,
                kinds::OBJECT_R,
                hostile_reliable(seq, alice).into(),
            )
            .unwrap();
    }
    log.borrow_mut().clear();

    swarm.run().unwrap();

    let acks: Vec<Vec<u8>> = log
        .borrow()
        .iter()
        .filter_map(|seen| match seen {
            Seen::Sent(_, _, _, bytes) => Some(bytes.clone()),
            Seen::Polled(..) => None,
        })
        .collect();
    assert_eq!(
        acks.len(),
        2,
        "one ACK per reliable frame: {:?}",
        log.borrow()
    );
    assert_eq!(
        *log.borrow(),
        vec![
            Seen::Polled(bob, kinds::OBJECT_R),
            Seen::Sent(bob, alice, kinds::ACK, acks[0].clone()),
            Seen::Polled(bob, kinds::OBJECT_R),
            Seen::Sent(bob, alice, kinds::ACK, acks[1].clone()),
        ]
    );
    assert_eq!(swarm.take_dispatch_errors().len(), 2);
}
