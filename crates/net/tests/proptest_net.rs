//! Property tests for the virtual-time fabric: conservation of bytes,
//! clock monotonicity, FIFO per link, transmission time monotone in
//! size, and exact send order with a frozen clock under the ideal link.
//!
//! Each property runs over a few hundred seeded random send scripts
//! drawn from a SplitMix64 stream, so a failure names the seed that
//! reproduces it.

use pti_net::{Message, NetConfig, PeerId, SimNet, Transport};

const CASES: u64 = 256;
const PEERS: u32 = 4;

/// The tiny deterministic PRNG driving the scripts (SplitMix64).
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

/// One scripted send: endpoints and payload size.
#[derive(Debug, Clone, Copy)]
struct Send {
    from: PeerId,
    to: PeerId,
    size: usize,
}

/// Up to 40 sends between four peers, payloads under 2 KiB.
fn sends(rng: &mut SplitMix64) -> Vec<Send> {
    (0..rng.below(40))
        .map(|_| Send {
            from: PeerId(rng.below(u64::from(PEERS)) as u32),
            to: PeerId(rng.below(u64::from(PEERS)) as u32),
            size: rng.below(2048) as usize,
        })
        .collect()
}

/// A fabric with the four peers registered.
fn fabric(config: NetConfig) -> SimNet {
    let mut net = SimNet::new(config);
    for p in 0..PEERS {
        net.register(PeerId(p));
    }
    net
}

/// Sends script entry `i`, tagging its payload with the index in the
/// first four bytes (every payload is at least four bytes long).
fn send_one(net: &mut SimNet, i: usize, s: &Send) {
    let mut payload = vec![0u8; s.size.max(4)];
    payload[..4].copy_from_slice(&(i as u32).to_le_bytes());
    net.send(s.from, s.to, "k", payload.into()).unwrap();
}

fn send_all(net: &mut SimNet, script: &[Send]) {
    for (i, s) in script.iter().enumerate() {
        send_one(net, i, s);
    }
}

fn index_of(m: &Message) -> usize {
    u32::from_le_bytes([m.payload[0], m.payload[1], m.payload[2], m.payload[3]]) as usize
}

fn drain(net: &mut SimNet, peer: PeerId) -> Vec<Message> {
    std::iter::from_fn(|| net.recv(peer)).collect()
}

/// Every queued byte is accounted, and every message is delivered
/// exactly once, to its destination.
#[test]
fn bytes_are_conserved() {
    for seed in 0..CASES {
        let script = sends(&mut SplitMix64(seed));
        let mut net = fabric(NetConfig::default());
        send_all(&mut net, &script);
        let expected_bytes: u64 = script.iter().map(|s| s.size.max(4) as u64).sum();
        assert_eq!(net.metrics().bytes, expected_bytes, "seed {seed}");
        assert_eq!(net.metrics().messages, script.len() as u64, "seed {seed}");
        let mut seen = vec![false; script.len()];
        let mut delivered_bytes = 0u64;
        for p in 0..PEERS {
            for m in drain(&mut net, PeerId(p)) {
                assert_eq!(m.to, PeerId(p), "seed {seed}");
                assert!(!seen[index_of(&m)], "seed {seed}: delivered twice");
                seen[index_of(&m)] = true;
                delivered_bytes += m.payload.len() as u64;
            }
        }
        assert!(seen.iter().all(|s| *s), "seed {seed}: a message was lost");
        assert_eq!(delivered_bytes, expected_bytes, "seed {seed}");
    }
}

/// The virtual clock never goes backwards, every delivery time is at
/// least its send time plus latency, and each peer receives in
/// `(deliver_at, send order)` order.
#[test]
fn clock_monotonic_and_causal() {
    let cfg = NetConfig {
        latency_us: 250,
        bandwidth_bps: 1_000_000,
    };
    for seed in 0..CASES {
        let script = sends(&mut SplitMix64(seed));
        let mut net = fabric(cfg);
        send_all(&mut net, &script);
        let mut last = net.now_us();
        for p in 0..PEERS {
            let got = drain(&mut net, PeerId(p));
            for m in &got {
                assert!(m.deliver_at >= m.sent_at + cfg.latency_us, "seed {seed}");
                assert!(net.now_us() >= m.deliver_at, "seed {seed}");
            }
            let now = net.now_us();
            assert!(
                now >= last,
                "seed {seed}: clock went backwards {last} -> {now}"
            );
            last = now;
            let keys: Vec<_> = got.iter().map(|m| (m.deliver_at, index_of(m))).collect();
            assert!(
                keys.windows(2).all(|w| w[0] < w[1]),
                "seed {seed}: {keys:?}"
            );
        }
    }
}

/// Messages on the same (from, to) link arrive in send order.
#[test]
fn per_link_fifo() {
    for seed in 0..CASES {
        let mut rng = SplitMix64(seed);
        let script: Vec<Send> = (0..1 + rng.below(20))
            .map(|_| Send {
                from: PeerId(1),
                to: PeerId(2),
                size: rng.below(512) as usize,
            })
            .collect();
        let mut net = fabric(NetConfig::default());
        send_all(&mut net, &script);
        let order: Vec<usize> = drain(&mut net, PeerId(2)).iter().map(index_of).collect();
        assert_eq!(order, (0..script.len()).collect::<Vec<_>>(), "seed {seed}");
    }
}

/// Transmission time scales with size and never overflows.
#[test]
fn tx_time_monotone_in_size() {
    let mut rng = SplitMix64(0x7C_5EED);
    for cfg in [NetConfig::default(), NetConfig::wan(), NetConfig::ideal()] {
        for _ in 0..CASES {
            let a = rng.below(1_000_000) as usize;
            let b = rng.below(1_000_000) as usize;
            let (small, large) = (a.min(b), a.max(b));
            assert!(
                cfg.tx_us(small) <= cfg.tx_us(large),
                "{cfg:?}: {small} vs {large}"
            );
        }
        assert!(cfg.tx_us(usize::MAX) >= cfg.tx_us(1_000_000));
    }
}

/// Under the ideal link each peer receives in exact send order and a
/// receive never moves the clock, even with sends and receives
/// interleaved after the clock was advanced.
#[test]
fn ideal_link_delivers_in_send_order_without_moving_the_clock() {
    for seed in 0..CASES {
        let mut rng = SplitMix64(seed);
        let script = sends(&mut rng);
        let mut net = fabric(NetConfig::ideal());
        net.advance_clock_to(rng.below(10_000));
        let start = net.now_us();
        let mut got: Vec<Vec<usize>> = vec![Vec::new(); PEERS as usize];
        for (i, s) in script.iter().enumerate() {
            send_one(&mut net, i, s);
            // Receive from a random peer now and then.
            if rng.below(3) == 0 {
                let p = PeerId(rng.below(u64::from(PEERS)) as u32);
                if let Some(m) = net.recv(p) {
                    assert_eq!(m.deliver_at, start, "seed {seed}");
                    got[p.0 as usize].push(index_of(&m));
                }
            }
            assert_eq!(net.now_us(), start, "seed {seed}: clock moved");
        }
        for p in 0..PEERS {
            got[p as usize].extend(drain(&mut net, PeerId(p)).iter().map(index_of));
            let expected: Vec<usize> = (0..script.len())
                .filter(|&i| script[i].to == PeerId(p))
                .collect();
            assert_eq!(got[p as usize], expected, "seed {seed}, peer {p}");
        }
        assert_eq!(net.now_us(), start, "seed {seed}: clock moved");
    }
}
