//! Pins the controller's observable behaviour under saturation.
//!
//! A seeded mix of reads, writes and rank-refresh batches is driven
//! through both configuration presets under every scheduler policy, with
//! write pausing on and off. Three FNV-1a digests per case summarize
//! everything a caller can observe: the completion stream in order, the
//! `{:#?}` rendering of `stats()` at fixed checkpoints, and the
//! `save_state` bytes at the same checkpoints (the `WOMSNAP` v2 layout;
//! the others date from before the issue scan was reworked), so any
//! change to scheduling order, event timing or snapshot contents fails.
//!
//! On a mismatch the test prints the full table of actual digests.

use pcm_rng::Rng;
use pcm_sim::{
    DecodedAddr, MemConfig, MemOp, MemorySystem, SchedulerPolicy, ServiceClass, SimError,
    SnapWriter,
};

const STEPS: usize = 4000;
const CHECKPOINT_EVERY: usize = 500;

/// `(preset, policy, write_pausing) -> (completions, stats, snapshots)`.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, bool, [u64; 3])] = &[
    ("tiny", "FrFcfs", true, [0xe5e8ed616dca03aa, 0xcfd3f36469b80732, 0xd8eee0bb63ee4d8e]),
    ("tiny", "FrFcfs", false, [0x73eac0f0118cbfa2, 0x7eff1e238db1442d, 0xd473976c85207b9b]),
    ("tiny", "StrictFcfs", true, [0x54d26a3f70d589d2, 0x90c6b376090fd012, 0x83232be5ff7df01d]),
    ("tiny", "StrictFcfs", false, [0x88e14a098629f8f1, 0x5386d13a40c832bf, 0xd3058376120d0db6]),
    ("tiny", "ReadAlwaysFirst", true, [0x6bf097fc14ee8ed4, 0xcd9ea61eb0c68910, 0x5831710575998300]),
    ("tiny", "ReadAlwaysFirst", false, [0xa262e54a448f7ddd, 0x4624eeaa382dfaf0, 0x34c5dadf4682640c]),
    ("paper", "FrFcfs", true, [0x8918797d7ecd1814, 0x3f9c20a2202e1f84, 0x7f785eed6545ba6a]),
    ("paper", "FrFcfs", false, [0x58e9b21c39076ba4, 0x293ce91ffce98126, 0x301a700f01aaad66]),
    ("paper", "StrictFcfs", true, [0x74165e489b361dc7, 0xd382f4e6c7517bd2, 0xb341708da799e74b]),
    ("paper", "StrictFcfs", false, [0x7247d026b2b398ad, 0x9737de58622d6d85, 0xfe97ce0d1fd36612]),
    ("paper", "ReadAlwaysFirst", true, [0xd6fe21c13634b606, 0xbc857954db0e69f6, 0x4780e7ca71828034]),
    ("paper", "ReadAlwaysFirst", false, [0xd0d27c57378c0583, 0x638bde6e093e0937, 0x9bf437e6cb262d29]),
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn presets() -> [(&'static str, MemConfig); 2] {
    [
        ("tiny", MemConfig::tiny()),
        ("paper", MemConfig::paper_baseline()),
    ]
}

const POLICIES: [SchedulerPolicy; 3] = [
    SchedulerPolicy::FrFcfs,
    SchedulerPolicy::StrictFcfs,
    SchedulerPolicy::ReadAlwaysFirst,
];

/// Runs one case and returns its three digests.
fn run_case(config: MemConfig, seed: u64) -> [u64; 3] {
    let g = config.geometry;
    let mut mem = MemorySystem::new(config).unwrap();
    let mut rng = Rng::seed_from_u64(seed);
    let (mut done, mut stats, mut snaps) = (Fnv::new(), Fnv::new(), Fnv::new());
    // Demand traffic concentrates on two ranks and a few rows per bank,
    // so even the paper preset's queues fill, and bank conflicts,
    // open-row hits and refresh preemptions all occur.
    let (ranks, rows) = (g.ranks.min(2), g.rows_per_bank.min(8));
    for step in 1..=STEPS {
        // Mostly back-to-back arrivals keep the queues full; an
        // occasional long gap lets them drain and the write-drain
        // hysteresis switch back.
        let gap = if rng.gen_bool(0.003) {
            rng.gen_range_u64(500, 3000)
        } else {
            rng.gen_range_u64(0, 6)
        };
        let now = mem.now() + gap;
        for c in mem.advance_to(now).unwrap() {
            done.bytes(format!("{c:?}").as_bytes());
        }
        if rng.gen_bool(0.04) {
            let rank = rng.gen_range_u32(0, ranks);
            let mut batch = Vec::new();
            for bank in 0..g.banks_per_rank {
                if rng.gen_bool(0.6) {
                    batch.push((bank, rng.gen_range_u32(0, g.rows_per_bank)));
                }
            }
            if !batch.is_empty() {
                mem.enqueue_rank_refresh(rank, &batch).unwrap();
            }
        } else {
            let addr = mem
                .decoder()
                .encode(DecodedAddr {
                    rank: rng.gen_range_u32(0, ranks),
                    bank: rng.gen_range_u32(0, g.banks_per_rank),
                    row: rng.gen_range_u32(0, rows),
                    column: rng.gen_range_u32(0, 4),
                })
                .unwrap();
            let (op, class) = match rng.gen_range_u32(0, 4) {
                0 | 1 => (MemOp::Read, ServiceClass::Read),
                2 => (MemOp::Write, ServiceClass::Write),
                _ => (MemOp::Write, ServiceClass::ResetOnlyWrite),
            };
            match mem.enqueue(op, addr, class) {
                Ok(id) => done.bytes(&id.to_le_bytes()),
                Err(SimError::QueueFull { .. }) => done.bytes(b"full"),
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        if step % CHECKPOINT_EVERY == 0 {
            stats.bytes(format!("{:#?}", mem.stats()).as_bytes());
            let mut w = SnapWriter::new();
            mem.save_state(&mut w);
            snaps.bytes(&w.into_bytes());
        }
    }
    for c in mem.drain() {
        done.bytes(format!("{c:?}").as_bytes());
    }
    stats.bytes(format!("{:#?}", mem.stats()).as_bytes());
    let mut w = SnapWriter::new();
    mem.save_state(&mut w);
    snaps.bytes(&w.into_bytes());
    [done.0, stats.0, snaps.0]
}

#[test]
fn saturated_controller_matches_golden_digests() {
    let mut actual = Vec::new();
    for (preset, base) in presets() {
        for (p, policy) in POLICIES.into_iter().enumerate() {
            for pausing in [true, false] {
                let mut config = base.clone();
                config.scheduler = policy;
                config.write_pausing = pausing;
                let seed = 0x5C4E_D000 + 8 * p as u64 + u64::from(pausing);
                actual.push((
                    preset,
                    format!("{policy:?}"),
                    pausing,
                    run_case(config, seed),
                ));
            }
        }
    }
    let table: String = actual
        .iter()
        .map(|(preset, policy, pausing, [a, b, c])| {
            format!(
                "    (\"{preset}\", \"{policy}\", {pausing}, [{a:#018x}, {b:#018x}, {c:#018x}]),\n"
            )
        })
        .collect();
    let expected: Vec<_> = GOLDEN
        .iter()
        .map(|&(preset, policy, pausing, digests)| (preset, policy.to_string(), pausing, digests))
        .collect();
    assert!(
        actual == expected,
        "controller behaviour changed; actual digests:\n{table}"
    );
}
