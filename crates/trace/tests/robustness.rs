//! Robustness: the trace parsers must never panic, whatever bytes they
//! are fed, and must reject garbage with useful errors.
//!
//! Randomized but fully deterministic: each test drives a fixed number of
//! seeded cases through the parser, so failures reproduce exactly.

use pcm_rng::Rng;
use pcm_trace::format::{parse_line, TraceReader};
use pcm_trace::stream::{BinaryStreamSource, TraceSource};
use std::io::Cursor;

const CASES: u64 = 512;

/// Random byte vector of length `0..max_len`, occasionally biased toward
/// ASCII so the parser also sees near-valid inputs, not only binary junk.
fn fuzz_bytes(rng: &mut Rng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range_usize(0, max_len);
    let ascii_only = rng.gen_bool(0.5);
    (0..len)
        .map(|_| {
            if ascii_only {
                // Digits, separators, letters: the alphabet of real lines.
                const POOL: &[u8] = b" \t0123456789abcdefxRW#,.-+";
                POOL[rng.gen_range_usize(0, POOL.len())]
            } else {
                rng.next_u64() as u8
            }
        })
        .collect()
}

/// Arbitrary text lines never panic the line parser.
#[test]
fn parse_line_never_panics() {
    let mut rng = Rng::seed_from_u64(0xED0C);
    for _ in 0..CASES {
        let bytes = fuzz_bytes(&mut rng, 200);
        let line = String::from_utf8_lossy(&bytes).replace(['\n', '\r'], " ");
        let _ = parse_line(&line);
    }
}

/// Arbitrary byte streams never panic the text reader.
#[test]
fn text_reader_never_panics() {
    let mut rng = Rng::seed_from_u64(0x7EA7);
    for _ in 0..CASES {
        let bytes = fuzz_bytes(&mut rng, 512);
        for result in TraceReader::new(bytes.as_slice()) {
            let _ = result;
        }
    }
}

/// Arbitrary byte streams never panic the binary reader: each fails to
/// open, fails mid-stream, or streams to its end.
#[test]
fn binary_reader_never_panics() {
    let mut rng = Rng::seed_from_u64(0xB10B);
    for _ in 0..CASES {
        let bytes = fuzz_bytes(&mut rng, 512);
        if let Ok(mut source) = BinaryStreamSource::new(Cursor::new(&bytes[..])) {
            while let Ok(Some(_)) = source.next_chunk() {}
        }
    }
}

/// Every record the text parser accepts round-trips exactly.
#[test]
fn accepted_lines_round_trip() {
    use pcm_trace::{TraceOp, TraceRecord};
    let mut rng = Rng::seed_from_u64(0x2097);
    for _ in 0..CASES {
        let cycle = rng.next_u64();
        let addr = rng.next_u64();
        let op = if rng.gen_bool(0.5) {
            TraceOp::Read
        } else {
            TraceOp::Write
        };
        let r = TraceRecord::new(cycle, addr, op);
        let parsed = parse_line(&r.to_string()).unwrap().unwrap();
        assert_eq!(parsed, r);
    }
}
