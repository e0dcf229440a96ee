//! Row-codec microbenchmarks: the table-stream fast path against
//! the per-symbol reference path, for encode and decode.
//!
//! Each case times a full write lifetime (re-erase + one encode per
//! generation) and a steady-state decode for one `(code, row size)`
//! geometry: `reference` is the per-symbol path, `fast` the kernel row
//! path. With `--json PATH` the results are also written as a
//! machine-readable file — `BENCH_codec.json` at the repo root is the
//! committed baseline; see EXPERIMENTS.md for how to regenerate it and
//! `scripts/bench_compare.sh` for diffing two baselines.

use std::fmt::Write as _;
use wom_code::{BlockCodec, FlipCode, Inverted, RowScratch, Rs23Code, Rs2Code, WomCode};
use wom_pcm_bench::timing;

/// One benchmarked geometry.
struct Case {
    name: &'static str,
    codec: BlockCodec<Box<dyn WomCode>>,
    row_bytes: usize,
}

/// Results for one case, in ns per row operation.
struct Outcome {
    name: &'static str,
    row_bytes: usize,
    writes: u32,
    encode_reference_ns: f64,
    encode_fast_ns: f64,
    decode_reference_ns: f64,
    decode_fast_ns: f64,
}

impl Outcome {
    fn encode_speedup(&self) -> f64 {
        self.encode_reference_ns / self.encode_fast_ns
    }

    fn decode_speedup(&self) -> f64 {
        self.decode_reference_ns / self.decode_fast_ns
    }
}

fn cases() -> Vec<Case> {
    let boxed = |code: Box<dyn WomCode>, bytes: usize| {
        BlockCodec::new(code, bytes * 8).expect("benchmark geometries tile")
    };
    vec![
        // The paper's codec on a 64-byte cache line: the DataCheck /
        // FunctionalMemory hot path.
        Case {
            name: "inverted_rs23_64B",
            codec: boxed(Box::new(Inverted::new(Rs23Code::new())), 64),
            row_bytes: 64,
        },
        // A full 4 KiB array row under the same code.
        Case {
            name: "inverted_rs23_4KiB",
            codec: boxed(Box::new(Inverted::new(Rs23Code::new())), 4096),
            row_bytes: 4096,
        },
        // Wider symbols (4 data bits in 15 wits).
        Case {
            name: "inverted_rs2_k4_64B",
            codec: boxed(Box::new(Inverted::new(Rs2Code::new(4).unwrap())), 64),
            row_bytes: 64,
        },
        // Many tiny symbols (1 data bit in 4 wits, 4 writes).
        Case {
            name: "inverted_flip_t4_64B",
            codec: boxed(Box::new(Inverted::new(FlipCode::new(4).unwrap())), 64),
            row_bytes: 64,
        },
    ]
}

/// Deterministic per-generation payloads (xorshift; no RNG dependency).
fn payloads(row_bytes: usize, writes: u32) -> Vec<Vec<u8>> {
    let mut state = 0x2014_0DA7u64;
    (0..writes)
        .map(|_| {
            (0..row_bytes)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state as u8
                })
                .collect()
        })
        .collect()
}

fn run_case(case: &Case) -> Outcome {
    if !case.codec.is_accelerated() {
        // A geometry past SymbolLut::MAX_TABLE_ENTRIES silently runs the
        // per-symbol reference path for *both* columns — flag it so the
        // numbers cannot quietly mix fast and slow paths.
        eprintln!(
            "debug: {}: codec is NOT accelerated (table too large); \
             'fast' timings below take the reference path",
            case.name
        );
    }
    let codec = &case.codec;
    let writes = codec.rewrite_limit();
    let data = payloads(case.row_bytes, writes);
    let erased = codec.erased_buffer();
    let mut cells = erased.clone();
    let mut scratch = RowScratch::new();

    let lifetime_ref = timing::bench(&format!("{}/encode/reference", case.name), || {
        cells.copy_from(&erased);
        let mut resets = 0u32;
        for (gen, d) in data.iter().enumerate() {
            let t = codec
                .encode_row_reference(gen as u32, d, &mut cells)
                .expect("in-budget encode");
            resets += t.resets;
        }
        resets
    });
    let lifetime_fast = timing::bench(&format!("{}/encode/fast", case.name), || {
        cells.copy_from(&erased);
        let mut resets = 0u32;
        for (gen, d) in data.iter().enumerate() {
            let t = codec
                .encode_row_into(gen as u32, d, &mut cells, &mut scratch)
                .expect("in-budget encode");
            resets += t.resets;
        }
        resets
    });

    // Decode the final generation's cells (already in `cells`).
    let mut out = vec![0u8; case.row_bytes];
    let decode_ref = timing::bench(&format!("{}/decode/reference", case.name), || {
        codec
            .decode_row_reference(&cells, &mut out)
            .expect("stored rows decode");
        out[0]
    });
    let decode_fast = timing::bench(&format!("{}/decode/fast", case.name), || {
        codec
            .decode_row_into(&cells, &mut out, &mut scratch)
            .expect("stored rows decode");
        out[0]
    });
    assert_eq!(
        out,
        *data.last().expect("at least one write"),
        "decode sanity"
    );

    Outcome {
        name: case.name,
        row_bytes: case.row_bytes,
        writes,
        encode_reference_ns: lifetime_ref / f64::from(writes),
        encode_fast_ns: lifetime_fast / f64::from(writes),
        decode_reference_ns: decode_ref,
        decode_fast_ns: decode_fast,
    }
}

fn to_json(outcomes: &[Outcome]) -> String {
    let mut body = String::new();
    for (i, o) in outcomes.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        write!(
            body,
            "\n  {{\"name\":\"{}\",\"row_bytes\":{},\"writes\":{},\
             \"encode_reference_ns\":{:.1},\"encode_fast_ns\":{:.1},\"encode_speedup\":{:.2},\
             \"decode_reference_ns\":{:.1},\"decode_fast_ns\":{:.1},\"decode_speedup\":{:.2}}}",
            o.name,
            o.row_bytes,
            o.writes,
            o.encode_reference_ns,
            o.encode_fast_ns,
            o.encode_speedup(),
            o.decode_reference_ns,
            o.decode_fast_ns,
            o.decode_speedup(),
        )
        .expect("writing to a String cannot fail");
    }
    format!("{{\"bench\":\"codec_hotpath\",\"unit\":\"ns_per_row_op\",\"cases\":[{body}\n]}}\n")
}

const USAGE: &str = "codec_hotpath [--json PATH]";

fn main() {
    let mut cli = wom_pcm_bench::cli::Parser::from_env(USAGE);
    let json_path = cli.value("--json");
    cli.finish();

    println!("row codec hot path: LUT fast path vs per-symbol reference\n");
    let outcomes: Vec<Outcome> = cases().iter().map(run_case).collect();

    println!();
    println!(
        "{:<24} {:>10} {:>12} {:>12} {:>9} {:>12} {:>12} {:>9}",
        "case", "row", "enc ref ns", "enc fast ns", "enc x", "dec ref ns", "dec fast ns", "dec x"
    );
    for o in &outcomes {
        println!(
            "{:<24} {:>8} B {:>12.1} {:>12.1} {:>8.2}x {:>12.1} {:>12.1} {:>8.2}x",
            o.name,
            o.row_bytes,
            o.encode_reference_ns,
            o.encode_fast_ns,
            o.encode_speedup(),
            o.decode_reference_ns,
            o.decode_fast_ns,
            o.decode_speedup(),
        );
    }

    if let Some(path) = json_path {
        std::fs::write(&path, to_json(&outcomes)).expect("writing the JSON report");
        println!("\nwrote {path}");
    }
}
