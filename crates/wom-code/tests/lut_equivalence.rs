//! Exhaustive equivalence of the LUT fast path against the per-symbol
//! reference path.
//!
//! Two layers are pinned here:
//!
//! 1. **Symbol level** — for every tabulated code, [`SymbolLut`] must
//!    agree with [`WomCode::encode`]/[`WomCode::decode`] on *every*
//!    `(generation, current_pattern, data_value)` triple, including which
//!    triples error, and on the transition counts (patterns *and*
//!    transitions, not just round-trip values).
//! 2. **Row level** — the fused table stream behind
//!    [`BlockCodec::encode_row_into`] / [`BlockCodec::decode_row_into`]
//!    must be bit-identical to [`BlockCodec::encode_row_reference`] /
//!    [`BlockCodec::decode_row_reference`] across whole write lifetimes,
//!    including every rejected encode (same error, cells untouched),
//!    which the codec answers by re-running the reference path.
//!
//! The code matrix covers rs23, rs2 (k = 2..=4), flip (t = 1, 2, 4, 5,
//! 7), tabular, and identity (1, 2, 4 and 8 bits), each in both
//! orientations (plain and [`Inverted`]). Between them the rows run the
//! symbol-pair table (blocked and unblocked streams) and the
//! single-symbol table.

use pcm_rng::Rng;
use wom_code::{
    BlockCodec, FlipCode, IdentityCode, Inverted, Pattern, RowScratch, Rs23Code, Rs2Code,
    SymbolLut, TabularWomCode, WitBuffer, WomCode, WomCodeError,
};

/// Fills a [`WitBuffer`] with arbitrary (not necessarily codeword) bits.
fn random_cells(rng: &mut Rng, bits: usize) -> WitBuffer {
    let mut buf = WitBuffer::zeros(bits);
    let mut offset = 0;
    while offset < bits {
        let width = 32.min(bits - offset);
        buf.set_chunk(offset, width, rng.next_u64() & ((1u64 << width) - 1));
        offset += width;
    }
    buf
}

/// Every code variant under test, boxed for uniform handling. Each entry
/// is `(label, code, row_data_bits)` with a row size that tiles the
/// code's symbol width.
fn code_matrix() -> Vec<(String, Box<dyn WomCode>, usize)> {
    let mut out: Vec<(String, Box<dyn WomCode>, usize)> = Vec::new();
    let mut push = |label: &str, plain: Box<dyn WomCode>, inverted: Box<dyn WomCode>, bits| {
        out.push((label.to_string(), plain, bits));
        out.push((format!("inverted_{label}"), inverted, bits));
    };
    push(
        "rs23",
        Box::new(Rs23Code::new()),
        Box::new(Inverted::new(Rs23Code::new())),
        256,
    );
    for k in 2..=4u32 {
        push(
            &format!("rs2_k{k}"),
            Box::new(Rs2Code::new(k).unwrap()),
            Box::new(Inverted::new(Rs2Code::new(k).unwrap())),
            24 * k as usize, // multiple of 8 and of k for k in 2..=4
        );
    }
    for t in [1u32, 2, 4, 5, 7] {
        push(
            &format!("flip_t{t}"),
            Box::new(FlipCode::new(t).unwrap()),
            Box::new(Inverted::new(FlipCode::new(t).unwrap())),
            64,
        );
    }
    push(
        "tabular_rs23",
        Box::new(TabularWomCode::rivest_shamir_23()),
        Box::new(Inverted::new(TabularWomCode::rivest_shamir_23())),
        256,
    );
    for bits in [1u32, 2, 4, 8] {
        push(
            &format!("identity_{bits}"),
            Box::new(IdentityCode::new(bits).unwrap()),
            Box::new(Inverted::new(IdentityCode::new(bits).unwrap())),
            64,
        );
    }
    out
}

/// Symbol-level exhaustion: every `(gen, pattern, data)` triple agrees
/// between the LUT and the code — success set, resulting patterns,
/// transition counts, and decode of all `2^wits` patterns.
#[test]
fn symbol_lut_is_bit_identical_to_every_code() {
    for (label, code, _) in code_matrix() {
        let lut = SymbolLut::build(code.as_ref())
            .unwrap_or_else(|| panic!("{label}: matrix codes are all tabulable"));
        let wits = code.wits() as usize;
        let patterns = 1u64 << wits;
        let values = 1u64 << code.data_bits();
        for gen in 0..code.writes() {
            for bits in 0..patterns {
                let current = Pattern::from_bits(bits, wits);
                for data in 0..values {
                    match code.encode(gen, data, current) {
                        Ok(next) => {
                            let (lut_bits, lut_t) =
                                lut.encode(gen, bits, data).unwrap_or_else(|| {
                                    panic!("{label}: LUT missing g{gen} p{bits:b} d{data}")
                                });
                            assert_eq!(lut_bits, next.bits(), "{label}: pattern mismatch");
                            assert_eq!(
                                lut_t,
                                current.transitions_to(next).unwrap(),
                                "{label}: transition mismatch at g{gen} p{bits:b} d{data}"
                            );
                            assert_eq!(
                                lut.encode_bits(gen, bits, data),
                                Some(next.bits()),
                                "{label}: encode_bits disagrees with encode"
                            );
                        }
                        Err(_) => {
                            assert!(
                                lut.encode(gen, bits, data).is_none(),
                                "{label}: LUT accepts a triple the code rejects \
                                 (g{gen} p{bits:b} d{data})"
                            );
                        }
                    }
                }
                assert_eq!(
                    lut.decode(bits),
                    code.decode(current),
                    "{label}: decode mismatch at p{bits:b}"
                );
            }
        }
    }
}

/// Row-level equivalence over whole write lifetimes: the table stream
/// and the reference path, fed identical data streams, must produce
/// identical cells, identical transition totals, and identical decodes
/// at every generation.
#[test]
fn row_fast_path_matches_reference_across_generations() {
    let mut rng = Rng::seed_from_u64(0x10_7E57);
    for (label, code, row_bits) in code_matrix() {
        let codec = BlockCodec::new(code, row_bits).unwrap();
        assert!(codec.is_accelerated(), "{label}: matrix codes tabulate");
        let mut scratch = RowScratch::new();
        for _round in 0..8 {
            let mut lanes = codec.erased_buffer();
            let mut reference = codec.erased_buffer();
            for gen in 0..codec.rewrite_limit() {
                let data: Vec<u8> = (0..row_bits / 8).map(|_| rng.next_u64() as u8).collect();
                let t_lanes = codec.encode_row_into(gen, &data, &mut lanes, &mut scratch);
                let t_ref = codec.encode_row_reference(gen, &data, &mut reference);
                match (t_lanes, t_ref) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a, b, "{label}: lane transitions diverge at g{gen}");
                    }
                    (a, b) => panic!("{label}: result mismatch at g{gen}: {a:?}/{b:?}"),
                }
                assert_eq!(lanes, reference, "{label}: lane cells diverge at g{gen}");
                let mut decoded = vec![0u8; row_bits / 8];
                codec
                    .decode_row_into(&lanes, &mut decoded, &mut scratch)
                    .unwrap();
                assert_eq!(decoded, data, "{label}: lane decode wrong at g{gen}");
                decoded.fill(0);
                codec
                    .decode_row_reference(&reference, &mut decoded)
                    .unwrap();
                assert_eq!(decoded, data, "{label}: reference decode wrong at g{gen}");
            }
        }
    }
}

/// Decode is total: arbitrary cell states — including non-codeword
/// patterns no encode would ever produce — decode to the same bytes
/// through the table stream and the per-symbol reference.
#[test]
fn non_codeword_decode_is_kernel_identical() {
    let mut rng = Rng::seed_from_u64(0xBAD_C0DE);
    for (label, code, row_bits) in code_matrix() {
        let codec = BlockCodec::new(code, row_bits).unwrap();
        let mut scratch = RowScratch::new();
        for _ in 0..16 {
            let cells = random_cells(&mut rng, codec.encoded_bits());
            let mut reference = vec![0u8; row_bits / 8];
            codec.decode_row_reference(&cells, &mut reference).unwrap();
            let mut out = vec![0xFFu8; row_bits / 8];
            codec
                .decode_row_into(&cells, &mut out, &mut scratch)
                .unwrap();
            assert_eq!(out, reference, "{label}: non-codeword decode");
        }
    }
}

/// Exhaustion: one generation past the rewrite limit, both paths return
/// `GenerationExhausted` and leave the cells bit-for-bit untouched.
#[test]
fn row_fast_path_exhaustion_matches_reference() {
    let mut rng = Rng::seed_from_u64(0xDEAD_BEEF);
    for (label, code, row_bits) in code_matrix() {
        let codec = BlockCodec::new(code, row_bits).unwrap();
        let mut scratch = RowScratch::new();
        let mut cells = codec.erased_buffer();
        for gen in 0..codec.rewrite_limit() {
            let data: Vec<u8> = (0..row_bits / 8).map(|_| rng.next_u64() as u8).collect();
            codec
                .encode_row_into(gen, &data, &mut cells, &mut scratch)
                .unwrap();
        }
        let snapshot = cells.clone();
        let over = codec.rewrite_limit();
        let data = vec![0x5Au8; row_bits / 8];
        let fast_err = codec.encode_row_into(over, &data, &mut cells, &mut scratch);
        assert!(
            matches!(fast_err, Err(WomCodeError::GenerationExhausted { .. })),
            "{label}: fast path must exhaust, got {fast_err:?}"
        );
        assert_eq!(cells, snapshot, "{label}: failed fast encode touched cells");
        let mut ref_cells = snapshot.clone();
        let ref_err = codec.encode_row_reference(over, &data, &mut ref_cells);
        assert!(
            matches!(ref_err, Err(WomCodeError::GenerationExhausted { .. })),
            "{label}: reference path must exhaust"
        );
        assert_eq!(
            ref_cells, snapshot,
            "{label}: failed reference encode touched cells"
        );
    }
}

/// Arbitrary current cells, mostly not codewords, so the stream rejects
/// most encodes and the codec re-runs the reference path: at every
/// generation (and one past the limit) both entry points return the same
/// result and leave the same cells, for every code in the matrix.
#[test]
fn row_fast_path_matches_reference_from_arbitrary_cells() {
    let mut rng = Rng::seed_from_u64(0xC01D_CE11);
    for (label, code, row_bits) in code_matrix() {
        let codec = BlockCodec::new(code, row_bits).unwrap();
        let mut scratch = RowScratch::new();
        for gen in 0..=codec.rewrite_limit() {
            for _ in 0..16 {
                let mut fast = random_cells(&mut rng, codec.encoded_bits());
                let mut reference = fast.clone();
                let data: Vec<u8> = (0..row_bits / 8).map(|_| rng.next_u64() as u8).collect();
                let a = codec.encode_row_into(gen, &data, &mut fast, &mut scratch);
                let b = codec.encode_row_reference(gen, &data, &mut reference);
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "{label}: g{gen}");
                assert_eq!(fast, reference, "{label}: cells diverge at g{gen}");
            }
        }
    }
}

/// Illegal transitions (corrupted current state) surface the same error
/// through the fast path's cold fallback, with cells untouched.
#[test]
fn row_fast_path_reports_reference_errors_for_corrupt_state() {
    // From all-ones cells, a set-only rs23 first write of a value other
    // than the stored one is an illegal transition.
    let codec = BlockCodec::new(Rs23Code::new(), 64).unwrap();
    let mut cells = WitBuffer::ones(codec.encoded_bits());
    let snapshot = cells.clone();
    let mut scratch = RowScratch::new();
    let data = vec![0x55u8; 8];
    let fast = codec.encode_row_into(0, &data, &mut cells, &mut scratch);
    let mut ref_cells = snapshot.clone();
    let reference = codec.encode_row_reference(0, &data, &mut ref_cells);
    match (&fast, &reference) {
        (
            Err(WomCodeError::IllegalTransition { bit: a }),
            Err(WomCodeError::IllegalTransition { bit: b }),
        ) => assert_eq!(a, b, "both paths name the same offending bit"),
        other => panic!("expected matching IllegalTransition, got {other:?}"),
    }
    assert_eq!(cells, snapshot, "failed fast encode must not modify cells");
    assert_eq!(ref_cells, snapshot);
}

/// Length mismatches error identically through both entry points.
#[test]
fn row_fast_path_validates_sizes_like_reference() {
    let codec = BlockCodec::new(Inverted::new(Rs23Code::new()), 64).unwrap();
    let mut scratch = RowScratch::new();
    let mut cells = codec.erased_buffer();
    assert!(codec
        .encode_row_into(0, &[0u8; 7], &mut cells, &mut scratch)
        .is_err());
    assert!(codec
        .encode_row_into(0, &[0u8; 8], &mut WitBuffer::zeros(5), &mut scratch)
        .is_err());
    let mut out = [0u8; 7];
    assert!(codec
        .decode_row_into(&cells, &mut out, &mut scratch)
        .is_err());
    assert!(codec
        .decode_row_into(&WitBuffer::zeros(5), &mut [0u8; 8], &mut scratch)
        .is_err());
}

/// A single scratch serves codecs of different geometries back to back.
#[test]
fn scratch_is_reusable_across_codecs() {
    let mut scratch = RowScratch::new();
    let small = BlockCodec::new(Inverted::new(Rs23Code::new()), 64).unwrap();
    let large = BlockCodec::new(Inverted::new(Rs23Code::new()), 4096 * 8).unwrap();
    let mut cells_small = small.erased_buffer();
    let mut cells_large = large.erased_buffer();
    small
        .encode_row_into(0, &[0xAB; 8], &mut cells_small, &mut scratch)
        .unwrap();
    large
        .encode_row_into(0, &vec![0xCD; 4096], &mut cells_large, &mut scratch)
        .unwrap();
    small
        .encode_row_into(1, &[0x12; 8], &mut cells_small, &mut scratch)
        .unwrap();
    assert_eq!(small.decode_row(&cells_small).unwrap(), vec![0x12; 8]);
    assert_eq!(large.decode_row(&cells_large).unwrap(), vec![0xCD; 4096]);
}
