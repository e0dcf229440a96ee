//! Write-once-memory (WOM) codes for phase-change memory.
//!
//! This crate implements the coding-theory substrate of *"Write-Once-
//! Memory-Code Phase Change Memory"* (Li & Mohanram, DATE 2014): WOM codes
//! in the sense of Rivest and Shamir, the *inverted* orientation that turns
//! PCM rewrites into fast RESET-only operations, row-level block codecs,
//! and the paper's analytic performance bounds.
//!
//! # Background
//!
//! A ⟨v⟩ᵗ/n WOM-code stores one of `v` values in `n` write-once bits
//! ("wits") and supports `t` successive writes without erasing. PCM's SET
//! operation (`0 → 1`) is 4–10× slower than RESET (`1 → 0`), so by
//! complementing a classic WOM code ([`Inverted`]) every in-budget rewrite
//! becomes RESET-only and therefore fast; only the write after the rewrite
//! limit (the *α-write*) pays SET latency.
//!
//! # Quick start
//!
//! ```
//! use wom_code::{BlockCodec, Inverted, Rs23Code, WomCode};
//!
//! # fn main() -> Result<(), wom_code::WomCodeError> {
//! // The paper's inverted <2^2>^2/3 code on a 64-byte cache line:
//! let codec = BlockCodec::new(Inverted::new(Rs23Code::new()), 64 * 8)?;
//! let mut cells = codec.erased_buffer();
//!
//! let write1 = codec.encode_row(0, &[0xAB; 64], &mut cells)?;
//! let write2 = codec.encode_row(1, &[0xCD; 64], &mut cells)?;
//! // Both writes used zero SET operations - they run at RESET speed.
//! assert_eq!(write1.sets + write2.sets, 0);
//! assert_eq!(codec.decode_row(&cells)?, vec![0xCD; 64]);
//! # Ok(())
//! # }
//! ```
//!
//! # Modules
//!
//! * [`code`] — the [`WomCode`] trait.
//! * [`rs23`] — the Rivest–Shamir ⟨2²⟩²/3 code (Table 1 of the paper).
//! * [`rs2`] — the generalized two-write family ⟨2ᵏ⟩²/(2ᵏ−1).
//! * [`flip`] — the classic t-write parity code ⟨2⟩ᵗ/t.
//! * [`inverted`] — the complementing adapter for PCM.
//! * [`tabular`] — validated table-driven codes for integrating other WOM
//!   codes from the literature.
//! * [`identity`] — the single-write baseline code (conventional PCM).
//! * [`block`] — row-level tiling of symbol codes: one table and one
//!   fused stream per row, with the per-symbol reference path as the
//!   fallback and the cold re-run of a rejected encode.
//! * [`lut`] — precompiled dense symbol tables and the fused row
//!   streams over them.
//! * [`simd`] — branch-free word primitives (symbol gather, transition
//!   counting, byte↔word shuffles) the streams are built on.
//! * [`analysis`] — the paper's §3.2 latency/speedup bounds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod block;
pub mod code;
pub mod error;
pub mod flip;
pub mod identity;
pub mod inverted;
pub mod lut;
pub mod rs2;
pub mod rs23;
pub mod sequencer;
pub mod simd;
pub mod tabular;
pub mod wit;

pub use block::{BlockCodec, RowScratch, WitBuffer};
pub use code::WomCode;
pub use error::WomCodeError;
pub use flip::FlipCode;
pub use identity::IdentityCode;
pub use inverted::Inverted;
pub use lut::SymbolLut;
pub use rs2::Rs2Code;
pub use rs23::Rs23Code;
pub use sequencer::{SequencedWrite, Sequencer};
pub use simd::Kernel;
pub use tabular::TabularWomCode;
pub use wit::{Orientation, Pattern, Transitions};
