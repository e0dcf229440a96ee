//! Intra-run rank sharding: partition one simulation's rank space into
//! independent slices that run in parallel and merge bit-identically.
//!
//! A PCM channel's ranks share only the controller-side queues and the
//! transaction-id counter — the arrays, WOM budget tables, refresh
//! tables, wear counters, and functional state are all per-rank (or
//! per-bank). Slicing the rank space therefore partitions *all*
//! architectural state: a [`ShardPlan`] carves the configured geometry
//! into `shards` contiguous rank ranges, each simulated by its own
//! [`Session`](crate::session::Session) over a sub-geometry with
//! `ranks / shards` ranks, and a [`ShardSource`] filters the shared trace
//! down to each slice's records (re-encoded into the sub-geometry's
//! address space).
//!
//! The determinism contract is: running the *same N-shard decomposition*
//! on one thread or on N threads produces `{:#?}`-byte-identical merged
//! [`RunMetrics`](crate::RunMetrics) — each shard is a self-contained
//! deterministic simulation, and the merge
//! ([`RunMetrics::merge`](crate::RunMetrics::merge)) is a sum of
//! order-independent aggregates reduced in fixed shard order. A sharded
//! run is a *different model* than the unsharded run of the full
//! geometry (shards do not contend on shared queues, and per-rank
//! refresh staggering is computed from the sub-geometry), so sharding is
//! a throughput tool for endurance sweeps, not a drop-in replacement for
//! single-run latency studies; see `DESIGN.md` §12.

use crate::config::SystemConfig;
use crate::error::WomPcmError;
use pcm_sim::{AddressDecoder, DecodedAddr};
use pcm_trace::record::TraceRecord;
use pcm_trace::stream::{TraceSource, TraceStreamError};

/// A partition of a configuration's rank space into equal contiguous
/// slices.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    full: SystemConfig,
    shards: u32,
    ranks_per_shard: u32,
}

impl ShardPlan {
    /// Plans `shards` equal rank slices of `config`.
    ///
    /// # Errors
    ///
    /// Returns [`WomPcmError::InvalidConfig`] when `shards` is zero or
    /// does not evenly divide the configured rank count (equal slices are
    /// what make the merged wear and latency aggregates comparable across
    /// shard counts).
    pub fn new(config: &SystemConfig, shards: u32) -> Result<Self, WomPcmError> {
        config.validate()?;
        let ranks = config.mem.geometry.ranks;
        if shards == 0 {
            return Err(WomPcmError::InvalidConfig(
                "shard count must be at least 1".into(),
            ));
        }
        if !ranks.is_multiple_of(shards) {
            return Err(WomPcmError::InvalidConfig(format!(
                "shard count {shards} must evenly divide the {ranks} configured ranks"
            )));
        }
        Ok(Self {
            full: config.clone(),
            shards,
            ranks_per_shard: ranks / shards,
        })
    }

    /// Number of slices in the plan.
    #[must_use]
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Ranks owned by each slice.
    #[must_use]
    pub fn ranks_per_shard(&self) -> u32 {
        self.ranks_per_shard
    }

    /// The full (unsharded) configuration the plan was built from.
    #[must_use]
    pub fn full_config(&self) -> &SystemConfig {
        &self.full
    }

    /// First rank owned by slice `index`.
    ///
    /// # Errors
    ///
    /// Returns [`WomPcmError::InvalidConfig`] when `index` is out of
    /// range.
    pub fn base_rank(&self, index: u32) -> Result<u32, WomPcmError> {
        if index >= self.shards {
            return Err(WomPcmError::InvalidConfig(format!(
                "shard index {index} out of range for {} shards",
                self.shards
            )));
        }
        Ok(index * self.ranks_per_shard)
    }

    /// The sub-configuration slice `index` runs under: identical to the
    /// full configuration except that the geometry spans only the slice's
    /// ranks.
    ///
    /// # Errors
    ///
    /// Returns [`WomPcmError::InvalidConfig`] when `index` is out of
    /// range.
    pub fn shard_config(&self, index: u32) -> Result<SystemConfig, WomPcmError> {
        self.base_rank(index)?;
        let mut config = self.full.clone();
        config.mem.geometry.ranks = self.ranks_per_shard;
        Ok(config)
    }
}

/// Filters a trace source down to one shard's rank range, re-encoding
/// each surviving record into the shard's sub-geometry address space.
///
/// Every record is decoded with the *full* geometry's decoder (including
/// its capacity wrap, so out-of-range capture addresses land on the same
/// rank they would in an unsharded run), kept when its rank falls in the
/// shard's range, and re-encoded with the shard decoder at
/// `rank - base_rank`. Record order and cycles are preserved, so each
/// shard sees a valid (non-decreasing) sub-trace of the original stream.
#[derive(Debug)]
pub struct ShardSource<S> {
    inner: S,
    full: AddressDecoder,
    shard: AddressDecoder,
    base_rank: u32,
    span: u32,
    buf: Vec<TraceRecord>,
}

impl<S: TraceSource> ShardSource<S> {
    /// Wraps `inner` as slice `index` of `plan`.
    ///
    /// # Errors
    ///
    /// Returns [`WomPcmError::InvalidConfig`] when `index` is out of
    /// range (the geometries themselves were validated by the plan).
    pub fn new(inner: S, plan: &ShardPlan, index: u32) -> Result<Self, WomPcmError> {
        let base_rank = plan.base_rank(index)?;
        let full_mem = &plan.full_config().mem;
        let shard_mem = plan.shard_config(index)?.mem;
        Ok(Self {
            inner,
            full: AddressDecoder::new(full_mem.geometry, full_mem.mapping)?,
            shard: AddressDecoder::new(shard_mem.geometry, shard_mem.mapping)?,
            base_rank,
            span: plan.ranks_per_shard(),
            buf: Vec::new(),
        })
    }

    /// The wrapped source.
    #[must_use]
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: TraceSource> TraceSource for ShardSource<S> {
    fn next_chunk(&mut self) -> Result<Option<&[TraceRecord]>, TraceStreamError> {
        // A chunk of the inner stream may contain no records for this
        // shard; keep pulling until some survive the filter (chunks are
        // contractually non-empty) or the inner stream ends.
        loop {
            self.buf.clear();
            let Some(chunk) = self.inner.next_chunk()? else {
                return Ok(None);
            };
            for record in chunk {
                let d = self.full.decode(record.addr);
                if d.rank < self.base_rank || d.rank >= self.base_rank + self.span {
                    continue;
                }
                let local = DecodedAddr {
                    rank: d.rank - self.base_rank,
                    ..d
                };
                // Every field is within the sub-geometry by construction;
                // an encode failure means the two decoders disagree.
                let addr = self.shard.encode(local).map_err(|e| {
                    // womlint::allow(hotpath/alloc, reason = "cold error path: an encode failure is a decoder bug, never reached per record")
                    TraceStreamError::Profile(format!("shard re-encode failed: {e}"))
                })?;
                self.buf
                    .push(TraceRecord::new(record.cycle, addr, record.op));
            }
            if !self.buf.is_empty() {
                return Ok(Some(&self.buf));
            }
        }
    }

    fn reset(&mut self) -> Result<(), TraceStreamError> {
        self.inner.reset()
    }

    fn len_hint(&self) -> Option<u64> {
        // Only an upper bound is known without scanning; the trait wants
        // the exact count, so report nothing.
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;
    use pcm_trace::stream::SliceSource;
    use pcm_trace::synth::benchmarks;
    use pcm_trace::TraceOp;

    fn tiny_plan(shards: u32) -> ShardPlan {
        ShardPlan::new(&SystemConfig::tiny(Architecture::WomCode), shards).unwrap()
    }

    #[test]
    fn plan_validates_divisibility() {
        // tiny geometry has 2 ranks.
        assert!(ShardPlan::new(&SystemConfig::tiny(Architecture::WomCode), 0).is_err());
        assert!(ShardPlan::new(&SystemConfig::tiny(Architecture::WomCode), 3).is_err());
        let plan = tiny_plan(2);
        assert_eq!(plan.shards(), 2);
        assert_eq!(plan.ranks_per_shard(), 1);
        assert_eq!(plan.base_rank(0).unwrap(), 0);
        assert_eq!(plan.base_rank(1).unwrap(), 1);
        assert!(plan.base_rank(2).is_err());
        assert_eq!(plan.shard_config(1).unwrap().mem.geometry.ranks, 1);
        assert!(plan.shard_config(2).is_err());
    }

    #[test]
    fn shards_partition_every_record_exactly_once() {
        let plan = tiny_plan(2);
        let records = benchmarks::by_name("qsort").unwrap().generate(7, 4_000);
        let full = AddressDecoder::new(
            plan.full_config().mem.geometry,
            plan.full_config().mem.mapping,
        )
        .unwrap();
        let mut seen = 0u64;
        for index in 0..plan.shards() {
            let inner = SliceSource::with_chunk_records(&records, 64);
            let mut source = ShardSource::new(inner, &plan, index).unwrap();
            let shard_cfg = plan.shard_config(index).unwrap();
            let shard_dec =
                AddressDecoder::new(shard_cfg.mem.geometry, shard_cfg.mem.mapping).unwrap();
            let base = plan.base_rank(index).unwrap();
            let mut last_cycle = 0;
            while let Some(chunk) = source.next_chunk().unwrap() {
                assert!(!chunk.is_empty());
                for r in chunk {
                    let d = shard_dec.decode(r.addr);
                    assert!(d.rank < plan.ranks_per_shard());
                    assert!(r.cycle >= last_cycle, "order preserved");
                    last_cycle = r.cycle;
                    seen += 1;
                    let _ = base;
                }
            }
        }
        assert_eq!(seen, records.len() as u64, "no record lost or duplicated");
        // Cross-check the rank partition against the full decoder.
        let in_shard0 = records
            .iter()
            .filter(|r| full.decode(r.addr).rank == 0)
            .count();
        let inner = SliceSource::new(&records);
        let mut s0 = ShardSource::new(inner, &plan, 0).unwrap();
        let mut got = 0;
        while let Some(chunk) = s0.next_chunk().unwrap() {
            got += chunk.len();
        }
        assert_eq!(got, in_shard0);
    }

    #[test]
    fn shard_local_decode_matches_full_decode() {
        let plan = tiny_plan(2);
        let records = benchmarks::by_name("mad").unwrap().generate(3, 2_000);
        let full = AddressDecoder::new(
            plan.full_config().mem.geometry,
            plan.full_config().mem.mapping,
        )
        .unwrap();
        let shard_cfg = plan.shard_config(1).unwrap();
        let shard_dec = AddressDecoder::new(shard_cfg.mem.geometry, shard_cfg.mem.mapping).unwrap();
        let expected: Vec<_> = records
            .iter()
            .filter(|r| full.decode(r.addr).rank == 1)
            .map(|r| {
                let d = full.decode(r.addr);
                (r.cycle, d.bank, d.row, d.column, r.op)
            })
            .collect();
        let inner = SliceSource::new(&records);
        let mut source = ShardSource::new(inner, &plan, 1).unwrap();
        let mut got = Vec::new();
        while let Some(chunk) = source.next_chunk().unwrap() {
            for r in chunk {
                let d = shard_dec.decode(r.addr);
                assert_eq!(d.rank, 0, "shard-local rank");
                got.push((r.cycle, d.bank, d.row, d.column, r.op));
            }
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn reset_replays_the_identical_sub_stream() {
        let plan = tiny_plan(2);
        let records = benchmarks::by_name("qsort").unwrap().generate(5, 1_000);
        let inner = SliceSource::new(&records);
        let mut source = ShardSource::new(inner, &plan, 0).unwrap();
        let drain = |s: &mut ShardSource<SliceSource<'_>>| {
            let mut out = Vec::new();
            while let Some(chunk) = s.next_chunk().unwrap() {
                out.extend_from_slice(chunk);
            }
            out
        };
        let first = drain(&mut source);
        source.reset().unwrap();
        assert_eq!(drain(&mut source), first);
        assert!(source.len_hint().is_none());
        let _ = (TraceOp::Read, source.into_inner());
    }
}
