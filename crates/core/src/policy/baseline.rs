//! The conventional-PCM baseline: no WOM coding, no refresh, no cache.
//!
//! Every write is a full (SET-bearing) PCM write; reads go straight to
//! main memory. The baseline keeps no architecture state at all — the
//! engine's shared machinery (coalescing, wear leveling, and the event
//! folds) is everything it uses.

use super::{ReadAction, WriteAction};
use crate::engine::EngineCore;
use crate::error::WomPcmError;
use pcm_sim::ServiceClass;

pub(super) fn on_read(core: &mut EngineCore, addr: u64) -> Result<ReadAction, WomPcmError> {
    let physical = core.remap_main(addr)?;
    Ok(ReadAction::Main {
        addr: physical,
        companion: None,
    })
}

pub(super) fn on_write(core: &mut EngineCore, addr: u64) -> Result<WriteAction, WomPcmError> {
    let addr = core.remap_main(addr)?;
    let row_id = core
        .decoder()
        .decode(addr)
        .flat_row(&core.config().mem.geometry);
    if core.try_coalesce(row_id) {
        return Ok(WriteAction::Coalesced);
    }
    Ok(WriteAction::Main {
        addr,
        class: ServiceClass::Write,
        row_key: row_id,
        companion: None,
    })
}
