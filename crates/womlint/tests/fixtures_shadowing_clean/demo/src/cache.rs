//! The cross-file callee of `Engine::tick`.

/// A cache whose flush allocates.
pub struct Cache {
    rows: usize,
}

impl Cache {
    /// Reached from `tick`: the allocation is justified inline.
    pub fn flush(&mut self) -> usize {
        // womlint::allow(hotpath/transitive, reason = "fixture: justified allocation")
        let victims = vec![0u8; self.rows];
        victims.len()
    }
}
