//! The cross-file callee of `Engine::tick`.

/// A cache whose flush allocates.
pub struct Cache {
    rows: usize,
}

impl Cache {
    /// Reached from `tick`: the `vec!` is the seeded violation.
    pub fn flush(&mut self) -> usize {
        let victims = vec![0u8; self.rows];
        victims.len()
    }
}
