//! Shadowing fixture: `Engine::tick` calls `self.cache.flush()`, which is
//! `Cache::flush` in cache.rs, while this file defines a `flush` of its
//! own on an unrelated type.

mod cache;

pub use cache::Cache;

/// Hot-region owner: `tick` is the root named in womlint.toml.
pub struct Engine {
    cache: Cache,
}

impl Engine {
    /// Region root: its callee lives in the other file.
    pub fn tick(&mut self) -> usize {
        self.cache.flush()
    }
}

/// Same-file namesake of `Cache::flush`; it allocates nothing.
pub struct Log;

impl Log {
    /// Not the method `tick` calls.
    pub fn flush(&mut self) -> usize {
        0
    }
}
