//! Clean structural fixture: complete field coverage, a justified
//! dynamic call, and a stop-bounded cold path — lints to zero. The
//! mutation tests delete single lines from this tree and assert the
//! exact diagnostic that appears.

/// Local stand-in for the snap encode half.
pub struct SnapWriter;

/// Local stand-in for the snap decode half.
pub struct SnapReader;

/// Hot-region owner: `tick` is the root named in womlint.toml.
pub struct Driver {
    /// Indirect callee: justified inline at the call site.
    pub cb: fn(u64) -> u64,
}

impl Driver {
    /// Region root.
    pub fn tick(&mut self, x: u64) -> u64 {
        let a = helper(x);
        // womlint::allow(hotpath/dynamic-call, reason = "fixture: every installed callee is allocation-free")
        let b = (self.cb)(x);
        self.cold_report();
        a + b
    }

    /// Behind a [[hotpath.stop]]: allocates, and may — the closure
    /// never enters it.
    fn cold_report(&self) {
        let _log = vec![0u64];
    }
}

/// Reachable from `tick`; allocation-free.
fn helper(x: u64) -> u64 {
    x.wrapping_mul(3)
}

/// Snap codec: every field is serialized or exempted.
pub struct SnapState {
    kept: u64,
    derived: u64,
}

impl SnapState {
    /// Encode half.
    pub fn save_state(&self, w: &mut SnapWriter) {
        put_u64(w, self.kept);
    }

    /// Decode half: `derived` is recomputed, which both covers it
    /// here and justifies the womlint.toml exemption for the encode.
    pub fn load_state(&mut self, r: &mut SnapReader) {
        self.kept = take_u64(r);
        self.derived = self.kept.wrapping_mul(2);
    }
}

fn put_u64(_w: &mut SnapWriter, _v: u64) {}

fn take_u64(_r: &mut SnapReader) -> u64 {
    0
}

/// Merge family: every field is merged or exempted.
pub struct Totals {
    count: u64,
    sum: u64,
    scratch: u64,
}

impl Totals {
    /// Shard-merge stand-in.
    pub fn merge(&mut self, other: &Totals) {
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// Local stand-in for the codec trait.
pub trait Snap {
    /// Encode half.
    fn save_state(&self, w: &mut SnapWriter);
}

/// Trait-impl codec: every field is serialized.
pub struct TraitState {
    written: u64,
    counted: u64,
}

impl Snap for TraitState {
    fn save_state(&self, w: &mut SnapWriter) {
        put_u64(w, self.written);
        put_u64(w, self.counted);
    }
}

/// Second region root: hands `Widen::grow` to `map` by path.
pub fn drain(xs: &[u64]) -> u64 {
    xs.iter().copied().map(Widen::grow).sum()
}

/// Owner of the function `drain` passes by path.
pub struct Widen;

impl Widen {
    /// Reachable from `drain` by path; allocation-free.
    fn grow(x: u64) -> u64 {
        x.wrapping_add(1)
    }
}
