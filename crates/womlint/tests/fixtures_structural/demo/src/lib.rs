//! Structural fixture: seeded violations for the interprocedural rule
//! families — hot-path closure, snapshot/merge field coverage, config
//! staleness — each on a line the integration tests pin exactly.

/// Local stand-in: codec discovery is by method name plus a signature
/// mention of this type, not by import path.
pub struct SnapWriter;

/// Local stand-in for the decode half.
pub struct SnapReader;

/// Hot-region owner: `tick` is the root named in womlint.toml.
pub struct Driver {
    /// Indirect callee the call graph cannot follow.
    pub cb: fn(u64) -> u64,
}

impl Driver {
    /// Region root: clean itself; reachable helpers are checked.
    pub fn tick(&mut self, x: u64) -> u64 {
        let a = helper_alloc(x);
        let b = helper_allowed(x);
        let c = (self.cb)(x);
        self.cold_report();
        a + b + c
    }

    /// Behind a [[hotpath.stop]]: its allocation must NOT be reported.
    fn cold_report(&self) {
        let _report = vec![0u64, 1, 2];
    }
}

/// Reachable from `tick`: the `collect` is a transitive violation.
fn helper_alloc(x: u64) -> u64 {
    let v: Vec<u64> = (0..x).collect();
    v.len() as u64
}

/// Reachable from `tick`: the allocation is justified inline.
fn helper_allowed(x: u64) -> u64 {
    // womlint::allow(hotpath/transitive, reason = "fixture: justified allocation")
    let v: Vec<u64> = Vec::new();
    v.len() as u64 + x
}

/// Snap codec: `kept` is written; `missing` is the seeded gap;
/// `derived` is exempted in womlint.toml; `noted` is exempted inline.
pub struct SnapState {
    kept: u64,
    missing: u64,
    derived: u64,
    // womlint::allow(snapshot/field-coverage, reason = "fixture: log-only field")
    noted: u64,
}

impl SnapState {
    /// Encode half only; the decode half is out of fixture scope.
    pub fn save_state(&self, w: &mut SnapWriter) {
        put_u64(w, self.kept);
    }
}

fn put_u64(_w: &mut SnapWriter, _v: u64) {}

/// Merge family: `count`/`sum` are merged; `max_seen` is the seeded
/// gap; `scratch` is exempted in womlint.toml.
pub struct Totals {
    count: u64,
    sum: u64,
    max_seen: u64,
    scratch: u64,
}

impl Totals {
    /// Shard-merge stand-in.
    pub fn merge(&mut self, other: &Totals) {
        self.count += other.count;
        self.sum += other.sum;
    }
}

// womlint::allow(hotpath/alloc, reason = "fixture: suppresses nothing")
pub fn inert() {}

/// Local stand-in for the codec trait: discovery covers trait impls
/// too, owned by the type after `for`.
pub trait Snap {
    /// Encode half.
    fn save_state(&self, w: &mut SnapWriter);
}

/// Trait-impl codec: `written` is saved; `forgotten` is the seeded gap.
pub struct TraitState {
    written: u64,
    forgotten: u64,
}

impl Snap for TraitState {
    fn save_state(&self, w: &mut SnapWriter) {
        put_u64(w, self.written);
    }
}

/// Second region root: hands `Widen::grow` to `map` by path and never
/// calls it by name, so only the path edge reaches its allocation.
pub fn drain(xs: &[u64]) -> u64 {
    xs.iter().copied().map(Widen::grow).sum()
}

/// Owner of the function `drain` passes by path.
pub struct Widen;

impl Widen {
    /// Reachable from `drain` by path: the `collect` is a transitive
    /// violation.
    fn grow(x: u64) -> u64 {
        let v: Vec<u64> = (0..x).collect();
        v.len() as u64
    }
}
