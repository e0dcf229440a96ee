//! The shared argument parser for the experiment binaries.
//!
//! Every binary in this crate (and `womsim`) speaks the same flag
//! dialect through [`Parser`]: `--threads N`, `--json [PATH]`,
//! `--observe PATH`, `--epoch-cycles N`, plus per-binary flags and
//! positionals. Malformed or unknown arguments all exit with status 2
//! and a one-line `error:` + `usage:` message, so the sixteen binaries
//! no longer hand-roll three different parsing styles.
//!
//! The protocol: construct with the binary's usage line, pull flags and
//! valued options first, then positionals in order, then call
//! [`Parser::finish`] (or let the last [`Parser::positional`] consume
//! the tail) so leftovers are rejected rather than ignored.

use pcm_sim::Cycle;
use std::fmt::Display;
use std::str::FromStr;

/// Default epoch width for `--observe` when `--epoch-cycles` is absent:
/// wide enough to smooth scheduler jitter, narrow enough that a
/// 120k-record figure cell still spans hundreds of epochs.
pub const DEFAULT_EPOCH_CYCLES: Cycle = 50_000;

/// A validated `--observe PATH [--epoch-cycles N]` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObserveSpec {
    /// Output path for the epoch JSON-Lines.
    pub path: String,
    /// Epoch width in cycles ([`DEFAULT_EPOCH_CYCLES`] unless given).
    pub epoch_cycles: Cycle,
}

/// A validated `--resume PATH [--snapshot-every N]` request: restore
/// from `path` when the file exists, and (with a cadence) rewrite it
/// every `every` records (see [`crate::run`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotSpec {
    /// Snapshot cadence in trace records; `None` = restore only.
    pub every: Option<u64>,
    /// The snapshot file (both the restore source and the write target).
    pub path: String,
}

impl SnapshotSpec {
    /// Derives a per-case snapshot path for multi-case binaries by
    /// inserting `label` before the file extension (`s.womsnap` +
    /// `qsort` → `s.qsort.womsnap`; no extension appends `.qsort`). An
    /// empty label returns the spec unchanged.
    #[must_use]
    pub fn for_case(&self, label: &str) -> Self {
        if label.is_empty() {
            return self.clone();
        }
        // Split only the file name, so dots in directories are left alone.
        let (dir, name) = match self.path.rsplit_once('/') {
            Some((dir, name)) => (Some(dir), name),
            None => (None, self.path.as_str()),
        };
        let name = match name.rsplit_once('.') {
            Some((stem, ext)) if !stem.is_empty() => format!("{stem}.{label}.{ext}"),
            _ => format!("{name}.{label}"),
        };
        let path = match dir {
            Some(dir) => format!("{dir}/{name}"),
            None => name,
        };
        Self {
            every: self.every,
            path,
        }
    }

    /// Derives shard `index`'s snapshot path ([`Self::for_case`] with a
    /// `shardN` label), so a sharded resumable run keeps one container
    /// per shard.
    #[must_use]
    pub fn for_shard(&self, index: u32) -> Self {
        self.for_case(&format!("shard{index}"))
    }
}

/// Destructive flag/positional extractor over a binary's arguments.
#[derive(Debug)]
pub struct Parser {
    usage: &'static str,
    args: Vec<String>,
}

impl Parser {
    /// Captures the process arguments (program name dropped).
    #[must_use]
    pub fn from_env(usage: &'static str) -> Self {
        Self {
            usage,
            args: std::env::args().skip(1).collect(),
        }
    }

    /// A parser over explicit arguments, for tests.
    #[must_use]
    pub fn from_args(usage: &'static str, args: &[&str]) -> Self {
        Self {
            usage,
            args: args.iter().map(|a| (*a).to_string()).collect(),
        }
    }

    /// Uniform exit-2 error path: `error:` line plus the usage line.
    /// Under `cfg(test)` it panics instead, so the rejection paths are
    /// testable in-process.
    fn fail(&self, msg: &str) -> ! {
        #[cfg(test)]
        {
            panic!("error: {msg} (usage: {})", self.usage);
        }
        #[cfg(not(test))]
        {
            eprintln!("error: {msg}");
            eprintln!("usage: {}", self.usage);
            std::process::exit(2)
        }
    }

    /// Consumes every occurrence of a boolean flag; true if any was seen.
    pub fn flag(&mut self, name: &str) -> bool {
        let before = self.args.len();
        self.args.retain(|a| a != name);
        self.args.len() != before
    }

    /// Consumes one `name VALUE` pair. Repeating a single-value flag
    /// exits 2 — silently taking either occurrence hides a typo'd run
    /// (use [`values`](Self::values) for flags that legitimately repeat).
    pub fn value(&mut self, name: &str) -> Option<String> {
        let pos = self.args.iter().position(|a| a == name)?;
        if pos + 1 >= self.args.len() {
            self.fail(&format!("{name} requires a value"));
        }
        let v = self.args.remove(pos + 1);
        self.args.remove(pos);
        if self.args.iter().any(|a| a == name) {
            self.fail(&format!("duplicate {name}: pass it at most once"));
        }
        Some(v)
    }

    /// Consumes every `name VALUE` pair, keeping all values in order.
    pub fn values(&mut self, name: &str) -> Vec<String> {
        let mut out = Vec::new();
        while let Some(pos) = self.args.iter().position(|a| a == name) {
            if pos + 1 >= self.args.len() {
                self.fail(&format!("{name} requires a value"));
            }
            let v = self.args.remove(pos + 1);
            self.args.remove(pos);
            out.push(v);
        }
        out
    }

    /// [`value`](Self::value), parsed; exits 2 on a malformed value.
    pub fn parsed<T: FromStr>(&mut self, name: &str) -> Option<T>
    where
        T::Err: Display,
    {
        let raw = self.value(name)?;
        match raw.parse::<T>() {
            Ok(v) => Some(v),
            Err(e) => self.fail(&format!("invalid {name} value '{raw}': {e}")),
        }
    }

    /// Consumes `--threads N`, defaulting to available parallelism.
    pub fn threads(&mut self) -> usize {
        match self.parsed::<usize>("--threads") {
            Some(0) => self.fail("--threads wants a positive integer"),
            Some(n) => n,
            None => crate::parallel::default_threads(),
        }
    }

    /// Consumes `--shards N`, defaulting to 1 (unsharded); zero exits 2.
    pub fn shards(&mut self) -> u32 {
        match self.parsed::<u32>("--shards") {
            Some(0) => self.fail("--shards wants a positive integer"),
            Some(n) => n,
            None => 1,
        }
    }

    /// Consumes `--resume PATH` and `--snapshot-every N`.
    /// `--snapshot-every` without `--resume` (or a zero cadence) exits 2
    /// — the resume path names the snapshot file, so a cadence without it
    /// has nowhere to write.
    pub fn snapshot(&mut self) -> Option<SnapshotSpec> {
        let every = self.parsed::<u64>("--snapshot-every");
        let path = self.value("--resume");
        match (path, every) {
            (Some(_), Some(0)) => self.fail("--snapshot-every wants a positive integer"),
            (Some(path), every) => Some(SnapshotSpec { every, path }),
            (None, Some(_)) => self.fail("--snapshot-every requires --resume"),
            (None, None) => None,
        }
    }

    /// Consumes `--observe PATH` and `--epoch-cycles N`. `--epoch-cycles`
    /// without `--observe` (or a zero width) exits 2.
    pub fn observe(&mut self) -> Option<ObserveSpec> {
        let epoch_cycles = self.parsed::<Cycle>("--epoch-cycles");
        let path = self.value("--observe");
        match (path, epoch_cycles) {
            (Some(_), Some(0)) => self.fail("--epoch-cycles wants a positive integer"),
            (Some(path), cycles) => Some(ObserveSpec {
                path,
                epoch_cycles: cycles.unwrap_or(DEFAULT_EPOCH_CYCLES),
            }),
            (None, Some(_)) => self.fail("--epoch-cycles requires --observe"),
            (None, None) => None,
        }
    }

    /// Takes the next raw positional argument, if any. A leftover
    /// `--flag` in that position exits 2 as unknown.
    pub fn next_arg(&mut self) -> Option<String> {
        self.reject_leading_flag();
        if self.args.is_empty() {
            return None;
        }
        Some(self.args.remove(0))
    }

    /// Takes and parses the next positional argument, defaulting when
    /// the arguments are exhausted; exits 2 on a malformed value.
    pub fn positional<T: FromStr>(&mut self, name: &str, default: T) -> T
    where
        T::Err: Display,
    {
        let Some(raw) = self.next_arg() else {
            return default;
        };
        match raw.parse::<T>() {
            Ok(v) => v,
            Err(e) => self.fail(&format!("invalid {name} '{raw}': {e}")),
        }
    }

    /// Ends parsing: anything left over — unknown flag or stray
    /// positional — exits 2.
    pub fn finish(mut self) {
        self.reject_leading_flag();
        if let Some(extra) = self.args.first() {
            self.fail(&format!("unexpected argument '{extra}'"));
        }
    }

    fn reject_leading_flag(&mut self) {
        let unknown = match self.args.first() {
            Some(a) if a.starts_with("--") => a.clone(),
            _ => return,
        };
        self.fail(&format!("unknown flag '{unknown}'"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_and_values_are_extracted_in_any_order() {
        let mut p = Parser::from_args("t", &["10", "--json", "--threads", "3", "20"]);
        assert_eq!(p.threads(), 3);
        assert!(p.flag("--json"));
        assert!(!p.flag("--json"), "flag was consumed");
        assert_eq!(p.positional::<usize>("records", 1), 10);
        assert_eq!(p.positional::<u64>("seed", 7), 20);
        assert_eq!(p.positional::<u64>("extra", 7), 7, "default on exhaustion");
        p.finish();
    }

    #[test]
    fn values_collects_every_occurrence_in_order() {
        let mut p = Parser::from_args("t", &["--workload", "a", "7", "--workload", "b"]);
        assert_eq!(p.values("--workload"), vec!["a".to_string(), "b".into()]);
        assert!(p.values("--workload").is_empty(), "values were consumed");
        assert_eq!(p.positional::<u64>("records", 0), 7);
        p.finish();
    }

    #[test]
    #[should_panic(expected = "duplicate --threads")]
    fn repeated_single_value_flags_are_rejected() {
        let mut p = Parser::from_args("t", &["--threads", "2", "--threads", "5"]);
        p.threads();
    }

    #[test]
    #[should_panic(expected = "--threads requires a value")]
    fn trailing_value_flag_without_value_is_rejected() {
        let mut p = Parser::from_args("t", &["--threads"]);
        p.threads();
    }

    #[test]
    fn observe_defaults_the_epoch_width() {
        let mut p = Parser::from_args("t", &["--observe", "out.jsonl"]);
        assert_eq!(
            p.observe(),
            Some(ObserveSpec {
                path: "out.jsonl".into(),
                epoch_cycles: DEFAULT_EPOCH_CYCLES,
            })
        );
        let mut p = Parser::from_args("t", &["--observe", "o.jsonl", "--epoch-cycles", "1000"]);
        assert_eq!(p.observe().map(|o| o.epoch_cycles), Some(1000));
        let mut p = Parser::from_args("t", &[]);
        assert_eq!(p.observe(), None);
    }

    #[test]
    fn shards_defaults_to_one() {
        let mut p = Parser::from_args("t", &[]);
        assert_eq!(p.shards(), 1);
        let mut p = Parser::from_args("t", &["--shards", "8"]);
        assert_eq!(p.shards(), 8);
        p.finish();
    }

    #[test]
    fn snapshot_pairs_resume_with_optional_cadence() {
        let mut p = Parser::from_args("t", &["--resume", "s.womsnap"]);
        assert_eq!(
            p.snapshot(),
            Some(SnapshotSpec {
                every: None,
                path: "s.womsnap".into(),
            })
        );
        let mut p = Parser::from_args("t", &["--resume", "s.womsnap", "--snapshot-every", "500"]);
        assert_eq!(p.snapshot().and_then(|s| s.every), Some(500));
        let mut p = Parser::from_args("t", &[]);
        assert_eq!(p.snapshot(), None);
    }

    #[test]
    fn snapshot_paths_derive_per_case_and_per_shard() {
        let spec = SnapshotSpec {
            every: Some(100),
            path: "out/run.womsnap".into(),
        };
        assert_eq!(spec.for_case("qsort").path, "out/run.qsort.womsnap");
        assert_eq!(spec.for_case("").path, "out/run.womsnap");
        assert_eq!(spec.for_shard(3).path, "out/run.shard3.womsnap");
        let bare = SnapshotSpec {
            every: None,
            path: "snap".into(),
        };
        assert_eq!(bare.for_case("a").path, "snap.a");
    }

    #[test]
    fn next_arg_pops_in_order() {
        let mut p = Parser::from_args("t", &["run", "wcpcm"]);
        assert_eq!(p.next_arg().as_deref(), Some("run"));
        assert_eq!(p.next_arg().as_deref(), Some("wcpcm"));
        assert_eq!(p.next_arg(), None);
    }
}
