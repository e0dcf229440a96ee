//! Golden-metrics regression test: one small (architecture × workload)
//! cell per architecture, checked bit-for-bit against captured results.
//!
//! The golden files under `tests/golden/` were captured from the
//! pre-policy-layer monolithic system; the policy/engine split
//! must reproduce them *exactly* — every latency sum, histogram bucket,
//! energy picojoule, and wear count. Any intentional behaviour change
//! must regenerate them (and say so in review):
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p wom-pcm --test golden_metrics
//! ```

use pcm_trace::synth::{Suite, WorkloadProfile};
use std::fmt::Write as _;
use std::path::PathBuf;
use wom_pcm::{Architecture, Session, SystemConfig};

/// Records per cell: enough to exercise rewrite-budget exhaustion,
/// refresh scheduling, and cache evictions in the tiny geometry.
const RECORDS: usize = 4_000;
const SEED: u64 = 2014;

/// A fixed workload whose footprint fits the tiny geometry, with enough
/// write recurrence to drive every architecture's machinery.
fn golden_profile() -> WorkloadProfile {
    WorkloadProfile {
        name: "golden".into(),
        suite: Suite::SpecCpu2006,
        read_fraction: 0.55,
        working_set_bytes: 32 * 1024,
        hot_fraction: 0.6,
        hot_set_fraction: 0.15,
        sequential_run: 0.3,
        row_rewrite_prob: 0.55,
        read_reuse_prob: 0.25,
        mean_gap_cycles: 40.0,
        burst_len: 4,
        reuse_window: 48,
        scatter_pages: false,
    }
}

fn render_metrics(arch: Architecture) -> String {
    let trace = golden_profile().generate(SEED, RECORDS);
    let mut session = Session::open(SystemConfig::tiny(arch)).expect("valid config");
    session.feed(&trace).expect("trace runs");
    let metrics = session.finish().expect("trace finishes");
    let mut out = String::new();
    writeln!(out, "architecture: {}", arch.label()).unwrap();
    writeln!(out, "records: {RECORDS}").unwrap();
    writeln!(out, "seed: {SEED}").unwrap();
    writeln!(out, "{metrics:#?}").unwrap();
    out
}

fn golden_path(arch: Architecture) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{}.txt", arch.slug()))
}

fn check(arch: Architecture) {
    let rendered = render_metrics(arch);
    let path = golden_path(arch);
    // GOLDEN_REGEN gates regeneration of the checked-in files; it never
    // affects a verifying run, so the env ban does not apply.
    #[allow(clippy::disallowed_methods)]
    let regen = std::env::var_os("GOLDEN_REGEN").is_some();
    if regen {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with GOLDEN_REGEN=1 to capture",
            path.display()
        )
    });
    if rendered != expected {
        // Print the first diverging line so the failure names the field.
        for (i, (got, want)) in rendered.lines().zip(expected.lines()).enumerate() {
            if got != want {
                panic!(
                    "golden metrics diverge for {} at line {}:\n  expected: {want}\n  actual:   {got}",
                    arch.label(),
                    i + 1
                );
            }
        }
        panic!(
            "golden metrics diverge for {} (line counts differ: {} vs {})",
            arch.label(),
            rendered.lines().count(),
            expected.lines().count()
        );
    }
}

/// Determinism audit: two runs from the same seed must agree on *every*
/// metric field — histogram buckets, f64 latency sums, wear cv — not
/// merely the headline counters. Hash-map iteration anywhere on a
/// metric-affecting path would break this (see the ordered-collection
/// comments in `EngineCore` and `WearTracker`).
#[test]
fn same_seed_runs_are_bit_identical() {
    for arch in Architecture::all_paper() {
        assert_eq!(
            render_metrics(arch),
            render_metrics(arch),
            "same-seed runs diverged for {}",
            arch.label()
        );
    }
}

#[test]
fn baseline_reproduces_golden_metrics() {
    check(Architecture::Baseline);
}

#[test]
fn wom_code_reproduces_golden_metrics() {
    check(Architecture::WomCode);
}

#[test]
fn wom_code_refresh_reproduces_golden_metrics() {
    check(Architecture::WomCodeRefresh);
}

#[test]
fn wcpcm_reproduces_golden_metrics() {
    check(Architecture::Wcpcm);
}
