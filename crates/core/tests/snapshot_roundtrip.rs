//! Checkpoint/resume correctness: interrupting a run with a `WOMSNAP`
//! checkpoint and resuming in a fresh session must be invisible — the
//! resumed run's metrics and epoch series are `{:#?}`-byte-identical to
//! the uninterrupted run, for every architecture.
//!
//! Also pins the container format with one golden `.womsnap` fixture per
//! architecture (checkpoints of a deterministic run must be byte-identical
//! across builds), plus one per refresh architecture under the functional
//! data checker, whose checkpoint carries the cells every §3.2 refresh
//! rewrote, and one for the verified baseline, which pins its write and
//! read checks. It also checks that damaged containers fail with typed
//! errors, mirroring the `WOMTRC` truncation semantics. Regenerate the
//! fixtures after an intentional format or model change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p wom-pcm --test snapshot_roundtrip
//! ```

use pcm_trace::synth::{Suite, WorkloadProfile};
use pcm_trace::TraceRecord;
use std::path::PathBuf;
use wom_pcm::snapshot::{self, SnapshotError};
use wom_pcm::{Architecture, Organization, Session, SystemBuilder, SystemConfig, WomPcmError};

const RECORDS: usize = 6_000;
const SEED: u64 = 2014;
/// Checkpoint point: mid-run, with transactions in flight on every
/// architecture.
const SPLIT: usize = 2_700;

/// A fixed workload whose footprint fits the tiny geometry, with enough
/// write recurrence to drive every architecture's machinery (same shape
/// as the golden-metrics workload).
fn workload() -> WorkloadProfile {
    WorkloadProfile {
        name: "snapshot".into(),
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

fn config(arch: Architecture) -> SystemConfig {
    // Epoch observation on, so the checkpoint also carries (and the test
    // also compares) the mid-run time series.
    SystemBuilder::tiny(arch).epoch_cycles(10_000).into_config()
}

/// WOM-code on hidden pages with charged page-table traffic and
/// Start-Gap leveling: the one configuration whose checkpoint carries a
/// `HiddenPageTable` and the Start-Gap remappers.
fn hidden_leveled() -> SystemConfig {
    SystemBuilder::tiny(Architecture::WomCode)
        .organization(Organization::HiddenPage)
        .charge_hidden_page_traffic(true)
        .wear_leveling(64)
        .epoch_cycles(10_000)
        .into_config()
}

fn trace() -> Vec<TraceRecord> {
    workload().generate(SEED, RECORDS)
}

/// Runs `cfg` over `records` uninterrupted; returns the `{:#?}` of the
/// final metrics and of the epoch series.
fn run_straight(cfg: &SystemConfig, records: &[TraceRecord]) -> (String, String) {
    let mut session = Session::open(cfg.clone()).expect("valid config");
    session.feed(records).expect("runs");
    let metrics = session.finish().expect("finishes");
    let epochs = session.into_epochs().expect("epochs enabled");
    (format!("{metrics:#?}"), format!("{epochs:#?}"))
}

/// Feeds `records[..split]` through a fresh session and checkpoints it.
fn checkpoint_at(cfg: &SystemConfig, records: &[TraceRecord], split: usize) -> Vec<u8> {
    let mut session = Session::open(cfg.clone()).expect("valid config");
    session.feed(&records[..split]).expect("feeds");
    session.checkpoint().expect("checkpoints")
}

/// Runs `cfg` over `records`, checkpointing at `split` and resuming in a
/// fresh session; returns the same renderings plus the container bytes.
fn run_interrupted(
    cfg: &SystemConfig,
    records: &[TraceRecord],
    split: usize,
) -> (String, String, Vec<u8>) {
    let container = checkpoint_at(cfg, records, split);
    let mut resumed = Session::resume(cfg.clone(), &container).expect("restores");
    let consumed = resumed.records_fed();
    assert_eq!(consumed, split as u64, "records_consumed round-trips");
    resumed.feed(&records[consumed as usize..]).expect("feeds");
    let metrics = resumed.finish().expect("finishes");
    let epochs = resumed.into_epochs().expect("epochs enabled");
    (format!("{metrics:#?}"), format!("{epochs:#?}"), container)
}

#[test]
fn resume_is_bit_identical_for_all_architectures() {
    let records = trace();
    for arch in Architecture::all_paper() {
        let cfg = config(arch);
        let (straight_metrics, straight_epochs) = run_straight(&cfg, &records);
        let (resumed_metrics, resumed_epochs, _) = run_interrupted(&cfg, &records, SPLIT);
        assert_eq!(
            resumed_metrics, straight_metrics,
            "{arch:?}: resumed metrics diverge from the uninterrupted run"
        );
        assert_eq!(
            resumed_epochs, straight_epochs,
            "{arch:?}: resumed epoch series diverges"
        );
    }
}

#[test]
fn resume_preserves_wear_leveling_and_data_verification() {
    let records = trace();
    // Start-Gap remappers ride the checkpoint...
    let leveled = SystemBuilder::tiny(Architecture::WomCode)
        .wear_leveling(64)
        .into_config();
    // ...and so do the functional checker's cells and references.
    let verified = SystemBuilder::tiny(Architecture::WomCodeRefresh)
        .verify_data(true)
        .into_config();
    for cfg in [leveled, verified, hidden_leveled()] {
        let mut session = Session::open(cfg.clone()).expect("valid config");
        session.feed(&records).expect("runs");
        let straight = format!("{:#?}", session.finish().expect("finishes"));
        let container = checkpoint_at(&cfg, &records, SPLIT);
        let mut resumed = Session::resume(cfg.clone(), &container).expect("restores");
        resumed.feed(&records[SPLIT..]).expect("feeds");
        let metrics = format!("{:#?}", resumed.finish().expect("finishes"));
        assert_eq!(metrics, straight, "{:?} diverged", cfg.wear_leveling());
    }
}

#[test]
fn snapshot_twice_is_byte_identical() {
    let records = trace();
    let cfg = config(Architecture::Wcpcm);
    assert_eq!(
        checkpoint_at(&cfg, &records, SPLIT),
        checkpoint_at(&cfg, &records, SPLIT),
        "checkpoint bytes are deterministic"
    );
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.womsnap"))
}

/// Every golden checkpoint as `(fixture name, config, split)`: each
/// architecture at [`SPLIT`], plus the baseline and the two refresh
/// architectures with the data checker on, whose checkpoints hold the
/// functional cells and references its write, read and (for the refresh
/// architectures) refresh checks left. The `-inflight` pair checkpoints while refresh rows
/// are issued but not settled (3 main rows, one of them preempted; 1
/// cache row), so they pin refresh rows in flight in the banks and the
/// pending heap, which restore checks against each other, and a
/// preempted row's stale pending entry. At [`SPLIT`] none is in flight.
/// `wom-code-hidden-leveled` pins the hidden-page table and Start-Gap
/// bytes.
fn golden_inputs() -> Vec<(String, SystemConfig, usize)> {
    let mut inputs: Vec<(String, SystemConfig, usize)> = Architecture::all_paper()
        .into_iter()
        .map(|arch| (arch.slug().to_string(), config(arch), SPLIT))
        .collect();
    for arch in [
        Architecture::Baseline,
        Architecture::WomCodeRefresh,
        Architecture::Wcpcm,
    ] {
        let cfg = SystemBuilder::tiny(arch).verify_data(true).into_config();
        inputs.push((format!("{}-verified", arch.slug()), cfg, SPLIT));
    }
    for (arch, split) in [
        (Architecture::WomCodeRefresh, 2_100),
        (Architecture::Wcpcm, 2_290),
    ] {
        inputs.push((format!("{}-inflight", arch.slug()), config(arch), split));
    }
    inputs.push(("wom-code-hidden-leveled".into(), hidden_leveled(), SPLIT));
    inputs
}

#[test]
fn golden_womsnap_fixtures_stay_stable() {
    let records = trace();
    for (name, cfg, split) in golden_inputs() {
        let container = checkpoint_at(&cfg, &records, split);
        let path = fixture_path(&name);
        // GOLDEN_REGEN gates regeneration of the checked-in files; it
        // never affects a verifying run, so the env ban does not apply.
        #[allow(clippy::disallowed_methods)]
        let regen = std::env::var_os("GOLDEN_REGEN").is_some();
        if regen {
            std::fs::write(&path, &container).expect("fixture written");
            continue;
        }
        let golden = std::fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden fixture {} ({e}); regenerate with \
                 GOLDEN_REGEN=1 cargo test -p wom-pcm --test snapshot_roundtrip",
                path.display()
            )
        });
        assert_eq!(
            container,
            golden,
            "{name}: checkpoint bytes drifted from {}; if the change is \
             intentional, regenerate with GOLDEN_REGEN=1",
            path.display()
        );
        // The committed container must still decode, save back to the
        // same bytes, and resume.
        let mut resumed = Session::resume(cfg.clone(), &golden).expect("golden restores");
        assert_eq!(
            resumed.checkpoint().expect("checkpoints"),
            golden,
            "{name}: restoring and saving the fixture changed its bytes"
        );
        if cfg.verify_data() && cfg.arch().uses_refresh() {
            // A verified fixture pins the refresh rewrite only if refreshes
            // ran before the checkpoint.
            assert!(
                resumed.metrics().refreshes_completed > 0,
                "{name}: no refresh completed before the checkpoint"
            );
        }
        if name.ends_with("-hidden-leveled") {
            let m = resumed.metrics();
            assert!(
                m.hidden_page_accesses > 0 && m.leveling_copies > 0,
                "{name}: no hidden-page access or leveling copy before the checkpoint"
            );
        }
        if name.ends_with("-inflight") {
            let t = resumed.epochs().expect("epochs enabled").totals();
            assert!(
                t.refresh_rows_planned > t.refreshes_completed + t.refreshes_preempted,
                "{name}: no refresh in flight at the checkpoint"
            );
        }
        let consumed = resumed.records_fed();
        resumed.feed(&records[consumed as usize..]).expect("feeds");
        resumed.finish().expect("finishes");
    }
}

/// Resumes every golden payload cut short and with single bytes
/// flipped, each re-wrapped in a container with the golden header so the
/// CRC passes and the payload decoders run: every cut must fail, and
/// every failure must be a typed snapshot error, never a panic.
#[test]
fn damaged_payloads_fail_with_typed_errors() {
    /// Cuts and flip positions per fixture, spread evenly over it.
    const SAMPLES: usize = 48;
    for (name, cfg, _) in golden_inputs() {
        let golden = std::fs::read(fixture_path(&name)).expect("golden fixture");
        let env = snapshot::decode_container(&golden).expect("golden decodes");
        let resumes = |payload: &[u8], what: String| {
            let (arch, fingerprint, records) = (env.arch, env.fingerprint, env.records_consumed);
            let container =
                snapshot::encode_container(arch, fingerprint, records, |w| w.put_bytes(payload));
            match std::panic::catch_unwind(|| Session::resume(cfg.clone(), &container)) {
                Ok(Ok(_)) => true,
                Ok(Err(WomPcmError::Snapshot(_))) => false,
                Ok(Err(other)) => panic!("{name}, {what}: untyped error {other:?}"),
                Err(_) => panic!("{name}, {what}: the payload decoder panicked"),
            }
        };
        let stride = env.payload.len().div_ceil(SAMPLES);
        for cut in (0..env.payload.len()).step_by(stride) {
            let what = format!("a {cut}-byte prefix");
            assert!(
                !resumes(&env.payload[..cut], what),
                "{name}: a {cut}-byte prefix resumed"
            );
        }
        let mut flipped = env.payload.to_vec();
        for at in (stride / 2..flipped.len()).step_by(stride) {
            for mask in [0x01, 0x80, 0xFF] {
                flipped[at] ^= mask;
                resumes(&flipped, format!("byte {at} flipped by {mask:#04x}"));
                flipped[at] ^= mask;
            }
        }
    }
}

#[test]
fn version_1_2_and_3_containers_are_unsupported() {
    let cfg = config(Architecture::Baseline);
    let mut container = checkpoint_at(&cfg, &trace(), SPLIT);
    assert_eq!(container[7], 0x04, "the format version byte");
    for old in [1, 2, 3] {
        container[7] = old;
        assert!(matches!(
            Session::resume(cfg.clone(), &container),
            Err(WomPcmError::Snapshot(SnapshotError::UnsupportedVersion(v))) if v == old
        ));
    }
}

/// A CRC-valid checkpoint of a fresh `cfg` session with its controller
/// clock moved to `clock`. Nothing is in flight in a fresh session, so
/// the controller accepts any clock.
fn fresh_checkpoint_at_clock(cfg: &SystemConfig, clock: u64) -> Vec<u8> {
    let fresh = Session::open(cfg.clone()).expect("valid config");
    let container = fresh.checkpoint().expect("checkpoints");
    let env = snapshot::decode_container(&container).expect("decodes");
    // The payload starts with the epoch poll cursor, then the controller
    // clock.
    let mut payload = env.payload.to_vec();
    assert_eq!(payload[8..16], 0u64.to_le_bytes());
    payload[8..16].copy_from_slice(&clock.to_le_bytes());
    snapshot::encode_container(env.arch, env.fingerprint, 0, |w| w.put_bytes(&payload))
}

/// A CRC-valid checkpoint whose controller clock is moved 2^50 cycles
/// ahead: the epoch series cannot reach that cycle, so the next feed
/// fails typed instead of sizing the series to the gap and aborting the
/// process.
#[test]
fn a_far_future_restored_clock_fails_typed() {
    let cfg = config(Architecture::Baseline);
    let moved = fresh_checkpoint_at_clock(&cfg, 1 << 50);
    let mut resumed = Session::resume(cfg, &moved).expect("restores");
    assert_eq!(resumed.now(), 1 << 50);
    let err = resumed
        .feed(&trace()[..1])
        .expect_err("the series cannot reach the restored clock");
    assert!(matches!(err, WomPcmError::InvalidConfig(_)), "{err:?}");
}

/// Restore derives the next refresh tick from the clock, so a clock with
/// no tick after it within a `u64` is corrupt.
#[test]
fn a_restored_clock_past_the_last_refresh_tick_is_corrupt() {
    for arch in [Architecture::WomCodeRefresh, Architecture::Wcpcm] {
        let cfg = config(arch);
        let moved = fresh_checkpoint_at_clock(&cfg, u64::MAX);
        assert!(
            matches!(
                Session::resume(cfg, &moved),
                Err(WomPcmError::Snapshot(SnapshotError::Corrupt(_)))
            ),
            "{arch:?}"
        );
    }
}

#[test]
fn damaged_containers_fail_with_typed_errors() {
    let records = trace();
    let cfg = config(Architecture::WomCodeRefresh);
    let (_, _, container) = run_interrupted(&cfg, &records, SPLIT);

    // Foreign bytes.
    assert!(matches!(
        snapshot::decode_container(b"WOMTRC\x00\x02not a snapshot"),
        Err(SnapshotError::BadMagic)
    ));

    // Truncation anywhere fails with a typed error before any state is
    // touched (mirrors `BinaryTraceError::Truncated`).
    for cut in [5, 20, 40, container.len() / 2, container.len() - 1] {
        match Session::resume(cfg.clone(), &container[..cut]) {
            Err(WomPcmError::Snapshot(
                SnapshotError::Truncated { .. } | SnapshotError::BadMagic,
            )) => {}
            Err(other) => panic!("cut at {cut}: expected typed truncation, got {other:?}"),
            Ok(_) => panic!("cut at {cut}: truncated container restored"),
        }
    }

    // A flipped payload bit fails the CRC.
    let mut corrupt = container.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x10;
    assert!(matches!(
        Session::resume(cfg.clone(), &corrupt),
        Err(WomPcmError::Snapshot(SnapshotError::BadChecksum))
    ));

    // Restoring under a different configuration is rejected up front.
    let other_cfg = SystemBuilder::tiny(Architecture::WomCodeRefresh)
        .epoch_cycles(10_000)
        .rewrite_limit(cfg.rewrite_limit() + 1)
        .into_config();
    assert!(matches!(
        Session::resume(other_cfg, &container),
        Err(WomPcmError::Snapshot(SnapshotError::ConfigMismatch { .. }))
    ));
    // ...including the same parameters under a different architecture.
    assert!(matches!(
        Session::resume(config(Architecture::WomCode), &container),
        Err(WomPcmError::Snapshot(SnapshotError::ConfigMismatch { .. }))
    ));
}
