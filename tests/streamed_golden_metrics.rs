//! Golden equivalence for the streaming pipeline: an endurance-style
//! run fed from a streamed binary trace file must produce *byte-
//! identical* metrics to the same run fed the materialized record
//! vector — the acceptance bar that lets multi-billion-record streamed
//! runs stand in for the eager paths everywhere.

use womcode_pcm::arch::{Architecture, SystemBuilder};
use womcode_pcm::trace::binary::write_binary;
use womcode_pcm::trace::stream::TraceSpec;
use womcode_pcm::trace::synth::{benchmarks, datacenter};
use womcode_pcm::trace::TraceRecord;

/// The endurance experiment's configuration set, scaled to test size.
fn endurance_configs() -> Vec<(&'static str, womcode_pcm::arch::SystemConfig)> {
    let mut cfgs = Vec::new();
    for arch in Architecture::all_paper() {
        cfgs.push((
            arch.label(),
            SystemBuilder::new(arch).rows_per_bank(4096).into_config(),
        ));
    }
    cfgs.push((
        "refresh+start-gap",
        SystemBuilder::new(Architecture::WomCodeRefresh)
            .rows_per_bank(4096)
            .wear_leveling(64)
            .into_config(),
    ));
    cfgs
}

fn metrics_digest(cfg: &womcode_pcm::arch::SystemConfig, spec: &TraceSpec) -> String {
    let mut source = spec.open().expect("test specs open");
    let mut session = womcode_pcm::arch::Session::open(cfg.clone()).expect("configs validate");
    session.feed_source(&mut source).expect("test traces run");
    let metrics = session.finish().expect("test traces finish");
    format!("{metrics:#?}")
}

fn golden_roundtrip(records: Vec<TraceRecord>, tag: &str) {
    // Write the trace to a real v2 container file, as a capture would be.
    let dir = std::env::temp_dir().join(format!("golden-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("trace.womtrc");
    let mut bytes = Vec::new();
    write_binary(&mut bytes, records.iter().copied()).expect("vec write");
    std::fs::write(&path, &bytes).expect("temp trace file");

    let materialized = TraceSpec::from(records);
    let streamed = TraceSpec::BinaryFile(path);
    for (label, cfg) in endurance_configs() {
        assert_eq!(
            metrics_digest(&cfg, &materialized),
            metrics_digest(&cfg, &streamed),
            "{tag}/{label}: streamed file diverged from materialized vec"
        );
    }
    std::fs::remove_dir_all(&dir).expect("temp cleanup");
}

#[test]
fn endurance_metrics_identical_from_vec_and_streamed_file() {
    let records = benchmarks::by_name("464.h264ref")
        .expect("paper workload")
        .generate(2014, 6_000);
    golden_roundtrip(records, "h264ref");
}

#[test]
fn datacenter_metrics_identical_from_vec_and_streamed_file() {
    let profile = datacenter::by_name("wal_writer").expect("bundled profile");
    let records: Vec<TraceRecord> = profile
        .generator(7)
        .expect("bundled profiles validate")
        .take(6_000)
        .collect();
    golden_roundtrip(records, "wal");
}
