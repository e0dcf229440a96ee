//! Ablation studies over the design choices called out in `DESIGN.md` §14:
//!
//! * `rth`      — PCM-refresh threshold r_th sweep (0–100%).
//! * `rat`      — row-address-table depth sweep (the paper fixes 5).
//! * `pausing`  — write pausing on/off during PCM-refresh.
//! * `budget`   — row- vs column-granular WOM budget tracking.
//! * `sched`    — controller scheduling policy (FR-FCFS / strict FCFS /
//!   read-always-first).
//! * `period`   — PCM-refresh period sweep (paper fixes 4000 ns).
//! * `cold`     — cold-cell assumption (erased / steady-state / dirty).
//! * `org`      — wide-column vs hidden-page capacity accounting.
//!
//! Usage: `ablations [study] [records] [seed] [--threads N]`;
//! with no study, runs all. Each study's cells run in parallel.

use pcm_sim::MemoryGeometry;
use pcm_trace::stream::TraceSpec;
use pcm_trace::synth::benchmarks;
use wom_pcm::{
    Architecture, BudgetGranularity, ColdPolicy, HiddenPageTable, RunMetrics, SystemBuilder,
    SystemConfig, WideColumn,
};
use wom_pcm_bench::{cli, run, Job, RunOptions};

const DEFAULT_RECORDS: usize = 30_000;
const WORKLOAD: &str = "FFT.mi";

/// Runs one study's config variants as a parallel batch, in input order.
fn run_all(cfgs: Vec<SystemConfig>, records: usize, seed: u64, threads: usize) -> Vec<RunMetrics> {
    let profile = benchmarks::by_name(WORKLOAD).expect("bundled workload");
    let spec = TraceSpec::synth(profile, seed, records as u64);
    let jobs: Vec<_> = cfgs
        .into_iter()
        .map(|config| Job {
            config,
            trace: spec.clone(),
            label: String::new(),
        })
        .collect();
    let opts = RunOptions {
        threads,
        ..RunOptions::default()
    };
    let runs = run(&jobs, &opts).expect("ablation cells run");
    runs.into_iter().map(|(m, _)| m).collect()
}

fn base(arch: Architecture) -> SystemBuilder {
    // Bound lazily-allocated simulator state for ablation-scale runs.
    SystemBuilder::new(arch).rows_per_bank(4096)
}

fn ablate_rth(records: usize, seed: u64, threads: usize) {
    println!("\n== refresh threshold r_th (WOM-code PCM + refresh, {WORKLOAD}) ==");
    println!(
        "{:>8}{:>16}{:>13}{:>12}{:>12}",
        "r_th %", "mean write ns", "fast writes", "refreshes", "preempted"
    );
    const PCTS: [u8; 5] = [0, 25, 50, 75, 100];
    let cfgs = PCTS
        .iter()
        .map(|&pct| {
            base(Architecture::WomCodeRefresh)
                .refresh_threshold_pct(pct)
                .into_config()
        })
        .collect();
    for (pct, m) in PCTS.iter().zip(run_all(cfgs, records, seed, threads)) {
        println!(
            "{:>8}{:>16.1}{:>12.1}%{:>12}{:>12}",
            pct,
            m.mean_write_ns(),
            m.fast_write_fraction() * 100.0,
            m.refreshes_completed,
            m.refreshes_preempted
        );
    }
}

fn ablate_rat(records: usize, seed: u64, threads: usize) {
    println!("\n== row-address-table depth (paper fixes 5) ==");
    println!(
        "{:>8}{:>16}{:>13}{:>12}",
        "depth", "mean write ns", "fast writes", "refreshes"
    );
    const DEPTHS: [usize; 6] = [1, 2, 5, 10, 20, 50];
    let cfgs = DEPTHS
        .iter()
        .map(|&depth| {
            base(Architecture::WomCodeRefresh)
                .refresh_table_depth(depth)
                .into_config()
        })
        .collect();
    for (depth, m) in DEPTHS.iter().zip(run_all(cfgs, records, seed, threads)) {
        println!(
            "{:>8}{:>16.1}{:>12.1}%{:>12}",
            depth,
            m.mean_write_ns(),
            m.fast_write_fraction() * 100.0,
            m.refreshes_completed
        );
    }
}

fn ablate_pausing(records: usize, seed: u64, threads: usize) {
    println!("\n== write pausing during PCM-refresh ==");
    println!(
        "{:>10}{:>16}{:>15}{:>12}{:>12}",
        "pausing", "mean write ns", "mean read ns", "refreshes", "preempted"
    );
    const PAUSING: [bool; 2] = [true, false];
    let cfgs = PAUSING
        .iter()
        .map(|&pausing| {
            base(Architecture::WomCodeRefresh)
                .write_pausing(pausing)
                .into_config()
        })
        .collect();
    for (pausing, m) in PAUSING.iter().zip(run_all(cfgs, records, seed, threads)) {
        println!(
            "{:>10}{:>16.1}{:>15.1}{:>12}{:>12}",
            if *pausing { "on" } else { "off" },
            m.mean_write_ns(),
            m.mean_read_ns(),
            m.refreshes_completed,
            m.refreshes_preempted
        );
    }
}

fn ablate_sched(records: usize, seed: u64, threads: usize) {
    use pcm_sim::SchedulerPolicy;
    println!("\n== controller scheduling policy (WOM-code PCM + refresh) ==");
    println!(
        "{:>18}{:>16}{:>15}{:>13}",
        "policy", "mean write ns", "mean read ns", "fast writes"
    );
    const POLICIES: [(&str, SchedulerPolicy); 3] = [
        ("fr-fcfs", SchedulerPolicy::FrFcfs),
        ("strict fcfs", SchedulerPolicy::StrictFcfs),
        ("read-first", SchedulerPolicy::ReadAlwaysFirst),
    ];
    let cfgs = POLICIES
        .iter()
        .map(|&(_, policy)| {
            base(Architecture::WomCodeRefresh)
                .scheduler(policy)
                .into_config()
        })
        .collect();
    for ((name, _), m) in POLICIES.iter().zip(run_all(cfgs, records, seed, threads)) {
        println!(
            "{:>18}{:>16.1}{:>15.1}{:>12.1}%",
            name,
            m.mean_write_ns(),
            m.mean_read_ns(),
            m.fast_write_fraction() * 100.0
        );
    }
}

fn ablate_period(records: usize, seed: u64, threads: usize) {
    println!("\n== PCM-refresh period (paper fixes 4000 ns) ==");
    println!(
        "{:>12}{:>16}{:>13}{:>12}{:>12}",
        "period ns", "mean write ns", "fast writes", "refreshes", "preempted"
    );
    const PERIODS: [u64; 5] = [1000, 2000, 4000, 8000, 16000];
    let cfgs = PERIODS
        .iter()
        .map(|&period| {
            let b = base(Architecture::WomCodeRefresh);
            let mut timing = b.config().mem().timing;
            timing.refresh_period_ns = period;
            b.timing(timing).into_config()
        })
        .collect();
    for (period, m) in PERIODS.iter().zip(run_all(cfgs, records, seed, threads)) {
        println!(
            "{:>12}{:>16.1}{:>12.1}%{:>12}{:>12}",
            period,
            m.mean_write_ns(),
            m.fast_write_fraction() * 100.0,
            m.refreshes_completed,
            m.refreshes_preempted
        );
    }
}

fn ablate_budget(records: usize, seed: u64, threads: usize) {
    println!("\n== WOM budget granularity (WOM-code PCM) ==");
    println!(
        "{:>10}{:>16}{:>13}",
        "budget", "mean write ns", "fast writes"
    );
    const GRANULARITIES: [(&str, BudgetGranularity); 2] = [
        ("column", BudgetGranularity::Column),
        ("row", BudgetGranularity::Row),
    ];
    let cfgs = GRANULARITIES
        .iter()
        .map(|&(_, g)| {
            base(Architecture::WomCode)
                .budget_granularity(g)
                .into_config()
        })
        .collect();
    for ((name, _), m) in GRANULARITIES
        .iter()
        .zip(run_all(cfgs, records, seed, threads))
    {
        println!(
            "{:>10}{:>16.1}{:>12.1}%",
            name,
            m.mean_write_ns(),
            m.fast_write_fraction() * 100.0
        );
    }
}

fn ablate_cold(records: usize, seed: u64, threads: usize) {
    println!("\n== cold-cell assumption (WOM-code PCM) ==");
    println!(
        "{:>14}{:>16}{:>13}",
        "cold policy", "mean write ns", "fast writes"
    );
    const COLD: [(&str, ColdPolicy); 3] = [
        ("erased", ColdPolicy::Erased),
        ("steady-state", ColdPolicy::SteadyState),
        ("dirty", ColdPolicy::Dirty),
    ];
    let cfgs = COLD
        .iter()
        .map(|&(_, c)| base(Architecture::WomCode).cold_policy(c).into_config())
        .collect();
    for ((name, _), m) in COLD.iter().zip(run_all(cfgs, records, seed, threads)) {
        println!(
            "{:>14}{:>16.1}{:>12.1}%",
            name,
            m.mean_write_ns(),
            m.fast_write_fraction() * 100.0
        );
    }
}

fn ablate_org_timing(records: usize, seed: u64, threads: usize) {
    use wom_pcm::Organization;
    println!("\n== hidden-page companion-traffic charge (WOM-code PCM) ==");
    println!(
        "{:>28}{:>16}{:>15}{:>20}",
        "organization", "mean write ns", "mean read ns", "companion accesses"
    );
    const ORGS: [(&str, Organization, bool); 3] = [
        ("wide-column", Organization::WideColumn, false),
        ("hidden-page (uncharged)", Organization::HiddenPage, false),
        ("hidden-page (charged)", Organization::HiddenPage, true),
    ];
    let cfgs = ORGS
        .iter()
        .map(|&(_, org, charge)| {
            base(Architecture::WomCode)
                .organization(org)
                .charge_hidden_page_traffic(charge)
                .into_config()
        })
        .collect();
    for ((name, _, _), m) in ORGS.iter().zip(run_all(cfgs, records, seed, threads)) {
        println!(
            "{:>28}{:>16.1}{:>15.1}{:>20}",
            name,
            m.mean_write_ns(),
            m.mean_read_ns(),
            m.hidden_page_accesses
        );
    }
    println!(
        "the paper treats both organizations as timing-identical; charging the\n\
         companion row access quantifies what that assumption is worth."
    );
}

fn ablate_org() {
    println!("\n== memory organization capacity accounting (no timing difference) ==");
    let geometry = MemoryGeometry::paper_16gib();
    let wide = WideColumn::new(geometry, 1.5).expect("valid expansion");
    let hidden = HiddenPageTable::new(geometry, 1.5).expect("valid expansion");
    println!(
        "wide-column : columns widened to 1.5Z; visible capacity {} GiB; cell overhead {:.0}%",
        wide.visible_capacity_bytes() >> 30,
        wide.cell_overhead() * 100.0
    );
    println!(
        "hidden-page : {} visible + {} hidden rows/bank; visible capacity {} GiB",
        hidden.visible_rows(),
        hidden.hidden_rows(),
        hidden.visible_capacity_bytes() >> 30
    );
    println!(
        "tradeoff    : wide-column fixes the code at manufacture; hidden-page\n\
         \u{20}             supports any code with expansion <= 1.5 at runtime"
    );
}

const USAGE: &str =
    "ablations [rth|rat|pausing|budget|sched|period|cold|org|all] [records] [seed] [--threads N]";

fn main() {
    let mut cli = cli::Parser::from_env(USAGE);
    let threads = cli.threads();
    let study = cli.next_arg().unwrap_or_else(|| "all".into());
    let records: usize = cli.positional("records", DEFAULT_RECORDS);
    let seed: u64 = cli.positional("seed", 2014);
    cli.finish();

    match study.as_str() {
        "rth" => ablate_rth(records, seed, threads),
        "rat" => ablate_rat(records, seed, threads),
        "pausing" => ablate_pausing(records, seed, threads),
        "budget" => ablate_budget(records, seed, threads),
        "sched" => ablate_sched(records, seed, threads),
        "period" => ablate_period(records, seed, threads),
        "cold" => ablate_cold(records, seed, threads),
        "org" => {
            ablate_org();
            ablate_org_timing(records, seed, threads);
        }
        "all" => {
            ablate_rth(records, seed, threads);
            ablate_rat(records, seed, threads);
            ablate_pausing(records, seed, threads);
            ablate_budget(records, seed, threads);
            ablate_sched(records, seed, threads);
            ablate_period(records, seed, threads);
            ablate_cold(records, seed, threads);
            ablate_org();
            ablate_org_timing(records, seed, threads);
        }
        other => {
            eprintln!(
                "unknown study {other:?}; use rth|rat|pausing|budget|sched|period|cold|org|all"
            );
            std::process::exit(2);
        }
    }
}
