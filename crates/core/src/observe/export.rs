//! Epoch time-series exporter: JSON-Lines, one epoch per line, with the
//! counter columns in canonical order followed by the tail percentiles
//! and the sparse latency-histogram snapshots.
//!
//! Numbers are integers throughout — cycle counts and event counts — so
//! the output is bit-stable across platforms.

use super::epoch::{EpochCounters, EpochSeries};
use pcm_sim::Histogram;
use std::io::{self, Write};

/// The scalar counter columns, in canonical order.
const COUNTER_NAMES: [&str; 22] = [
    "reads_issued",
    "writes_issued",
    "reads_completed",
    "writes_completed",
    "read_cycles",
    "write_cycles",
    "fast_writes",
    "slow_writes",
    "coalesced_writes",
    "refresh_bursts",
    "refresh_rows_planned",
    "refreshes_completed",
    "refreshes_preempted",
    "cache_read_hits",
    "cache_read_misses",
    "cache_write_hits",
    "cache_write_misses",
    "victim_writebacks",
    "gap_moves",
    "budgets_exhausted",
    "hidden_page_accesses",
    "read_p50_cycles", // percentile summaries ride at the end
];

fn counter_values(c: &EpochCounters) -> [u128; 22] {
    [
        u128::from(c.reads_issued),
        u128::from(c.writes_issued),
        u128::from(c.reads_completed),
        u128::from(c.writes_completed),
        c.read_cycles,
        c.write_cycles,
        u128::from(c.fast_writes),
        u128::from(c.slow_writes),
        u128::from(c.coalesced_writes),
        u128::from(c.refresh_bursts),
        u128::from(c.refresh_rows_planned),
        u128::from(c.refreshes_completed),
        u128::from(c.refreshes_preempted),
        u128::from(c.cache_read_hits),
        u128::from(c.cache_read_misses),
        u128::from(c.cache_write_hits),
        u128::from(c.cache_write_misses),
        u128::from(c.victim_writebacks),
        u128::from(c.gap_moves),
        u128::from(c.budgets_exhausted),
        u128::from(c.hidden_page_accesses),
        u128::from(c.read_hist.percentile(0.5)),
    ]
}

/// JSON string escaping for tag values (tag names must already be plain
/// identifiers).
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_sparse_hist(out: &mut String, h: &Histogram) {
    out.push('[');
    let mut first = true;
    for (i, n) in h.nonzero_buckets() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("[{},{n}]", Histogram::bucket_upper_bound(i)));
    }
    out.push(']');
}

/// Appends one epoch's JSON-Lines object to `line` (no trailing
/// newline): the given `tags` first, then the epoch window, the counter
/// columns, tail percentiles, and sparse histogram snapshots — the
/// exact line [`write_jsonl`] emits for the same epoch. Public so
/// incremental exporters (the `womd` service streams epoch deltas over
/// the wire as they complete) produce lines byte-identical to a
/// whole-series export.
pub fn push_epoch_jsonl(
    line: &mut String,
    tags: &[(&str, &str)],
    index: usize,
    start_cycle: u64,
    end_cycle: u64,
    c: &EpochCounters,
) {
    line.push('{');
    for &(name, value) in tags {
        line.push_str(&format!("\"{name}\":"));
        push_json_str(line, value);
        line.push(',');
    }
    line.push_str(&format!(
        "\"epoch\":{index},\"start_cycle\":{start_cycle},\"end_cycle\":{end_cycle}"
    ));
    for (name, value) in COUNTER_NAMES.iter().zip(counter_values(c)) {
        line.push_str(&format!(",\"{name}\":{value}"));
    }
    line.push_str(&format!(
        ",\"read_p99_cycles\":{},\"write_p50_cycles\":{},\"write_p99_cycles\":{}",
        c.read_hist.percentile(0.99),
        c.write_hist.percentile(0.5),
        c.write_hist.percentile(0.99)
    ));
    line.push_str(",\"read_hist\":");
    push_sparse_hist(line, &c.read_hist);
    line.push_str(",\"write_hist\":");
    push_sparse_hist(line, &c.write_hist);
    line.push('}');
}

/// Writes the series as JSON-Lines: one object per epoch, the given
/// `tags` (constant per line) first, then the epoch window, the counter
/// columns, tail percentiles, and sparse `[upper_bound_cycles, count]`
/// histogram snapshots.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_jsonl<W: Write>(
    w: &mut W,
    series: &EpochSeries,
    tags: &[(&str, &str)],
) -> io::Result<()> {
    let mut line = String::new();
    for (i, c) in series.epochs().iter().enumerate() {
        line.clear();
        push_epoch_jsonl(
            &mut line,
            tags,
            i,
            series.epoch_start(i),
            series.epoch_end(i),
            c,
        );
        writeln!(w, "{line}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::epoch::EpochRecorder;
    use super::super::event::{Event, WriteClass};
    use super::*;

    fn sample_series() -> EpochSeries {
        let mut r = EpochRecorder::new(100);
        r.on_event(&Event::ReadCompleted {
            cycle: 10,
            latency: 22,
        });
        r.on_event(&Event::WriteCompleted {
            cycle: 150,
            latency: 120,
            class: WriteClass::Slow,
        });
        r.on_finish(180);
        r.into_series()
    }

    #[test]
    fn jsonl_emits_one_line_per_epoch_with_tags_first() {
        let mut out = Vec::new();
        write_jsonl(&mut out, &sample_series(), &[("arch", "wcpcm")]).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"arch\":\"wcpcm\",\"epoch\":0,"));
        assert!(lines[0].contains("\"reads_completed\":1"));
        assert!(lines[0].contains("\"read_hist\":[[31,1]]"));
        assert!(lines[1].contains("\"start_cycle\":100,\"end_cycle\":180"));
        assert!(lines[1].contains("\"slow_writes\":1"));
        assert!(lines[1].contains("\"write_hist\":[[127,1]]"));
    }

    #[test]
    fn jsonl_escapes_tag_values() {
        let mut out = Vec::new();
        write_jsonl(&mut out, &sample_series(), &[("label", "a\"b\\c\n")]).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"label\":\"a\\\"b\\\\c\\n\""));
    }
}
