//! The repository's benchmark: one closed loop, one caller, one thread.
//!
//! ```text
//! benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//!           [--smoke] [--trace-out <file>]
//! ```
//!
//! Prints every metric by name with its unit, range over rounds and
//! round count, then — as the last line — one JSON object with the
//! result. `--trace 0` reports the end-to-end metrics, measured with
//! tracing off; `--trace 1` reports the per-layer metrics, from rounds
//! that alternate tracing off and on (the difference is
//! `trace_overhead_pct`). See `README.md` for what each workload and
//! metric is for.

mod gen;
mod layers;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use layers::{Counts, Meter};
use stats::{best, median, per_op_best, percentile, sorted};
use trace::{LayerStat, Span};
use workloads::{Round, Samples, Sizes};

/// End-to-end metrics: name and unit, as in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 14] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("hr_initial_ms", "ms"),
    ("decl_initial_ms", "ms"),
    ("hr_op_p50_us", "us"),
    ("hr_op_p95_us", "us"),
    ("decl_op_p50_us", "us"),
    ("decl_op_p95_us", "us"),
    ("hr_total_ms", "ms"),
    ("decl_total_ms", "ms"),
    ("durable_op_p50_us", "us"),
    ("durable_op_p95_us", "us"),
    ("checkpoint_p50_ms", "ms"),
    ("recover_p50_ms", "ms"),
];

/// Per-layer metrics: name and unit, as in `BENCHMARK.json`.
const PER_LAYER: [(&str, &str); 51] = [
    ("cost.apply_p50_us", "us"),
    ("cost.plan_cost_p50_us", "us"),
    ("cost.affected_params", "count"),
    ("core.reopt_busy_s", "s"),
    ("core.touched_alts", "count"),
    ("core.touched_groups", "count"),
    ("core.queue_pops", "count"),
    ("core.revived_groups", "count"),
    ("core.tombstoned_groups", "count"),
    ("core.alt_update_ratio", "ratio"),
    ("core.pruned_alts_ratio", "ratio"),
    ("core.pruned_groups_ratio", "ratio"),
    ("core.default.reopt_p50_us", "us"),
    ("core.default.suboptimal_epochs", "count"),
    ("core.default.regret_mean", "ratio"),
    ("bridge.reopt_busy_s", "s"),
    ("bridge.pruned_alternatives", "count"),
    ("bridge.search_space_rows", "count"),
    ("bridge.network_nodes", "count"),
    ("bridge.arrangements", "count"),
    ("bridge.unclean_epochs", "count"),
    ("bridge.wal_append_p50_us", "us"),
    ("bridge.wal_bytes_per_epoch", "B"),
    ("bridge.checkpoint_bytes", "B"),
    ("bridge.recover_restored", "count"),
    ("bridge.recover_degraded", "count"),
    ("datalog.deltas_processed", "count"),
    ("datalog.batches_processed", "count"),
    ("datalog.deltas_emitted", "count"),
    ("datalog.join_probes", "count"),
    ("datalog.join_probe_deltas", "count"),
    ("datalog.fused_stages_saved", "count"),
    ("datalog.rollbacks", "count"),
    ("datalog.deltas_per_epoch", "count"),
    ("exec.ingest_busy_s", "s"),
    ("exec.execute_busy_s", "s"),
    ("exec.feedback_busy_s", "s"),
    ("exec.out_rows", "count"),
    ("exec.migrated_rows", "count"),
    ("exec.window_rows_peak", "count"),
    ("exec.plan_switches", "count"),
    ("aqp.reopt_share", "ratio"),
    ("aqp.deltas_per_slice", "count"),
    ("aqp.deltas_leaf_card", "count"),
    ("aqp.deltas_edge_sel", "count"),
    ("aqp.driver_stream_s", "s"),
    ("baselines.volcano_p50_us", "us"),
    ("baselines.volcano_groups_created", "count"),
    ("hr_vs_scratch", "ratio"),
    ("decl_vs_scratch", "ratio"),
    ("trace_overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    trace_out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut trace_out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if workloads::NAMES.contains(&value.as_str()) => {
                workload = Some(value.clone())
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s >= 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" if value == "0" || value == "1" => trace = Some(value == "1"),
            "--trace-out" => trace_out = Some(value.clone()),
            "--workload" | "--trace" => return Err(bad()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        smoke,
        trace_out,
    })
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// How many samples stand behind the value.
    basis: String,
}

/// Everything a run produced, before it is printed.
struct Report {
    metrics: Vec<Metric>,
    ops: u64,
    failed: u64,
    /// First count that differed between two rounds, if any.
    nondeterministic: Option<String>,
    spans: Vec<Vec<Span>>,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0 && self.nondeterministic.is_none()
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

/// Names the first count two rounds disagree on.
fn first_difference(a: &Counts, b: &Counts) -> Option<String> {
    let (a, b) = (a.pairs(), b.pairs());
    a.iter()
        .zip(&b)
        .find(|(x, y)| x.1 != y.1)
        .map(|(x, y)| format!("{}: {} vs {}", x.0, x.1, y.1))
}

fn run(args: &Args) -> Report {
    let sizes = Sizes::of(&args.workload, args.smoke);
    let mut setup_s = Vec::new();
    let mut slot = None;
    let mut m = Meter::new();
    let mut rounds: Vec<Round> = Vec::new();
    let mut walls: Vec<(bool, f64)> = Vec::new();
    let mut layer_stats: Vec<BTreeMap<&'static str, LayerStat>> = Vec::new();
    let mut spans: Vec<Vec<Span>> = Vec::new();
    let mut counts: Option<Counts> = None;
    let mut nondeterministic = None;
    let (mut ops, mut failed) = (0, 0);
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    // At least one round of each kind, so every metric has a value.
    while rounds.len() < 2 || started.elapsed() < budget {
        // Set up afresh before every round: set-up takes milliseconds,
        // so it is sampled as often, and over the same stretch of time,
        // as everything else, and its median reported.
        drop(slot.take());
        let t = Instant::now();
        let workload = slot.insert(workloads::setup(&args.workload, args.seed, sizes));
        setup_s.push(t.elapsed().as_secs_f64());
        m.counts = Counts::default();
        m.tr.on = args.trace && rounds.len() % 2 == 1;
        let t = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| workload.round(&mut m, args.trace)));
        let wall = t.elapsed().as_secs_f64();
        let drained = m.tr.drain();
        let Ok(round) = outcome else {
            // An engine panicked: whatever the round still had to do
            // counts as failed, and its state cannot be trusted on.
            let planned = rounds.last().map_or(1, |r| r.ops);
            ops += planned;
            failed += planned;
            break;
        };
        ops += round.ops;
        failed += round.failed;
        if let Some(first) = &counts {
            nondeterministic = nondeterministic.or_else(|| first_difference(first, &m.counts));
        } else {
            counts = Some(m.counts.clone());
        }
        walls.push((m.tr.on, wall));
        if m.tr.on {
            layer_stats.push(trace::aggregate(&drained));
            if args.trace_out.is_some() {
                spans.push(drained);
            }
        }
        rounds.push(round);
    }

    let counts = counts.unwrap_or_default();
    let metrics = if args.trace {
        per_layer_metrics(&rounds, &walls, &layer_stats, &counts)
    } else {
        end_to_end_metrics(&setup_s, &rounds)
    };
    Report {
        metrics,
        ops: ops.max(1),
        failed,
        nondeterministic,
        spans,
    }
}

/// The end-to-end metrics. Repeats of the same work are folded first —
/// each op's best repeat over the rounds ([`per_op_best`]), the best of
/// all fresh builds — then comes the statistic over the ops.
fn end_to_end_metrics(setup_s: &[f64], rounds: &[Round]) -> Vec<Metric> {
    let ops = |pick: fn(&Samples) -> &Vec<f64>| -> Vec<f64> {
        let repeats: Vec<&[f64]> = rounds.iter().map(|r| pick(&r.samples).as_slice()).collect();
        sorted(&per_op_best(&repeats))
    };
    // Every fresh build is the same work, within a round too.
    let builds = |pick: fn(&Samples) -> &Vec<f64>| -> Vec<f64> {
        rounds
            .iter()
            .flat_map(|r| pick(&r.samples).iter().copied())
            .collect()
    };
    let hr_op = ops(|s| &s.hr_op);
    let decl_op = ops(|s| &s.decl_op);
    let durable_op = ops(|s| &s.durable_op);
    let checkpoint = ops(|s| &s.checkpoint);
    let recover = ops(|s| &s.recover);
    let hr_initial = builds(|s| &s.hr_initial);
    let decl_initial = builds(|s| &s.decl_initial);
    END_TO_END
        .into_iter()
        .map(|(name, unit)| {
            let (value, n) = match name {
                "setup_s" => (median(setup_s), setup_s.len()),
                "peak_rss_mb" => (peak_rss_mb(), 1),
                "hr_initial_ms" => (best(&hr_initial) / 1e3, hr_initial.len()),
                "decl_initial_ms" => (best(&decl_initial) / 1e3, decl_initial.len()),
                "hr_op_p50_us" => (percentile(&hr_op, 50.0), hr_op.len()),
                "hr_op_p95_us" => (percentile(&hr_op, 95.0), hr_op.len()),
                "decl_op_p50_us" => (percentile(&decl_op, 50.0), decl_op.len()),
                "decl_op_p95_us" => (percentile(&decl_op, 95.0), decl_op.len()),
                "hr_total_ms" => (hr_op.iter().sum::<f64>() / 1e3, hr_op.len()),
                "decl_total_ms" => (decl_op.iter().sum::<f64>() / 1e3, decl_op.len()),
                "durable_op_p50_us" => (percentile(&durable_op, 50.0), durable_op.len()),
                "durable_op_p95_us" => (percentile(&durable_op, 95.0), durable_op.len()),
                "checkpoint_p50_ms" => (percentile(&checkpoint, 50.0) / 1e3, checkpoint.len()),
                "recover_p50_ms" => (percentile(&recover, 50.0) / 1e3, recover.len()),
                _ => unreachable!("{name} is not an end-to-end metric"),
            };
            let basis = match name {
                "setup_s" | "peak_rss_mb" => format!("{n} sample(s)"),
                "hr_initial_ms" | "decl_initial_ms" => format!("best of {n} builds"),
                _ => format!("{n} ops, best of {} rounds each", rounds.len()),
            };
            Metric {
                name,
                unit,
                value,
                basis,
            }
        })
        .collect()
}

/// The per-layer metrics: counts repeat exactly, so one round's stand
/// for all; timings are the median over the traced rounds.
fn per_layer_metrics(
    rounds: &[Round],
    walls: &[(bool, f64)],
    layer_stats: &[BTreeMap<&'static str, LayerStat>],
    counts: &Counts,
) -> Vec<Metric> {
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let count: BTreeMap<&str, f64> = counts
        .pairs()
        .into_iter()
        .map(|(k, n)| (k, n as f64))
        .collect();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    for (name, _) in PER_LAYER {
        if let Some(&n) = count.get(name) {
            v.insert(name, n);
        }
    }
    v.insert(
        "core.alt_update_ratio",
        ratio(count["core.touched_alts"], count["core.total_alts"]),
    );
    v.insert(
        "core.pruned_alts_ratio",
        ratio(count["core.pruned_alts"], count["core.total_alts"]),
    );
    v.insert(
        "core.pruned_groups_ratio",
        ratio(count["core.pruned_groups"], count["core.total_groups"]),
    );
    v.insert(
        "bridge.wal_bytes_per_epoch",
        ratio(count["bridge.wal_bytes"], count["bridge.wal_records"]),
    );
    v.insert(
        "datalog.deltas_per_epoch",
        ratio(count["datalog.deltas_processed"], count["bridge.epochs"]),
    );
    let fed_back = count["aqp.deltas_leaf_card"] + count["aqp.deltas_edge_sel"];
    v.insert(
        "aqp.deltas_per_slice",
        ratio(fed_back, count["exec.slices"]),
    );
    let regret: Vec<f64> = rounds.iter().filter_map(|r| r.default_regret).collect();
    v.insert(
        "core.default.regret_mean",
        regret.first().copied().unwrap_or(0.0),
    );

    // `stat(span, field)`: the field's median over the traced rounds.
    let stat = |span: &str, field: fn(&LayerStat) -> f64| -> f64 {
        median(
            &layer_stats
                .iter()
                .map(|s| s.get(span).map_or(0.0, field))
                .collect::<Vec<_>>(),
        )
    };
    let p50 = |span: &str| stat(span, |s| s.p50_us);
    let busy = |span: &str| stat(span, |s| s.busy_s);
    v.insert("cost.apply_p50_us", p50("cost.apply"));
    v.insert("cost.plan_cost_p50_us", p50("cost.plan_cost"));
    v.insert("core.reopt_busy_s", busy("core.reoptimize"));
    v.insert("core.default.reopt_p50_us", p50("core.default.reoptimize"));
    v.insert("bridge.reopt_busy_s", busy("bridge.reoptimize"));
    v.insert("bridge.wal_append_p50_us", p50("bridge.wal_append"));
    v.insert("exec.ingest_busy_s", busy("exec.ingest"));
    v.insert("exec.execute_busy_s", busy("exec.execute"));
    v.insert("exec.feedback_busy_s", busy("exec.observed_deltas"));
    v.insert("aqp.driver_stream_s", busy("aqp.run_slice"));
    v.insert("baselines.volcano_p50_us", p50("baselines.volcano"));
    v.insert(
        "hr_vs_scratch",
        ratio(p50("core.reoptimize"), p50("baselines.volcano")),
    );
    v.insert(
        "decl_vs_scratch",
        ratio(p50("bridge.reoptimize"), p50("baselines.volcano")),
    );
    // Share of a slice, ingest to plan installed, spent re-optimizing.
    let reopt = busy("core.reoptimize") + busy("bridge.reoptimize");
    v.insert(
        "aqp.reopt_share",
        ratio(reopt, stat("bench.slice", |s| s.total_s)),
    );
    let wall = |traced: bool| {
        median(
            &walls
                .iter()
                .filter(|w| w.0 == traced)
                .map(|w| w.1)
                .collect::<Vec<_>>(),
        )
    };
    v.insert(
        "trace_overhead_pct",
        (ratio(wall(true), wall(false)) - 1.0) * 100.0,
    );

    let basis = format!("{} traced of {} rounds", layer_stats.len(), rounds.len());
    PER_LAYER
        .into_iter()
        .map(|(name, unit)| Metric {
            name,
            unit,
            value: v[name],
            basis: basis.clone(),
        })
        .collect()
}

fn print(report: &Report) {
    for Metric {
        name,
        unit,
        value,
        basis,
    } in &report.metrics
    {
        println!("{name:<34} {value:>16.4} {unit:<6} ({basis})");
    }
    println!("ops {}  failed_ops {}", report.ops, report.failed);
    if let Some(what) = &report.nondeterministic {
        println!("NOT DETERMINISTIC: two rounds of identical inputs disagree on {what}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.ops,
        report.failed,
        metrics.join(", ")
    );
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Pins glibc malloc's trim and mmap thresholds, which otherwise adapt
/// at run time. Left to adapt, the stream executor's large per-slice
/// buffers come from fresh mappings in some rounds and from the heap in
/// others: between 130k and 270k page faults per round of identical
/// work, a third of `aqp_segtoll`'s slice time, different from process
/// to process — run-to-run spread of its slice p50 was 12-27% unpinned
/// against 4-8% pinned in ten interleaved pairs of runs (README,
/// "Measurement conditions"). Pinned, freed memory is kept and reused.
fn pin_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` is glibc's own tuning entry point; it takes
        // two plain integers, touches only allocator parameters, and is
        // called here before the program has started a second thread.
        unsafe {
            mallopt(M_TRIM_THRESHOLD, 1 << 30);
            // The largest value glibc accepts (32 MiB on 64-bit).
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
        }
    }
}

fn main() {
    pin_allocator();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!(
                "usage: benchmark --workload <{}> --seed <u64> --seconds <n> --trace <0|1> [--smoke] [--trace-out <file>]",
                workloads::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let report = run(&args);
    if let Some(path) = &args.trace_out {
        if let Err(e) = trace::write_spans(path, &report.spans) {
            eprintln!("benchmark: cannot write {path}: {e}");
            std::process::exit(2);
        }
    }
    // Only succeeds once every round has removed its own directory.
    let _ = std::fs::remove_dir(".bench_tmp");
    print(&report);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool) -> Report {
        run(&Args {
            workload: workload.to_string(),
            seed: 11,
            seconds: 0.0,
            trace,
            smoke: true,
            trace_out: None,
        })
    }

    fn value(report: &Report, name: &str) -> f64 {
        report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .expect(name)
            .value
    }

    /// All four workloads, tiny counts: no failed op, counts identical
    /// between rounds, and every end-to-end metric present and non-zero.
    #[test]
    fn smoke_pass_is_correct_and_complete() {
        for workload in workloads::NAMES {
            let report = smoke(workload, false);
            assert_eq!(report.failed, 0, "{workload}");
            assert_eq!(report.nondeterministic, None, "{workload}");
            assert!(report.ops > 1, "{workload}");
            assert_eq!(report.metrics.len(), END_TO_END.len());
            for m in &report.metrics {
                assert!(
                    m.value > 0.0 && m.value.is_finite(),
                    "{workload}: {} = {}",
                    m.name,
                    m.value
                );
            }
        }
    }

    /// The traced run yields every per-layer metric, and the layers a
    /// workload is meant to stress actually did work in it.
    #[test]
    fn traced_smoke_pass_reaches_the_layers() {
        for workload in workloads::NAMES {
            let report = smoke(workload, true);
            assert!(
                report.correct(),
                "{workload}: {:?}",
                report.nondeterministic
            );
            assert_eq!(report.metrics.len(), PER_LAYER.len());
            for m in &report.metrics {
                assert!(m.value.is_finite(), "{workload}: {}", m.name);
            }
            assert!(value(&report, "core.reopt_busy_s") > 0.0, "{workload}");
            assert!(value(&report, "bridge.reopt_busy_s") > 0.0, "{workload}");
            assert!(
                value(&report, "datalog.deltas_processed") > 0.0,
                "{workload}"
            );
            assert!(
                value(&report, "baselines.volcano_p50_us") > 0.0,
                "{workload}"
            );
            assert!(
                value(&report, "bridge.checkpoint_bytes") > 0.0,
                "{workload}"
            );
            assert!(
                value(&report, "bridge.recover_restored") > 0.0,
                "{workload}"
            );
            assert_eq!(value(&report, "bridge.recover_degraded"), 0.0, "{workload}");
            assert_eq!(value(&report, "bridge.unclean_epochs"), 0.0, "{workload}");
            let streams = workload == "aqp_segtoll";
            assert_eq!(
                value(&report, "exec.execute_busy_s") > 0.0,
                streams,
                "{workload}"
            );
            assert_eq!(
                value(&report, "aqp.driver_stream_s") > 0.0,
                streams,
                "{workload}"
            );
            let durable = workload == "durable_q5";
            assert_eq!(
                value(&report, "bridge.wal_append_p50_us") > 0.0,
                durable,
                "{workload}"
            );
        }
    }

    /// Same seed, same inputs, same counts — across two whole runs, not
    /// just two rounds of one.
    #[test]
    fn counts_repeat_across_runs() {
        let counts = |report: &Report| -> Vec<(&'static str, f64)> {
            let units: BTreeMap<_, _> = PER_LAYER.into_iter().collect();
            report
                .metrics
                .iter()
                .filter(|m| units[m.name] == "count")
                .map(|m| (m.name, m.value))
                .collect()
        };
        let a = smoke("param_burst_star8", true);
        let b = smoke("param_burst_star8", true);
        assert_eq!(counts(&a), counts(&b));
        assert!(counts(&a).len() > 20);
    }

    #[test]
    fn first_difference_names_the_count() {
        let a = Counts::default();
        let mut b = Counts::default();
        assert_eq!(first_difference(&a, &b), None);
        b.core_touched_alts = 3;
        assert_eq!(
            first_difference(&a, &b).as_deref(),
            Some("core.touched_alts: 0 vs 3")
        );
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&argv(
            "--workload durable_q5 --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.seconds, ok.trace),
            ("durable_q5", 3, 10.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv(
            "--workload durable_q5 --seed x --seconds 10 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--workload durable_q5 --seed 3 --seconds 10 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload durable_q5 --seed 3 --seconds 10")).is_err());
    }

    /// `BENCHMARK.json` and the binary name the same workloads and
    /// metrics, with the same units.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let json = std::fs::read_to_string("../BENCHMARK.json").expect("run from the package root");
        for workload in workloads::NAMES {
            assert!(
                json.contains(&format!("\"name\": \"{workload}\"")),
                "{workload}"
            );
        }
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
        let named = json.matches("\"name\": ").count();
        assert_eq!(
            named,
            workloads::NAMES.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }
}
