//! Bench-regression gate: compares freshly produced `REOPT_BENCH_JSON`
//! reports against a committed baseline and fails (exit 1) if any shared
//! benchmark's median regressed beyond the tolerance.
//!
//! Usage: `check_bench <baseline.json> <current.json>... [tolerance]`
//! where `tolerance` is a fraction (default 0.25 = 25%). Given several
//! current reports (passes of the same benches), each entry is gated on
//! its minimum across them, as the baseline's entries were taken: one
//! slow pass on a loaded runner does not fail the gate. On top of the
//! relative tolerance, a small absolute slack ([`ABS_SLACK_NS`]) is
//! granted so microsecond-scale medians — whose run-to-run noise on a
//! shared runner easily exceeds any sane percentage — cannot flake the
//! gate; ms-scale medians are unaffected. Benchmarks present in the
//! baseline but missing from any current report fail the gate (a silently
//! dropped bench is not a pass), and an entire baseline *group* with no
//! current entries fails with its own loud message — that shape means a
//! bench binary never ran at all. New benchmarks are reported and
//! ignored.

use std::process::ExitCode;

/// Absolute regression slack: a median must exceed both the relative
/// tolerance *and* this many nanoseconds over baseline to fail.
const ABS_SLACK_NS: f64 = 2_000.0;

/// Parses the criterion stand-in's report format: one
/// `{"name": "...", "median_ns": N}` object per line.
fn parse_report(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(name_at) = line.find("\"name\":") else {
            continue;
        };
        let rest = &line[name_at + 7..];
        let open = rest.find('"').ok_or_else(|| format!("bad line: {line}"))?;
        let rest = &rest[open + 1..];
        let close = rest.find('"').ok_or_else(|| format!("bad line: {line}"))?;
        let name = rest[..close].to_string();
        let med_at = line
            .find("\"median_ns\":")
            .ok_or_else(|| format!("no median on line: {line}"))?;
        let digits: String = line[med_at + 12..]
            .chars()
            .skip_while(|c| c.is_whitespace())
            .take_while(|c| c.is_ascii_digit())
            .collect();
        let ns: f64 = digits.parse().map_err(|e| format!("bad median ({e}): {line}"))?;
        out.push((name, ns));
    }
    if out.is_empty() {
        return Err(format!("no benchmark entries found in {path}"));
    }
    Ok(out)
}

/// `name`'s minimum median across `reports`; `None` when any report
/// lacks it.
fn min_across(reports: &[Vec<(String, f64)>], name: &str) -> Option<f64> {
    (reports.iter())
        .map(|r| r.iter().find(|(n, _)| n == name).map(|&(_, ns)| ns))
        .try_fold(f64::INFINITY, |min, ns| Some(min.min(ns?)))
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = || "usage: check_bench <baseline.json> <current.json>... [tolerance]".to_string();
    let (baseline_path, rest) = args.split_first().ok_or_else(usage)?;
    // A last argument that parses as a number is the tolerance.
    let (tolerance, current_paths) = match rest.last().map(|t| t.parse::<f64>()) {
        Some(Ok(t)) => (t, &rest[..rest.len() - 1]),
        _ => (0.25, rest),
    };
    if current_paths.is_empty() {
        return Err(usage());
    }
    let baseline = parse_report(baseline_path)?;
    let reports = (current_paths.iter().map(|p| parse_report(p))).collect::<Result<Vec<_>, _>>()?;
    let mut ok = true;
    // A whole baseline *group* (the name's prefix up to the first '/',
    // i.e. one bench binary) absent from the current report means the
    // binary never ran — a harness wiring failure, not a set of
    // individually dropped benchmarks. Fail loudly and by name so the
    // gate can't quietly pass on a partial run.
    let group = |name: &str| name.split('/').next().unwrap_or(name).to_string();
    let baseline_groups: std::collections::BTreeSet<String> =
        baseline.iter().map(|(n, _)| group(n)).collect();
    for (path, current) in current_paths.iter().zip(&reports) {
        for g in &baseline_groups {
            if !current.iter().any(|(n, _)| &group(n) == g) {
                eprintln!(
                    "bench gate: baseline group '{g}' has no entries in \
                     {path} — did its bench binary run?"
                );
                ok = false;
            }
        }
    }
    println!(
        "{:<55} {:>12} {:>12} {:>8}  verdict (current: min of {} reports)",
        "benchmark", "baseline", "current", "ratio", reports.len()
    );
    for (name, base_ns) in &baseline {
        match min_across(&reports, name) {
            None => {
                println!("{name:<55} {base_ns:>12.0} {:>12} {:>8}  MISSING", "-", "-");
                ok = false;
            }
            Some(cur_ns) => {
                let ratio = cur_ns / base_ns;
                let verdict = if cur_ns > base_ns * (1.0 + tolerance) + ABS_SLACK_NS {
                    ok = false;
                    "REGRESSED"
                } else {
                    "ok"
                };
                println!(
                    "{name:<55} {base_ns:>12.0} {cur_ns:>12.0} {ratio:>8.2}  {verdict}"
                );
            }
        }
    }
    let new: std::collections::BTreeSet<&str> = (reports.iter().flatten())
        .map(|(n, _)| n.as_str())
        .filter(|name| !baseline.iter().any(|(n, _)| n == name))
        .collect();
    for name in new {
        println!("{name:<55} (new, not in baseline — ignored)");
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => {
            println!("bench gate: all medians within tolerance");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            eprintln!("bench gate: regression detected");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("check_bench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::min_across;

    #[test]
    fn an_entry_is_gated_on_its_minimum_and_missing_from_one_report_is_missing() {
        let report = |entries: &[(&str, f64)]| -> Vec<(String, f64)> {
            entries.iter().map(|&(n, ns)| (n.to_string(), ns)).collect()
        };
        let reports = [
            report(&[("g/a", 300.0), ("g/b", 10.0)]),
            report(&[("g/a", 100.0)]),
            report(&[("g/a", 200.0), ("g/b", 5.0)]),
        ];
        assert_eq!(min_across(&reports, "g/a"), Some(100.0));
        assert_eq!(min_across(&reports, "g/b"), None);
        assert_eq!(min_across(&reports[..1], "g/b"), Some(10.0));
    }
}
