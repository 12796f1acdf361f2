//! `perfbench steady`: repeats runs of one workload, one seed each, and
//! prints every metric's median, quartiles and spread (interquartile
//! range over median), the measure the bounds in `BENCHMARK.json` are set
//! against. With `--sets 2` it makes two separate sets of runs on fresh
//! seeds and prints how far the second median moved from the first, and
//! whether the failed share of operations is the same in both. The run
//! length and the bounds come from `BENCHMARK.json` in the current
//! directory; seeds start at 1.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use mlrl_obs::json;

use crate::stats;
use crate::workloads::Workload;

struct Run {
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let mut workload = None;
    let (mut runs, mut sets) = (10u64, 1u64);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("bad {flag} `{value}`: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--runs" => runs = number()?,
            "--sets" => sets = number()?,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if runs == 0 || sets == 0 {
        return Err("--runs and --sets must be at least 1".to_owned());
    }
    let (seconds, bounds) = benchmark_config()?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut results: Vec<Vec<Run>> = Vec::new();
    let mut all_correct = true;
    for set in 0..sets {
        let mut set_runs = Vec::new();
        for r in 0..runs {
            let seed = 1 + set * runs + r;
            let output = Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", "0"])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot rerun {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let run = parse_result(stdout.lines().last().unwrap_or("")).ok_or_else(|| {
                format!(
                    "seed {seed}: no result line (exit {:?})",
                    output.status.code()
                )
            })?;
            all_correct &= output.status.success();
            eprintln!(
                "steady: set {set} seed {seed}: {}",
                run.metrics
                    .iter()
                    .map(|(k, v)| format!("{k}={v:.4}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            );
            set_runs.push(run);
        }
        results.push(set_runs);
    }

    println!(
        "{}: {runs} run(s) x {sets} set(s), {seconds} s each, seeds 1-{}",
        workload.name(),
        runs * sets
    );
    println!(
        "{:<34} {:>4} {:>12} {:>12} {:>12} {:>8} {:>8} {:>9}",
        "metric", "set", "median", "q1", "q3", "spread", "bound", "shift"
    );
    let names: Vec<String> = results[0][0].metrics.keys().cloned().collect();
    for name in &names {
        let bound = bounds.get(name).copied();
        let mut first_median = None;
        for (set, set_runs) in results.iter().enumerate() {
            let values: Vec<f64> = set_runs
                .iter()
                .filter_map(|r| r.metrics.get(name).copied())
                .collect();
            let median = stats::median(&values).unwrap_or(0.0);
            let (q1, q3) = stats::quartiles(&values).unwrap_or((0.0, 0.0));
            let spread = stats::spread(&values).unwrap_or(0.0);
            let shift = match first_median {
                None => {
                    first_median = Some(median);
                    String::new()
                }
                Some(m) if m != 0.0 => format!("{:+.4}", (median - m) / m),
                Some(_) => "n/a".to_owned(),
            };
            println!(
                "{name:<34} {set:>4} {median:>12.4} {q1:>12.4} {q3:>12.4} {spread:>8.4} {:>8} {shift:>9}",
                bound.map_or(String::new(), |b| format!("{b:.4}"))
            );
        }
    }
    for (set, set_runs) in results.iter().enumerate() {
        let attempted: f64 = set_runs.iter().map(|r| r.attempted).sum();
        let failed: f64 = set_runs.iter().map(|r| r.failed).sum();
        let shares: Vec<String> = set_runs
            .iter()
            .map(|r| format!("{}/{}", r.failed, r.attempted))
            .collect();
        println!(
            "set {set}: failed {failed} of {attempted} attempted (per run: {})",
            shares.join(" ")
        );
    }
    Ok(all_correct)
}

/// The last stdout line of a run.
fn parse_result(line: &str) -> Option<Run> {
    let root = json::parse(line)?;
    let root = root.as_object()?;
    let metrics = root
        .get("metrics")?
        .as_object()?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_object()?.get("value")?.as_f64()?)))
        .collect();
    Some(Run {
        attempted: root.get("attempted")?.as_f64()?,
        failed: root.get("failed")?.as_f64()?,
        metrics,
    })
}

/// `run_seconds` and the end-to-end bounds from `BENCHMARK.json` in the
/// current directory.
fn benchmark_config() -> Result<(u64, BTreeMap<String, f64>), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    parse_config(&text).ok_or_else(|| "BENCHMARK.json: bad run_seconds or end_to_end".to_owned())
}

fn parse_config(text: &str) -> Option<(u64, BTreeMap<String, f64>)> {
    let root = json::parse(text)?;
    let root = root.as_object()?;
    let seconds = root.get("run_seconds")?.as_f64()?;
    let bounds = root
        .get("end_to_end")?
        .as_array()?
        .iter()
        .filter_map(|m| {
            let m = m.as_object()?;
            Some((
                m.get("name")?.as_str()?.to_owned(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    (seconds >= 1.0 && seconds.fract() == 0.0).then_some((seconds as u64, bounds))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_parse() {
        let run = parse_result(
            "{\"correct\": true, \"attempted\": 40, \"failed\": 0, \"metrics\": {\"pass_s\": {\"value\": 1.25, \"unit\": \"s\"}}}",
        )
        .expect("parses");
        assert_eq!((run.attempted, run.failed), (40.0, 0.0));
        assert_eq!(run.metrics["pass_s"], 1.25);
        assert!(parse_result("workload fig6_snapshot seed 1").is_none());
    }

    #[test]
    fn config_gives_run_length_and_bounds() {
        let (seconds, bounds) = parse_config(
            "{\"run_seconds\": 12, \"end_to_end\": [{\"name\": \"pass_s\", \"unit\": \"s\", \"better\": \"lower\", \"bound\": 0.25}]}",
        )
        .expect("parses");
        assert_eq!(seconds, 12);
        assert_eq!(bounds["pass_s"], 0.25);
        assert!(parse_config("{\"end_to_end\": []}").is_none());
    }
}
