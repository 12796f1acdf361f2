//! `perfbench` — the mlrl benchmark.
//!
//! ```text
//! perfbench --workload fig6_snapshot|gate_attack|fleet_warm --seed N
//!           --seconds S --trace 0|1
//! perfbench steady --workload W [--runs N] [--sets N]
//! ```
//!
//! A run builds `mlrl` from the checkout in the current directory, writes
//! the workload's spec files from the seed, runs one untimed cold pass
//! (set-up), then whole timed passes one at a time (a closed loop) until
//! `--seconds` have elapsed, and checks every output. `--trace 0` prints
//! the end-to-end metrics; `--trace 1` runs the passes with the program's
//! metrics rollup on and prints the per-layer metrics. The last stdout
//! line is one JSON object; the exit code is 1 when any cell or check
//! failed. `steady` repeats runs and prints each metric's median,
//! quartiles and spread (see `README.md`).

mod checks;
mod program;
mod replay;
mod stats;
mod steady;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use mlrl_engine::spec::CampaignSpec;
use mlrl_obs::Metrics;

use crate::replay::{Checks, Layers, Replay};
use crate::workloads::{render, Workload, FLEET_WORKERS};

/// End-to-end metrics: name, unit. Every workload reports all four.
pub const END_TO_END: [(&str, &str); 4] = [
    ("pass_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("spill_mb", "MiB"),
];

/// Per-layer metrics of the traced run: name, unit. A layer that does no
/// work on a workload reports 0.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("ml.auto_fit_ms", "ms"),
    ("ml.fit_rows", "count"),
    ("ml.distinct_rows", "count"),
    ("ml.family.tree_ms", "ms"),
    ("ml.family.forest_ms", "ms"),
    ("ml.family.adaboost_ms", "ms"),
    ("ml.family.knn_ms", "ms"),
    ("ml.family.naive_bayes_ms", "ms"),
    ("ml.family.mlp_ms", "ms"),
    ("ml.family.logistic_ms", "ms"),
    ("locking.assure_ms", "ms"),
    ("locking.hra_ms", "ms"),
    ("locking.era_ms", "ms"),
    ("locking.metric_ms", "ms"),
    ("locking.corruptibility_ms", "ms"),
    ("locking.gate_corruptibility_ms", "ms"),
    ("attack.relock_ms", "ms"),
    ("attack.training_rows", "count"),
    ("attack.extract_ms", "ms"),
    ("attack.gate_relock_ms", "ms"),
    ("attack.gate_training_rows", "count"),
    ("attack.freq_table_ms", "ms"),
    ("rtl.generate_ms", "ms"),
    ("rtl.emit_ms", "ms"),
    ("rtl.parse_ms", "ms"),
    ("netlist.lower_ms", "ms"),
    ("netlist.opt_ms", "ms"),
    ("netlist.opt_gates_removed", "count"),
    ("netlist.gates", "count"),
    ("netlist.gate_lock_ms", "ms"),
    ("netlist.serdes_parse_ms", "ms"),
    ("netlist.serdes_emit_ms", "ms"),
    ("netlist.sim_settles", "count"),
    ("netlist.sim_lanes", "count"),
    ("sat.attack_ms", "ms"),
    ("sat.dip_solve_ms", "ms"),
    ("sat.oracle_ms", "ms"),
    ("sat.dips", "count"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("engine.cache_hits", "count"),
    ("engine.cache_misses", "count"),
    ("engine.spill_read_ms", "ms"),
    ("engine.spill_write_ms", "ms"),
    ("engine.spill_files", "count"),
    ("engine.cell_p50_ms", "ms"),
    ("engine.cell_p90_ms", "ms"),
    ("orchestrate.first_cell_ms", "ms"),
    ("orchestrate.worker_idle_ms", "ms"),
    ("orchestrate.journal_bytes", "bytes"),
    ("obs.traced_pass_s", "s"),
];

const MIB: f64 = 1024.0 * 1024.0;

/// Working files of a run, under the checkout and removed afterwards.
const WORK_ROOT: &str = ".perfbench_run";

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
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
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (expected 0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("steady") => steady::main(&args[1..]),
        _ => parse_options(&args).and_then(|opts| bench(&opts)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// One program pass, as measured from outside.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_kib: u64,
    spill_bytes: u64,
    spill_files: u64,
    /// Canonical output, one stream per campaign.
    streams: Vec<String>,
    /// The program's metrics rollup (traced passes only).
    metrics: Metrics,
    journal: String,
    first_cell_ms: Option<f64>,
}

struct Bench {
    opts: Options,
    bin: PathBuf,
    work: PathBuf,
    specs: Vec<CampaignSpec>,
    spec_paths: Vec<PathBuf>,
    cells_attempted: usize,
    cells_failed: usize,
    checks: Checks,
    /// Cold-pass output every later pass must reproduce byte for byte.
    reference: Vec<String>,
}

fn bench(opts: &Options) -> Result<bool, String> {
    let bin = program::build()?;
    let work = Path::new(WORK_ROOT).join(format!(
        "{}-s{}-p{}",
        opts.workload.name(),
        opts.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let result = run_in(opts, bin, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(WORK_ROOT); // only when no other run uses it
    result
}

fn run_in(opts: &Options, bin: PathBuf, work: &Path) -> Result<bool, String> {
    let specs = opts.workload.campaigns(opts.seed);
    let mut spec_paths = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let path = work.join(format!("campaign-{i}.spec"));
        std::fs::write(&path, render(spec)).map_err(|e| format!("{}: {e}", path.display()))?;
        spec_paths.push(path);
    }
    let mut b = Bench {
        opts: opts.clone(),
        bin,
        work: work.to_path_buf(),
        specs,
        spec_paths,
        cells_attempted: 0,
        cells_failed: 0,
        checks: Checks::default(),
        reference: Vec::new(),
    };

    // Set-up: one untimed cold pass. Its output is the reference; for
    // fleet_warm it fills the cache the timed passes share.
    let setup = b.pass(0, false)?;
    b.account(&setup);
    b.reference = setup.streams.clone();

    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || started.elapsed() < Duration::from_secs(opts.seconds) {
        let pass = b.pass(passes.len() + 1, opts.trace)?;
        b.account(&pass);
        eprintln!(
            "perfbench: timed pass {} wall {:.3} s cpu {:.3} s",
            passes.len() + 1,
            pass.wall_s,
            pass.cpu_s
        );
        passes.push(pass);
    }

    if opts.workload == Workload::FleetWarm {
        b.in_process_check()?;
    }
    let mut replay = Replay::new(opts.trace);
    if opts.workload != Workload::FleetWarm || opts.trace {
        for (spec, stream) in b.specs.iter().zip(&b.reference) {
            match checks::parse_records(stream) {
                Ok(records) => replay.campaign(spec, &records),
                Err(e) => b.checks.record(|| format!("{} records", spec.name), Err(e)),
            }
        }
    }
    b.checks.attempted += replay.checks.attempted;
    b.checks
        .failures
        .extend(replay.checks.failures.iter().cloned());

    let metrics = if opts.trace {
        per_layer(
            &replay.layers,
            &passes,
            opts.workload == Workload::FleetWarm,
        )
    } else {
        end_to_end(setup.wall_s, &passes)
    };
    Ok(b.report(passes.len(), &metrics))
}

impl Bench {
    fn pass(&mut self, k: usize, telemetry: bool) -> Result<Pass, String> {
        match self.opts.workload {
            Workload::FleetWarm => self.fleet_pass(k, telemetry),
            _ => self.cold_pass(k, telemetry),
        }
    }

    /// Runs `mlrl args...`; a nonzero exit is a failed check.
    fn launch(
        &mut self,
        tag: &str,
        args: &[String],
    ) -> Result<(program::Finished, String, String), String> {
        let out = self.work.join(format!("{tag}.out"));
        let err = self.work.join(format!("{tag}.err"));
        let finished = program::run(&self.bin, args, &out, &err)?;
        let stdout =
            std::fs::read_to_string(&out).map_err(|e| format!("{}: {e}", out.display()))?;
        let stderr =
            std::fs::read_to_string(&err).map_err(|e| format!("{}: {e}", err.display()))?;
        let exit = match finished.code {
            Some(0) => Ok(()),
            code => Err(format!(
                "exit status {code:?}: {}",
                stderr.lines().last().unwrap_or("")
            )),
        };
        self.checks
            .record(|| format!("{tag}: mlrl {}", args[0]), exit);
        Ok((finished, stdout, stderr))
    }

    /// fig6_snapshot / gate_attack: every campaign in turn on a fresh
    /// cache directory.
    fn cold_pass(&mut self, k: usize, telemetry: bool) -> Result<Pass, String> {
        let cache = self.work.join(format!("cache-{k}"));
        let mut pass = Pass::empty();
        for i in 0..self.spec_paths.len() {
            let metrics_path = self.work.join(format!("metrics-{k}-{i}.json"));
            let mut args = vec![
                "campaign".to_owned(),
                path_arg(&self.spec_paths[i]),
                "--cache-dir".to_owned(),
                path_arg(&cache),
                "--canonical".to_owned(),
            ];
            if telemetry {
                args.extend(["--metrics-out".to_owned(), path_arg(&metrics_path)]);
            }
            let (finished, stdout, _) = self.launch(&format!("pass{k}-{i}"), &args)?;
            pass.wall_s += finished.wall_s;
            pass.cpu_s += finished.cpu_s;
            pass.peak_rss_kib = pass.peak_rss_kib.max(finished.max_rss_kib);
            pass.streams.push(stdout);
            if telemetry {
                pass.merge_metrics(&metrics_path);
            }
        }
        (pass.spill_bytes, pass.spill_files) = program::dir_usage(&cache);
        let _ = std::fs::remove_dir_all(&cache);
        Ok(pass)
    }

    /// fleet_warm: one orchestrated run into a fresh run dir over the
    /// cache every pass shares; the set-up pass finds it empty.
    fn fleet_pass(&mut self, k: usize, telemetry: bool) -> Result<Pass, String> {
        let cache = self.work.join("fleet-cache");
        let run_dir = self.work.join(format!("run-{k}"));
        let metrics_path = self.work.join(format!("metrics-{k}.json"));
        let mut args = vec![
            "orchestrate".to_owned(),
            path_arg(&self.spec_paths[0]),
            "--workers".to_owned(),
            FLEET_WORKERS.to_string(),
            "--cache-dir".to_owned(),
            path_arg(&cache),
            "--run-dir".to_owned(),
            path_arg(&run_dir),
            "--canonical".to_owned(),
        ];
        if telemetry {
            args.extend(["--metrics-out".to_owned(), path_arg(&metrics_path)]);
        }
        let journal_path = run_dir.join("journal.jsonl");
        let done = AtomicBool::new(false);
        let tag = format!("pass{k}");
        let (launched, first_cell_ms) = std::thread::scope(|s| {
            // The traced run watches the journal for the first completed
            // cell; the untraced run does not poll.
            let watcher = telemetry.then(|| {
                s.spawn(|| {
                    let started = Instant::now();
                    while !done.load(Ordering::SeqCst) {
                        let lines = std::fs::read(&journal_path)
                            .map(|b| b.iter().filter(|&&c| c == b'\n').count())
                            .unwrap_or(0);
                        if lines >= 2 {
                            return Some(started.elapsed().as_secs_f64() * 1e3);
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    None
                })
            });
            let launched = self.launch(&tag, &args);
            done.store(true, Ordering::SeqCst);
            let first = watcher.and_then(|w| w.join().expect("journal watcher does not panic"));
            (launched, first)
        });
        let (finished, stdout, stderr) = launched?;
        let mut pass = Pass::empty();
        pass.wall_s = finished.wall_s;
        pass.cpu_s = finished.cpu_s;
        pass.peak_rss_kib = finished.max_rss_kib;
        pass.streams.push(stdout);
        pass.journal = std::fs::read_to_string(&journal_path).unwrap_or_default();
        pass.first_cell_ms = first_cell_ms;
        if telemetry {
            pass.merge_metrics(&metrics_path);
        }
        (pass.spill_bytes, pass.spill_files) = program::dir_usage(&cache);
        let restarts = match checks::restarts_in_summary(&stderr) {
            Some(0) => Ok(()),
            Some(n) => Err(format!("{n} worker restart(s)")),
            None => Err("no orchestrator summary".to_owned()),
        };
        self.checks
            .record(|| format!("{tag}: zero restarts"), restarts);
        let cells = self.specs[0].cells();
        let once = checks::journal_once(&pass.journal, cells);
        self.checks
            .record(|| format!("{tag}: each cell journaled once"), once);
        let _ = std::fs::remove_dir_all(&run_dir);
        Ok(pass)
    }

    /// Counts a pass's cells and checks that it reproduces the set-up
    /// pass byte for byte (fleet_warm: the merged stream).
    fn account(&mut self, pass: &Pass) {
        for (i, spec) in self.specs.iter().enumerate() {
            let cells = spec.cells();
            let ok = pass
                .streams
                .get(i)
                .and_then(|s| checks::parse_records(s).ok())
                .map_or(0, |records| records.values().filter(|r| r.is_ok()).count());
            self.cells_attempted += cells;
            self.cells_failed += cells.saturating_sub(ok);
            if let Some(reference) = self.reference.get(i) {
                let same =
                    checks::same_stream(reference, pass.streams.get(i).map_or("", String::as_str));
                self.checks.record(
                    || format!("{}: identical to the set-up pass", spec.name),
                    same,
                );
            }
        }
    }

    /// fleet_warm: the merged stream equals a one-process
    /// `mlrl campaign --canonical` of the same spec, made anew. It runs on
    /// two engine threads (canonical bytes do not depend on the thread
    /// count), which halves its share of the run.
    fn in_process_check(&mut self) -> Result<(), String> {
        let args = vec![
            "campaign".to_owned(),
            path_arg(&self.spec_paths[0]),
            "--canonical".to_owned(),
            "--threads".to_owned(),
            "2".to_owned(),
        ];
        let (_, stdout, _) = self.launch("in-process", &args)?;
        let same = checks::same_stream(&self.reference[0], &stdout);
        self.checks.record(
            || "merged stream equals the in-process campaign".to_owned(),
            same,
        );
        Ok(())
    }

    /// Prints the human summary and the closing JSON line; true when
    /// nothing failed.
    fn report(&self, passes: usize, metrics: &[(&str, &str, f64)]) -> bool {
        let failed = self.cells_failed + self.checks.failures.len();
        for failure in &self.checks.failures {
            eprintln!("perfbench: check failed: {failure}");
        }
        println!(
            "workload {} seed {}: {passes} timed pass(es) after 1 set-up pass; cells {} ({} failed), checks {} ({} failed)",
            self.opts.workload.name(),
            self.opts.seed,
            self.cells_attempted,
            self.cells_failed,
            self.checks.attempted,
            self.checks.failures.len()
        );
        for (name, unit, value) in metrics {
            println!("  {name:<34} {value:>16.6} {unit}");
        }
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, unit, value)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            self.cells_attempted + self.checks.attempted,
            body.join(", ")
        );
        failed == 0
    }
}

impl Pass {
    fn empty() -> Self {
        Self {
            wall_s: 0.0,
            cpu_s: 0.0,
            peak_rss_kib: 0,
            spill_bytes: 0,
            spill_files: 0,
            streams: Vec::new(),
            metrics: Metrics::default(),
            journal: String::new(),
            first_cell_ms: None,
        }
    }

    fn merge_metrics(&mut self, path: &Path) {
        if let Some(m) = std::fs::read_to_string(path)
            .ok()
            .and_then(|t| Metrics::parse(&t))
        {
            self.metrics.merge(&m);
        }
    }
}

fn path_arg(path: &Path) -> String {
    path.to_string_lossy().into_owned()
}

/// A finite number as JSON, every digit kept.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn median_of(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    let values: Vec<f64> = passes.iter().map(f).collect();
    stats::median(&values).unwrap_or(0.0)
}

fn end_to_end(setup_s: f64, passes: &[Pass]) -> Vec<(&'static str, &'static str, f64)> {
    let values = [
        median_of(passes, |p| p.wall_s),
        setup_s,
        median_of(passes, |p| p.peak_rss_kib as f64 / 1024.0),
        median_of(passes, |p| p.spill_bytes as f64 / MIB),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect()
}

/// Per-layer metrics: call times and counts from the replay, exact
/// counters and spans from the last traced pass's rollup, and what the
/// traced passes left on disk.
fn per_layer(
    layers: &Layers,
    passes: &[Pass],
    fleet: bool,
) -> Vec<(&'static str, &'static str, f64)> {
    let last = passes.last().expect("at least one traced pass");
    let m = &last.metrics;
    let counter = |name: &str| m.counters.get(name).copied().unwrap_or(0) as f64;
    let span_ms = |name: &str| m.spans.get(name).map_or(0.0, |s| s.total_us as f64 / 1e3);
    let cell_ms = |p: u8| {
        m.hists
            .get("cell")
            .and_then(|h| h.percentile(p))
            .map_or(0.0, |us| us as f64 / 1e3)
    };
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "netlist.sim_settles" => counter("sim.settles"),
                "netlist.sim_lanes" => counter("sim.lanes"),
                "sat.dip_solve_ms" => span_ms("sat.dip"),
                "sat.conflicts" => counter("sat.conflicts"),
                "sat.decisions" => counter("sat.decisions"),
                "sat.propagations" => counter("sat.propagations"),
                "sat.dips" => counter("sat.dips"),
                "engine.cache_hits" => counter("cache.hits"),
                "engine.cache_misses" => counter("cache.misses"),
                "engine.spill_read_ms" => span_ms("cache.spill.read"),
                "engine.spill_write_ms" => span_ms("cache.spill.write"),
                "engine.spill_files" => last.spill_files as f64,
                "engine.cell_p50_ms" => cell_ms(50),
                "engine.cell_p90_ms" => cell_ms(90),
                "orchestrate.first_cell_ms" => last.first_cell_ms.unwrap_or(0.0),
                // The engine's own pool reports idle time too; only the
                // orchestrated workload has workers to be idle.
                "orchestrate.worker_idle_ms" if fleet => counter("pool.idle_us") / 1e3,
                "orchestrate.worker_idle_ms" => 0.0,
                "orchestrate.journal_bytes" => last.journal.len() as f64,
                "obs.traced_pass_s" => median_of(passes, |p| p.wall_s),
                _ => layers.get(name),
            };
            (name, unit, value)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlrl_obs::json::{self, Value};

    /// BENCHMARK.json lists exactly the metrics this program prints.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let root = json::parse(&text).expect("valid JSON");
        let root = root.as_object().expect("object");
        let listed = |key: &str| -> Vec<(String, String)> {
            root[key]
                .as_array()
                .expect("array")
                .iter()
                .map(|m| {
                    let m = m.as_object().expect("metric object");
                    let s = |k: &str| m[k].as_str().expect("string").to_owned();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
        let workloads: Vec<&str> = root["workloads"]
            .as_array()
            .expect("array")
            .iter()
            .map(|w| {
                w.as_object().expect("object")["name"]
                    .as_str()
                    .expect("name")
            })
            .collect();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, names);
        assert!(matches!(root["run_seconds"], Value::Number(_)));
    }

    #[test]
    fn options_are_strict() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_options(&args(
            "--workload gate_attack --seed 3 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (ok.workload, ok.seed, ok.seconds, ok.trace),
            (Workload::GateAttack, 3, 10, true)
        );
        assert!(parse_options(&args(
            "--workload gate_attack --seed x --seconds 10 --trace 1"
        ))
        .is_err());
        assert!(parse_options(&args(
            "--workload gate_attack --seed 3 --seconds 10 --trace 2"
        ))
        .is_err());
        assert!(parse_options(&args("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse_options(&args("--workload gate_attack --seed 3 --seconds 10")).is_err());
        assert!(parse_options(&args(
            "--workload gate_attack --seed 3 --seconds 10 --trace 0 --extra 1"
        ))
        .is_err());
    }
}
