//! In-process replay of a pass's cells through the crates' public entry
//! points, with the seeds the engine derives for each cell
//! (`scheduled_jobs` and `Job::{lock,relock,attack}_seed`). The output
//! checks compare the program's canonical records against what the
//! replay recomputes; every call is timed, which gives the per-layer
//! numbers of the traced run. Nothing here turns on tracing inside the
//! program.

use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::time::{Duration, Instant};

use mlrl_attack::freq_table::freq_table_attack_with_training;
use mlrl_attack::gate_snapshot::{
    build_gate_training_set, extract_gate_localities, gate_freq_table_attack_with_training,
    GateAttackConfig,
};
use mlrl_attack::relock::{build_training_set, RelockConfig, TrainingSet};
use mlrl_attack::{extract_localities, snapshot_attack_with_training, AttackConfig, Locality};
use mlrl_engine::job::Job;
use mlrl_engine::scheduled_jobs;
use mlrl_engine::spec::{resolve_benchmark, AttackKind, CampaignSpec, Level, OptLevel, SchemeKind};
use mlrl_locking::assure::{lock_operations, AssureConfig};
use mlrl_locking::corruptibility::{
    measure_corruptibility, measure_gate_corruptibility, CorruptibilityConfig,
};
use mlrl_locking::era::{era_lock, EraConfig};
use mlrl_locking::hra::{hra_lock, HraConfig};
use mlrl_locking::metric::SecurityMetric;
use mlrl_locking::{Key, KeyBitKind, Odt, PairTable};
use mlrl_ml::automl::ModelFamily;
use mlrl_ml::{auto_fit, AutoMlConfig, Dataset, OneHotEncoder};
use mlrl_netlist::lock::{lock_netlist, GateKey, GateLockScheme};
use mlrl_netlist::lower::lower_module;
use mlrl_netlist::opt::optimize;
use mlrl_netlist::serdes::{emit_netlist, parse_netlist};
use mlrl_netlist::Netlist;
use mlrl_rtl::bench_designs::generate_with_width;
use mlrl_rtl::emit::emit_verilog;
use mlrl_rtl::parser::parse_verilog;
use mlrl_rtl::{visit, Module};
use mlrl_sat::{sat_attack, Oracle, SatAttackConfig, SimOracle};

use crate::checks::{self, Record};

/// The auto-ml families timed one at a time, with their metric names.
const FAMILIES: [(ModelFamily, &str); 7] = [
    (ModelFamily::Tree, "ml.family.tree_ms"),
    (ModelFamily::Forest, "ml.family.forest_ms"),
    (ModelFamily::AdaBoost, "ml.family.adaboost_ms"),
    (ModelFamily::Knn, "ml.family.knn_ms"),
    (ModelFamily::NaiveBayes, "ml.family.naive_bayes_ms"),
    (ModelFamily::Mlp, "ml.family.mlp_ms"),
    (ModelFamily::Logistic, "ml.family.logistic_ms"),
];

/// Per-layer totals: call times in milliseconds and work counts.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Runs `f`, adding its wall time to `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.add(name, started.elapsed().as_secs_f64() * 1e3);
        out
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_default() += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Checks attempted and the failures among them.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: usize,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn record(&mut self, what: impl FnOnce() -> String, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failures.push(format!("{}: {e}", what()));
        }
    }
}

/// An oracle that times the queries it forwards.
struct TimedOracle<O> {
    inner: O,
    spent: Duration,
}

impl<O: Oracle> Oracle for TimedOracle<O> {
    fn query(&mut self, inputs: &[(String, u64)]) -> Vec<(String, u64)> {
        let started = Instant::now();
        let out = self.inner.query(inputs);
        self.spent += started.elapsed();
        out
    }

    fn query_batch(&mut self, batch: &[&[(String, u64)]]) -> Vec<Vec<(String, u64)>> {
        let started = Instant::now();
        let out = self.inner.query_batch(batch);
        self.spent += started.elapsed();
        out
    }
}

struct Base {
    module: Module,
    lockable: usize,
}

struct RtlLock {
    module: Module,
    key: Key,
    bits: Vec<bool>,
}

struct GateLock {
    netlist: Netlist,
    key: Vec<bool>,
}

/// Artifacts are shared between cells the way the engine's cache shares
/// them, so each is built (and timed) once per replay.
type ArtifactKey = (String, u64, &'static str, u64);

pub struct Replay {
    pub layers: Layers,
    pub checks: Checks,
    /// Also time the stand-alone auto-ml search and each family on its
    /// own (the traced run only: it doubles the ML work).
    fit_families: bool,
    bases: HashMap<(String, u64, u32), Rc<Base>>,
    base_nets: HashMap<(String, u64, u32, OptLevel), Rc<Netlist>>,
    rtl_locks: HashMap<ArtifactKey, Rc<RtlLock>>,
    gate_locks: HashMap<(ArtifactKey, OptLevel), Rc<GateLock>>,
}

fn agree(what: &str, recorded: Option<f64>, ours: f64) -> Result<(), String> {
    match recorded {
        Some(r) if checks::same_at_4dp(r, ours) => Ok(()),
        Some(r) => Err(format!(
            "{what}: record says {r:.4}, replay gives {ours:.4}"
        )),
        None => Err(format!("{what}: missing from the record")),
    }
}

fn artifact_key(job: &Job) -> ArtifactKey {
    (
        job.benchmark.clone(),
        job.base_seed,
        job.scheme.name(),
        job.derived_seed,
    )
}

impl Replay {
    pub fn new(fit_families: bool) -> Self {
        Self {
            layers: Layers::default(),
            checks: Checks::default(),
            fit_families,
            bases: HashMap::new(),
            base_nets: HashMap::new(),
            rtl_locks: HashMap::new(),
            gate_locks: HashMap::new(),
        }
    }

    /// Replays every cell of `spec` against its records.
    pub fn campaign(&mut self, spec: &CampaignSpec, records: &BTreeMap<usize, Record>) {
        for job in scheduled_jobs(spec) {
            let label = || {
                format!(
                    "{} cell {} ({} {} {} {})",
                    spec.name,
                    job.index,
                    job.benchmark,
                    job.level.name(),
                    job.scheme.name(),
                    job.attack.name()
                )
            };
            let outcome = match records.get(&job.index) {
                None => Err("no record".to_owned()),
                Some(record) => match job.level {
                    Level::Rtl => self.rtl_cell(spec, &job, record, &label),
                    Level::Gate => self.gate_cell(spec, &job, record, &label),
                },
            };
            self.checks.record(label, outcome);
        }
    }

    fn base(
        &mut self,
        spec: &CampaignSpec,
        job: &Job,
        label: &dyn Fn() -> String,
    ) -> Result<Rc<Base>, String> {
        let key = (job.benchmark.clone(), job.generate_seed(), spec.width);
        if let Some(base) = self.bases.get(&key) {
            return Ok(base.clone());
        }
        let design = resolve_benchmark(&job.benchmark).ok_or("unknown benchmark")?;
        let module = self.layers.time("rtl.generate_ms", || {
            generate_with_width(&design, job.generate_seed(), spec.width)
        });
        self.verilog_round_trip(&module, label)?;
        let base = Rc::new(Base {
            lockable: visit::binary_ops(&module).len(),
            module,
        });
        self.bases.insert(key, base.clone());
        Ok(base)
    }

    /// Emits `module` and parses it back, as the engine's spill does;
    /// `emit -> parse -> emit` must be the identity.
    fn verilog_round_trip(
        &mut self,
        module: &Module,
        label: &dyn Fn() -> String,
    ) -> Result<(), String> {
        let verilog = self
            .layers
            .time("rtl.emit_ms", || emit_verilog(module))
            .map_err(|e| e.to_string())?;
        let parsed = self
            .layers
            .time("rtl.parse_ms", || parse_verilog(&verilog))
            .map_err(|e| e.to_string())?;
        let round_trip = match emit_verilog(&parsed) {
            Ok(again) if again == verilog => Ok(()),
            _ => Err("emit -> parse -> emit changes the Verilog".to_owned()),
        };
        self.checks
            .record(|| format!("{}: Verilog round trip", label()), round_trip);
        Ok(())
    }

    /// The engine's RTL lock of a cell; checked once per locked instance.
    fn rtl_lock(
        &mut self,
        base: &Base,
        job: &Job,
        label: &dyn Fn() -> String,
    ) -> Result<Rc<RtlLock>, String> {
        let key = artifact_key(job);
        if let Some(lock) = self.rtl_locks.get(&key) {
            return Ok(lock.clone());
        }
        let budget = ((base.lockable as f64) * job.budget).round().max(1.0) as usize;
        let seed = job.lock_seed();
        let mut module = base.module.clone();
        let locked = match job.scheme {
            SchemeKind::Assure => self.layers.time("locking.assure_ms", || {
                lock_operations(&mut module, &AssureConfig::serial(budget, seed))
            }),
            SchemeKind::Hra => self.layers.time("locking.hra_ms", || {
                hra_lock(&mut module, &HraConfig::new(budget, seed)).map(|o| o.key)
            }),
            SchemeKind::Era => self.layers.time("locking.era_ms", || {
                era_lock(&mut module, &EraConfig::new(budget, seed)).map(|o| o.key)
            }),
            other => return Err(format!("scheme `{}` is not replayed", other.name())),
        };
        let lock_key = locked.map_err(|e| e.to_string())?;
        let bits = checks::key_bits(&module, &lock_key);
        let probes: Vec<usize> = lock_key
            .bits_of_kind(KeyBitKind::Operation)
            .iter()
            .map(|&(bit, _)| bit as usize)
            .collect();
        let unlocks = checks::unlocks(&base.module, &module, &bits, &probes);
        self.checks.record(
            || format!("{}: key unlocks, flipped bit does not", label()),
            unlocks,
        );
        self.verilog_round_trip(&module, label)?;
        let lock = Rc::new(RtlLock {
            module,
            key: lock_key,
            bits,
        });
        self.rtl_locks.insert(key, lock.clone());
        Ok(lock)
    }

    fn rtl_cell(
        &mut self,
        spec: &CampaignSpec,
        job: &Job,
        record: &Record,
        label: &dyn Fn() -> String,
    ) -> Result<(), String> {
        if !record.is_ok() {
            return Err("cell failed in the program".to_owned());
        }
        let base = self.base(spec, job, label)?;
        let lock = self.rtl_lock(&base, job, label)?;
        self.metric(&base, &lock, record)?;
        match job.attack {
            AttackKind::Snapshot => self.snapshot(spec, job, record, &lock, label),
            AttackKind::FreqTable => {
                let (training, targets) = self.rtl_training(spec, job, &lock);
                let ours = checks::majority_predictions(&training, &targets);
                self.majority_table(&lock, &training, &ours, label);
                agree("kpa", record.num("kpa"), checks::kpa_of(&ours, &lock.key))
            }
            AttackKind::Corruptibility => {
                let cfg = CorruptibilityConfig {
                    wrong_keys: spec.wrong_keys,
                    seed: job.attack_seed(),
                    ..Default::default()
                };
                let report = self
                    .layers
                    .time("locking.corruptibility_ms", || {
                        measure_corruptibility(&base.module, &lock.module, &lock.bits, &cfg)
                    })
                    .map_err(|e| e.to_string())?;
                agree(
                    "corruption_rate",
                    record.num("corruption_rate"),
                    report.corruption_rate,
                )
            }
            _ => Ok(()),
        }
    }

    /// The security metric of the final design against the base ODT.
    fn metric(&mut self, base: &Base, lock: &RtlLock, record: &Record) -> Result<(), String> {
        let metric = self.layers.time("locking.metric_ms", || {
            let initial = Odt::load(&base.module, PairTable::fixed());
            SecurityMetric::new(&initial).global(&Odt::load(&lock.module, PairTable::fixed()))
        });
        agree("metric", record.num("metric"), metric)
    }

    fn rtl_training(
        &mut self,
        spec: &CampaignSpec,
        job: &Job,
        lock: &RtlLock,
    ) -> (TrainingSet, Vec<Locality>) {
        let relock = RelockConfig {
            rounds: spec.relock_rounds,
            budget_fraction: 0.75,
            seed: job.relock_seed(),
        };
        let training = self.layers.time("attack.relock_ms", || {
            build_training_set(&lock.module, &relock)
        });
        self.layers
            .add("attack.training_rows", training.len() as f64);
        let targets = self
            .layers
            .time("attack.extract_ms", || extract_localities(&lock.module));
        (training, targets)
    }

    /// The per-tuple majority table built here from the raw training rows
    /// reproduces `freq_table_attack_with_training`.
    fn majority_table(
        &mut self,
        lock: &RtlLock,
        training: &TrainingSet,
        ours: &[(u32, bool)],
        label: &dyn Fn() -> String,
    ) {
        let outcome = match freq_table_attack_with_training(&lock.module, &lock.key, training) {
            None => Err("frequency table found no localities".to_owned()),
            Some(report) if report.predictions != ours => {
                Err("frequency-table predictions differ from the majority table".to_owned())
            }
            Some(report) if !checks::same_at_4dp(report.kpa, checks::kpa_of(ours, &lock.key)) => {
                Err(format!("frequency-table KPA {:.4} differs", report.kpa))
            }
            Some(_) => Ok(()),
        };
        self.checks
            .record(|| format!("{}: majority table", label()), outcome);
    }

    fn snapshot(
        &mut self,
        spec: &CampaignSpec,
        job: &Job,
        record: &Record,
        lock: &RtlLock,
        label: &dyn Fn() -> String,
    ) -> Result<(), String> {
        let (training, targets) = self.rtl_training(spec, job, lock);
        let ours = checks::majority_predictions(&training, &targets);
        self.majority_table(lock, &training, &ours, label);
        self.layers.add("ml.fit_rows", training.len() as f64);
        self.layers
            .add("ml.distinct_rows", checks::distinct_rows(&training) as f64);
        let cfg = AttackConfig {
            relock: RelockConfig {
                rounds: spec.relock_rounds,
                budget_fraction: 0.75,
                seed: job.relock_seed(),
            },
            automl: AutoMlConfig {
                seed: job.attack_seed(),
                ..Default::default()
            },
            context_features: false,
        };
        let report = snapshot_attack_with_training(&lock.module, &lock.key, &cfg, &training)
            .ok_or("target exposes no key-controlled localities")?;
        if self.fit_families {
            self.time_fits(&training, &targets, job.attack_seed());
        }
        agree(
            "kpa from the attack's predictions",
            record.num("kpa"),
            checks::kpa_of(&report.predictions, &lock.key),
        )
    }

    /// Times the auto-ml search over the attack's encoded training set,
    /// then each family alone.
    fn time_fits(&mut self, training: &TrainingSet, targets: &[Locality], seed: u64) {
        let mut vocab = training.features.clone();
        vocab.extend(targets.iter().map(Locality::features));
        let encoder = OneHotEncoder::fit(&vocab);
        let data = Dataset::from_rows(
            encoder.transform_all(&training.features),
            training.labels.clone(),
        )
        .expect("training rows and labels have one length");
        let cfg = AutoMlConfig {
            seed,
            ..Default::default()
        };
        self.layers.time("ml.auto_fit_ms", || auto_fit(&data, &cfg));
        for (family, name) in FAMILIES {
            let only = AutoMlConfig {
                families: vec![family],
                ..cfg.clone()
            };
            self.layers.time(name, || auto_fit(&data, &only));
        }
    }

    /// The engine's synthesis: lower, scan view, sweep, optimize. Checks
    /// the optimized netlist against the unoptimized one and the netlist
    /// text round trip.
    fn synthesize(
        &mut self,
        module: &Module,
        level: OptLevel,
        key: &[bool],
        label: &dyn Fn() -> String,
    ) -> Result<Netlist, String> {
        let unoptimized = self
            .layers
            .time("netlist.lower_ms", || {
                lower_module(module).map(|n| {
                    let mut scan = n.to_scan_view();
                    scan.sweep();
                    scan
                })
            })
            .map_err(|e| e.to_string())?;
        let mut netlist = unoptimized.clone();
        if level != OptLevel::O0 {
            let stats = self
                .layers
                .time("netlist.opt_ms", || optimize(&mut netlist, level));
            self.layers
                .add("netlist.opt_gates_removed", stats.removed() as f64);
            let (before, after) = (unoptimized.gates().len(), netlist.gates().len());
            let outcome = if after > before {
                Err(format!(
                    "{} grew the netlist from {before} to {after} gates",
                    level.name()
                ))
            } else {
                checks::netlists_agree(&unoptimized, &netlist, key, key)
            };
            self.checks.record(
                || {
                    format!(
                        "{}: {} netlist equivalent to O0 and no larger",
                        label(),
                        level.name()
                    )
                },
                outcome,
            );
        }
        let text = self
            .layers
            .time("netlist.serdes_emit_ms", || emit_netlist(&netlist));
        let parsed = self
            .layers
            .time("netlist.serdes_parse_ms", || parse_netlist(&text))
            .map_err(|e| e.to_string())?;
        let round_trip = if emit_netlist(&parsed) == text {
            Ok(())
        } else {
            Err("emit -> parse -> emit changes the netlist text".to_owned())
        };
        self.checks.record(
            || format!("{}: netlist text round trip", label()),
            round_trip,
        );
        Ok(netlist)
    }

    fn base_netlist(
        &mut self,
        spec: &CampaignSpec,
        job: &Job,
        base: &Base,
        label: &dyn Fn() -> String,
    ) -> Result<Rc<Netlist>, String> {
        let key = (
            job.benchmark.clone(),
            job.generate_seed(),
            spec.width,
            spec.opt_level,
        );
        if let Some(net) = self.base_nets.get(&key) {
            return Ok(net.clone());
        }
        let net = Rc::new(self.synthesize(&base.module, spec.opt_level, &[], label)?);
        self.base_nets.insert(key, net.clone());
        Ok(net)
    }

    fn gate_lock(
        &mut self,
        spec: &CampaignSpec,
        job: &Job,
        record: &Record,
        label: &dyn Fn() -> String,
    ) -> Result<(Rc<Netlist>, Rc<GateLock>), String> {
        let base = self.base(spec, job, label)?;
        let base_net = self.base_netlist(spec, job, &base, label)?;
        let key = (artifact_key(job), spec.opt_level);
        if let Some(lock) = self.gate_locks.get(&key) {
            return Ok((base_net, lock.clone()));
        }
        let lock = if job.scheme.is_gate_scheme() {
            let key_len = ((base.lockable as f64) * job.budget).round().max(1.0) as usize;
            let scheme = if job.scheme == SchemeKind::XorXnor {
                GateLockScheme::XorXnor
            } else {
                GateLockScheme::Mux
            };
            let mut netlist = (*base_net).clone();
            let gate_key = self
                .layers
                .time("netlist.gate_lock_ms", || {
                    lock_netlist(&mut netlist, scheme, key_len, job.lock_seed())
                })
                .map_err(|e| e.to_string())?;
            let unlocks = checks::netlists_agree(&base_net, &netlist, &[], gate_key.bits());
            self.checks
                .record(|| format!("{}: gate key unlocks", label()), unlocks);
            GateLock {
                netlist,
                key: gate_key.bits().to_vec(),
            }
        } else {
            let rtl = self.rtl_lock(&base, job, label)?;
            self.metric(&base, &rtl, record)?;
            GateLock {
                netlist: self.synthesize(&rtl.module, spec.opt_level, &rtl.bits, label)?,
                key: rtl.bits.clone(),
            }
        };
        self.layers
            .add("netlist.gates", lock.netlist.gates().len() as f64);
        let lock = Rc::new(lock);
        self.gate_locks.insert(key, lock.clone());
        Ok((base_net, lock))
    }

    fn gate_cell(
        &mut self,
        spec: &CampaignSpec,
        job: &Job,
        record: &Record,
        label: &dyn Fn() -> String,
    ) -> Result<(), String> {
        if !record.is_ok() {
            return Err("cell failed in the program".to_owned());
        }
        let (base_net, lock) = self.gate_lock(spec, job, record, label)?;
        agree(
            "gates",
            record.num("gates"),
            lock.netlist.gates().len() as f64,
        )?;
        match job.attack {
            AttackKind::Sat => self.sat(spec, record, &base_net, &lock),
            AttackKind::FreqTable => {
                let cfg = GateAttackConfig {
                    scheme: if job.scheme == SchemeKind::XorXnor {
                        GateLockScheme::XorXnor
                    } else {
                        GateLockScheme::Mux
                    },
                    rounds: spec.relock_rounds,
                    bits_per_round: lock.key.len().clamp(1, 64),
                    seed: job.relock_seed(),
                    automl: AutoMlConfig {
                        seed: job.attack_seed(),
                        ..Default::default()
                    },
                };
                let training = self.layers.time("attack.gate_relock_ms", || {
                    build_gate_training_set(&lock.netlist, &cfg)
                });
                self.layers
                    .add("attack.gate_training_rows", training.len() as f64);
                let gate_key = GateKey::from(lock.key.clone());
                let report = self
                    .layers
                    .time("attack.freq_table_ms", || {
                        gate_freq_table_attack_with_training(&lock.netlist, &gate_key, &training)
                    })
                    .ok_or("target exposes no key-gate localities")?;
                let targets = extract_gate_localities(&lock.netlist);
                let ours = checks::gate_majority_kpa(&training, &targets, &lock.key);
                agree("kpa", record.num("kpa"), ours)?;
                agree("kpa of the attack", Some(report.kpa), ours)
            }
            AttackKind::Corruptibility => {
                let cfg = CorruptibilityConfig {
                    wrong_keys: spec.wrong_keys,
                    seed: job.attack_seed(),
                    ..Default::default()
                };
                let report = self
                    .layers
                    .time("locking.gate_corruptibility_ms", || {
                        measure_gate_corruptibility(&lock.netlist, &lock.netlist, &lock.key, &cfg)
                    })
                    .map_err(|e| e.to_string())?;
                agree(
                    "corruption_rate",
                    record.num("corruption_rate"),
                    report.corruption_rate,
                )
            }
            _ => Ok(()),
        }
    }

    /// Re-runs the SAT attack: it must prove within the DIP cap, agree
    /// with the record, and its key must unlock the netlist.
    fn sat(
        &mut self,
        spec: &CampaignSpec,
        record: &Record,
        base: &Netlist,
        lock: &GateLock,
    ) -> Result<(), String> {
        let cfg = SatAttackConfig {
            max_dips: spec.sat_max_dips,
            max_clauses: match spec.sat_max_clauses {
                0 => usize::MAX,
                n => n,
            },
            ..Default::default()
        };
        let mut oracle = TimedOracle {
            inner: SimOracle::new(&lock.netlist, &lock.key).map_err(|e| e.to_string())?,
            spent: Duration::ZERO,
        };
        let report = self
            .layers
            .time("sat.attack_ms", || {
                sat_attack(&lock.netlist, &mut oracle, &cfg)
            })
            .map_err(|e| e.to_string())?;
        self.layers
            .add("sat.oracle_ms", oracle.spent.as_secs_f64() * 1e3);
        if !report.proved || report.dips > cfg.max_dips {
            return Err(format!(
                "not proved within {} DIPs ({} used)",
                cfg.max_dips, report.dips
            ));
        }
        if record.flag("sat_proved") != Some(true) {
            return Err("record does not say proved".to_owned());
        }
        agree("sat_dips", record.num("sat_dips"), report.dips as f64)?;
        checks::netlists_agree(base, &lock.netlist, &[], &report.key)
            .map_err(|e| format!("recovered key does not unlock: {e}"))
    }
}
