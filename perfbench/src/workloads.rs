//! The three workloads as campaign specs, generated from the workload
//! seed, and their rendering into the spec-file format the program reads.

use mlrl_engine::drivers::fig6_campaigns;
use mlrl_engine::spec::{AttackKind, CampaignSpec, Level, OptLevel, SchemeKind};

/// Orchestrator workers of `fleet_warm`.
pub const FLEET_WORKERS: usize = 2;

/// Base seeds per `fleet_warm` grid cell.
const FLEET_SEEDS: u64 = 6;

/// Base seed of the `gate_attack` designs. At width 8 a design's gate
/// count swings 2-4x with its base seed (DFT: 1.9k to 8.8k gates over
/// seeds 1-10), and the SAT cells' time with it, so the designs stay
/// fixed and the workload seed picks the lock instances instead.
const GATE_BASE_SEED: u64 = 2022;

/// The `gate_attack` key budget for a workload seed: 75 % plus
/// `seed % 100` basis points. The engine derives each cell's lock, relock
/// and attack seeds from the budget in basis points, so every value gives
/// new lock instances, while the key length moves by at most one bit per
/// 100 lockable operations.
fn gate_budget(seed: u64) -> f64 {
    (7500 + seed % 100) as f64 / 10_000.0
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 6: SnapShot auto-ml against ASSURE/HRA/ERA, cold cache.
    Fig6Snapshot,
    /// Gate level: SAT attack and structural attacks after O2, cold cache.
    GateAttack,
    /// Two-worker orchestration over a cache filled in set-up.
    FleetWarm,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Fig6Snapshot,
        Workload::GateAttack,
        Workload::FleetWarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig6Snapshot => "fig6_snapshot",
            Workload::GateAttack => "gate_attack",
            Workload::FleetWarm => "fleet_warm",
        }
    }

    pub fn parse(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Self::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload `{name}` (expected one of: {})",
                    names.join(", ")
                )
            })
    }

    /// The campaigns one pass runs, in order. The workload seed reaches
    /// each spec file: as the base seed (`fig6_snapshot`: the seed itself;
    /// `fleet_warm`: six consecutive seeds from `6 * seed`), which the
    /// engine turns into every cell's design, lock, relock and attack
    /// seed; for `gate_attack`, as the budget's basis points (see
    /// [`gate_budget`]), which pick new lock, relock and attack seeds on
    /// fixed designs.
    pub fn campaigns(self, seed: u64) -> Vec<CampaignSpec> {
        let one_thread = |spec: CampaignSpec| CampaignSpec { threads: 1, ..spec };
        match self {
            Workload::Fig6Snapshot => {
                let benchmarks = ["FIR", "SASC", "N_1023"].map(String::from);
                fig6_campaigns(&benchmarks, 1, 20, seed)
                    .into_iter()
                    .map(one_thread)
                    .collect()
            }
            Workload::GateAttack => {
                let gate = CampaignSpec {
                    levels: vec![Level::Gate],
                    budgets: vec![gate_budget(seed)],
                    seeds: vec![GATE_BASE_SEED],
                    width: 8,
                    threads: 1,
                    opt_level: OptLevel::O2,
                    ..CampaignSpec::default()
                };
                vec![
                    CampaignSpec {
                        name: "gate-sat".to_owned(),
                        benchmarks: ["SIM_SPI", "USB_PHY", "I2C_SL"].map(String::from).to_vec(),
                        schemes: vec![
                            SchemeKind::Assure,
                            SchemeKind::Hra,
                            SchemeKind::Era,
                            SchemeKind::XorXnor,
                            SchemeKind::Mux,
                        ],
                        attacks: vec![AttackKind::Sat],
                        ..gate.clone()
                    },
                    CampaignSpec {
                        name: "gate-structural".to_owned(),
                        benchmarks: ["DFT", "IDFT"].map(String::from).to_vec(),
                        schemes: vec![SchemeKind::XorXnor, SchemeKind::Mux],
                        attacks: vec![AttackKind::FreqTable, AttackKind::Corruptibility],
                        ..gate
                    },
                ]
            }
            Workload::FleetWarm => vec![CampaignSpec {
                name: "fleet-warm".to_owned(),
                benchmarks: ["SASC", "SIM_SPI", "USB_PHY", "I2C_SL"]
                    .map(String::from)
                    .to_vec(),
                levels: vec![Level::Rtl, Level::Gate],
                schemes: vec![SchemeKind::Assure, SchemeKind::Hra, SchemeKind::Era],
                budgets: vec![0.25, 0.5, 0.75],
                seeds: (0..FLEET_SEEDS)
                    .map(|i| seed.wrapping_mul(FLEET_SEEDS).wrapping_add(i))
                    .collect(),
                attacks: vec![
                    AttackKind::FreqTable,
                    AttackKind::KpaModel,
                    AttackKind::PairAnalysis,
                    AttackKind::Corruptibility,
                ],
                width: 8,
                threads: 1,
                ..CampaignSpec::default()
            }],
        }
    }
}

/// Renders `spec` in the `key = value` spec-file format. Every field is
/// written, so the file does not lean on the parser's defaults.
pub fn render(spec: &CampaignSpec) -> String {
    fn join<T>(items: &[T], f: impl Fn(&T) -> String) -> String {
        items.iter().map(f).collect::<Vec<_>>().join(" ")
    }
    format!(
        "name = {}\nbenchmarks = {}\nlevels = {}\nschemes = {}\nbudgets = {}\nseeds = {}\n\
         attacks = {}\nrelock_rounds = {}\nwidth = {}\nthreads = {}\nsat_max_dips = {}\n\
         sat_max_clauses = {}\nwrong_keys = {}\ntrace = {}\nopt_level = {}\n",
        spec.name,
        spec.benchmarks.join(" "),
        join(&spec.levels, |l| l.name().to_owned()),
        join(&spec.schemes, |s| s.name().to_owned()),
        join(&spec.budgets, f64::to_string),
        join(&spec.seeds, u64::to_string),
        join(&spec.attacks, |a| a.name().to_owned()),
        spec.relock_rounds,
        spec.width,
        spec.threads,
        spec.sat_max_dips,
        spec.sat_max_clauses,
        spec.wrong_keys,
        spec.trace,
        spec.opt_level.name(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_specs_parse_back_to_themselves() {
        for workload in Workload::ALL {
            for seed in [0, 7, u64::MAX] {
                for spec in workload.campaigns(seed) {
                    let parsed = CampaignSpec::parse(&render(&spec)).expect("rendered spec parses");
                    assert_eq!(parsed, spec, "{}", workload.name());
                }
            }
        }
    }

    #[test]
    fn grids_have_the_documented_sizes() {
        let cells =
            |w: Workload| -> Vec<usize> { w.campaigns(1).iter().map(|s| s.cells()).collect() };
        assert_eq!(cells(Workload::Fig6Snapshot), vec![6, 3]);
        assert_eq!(cells(Workload::GateAttack), vec![15, 8]);
        assert_eq!(cells(Workload::FleetWarm), vec![1296]);
    }

    #[test]
    fn gate_budgets_move_the_cell_seeds_but_hardly_the_key() {
        use mlrl_engine::job::budget_bps;
        let bps: Vec<u64> = (0..100).map(|s| budget_bps(gate_budget(s))).collect();
        assert_eq!(bps, (7500..7600).collect::<Vec<_>>());
        assert_eq!(gate_budget(7), gate_budget(107));
    }

    #[test]
    fn the_seed_reaches_every_spec() {
        for workload in Workload::ALL {
            let a = workload.campaigns(1);
            let b = workload.campaigns(2);
            assert!(a.iter().zip(&b).all(|(x, y)| render(x) != render(y)));
        }
    }
}
