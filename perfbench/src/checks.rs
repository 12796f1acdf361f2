//! Output checks. Each one recomputes a result apart from the code path
//! that produced it, or tests a property the method must have; none
//! compares against a stored copy of earlier output.

use std::collections::{BTreeMap, BTreeSet};

use mlrl_attack::gate_snapshot::GateLocality;
use mlrl_attack::relock::TrainingSet;
use mlrl_attack::Locality;
use mlrl_locking::key::Key;
use mlrl_netlist::equiv::check_netlists;
use mlrl_netlist::Netlist;
use mlrl_obs::json::{self, Value};
use mlrl_rtl::equiv::{check_equiv, EquivConfig};
use mlrl_rtl::Module;

/// Random stimulus vectors per netlist equivalence probe.
const NETLIST_SAMPLES: usize = 256;

/// One canonical record of the program's `--canonical` output.
#[derive(Debug, Clone)]
pub struct Record(BTreeMap<String, Value>);

impl Record {
    pub fn num(&self, key: &str) -> Option<f64> {
        self.0.get(key).and_then(Value::as_f64)
    }

    pub fn flag(&self, key: &str) -> Option<bool> {
        match self.0.get(key) {
            Some(Value::Bool(b)) => Some(*b),
            _ => None,
        }
    }

    pub fn is_ok(&self) -> bool {
        self.0.get("status").and_then(Value::as_str) == Some("ok")
    }
}

/// Records of one campaign's canonical stream by grid index. The header
/// line must announce exactly as many records as follow.
pub fn parse_records(stream: &str) -> Result<BTreeMap<usize, Record>, String> {
    let mut lines = stream.lines();
    let header = lines.next().ok_or("empty canonical stream")?;
    let jobs = json::parse(header)
        .and_then(|v| v.as_object()?.get("jobs")?.as_f64())
        .ok_or_else(|| format!("bad stream header `{header}`"))? as usize;
    let mut records = BTreeMap::new();
    for line in lines {
        let object = json::parse(line)
            .and_then(|v| v.as_object().cloned())
            .ok_or_else(|| format!("unparseable record `{line}`"))?;
        let index = object
            .get("index")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("record without index `{line}`"))? as usize;
        if records.insert(index, Record(object)).is_some() {
            return Err(format!("record {index} appears twice"));
        }
    }
    if records.len() != jobs {
        return Err(format!(
            "header announces {jobs} records, stream has {}",
            records.len()
        ));
    }
    Ok(records)
}

/// Whether two values agree at the canonical stream's precision (four
/// decimals).
pub fn same_at_4dp(a: f64, b: f64) -> bool {
    format!("{a:.4}") == format!("{b:.4}")
}

/// Byte identity of two streams, naming the first differing line.
pub fn same_stream(reference: &str, candidate: &str) -> Result<(), String> {
    if reference == candidate {
        return Ok(());
    }
    let line = reference
        .lines()
        .zip(candidate.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| reference.lines().count().min(candidate.lines().count()));
    Err(format!(
        "streams differ from line {} ({} vs {} bytes)",
        line + 1,
        reference.len(),
        candidate.len()
    ))
}

/// A run-dir journal holds its header and every cell exactly once.
pub fn journal_once(journal: &str, cells: usize) -> Result<(), String> {
    let mut lines = journal.lines();
    let header = lines.next().ok_or("empty journal")?;
    let jobs = json::parse(header)
        .and_then(|v| v.as_object()?.get("jobs")?.as_f64())
        .ok_or_else(|| format!("bad journal header `{header}`"))? as usize;
    if jobs != cells {
        return Err(format!(
            "journal header announces {jobs} cells, expected {cells}"
        ));
    }
    let mut seen = BTreeSet::new();
    for line in lines {
        let index = json::parse(line)
            .and_then(|v| v.as_object()?.get("index")?.as_f64())
            .ok_or_else(|| format!("unparseable journal line `{line}`"))?
            as usize;
        if index >= cells || !seen.insert(index) {
            return Err(format!("cell {index} journaled twice or out of range"));
        }
    }
    if seen.len() != cells {
        return Err(format!("{} of {cells} cells journaled", seen.len()));
    }
    Ok(())
}

/// Restart count from the orchestrator's closing summary line
/// (`..., N restart(s), ...`).
pub fn restarts_in_summary(stderr: &str) -> Option<usize> {
    let summary = stderr
        .lines()
        .rev()
        .find(|l| l.starts_with("orchestrated "))?;
    let before = summary.split(" restart(s)").next()?;
    before.rsplit(' ').next()?.parse().ok()
}

/// Key bits of an RTL lock as plain bits, `K[0]` first.
pub fn key_bits(module: &Module, key: &Key) -> Vec<bool> {
    (0..module.key_width())
        .map(|i| key.bit(i).unwrap_or(false))
        .collect()
}

/// Single-bit flips [`unlocks`] tries before giving up.
const MAX_PROBES: usize = 64;

/// The correct key makes `locked` equivalent to `base`, and flipping one
/// key bit breaks that equivalence. Bits are flipped in the order of
/// `probes` until one flip shows: a flip can be invisible at the outputs
/// (an 8-bit `a << b` and `a >> b` agree, both 0, whenever `b >= 8`), but
/// a lock no single flip of which shows has a key that does not matter.
pub fn unlocks(
    base: &Module,
    locked: &Module,
    key: &[bool],
    probes: &[usize],
) -> Result<(), String> {
    let cfg = EquivConfig::default();
    let with_key = check_equiv(base, locked, &[], key, &cfg).map_err(|e| e.to_string())?;
    if !with_key.is_equivalent() {
        return Err(format!("correct key does not unlock: {with_key:?}"));
    }
    for &probe in probes.iter().take(MAX_PROBES) {
        let mut flipped = key.to_vec();
        let bit = flipped
            .get_mut(probe)
            .ok_or_else(|| format!("probe bit {probe} outside a {}-bit key", key.len()))?;
        *bit = !*bit;
        let wrong = check_equiv(base, locked, &[], &flipped, &cfg).map_err(|e| e.to_string())?;
        if !wrong.is_equivalent() {
            return Ok(());
        }
    }
    Err(format!(
        "no single-bit flip among the first {} probed leaves a visible difference",
        probes.len().min(MAX_PROBES)
    ))
}

/// Two netlists agree on random stimulus under their keys.
pub fn netlists_agree(
    a: &Netlist,
    b: &Netlist,
    key_a: &[bool],
    key_b: &[bool],
) -> Result<(), String> {
    let check =
        check_netlists(a, b, key_a, key_b, NETLIST_SAMPLES, 0x0B5E).map_err(|e| e.to_string())?;
    if check.is_equivalent() {
        Ok(())
    } else {
        Err(format!(
            "{} of {} vectors differ (first on `{}`)",
            check.mismatches,
            check.samples,
            check.first_mismatch.unwrap_or_default()
        ))
    }
}

/// KPA (%) of `predictions` against the true key, over the bits the key
/// holds.
pub fn kpa_of(predictions: &[(u32, bool)], key: &Key) -> f64 {
    let scored: Vec<bool> = predictions
        .iter()
        .filter_map(|&(bit, predicted)| key.bit(bit).map(|actual| actual == predicted))
        .collect();
    if scored.is_empty() {
        return 0.0;
    }
    100.0 * scored.iter().filter(|&&hit| hit).count() as f64 / scored.len() as f64
}

/// The RTL frequency-table attack's defining rule, recomputed from the
/// raw training rows: per `(C1, C2)` tuple, predict the majority label;
/// ties and unseen tuples take the global majority (a global tie reads
/// as `true`).
pub fn majority_predictions(training: &TrainingSet, targets: &[Locality]) -> Vec<(u32, bool)> {
    let mut table: BTreeMap<(u32, u32), [usize; 2]> = BTreeMap::new();
    let mut global = [0usize; 2];
    for (row, &label) in training.features.iter().zip(&training.labels) {
        let slot = usize::from(label == 1);
        table.entry((row[0], row[1])).or_default()[slot] += 1;
        global[slot] += 1;
    }
    targets
        .iter()
        .map(|loc| {
            let [zeros, ones] = table.get(&(loc.c1, loc.c2)).copied().unwrap_or(global);
            let predicted = if zeros == ones {
                global[1] >= global[0]
            } else {
                ones > zeros
            };
            (loc.key_bit, predicted)
        })
        .collect()
}

/// The gate-level frequency-table KPA (%), recomputed from the raw
/// training rows: per full locality tuple, predict `1` only on a strict
/// majority of ones (unseen tuples predict `0`), scored over the target
/// localities the key covers.
pub fn gate_majority_kpa(training: &TrainingSet, targets: &[GateLocality], key: &[bool]) -> f64 {
    let mut table: BTreeMap<&[u32], [usize; 2]> = BTreeMap::new();
    for (row, &label) in training.features.iter().zip(&training.labels) {
        table.entry(row.as_slice()).or_default()[usize::from(label == 1)] += 1;
    }
    let scored: Vec<bool> = targets
        .iter()
        .filter(|loc| loc.key_bit < key.len())
        .map(|loc| {
            let predicted = table
                .get(loc.features.as_slice())
                .is_some_and(|[zeros, ones]| ones > zeros);
            predicted == key[loc.key_bit]
        })
        .collect();
    if scored.is_empty() {
        return 0.0;
    }
    100.0 * scored.iter().filter(|&&hit| hit).count() as f64 / scored.len() as f64
}

/// Distinct feature tuples among the training rows.
pub fn distinct_rows(training: &TrainingSet) -> usize {
    training.features.iter().collect::<BTreeSet<_>>().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlrl_attack::extract_localities;
    use mlrl_attack::freq_table::freq_table_attack_with_training;
    use mlrl_attack::relock::{build_training_set, RelockConfig};
    use mlrl_locking::assure::{lock_operations, AssureConfig};
    use mlrl_netlist::build::NetlistBuilder;
    use mlrl_netlist::lock::xor_xnor_lock;
    use mlrl_rtl::bench_designs::{benchmark_by_name, generate_with_width};
    use mlrl_rtl::visit;
    use mlrl_sat::attack::{sat_attack, SatAttackConfig, SimOracle};

    fn locked_sasc() -> (Module, Module, Key) {
        let spec = benchmark_by_name("SASC").expect("benchmark");
        let base = generate_with_width(&spec, 3, 8);
        let mut locked = base.clone();
        let budget = visit::binary_ops(&locked).len() * 3 / 4;
        let key = lock_operations(&mut locked, &AssureConfig::serial(budget, 4)).expect("locks");
        (base, locked, key)
    }

    #[test]
    fn lock_check_passes_the_true_key_and_fires_on_a_flipped_bit() {
        let (base, locked, key) = locked_sasc();
        let bits = key_bits(&locked, &key);
        let probes: Vec<usize> = (0..bits.len()).collect();
        unlocks(&base, &locked, &bits, &probes).expect("true key unlocks");
        // A flip no output shows is not a broken key: find one that shows.
        let visible = probes
            .iter()
            .find(|&&i| {
                let mut broken = bits.clone();
                broken[i] = !broken[i];
                unlocks(&base, &locked, &broken, &probes).is_err()
            })
            .copied();
        assert!(
            visible.is_some(),
            "some flipped key bit must fail the check"
        );
        // A key with no bit that matters fails too.
        assert!(unlocks(&base, &base, &[], &[]).is_err());
    }

    #[test]
    fn sat_key_check_fires_on_a_flipped_recovered_bit() {
        let mut nb = NetlistBuilder::new(Netlist::new("t"));
        let a = nb.input_lane("a", 8);
        let b = nb.input_lane("b", 8);
        let s = nb.add(a, b);
        nb.output_from_lane("y", s, 8);
        let mut locked = nb.finish();
        locked.sweep();
        let original = locked.clone();
        let key = xor_xnor_lock(&mut locked, 8, 7).expect("locks");
        let mut oracle = SimOracle::new(&locked, key.bits()).expect("oracle");
        let report = sat_attack(&locked, &mut oracle, &SatAttackConfig::default()).expect("attack");
        assert!(report.proved);
        netlists_agree(&original, &locked, &[], &report.key).expect("recovered key unlocks");
        let mut broken = report.key.clone();
        broken[0] = !broken[0];
        assert!(netlists_agree(&original, &locked, &[], &broken).is_err());
    }

    #[test]
    fn stream_check_fires_on_an_edited_merged_stream() {
        let stream = "{\"campaign\":\"c\",\"jobs\":2}\n{\"index\":0,\"kpa\":50.0000}\n{\"index\":1,\"kpa\":75.0000}\n";
        same_stream(stream, stream).expect("identical");
        let edited = stream.replace("75.0000", "75.0001");
        let err = same_stream(stream, &edited).expect_err("edit detected");
        assert!(err.contains("line 3"), "{err}");
        assert!(same_stream(stream, &stream[..stream.len() - 1]).is_err());
    }

    #[test]
    fn journal_check_fires_on_a_repeated_or_missing_cell() {
        let journal =
            "{\"campaign\":\"c\",\"jobs\":2,\"spec\":\"00\"}\n{\"index\":1}\n{\"index\":0}\n";
        journal_once(journal, 2).expect("complete");
        let repeated = format!("{journal}{{\"index\":1}}\n");
        assert!(journal_once(&repeated, 2).is_err());
        let missing: String = journal.lines().take(2).map(|l| format!("{l}\n")).collect();
        assert!(journal_once(&missing, 2).is_err());
    }

    #[test]
    fn restarts_are_read_from_the_summary() {
        let stderr = "[mlrl orchestrate] 2/2 cells\norchestrated `c`: 2 cells (0 resumed, 2 executed, 0 failed) on 2 worker process(es), 3 restart(s), 10 ms; merged -> r/merged.jsonl\n";
        assert_eq!(restarts_in_summary(stderr), Some(3));
        assert_eq!(restarts_in_summary("no summary"), None);
    }

    #[test]
    fn freq_table_check_fires_on_a_perturbed_training_count() {
        let (_, locked, key) = locked_sasc();
        let relock = RelockConfig {
            rounds: 10,
            budget_fraction: 0.75,
            seed: 5,
        };
        let training = build_training_set(&locked, &relock);
        let targets = extract_localities(&locked);
        let report = freq_table_attack_with_training(&locked, &key, &training).expect("attackable");
        assert_eq!(
            majority_predictions(&training, &targets),
            report.predictions
        );
        assert!(same_at_4dp(kpa_of(&report.predictions, &key), report.kpa));

        // Outvote the first target tuple's majority by one row.
        let first = &targets[0];
        let (_, predicted) = report.predictions[0];
        let votes = training
            .features
            .iter()
            .filter(|row| (row[0], row[1]) == (first.c1, first.c2))
            .count();
        let mut perturbed = training.clone();
        for _ in 0..=votes {
            perturbed.features.push(vec![first.c1, first.c2]);
            perturbed.labels.push(usize::from(!predicted));
        }
        assert_ne!(
            majority_predictions(&perturbed, &targets),
            report.predictions
        );
    }

    #[test]
    fn gate_table_check_fires_on_a_perturbed_training_count() {
        let rows = vec![
            vec![1, 2, 3, 4, 5],
            vec![1, 2, 3, 4, 5],
            vec![9, 9, 9, 9, 9],
        ];
        let training = TrainingSet {
            features: rows,
            labels: vec![1, 1, 0],
        };
        let targets = vec![
            GateLocality {
                key_bit: 0,
                features: vec![1, 2, 3, 4, 5],
            },
            GateLocality {
                key_bit: 1,
                features: vec![7, 7, 7, 7, 7],
            },
        ];
        assert_eq!(
            gate_majority_kpa(&training, &targets, &[true, false]),
            100.0
        );
        let mut perturbed = training.clone();
        perturbed.labels[0] = 0;
        assert_eq!(
            gate_majority_kpa(&perturbed, &targets, &[true, false]),
            50.0
        );
    }

    #[test]
    fn records_parse_and_reject_a_short_stream() {
        let stream = "{\"campaign\":\"c\",\"jobs\":1}\n{\"index\":0,\"kpa\":61.7021,\"sat_proved\":true,\"status\":\"ok\"}\n";
        let records = parse_records(stream).expect("parses");
        assert_eq!(records[&0].num("kpa"), Some(61.7021));
        assert_eq!(records[&0].flag("sat_proved"), Some(true));
        assert!(records[&0].is_ok());
        assert!(parse_records("{\"campaign\":\"c\",\"jobs\":2}\n{\"index\":0}\n").is_err());
    }
}
