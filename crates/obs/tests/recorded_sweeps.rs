//! `marp-trace` reads the sweeps `marp-lab` records without losing
//! anything: every committed `results/sweep_*.json` parses back to the
//! same document, and `diagnose` prints the per-phase table before the
//! findings.

use marp_obs::{Diagnosis, Json, SweepReport};
use std::path::{Path, PathBuf};
use std::process::Command;

fn results() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

fn recorded_sweeps() -> Vec<PathBuf> {
    let mut sweeps: Vec<PathBuf> = std::fs::read_dir(results())
        .expect("results/ exists")
        .map(|entry| entry.unwrap().path())
        .filter(|path| {
            let name = path.file_name().unwrap().to_string_lossy();
            name.starts_with("sweep_") && name.ends_with(".json")
        })
        .collect();
    sweeps.sort();
    sweeps
}

fn load(path: &Path) -> (String, SweepReport) {
    let text = std::fs::read_to_string(path).unwrap();
    let report = SweepReport::from_json(&Json::parse(&text).unwrap()).unwrap();
    (text, report)
}

#[test]
fn every_recorded_sweep_reads_back_byte_for_byte() {
    let sweeps = recorded_sweeps();
    assert_eq!(sweeps.len(), 2, "{sweeps:?}");
    for path in sweeps {
        let (text, report) = load(&path);
        assert_eq!(report.to_json().render(), text, "{}", path.display());
    }
}

#[test]
fn the_n3_n5_n9_record_diagnoses_four_findings_convoy_first() {
    let (_, report) = load(&results().join("sweep_n3_n5_n9.json"));
    let rules: Vec<&str> = Diagnosis::from_sweep(&report)
        .verdicts
        .iter()
        .map(|v| v.rule)
        .collect();
    assert_eq!(
        rules,
        [
            "lock-queue-convoy",
            "wire-byte-growth",
            "migration-storm",
            "superlinear-phase"
        ]
    );
}

#[test]
fn diagnose_prints_the_table_then_the_diagnosis() {
    let path = results().join("sweep_n3_n5_n9.json");
    let out = Command::new(env!("CARGO_BIN_EXE_marp-trace"))
        .arg("diagnose")
        .arg(&path)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.starts_with("  n  commits     total_ms    queueing"),
        "{stdout}"
    );
    let (_, report) = load(&path);
    let diagnosis = Diagnosis::from_sweep(&report);
    assert_eq!(stdout, report.render() + &diagnosis.render());
    assert!(stdout.contains("diagnosis: 4 finding(s), ranked:"));
}
