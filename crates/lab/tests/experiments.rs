//! The experiment table against what the repo publishes: `results/` is
//! what the table prints, and `EXPERIMENTS.md` quotes `results/`.

use marp_lab::{results, Experiment, EXPERIMENTS};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo(path: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(path)
}

fn experiment(name: &str) -> Experiment {
    *EXPERIMENTS
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("no experiment named {name}"))
}

#[test]
fn names_are_unique() {
    let names: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(names.len(), EXPERIMENTS.len());
}

#[test]
fn results_holds_one_file_per_recorded_experiment_and_the_two_sweeps() {
    let mut expected: BTreeSet<String> = EXPERIMENTS
        .iter()
        .filter(|e| e.recorded)
        .map(|e| format!("{}.txt", e.name))
        .collect();
    expected.insert("sweep_smoke.json".into());
    expected.insert("sweep_n3_n5_n9.json".into());
    let present: BTreeSet<String> = std::fs::read_dir(repo("results"))
        .expect("results/ exists")
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(present, expected);
}

#[test]
fn experiments_md_names_every_experiment_and_quotes_every_recorded_output() {
    let doc = std::fs::read_to_string(repo("EXPERIMENTS.md")).unwrap();
    for e in EXPERIMENTS {
        assert!(
            doc.contains(&format!("`{}`", e.name)),
            "EXPERIMENTS.md does not name `{}`",
            e.name
        );
        if e.recorded {
            let file = format!("results/{}.txt", e.name);
            let text = std::fs::read_to_string(repo(&file)).unwrap();
            assert!(
                doc.contains(&format!("```text\n{text}```\n")),
                "EXPERIMENTS.md does not quote {file} verbatim in a fenced block"
            );
        }
    }
}

/// The experiments quick enough to re-run under tier-1 (about a second
/// each unoptimised), so a stale table fails here and not only in CI's
/// full `marp-lab results --check`.
const QUICK: [&str; 4] = [
    "e5_wan_comparison",
    "e6_scalability",
    "e7_faults",
    "e13_read_mix",
];

#[test]
fn the_quick_experiments_print_what_results_records() {
    let quick = QUICK.map(experiment);
    assert!(quick.iter().all(|e| e.recorded));
    assert_eq!(results(&repo("results"), true, &quick), Ok(()));
}

#[test]
fn check_names_the_stale_file_and_its_first_differing_line() {
    let dir = std::env::temp_dir().join(format!("marp-lab-results-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let recorded = std::fs::read_to_string(repo("results/e13_read_mix.txt")).unwrap();
    // One digit of the fourth line (the first data row) changed.
    let mut lines: Vec<String> = recorded.lines().map(String::from).collect();
    let digit = lines[3].rfind(|c: char| c.is_ascii_digit()).unwrap();
    let changed = if &lines[3][digit..=digit] == "9" {
        "8"
    } else {
        "9"
    };
    lines[3].replace_range(digit..=digit, changed);
    let stale = dir.join("e13_read_mix.txt");
    std::fs::write(&stale, lines.join("\n") + "\n").unwrap();

    let e13 = [experiment("e13_read_mix")];
    let err = results(&dir, true, &e13).unwrap_err();
    assert!(
        err.starts_with(&format!("{}:4: ", stale.display())),
        "{err}"
    );
    // Without --check the same call repairs the file.
    assert_eq!(results(&dir, false, &e13), Ok(()));
    assert_eq!(std::fs::read_to_string(&stale).unwrap(), recorded);
    assert_eq!(results(&dir, true, &e13), Ok(()));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn the_binary_lists_the_table_and_rejects_what_is_not_in_it() {
    let lab = env!("CARGO_BIN_EXE_marp-lab");
    let list = Command::new(lab).arg("list").output().unwrap();
    assert!(list.status.success());
    let listed = String::from_utf8(list.stdout).unwrap();
    let names: Vec<&str> = listed
        .lines()
        .map(|line| line.split_whitespace().next().unwrap())
        .collect();
    let table: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(names, table);

    for args in [&["no_such_experiment"][..], &["results", "--bogus"], &[]] {
        let out = Command::new(lab).args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(String::from_utf8(out.stderr).unwrap().contains("usage:"));
    }
    // An experiment with no representative run refuses the flag before
    // running anything.
    let out = Command::new(lab)
        .args(["e15_chaos", "--trace-out", "unused.bin"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
