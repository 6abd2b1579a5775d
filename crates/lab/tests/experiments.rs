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
fn results_holds_one_file_per_recorded_experiment() {
    let expected: BTreeSet<String> = EXPERIMENTS
        .iter()
        .filter_map(|e| e.record.map(String::from))
        .collect();
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
        // A table is quoted; a sweep's JSON document is only named.
        if let Some(file) = e.record.filter(|file| file.ends_with(".txt")) {
            let file = format!("results/{file}");
            let text = std::fs::read_to_string(repo(&file)).unwrap();
            assert!(
                doc.contains(&format!("```text\n{text}```\n")),
                "EXPERIMENTS.md does not quote {file} verbatim in a fenced block"
            );
        }
    }
}

/// The decimal numbers in `text` that are not ratios, as written: a
/// run of digits with one interior point that is not a section number
/// (`§3.2`) and not a ratio — `×` before it, or `×` or `%` after it or
/// after the range it opens (`1.38–1.49×`).
fn decimals(text: &str) -> Vec<&str> {
    let is_numeric = |c: char| c.is_ascii_digit() || c == '.';
    let is_ratio = |tail: &str| tail.trim_start().starts_with(['×', '%']);
    let mut found = Vec::new();
    let mut rest = text;
    while let Some(start) = rest.find(is_numeric) {
        let after = &rest[start..];
        let len = after.find(|c: char| !is_numeric(c)).unwrap_or(after.len());
        let token = after[..len].trim_end_matches('.');
        let (before, tail) = (rest[..start].trim_end(), &after[token.len()..]);
        let decimal = token.split('.').count() == 2 && token.split('.').all(|p| !p.is_empty());
        let range_end = tail
            .strip_prefix('–')
            .map(|end| end.trim_start_matches(is_numeric));
        let ratio = before.ends_with('×') || is_ratio(tail) || range_end.is_some_and(is_ratio);
        if decimal && !ratio && !before.ends_with('§') {
            found.push(token);
        }
        rest = &after[len..];
    }
    found
}

#[test]
fn the_prose_after_a_recorded_block_quotes_only_numbers_in_it() {
    let doc = std::fs::read_to_string(repo("EXPERIMENTS.md")).unwrap();
    let mut stale = Vec::new();
    for file in EXPERIMENTS
        .iter()
        .filter_map(|e| e.record.filter(|f| f.ends_with(".txt")))
    {
        let text = std::fs::read_to_string(repo(&format!("results/{file}"))).unwrap();
        let block = format!("```text\n{text}```\n");
        let Some(at) = doc.find(&block) else {
            continue; // the quoting test names it
        };
        let prose = &doc[at + block.len()..];
        let end = ["\n## ", "\n---", "\n```"]
            .iter()
            .filter_map(|mark| prose.find(mark))
            .min()
            .unwrap_or(prose.len());
        let quoted = decimals(&text);
        for number in decimals(&prose[..end]) {
            if !quoted.contains(&number) {
                stale.push(format!("{file}: {number}"));
            }
        }
    }
    assert!(
        stale.is_empty(),
        "EXPERIMENTS.md's prose quotes numbers its tables do not hold:\n{}",
        stale.join("\n")
    );
}

/// The experiments quick enough to re-run under tier-1 (about a second
/// each unoptimised), so a stale table fails here and not only in CI's
/// full `marp-lab results --check`. Both sweeps are among them: bytes
/// per commit at N=3/5/9 are checked to the digit on every test run.
const QUICK: [&str; 6] = [
    "e5_wan_comparison",
    "e6_scalability",
    "e7_faults",
    "e13_read_mix",
    "sweep_smoke",
    "sweep_n3_n5_n9",
];

#[test]
fn the_quick_experiments_print_what_results_records() {
    let quick = QUICK.map(experiment);
    assert!(quick.iter().all(|e| e.record.is_some()));
    assert_eq!(results(&repo("results"), true, &quick), Ok(()));
}

#[test]
fn check_names_the_stale_file_and_its_first_differing_line() {
    let dir = std::env::temp_dir().join(format!("marp-lab-results-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // A table's fourth line (its first data row), and the one line that
    // is a sweep's whole record: the last digit of each changed.
    for (name, row) in [("e13_read_mix", 3), ("sweep_smoke", 0)] {
        let row_of = [experiment(name)];
        let file = row_of[0].record.unwrap();
        let recorded = std::fs::read_to_string(repo("results").join(file)).unwrap();
        let line = recorded.lines().nth(row).unwrap();
        let digit = line.as_ptr() as usize - recorded.as_ptr() as usize
            + line.rfind(|c: char| c.is_ascii_digit()).unwrap();
        let changed = if &recorded[digit..=digit] == "9" {
            "8"
        } else {
            "9"
        };
        let mut stale = recorded.clone();
        stale.replace_range(digit..=digit, changed);
        let path = dir.join(file);
        std::fs::write(&path, stale).unwrap();

        let err = results(&dir, true, &row_of).unwrap_err();
        let place = format!("{}:{}: ", path.display(), row + 1);
        assert!(err.starts_with(&place), "{err}");
        // Both versions of the neighbourhood, not of a 1.2 kB line.
        assert!(err.len() < place.len() + 400, "{err}");
        // Without --check the same call repairs the file.
        assert_eq!(results(&dir, false, &row_of), Ok(()));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), recorded);
        assert_eq!(results(&dir, true, &row_of), Ok(()));
    }
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

#[test]
fn an_experiment_fails_on_a_flag_it_does_not_read() {
    let lab = env!("CARGO_BIN_EXE_marp-lab");
    for (args, flag) in [
        (&["fig2_alt", "--bogus"][..], "--bogus"),
        (&["smoke", "--csv", "m.csv"], "--csv"),
        (&["sweep_smoke", "--test"], "--test"),
        (&["e16_keyspace", "--test", "--bogus"], "--bogus"),
        (&["e15_chaos", "--plans", "0", "--bogus"], "--bogus"),
    ] {
        let out = Command::new(lab).args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(out.stdout.is_empty(), "{args:?} ran");
        let stderr = String::from_utf8(out.stderr).unwrap();
        let expected = format!("marp-lab: {}: unknown flag {flag}\n", args[0]);
        assert_eq!(stderr, expected, "{args:?}");
    }
    // The flags an experiment does read still parse: zero chaos plans
    // run nothing and print an empty, clean table.
    let out = Command::new(lab)
        .args(["e15_chaos", "--plans", "0", "--profile", "mixed"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("all 0 plans clean"));
}
