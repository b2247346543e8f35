//! Facade smoke tests: `crowdfusion::cli::run` end to end, plus the
//! compiled binary's exit-status contract (`main` exits 2 on errors).

use std::path::PathBuf;
use std::process::Command;

fn args(raw: &[&str]) -> Vec<String> {
    raw.iter().map(|s| s.to_string()).collect()
}

fn tmp(name: &str) -> String {
    let mut p: PathBuf = std::env::temp_dir();
    p.push(format!("crowdfusion-smoke-{}-{name}", std::process::id()));
    p.to_string_lossy().into_owned()
}

#[test]
fn demo_happy_path() {
    let report = crowdfusion::cli::run(&args(&["demo"])).unwrap();
    assert!(report.contains("running example: 4 facts"));
    assert!(report.contains("best 2 tasks at Pc = 0.8"));
}

#[test]
fn generate_then_refine_happy_path() {
    let books = tmp("books.json");
    let report = crowdfusion::cli::run(&args(&[
        "generate-books",
        "--out",
        &books,
        "--books",
        "4",
        "--sources",
        "5",
        "--seed",
        "11",
    ]))
    .unwrap();
    assert!(report.contains("wrote 4 books"));

    let report = crowdfusion::cli::run(&args(&[
        "refine",
        "--dataset",
        &books,
        "--budget",
        "6",
        "--seed",
        "3",
    ]))
    .unwrap();
    assert!(report.contains("machine-only"));
    assert!(report.contains("refined"));
    std::fs::remove_file(&books).ok();
}

#[test]
fn malformed_args_are_rejected() {
    // No command at all: usage text comes back as the error.
    let err = crowdfusion::cli::run(&[]).unwrap_err();
    assert!(err.contains("USAGE"));

    // Unknown command names the offender and includes usage.
    let err = crowdfusion::cli::run(&args(&["transmogrify"])).unwrap_err();
    assert!(err.contains("unknown command"));
    assert!(err.contains("USAGE"));

    // A known command with an unknown flag.
    let err = crowdfusion::cli::run(&args(&["demo", "--loud", "1"])).unwrap_err();
    assert!(err.contains("unknown flag"));

    // A required flag missing.
    let err = crowdfusion::cli::run(&args(&["generate-books"])).unwrap_err();
    assert!(err.contains("--out"));
}

#[test]
fn refine_output_ignores_the_thread_setting() {
    // The thread count only sizes the pool: with CROWDFUSION_THREADS
    // unset, no flag, `--threads 1` and `--threads 3` write the same CSV.
    let exe = env!("CARGO_BIN_EXE_crowdfusion");
    let crowdfusion = |raw: &[&str]| {
        let out = Command::new(exe)
            .args(raw)
            .env_remove("CROWDFUSION_THREADS")
            .output()
            .unwrap();
        assert!(out.status.success(), "{raw:?} failed: {out:?}");
    };
    let books = tmp("threads-books.json");
    crowdfusion(&[
        "generate-books",
        "--out",
        &books,
        "--books",
        "6",
        "--seed",
        "11",
    ]);
    let csvs: Vec<Vec<u8>> = [&[][..], &["--threads", "1"], &["--threads", "3"]]
        .iter()
        .enumerate()
        .map(|(i, threads)| {
            let csv = tmp(&format!("threads-{i}.csv"));
            let mut raw = vec!["refine", "--dataset", &books, "--budget", "8"];
            raw.extend_from_slice(&["--seed", "3", "--csv", &csv]);
            raw.extend_from_slice(threads);
            crowdfusion(&raw);
            let bytes = std::fs::read(&csv).unwrap();
            std::fs::remove_file(&csv).ok();
            bytes
        })
        .collect();
    std::fs::remove_file(&books).ok();
    assert!(!csvs[0].is_empty());
    assert_eq!(csvs[0], csvs[1], "no --threads vs --threads 1");
    assert_eq!(csvs[0], csvs[2], "no --threads vs --threads 3");
}

#[test]
fn binary_exit_codes_match_contract() {
    let exe = env!("CARGO_BIN_EXE_crowdfusion");

    let ok = Command::new(exe).arg("demo").output().unwrap();
    assert!(ok.status.success(), "demo must exit 0");
    assert!(String::from_utf8_lossy(&ok.stdout).contains("best 2 tasks"));

    let err = Command::new(exe).arg("no-such-command").output().unwrap();
    assert_eq!(err.status.code(), Some(2), "errors must exit 2");
    assert!(String::from_utf8_lossy(&err.stderr).contains("unknown command"));
    assert!(err.stdout.is_empty(), "error output goes to stderr only");
}
