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

#[test]
fn stdio_daemon_with_group_commit_recovers_the_same_trace() {
    // The stdio transport through the compiled binary: open, select,
    // absorb and trace over pipes with a group-committed WAL, then EOF.
    // A second boot on the same WAL directory must answer the same trace.
    use crowdfusion::core::session::EntitySpec;
    use crowdfusion::service::protocol::{decode, encode, Request, Response, WireAnswer};
    use std::io::{BufRead, BufReader, Write};
    use std::process::Stdio;

    let exe = env!("CARGO_BIN_EXE_crowdfusion");
    let wal = tmp("stdio-wal");
    let _ = std::fs::remove_dir_all(&wal);
    let boot = || {
        Command::new(exe)
            .args(["serve", "--transport", "stdio", "--wal-dir", &wal])
            .args(["--group-commit", "true", "--seed", "5"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap()
    };
    let ask = |stdin: &mut std::process::ChildStdin,
               stdout: &mut BufReader<std::process::ChildStdout>,
               request: &Request| {
        writeln!(stdin, "{}", encode(request)).unwrap();
        let mut line = String::new();
        stdout.read_line(&mut line).unwrap();
        line
    };

    let mut first = boot();
    let mut stdin = first.stdin.take().unwrap();
    let mut stdout = BufReader::new(first.stdout.take().unwrap());
    let opened = ask(
        &mut stdin,
        &mut stdout,
        &Request::Open {
            request: None,
            entities: vec![EntitySpec::simple(
                "b",
                vec![0.5, 0.6, 0.7],
                vec![true, false, true],
            )],
            k: None,
            budget: None,
            pc: None,
        },
    );
    let Ok(Response::Opened { sessions }) = decode(opened.trim_end()) else {
        panic!("open failed: {opened}");
    };
    let session = sessions[0].session;
    let selected = ask(&mut stdin, &mut stdout, &Request::Select { session });
    let Ok(Response::Round { tasks, .. }) = decode(selected.trim_end()) else {
        panic!("select failed: {selected}");
    };
    let answers = tasks
        .iter()
        .map(|task| WireAnswer {
            task: task.id,
            value: true,
        })
        .collect();
    let absorbed = ask(
        &mut stdin,
        &mut stdout,
        &Request::Absorb { session, answers },
    );
    assert!(absorbed.starts_with("{\"Absorbed\""), "{absorbed}");
    let trace = ask(&mut stdin, &mut stdout, &Request::Trace);
    assert!(trace.starts_with("{\"Trace\""), "{trace}");
    drop(stdin);
    assert!(first.wait().unwrap().success(), "EOF is a clean stop");

    let mut second = boot();
    let mut stdin = second.stdin.take().unwrap();
    let mut stdout = BufReader::new(second.stdout.take().unwrap());
    assert_eq!(ask(&mut stdin, &mut stdout, &Request::Trace), trace);
    drop(stdin);
    assert!(second.wait().unwrap().success());
    std::fs::remove_dir_all(&wal).ok();
}
