//! Facade smoke tests: `crowdfusion::cli::run` end to end, plus the
//! compiled binary's exit-status contract (`main` exits 2 on errors).

use std::path::{Path, PathBuf};
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

    // Out-of-contract generator configs are errors naming the field, and
    // nothing is written.
    for (raw, field) in datagen_rejections() {
        let out = tmp("rejected.json");
        let mut raw = raw.to_vec();
        raw.extend_from_slice(&["--out", &out]);
        let err = crowdfusion::cli::run(&args(&raw)).unwrap_err();
        assert!(err.contains(field), "{raw:?}: {err}");
        assert!(!Path::new(&out).exists(), "{raw:?} wrote {out}");
    }
}

/// Generator arguments outside the datagen contract, each with the config
/// field its error must name.
fn datagen_rejections() -> [(&'static [&'static str], &'static str); 4] {
    [
        (&["generate-books", "--books", "0"], "n_books"),
        (
            &["generate-books", "--min-statements", "1"],
            "statements_per_book",
        ),
        (
            &[
                "generate-books",
                "--min-statements",
                "9",
                "--max-statements",
                "4",
            ],
            "statements_per_book",
        ),
        (&["generate-countries", "--countries", "0"], "n_countries"),
    ]
}

#[test]
fn help_requests_print_the_usage() {
    // `--help` or `-h` where a flag name goes, and `help` with anything
    // after it, print the usage and succeed.
    let requests: [&[&str]; 6] = [
        &["refine", "--help"],
        &["refine", "-h"],
        &["help", "refine"],
        &["generate-books", "--out", "x.json", "--help"],
        &["--help"],
        &["-h"],
    ];
    for raw in requests {
        let usage = crowdfusion::cli::run(&args(raw)).unwrap();
        assert!(usage.contains("USAGE"), "{raw:?}");
    }
    let exe = env!("CARGO_BIN_EXE_crowdfusion");
    for raw in &requests[..3] {
        let out = Command::new(exe).args(*raw).output().unwrap();
        assert!(out.status.success(), "{raw:?} must exit 0: {out:?}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
        assert!(out.stderr.is_empty(), "{raw:?} wrote to stderr");
    }
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

/// Panics with the first line where `fresh` differs from the pinned file
/// `tests/fixtures/refine/{name}`.
fn assert_matches_pin(fresh: &str, name: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/refine")
        .join(name);
    let pinned = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    if fresh == pinned {
        return;
    }
    let (mut fresh_lines, mut pinned_lines) = (fresh.lines(), pinned.lines());
    let mut line = 1;
    loop {
        let (got, want) = (fresh_lines.next(), pinned_lines.next());
        if got != want {
            panic!("{name} differs from its pin at line {line}:\n  pinned: {want:?}\n  fresh:  {got:?}");
        }
        if got.is_none() {
            panic!("{name} differs from its pin in line endings only");
        }
        line += 1;
    }
}

/// `refine`'s JSON trace and CSV for {greedy, greedy-pre, random} × k
/// {2, 4} on a 10–16-statement and a 32-statement dataset, pinned byte for
/// byte under `tests/fixtures/refine/`. No `--threads` is passed, so every
/// `CROWDFUSION_THREADS` setting must write the same bytes.
///
/// A file that moves on purpose is rewritten with the binary, from the
/// repository root (`SET` is `small` or `n32`, `SEL` one of the three
/// selectors, `K` 2 or 4):
///
/// ```text
/// crowdfusion generate-books --out small.json --books 8 --min-statements 10 --max-statements 16 --seed 5
/// crowdfusion generate-books --out n32.json --books 3 --min-statements 32 --max-statements 32 --seed 13
/// crowdfusion refine --dataset SET.json --selector SEL --k K --budget 12 --seed 3 \
///     --out tests/fixtures/refine/SET_SEL_kK.json --csv tests/fixtures/refine/SET_SEL_kK.csv
/// ```
#[test]
fn refine_outputs_match_committed_pins() {
    let datasets = [
        ("small", ["8", "10", "16", "5"]),
        ("n32", ["3", "32", "32", "13"]),
    ];
    for (set, [books, min, max, seed]) in datasets {
        let dataset = tmp(&format!("pin-{set}.json"));
        crowdfusion::cli::run(&args(&[
            "generate-books",
            "--out",
            &dataset,
            "--books",
            books,
            "--min-statements",
            min,
            "--max-statements",
            max,
            "--seed",
            seed,
        ]))
        .unwrap();
        for selector in ["greedy", "greedy-pre", "random"] {
            for k in ["2", "4"] {
                let name = format!("{set}_{selector}_k{k}");
                let (json, csv) = (tmp(&format!("{name}.json")), tmp(&format!("{name}.csv")));
                crowdfusion::cli::run(&args(&[
                    "refine",
                    "--dataset",
                    &dataset,
                    "--selector",
                    selector,
                    "--k",
                    k,
                    "--budget",
                    "12",
                    "--seed",
                    "3",
                    "--out",
                    &json,
                    "--csv",
                    &csv,
                ]))
                .unwrap_or_else(|e| panic!("refine {name} failed: {e}"));
                for (path, ext) in [(&json, "json"), (&csv, "csv")] {
                    assert_matches_pin(
                        &std::fs::read_to_string(path).unwrap(),
                        &format!("{name}.{ext}"),
                    );
                    std::fs::remove_file(path).ok();
                }
            }
        }
        std::fs::remove_file(&dataset).ok();
    }
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

    // A generator config the datagen check rejects is an input error,
    // not a panic (exit 101).
    for (raw, field) in datagen_rejections() {
        let out = tmp("rejected-bin.json");
        let err = Command::new(exe)
            .args(raw)
            .args(["--out", &out])
            .output()
            .unwrap();
        assert_eq!(err.status.code(), Some(2), "{raw:?}: {err:?}");
        assert!(String::from_utf8_lossy(&err.stderr).contains(field));
    }
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
