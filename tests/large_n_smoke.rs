//! Large-entity smoke test: an n = 32 correlated-fact book refines end to
//! end through the CLI pipeline — dataset generation, machine fusion,
//! sparse correlated prior, and both the direct and the preprocessed
//! greedy selection — with traces bit-identical across thread counts.
//! Past the dense limit the preprocessed path has no `2^n` answer table
//! and scores the support through the direct engine, so its trace must
//! equal the direct one. This is the acceptance gate for lifting the
//! dense `2^n` fact ceiling; CI runs it as a dedicated release-mode step.

use crowdfusion::cli;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("crowdfusion-large-n-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_string_lossy().into_owned()
}

#[test]
fn thirty_two_fact_books_refine_end_to_end() {
    let books = tmp("books32.json");
    let report = cli::run(&args(&[
        "generate-books",
        "--out",
        &books,
        "--books",
        "3",
        "--min-statements",
        "32",
        "--max-statements",
        "32",
        "--seed",
        "13",
    ]))
    .unwrap();
    assert!(report.contains("wrote 3 books"), "{report}");

    let refine = |selector: &str, threads: &str, csv: &str| {
        let report = cli::run(&args(&[
            "refine",
            "--dataset",
            &books,
            "--selector",
            selector,
            "--k",
            "3",
            "--budget",
            "9",
            "--pc",
            "0.8",
            "--seed",
            "21",
            "--threads",
            threads,
            "--csv",
            csv,
        ]))
        .unwrap_or_else(|e| panic!("refine --selector {selector} failed at n = 32: {e}"));
        assert!(report.contains("refined"), "{report}");
        std::fs::read_to_string(csv).unwrap()
    };

    // Direct selection, thread-count invariant.
    let direct_t1 = refine("greedy", "1", &tmp("direct_t1.csv"));
    let direct_t4 = refine("greedy", "4", &tmp("direct_t4.csv"));
    assert_eq!(
        direct_t1, direct_t4,
        "direct selection must be bit-identical across thread counts"
    );

    // Preprocessed selection: the direct engine at n = 32, so the same
    // trace at every thread count.
    let pre_t1 = refine("greedy-pre", "1", &tmp("pre_t1.csv"));
    let pre_t4 = refine("greedy-pre", "4", &tmp("pre_t4.csv"));
    assert_eq!(
        pre_t1, direct_t1,
        "preprocessed selection must run the direct engine past the dense limit"
    );
    assert_eq!(
        pre_t1, pre_t4,
        "preprocessed selection must be bit-identical across thread counts"
    );

    // Both paths spend the full budget: 3 books x 9 judgments.
    for csv in [&direct_t1, &pre_t1] {
        let parsed = crowdfusion::core::metrics::quality_points_from_csv(csv).unwrap();
        assert_eq!(parsed.last().unwrap().cost, 27);
    }

    std::fs::remove_file(&books).ok();
    for f in ["direct_t1.csv", "direct_t4.csv", "pre_t1.csv", "pre_t4.csv"] {
        std::fs::remove_file(tmp(f)).ok();
    }
}
