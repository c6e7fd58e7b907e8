//! End-to-end tests of the `iim` CLI binary (impute / profile / methods).

use std::process::Command;

fn iim_bin() -> &'static str {
    env!("CARGO_BIN_EXE_iim")
}

fn write_sample_csv(dir: &std::path::Path) -> std::path::PathBuf {
    // Linear data y = 2x + 1 with two missing y cells.
    let mut body = String::from("x,y\n");
    for i in 0..60 {
        let x = i as f64 * 0.5;
        if i == 10 || i == 40 {
            body.push_str(&format!("{x},\n"));
        } else {
            body.push_str(&format!("{x},{}\n", 2.0 * x + 1.0));
        }
    }
    let path = dir.join("sample.csv");
    std::fs::write(&path, body).unwrap();
    path
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("iim-cli-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn impute_fills_missing_cells() {
    let dir = temp_dir("impute");
    let input = write_sample_csv(&dir);
    let output = dir.join("filled.csv");
    let status = Command::new(iim_bin())
        .args([
            "impute",
            "--method",
            "IIM",
            "--k",
            "5",
            "--output",
            output.to_str().unwrap(),
            input.to_str().unwrap(),
        ])
        .status()
        .unwrap();
    assert!(status.success());

    let filled = iim::data::csv::read_path(&output).unwrap();
    assert_eq!(filled.missing_count(), 0);
    // Row 10: x = 5.0 → y ≈ 11; the data is exactly linear so any sane
    // method lands close.
    let y = filled.get(10, 1).unwrap();
    assert!((y - 11.0).abs() < 0.5, "imputed {y}");
}

#[test]
fn impute_with_baseline_method_and_stdout() {
    let dir = temp_dir("baseline");
    let input = write_sample_csv(&dir);
    let out = Command::new(iim_bin())
        .args(["impute", "--method", "glr", input.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let filled = iim::data::csv::read(text.as_bytes()).unwrap();
    assert_eq!(filled.missing_count(), 0);
    assert!((filled.get(10, 1).unwrap() - 11.0).abs() < 0.1);
}

#[test]
fn unknown_method_is_a_usage_error() {
    let dir = temp_dir("unknown");
    let input = write_sample_csv(&dir);
    let out = Command::new(iim_bin())
        .args(["impute", "--method", "nope", input.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown method"));
}

#[test]
fn methods_lists_table_ii() {
    let out = Command::new(iim_bin()).arg("methods").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for name in ["IIM", "kNN", "GLR", "XGB", "PMM"] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
}

#[test]
fn profile_reports_per_attribute() {
    let dir = temp_dir("profile");
    let input = write_sample_csv(&dir);
    let out = Command::new(iim_bin())
        .args(["profile", input.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("R2_S"));
    assert!(text.lines().count() >= 3, "one line per attribute:\n{text}");
}

#[test]
fn help_succeeds_and_usage_errors_exit_2() {
    let out = Command::new(iim_bin()).arg("--help").output().unwrap();
    assert_eq!(out.status.code(), Some(0), "--help is not an error");
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage"));
    let out = Command::new(iim_bin()).args(["impute"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = Command::new(iim_bin()).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "no subcommand is a usage error");
}

#[test]
fn methods_marks_the_default_from_the_registry() {
    let out = Command::new(iim_bin()).arg("methods").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(text.lines().next(), Some("IIM (default)"));
    assert_eq!(text.lines().count(), 14, "all 14 methods:\n{text}");
}

/// `--fit-on`: offline phase on one file, queries streamed from another.
#[test]
fn fit_on_serves_queries_from_a_separate_file() {
    let dir = temp_dir("fit-on");
    // Fully complete training file (the scenario the batch API could not
    // express), linear y = 2x + 1.
    let mut train = String::from("x,y\n");
    for i in 0..80 {
        let x = i as f64 * 0.25;
        train.push_str(&format!("{x},{}\n", 2.0 * x + 1.0));
    }
    let train_path = dir.join("train.csv");
    std::fs::write(&train_path, train).unwrap();
    // Query file: y missing everywhere, plus one complete pass-through row.
    let queries_path = dir.join("queries.csv");
    std::fs::write(&queries_path, "x,y\n2.0,\n4.0,?\n6.0,13.0\n").unwrap();

    let output = dir.join("served.csv");
    let out = Command::new(iim_bin())
        .args([
            "impute",
            "--method",
            "GLR",
            "--fit-on",
            train_path.to_str().unwrap(),
            "--output",
            output.to_str().unwrap(),
            queries_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let served = iim::data::csv::read_path(&output).unwrap();
    assert_eq!(served.n_rows(), 3);
    assert_eq!(served.missing_count(), 0);
    assert!((served.get(0, 1).unwrap() - 5.0).abs() < 0.1);
    assert!((served.get(1, 1).unwrap() - 9.0).abs() < 0.1);
    assert_eq!(served.get(2, 1), Some(13.0), "present cells pass through");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("served 3 queries"), "stderr: {stderr}");
    assert!(stderr.contains("offline"), "phase split reported: {stderr}");
}

/// `--fit-on` with a query header that does not match the training schema.
#[test]
fn fit_on_rejects_mismatched_headers() {
    let dir = temp_dir("fit-on-mismatch");
    let train_path = dir.join("train.csv");
    std::fs::write(&train_path, "x,y\n1.0,2.0\n2.0,4.0\n3.0,6.0\n").unwrap();
    let queries_path = dir.join("queries.csv");
    std::fs::write(&queries_path, "a,b\n2.0,\n").unwrap();
    let out = Command::new(iim_bin())
        .args([
            "impute",
            "--method",
            "Mean",
            "--fit-on",
            train_path.to_str().unwrap(),
            queries_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("does not match"));
}

/// `fit --save` + `impute --model`: the snapshot lifecycle, byte-for-byte
/// against the in-process `--fit-on` path (the CI serving job asserts the
/// same identity through the HTTP daemon; see scripts/serve_e2e.sh).
#[test]
fn fit_save_then_impute_model_matches_fit_on_exactly() {
    let dir = temp_dir("fit-save");
    let train = "tests/data/serve_train.csv";
    let queries = "tests/data/serve_queries.csv";
    let snap = dir.join("model.iim");
    let from_model = dir.join("from_model.csv");
    let from_fit = dir.join("from_fit.csv");

    let out = Command::new(iim_bin())
        .args([
            "fit",
            "--save",
            snap.to_str().unwrap(),
            "--method",
            "IIM",
            "--k",
            "5",
            train,
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "fit failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("snapshot"),
        "snapshot size reported"
    );

    // The snapshot is a valid iim-persist container.
    let bytes = std::fs::read(&snap).unwrap();
    let info = iim_persist::inspect(&bytes).unwrap();
    assert_eq!(info.method, "IIM");

    let status = Command::new(iim_bin())
        .args([
            "impute",
            "--model",
            snap.to_str().unwrap(),
            "--output",
            from_model.to_str().unwrap(),
            queries,
        ])
        .status()
        .unwrap();
    assert!(status.success());
    let status = Command::new(iim_bin())
        .args([
            "impute",
            "--fit-on",
            train,
            "--method",
            "IIM",
            "--k",
            "5",
            "--output",
            from_fit.to_str().unwrap(),
            queries,
        ])
        .status()
        .unwrap();
    assert!(status.success());

    let a = std::fs::read(&from_model).unwrap();
    let b = std::fs::read(&from_fit).unwrap();
    assert_eq!(a, b, "snapshot serving must be byte-identical to --fit-on");
}

/// `fit` without `--save`, `impute` with both sources, and a corrupt
/// snapshot are all typed CLI errors, not panics.
#[test]
fn snapshot_cli_error_paths() {
    let dir = temp_dir("fit-errors");
    let train = "tests/data/serve_train.csv";

    let out = Command::new(iim_bin())
        .args(["fit", train])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--save"));

    let out = Command::new(iim_bin())
        .args([
            "impute",
            "--model",
            "m.iim",
            "--fit-on",
            train,
            "queries.csv",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("mutually exclusive"));

    let bogus = dir.join("bogus.iim");
    std::fs::write(&bogus, b"definitely not a snapshot").unwrap();
    let out = Command::new(iim_bin())
        .args([
            "impute",
            "--model",
            bogus.to_str().unwrap(),
            "tests/data/serve_queries.csv",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("not an iim snapshot"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `--index` takes exactly `auto`, `brute` or `vptree`; a retired index
/// name is a usage error, never silently aliased to another index.
#[test]
fn removed_index_name_is_a_usage_error() {
    let out = Command::new(iim_bin())
        .args([
            "impute",
            "--index",
            "kdtree",
            "tests/data/serve_queries.csv",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--index needs one of: auto, brute, vptree"),
        "stderr: {stderr}"
    );
}

/// `tests/data/index_kind1.iim` was written by `iim fit --save` (IIM,
/// default flags) when `IndexChoice::Auto` still picked the retired
/// kd-tree (600 complete rows, 3 attributes): every slot carries index
/// kind byte 1. `index_kind1_expected.csv` is what
/// `iim impute --model index_kind1.iim index_kind1_queries.csv` printed
/// then. The snapshot must still load, now onto the VP-tree, and serve
/// those exact bytes.
#[test]
fn kind1_snapshot_loads_onto_the_vptree_and_serves_the_same_bytes() {
    let snap = "tests/data/index_kind1.iim";
    let loaded = iim_persist::load_from_slice(&std::fs::read(snap).unwrap()).unwrap();
    let driver = loaded
        .as_any()
        .and_then(|a| a.downcast_ref::<iim_data::FittedPerAttribute>())
        .expect("IIM snapshot loads as a per-attribute driver");
    assert_eq!(driver.models().len(), 3);
    for slot in driver.models() {
        let iim = slot
            .as_ref()
            .and_then(|m| m.predictor.as_any())
            .and_then(|a| a.downcast_ref::<iim_core::IimModel>())
            .expect("every attribute has a fitted IIM model");
        assert_eq!(iim.index().kind(), "vptree");
        assert_eq!(iim.index().len(), 600);
    }

    let out = Command::new(iim_bin())
        .args([
            "impute",
            "--model",
            snap,
            "tests/data/index_kind1_queries.csv",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let expected = std::fs::read("tests/data/index_kind1_expected.csv").unwrap();
    assert!(
        out.stdout == expected,
        "served output differs from the committed output"
    );
}

/// Finite values near 1e160 overflow IIM's Gram sums: the fit fails with
/// a data error (exit 1) and a message, never a panic (exit 101).
#[test]
fn impute_on_overflowing_values_is_an_error_not_a_panic() {
    let dir = temp_dir("overflow");
    let mut body = String::from("a,b,c\n");
    for i in 0..300 {
        let a = 1e160 * (1.0 + i as f64 / 300.0);
        let b = 1e160 * (2.0 - (i as f64 * 0.1).sin());
        if i % 10 == 0 {
            body.push_str(&format!("{a:e},{b:e},\n"));
        } else {
            body.push_str(&format!("{a:e},{b:e},{:e}\n", a + b));
        }
    }
    let input = dir.join("huge.csv");
    std::fs::write(&input, body).unwrap();
    let out = Command::new(iim_bin())
        .args(["impute", "--method", "IIM", input.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("overflows"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
