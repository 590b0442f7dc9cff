//! End-to-end test of the run database: `attack --store` → byte-identical
//! store files (DETERMINISM.md Rule 9) → `report` filters / group-by /
//! percentiles → `--emit-bench` → `--compare-baseline` regression gate
//! (including the doctored-baseline case CI exercises).

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use cutelock_cli::commands::dispatch;
use cutelock_store::format::read_table;
use cutelock_store::Value;

/// A process-unique scratch directory, removed on drop.
struct TmpDir(PathBuf);

impl TmpDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "cutelock-cli-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::create_dir_all(&dir).expect("create tmpdir");
        Self(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn run(args: &[&str]) -> Result<(), String> {
    let argv: Vec<String> = args.iter().map(ToString::to_string).collect();
    dispatch(&argv)
}

/// Runs the built-in `--quick` smoke attack with `--store`, ignoring the
/// verdict (a held lock is a non-decisive Err at the CLI; the record is
/// written either way).
fn attack_into(store: &str, extra: &[&str]) {
    let mut args = vec!["attack", "--quick", "--store", store];
    args.extend_from_slice(extra);
    let _ = run(&args);
}

#[test]
fn identical_attack_runs_write_identical_stores() {
    let tmp = TmpDir::new("golden-store");
    let a = tmp.path("a.clk");
    let b = tmp.path("b.clk");
    attack_into(&a, &[]);
    attack_into(&b, &[]);
    let bytes_a = fs::read(&a).expect("store a written");
    assert!(!bytes_a.is_empty());
    assert_eq!(
        bytes_a,
        fs::read(&b).expect("store b written"),
        "two identical runs must write byte-identical store files"
    );

    // Rule 9: under the wall clock, elapsed_ns is masked to 0.
    let t = read_table(&a).expect("store parses");
    assert_eq!(t.rows(), 1);
    let col = t
        .schema()
        .index_of("elapsed_ns")
        .expect("elapsed_ns column");
    assert_eq!(t.value(0, col), Value::U64(0));

    // Under a virtual clock, "time" is itself deterministic, so elapsed is
    // recorded — and the files are still byte-identical across runs.
    let va = tmp.path("va.clk");
    let vb = tmp.path("vb.clk");
    attack_into(&va, &["--virtual-clock", "1000"]);
    attack_into(&vb, &["--virtual-clock", "1000"]);
    assert_eq!(
        fs::read(&va).expect("store va written"),
        fs::read(&vb).expect("store vb written"),
        "virtual-clock runs must also be byte-identical"
    );
    let t = read_table(&va).expect("virtual-clock store parses");
    match t.value(0, col) {
        Value::U64(ns) => assert!(ns > 0, "virtual-clock elapsed must be recorded"),
        other => panic!("elapsed_ns not a u64: {other}"),
    }
}

#[test]
fn report_queries_and_gates_the_store() {
    let tmp = TmpDir::new("report");
    let store = tmp.path("runs.clk");
    // Two identical runs append two identical rows.
    attack_into(&store, &[]);
    attack_into(&store, &[]);
    let t = read_table(&store).expect("store parses");
    assert_eq!(t.rows(), 2);
    assert_eq!(t.value(0, 0), Value::str("s27_cutelock_str"));

    // Plain summary (metric defaults to `conflicts` on attack stores),
    // then the full query surface.
    run(&["report", "--store", &store]).expect("plain report");
    run(&[
        "report",
        "--store",
        &store,
        "--where",
        "circuit=s27_cutelock_str,decisive=false",
        "--group-by",
        "circuit,strategy",
        "--percentiles",
        "50,90",
    ])
    .expect("filtered grouped report");
    let err = run(&["report", "--store", &store, "--where", "nope=1"]).unwrap_err();
    assert!(err.contains("unknown column"), "got: {err}");

    // Freeze a baseline…
    let bench = tmp.path("BENCH_test.json");
    run(&[
        "report",
        "--store",
        &store,
        "--group-by",
        "circuit,strategy",
        "--emit-bench",
        &bench,
        "--tag",
        "test",
    ])
    .expect("emit-bench");
    let text = fs::read_to_string(&bench).expect("baseline written");
    assert!(text.contains("\"tag\": \"test\""), "{text}");
    assert!(text.contains("\"metric\": \"conflicts\""), "{text}");

    // …which the same data trivially passes…
    run(&[
        "report",
        "--store",
        &store,
        "--group-by",
        "circuit,strategy",
        "--compare-baseline",
        &bench,
    ])
    .expect("self-comparison must pass");

    // …and a doctored baseline (every median forced to -1, CI's trick)
    // must trip the gate with a nonzero exit.
    let doctored: String = text
        .lines()
        .map(|l| {
            if l.trim_start().starts_with("\"median\":") {
                "    \"median\": -1,\n".to_string()
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    let bad = tmp.path("BENCH_doctored.json");
    fs::write(&bad, doctored).expect("write doctored baseline");
    let err = run(&[
        "report",
        "--store",
        &store,
        "--group-by",
        "circuit,strategy",
        "--compare-baseline",
        &bad,
    ])
    .expect_err("doctored baseline must gate");
    assert!(err.contains("regressed"), "got: {err}");
}

/// A writer killed mid-frame leaves a torn store tail. `report` must still
/// read every whole row (exit 0, one warning line on stderr), and the next
/// `attack --store` must cut the tail and append behind the intact rows.
#[test]
fn torn_store_tail_is_dropped_and_appended_past() {
    let tmp = TmpDir::new("torn");
    let store = tmp.path("s.clk");
    let cutelock = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_cutelock"))
            .args(args)
            .output()
            .expect("cutelock runs")
    };
    let attack = || cutelock(&["attack", "--quick", "--store", &store]);
    attack();
    attack();
    // truncate -s -7: the second run's chunk frame loses its last 7 bytes.
    let bytes = fs::read(&store).expect("store written");
    fs::write(&store, &bytes[..bytes.len() - 7]).expect("truncate");

    let out = cutelock(&["report", "--store", &store]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "report failed: {stderr}");
    assert!(stdout.contains(": 1 rows,"), "{stdout}");
    let warnings: Vec<&str> = stderr.lines().filter(|l| l.contains("torn")).collect();
    assert_eq!(warnings.len(), 1, "{stderr}");
    assert!(warnings[0].contains("byte(s)"), "{stderr}");

    // The held lock makes `attack` exit 2 either way; the store must take
    // the row regardless.
    let out = attack();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("recorded 1 run"), "{stderr}");
    let t = read_table(&store).expect("store parses after the append");
    assert_eq!((t.rows(), t.torn_bytes()), (2, 0));
    let out = cutelock(&["report", "--store", &store]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains(": 2 rows,"));
    assert!(!String::from_utf8_lossy(&out.stderr).contains("torn"));
}
