//! `cutelock attack --mode race` output shape: one line per race entrant
//! and one `race:` summary line. Which strategy wins is wall-clock
//! nondeterministic (DETERMINISM.md), so only the shape is asserted.

use std::process::Command;

use cutelock_attacks::AttackStrategy;

#[test]
fn race_prints_every_entrant_and_a_summary() {
    let out = Command::new(env!("CARGO_BIN_EXE_cutelock"))
        .args(["attack", "--quick", "--mode", "race"])
        .output()
        .expect("cutelock runs");
    // 0 for a decisive verdict, 2 for an undecided one; both are valid.
    assert!(
        matches!(out.status.code(), Some(0 | 2)),
        "exit {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();

    for entrant in ["sat", "kc2", "int"] {
        let n = lines
            .iter()
            .filter(|l| l.split_whitespace().next() == Some(entrant))
            .count();
        assert_eq!(n, 1, "one `{entrant}` line expected in:\n{stdout}");
    }

    let summary: Vec<&str> = lines
        .iter()
        .filter_map(|l| l.strip_prefix("race: "))
        .collect();
    assert_eq!(summary.len(), 1, "one `race:` line expected in:\n{stdout}");
    let summary = summary[0];
    if let Some(rest) = summary.strip_prefix("winner=") {
        let name = rest.split_whitespace().next().unwrap_or_default();
        let winner = AttackStrategy::parse(name)
            .unwrap_or_else(|| panic!("winner `{name}` is not a strategy name"));
        assert!(
            AttackStrategy::RACE_ENTRANTS.contains(&winner),
            "winner {winner} never raced"
        );
    } else {
        assert!(
            summary.starts_with("no decisive verdict"),
            "unexpected summary: {summary}"
        );
    }
}
