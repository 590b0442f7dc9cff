//! Byte-identity pins of the table bins' locks: every Cute-Lock-Str lock
//! that `table4` and `table5` build is locked here with the bins' exact
//! parameters, and its [`LockedCircuit::fingerprint`] (FNV-1a over both
//! netlists' `.bench` text, the schedule and the locked/counter flip-flops)
//! must match the committed value. A change to the lock's self-check or to
//! its random draws that moves any locked netlist fails here by name.

use cutelock_bench::params::{in_quick_set, TABLE4_ISCAS, TABLE4_ITC, TABLE5};
use cutelock_circuits::{iscas89, itc99};
use cutelock_core::str_lock::{CuteLockStr, CuteLockStrConfig};
use cutelock_core::{KeySchedule, KeyValue, LockedCircuit};

/// `table4 --quick` (multi-key schedule), seed `0x7ab1e4`, one locked FF.
const TABLE4_QUICK: &[(&str, u64)] = &[
    ("s298", 0xaac0c8ad85796eb9),
    ("s349", 0x0f210efdd0846e6f),
    ("s832", 0x6d1512eaa61ed412),
    ("b01", 0xee4b3b9c9ab4cd61),
    ("b02", 0x840f2014fd4ee782),
    ("b06", 0xbc3f4e4c60853a8a),
    ("b08", 0x05d7f04614b1aff8),
    ("b10", 0x6b9643aa818e1d16),
];

/// `table4 --quick --single-key`: the same rows under a constant schedule.
const TABLE4_QUICK_SINGLE_KEY: &[(&str, u64)] = &[
    ("s298", 0x13ca83dc8b158bb2),
    ("s349", 0x6aee89d37bfd45fb),
    ("s832", 0xef890f14d8c03ca0),
    ("b01", 0x2015cf4883aa80e9),
    ("b02", 0xc46ef0f7849970cc),
    ("b06", 0xb1b0c0605fc24e93),
    ("b08", 0x39901fad39d18798),
    ("b10", 0x95909fc0eb831aa2),
];

/// Every `table5` row: k=4, ki=5, half the FFs (at least 2), seed `0x7ab1e5`.
const TABLE5_ALL: &[(&str, u64)] = &[
    ("b01", 0x3826c4320073c7cf),
    ("b02", 0x2c5b0d3be2513905),
    ("b03", 0x2f08850a1c0eb3d3),
    ("b04", 0x7dd20c51c713b3d2),
    ("b05", 0x1eb0b43408127a63),
    ("b06", 0x047f1dddff548477),
    ("b07", 0x337f415ef3615562),
    ("b08", 0xded2459020c970b5),
    ("b09", 0x3ae02410072b3ff1),
    ("b10", 0xe1a6d15516713c99),
    ("b11", 0xf6308364eb5fc97c),
    ("b12", 0x92cd066c10d4a64a),
    ("b14", 0x2b9994a0f3509b3b),
    ("b15", 0x3870a43c6f2f1941),
    ("b17", 0xe83e7b57f6ff7a8c),
    ("b18", 0xbdd3608046163e7f),
    ("b19", 0x87d936bf64426685),
    ("b20", 0x02f581e4c45c14b5),
    ("b21", 0x4e169eb863562f13),
    ("b22", 0xbf2e71ca5a5a382e),
];

/// Locks one `table4` row exactly as the bin does.
fn table4_lock(name: &str, k: usize, ki: usize, single_key: bool) -> LockedCircuit {
    let circuit = if name.starts_with('s') {
        iscas89(name)
    } else {
        itc99(name)
    }
    .unwrap();
    let schedule = single_key.then(|| {
        KeySchedule::constant(
            KeyValue::from_u64(0x5a5a_5a5a & ((1u64 << ki.min(63)) - 1), ki),
            k,
        )
    });
    CuteLockStr::new(CuteLockStrConfig {
        keys: k,
        key_bits: ki,
        locked_ffs: 1,
        seed: 0x7ab1e4,
        schedule,
        ..Default::default()
    })
    .lock(&circuit.netlist)
    .unwrap()
}

/// Locks one `table5` row exactly as the bin does.
fn table5_lock(name: &str) -> LockedCircuit {
    let circuit = itc99(name).unwrap();
    CuteLockStr::new(CuteLockStrConfig {
        keys: 4,
        key_bits: 5,
        locked_ffs: (circuit.netlist.dff_count() / 2).max(2),
        seed: 0x7ab1e5,
        schedule: None,
        ..Default::default()
    })
    .lock(&circuit.netlist)
    .unwrap()
}

/// Compares fingerprints row by row and names every row that moved.
fn check(pins: &[(&str, u64)], actual: &[(&str, u64)]) {
    let names = |rows: &[(&str, u64)]| rows.iter().map(|r| r.0.to_string()).collect::<Vec<_>>();
    assert_eq!(names(pins), names(actual), "pinned row set changed");
    let moved: Vec<String> = pins
        .iter()
        .zip(actual)
        .filter(|(p, a)| p.1 != a.1)
        .map(|(p, a)| format!("{}: pinned {:#018x}, got {:#018x}", p.0, p.1, a.1))
        .collect();
    assert!(moved.is_empty(), "locks moved:\n{}", moved.join("\n"));
}

fn table4_quick(single_key: bool) -> Vec<(&'static str, u64)> {
    TABLE4_ISCAS
        .iter()
        .chain(TABLE4_ITC)
        .filter(|(name, _, _)| in_quick_set(name))
        .map(|&(name, k, ki)| (name, table4_lock(name, k, ki, single_key).fingerprint()))
        .collect()
}

#[test]
fn table4_quick_locks_are_pinned() {
    check(TABLE4_QUICK, &table4_quick(false));
}

#[test]
fn table4_quick_single_key_locks_are_pinned() {
    check(TABLE4_QUICK_SINGLE_KEY, &table4_quick(true));
}

#[test]
fn table5_locks_are_pinned() {
    let actual: Vec<(&str, u64)> = TABLE5
        .iter()
        .map(|&name| (name, table5_lock(name).fingerprint()))
        .collect();
    check(TABLE5_ALL, &actual);
}
