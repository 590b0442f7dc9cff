//! Property tests for the store core: encode/decode round-trips, dictionary
//! stability, chunk-boundary behavior, and group-by permutation invariance.
//!
//! The proptest shim only offers integer-range and `vec` strategies, so all
//! typed cells are derived from `u64` draws: floats via normalized
//! `from_bits`, booleans via parity, strings from a small name pool (which
//! also exercises the dictionary with plenty of repeats).

use cutelock_store::format::{read_table, Writer};
use cutelock_store::query::group_by;
use cutelock_store::table::CHUNK_ROWS;
use cutelock_store::{ColumnType, Dictionary, Schema, Table, Value};
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::new(&[
        ("circuit", ColumnType::Str),
        ("conflicts", ColumnType::U64),
        ("rate", ColumnType::F64),
        ("decisive", ColumnType::Bool),
    ])
}

/// One row derived entirely from a `u64` draw. Floats are kept finite and
/// non-NaN so `PartialEq` row comparisons stay meaningful (NaN payloads are
/// still format-exact via `to_bits`, but equality is what the test needs).
fn derive_row(x: u64) -> Vec<Value> {
    let name = format!("c{}", x % 11);
    let rate = (x % 10_000) as f64 / 7.0;
    vec![
        Value::str(name),
        Value::U64(x),
        Value::F64(rate),
        Value::Bool(x.count_ones() % 2 == 0),
    ]
}

fn tmp(name: &str, salt: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cutelock-store-prop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{salt}.clk"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever rows go through the writer come back, in order, with every
    /// cell intact — including across the 256-row chunk boundary.
    #[test]
    fn encode_decode_round_trips(xs in proptest::collection::vec(0u64..u64::MAX, 1..40),
                                 salt in 0u64..u64::MAX) {
        let path = tmp("roundtrip", salt);
        std::fs::remove_file(&path).ok();
        let rows: Vec<Vec<Value>> = xs.iter().map(|&x| derive_row(x)).collect();
        let mut w = Writer::open(&path, schema()).unwrap();
        for row in &rows {
            w.push(row).unwrap();
        }
        w.finish().unwrap();
        let t = read_table(&path).unwrap();
        prop_assert_eq!(t.rows(), rows.len());
        for (i, row) in rows.iter().enumerate() {
            prop_assert_eq!(&t.row(i), row);
        }
        std::fs::remove_file(&path).ok();
    }

    /// Interning the same string sequence twice yields identical codes, and
    /// codes survive a disk round-trip (the read-back table re-interns in
    /// the same first-seen order).
    #[test]
    fn dictionary_codes_are_stable(xs in proptest::collection::vec(0u64..u64::MAX, 1..60),
                                   salt in 0u64..u64::MAX) {
        let names: Vec<String> = xs.iter().map(|&x| format!("n{}", x % 7)).collect();
        let mut d1 = Dictionary::new();
        let mut d2 = Dictionary::new();
        let c1: Vec<u32> = names.iter().map(|n| d1.intern(n)).collect();
        let c2: Vec<u32> = names.iter().map(|n| d2.intern(n)).collect();
        prop_assert_eq!(&c1, &c2);

        let path = tmp("dict", salt);
        std::fs::remove_file(&path).ok();
        let sch = Schema::new(&[("name", ColumnType::Str)]);
        let mut w = Writer::open(&path, sch).unwrap();
        for n in &names {
            w.push(&[Value::str(n.clone())]).unwrap();
        }
        w.finish().unwrap();
        let t = read_table(&path).unwrap();
        let c3: Vec<u32> = names.iter().map(|n| t.dict().code(n).unwrap()).collect();
        prop_assert_eq!(&c1, &c3);
        std::fs::remove_file(&path).ok();
    }

    /// Appending in two sessions that straddle the chunk boundary reads
    /// back equal to one uninterrupted session.
    #[test]
    fn chunk_boundary_append_equals_single_session(extra in 0u64..24, split in 0u64..24,
                                                   salt in 0u64..u64::MAX) {
        let total = CHUNK_ROWS as u64 - 12 + extra; // spans rows 244..268
        let split = split.min(total);
        let once = tmp("once", salt);
        let twice = tmp("twice", salt);
        std::fs::remove_file(&once).ok();
        std::fs::remove_file(&twice).ok();

        let mut w = Writer::open(&once, schema()).unwrap();
        for i in 0..total {
            w.push(&derive_row(i.wrapping_mul(0x9e37_79b9))).unwrap();
        }
        w.finish().unwrap();

        let mut w = Writer::open(&twice, schema()).unwrap();
        for i in 0..split {
            w.push(&derive_row(i.wrapping_mul(0x9e37_79b9))).unwrap();
        }
        w.finish().unwrap();
        let mut w = Writer::open(&twice, schema()).unwrap();
        for i in split..total {
            w.push(&derive_row(i.wrapping_mul(0x9e37_79b9))).unwrap();
        }
        w.finish().unwrap();

        let a = read_table(&once).unwrap();
        let b = read_table(&twice).unwrap();
        prop_assert_eq!(a.rows(), b.rows());
        for i in 0..a.rows() {
            prop_assert_eq!(a.row(i), b.row(i));
        }
        std::fs::remove_file(&once).ok();
        std::fs::remove_file(&twice).ok();
    }

    /// Group-by summaries do not depend on row order: any permutation of
    /// the input rows yields the identical sorted group list.
    #[test]
    fn group_by_is_permutation_invariant(xs in proptest::collection::vec(0u64..u64::MAX, 1..50),
                                         swaps in proptest::collection::vec(0usize..usize::MAX, 0..40)) {
        let rows: Vec<Vec<Value>> = xs.iter().map(|&x| derive_row(x)).collect();
        let mut shuffled = rows.clone();
        for (k, &s) in swaps.iter().enumerate() {
            let i = s % shuffled.len();
            let j = (s / 7 + k) % shuffled.len();
            shuffled.swap(i, j);
        }

        let mut t1 = Table::new(schema());
        let mut t2 = Table::new(schema());
        for r in &rows {
            t1.push(r).unwrap();
        }
        for r in &shuffled {
            t2.push(r).unwrap();
        }
        let g1 = group_by(&t1, &["circuit", "decisive"], "conflicts", &[], &[50.0, 90.0]).unwrap();
        let g2 = group_by(&t2, &["circuit", "decisive"], "conflicts", &[], &[50.0, 90.0]).unwrap();
        prop_assert_eq!(g1, g2);
    }

    /// A writer killed mid-flush leaves a torn tail. Cutting a multi-frame
    /// store at every byte offset past the header must read back a prefix
    /// of the original rows (never an error), and appending after the cut
    /// must succeed and land right behind that prefix.
    #[test]
    fn torn_tail_reads_back_as_a_row_prefix(xs in proptest::collection::vec(0u64..u64::MAX, 2..12),
                                            per_session in 1usize..4,
                                            salt in 0u64..u64::MAX) {
        let path = tmp("torn-src", salt);
        let cut = tmp("torn-cut", salt);
        std::fs::remove_file(&path).ok();
        let rows: Vec<Vec<Value>> = xs.iter().map(|&x| derive_row(x)).collect();
        // One writer session per few rows: every session flushes its own
        // dictionary delta and chunk frame.
        for session in rows.chunks(per_session) {
            let mut w = Writer::open(&path, schema()).unwrap();
            for row in session {
                w.push(row).unwrap();
            }
            w.finish().unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        let header = 8 + 4 + schema()
            .columns()
            .iter()
            .map(|(name, _)| 4 + name.len() + 1)
            .sum::<usize>();
        let marker = derive_row(u64::MAX - 1);
        let mut last_prefix = 0;
        for end in header..=bytes.len() {
            std::fs::write(&cut, &bytes[..end]).unwrap();
            let t = read_table(&cut).unwrap();
            let n = t.rows();
            prop_assert!(n >= last_prefix, "rows shrank at offset {end}");
            prop_assert!(t.torn_bytes() as usize <= end - header);
            for (i, row) in rows.iter().take(n).enumerate() {
                prop_assert_eq!(&t.row(i), row, "row {} at offset {}", i, end);
            }
            last_prefix = n;

            let mut w = Writer::open(&cut, schema()).unwrap();
            w.push(&marker).unwrap();
            w.finish().unwrap();
            let t = read_table(&cut).unwrap();
            prop_assert_eq!(t.torn_bytes(), 0);
            prop_assert_eq!(t.rows(), n + 1, "append after a cut at offset {}", end);
            prop_assert_eq!(t.row(n), marker.clone());
        }
        let t = read_table(&path).unwrap();
        prop_assert_eq!((t.rows(), t.torn_bytes()), (rows.len(), 0));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&cut).ok();
    }
}
