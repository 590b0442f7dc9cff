//! The append-only on-disk format: a streaming [`Writer`] and a sequential
//! [`read_table`] reader.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   8B   "CLKSTOR1"
//! header       u32 ncols, then per column: u32 name_len, name bytes, u8 type tag
//! frames*      u8 frame tag, then:
//!   tag 1  dictionary delta: u32 count, then per string: u32 len, bytes
//!   tag 2  chunk: u32 nrows, then per column (schema order), packed cells:
//!            u64 -> 8B, f64 -> to_bits 8B, bool -> 1B, str -> u32 dict code
//! ```
//!
//! The writer buffers rows and flushes a chunk frame every
//! [`CHUNK_ROWS`] rows, preceded by a dictionary-delta frame whenever new
//! strings were interned since the last flush. Codes are assigned in
//! first-seen order and every delta frame lands *before* the first chunk
//! that references it, so a single forward pass reconstructs the table.
//! Opening an existing file validates the schema and replays it to recover
//! the dictionary, then appends — the byte stream of "one run, then another"
//! is identical to "two runs appended to the same file".
//!
//! A writer killed mid-flush leaves a **torn tail**: the file ends inside a
//! frame, which the length fields and fixed cell widths reveal without any
//! checksum. The reader keeps the rows of every whole chunk frame and
//! reports the bytes after the last one ([`Table::torn_bytes`]); a
//! dictionary delta is only ever written right before the chunk that uses
//! it, so a delta without its chunk belongs to the torn tail too.
//! [`Writer::open`] cuts the tail off before appending. Any other damage —
//! a bad magic, a torn header, an unknown frame tag, an oversize chunk, an
//! unknown dictionary code — is still [`StoreError::Corrupt`].

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, ErrorKind, Read, Write};
use std::path::Path;

use crate::table::{Schema, Table, CHUNK_ROWS};
use crate::{ColumnType, Dictionary, StoreError, Value};

/// File magic: identifies a cutelock store, version 1.
pub const MAGIC: [u8; 8] = *b"CLKSTOR1";
/// Frame tag for a dictionary delta.
pub const FRAME_DICT: u8 = 1;
/// Frame tag for a chunk of rows.
pub const FRAME_CHUNK: u8 = 2;

/// A streaming, append-only writer.
///
/// Dropping a writer without calling [`Writer::finish`] loses any buffered
/// rows (at most [`CHUNK_ROWS`] - 1 of them); the file stays readable.
pub struct Writer {
    out: BufWriter<File>,
    schema: Schema,
    dict: Dictionary,
    pending: Vec<Vec<Value>>,
}

impl Writer {
    /// Opens `path` for appending, creating it (and writing the header) if
    /// absent. An existing file must carry exactly this schema; a torn
    /// tail is cut off first.
    pub fn open(path: impl AsRef<Path>, schema: Schema) -> Result<Writer, StoreError> {
        let path = path.as_ref();
        let exists = path.exists();
        let mut dict = Dictionary::new();
        let mut torn = 0;
        if exists {
            // Replay the file: validates magic + schema and recovers every
            // dictionary code so appended rows keep interning consistently.
            let existing = read_table(path)?;
            if existing.schema() != &schema {
                return Err(StoreError::Schema(format!(
                    "store {} has a different schema than the one being opened",
                    path.display()
                )));
            }
            for s in existing.dict().iter() {
                dict.intern(s);
            }
            dict.mark_flushed();
            torn = existing.torn_bytes();
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        if torn > 0 {
            file.set_len(file.metadata()?.len() - torn)?;
        }
        let mut out = BufWriter::new(file);
        if !exists {
            out.write_all(&MAGIC)?;
            write_u32(&mut out, schema.len() as u32)?;
            for (name, ty) in schema.columns() {
                write_u32(&mut out, name.len() as u32)?;
                out.write_all(name.as_bytes())?;
                out.write_all(&[ty.tag()])?;
            }
        }
        Ok(Writer {
            out,
            schema,
            dict,
            pending: Vec::new(),
        })
    }

    /// The schema this writer enforces.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Appends one row, flushing a chunk frame at every
    /// [`CHUNK_ROWS`]-row boundary.
    pub fn push(&mut self, row: &[Value]) -> Result<(), StoreError> {
        if row.len() != self.schema.len() {
            return Err(StoreError::Schema(format!(
                "row has {} cells but the schema has {} columns",
                row.len(),
                self.schema.len()
            )));
        }
        for (val, (name, ty)) in row.iter().zip(self.schema.columns()) {
            if val.column_type() != *ty {
                return Err(StoreError::Schema(format!(
                    "column '{}' is {} but the row carries {}",
                    name,
                    ty,
                    val.column_type()
                )));
            }
            if let Value::Str(s) = val {
                self.dict.intern(s);
            }
        }
        self.pending.push(row.to_vec());
        if self.pending.len() >= CHUNK_ROWS {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Flushes any buffered rows and the underlying file buffer.
    pub fn finish(mut self) -> Result<(), StoreError> {
        if !self.pending.is_empty() {
            self.flush_chunk()?;
        }
        self.out.flush()?;
        Ok(())
    }

    fn flush_chunk(&mut self) -> Result<(), StoreError> {
        let delta = self.dict.pending();
        if !delta.is_empty() {
            self.out.write_all(&[FRAME_DICT])?;
            write_u32(&mut self.out, delta.len() as u32)?;
            for s in delta {
                write_u32(&mut self.out, s.len() as u32)?;
                self.out.write_all(s.as_bytes())?;
            }
            self.dict.mark_flushed();
        }
        self.out.write_all(&[FRAME_CHUNK])?;
        write_u32(&mut self.out, self.pending.len() as u32)?;
        // Columnar layout: all cells of column 0, then column 1, ...
        for (col, (_, ty)) in self.schema.columns().iter().enumerate() {
            for row in &self.pending {
                match (ty, &row[col]) {
                    (ColumnType::U64, Value::U64(v)) => {
                        self.out.write_all(&v.to_le_bytes())?;
                    }
                    (ColumnType::F64, Value::F64(v)) => {
                        self.out.write_all(&v.to_bits().to_le_bytes())?;
                    }
                    (ColumnType::Bool, Value::Bool(v)) => {
                        self.out.write_all(&[u8::from(*v)])?;
                    }
                    (ColumnType::Str, Value::Str(s)) => {
                        let code = self.dict.code(s).expect("interned on push");
                        write_u32(&mut self.out, code)?;
                    }
                    _ => unreachable!("types validated on push"),
                }
            }
        }
        self.pending.clear();
        Ok(())
    }
}

/// Reads a whole store file into an in-memory [`Table`] with a single
/// sequential pass (no seeking, no mmap). A torn tail is dropped and
/// counted in [`Table::torn_bytes`].
pub fn read_table(path: impl AsRef<Path>) -> Result<Table, StoreError> {
    let bytes = std::fs::read(path.as_ref())?;
    let mut r: &[u8] = &bytes;

    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)
        .map_err(|_| StoreError::Corrupt("file shorter than the magic".into()))?;
    if magic != MAGIC {
        return Err(StoreError::Corrupt(
            "bad magic: not a cutelock store".into(),
        ));
    }
    let schema = read_header(&mut r).map_err(|e| match e {
        StoreError::Io(e) if e.kind() == ErrorKind::UnexpectedEof => {
            StoreError::Corrupt("truncated header".into())
        }
        e => e,
    })?;

    // Re-pushing every row through a fresh Table re-interns strings in the
    // same first-seen order, reproducing the on-disk codes and
    // canonicalizing chunk sizes regardless of how the file was flushed.
    let mut table = Table::new(schema.clone());
    let mut dict = Dictionary::new();
    // Bytes after the last whole chunk frame.
    let mut tail = r.len();
    while !r.is_empty() {
        match read_frame(&mut r, &schema, &mut dict) {
            Ok(None) => {}
            Ok(Some(rows)) => {
                for row in &rows {
                    table
                        .push(row)
                        .map_err(|e| StoreError::Corrupt(e.to_string()))?;
                }
                tail = r.len();
            }
            // The file ends inside this frame: a torn tail.
            Err(StoreError::Io(e)) if e.kind() == ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e),
        }
    }
    table.set_torn_bytes(tail as u64);
    Ok(table)
}

/// The schema block after the magic. Running out of bytes surfaces as an
/// `UnexpectedEof` I/O error, like every reader below.
fn read_header(r: &mut &[u8]) -> Result<Schema, StoreError> {
    let ncols = read_u32(r)? as usize;
    let mut columns = Vec::with_capacity(ncols.min(r.len()));
    for _ in 0..ncols {
        let name = read_string(r)?;
        let tag = read_u8(r)?;
        let ty = ColumnType::from_tag(tag)
            .ok_or_else(|| StoreError::Corrupt(format!("unknown column type tag {tag}")))?;
        columns.push((name, ty));
    }
    Ok(Schema::from_columns(columns))
}

/// One frame: `None` for a dictionary delta (interned into `dict`), the
/// decoded rows for a chunk.
fn read_frame(
    r: &mut &[u8],
    schema: &Schema,
    dict: &mut Dictionary,
) -> Result<Option<Vec<Vec<Value>>>, StoreError> {
    match read_u8(r)? {
        FRAME_DICT => {
            let count = read_u32(r)?;
            for _ in 0..count {
                let s = read_string(r)?;
                dict.intern(&s);
            }
            Ok(None)
        }
        FRAME_CHUNK => {
            let nrows = read_u32(r)? as usize;
            if nrows > CHUNK_ROWS {
                return Err(StoreError::Corrupt(format!(
                    "chunk frame claims {nrows} rows (max {CHUNK_ROWS})"
                )));
            }
            // Cells arrive column-major; gather them row-major so they can
            // be re-pushed through Table::push.
            let mut rows: Vec<Vec<Value>> = vec![Vec::with_capacity(schema.len()); nrows];
            for (_, ty) in schema.columns() {
                for row in rows.iter_mut() {
                    let val = match ty {
                        ColumnType::U64 => Value::U64(read_u64(r)?),
                        ColumnType::F64 => Value::F64(f64::from_bits(read_u64(r)?)),
                        ColumnType::Bool => Value::Bool(read_u8(r)? != 0),
                        ColumnType::Str => {
                            let code = read_u32(r)?;
                            let s = dict.resolve(code).ok_or_else(|| {
                                StoreError::Corrupt(format!(
                                    "chunk references dictionary code {code} before its delta frame"
                                ))
                            })?;
                            Value::str(s)
                        }
                    };
                    row.push(val);
                }
            }
            Ok(Some(rows))
        }
        t => Err(StoreError::Corrupt(format!("unknown frame tag {t}"))),
    }
}

fn write_u32(out: &mut impl Write, v: u32) -> std::io::Result<()> {
    out.write_all(&v.to_le_bytes())
}

fn read_u8(r: &mut &[u8]) -> Result<u8, StoreError> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn read_u32(r: &mut &[u8]) -> Result<u32, StoreError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut &[u8]) -> Result<u64, StoreError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_string(r: &mut &[u8]) -> Result<String, StoreError> {
    // A length past the end of the file is a torn tail; checking it
    // first also bounds the allocation.
    let len = read_u32(r)? as usize;
    let (b, rest) = r
        .split_at_checked(len)
        .ok_or_else(|| std::io::Error::from(ErrorKind::UnexpectedEof))?;
    *r = rest;
    String::from_utf8(b.to_vec()).map_err(|_| StoreError::Corrupt("non-utf8 string".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cutelock-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn schema() -> Schema {
        Schema::new(&[
            ("circuit", ColumnType::Str),
            ("conflicts", ColumnType::U64),
            ("rate", ColumnType::F64),
            ("decisive", ColumnType::Bool),
        ])
    }

    fn row(c: &str, n: u64) -> Vec<Value> {
        vec![
            Value::str(c),
            Value::U64(n),
            Value::F64(n as f64 / 2.0),
            Value::Bool(n % 2 == 0),
        ]
    }

    #[test]
    fn write_read_round_trip_across_chunk_boundary() {
        let path = tmp("roundtrip.clk");
        std::fs::remove_file(&path).ok();
        let mut w = Writer::open(&path, schema()).unwrap();
        let total = CHUNK_ROWS + 17;
        for i in 0..total {
            w.push(&row(&format!("c{}", i % 5), i as u64)).unwrap();
        }
        w.finish().unwrap();

        let t = read_table(&path).unwrap();
        assert_eq!(t.rows(), total);
        for i in 0..total {
            assert_eq!(t.row(i), row(&format!("c{}", i % 5), i as u64));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_equals_one_session() {
        let once = tmp("append-once.clk");
        let twice = tmp("append-twice.clk");
        std::fs::remove_file(&once).ok();
        std::fs::remove_file(&twice).ok();

        let mut w = Writer::open(&once, schema()).unwrap();
        for i in 0..10u64 {
            w.push(&row("s27", i)).unwrap();
        }
        w.finish().unwrap();

        let mut w = Writer::open(&twice, schema()).unwrap();
        for i in 0..4u64 {
            w.push(&row("s27", i)).unwrap();
        }
        w.finish().unwrap();
        let mut w = Writer::open(&twice, schema()).unwrap();
        for i in 4..10u64 {
            w.push(&row("s27", i)).unwrap();
        }
        w.finish().unwrap();

        // Same rows, same dictionary codes; only the chunk framing differs,
        // and read_table canonicalizes that away.
        let a = read_table(&once).unwrap();
        let b = read_table(&twice).unwrap();
        assert_eq!(a.rows(), b.rows());
        for i in 0..a.rows() {
            assert_eq!(a.row(i), b.row(i));
        }
        std::fs::remove_file(&once).ok();
        std::fs::remove_file(&twice).ok();
    }

    #[test]
    fn reopening_with_a_different_schema_is_refused() {
        let path = tmp("schema-clash.clk");
        std::fs::remove_file(&path).ok();
        let mut w = Writer::open(&path, schema()).unwrap();
        w.push(&row("s27", 1)).unwrap();
        w.finish().unwrap();
        let other = Schema::new(&[("x", ColumnType::U64)]);
        let err = match Writer::open(&path, other) {
            Err(e) => e,
            Ok(_) => panic!("schema clash accepted"),
        };
        assert!(matches!(err, StoreError::Schema(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_and_truncation_are_corrupt_not_panics() {
        let path = tmp("bad-magic.clk");
        std::fs::write(&path, b"NOTASTOR").unwrap();
        assert!(matches!(
            read_table(&path).unwrap_err(),
            StoreError::Corrupt(_)
        ));
        std::fs::write(&path, b"CLK").unwrap();
        assert!(matches!(
            read_table(&path).unwrap_err(),
            StoreError::Corrupt(_)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn type_checked_push_refuses_mismatches() {
        let path = tmp("push-type.clk");
        std::fs::remove_file(&path).ok();
        let mut w = Writer::open(&path, schema()).unwrap();
        assert!(w.push(&[Value::U64(1)]).is_err(), "arity");
        let bad = vec![
            Value::U64(1),
            Value::U64(2),
            Value::F64(0.0),
            Value::Bool(true),
        ];
        assert!(w.push(&bad).is_err(), "type");
        w.finish().unwrap();
        std::fs::remove_file(&path).ok();
    }
}
