//! Paged clause storage for the CDCL solver.
//!
//! Every clause lives in a page: a `Vec<u32>` allocated once with room for
//! [`PAGE_WORDS`] words and never grown, so storing more clauses opens a
//! new page instead of reallocating and copying the old ones. A clause is
//! a four-word header followed by its literals:
//!
//! | word | contents |
//! |------|----------|
//! | 0 | length, plus the learnt (bit 31) and deleted (bit 30) flags |
//! | 1 | literal-block distance (LBD) |
//! | 2–3 | activity, the `f64` bits low word first |
//!
//! A clause reference ([`CRef`]) is `page << 16 | offset`. A clause never
//! straddles two pages; one too long for a regular page gets a page of its
//! own. Walking the pages in order visits clauses in the order they were
//! stored, which is the order every database walk of the solver relies on
//! (see [`ClauseArena::crefs`]). This is the MiniSat allocator layout (Eén
//! & Sörensson, "An Extensible SAT-solver", SAT 2003), split into pages so
//! a growing database never holds two copies of itself.

use crate::Lit;

/// Reference to a stored clause: `page << 16 | offset`.
pub(crate) type CRef = u32;

const PAGE_BITS: u32 = 16;
/// Words in a regular page (64Ki).
const PAGE_WORDS: usize = 1 << PAGE_BITS;
const OFFSET_MASK: u32 = (1 << PAGE_BITS) - 1;
/// Most pages a [`CRef`] can address.
const MAX_PAGES: usize = 1 << (32 - PAGE_BITS);
const HEADER_WORDS: usize = 4;
const LEARNT: u32 = 1 << 31;
const DELETED: u32 = 1 << 30;
const LEN_MASK: u32 = DELETED - 1;

fn split(cref: CRef) -> (usize, usize) {
    ((cref >> PAGE_BITS) as usize, (cref & OFFSET_MASK) as usize)
}

fn read_activity(page: &[u32], off: usize) -> f64 {
    f64::from_bits(u64::from(page[off + 2]) | u64::from(page[off + 3]) << 32)
}

fn write_activity(page: &mut [u32], off: usize, activity: f64) {
    let bits = activity.to_bits();
    page[off + 2] = bits as u32;
    page[off + 3] = (bits >> 32) as u32;
}

/// The clause database: pages of headers and literals.
#[derive(Debug, Default)]
pub(crate) struct ClauseArena {
    pages: Vec<Vec<u32>>,
    /// Stored clauses, deleted ones included until the next compaction.
    clauses: usize,
}

impl Clone for ClauseArena {
    /// Clones keep the page capacity, so a cloned solver's pages never
    /// reallocate either.
    fn clone(&self) -> Self {
        let pages = self
            .pages
            .iter()
            .map(|p| {
                let mut q = Vec::with_capacity(p.len().max(PAGE_WORDS));
                q.extend_from_slice(p);
                q
            })
            .collect();
        Self {
            pages,
            clauses: self.clauses,
        }
    }
}

/// A read-only view of one stored clause.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Clause<'a> {
    pub(crate) learnt: bool,
    pub(crate) deleted: bool,
    pub(crate) lbd: u32,
    pub(crate) activity: f64,
    words: &'a [u32],
}

impl<'a> Clause<'a> {
    pub(crate) fn len(&self) -> usize {
        self.words.len()
    }

    pub(crate) fn lits(&self) -> impl Iterator<Item = Lit> + 'a {
        self.words.iter().map(|&w| Lit(w))
    }
}

impl ClauseArena {
    /// Number of stored clauses, deleted ones included: the count the
    /// reduction and collection thresholds are measured against.
    pub(crate) fn len(&self) -> usize {
        self.clauses
    }

    /// Stores a clause at the end of the arena and returns its reference.
    pub(crate) fn alloc(&mut self, lits: &[Lit], learnt: bool, lbd: u32, activity: f64) -> CRef {
        assert!(lits.len() <= LEN_MASK as usize, "clause too long");
        let need = HEADER_WORDS + lits.len();
        if self
            .pages
            .last()
            .is_none_or(|p| p.len() + need > PAGE_WORDS)
        {
            assert!(self.pages.len() < MAX_PAGES, "clause arena full");
            self.pages.push(Vec::with_capacity(need.max(PAGE_WORDS)));
        }
        let page_index = self.pages.len() - 1;
        let page = &mut self.pages[page_index];
        let off = page.len();
        page.extend([
            lits.len() as u32 | if learnt { LEARNT } else { 0 },
            lbd,
            0,
            0,
        ]);
        write_activity(page, off, activity);
        page.extend(lits.iter().map(|l| l.0));
        self.clauses += 1;
        (page_index << PAGE_BITS | off) as CRef
    }

    /// The clause at `cref`.
    pub(crate) fn clause(&self, cref: CRef) -> Clause<'_> {
        let (page, off) = split(cref);
        let page = &self.pages[page];
        let head = page[off];
        let start = off + HEADER_WORDS;
        Clause {
            learnt: head & LEARNT != 0,
            deleted: head & DELETED != 0,
            lbd: page[off + 1],
            activity: read_activity(page, off),
            words: &page[start..start + (head & LEN_MASK) as usize],
        }
    }

    /// The `k`-th literal of the clause at `cref`.
    pub(crate) fn lit(&self, cref: CRef, k: usize) -> Lit {
        let (page, off) = split(cref);
        Lit(self.pages[page][off + HEADER_WORDS + k])
    }

    /// The literal words of the clause at `cref` for in-place reordering,
    /// or `None` once the clause is deleted. Propagation resolves each
    /// visited clause through this once.
    pub(crate) fn live_lits_mut(&mut self, cref: CRef) -> Option<&mut [u32]> {
        let (page, off) = split(cref);
        let page = &mut self.pages[page];
        let head = page[off];
        if head & DELETED != 0 {
            return None;
        }
        let start = off + HEADER_WORDS;
        Some(&mut page[start..start + (head & LEN_MASK) as usize])
    }

    pub(crate) fn set_activity(&mut self, cref: CRef, activity: f64) {
        let (page, off) = split(cref);
        write_activity(&mut self.pages[page], off, activity);
    }

    /// Marks a clause deleted. It stays stored (and counted by
    /// [`len`](Self::len)) until the solver compacts the database.
    pub(crate) fn delete(&mut self, cref: CRef) {
        let (page, off) = split(cref);
        self.pages[page][off] |= DELETED;
    }

    /// Multiplies every stored clause's activity by `factor`.
    pub(crate) fn scale_activities(&mut self, factor: f64) {
        for page in &mut self.pages {
            let mut off = 0;
            while off < page.len() {
                let scaled = read_activity(page, off) * factor;
                write_activity(page, off, scaled);
                off += HEADER_WORDS + (page[off] & LEN_MASK) as usize;
            }
        }
    }

    /// Every stored clause's reference, in the order the clauses were
    /// stored (deleted ones included).
    pub(crate) fn crefs(&self) -> impl Iterator<Item = CRef> + '_ {
        self.pages.iter().enumerate().flat_map(|(index, page)| {
            let mut off = 0;
            std::iter::from_fn(move || {
                (off < page.len()).then(|| {
                    let cref = (index << PAGE_BITS | off) as CRef;
                    off += HEADER_WORDS + (page[off] & LEN_MASK) as usize;
                    cref
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(words: &[u32]) -> Vec<Lit> {
        words.iter().map(|&w| Lit(w)).collect()
    }

    #[test]
    fn clauses_round_trip_in_storage_order_across_pages() {
        let mut arena = ClauseArena::default();
        // 70k words of ternary clauses spill past the first page; the long
        // clause gets a page of its own.
        let mut stored = Vec::new();
        for i in 0..10_000u32 {
            let c = lits(&[i, i + 1, i + 2]);
            let cref = arena.alloc(&c, i % 2 == 0, i % 7, f64::from(i) * 0.5);
            stored.push((cref, c));
        }
        let long: Vec<Lit> = (0..PAGE_WORDS as u32 + 10).map(Lit).collect();
        stored.push((arena.alloc(&long, true, 3, 1e30), long));
        let tail = lits(&[4, 9]);
        stored.push((arena.alloc(&tail, false, 0, 0.0), tail));
        assert_eq!(arena.len(), stored.len());
        assert_eq!(arena.pages.len(), 4, "two regular, one oversized, one new");
        let walked: Vec<CRef> = arena.crefs().collect();
        assert_eq!(walked, stored.iter().map(|s| s.0).collect::<Vec<_>>());
        assert!(walked.windows(2).all(|w| w[0] < w[1]), "crefs ascend");
        for (i, (cref, c)) in stored.iter().enumerate().take(10_000) {
            let view = arena.clause(*cref);
            assert_eq!(view.lits().collect::<Vec<_>>(), *c);
            assert_eq!(view.learnt, i % 2 == 0);
            assert_eq!(view.lbd, i as u32 % 7);
            assert_eq!(view.activity, i as f64 * 0.5);
            assert!(!view.deleted);
            assert_eq!(arena.lit(*cref, 2), c[2]);
        }
        let (long_ref, long) = &stored[10_000];
        assert_eq!(arena.clause(*long_ref).len(), long.len());
        assert_eq!(arena.clause(*long_ref).activity, 1e30);
    }

    #[test]
    fn pages_never_reallocate() {
        let mut arena = ClauseArena::default();
        arena.alloc(&lits(&[0, 2]), false, 0, 0.0);
        let first = arena.pages[0].as_ptr();
        while arena.pages.len() == 1 {
            arena.alloc(&lits(&[0, 2, 4, 6]), true, 2, 1.0);
        }
        assert_eq!(arena.pages[0].as_ptr(), first);
        let cloned = arena.clone();
        assert!(cloned.pages.iter().all(|p| p.capacity() >= PAGE_WORDS));
    }

    #[test]
    fn delete_activity_and_reorder() {
        let mut arena = ClauseArena::default();
        let a = arena.alloc(&lits(&[0, 2, 4]), true, 2, 1.5);
        let b = arena.alloc(&lits(&[1, 3]), false, 0, 0.0);
        arena.live_lits_mut(a).expect("live").swap(0, 2);
        assert_eq!(arena.clause(a).lits().collect::<Vec<_>>(), lits(&[4, 2, 0]));
        arena.set_activity(a, 4.0);
        arena.scale_activities(0.5);
        assert_eq!(arena.clause(a).activity, 2.0);
        assert_eq!(arena.clause(b).activity, 0.0);
        arena.delete(a);
        assert!(arena.clause(a).deleted);
        assert!(arena.clause(a).learnt, "flags are independent");
        assert!(arena.live_lits_mut(a).is_none());
        assert_eq!(arena.len(), 2, "deleted clauses stay counted");
        assert_eq!(arena.crefs().count(), 2);
    }
}
