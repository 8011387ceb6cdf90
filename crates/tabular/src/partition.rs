//! Morsels over one table: the partitioned primitive the cold-query kernels
//! and the JSON writer share.
//!
//! A morsel is a 64-row-aligned range of the one table — nothing is sliced
//! or copied, so a morsel's mask words are whole words of the table's mask
//! and its rows keep their table row ids. A kernel asks [`morsels`] for a
//! morsel count; under a floor of rows ([`SCAN_FLOOR`], [`WRITE_FLOOR`]),
//! with no helper thread to share it, or for a reason of its own, it runs
//! its single pass exactly as before (and says why, [`Reason`]).
//! Otherwise it runs its morsels through [`map_into`] on the process-wide
//! [`Pool`] and joins their outputs in morsel order, so the result is the
//! single pass's byte for byte.
//!
//! What each kernel chose is kept per thread for the caller's trace
//! ([`take_verdict`]).

use parking_lot::{Pool, Ran};
use std::cell::Cell;
use std::ops::Range;

/// Rows scanned below which a scanning kernel (a group-by's fold, a
/// mask's leaves) runs its single pass. A job costs a wake of a parked
/// helper, a fresh partial per morsel and a merge — 25–40 µs with 5,000
/// groups — while a fold costs ~8 ns a row: two morsels lost to one pass
/// up to 8,192 rows and won from 16,384 (DESIGN.md §5.27).
pub const SCAN_FLOOR: usize = 16_384;

/// Rows written below which a writing kernel (a JSON body, a top-n's
/// gather) runs its single pass. A JSON row costs ~30 times a folded one:
/// two morsels already won at 256 rows, and a 50-row page stays single.
pub const WRITE_FLOOR: usize = 256;

/// Why a kernel ran its single pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reason {
    /// Fewer rows than the kernel's floor.
    UnderFloor,
    /// A float `sum`/`avg`: merged partial sums are a sum of sums, which
    /// rounds differently from the single pass.
    FloatSum,
    /// A group-by key without a dictionary: no shared codes to merge on.
    UncodedKey,
    /// The pool has no helper thread (one CPU).
    NoHelpers,
}

impl Reason {
    /// The name a trace attribute carries.
    pub fn name(self) -> &'static str {
        match self {
            Reason::UnderFloor => "under_floor",
            Reason::FloatSum => "float_sum",
            Reason::UncodedKey => "uncoded_key",
            Reason::NoHelpers => "no_helpers",
        }
    }
}

/// What the kernels a thread ran since its last [`take_verdict`] chose.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Morsels run, summed over partitioned kernels.
    pub morsels: usize,
    /// Of them, morsels a helper thread ran.
    pub helped: usize,
    /// Whether any kernel ran partitioned.
    pub partitioned: bool,
    /// The first single-pass reason, when a kernel ran its single pass.
    pub reason: Option<Reason>,
}

impl Verdict {
    /// `partitioned` or `single`.
    pub fn path(&self) -> &'static str {
        if self.partitioned {
            "partitioned"
        } else {
            "single"
        }
    }
}

thread_local! {
    static VERDICT: Cell<Option<Verdict>> = const { Cell::new(None) };
    static FORCED: Cell<Option<usize>> = const { Cell::new(None) };
}

/// What the kernels this thread ran chose since the last call; `None` when
/// no kernel ran.
pub fn take_verdict() -> Option<Verdict> {
    VERDICT.with(Cell::take)
}

fn note(update: impl FnOnce(&mut Verdict)) {
    VERDICT.with(|cell| {
        let mut verdict = cell.take().unwrap_or_default();
        update(&mut verdict);
        cell.set(Some(verdict));
    });
}

/// Run `f` with every kernel on this thread partitioned into `morsels`
/// morsels whatever its size and the pool's: the differential tests' way
/// to cover each morsel count on any machine. Not an option of the
/// program.
#[doc(hidden)]
pub fn with_morsels<R>(morsels: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(FORCED.with(|c| c.replace(Some(morsels.max(1)))));
    f()
}

/// The most morsels a kernel cuts its rows into, whatever the pool's
/// size. Every morsel pays a fixed cost — a group-by's partial holds
/// every group the morsel meets, and the merge folds each partial — and
/// two is the count that was measured to win (on two CPUs, where four
/// measured slower than two). More morsels on a larger machine stay
/// unmeasured until this is raised on one (DESIGN.md §5.27).
const MAX_MORSELS: usize = 2;

/// The morsel count for `rows` rows of work under `floor` — one per pool
/// thread, the caller included, up to [`MAX_MORSELS`] — or why to stay
/// single. A helper that wakes late leaves its morsel to the caller.
pub(crate) fn plan(rows: usize, floor: usize) -> Result<usize, Reason> {
    let fit = |m: usize| m.min(rows.div_ceil(64)).max(1);
    if let Some(forced) = FORCED.with(Cell::get) {
        return Ok(fit(forced));
    }
    if rows < floor {
        return Err(Reason::UnderFloor);
    }
    match Pool::global().helpers() {
        0 => Err(Reason::NoHelpers),
        helpers => Ok(fit((helpers + 1).min(MAX_MORSELS))),
    }
}

/// [`plan`] for a kernel that may also decline for its own `reason`: the
/// kernel's reason wins, even over [`with_morsels`], so a trace says why
/// the shape stays single on a large input.
fn plan_unless(rows: usize, floor: usize, reason: Option<Reason>) -> Result<usize, Reason> {
    match reason {
        Some(reason) => Err(reason),
        None => plan(rows, floor),
    }
}

/// Record that a kernel runs its single pass for `reason`.
fn single(reason: Reason) {
    Pool::global().note_single();
    note(|v| {
        v.reason.get_or_insert(reason);
    });
}

/// The morsel count for `rows` rows of work under `floor`, unless the
/// kernel declines for `reason`; `None`, with the single pass recorded
/// for the trace, means "run the single pass".
pub fn morsels(rows: usize, floor: usize, reason: Option<Reason>) -> Option<usize> {
    plan_unless(rows, floor, reason).map_err(single).ok()
}

/// Morsel `i` of `morsels` over `rows` rows: in order, covering every row
/// once, each non-empty one starting on a multiple of 64; trailing
/// morsels may be empty.
pub fn range(rows: usize, morsels: usize, i: usize) -> Range<usize> {
    let per = rows.div_ceil(morsels.max(1)).next_multiple_of(64);
    (i * per).min(rows)..((i + 1) * per).min(rows)
}

/// [`Pool::map_into`] on the process-wide pool, the morsels it ran
/// recorded for this thread's [`take_verdict`].
pub fn map_into<T: Send + 'static>(
    outs: Vec<T>,
    work: impl Fn(usize, &mut T) + Send + Sync + 'static,
) -> Vec<T> {
    let (outs, ran) = Pool::global().map_into(outs, work);
    record(ran);
    outs
}

/// [`Pool::map`] on the process-wide pool, recorded as [`map_into`] is.
pub(crate) fn map<T: Send + 'static>(
    morsels: usize,
    work: impl Fn(usize) -> T + Send + Sync + 'static,
) -> Vec<T> {
    let (outs, ran) = Pool::global().map(morsels, work);
    record(ran);
    outs
}

/// Record a job's morsels for this thread's [`take_verdict`].
fn record(ran: Ran) {
    note(|v| {
        v.partitioned = true;
        v.morsels += ran.morsels;
        v.helped += ran.helped;
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_are_aligned_ordered_and_cover_every_row() {
        for rows in [0, 1, 63, 64, 65, 1000, 4097, 100_000] {
            for morsels in 1..=8 {
                let mut next = 0;
                for i in 0..morsels {
                    let r = range(rows, morsels, i);
                    assert_eq!(r.start, next, "{rows} rows, {morsels} morsels");
                    assert!(r.start.is_multiple_of(64) || r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, rows);
            }
        }
    }

    #[test]
    fn forced_morsels_override_the_floor_and_restore() {
        assert_eq!(plan(10, WRITE_FLOOR), Err(Reason::UnderFloor));
        with_morsels(3, || {
            assert_eq!(plan(10, SCAN_FLOOR), Ok(1), "never more morsels than words");
            assert_eq!(plan(1000, SCAN_FLOOR), Ok(3));
            let declined = plan_unless(1000, SCAN_FLOOR, Some(Reason::FloatSum));
            assert_eq!(declined, Err(Reason::FloatSum));
        });
        let unforced = plan(1 << 20, SCAN_FLOOR);
        assert!(unforced.map_or(true, |m| m <= MAX_MORSELS), "{unforced:?}");
        assert_eq!(plan(10, WRITE_FLOOR), Err(Reason::UnderFloor));
    }

    #[test]
    fn map_keeps_morsel_order_and_records_a_verdict() {
        let _ = take_verdict();
        let out = map(5, |i| i * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
        let v = take_verdict().expect("recorded");
        assert!(v.partitioned);
        assert_eq!(v.morsels, 5);
        assert_eq!(take_verdict(), None);
    }
}
