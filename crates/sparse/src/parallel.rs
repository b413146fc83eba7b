//! Parallel versions of the embarrassingly parallel kernels, built on a
//! shared scoped fan-out helper.
//!
//! BEAR's preprocessing is dominated by per-column / per-block
//! computations that are independent of each other — triangular-factor
//! inversion (one sparse solve per column), SpGEMM (one accumulator pass
//! per row), block-diagonal LU (one factorization and inversion per
//! block), and drop-tolerance sparsification (one filter pass per
//! row/column) — so
//! all of them scale nearly linearly with threads by splitting the work
//! into chunks over `std::thread::scope`. Results are stitched back in
//! input order, so every parallel kernel is **bit-identical** to its
//! serial counterpart (each column/row/block is computed by exactly the
//! same code, and f64 arithmetic never crosses a chunk boundary).
//!
//! Two scheduling helpers cover the kernels' needs:
//!
//! * [`split_ranges`] — contiguous near-equal ranges, for kernels whose
//!   per-item cost is roughly uniform (rows of SpGEMM, columns of a
//!   triangular inverse);
//! * [`balance_by_cost`] — greedy LPT (longest-processing-time-first)
//!   chunking for heterogeneous items, e.g. diagonal blocks of `H₁₁`
//!   whose factorization cost grows like `size²`; the largest blocks are
//!   placed first and chunks are balanced by total cost. [`run_by_cost`]
//!   runs items on that schedule and returns their results in item
//!   order.
//!
//! [`run_chunked`] is the shared execution core: it runs the first chunk
//! on the calling thread and the others on scoped helper threads, joins
//! them in order, runs a chunk inline when its helper cannot be spawned
//! or the process has one core, and converts panics into the typed
//! [`Error::KernelPanicked`] instead of aborting the process (consistent
//! with the query engine's worker-panic containment). The serving path
//! uses it too, for its two fixed two-way splits (DESIGN.md §18).
//!
//! A scoped spawn costs tens of microseconds, so the parallel paths only
//! pay off once the serial kernel takes milliseconds — i.e. on the large
//! hub-heavy inputs where BEAR's preprocessing actually hurts; callers
//! (e.g. `BearConfig::threads`) should keep `threads = 1` for small
//! inputs, and the serving splits only engage above a work floor.

use crate::csc::CscMatrix;
use crate::csr::CsrMatrix;
use crate::error::{Error, Result};
use crate::ops::spgemm;
use crate::triangular::{spsolve, SpSolveWorkspace, Triangle};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, OnceLock};

/// Splits `0..n` into at most `parts` contiguous ranges of near-equal
/// length.
pub fn split_ranges(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.max(1).min(n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Partitions the item indices `0..costs.len()` into at most `parts`
/// chunks of near-equal total cost using the greedy LPT rule: items are
/// visited in descending cost order and each goes to the currently
/// least-loaded chunk. Scheduling is fully deterministic (stable
/// descending sort, ties broken by lowest item index; equal loads broken
/// by lowest chunk index) and every index appears in exactly one chunk.
///
/// Within each returned chunk the indices are sorted ascending, so a
/// caller that stitches per-chunk output back by index produces
/// input-ordered (hence bit-identical) results regardless of `parts`.
pub fn balance_by_cost(costs: &[u128], parts: usize) -> Vec<Vec<usize>> {
    let parts = parts.max(1).min(costs.len().max(1));
    let mut order: Vec<usize> = (0..costs.len()).collect();
    // Stable sort: equal costs keep ascending index order.
    order.sort_by_key(|&i| std::cmp::Reverse(costs[i]));
    let mut chunks: Vec<Vec<usize>> = vec![Vec::new(); parts];
    let mut loads = vec![0u128; parts];
    for i in order {
        let k = (0..parts).min_by_key(|&k| (loads[k], k)).expect("parts >= 1");
        chunks[k].push(i);
        loads[k] = loads[k].saturating_add(costs[i]);
    }
    for chunk in &mut chunks {
        chunk.sort_unstable();
    }
    chunks.retain(|c| !c.is_empty());
    chunks
}

/// Runs `work` on every item `0..costs.len()` and returns the results in
/// item order. The items are spread over at most `threads` workers by
/// [`balance_by_cost`] (largest first) and run through [`run_chunked`],
/// so each result is computed by exactly the code a serial loop would
/// run, whatever the thread count.
pub fn run_by_cost<T, F>(
    costs: &[u128],
    threads: usize,
    kernel: &'static str,
    work: F,
) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    let chunks = balance_by_cost(costs, threads);
    let per_chunk = run_chunked(chunks, kernel, |chunk| {
        chunk.into_iter().map(|i| Ok((i, work(i)?))).collect::<Result<Vec<_>>>()
    })?;
    let mut slots: Vec<Option<T>> = (0..costs.len()).map(|_| None).collect();
    for (i, result) in per_chunk.into_iter().flatten() {
        slots[i] = Some(result);
    }
    Ok(slots
        .into_iter()
        .map(|slot| slot.expect("balance_by_cost places every item once"))
        .collect())
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Cores this process may run on (`available_parallelism`, read once:
/// on Linux each call reads the affinity mask and the cgroup CPU quota
/// files).
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Runs `work` over `chunks` and returns the per-chunk results **in
/// input order**: the first chunk on the calling thread, every other
/// chunk on its own scoped helper thread.
///
/// This is the shared execution core of every parallel kernel and of
/// the serving path's two splits (the paged spoke back sweep and the
/// `/v1/batch` encoder). It never makes a result depend on where a
/// chunk ran:
///
/// * with zero or one chunk, or when the process may run on one core
///   only, every chunk runs inline on the calling thread, in order;
/// * a helper that cannot be spawned (`Builder::spawn_scoped` fails,
///   e.g. under a thread limit) is not an error: its chunk runs inline
///   on the calling thread instead;
/// * a panicking chunk no longer aborts the process or unwinds into the
///   caller — the panic is captured and mapped to
///   [`Error::KernelPanicked`] (tagged with `kernel` for diagnosis).
///
/// Error reporting is deterministic: the first failing chunk in input
/// order wins.
pub fn run_chunked<I, T, F>(chunks: Vec<I>, kernel: &'static str, work: F) -> Result<Vec<T>>
where
    I: Send,
    T: Send,
    F: Fn(I) -> Result<T> + Sync,
{
    run_chunked_with(chunks, kernel, work, std::thread::Builder::new)
}

/// [`run_chunked`] with the helper threads built by `builder` (tests
/// pass one whose spawns fail).
fn run_chunked_with<I, T, F, B>(
    chunks: Vec<I>,
    kernel: &'static str,
    work: F,
    builder: B,
) -> Result<Vec<T>>
where
    I: Send,
    T: Send,
    F: Fn(I) -> Result<T> + Sync,
    B: Fn() -> std::thread::Builder,
{
    let run = |chunk: I| -> Result<T> {
        catch_unwind(AssertUnwindSafe(|| work(chunk))).unwrap_or_else(|payload| {
            Err(Error::KernelPanicked { kernel, detail: panic_message(&*payload) })
        })
    };
    if chunks.len() <= 1 || cores() == 1 {
        return chunks.into_iter().map(run).collect();
    }
    let mut chunks = chunks.into_iter();
    let first = chunks.next();
    // Each helper chunk waits in a slot: a spawned helper takes it out,
    // and a failed spawn leaves it for the calling thread.
    let slots: Vec<Mutex<Option<I>>> = chunks.map(|chunk| Mutex::new(Some(chunk))).collect();
    let run_slot = |slot: &Mutex<Option<I>>| match slot.lock().ok().and_then(|mut held| held.take())
    {
        Some(chunk) => run(chunk),
        None => Err(Error::KernelPanicked { kernel, detail: "chunk taken twice".into() }),
    };
    std::thread::scope(|scope| {
        let run_slot = &run_slot;
        let helpers: Vec<_> = slots
            .iter()
            .map(|slot| builder().spawn_scoped(scope, move || run_slot(slot)).ok())
            .collect();
        let mut results = Vec::with_capacity(slots.len() + 1);
        results.extend(first.map(run));
        for (slot, helper) in slots.iter().zip(helpers) {
            results.push(match helper.map(|h| h.join()) {
                Some(Ok(result)) => result,
                // `run` caught the chunk's own panic; this one was raised
                // outside it.
                Some(Err(payload)) => {
                    Err(Error::KernelPanicked { kernel, detail: panic_message(&*payload) })
                }
                None => run_slot(slot),
            });
        }
        results
    })
    .into_iter()
    .collect()
}

/// Parallel triangular inversion: like
/// [`crate::triangular::invert_triangular`] but computing column ranges on
/// `threads` scoped threads.
pub fn par_invert_triangular(
    g: &CscMatrix,
    triangle: Triangle,
    unit_diag: bool,
    threads: usize,
) -> Result<CscMatrix> {
    let n = g.ncols();
    if g.nrows() != n {
        return Err(Error::DimensionMismatch {
            op: "par_invert_triangular",
            lhs: (g.nrows(), g.ncols()),
            rhs: (n, n),
        });
    }
    let ranges = split_ranges(n, threads);
    if ranges.len() <= 1 {
        return crate::triangular::invert_triangular(g, triangle, unit_diag);
    }

    let chunks = run_chunked(ranges, "par_invert_triangular", |range| {
        let mut ws = SpSolveWorkspace::new(n);
        let mut col_ptr = Vec::with_capacity(range.len());
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for j in range {
            let (pat, vals) = spsolve(g, triangle, &[j], &[1.0], unit_diag, &mut ws)?;
            indices.extend_from_slice(&pat);
            values.extend_from_slice(&vals);
            col_ptr.push(indices.len());
        }
        Ok((col_ptr, indices, values))
    })?;

    // Stitch the chunks into one CSC matrix.
    let mut indptr = Vec::with_capacity(n + 1);
    let mut indices = Vec::new();
    let mut values = Vec::new();
    indptr.push(0);
    for (col_ptr, idx, val) in chunks {
        let offset = indices.len();
        indptr.extend(col_ptr.iter().map(|&p| p + offset));
        indices.extend_from_slice(&idx);
        values.extend_from_slice(&val);
    }
    Ok(CscMatrix::from_raw_unchecked(n, n, indptr, indices, values))
}

/// Parallel SpGEMM: row ranges of `A` computed on `threads` threads and
/// stitched together.
pub fn par_spgemm(a: &CsrMatrix, b: &CsrMatrix, threads: usize) -> Result<CsrMatrix> {
    if a.ncols() != b.nrows() {
        return Err(Error::DimensionMismatch {
            op: "par_spgemm",
            lhs: (a.nrows(), a.ncols()),
            rhs: (b.nrows(), b.ncols()),
        });
    }
    let ranges = split_ranges(a.nrows(), threads);
    if ranges.len() <= 1 {
        return spgemm(a, b);
    }

    let chunks = run_chunked(ranges, "par_spgemm", |range| {
        let sub = a.submatrix(range.start, range.end, 0, a.ncols())?;
        spgemm(&sub, b)
    })?;

    let mut indptr = Vec::with_capacity(a.nrows() + 1);
    let mut indices = Vec::new();
    let mut values = Vec::new();
    indptr.push(0);
    for m in chunks {
        let offset = indices.len();
        indptr.extend(m.indptr()[1..].iter().map(|&p| p + offset));
        indices.extend_from_slice(m.indices());
        values.extend_from_slice(m.values());
    }
    Ok(CsrMatrix::from_raw_unchecked(a.nrows(), b.ncols(), indptr, indices, values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::lu::SparseLu;
    use crate::triangular::invert_triangular;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(r: usize, c: usize, seed: u64) -> CsrMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coo = CooMatrix::new(r, c);
        for i in 0..r {
            for j in 0..c {
                if rng.gen_bool(0.1) {
                    coo.push(i, j, rng.gen_range(-2.0..2.0));
                }
            }
        }
        coo.to_csr()
    }

    fn random_dd(n: usize, seed: u64) -> CscMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coo = CooMatrix::new(n, n);
        let mut sums = vec![0.0; n];
        for i in 0..n {
            for (j, sj) in sums.iter_mut().enumerate() {
                if i != j && rng.gen_bool(0.1) {
                    let v: f64 = rng.gen_range(-1.0..1.0);
                    coo.push(i, j, v);
                    *sj += v.abs(); // column dominance
                }
            }
        }
        for (j, &s) in sums.iter().enumerate() {
            coo.push(j, j, s + 1.0);
        }
        coo.to_csr().to_csc()
    }

    #[test]
    fn split_ranges_covers_everything() {
        let ranges = split_ranges(10, 3);
        assert_eq!(ranges.len(), 3);
        let total: usize = ranges.iter().map(|r| r.len()).sum();
        assert_eq!(total, 10);
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges.last().unwrap().end, 10);
        assert_eq!(split_ranges(2, 8).len(), 2);
        assert_eq!(split_ranges(0, 4).len(), 1);
    }

    #[test]
    fn balance_by_cost_partitions_all_indices() {
        let costs = [9u128, 1, 4, 16, 1, 25, 9, 4];
        for parts in [1, 2, 3, 4, 8, 20] {
            let chunks = balance_by_cost(&costs, parts);
            assert!(chunks.len() <= parts.min(costs.len()));
            let mut seen: Vec<usize> = chunks.iter().flatten().copied().collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..costs.len()).collect::<Vec<_>>());
            // Indices inside each chunk stay ascending (stitch order).
            for chunk in &chunks {
                assert!(chunk.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn balance_by_cost_spreads_load() {
        // One huge block plus many small ones: LPT must put the huge one
        // alone and spread the rest, instead of a contiguous split that
        // pairs the huge block with half the small ones.
        let costs = [100u128, 1, 1, 1, 1, 1, 1, 1];
        let chunks = balance_by_cost(&costs, 2);
        assert_eq!(chunks.len(), 2);
        let load = |c: &[usize]| c.iter().map(|&i| costs[i]).sum::<u128>();
        let max_load = chunks.iter().map(|c| load(c)).max().unwrap();
        assert_eq!(max_load, 100); // huge block isolated
        assert_eq!(chunks.iter().map(Vec::len).sum::<usize>(), 8);
    }

    #[test]
    fn balance_by_cost_is_deterministic_on_ties() {
        let costs = [2u128, 2, 2, 2];
        let a = balance_by_cost(&costs, 2);
        let b = balance_by_cost(&costs, 2);
        assert_eq!(a, b);
        assert_eq!(a, vec![vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn balance_by_cost_handles_degenerate_inputs() {
        assert_eq!(balance_by_cost(&[], 4), Vec::<Vec<usize>>::new());
        assert_eq!(balance_by_cost(&[7], 4), vec![vec![0]]);
        // All-zero costs still place every index exactly once.
        let chunks = balance_by_cost(&[0, 0, 0], 2);
        let mut seen: Vec<usize> = chunks.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
    }

    /// Results come back in item order for every thread count, and the
    /// earliest failing item's error wins when one worker runs it.
    #[test]
    fn run_by_cost_returns_item_order() {
        let costs = [9u128, 1, 4, 16, 1, 25, 9, 4];
        for threads in [1, 2, 3, 8] {
            let out = run_by_cost(&costs, threads, "test", |i| Ok(i * 10)).unwrap();
            assert_eq!(out, (0..8).map(|i| i * 10).collect::<Vec<_>>());
        }
        let err = run_by_cost(&costs, 1, "test", |i| {
            if i >= 3 {
                Err(Error::SingularMatrix { at: i })
            } else {
                Ok(i)
            }
        })
        .unwrap_err();
        assert_eq!(err, Error::SingularMatrix { at: 3 });
        assert!(run_by_cost(&[], 4, "test", Ok).unwrap().is_empty());
    }

    #[test]
    fn run_chunked_preserves_input_order() {
        let chunks: Vec<usize> = (0..8).collect();
        let out = run_chunked(chunks, "test", |i| Ok(i * 10)).unwrap();
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    /// Failpoint-style containment test: a worker that panics mid-kernel
    /// must surface as `Error::KernelPanicked`, not abort the process,
    /// and the earliest failing chunk must win deterministically.
    #[test]
    fn run_chunked_contains_worker_panics() {
        let chunks = vec![0usize, 1, 2, 3];
        let err = run_chunked(chunks, "panicky_kernel", |i| {
            if i == 2 {
                panic!("injected fault in chunk {i}");
            }
            Ok(i)
        })
        .unwrap_err();
        match err {
            Error::KernelPanicked { kernel, detail } => {
                assert_eq!(kernel, "panicky_kernel");
                assert!(detail.contains("injected fault in chunk 2"), "detail: {detail}");
            }
            other => panic!("expected KernelPanicked, got {other:?}"),
        }
    }

    /// The first chunk runs on the calling thread, never on a helper.
    #[test]
    fn run_chunked_runs_the_first_chunk_on_the_caller() {
        let caller = std::thread::current().id();
        let ran_on =
            run_chunked(vec![0usize, 1, 2], "test", |_| Ok(std::thread::current().id())).unwrap();
        assert_eq!(ran_on[0], caller);
        assert_eq!(ran_on.len(), 3);
    }

    /// A helper whose spawn fails (a stack no address space can hold:
    /// the spawn is refused before any thread starts) is not an error:
    /// its chunk runs inline, results stay in input order, and a panic
    /// in such a chunk is still contained.
    #[test]
    fn run_chunked_runs_unspawnable_chunks_inline() {
        let unspawnable = || std::thread::Builder::new().stack_size(1 << 60);
        let caller = std::thread::current().id();
        let out = run_chunked_with(
            (0..4usize).collect(),
            "test",
            |i| Ok((i * 10, std::thread::current().id())),
            unspawnable,
        )
        .unwrap();
        assert_eq!(out.iter().map(|&(v, _)| v).collect::<Vec<_>>(), vec![0, 10, 20, 30]);
        assert!(out.iter().all(|&(_, id)| id == caller));

        let err = run_chunked_with(
            vec![0usize, 1, 2],
            "inline_panic",
            |i| {
                if i == 1 {
                    panic!("injected fault in chunk {i}");
                }
                Ok(i)
            },
            unspawnable,
        )
        .unwrap_err();
        assert!(matches!(err, Error::KernelPanicked { kernel: "inline_panic", .. }), "{err:?}");
    }

    #[test]
    fn run_chunked_prefers_earliest_typed_error() {
        let chunks = vec![0usize, 1, 2];
        let err = run_chunked(chunks, "test", |i| {
            if i >= 1 {
                Err(Error::SingularMatrix { at: i })
            } else {
                Ok(i)
            }
        })
        .unwrap_err();
        assert_eq!(err, Error::SingularMatrix { at: 1 });
    }

    #[test]
    fn run_chunked_single_chunk_runs_inline() {
        // One chunk must not spawn (and must still contain its errors).
        let out = run_chunked(vec![41usize], "test", |i| Ok(i + 1)).unwrap();
        assert_eq!(out, vec![42]);
        assert!(run_chunked(Vec::<usize>::new(), "test", Ok).unwrap().is_empty());
    }

    #[test]
    fn par_spgemm_matches_serial() {
        let a = random_matrix(40, 30, 1);
        let b = random_matrix(30, 25, 2);
        let serial = spgemm(&a, &b).unwrap();
        for threads in [1, 2, 4, 7] {
            assert_eq!(par_spgemm(&a, &b, threads).unwrap(), serial);
        }
    }

    #[test]
    fn par_invert_matches_serial() {
        let a = random_dd(50, 3);
        let lu = SparseLu::factor(&a).unwrap();
        let serial_l = invert_triangular(lu.l(), Triangle::Lower, true).unwrap();
        let serial_u = invert_triangular(lu.u(), Triangle::Upper, false).unwrap();
        for threads in [2, 4] {
            let par_l = par_invert_triangular(lu.l(), Triangle::Lower, true, threads).unwrap();
            let par_u = par_invert_triangular(lu.u(), Triangle::Upper, false, threads).unwrap();
            assert_eq!(par_l.to_csr(), serial_l.to_csr());
            assert_eq!(par_u.to_csr(), serial_u.to_csr());
        }
    }

    #[test]
    fn par_kernels_validate_dimensions() {
        let a = CsrMatrix::identity(3);
        let b = CsrMatrix::identity(4);
        assert!(par_spgemm(&a, &b, 2).is_err());
        let rect = random_matrix(3, 4, 5).to_csc();
        assert!(par_invert_triangular(&rect, Triangle::Lower, true, 2).is_err());
    }

    #[test]
    fn par_invert_propagates_singularity() {
        // Lower triangular with a zero diagonal entry.
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 1.0);
        coo.push(2, 2, 1.0);
        coo.push(1, 0, 1.0);
        let l = coo.to_csr().to_csc();
        assert!(par_invert_triangular(&l, Triangle::Lower, false, 2).is_err());
    }
}
