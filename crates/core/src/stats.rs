//! Accounting for the precomputed matrices (Tables 2 and 4 of the paper),
//! plus per-stage preprocessing wall-clock timings.

use std::time::Duration;

/// Wall-clock time spent in each stage of Algorithm 1, recorded while
/// [`crate::Bear::new`] runs. All zeros for an index loaded from disk
/// (the work happened in another process).
///
/// Stage names follow the paper's line numbers: `build_h` (line 1),
/// `slashburn` (lines 2–3), `partition` (line 4), `factor_h11` /
/// `invert_h11` (line 5), `schur` (lines 6–7, including the hub
/// reordering), `factor_schur` / `invert_schur` (line 8), and `sparsify`
/// (line 9, zero for BEAR-Exact). The spoke blocks are factored,
/// inverted and sparsified on the workers one block at a time, so the
/// wall time of that stage is split among `factor_h11`, `invert_h11`
/// and `sparsify` in proportion to the workers' time in each.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Building `H = I − (1−c) Ãᵀ`.
    pub build_h: Duration,
    /// SlashBurn ordering plus the symmetric permutation of `H`.
    pub slashburn: Duration,
    /// Partitioning `H` into `H₁₁, H₁₂, H₂₁, H₂₂`.
    pub partition: Duration,
    /// Block-diagonal LU factorization of `H₁₁`.
    pub factor_h11: Duration,
    /// Inversion of the `H₁₁` triangular factors (`L₁⁻¹`, `U₁⁻¹`).
    pub invert_h11: Duration,
    /// Schur complement `S = H₂₂ − H₂₁ U₁⁻¹ L₁⁻¹ H₁₂` and hub reorder.
    pub schur: Duration,
    /// LU factorization of `S`.
    pub factor_schur: Duration,
    /// Inversion of the `S` triangular factors (`L₂⁻¹`, `U₂⁻¹`).
    pub invert_schur: Duration,
    /// Drop-tolerance sparsification of the six output matrices.
    pub sparsify: Duration,
    /// End-to-end preprocessing time (the stages above plus stitching).
    pub total: Duration,
}

impl StageTimings {
    /// Compact single-line rendering (seconds per stage), for CLI and
    /// bench reporting.
    pub fn summary(&self) -> String {
        format!(
            "build_h={:.3}s slashburn={:.3}s partition={:.3}s factor_h11={:.3}s \
             invert_h11={:.3}s schur={:.3}s factor_schur={:.3}s invert_schur={:.3}s \
             sparsify={:.3}s total={:.3}s",
            self.build_h.as_secs_f64(),
            self.slashburn.as_secs_f64(),
            self.partition.as_secs_f64(),
            self.factor_h11.as_secs_f64(),
            self.invert_h11.as_secs_f64(),
            self.schur.as_secs_f64(),
            self.factor_schur.as_secs_f64(),
            self.invert_schur.as_secs_f64(),
            self.sparsify.as_secs_f64(),
            self.total.as_secs_f64(),
        )
    }
}

/// Nonzero counts and total bytes of BEAR's six precomputed matrices,
/// plus the structural statistics the paper reports per dataset.
///
/// Equality intentionally ignores [`PrecomputedStats::timings`]: two runs
/// of the same preprocessing are "equal" when they produced the same
/// matrices, regardless of how long each stage took (this is what the
/// serial-vs-parallel determinism tests assert).
#[derive(Debug, Clone)]
pub struct PrecomputedStats {
    /// Number of nodes.
    pub n: usize,
    /// Number of spokes (`n₁`).
    pub n1: usize,
    /// Number of hubs (`n₂`).
    pub n2: usize,
    /// Number of diagonal blocks in `H₁₁` (`b`).
    pub num_blocks: usize,
    /// `Σᵢ n₁ᵢ²` (Table 4 column).
    pub sum_block_sq: u128,
    /// Nonzeros of `L₁⁻¹`.
    pub nnz_l1_inv: usize,
    /// Nonzeros of `U₁⁻¹`.
    pub nnz_u1_inv: usize,
    /// Nonzeros of `L₂⁻¹`.
    pub nnz_l2_inv: usize,
    /// Nonzeros of `U₂⁻¹`.
    pub nnz_u2_inv: usize,
    /// Nonzeros of `H₁₂`.
    pub nnz_h12: usize,
    /// Nonzeros of `H₂₁`.
    pub nnz_h21: usize,
    /// Total bytes of the six matrices in compressed sparse storage.
    pub bytes: usize,
    /// Per-stage preprocessing wall-clock timings (zeros for a loaded
    /// index). Excluded from equality.
    pub timings: StageTimings,
}

impl PartialEq for PrecomputedStats {
    fn eq(&self, other: &Self) -> bool {
        // Everything except `timings`, which is run-dependent.
        self.n == other.n
            && self.n1 == other.n1
            && self.n2 == other.n2
            && self.num_blocks == other.num_blocks
            && self.sum_block_sq == other.sum_block_sq
            && self.nnz_l1_inv == other.nnz_l1_inv
            && self.nnz_u1_inv == other.nnz_u1_inv
            && self.nnz_l2_inv == other.nnz_l2_inv
            && self.nnz_u2_inv == other.nnz_u2_inv
            && self.nnz_h12 == other.nnz_h12
            && self.nnz_h21 == other.nnz_h21
            && self.bytes == other.bytes
    }
}

impl Eq for PrecomputedStats {}

impl PrecomputedStats {
    /// Total nonzeros across all six precomputed matrices (the paper's
    /// `#nz` in Figure 2).
    pub fn total_nnz(&self) -> usize {
        self.nnz_l1_inv
            + self.nnz_u1_inv
            + self.nnz_l2_inv
            + self.nnz_u2_inv
            + self.nnz_h12
            + self.nnz_h21
    }

    /// `|L₁⁻¹| + |U₁⁻¹|` (Table 4 column).
    pub fn nnz_spoke_factors(&self) -> usize {
        self.nnz_l1_inv + self.nnz_u1_inv
    }

    /// `|L₂⁻¹| + |U₂⁻¹|` (Table 4 column).
    pub fn nnz_hub_factors(&self) -> usize {
        self.nnz_l2_inv + self.nnz_u2_inv
    }

    /// `|H₁₂| + |H₂₁|` (Table 4 column).
    pub fn nnz_cross(&self) -> usize {
        self.nnz_h12 + self.nnz_h21
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PrecomputedStats {
        PrecomputedStats {
            n: 10,
            n1: 8,
            n2: 2,
            num_blocks: 3,
            sum_block_sq: 24,
            nnz_l1_inv: 1,
            nnz_u1_inv: 2,
            nnz_l2_inv: 3,
            nnz_u2_inv: 4,
            nnz_h12: 5,
            nnz_h21: 6,
            bytes: 100,
            timings: StageTimings::default(),
        }
    }

    #[test]
    fn aggregates_add_up() {
        let s = sample();
        assert_eq!(s.total_nnz(), 21);
        assert_eq!(s.nnz_spoke_factors(), 3);
        assert_eq!(s.nnz_hub_factors(), 7);
        assert_eq!(s.nnz_cross(), 11);
    }

    #[test]
    fn equality_ignores_timings() {
        let a = sample();
        let mut b = sample();
        b.timings.total = Duration::from_secs(7);
        b.timings.schur = Duration::from_millis(3);
        assert_eq!(a, b);
        let mut c = sample();
        c.nnz_h21 = 999;
        assert_ne!(a, c);
    }

    #[test]
    fn timings_summary_lists_every_stage() {
        let t = StageTimings { total: Duration::from_millis(1500), ..StageTimings::default() };
        let s = t.summary();
        for stage in [
            "build_h=",
            "slashburn=",
            "partition=",
            "factor_h11=",
            "invert_h11=",
            "schur=",
            "factor_schur=",
            "invert_schur=",
            "sparsify=",
            "total=1.500s",
        ] {
            assert!(s.contains(stage), "missing {stage} in {s}");
        }
    }
}
