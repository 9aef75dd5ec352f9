//! Blocking and parallelisation configuration for the BLAS-3 kernels.

use std::fmt;

/// The register-tile table: one row per tile, `Variant = MR x NR`, each
/// with its doc comment.
///
/// The rows stamp everything a tile is: the [`TileVariant`] enum,
/// [`TileVariant::ALL`] (in row order, the autotune candidate order),
/// [`TileVariant::mr`] / [`TileVariant::nr`], the tag `"MRxNR"`
/// ([`TileVariant::tag`]), and the crate-private `with_tile!` that every
/// kernel dispatches through:
///
/// ```text
/// with_tile!(cfg.tile, MR, NR => microkernel::<MR, NR>(kb, ap, bp, acc))
/// ```
///
/// expands to one `match` arm per row in which `MR` and `NR` are `const`s
/// of that row, so each tile names exactly one monomorphisation of every
/// `const`-generic kernel and a dispatch site never spells a variant.
/// Adding a tile is adding a row; deleting one is deleting its row.
///
/// The leading `$` is passed in so the nested `macro_rules!` can spell its
/// own metavariables.
macro_rules! tile_table {
    ($d:tt $($(#[$doc:meta])* $variant:ident = $mr:literal x $nr:literal;)+) => {
        /// A register-tile shape of the micro-kernel: the `MR x NR` block of
        /// `C` one micro-kernel invocation accumulates.
        ///
        /// Each variant is one row of the tile table in this module and
        /// names a dedicated, monomorphised instantiation of
        /// [`crate::microkernel::microkernel`] (and of every kernel generic
        /// over the tile), so the compiler sees fixed `MR`/`NR` and reliably
        /// unrolls and auto-vectorises the accumulator columns. Which
        /// variant is fastest depends on the machine's vector width and
        /// register file — that is exactly what `lamb calibrate --autotune`
        /// measures.
        ///
        /// [`TileVariant::default`] is chosen from the compile target, the
        /// way [`mod@crate::microkernel`] chooses fusion: the tile whose
        /// accumulator fills the vector register file without spilling.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum TileVariant {
            $($(#[$doc])* $variant,)+
        }

        impl TileVariant {
            /// Every supported variant, in autotune candidate order.
            pub const ALL: [TileVariant; [$(TileVariant::$variant),+].len()] =
                [$(TileVariant::$variant),+];

            /// Register-tile height (rows of `C` per micro-tile).
            #[must_use]
            pub const fn mr(self) -> usize {
                match self {
                    $(TileVariant::$variant => $mr,)+
                }
            }

            /// Register-tile width (columns of `C` per micro-tile).
            #[must_use]
            pub const fn nr(self) -> usize {
                match self {
                    $(TileVariant::$variant => $nr,)+
                }
            }

            /// Stable textual tag (`"8x4"`, ...), used in fingerprints and in
            /// the calibration-store document.
            #[must_use]
            pub const fn tag(self) -> &'static str {
                match self {
                    $(TileVariant::$variant => concat!($mr, "x", $nr),)+
                }
            }
        }

        /// `with_tile!(tile, MR, NR => expr)`: evaluate `expr` with `MR` and
        /// `NR` bound as `const`s to the register tile `tile` names.
        macro_rules! with_tile {
            ($d tile:expr, $d mr:ident, $d nr:ident => $d body:expr) => {
                match $d tile {
                    $($crate::config::TileVariant::$variant => {
                        const $d mr: usize = $mr;
                        const $d nr: usize = $nr;
                        $d body
                    })+
                }
            };
        }
        pub(crate) use with_tile;
    };
}

tile_table! {$
    /// 8 rows x 4 columns — four accumulator columns: modest register
    /// pressure, the default wherever the target has 16 vector registers
    /// (AVX2: the 16 `ymm` accumulators of an 8 x 8 tile would spill).
    T8x4 = 8 x 4;
    /// 8 x 8 — double the B-reuse per packed A load, and eight independent
    /// accumulator columns to hide the FMA latency that four cannot. The
    /// default under AVX-512, where the tile is 8 of the 32 `zmm` registers.
    T8x8 = 8 x 8;
    /// 4 x 8 — the transpose of 8 x 4; favours wide-`n` outputs.
    T4x8 = 4 x 8;
    /// 16 x 4 — tall tile, maximises A-panel throughput per B element.
    T16x4 = 16 x 4;
    /// 8 x 12 — the classic BLIS-style wide tile for machines with many
    /// vector registers.
    T8x12 = 8 x 12;
}

impl Default for TileVariant {
    /// [`TileVariant::T8x8`] when the compile target has AVX-512 (32 vector
    /// registers), [`TileVariant::T8x4`] otherwise.
    fn default() -> Self {
        if cfg!(target_feature = "avx512f") {
            TileVariant::T8x8
        } else {
            TileVariant::T8x4
        }
    }
}

impl TileVariant {
    /// Accumulator length (`mr * nr`) of this variant.
    #[must_use]
    pub const fn acc_len(self) -> usize {
        self.mr() * self.nr()
    }

    /// Parse a [`TileVariant::tag`] back into the variant.
    #[must_use]
    pub fn parse(tag: &str) -> Option<Self> {
        TileVariant::ALL.into_iter().find(|v| v.tag() == tag)
    }
}

impl fmt::Display for TileVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// Largest accumulator any [`TileVariant`] needs; the driver's stack scratch
/// is sized by this so tile dispatch never allocates.
pub const MAX_TILE_ACC: usize = {
    let mut max = 0;
    let mut i = 0;
    while i < TileVariant::ALL.len() {
        let len = TileVariant::ALL[i].acc_len();
        if len > max {
            max = len;
        }
        i += 1;
    }
    max
};

/// Cache-blocking and parallelisation parameters shared by GEMM, SYRK and
/// SYMM.
///
/// The defaults target a generic x86-64 core: an `MC x KC` block of the packed
/// `A` operand fits comfortably in L2, a `KC x NR` sliver of packed `B` in L1.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockConfig {
    /// Rows of `C` (and of `op(A)`) per cache block.
    pub mc: usize,
    /// Inner (`k`) dimension per cache block.
    pub kc: usize,
    /// Columns of `C` (and of `op(B)`) per outermost block.
    pub nc: usize,
    /// Diagonal-block size of TRMM and of the POTRF / GETRF / QR
    /// recurrences, and the widest ORMQR panel: these kernels walk their
    /// triangular or factored operand in blocks of this order, handling
    /// everything off the diagonal block with the packed rectangular core.
    /// (TRSM blocks its triangle by `kc` and `mc` and does not read it.)
    pub tri_block: usize,
    /// Register-tile shape of the micro-kernel. A tunable like the cache
    /// blocks: the autotuner sweeps it, and it participates in the
    /// fingerprint because timings under different tiles are not comparable.
    pub tile: TileVariant,
    /// Whether to parallelise over column panels of `C` with Rayon.
    pub parallel: bool,
    /// Minimum number of useful FLOPs before the parallel path is taken.
    ///
    /// Handing a panel to a pooled worker costs microseconds, not a thread
    /// spawn, and a warm GEMM repeated in a loop already gains from two
    /// threads at order 96. What sets the default is the cost a loop like
    /// that hides: in a sequence of kernel calls the operands were just
    /// written by the calling thread, so a second core starts by pulling its
    /// share of them (and every worker packs all of `A`) and hands its part
    /// of `C` back the same way. Served end to end, calls below about order
    /// 192 ran no faster split than whole (`BENCH_pool.json`), and a kernel
    /// whose isolated timing flatters it is exactly what the selector must
    /// not be fed.
    pub parallel_flop_threshold: u64,
}

impl Default for BlockConfig {
    fn default() -> Self {
        BlockConfig {
            mc: 128,
            kc: 256,
            nc: 4096,
            tri_block: 64,
            tile: TileVariant::default(),
            parallel: true,
            parallel_flop_threshold: 2 * 192 * 192 * 192,
        }
    }
}

impl BlockConfig {
    /// A configuration that never uses Rayon; useful for baselines, for
    /// nested-parallel contexts, and for isolating single-core efficiency.
    #[must_use]
    pub fn serial() -> Self {
        BlockConfig {
            parallel: false,
            ..BlockConfig::default()
        }
    }

    /// A configuration with tiny blocks, used by tests to force many edge
    /// cases (partial tiles in every dimension) with small matrices.
    #[must_use]
    pub fn tiny() -> Self {
        BlockConfig {
            mc: 8,
            kc: 8,
            nc: 8,
            tri_block: 3,
            tile: TileVariant::default(),
            parallel: false,
            parallel_flop_threshold: u64::MAX,
        }
    }

    /// This configuration re-tiled to `tile` (blocks untouched).
    #[must_use]
    pub fn with_tile(self, tile: TileVariant) -> Self {
        BlockConfig { tile, ..self }
    }

    /// Decide whether a problem of the given logical dimensions should run in
    /// parallel under this configuration.
    #[must_use]
    pub fn should_parallelise(&self, m: usize, n: usize, k: usize) -> bool {
        if !self.parallel || rayon::current_num_threads() <= 1 {
            return false;
        }
        let flops = 2 * (m as u64) * (n as u64) * (k as u64);
        flops >= self.parallel_flop_threshold && n >= 2 * self.tile.nr()
    }

    /// Width of the column panels distributed to Rayon workers for an output
    /// matrix with `n` columns: one panel per thread. Every panel packs the
    /// whole of `A` for itself, so each panel beyond the thread count buys
    /// its load balancing with another copy of that work.
    #[must_use]
    pub fn parallel_panel_width(&self, n: usize) -> usize {
        let nr = self.tile.nr();
        let threads = rayon::current_num_threads().max(1);
        let target = n.div_ceil(threads).max(nr);
        // Round up to a multiple of NR so that full micro-tiles dominate.
        target.div_ceil(nr) * nr
    }

    /// A short, stable fingerprint of every parameter that affects kernel
    /// timing (cache blocks, the triangular-kernel diagonal block, register
    /// tile, parallel policy). Calibration stores record it as staleness
    /// metadata: benchmark times taken under one configuration are not
    /// comparable to runs under another, so every timing-relevant knob —
    /// including the block sizes of kernels added after a store was written —
    /// must contribute to the fingerprint.
    ///
    /// `parallel_flop_threshold` is included unconditionally (not only when
    /// `parallel` is set): two configs that differ only in the parallel
    /// cutoff time differently, and collapsing them to one fingerprint would
    /// defeat store staleness detection.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        format!(
            "mc{}-kc{}-nc{}-tb{}-r{}-pft{}-{}",
            self.mc,
            self.kc,
            self.nc,
            self.tri_block,
            self.tile.tag(),
            self.parallel_flop_threshold,
            if self.parallel { "par" } else { "serial" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_blocks_are_multiples_of_register_tiles() {
        let c = BlockConfig::default();
        assert_eq!(c.mc % c.tile.mr(), 0);
        assert_eq!(c.nc % c.tile.nr(), 0);
        assert!(c.parallel);
    }

    #[test]
    fn tile_variants_expose_consistent_dimensions() {
        let mut tags = std::collections::HashSet::new();
        for tile in TileVariant::ALL {
            // The dispatch instantiates exactly the row's shape.
            let (mr, nr) = with_tile!(tile, MR, NR => (MR, NR));
            assert_eq!((mr, nr), (tile.mr(), tile.nr()), "{tile}");
            assert_eq!(tile.acc_len(), tile.mr() * tile.nr());
            assert!(tags.insert(tile.tag()), "duplicate tag {tile}");
            assert_eq!(TileVariant::parse(tile.tag()), Some(tile), "{tile}");
            assert_eq!(tile.tag(), format!("{}x{}", tile.mr(), tile.nr()));
        }
        let largest = TileVariant::ALL.map(TileVariant::acc_len).into_iter().max();
        assert_eq!(largest, Some(MAX_TILE_ACC));
        assert_eq!(TileVariant::parse("3x3"), None);
        // The default follows the compile target's register file.
        let expected = if cfg!(target_feature = "avx512f") {
            TileVariant::T8x8
        } else {
            TileVariant::T8x4
        };
        assert_eq!(TileVariant::default(), expected);
    }

    #[test]
    fn serial_config_never_parallelises() {
        let c = BlockConfig::serial();
        assert!(!c.should_parallelise(4096, 4096, 4096));
    }

    #[test]
    fn tiny_problems_stay_serial() {
        let c = BlockConfig::default();
        assert!(!c.should_parallelise(8, 8, 8));
        assert!(!c.should_parallelise(1000, 2, 1000));
    }

    #[test]
    fn fingerprints_distinguish_timing_relevant_configs() {
        let default = BlockConfig::default().fingerprint();
        assert_eq!(default, BlockConfig::default().fingerprint());
        assert_ne!(default, BlockConfig::serial().fingerprint());
        assert_ne!(default, BlockConfig::tiny().fingerprint());
        assert!(default.contains("mc128"));
        assert!(BlockConfig::serial().fingerprint().ends_with("serial"));
    }

    #[test]
    fn fingerprint_covers_the_register_tile() {
        // Tile dispatch changes every kernel's timing, so two configs that
        // differ only in the register tile must fingerprint differently.
        let mut seen = std::collections::HashSet::new();
        for tile in TileVariant::ALL {
            let fp = BlockConfig::default().with_tile(tile).fingerprint();
            assert!(fp.contains(&format!("r{}", tile.tag())), "{fp}");
            assert!(seen.insert(fp), "duplicate fingerprint for {tile}");
        }
    }

    #[test]
    fn fingerprint_covers_the_parallel_flop_threshold() {
        // Regression for the staleness contract: two configs differing only
        // in the parallel cutoff time differently (one forks, one does not),
        // so they must not collapse to one fingerprint — in either parallel
        // mode.
        let default = BlockConfig::default();
        let retuned = BlockConfig {
            parallel_flop_threshold: default.parallel_flop_threshold * 4,
            ..default.clone()
        };
        assert_ne!(default.fingerprint(), retuned.fingerprint());
        let serial = BlockConfig::serial();
        let serial_retuned = BlockConfig {
            parallel_flop_threshold: serial.parallel_flop_threshold * 4,
            ..serial.clone()
        };
        assert_ne!(serial.fingerprint(), serial_retuned.fingerprint());
        assert!(default
            .fingerprint()
            .contains(&format!("pft{}", default.parallel_flop_threshold)));
    }

    #[test]
    fn fingerprint_covers_the_triangular_block_size() {
        // Regression for the staleness contract: TRMM, SYRK and factorisation
        // timings depend on `tri_block`, so changing it must change the fingerprint (and thereby
        // flag existing calibration stores as stale).
        let default = BlockConfig::default();
        let retuned = BlockConfig {
            tri_block: default.tri_block * 2,
            ..default.clone()
        };
        assert_ne!(default.fingerprint(), retuned.fingerprint());
        assert!(default
            .fingerprint()
            .contains(&format!("tb{}", default.tri_block)));
    }

    #[test]
    fn panel_width_is_positive_multiple_of_nr() {
        for tile in TileVariant::ALL {
            let c = BlockConfig::default().with_tile(tile);
            for n in [1, 7, 64, 1000, 5000] {
                let w = c.parallel_panel_width(n);
                assert!(w >= tile.nr());
                assert_eq!(w % tile.nr(), 0);
            }
        }
    }
}
