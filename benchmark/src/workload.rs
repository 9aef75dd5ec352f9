//! The frozen workload definitions and the seeded request generator.
//!
//! Everything a request list depends on lives in this file: the expression
//! texts (a copy, not a call into `lamb_experiments`), the dimension
//! palettes, the shape design and the random generator. A later change to the
//! library therefore cannot change what the benchmark asks of it; the golden
//! hashes in the tests below pin the lists byte for byte.
//!
//! ## What the seed controls, and what it does not
//!
//! A request is `(expression text, dims)`. Every dimension is a palette
//! value, so kernel shapes recur within a run the way they do along the
//! paper's Experiment-2 lines. Which palette *classes* meet in a request is a
//! fixed, balanced design (a Latin hypercube per expression, drawn once from
//! a constant): every run does statistically identical work, which is what
//! lets ten runs under ten seeds agree to within a regression bound. The run
//! seed then
//!
//! * moves every palette value by -1, 0 or +1, so tile-edge remainders and
//!   blocking boundaries differ from seed to seed while the FLOPs of a pass
//!   stay within a percent or two,
//! * shuffles the order requests arrive in, and
//! * seeds the operand contents.

use std::collections::BTreeMap;

/// The seed `all` uses when none is given.
pub const DEFAULT_SEED: u64 = 1;
/// A second seed nobody tunes against; its numbers are recorded beside the
/// default seed's.
pub const HOLDOUT_SEED: u64 = 2022;

/// Every standing scenario text of the repository with its number of
/// dimension sizes (frozen copy of `lamb_experiments::all_scenarios()` at the
/// commit that defined the benchmark).
pub const SCENARIOS: [(&str, usize); 33] = [
    ("A*B*C*D", 5),
    ("A*B*C*D*E", 6),
    ("A*B*C*D*E*F", 7),
    ("A*A^T*B", 3),
    ("A^T*A*B", 3),
    ("A*B*B^T", 3),
    ("A^T*B*A", 2),
    ("A*A^T*B*B^T", 3),
    ("L[lower]*B", 2),
    ("L[lower]*A*B", 3),
    ("U[upper]^T*A*B", 3),
    ("L[lower]*L^T*B", 2),
    ("L1[lower]*L2[lower]*B", 2),
    ("L[lower]^-1*B", 2),
    ("L[lower]^-1*A*B", 3),
    ("S[spd]*B", 2),
    ("S[spd]^-1*B", 2),
    ("S[spd]^-1*B*C", 3),
    ("S[spd]^-1*A*B", 3),
    ("S[spd]*A*A^T", 2),
    ("A^T*S[spd]*A", 2),
    ("S1[spd]*S2[spd]*B", 2),
    ("A^-1*B", 2),
    ("A^-1*B*C", 3),
    ("A^+*b", 3),
    ("A^+*B*C", 4),
    ("B*L[lower]", 2),
    ("B*U[upper]^T", 2),
    ("A*B*L[lower]", 3),
    ("B*L[lower]^-1", 2),
    ("A*B*L[lower]^-1", 3),
    ("A*S[spd]", 2),
    ("A*S[spd]*B", 3),
];

/// Nine texts covering every kernel family, both sides and all three solvers.
const CORE9: [&str; 9] = [
    "A*B*C*D",
    "A*A^T*B",
    "L[lower]*A*B",
    "S[spd]*A*A^T",
    "A*S[spd]*B",
    "S[spd]^-1*A*B",
    "A^-1*B*C",
    "A*B*L[lower]^-1",
    "A^+*B*C",
];

/// The selection-quality texts: the members of [`CORE9`] whose algorithms
/// differ by more than where one dominant factorisation sits, plus the
/// sandwich product.
const SELECT8: [&str; 8] = [
    "A*B*C*D",
    "A*A^T*B",
    "L[lower]*A*B",
    "S[spd]*A*A^T",
    "A*S[spd]*B",
    "S[spd]^-1*A*B",
    "A*B*L[lower]^-1",
    "A^T*B*A",
];

/// Repeated solves against one factored operand; the last text has two
/// algorithms, so selection under factor residency is exercised too.
const REUSE4: [&str; 4] = ["S[spd]^-1*B", "A^-1*B", "A^+*b", "S[spd]^-1*A*B"];

/// Right-hand-side widths of one reuse group.
const REUSE_WIDTHS: [usize; 8] = [8, 16, 24, 32, 48, 64, 96, 128];

/// How a workload drives the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// parse → `Planner::plan_with` → `MeasuredExecutor::compute_result`.
    Solve,
    /// As `Solve`, planned with a `FactorCache` and executed with
    /// `compute_result_reusing` against one fresh cache per pass.
    Reuse,
    /// `BatchRequest::parse_file` → `BatchPlanner::plan_batch`; no execution.
    PlanBatch,
    /// parse → `plan_with` → `Plan::execute_with` (all algorithms, timed
    /// protocol).
    Select,
}

/// One workload definition.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The contract name.
    pub name: &'static str,
    /// One line: why the workload exists.
    pub why: &'static str,
    /// How requests are served.
    pub kind: Kind,
    /// The expression texts requests are drawn from.
    pub texts: &'static [&'static str],
    /// Nominal dimension sizes.
    pub palette: &'static [usize],
    /// Shape classes (design tuples) per text.
    pub classes_per_text: usize,
    /// How often each shape class occurs in one pass.
    pub repeats: usize,
    /// Requests served by one timed unit: 1, or the batch length.
    pub batch_len: usize,
    /// How many times set-up is repeated (the median is reported); 1 where
    /// one set-up already takes seconds.
    pub setup_reps: usize,
    /// Distinct requests audited per run (every k-th when there are more).
    pub audit_limit: usize,
}

const ALL_TEXTS: [&str; 33] = {
    let mut out = [""; 33];
    let mut i = 0;
    while i < 33 {
        out[i] = SCENARIOS[i].0;
        i += 1;
    }
    out
};

/// The six workloads, in the order `all` runs them.
pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "solve-small",
        why: "dims 8-48: overhead-bound (plan, dispatch, operand fill, packing, parallel check); kernel speed must not show",
        kind: Kind::Solve,
        texts: &CORE9,
        palette: &[8, 16, 24, 32, 48],
        classes_per_text: 20,
        repeats: 10,
        batch_len: 1,
        setup_reps: 3,
        audit_limit: 250,
    },
    Spec {
        name: "solve-mid",
        why: "dims 64-256: every call crosses the parallel threshold, so thread fan-out cost dominates the kernels",
        kind: Kind::Solve,
        texts: &CORE9,
        palette: &[64, 96, 128, 192, 256],
        classes_per_text: 10,
        repeats: 3,
        batch_len: 1,
        setup_reps: 1,
        audit_limit: 45,
    },
    Spec {
        name: "solve-large",
        why: "dims 256-512: kernel-bound (execute > 99 %); micro-kernel, packing, panel parallelism; planner changes must not show",
        kind: Kind::Solve,
        texts: &CORE9,
        palette: &[256, 384, 512],
        classes_per_text: 2,
        repeats: 2,
        batch_len: 1,
        setup_reps: 1,
        audit_limit: 250,
    },
    Spec {
        name: "solve-reuse",
        why: "groups of 8 solves share one factored operand (n 192-384): factor once, TRSM many, through the FactorCache hit path",
        kind: Kind::Reuse,
        texts: &REUSE4,
        palette: &[192, 256, 384],
        classes_per_text: 24,
        repeats: 1,
        batch_len: 1,
        setup_reps: 1,
        audit_limit: 48,
    },
    Spec {
        name: "plan-warm",
        why: "33 texts x 40 dim sets planned in batches from a loaded store, no execution: planner-bound, kernels must not show",
        kind: Kind::PlanBatch,
        texts: &ALL_TEXTS,
        palette: &[32, 48, 64, 96, 128],
        classes_per_text: 40,
        repeats: 1,
        batch_len: 33 * 8,
        setup_reps: 1,
        audit_limit: 250,
    },
    Spec {
        name: "select-quality",
        why: "8 multi-algorithm texts, dims 48-200: plan, then time every algorithm (3 reps, flush): does prediction beat FLOPs here",
        kind: Kind::Select,
        texts: &SELECT8,
        palette: &[48, 80, 128, 200],
        classes_per_text: 8,
        repeats: 1,
        batch_len: 1,
        setup_reps: 1,
        audit_limit: 250,
    },
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Number of dimension sizes of a scenario text.
///
/// # Panics
///
/// Panics on a text outside [`SCENARIOS`]: workload tables are static data.
pub fn num_dims(text: &str) -> usize {
    SCENARIOS
        .iter()
        .find(|(t, _)| *t == text)
        .map(|(_, d)| *d)
        .unwrap_or_else(|| panic!("`{text}` is not a frozen scenario text"))
}

/// SplitMix64: the benchmark's own generator, so request lists do not depend
/// on the vendored `rand` stand-in.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (multiply-shift; `n` must be positive).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// FNV-1a, 64 bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One request: an expression text and its dimension sizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The expression text, as a client would send it.
    pub text: &'static str,
    /// The instance's dimension sizes.
    pub dims: Vec<usize>,
}

impl Request {
    /// The request as one line of a `lamb batch` request file.
    pub fn line(&self) -> String {
        let dims: Vec<String> = self.dims.iter().map(ToString::to_string).collect();
        format!("{} {}", self.text, dims.join(" "))
    }
}

/// The generated inputs of one run.
#[derive(Debug, Clone)]
pub struct Generated {
    /// The distinct requests (calibrated and verified once each).
    pub distinct: Vec<Request>,
    /// One pass: indices into `distinct`, in arrival order.
    pub pass: Vec<usize>,
    /// Seed for operand contents.
    pub operand_seed: u64,
}

impl Generated {
    /// The pass as request-file text (one request per line).
    pub fn pass_text(&self) -> String {
        let mut text = String::new();
        for &i in &self.pass {
            text.push_str(&self.distinct[i].line());
            text.push('\n');
        }
        text
    }

    /// Hash of everything the program is given: the pass and the operand seed.
    pub fn hash(&self) -> u64 {
        fnv1a(format!("{}operands {}\n", self.pass_text(), self.operand_seed).as_bytes())
    }
}

/// The palette as this seed sees it: each nominal size moved by -1, 0 or +1.
fn jittered_palette(palette: &[usize], rng: &mut Rng) -> Vec<usize> {
    palette
        .iter()
        .map(|&p| p + rng.below(3) as usize - 1)
        .collect()
}

/// The fixed shape design of one workload: per text, `classes` tuples of
/// palette indices forming a Latin hypercube (every palette class occurs
/// equally often in every dimension position).
fn design(spec: &Spec, classes: usize) -> Vec<(&'static str, Vec<Vec<usize>>)> {
    let mut rng = Rng::new(fnv1a(spec.name.as_bytes()));
    let levels = spec.palette.len();
    spec.texts
        .iter()
        .map(|&text| {
            let d = num_dims(text);
            let columns: Vec<Vec<usize>> = (0..d)
                .map(|_| {
                    let mut col: Vec<usize> = (0..classes).map(|i| i % levels).collect();
                    rng.shuffle(&mut col);
                    col
                })
                .collect();
            let tuples = (0..classes)
                .map(|i| columns.iter().map(|col| col[i]).collect())
                .collect();
            (text, tuples)
        })
        .collect()
}

/// The reuse design: per text and operand order, one group of eight requests
/// that differ only in their right-hand sides.
fn reuse_shapes(text: &'static str, n: usize) -> Vec<Vec<usize>> {
    (0..REUSE_WIDTHS.len())
        .map(|i| {
            let w = REUSE_WIDTHS[i];
            match text {
                // `A^+` puts the column count first; the operand is 3n/2 x n.
                "A^+*b" => vec![n, n + n / 2, w],
                "S[spd]^-1*A*B" => vec![n, REUSE_WIDTHS[(i + 3) % 8], w],
                _ => vec![n, w],
            }
        })
        .collect()
}

/// Requests that share a factored operand: the operand's spelling and order.
fn factor_group(req: &Request) -> (&'static str, usize) {
    (req.text.split('*').next().unwrap_or(req.text), req.dims[0])
}

/// Whichever request of a group arrives first pays the factorisation. Make
/// that always the group's first (narrowest) request, so which requests are
/// the slow ones does not depend on the shuffle — the seed still decides
/// *when* each group starts.
fn lead_with_the_narrowest(distinct: &[Request], pass: &mut [usize]) {
    let mut leader: BTreeMap<(&str, usize), usize> = BTreeMap::new();
    for (i, req) in distinct.iter().enumerate() {
        leader.entry(factor_group(req)).or_insert(i);
    }
    let mut started = std::collections::BTreeSet::new();
    for pos in 0..pass.len() {
        let group = factor_group(&distinct[pass[pos]]);
        if started.insert(group) {
            let at = pass
                .iter()
                .position(|&i| i == leader[&group])
                .expect("every distinct request is in the pass");
            pass.swap(pos, at);
        }
    }
}

/// Generate the inputs of `spec` for `seed`. `scale_down` divides the request
/// counts (`--smoke` passes 20); 1 is the real workload.
pub fn generate(spec: &Spec, seed: u64, scale_down: usize) -> Generated {
    let mut rng = Rng::new(seed ^ fnv1a(spec.name.as_bytes()));
    let palette = jittered_palette(spec.palette, &mut rng);
    let operand_seed = rng.next_u64() >> 16;
    let classes = (spec.classes_per_text / scale_down).max(1);
    let repeats = (spec.repeats / scale_down).max(1);

    // (text, dims) per design slot, text-major.
    let slots: Vec<Vec<Request>> = if spec.kind == Kind::Reuse {
        spec.texts
            .iter()
            .map(|&text| {
                palette
                    .iter()
                    .take(classes.div_ceil(REUSE_WIDTHS.len()))
                    .flat_map(|&n| reuse_shapes(text, n))
                    .map(|dims| Request { text, dims })
                    .collect()
            })
            .collect()
    } else {
        design(spec, classes)
            .into_iter()
            .map(|(text, tuples)| {
                tuples
                    .into_iter()
                    .map(|tuple| {
                        let mut dims: Vec<usize> = tuple.iter().map(|&i| palette[i]).collect();
                        // Least squares needs its operand at least as tall as
                        // it is wide, and `A^+` puts the column count first.
                        if text.contains("^+") && dims[0] > dims[1] {
                            dims.swap(0, 1);
                        }
                        Request { text, dims }
                    })
                    .collect()
            })
            .collect()
    };

    let mut index: BTreeMap<(&'static str, Vec<usize>), usize> = BTreeMap::new();
    let mut distinct = Vec::new();
    let mut intern = |req: &Request| -> usize {
        *index
            .entry((req.text, req.dims.clone()))
            .or_insert_with(|| {
                distinct.push(req.clone());
                distinct.len() - 1
            })
    };

    let mut pass = Vec::new();
    if spec.kind == Kind::PlanBatch {
        // Batch b holds, for every text, its b-th slice of shape classes;
        // arrival order inside a batch is shuffled.
        let per_text = (spec.batch_len / spec.texts.len()).clamp(1, classes);
        for lo in (0..classes).step_by(per_text) {
            let mut batch: Vec<usize> = slots
                .iter()
                .flat_map(|s| &s[lo..(lo + per_text).min(s.len())])
                .map(&mut intern)
                .collect();
            rng.shuffle(&mut batch);
            pass.extend(batch);
        }
    } else {
        for _ in 0..repeats {
            pass.extend(slots.iter().flatten().map(&mut intern));
        }
        rng.shuffle(&mut pass);
    }
    if spec.kind == Kind::Reuse {
        lead_with_the_narrowest(&distinct, &mut pass);
    }
    Generated {
        distinct,
        pass,
        operand_seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lamb::expr::Expression;
    use lamb::prelude::TreeExpression;

    #[test]
    fn frozen_dimension_counts_match_the_parser() {
        for (text, dims) in SCENARIOS {
            let expr = TreeExpression::parse(text).expect("scenario text parses");
            assert_eq!(expr.num_dims(), dims, "{text}");
        }
    }

    #[test]
    fn every_workload_text_is_a_frozen_scenario() {
        for w in &WORKLOADS {
            for text in w.texts {
                assert!(num_dims(text) >= 2, "{text}");
            }
        }
    }

    #[test]
    fn the_same_seed_gives_byte_identical_requests() {
        for w in &WORKLOADS {
            for seed in [DEFAULT_SEED, HOLDOUT_SEED, 7] {
                let a = generate(w, seed, 1);
                let b = generate(w, seed, 1);
                assert_eq!(a.pass_text(), b.pass_text(), "{}", w.name);
                assert_eq!(a.hash(), b.hash());
            }
            assert_ne!(
                generate(w, DEFAULT_SEED, 1).hash(),
                generate(w, HOLDOUT_SEED, 1).hash(),
                "{}: seeds must differ",
                w.name
            );
        }
    }

    /// The request lists are part of the benchmark's definition: a change to
    /// the generator that moves these hashes is a new benchmark, and every
    /// recorded number has to be measured again.
    #[test]
    fn golden_hashes() {
        let golden: [(&str, u64, u64); 6] = [
            ("solve-small", 0x5090_462d_81f9_2721, 0xe37d_a6fc_5ddd_ea9b),
            ("solve-mid", 0x8b5e_59b1_52e7_9bcd, 0xba6b_ae5c_8d58_7625),
            ("solve-large", 0x7aec_9f9e_b59d_f21f, 0xabd4_27bb_f6a9_d664),
            ("solve-reuse", 0x71d8_e067_f9cd_4dbe, 0xa498_7372_5bff_f82d),
            ("plan-warm", 0x9545_8404_4d5a_cb71, 0xab8a_548d_076c_ad18),
            (
                "select-quality",
                0xf649_cd6c_ffa6_8fd1,
                0x4f89_b459_bc26_2367,
            ),
        ];
        let current: Vec<String> = WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    "(\"{}\", {:#018x}, {:#018x}),",
                    w.name,
                    generate(w, DEFAULT_SEED, 1).hash(),
                    generate(w, HOLDOUT_SEED, 1).hash()
                )
            })
            .collect();
        let expected: Vec<String> = golden
            .iter()
            .map(|(name, d, h)| format!("(\"{name}\", {d:#018x}, {h:#018x}),"))
            .collect();
        assert_eq!(current, expected, "current hashes:\n{}", current.join("\n"));
    }

    #[test]
    fn request_counts_are_the_documented_ones() {
        let counts: Vec<(usize, usize)> = WORKLOADS
            .iter()
            .map(|w| {
                let g = generate(w, DEFAULT_SEED, 1);
                (g.pass.len(), w.batch_len)
            })
            .collect();
        assert_eq!(
            counts,
            vec![(1800, 1), (270, 1), (36, 1), (96, 1), (1320, 264), (64, 1)]
        );
    }

    #[test]
    fn designs_are_balanced_and_least_squares_operands_are_tall() {
        for w in &WORKLOADS {
            let g = generate(w, DEFAULT_SEED, 1);
            for req in &g.distinct {
                assert_eq!(req.dims.len(), num_dims(req.text), "{}", req.line());
                assert!(req.dims.iter().all(|&d| d >= 1));
                if req.text.contains("^+") {
                    assert!(req.dims[0] <= req.dims[1], "{}", req.line());
                }
            }
            if w.kind != Kind::Reuse {
                for (_, tuples) in design(w, w.classes_per_text) {
                    let levels = w.palette.len();
                    for pos in 0..tuples[0].len() {
                        let mut seen = vec![0usize; levels];
                        for t in &tuples {
                            seen[t[pos]] += 1;
                        }
                        let (lo, hi) = (seen.iter().min().unwrap(), seen.iter().max().unwrap());
                        assert!(hi - lo <= 1, "{}: unbalanced design", w.name);
                    }
                }
            }
        }
    }

    #[test]
    fn every_reuse_group_starts_with_its_narrowest_request() {
        let w = spec("solve-reuse").unwrap();
        for seed in [DEFAULT_SEED, HOLDOUT_SEED, 5] {
            let g = generate(w, seed, 1);
            let mut first: BTreeMap<(&str, usize), &Request> = BTreeMap::new();
            for &i in &g.pass {
                first
                    .entry(factor_group(&g.distinct[i]))
                    .or_insert(&g.distinct[i]);
            }
            assert_eq!(first.len(), 9, "3 factorisations x 3 orders");
            for req in first.values() {
                assert_eq!(*req.dims.last().unwrap(), REUSE_WIDTHS[0], "{}", req.line());
            }
            let mut sorted = g.pass.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..96).collect::<Vec<_>>(), "still a permutation");
        }
    }

    #[test]
    fn jitter_moves_a_size_by_at_most_one() {
        let mut rng = Rng::new(3);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            for (p, j) in [8usize, 512]
                .iter()
                .zip(jittered_palette(&[8, 512], &mut rng))
            {
                assert!(j + 1 >= *p && j <= p + 1, "{p} -> {j}");
                seen.insert(j);
            }
        }
        assert_eq!(seen.len(), 6, "all three offsets occur");
    }

    #[test]
    fn smoke_scale_shrinks_every_workload() {
        for w in &WORKLOADS {
            let full = generate(w, DEFAULT_SEED, 1);
            let smoke = generate(w, DEFAULT_SEED, 20);
            assert!(smoke.pass.len() * 2 <= full.pass.len(), "{}", w.name);
            assert!(!smoke.pass.is_empty());
        }
    }
}
