//! The persistent calibration store: a versioned on-disk format for machine
//! models, kernel efficiency profiles and isolated-call benchmark times.
//!
//! The paper's central claim is that FLOP-minimal algorithms are often not
//! time-minimal, so selection must be driven by *measured* kernel
//! performance. Those measurements are expensive — a calibration sweep runs
//! hundreds of real (or simulated) isolated-call benchmarks — and they are
//! stable across runs on the same machine, so re-benchmarking on every
//! process start is pure waste. A [`CalibrationStore`] captures one machine's
//! calibration data and persists it as JSON (hand-rolled in [`crate::json`];
//! the workspace is offline-vendored and has no `serde`):
//!
//! * the [`MachineModel`] the times were measured against,
//! * the [`SquareProfile`] efficiency curves (the paper's Figure 1),
//! * the [`CallTimeTable`] of isolated-call benchmark times, keyed by
//!   canonical timing key ([`lamb_expr::KernelOp::timing_key`]),
//! * staleness metadata: format version, executor, block configuration
//!   fingerprint, repetition count, creation/update timestamps, sweep count.
//!
//! Stores **merge**: an incremental calibration sweep loads the existing
//! store, adds its new measurements (newer entries win) and saves the union,
//! so coverage grows run over run. Loading a store and warm-starting a
//! planner's prediction cache from it reproduces the in-memory predictions
//! *bit-identically* — numbers are serialised with shortest round-trip
//! formatting — which is what makes "calibrate once, plan many" sound.
//!
//! ```
//! use lamb_expr::KernelOp;
//! use lamb_matrix::Trans;
//! use lamb_perfmodel::{CalibrationStore, MachineModel, SquareProfile};
//!
//! // Calibrate: record a profile curve and an isolated-call benchmark.
//! let mut store = CalibrationStore::new(MachineModel::paper_xeon_silver_4210(), "simulated");
//! store.profiles.push(SquareProfile::new("gemm", vec![100, 200], vec![0.31, 0.52]));
//! let op = KernelOp::Gemm { transa: Trans::No, transb: Trans::No, m: 100, n: 100, k: 100 };
//! store.calls.insert(op.clone(), 1.25e-4);
//!
//! // Save → load: the round-trip is lossless, down to the last bit.
//! let text = store.to_json();
//! let reloaded = CalibrationStore::from_json(&text).unwrap();
//! assert_eq!(reloaded.calls.get(&op), Some(1.25e-4));
//! assert_eq!(reloaded.profiles[0].interpolate(150), store.profiles[0].interpolate(150));
//! ```

use crate::json::{Json, JsonError};
use crate::machine::MachineModel;
use crate::profile::{CallTimeTable, SquareProfile};
use lamb_expr::KernelOp;
use lamb_kernels::{BlockConfig, FieldValue, TileVariant};
use lamb_matrix::Side;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

/// Version of the on-disk format this build writes — and the only one it
/// reads: no deployed stores of an older version exist, so a document with
/// any other version number is refused instead of migrated.
///
/// The vocabulary grew version by version (v2 TRMM/TRSM, v3 POTRF, v4 the
/// GETRF/QR/ORMQR/FACTORTRI/LASWP tier, v5 the optional `tuned` section); v6
/// makes the kernel *side* explicit — SYMM/TRMM/TRSM and LASWP call entries
/// carry a `side` tag, the sweep covers the right-side variants
/// `symm_r`/`trmm_r`/`trsm_r`. Stores written before the per-call backend
/// choice was retired may carry an optional `backends` section of
/// per-backend tables; the reader looks fields up by name, so it loads them
/// with that section ignored, and this build never writes one.
pub const STORE_FORMAT_VERSION: u64 = 6;

/// Magic string identifying a calibration-store document.
pub const STORE_FORMAT_NAME: &str = "lamb-calibration-store";

/// The compute kernels a fully-covered store is expected to have benchmark
/// entries for — by definition, exactly the kernels the square calibration
/// sweep covers, so the two lists cannot drift apart.
pub const EXPECTED_KERNELS: [&str; 11] = crate::calibrate::SQUARE_SWEEP_KERNELS;

/// Relative peak-FLOPS drift beyond which a store is flagged as stale.
pub const PEAK_DRIFT_TOLERANCE: f64 = 0.05;

/// Age in seconds beyond which a store is flagged as stale (30 days).
pub const MAX_FRESH_AGE_SECONDS: u64 = 30 * 24 * 3600;

/// Staleness and provenance metadata carried by a store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreMeta {
    /// Name of the executor that produced the times (`"simulated"`,
    /// `"measured"`, ...). Mixing executors in one store is rejected by
    /// [`CalibrationStore::merge_from`].
    pub executor: String,
    /// Fingerprint of the kernel block configuration the measurements were
    /// taken under (see `lamb_kernels::BlockConfig::fingerprint`); timings
    /// are only comparable under the same configuration.
    pub block_fingerprint: String,
    /// Repetitions per measurement (the paper's protocol uses 10).
    pub timing_reps: usize,
    /// Unix timestamp (seconds) of the first calibration sweep.
    pub created_unix: u64,
    /// Unix timestamp (seconds) of the most recent sweep or merge.
    pub updated_unix: u64,
    /// How many calibration sweeps have been merged into this store.
    pub sweeps: u64,
}

/// Why a store could not be read or written.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The document is not valid JSON.
    Json(JsonError),
    /// The document is JSON but not a calibration store this build
    /// understands (missing fields, wrong magic, unsupported version, ...).
    Format(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "I/O error: {e}"),
            StoreError::Json(e) => write!(f, "{e}"),
            StoreError::Format(msg) => write!(f, "invalid calibration store: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<JsonError> for StoreError {
    fn from(e: JsonError) -> Self {
        StoreError::Json(e)
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// One reason a loaded store may no longer describe the current machine.
#[derive(Debug, Clone, PartialEq)]
pub enum StalenessWarning {
    /// The stored machine peak differs from the current one by more than
    /// [`PEAK_DRIFT_TOLERANCE`].
    PeakDrift {
        /// Peak FLOP/s recorded in the store.
        stored: f64,
        /// Peak FLOP/s of the machine in use now.
        current: f64,
    },
    /// The kernel block configuration changed since calibration.
    BlockConfigChanged {
        /// Fingerprint recorded in the store.
        stored: String,
        /// Fingerprint of the configuration in use now.
        current: String,
    },
    /// The newest sample is older than [`MAX_FRESH_AGE_SECONDS`].
    Aged {
        /// Age of the store in seconds.
        age_seconds: u64,
    },
}

impl fmt::Display for StalenessWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StalenessWarning::PeakDrift { stored, current } => write!(
                f,
                "machine peak drifted: store {:.1} GFLOP/s vs current {:.1} GFLOP/s",
                stored / 1e9,
                current / 1e9
            ),
            StalenessWarning::BlockConfigChanged { stored, current } => {
                write!(
                    f,
                    "block config changed: store `{stored}` vs current `{current}`"
                )
            }
            StalenessWarning::Aged { age_seconds } => {
                write!(f, "last sample is {} days old", age_seconds / (24 * 3600))
            }
        }
    }
}

/// The autotuned block configuration a store carries with it (format v5):
/// the coordinate-descent winner over `(tile, mc, kc, nc, tri_block,
/// parallel_flop_threshold)` and the GFLOP/s it achieved on the tuning
/// workload, so a calibrated store reproduces its machine's blocking on warm
/// start.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedConfig {
    /// The winning block configuration.
    pub config: BlockConfig,
    /// Best observed GFLOP/s under `config` on the tuning workload.
    pub gflops: f64,
}

/// Persistent calibration data for one machine + executor + block
/// configuration. See the [module docs](self) for the format contract.
#[derive(Debug, Clone)]
pub struct CalibrationStore {
    /// Staleness and provenance metadata.
    pub meta: StoreMeta,
    /// The machine the times were measured (or simulated) on.
    pub machine: MachineModel,
    /// Square-operand efficiency curves, one per kernel (Figure 1 data).
    pub profiles: Vec<SquareProfile>,
    /// Isolated-call benchmark times keyed by canonical timing key.
    pub calls: CallTimeTable,
    /// The autotuned block configuration, when a `--autotune` sweep has run.
    pub tuned: Option<TunedConfig>,
}

/// Current Unix time in seconds (0 if the clock is before the epoch).
#[must_use]
pub fn now_unix() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

impl CalibrationStore {
    /// A fresh, empty store for `machine`, attributed to `executor`, stamped
    /// with the current time.
    #[must_use]
    pub fn new(machine: MachineModel, executor: &str) -> Self {
        let now = now_unix();
        CalibrationStore {
            meta: StoreMeta {
                executor: executor.to_string(),
                block_fingerprint: String::new(),
                timing_reps: 0,
                created_unix: now,
                updated_unix: now,
                sweeps: 1,
            },
            machine,
            profiles: Vec::new(),
            calls: CallTimeTable::new(),
            tuned: None,
        }
    }

    /// The autotuned block configuration this store carries, if any — what
    /// warm-starting planners and executors run their kernels under.
    #[must_use]
    pub fn tuned_block_config(&self) -> Option<&BlockConfig> {
        self.tuned.as_ref().map(|t| &t.config)
    }

    /// Merge `other` (assumed fresher) into this store: call times and
    /// profile samples from `other` win on conflicts, timestamps and sweep
    /// counts accumulate, and the machine model is taken from `other`.
    ///
    /// # Errors
    ///
    /// Refuses with [`StoreError::Format`] when the stores were produced by
    /// different executors or block configurations — their times are not
    /// comparable, and silently mixing them would poison predictions.
    pub fn merge_from(&mut self, other: &CalibrationStore) -> Result<(), StoreError> {
        if self.meta.executor != other.meta.executor {
            return Err(StoreError::Format(format!(
                "cannot merge `{}` calibration into a `{}` store",
                other.meta.executor, self.meta.executor
            )));
        }
        if !self.meta.block_fingerprint.is_empty()
            && !other.meta.block_fingerprint.is_empty()
            && self.meta.block_fingerprint != other.meta.block_fingerprint
        {
            return Err(StoreError::Format(format!(
                "cannot merge block config `{}` into `{}`",
                other.meta.block_fingerprint, self.meta.block_fingerprint
            )));
        }
        self.calls.merge_from(&other.calls);
        for profile in &other.profiles {
            match self
                .profiles
                .iter_mut()
                .find(|p| p.kernel == profile.kernel)
            {
                Some(mine) => *mine = merge_profiles(mine, profile),
                None => self.profiles.push(profile.clone()),
            }
        }
        self.machine = other.machine.clone();
        if other.tuned.is_some() {
            self.tuned = other.tuned.clone();
        }
        if !other.meta.block_fingerprint.is_empty() {
            self.meta.block_fingerprint = other.meta.block_fingerprint.clone();
        }
        if other.meta.timing_reps != 0 {
            self.meta.timing_reps = other.meta.timing_reps;
        }
        self.meta.created_unix = self.meta.created_unix.min(other.meta.created_unix);
        self.meta.updated_unix = self.meta.updated_unix.max(other.meta.updated_unix);
        self.meta.sweeps += other.meta.sweeps;
        Ok(())
    }

    /// Check whether this store still describes the given machine and block
    /// configuration at time `now_unix`; an empty result means fresh.
    #[must_use]
    pub fn staleness(
        &self,
        machine: &MachineModel,
        block_fingerprint: &str,
        now_unix: u64,
    ) -> Vec<StalenessWarning> {
        let mut warnings = Vec::new();
        let stored = self.machine.peak_flops;
        let current = machine.peak_flops;
        if current > 0.0 && ((stored - current) / current).abs() > PEAK_DRIFT_TOLERANCE {
            warnings.push(StalenessWarning::PeakDrift { stored, current });
        }
        if !self.meta.block_fingerprint.is_empty()
            && !block_fingerprint.is_empty()
            && self.meta.block_fingerprint != block_fingerprint
        {
            warnings.push(StalenessWarning::BlockConfigChanged {
                stored: self.meta.block_fingerprint.clone(),
                current: block_fingerprint.to_string(),
            });
        }
        let age = now_unix.saturating_sub(self.meta.updated_unix);
        if age > MAX_FRESH_AGE_SECONDS {
            warnings.push(StalenessWarning::Aged { age_seconds: age });
        }
        warnings
    }

    /// Distinct benchmarked calls per kernel mnemonic, for coverage reports.
    #[must_use]
    pub fn coverage(&self) -> BTreeMap<String, usize> {
        let mut counts = BTreeMap::new();
        for (op, _) in self.calls.entries() {
            *counts.entry(kernel_coverage_key(op)).or_insert(0) += 1;
        }
        counts
    }

    /// Compute kernels with no benchmark entry at all — the coverage gap a
    /// workload-only store reports until a square sweep fills it in.
    #[must_use]
    pub fn missing_kernels(&self) -> Vec<&'static str> {
        let coverage = self.coverage();
        EXPECTED_KERNELS
            .iter()
            .copied()
            .filter(|kernel| !coverage.contains_key(*kernel))
            .collect()
    }

    /// Serialise to the versioned JSON document. Call entries are sorted by
    /// their display form, so equal stores serialise to equal bytes.
    #[must_use]
    pub fn to_json(&self) -> String {
        let meta = Json::Obj(vec![
            ("executor".into(), Json::Str(self.meta.executor.clone())),
            (
                "block".into(),
                Json::Str(self.meta.block_fingerprint.clone()),
            ),
            ("reps".into(), Json::Num(self.meta.timing_reps as f64)),
            (
                "created_unix".into(),
                Json::Num(self.meta.created_unix as f64),
            ),
            (
                "updated_unix".into(),
                Json::Num(self.meta.updated_unix as f64),
            ),
            ("sweeps".into(), Json::Num(self.meta.sweeps as f64)),
        ]);
        let machine = Json::Obj(vec![
            ("name".into(), Json::Str(self.machine.name.clone())),
            ("peak_flops".into(), Json::Num(self.machine.peak_flops)),
            ("cores".into(), Json::Num(self.machine.cores as f64)),
            ("llc_bytes".into(), Json::Num(self.machine.llc_bytes as f64)),
            (
                "mem_bandwidth".into(),
                Json::Num(self.machine.mem_bandwidth),
            ),
        ]);
        let profiles = profiles_to_json(&self.profiles);
        let calls = calls_to_json(&self.calls);
        let mut fields = vec![
            ("format".into(), Json::Str(STORE_FORMAT_NAME.into())),
            ("version".into(), Json::Num(STORE_FORMAT_VERSION as f64)),
            ("meta".into(), meta),
            ("machine".into(), machine),
            ("profiles".into(), profiles),
            ("calls".into(), calls),
        ];
        if let Some(tuned) = &self.tuned {
            let cfg = &tuned.config;
            fields.push((
                "tuned".into(),
                Json::Obj(vec![
                    ("mc".into(), Json::Num(cfg.mc as f64)),
                    ("kc".into(), Json::Num(cfg.kc as f64)),
                    ("nc".into(), Json::Num(cfg.nc as f64)),
                    ("tri_block".into(), Json::Num(cfg.tri_block as f64)),
                    ("tile".into(), Json::Str(cfg.tile.tag().into())),
                    ("parallel".into(), Json::Bool(cfg.parallel)),
                    (
                        "parallel_flop_threshold".into(),
                        Json::Num(cfg.parallel_flop_threshold as f64),
                    ),
                    ("gflops".into(), Json::Num(tuned.gflops)),
                ]),
            ));
        }
        Json::Obj(fields).pretty()
    }

    /// Parse a store from its JSON document.
    ///
    /// # Errors
    ///
    /// [`StoreError::Json`] for malformed JSON, [`StoreError::Format`] for a
    /// document that is not a supported calibration store.
    pub fn from_json(text: &str) -> Result<Self, StoreError> {
        let doc = Json::parse(text)?;
        let format = doc.get("format").and_then(Json::as_str).unwrap_or("");
        if format != STORE_FORMAT_NAME {
            return Err(StoreError::Format(format!(
                "not a {STORE_FORMAT_NAME} document (format: `{format}`)"
            )));
        }
        let version = field_u64(&doc, "version")?;
        if version != STORE_FORMAT_VERSION {
            return Err(StoreError::Format(format!(
                "unsupported store version {version} (this build reads version \
                 {STORE_FORMAT_VERSION} only)"
            )));
        }
        let meta_doc = doc
            .get("meta")
            .ok_or_else(|| StoreError::Format("missing `meta`".into()))?;
        let meta = StoreMeta {
            executor: field_str(meta_doc, "executor")?,
            block_fingerprint: field_str(meta_doc, "block")?,
            timing_reps: field_u64(meta_doc, "reps")? as usize,
            created_unix: field_u64(meta_doc, "created_unix")?,
            updated_unix: field_u64(meta_doc, "updated_unix")?,
            sweeps: field_u64(meta_doc, "sweeps")?,
        };
        let machine_doc = doc
            .get("machine")
            .ok_or_else(|| StoreError::Format("missing `machine`".into()))?;
        let machine = MachineModel {
            name: field_str(machine_doc, "name")?,
            peak_flops: field_positive(machine_doc, "peak_flops")?,
            cores: field_u64(machine_doc, "cores")? as usize,
            llc_bytes: field_u64(machine_doc, "llc_bytes")?,
            mem_bandwidth: field_positive(machine_doc, "mem_bandwidth")?,
        };
        if machine.cores == 0 {
            return Err(StoreError::Format("machine has no cores".into()));
        }
        let profiles = profiles_from_json(field_array(&doc, "profiles")?)?;
        let calls = calls_from_json(field_array(&doc, "calls")?)?;
        let tuned = match doc.get("tuned") {
            None | Some(Json::Null) => None,
            Some(t) => {
                let tile_tag = field_str(t, "tile")?;
                let tile = TileVariant::parse(&tile_tag).ok_or_else(|| {
                    StoreError::Format(format!("unknown register tile `{tile_tag}`"))
                })?;
                let config = BlockConfig {
                    mc: field_u64(t, "mc")? as usize,
                    kc: field_u64(t, "kc")? as usize,
                    nc: field_u64(t, "nc")? as usize,
                    tri_block: field_u64(t, "tri_block")? as usize,
                    tile,
                    parallel: field_bool(t, "parallel")?,
                    parallel_flop_threshold: field_u64(t, "parallel_flop_threshold")?,
                };
                let gflops = field_f64(t, "gflops")?;
                if !(gflops.is_finite() && gflops >= 0.0) {
                    return Err(StoreError::Format(format!(
                        "tuned config has invalid gflops {gflops}"
                    )));
                }
                Some(TunedConfig { config, gflops })
            }
        };
        Ok(CalibrationStore {
            meta,
            machine,
            profiles,
            calls,
            tuned,
        })
    }

    /// Write the store to `path` (atomically: a temp file is renamed over the
    /// target, so a crash never leaves a truncated store).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures.
    pub fn save(&self, path: &Path) -> Result<(), StoreError> {
        let tmp = temp_path(path);
        std::fs::write(&tmp, self.to_json())?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Read a store from `path`.
    ///
    /// # Errors
    ///
    /// See [`CalibrationStore::from_json`]; filesystem failures surface as
    /// [`StoreError::Io`].
    pub fn load(path: &Path) -> Result<Self, StoreError> {
        let text = std::fs::read_to_string(path)?;
        CalibrationStore::from_json(&text)
    }
}

/// The temp file [`CalibrationStore::save`] writes before renaming it over
/// `path`: the whole file name plus `.tmp`, beside it. Named after the whole
/// name, not with its extension replaced, so two stores whose names differ
/// only in extension never share (and race on) one temp file.
fn temp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Union of two profiles for the same kernel; `newer` wins at shared sizes.
fn merge_profiles(older: &SquareProfile, newer: &SquareProfile) -> SquareProfile {
    let mut samples: BTreeMap<usize, f64> = older
        .sizes
        .iter()
        .copied()
        .zip(older.efficiencies.iter().copied())
        .collect();
    for (&size, &eff) in newer.sizes.iter().zip(&newer.efficiencies) {
        samples.insert(size, eff);
    }
    let (sizes, efficiencies): (Vec<usize>, Vec<f64>) = samples.into_iter().unzip();
    SquareProfile::new(&older.kernel, sizes, efficiencies)
}

/// Coverage-report key for a benchmarked call: the kernel mnemonic, with a
/// `_r` suffix for the right-side variants of the sided compute kernels so
/// sweep coverage of `B·L` is never mistaken for coverage of `L·B`. The keys
/// match the [`crate::calibrate::SQUARE_SWEEP_KERNELS`] naming.
#[must_use]
pub fn kernel_coverage_key(op: &KernelOp) -> String {
    match op.side() {
        Some(Side::Right) if op.is_compute() => format!("{}_r", op.mnemonic()),
        _ => op.mnemonic().to_string(),
    }
}

fn profiles_to_json(profiles: &[SquareProfile]) -> Json {
    Json::Arr(
        profiles
            .iter()
            .map(|p| {
                Json::Obj(vec![
                    ("kernel".into(), Json::Str(p.kernel.clone())),
                    (
                        "sizes".into(),
                        Json::Arr(p.sizes.iter().map(|&s| Json::Num(s as f64)).collect()),
                    ),
                    (
                        "efficiencies".into(),
                        Json::Arr(p.efficiencies.iter().map(|&e| Json::Num(e)).collect()),
                    ),
                ])
            })
            .collect(),
    )
}

fn calls_to_json(calls: &CallTimeTable) -> Json {
    let mut entries: Vec<(&KernelOp, f64)> = calls.entries().collect();
    entries.sort_by_key(|(op, _)| op.to_string());
    Json::Arr(
        entries
            .into_iter()
            .map(|(op, seconds)| op_to_json(op, seconds))
            .collect(),
    )
}

fn profiles_from_json(docs: &[Json]) -> Result<Vec<SquareProfile>, StoreError> {
    let mut profiles = Vec::new();
    for p in docs {
        let kernel = field_str(p, "kernel")?;
        let sizes: Vec<usize> = field_array(p, "sizes")?
            .iter()
            .map(|s| {
                s.as_u64()
                    .map(|v| v as usize)
                    .ok_or_else(|| StoreError::Format("profile size is not an integer".into()))
            })
            .collect::<Result<_, _>>()?;
        let efficiencies: Vec<f64> = field_array(p, "efficiencies")?
            .iter()
            .map(|e| {
                e.as_f64()
                    .ok_or_else(|| StoreError::Format("profile efficiency is not a number".into()))
            })
            .collect::<Result<_, _>>()?;
        if sizes.len() != efficiencies.len()
            || sizes.is_empty()
            || !sizes.windows(2).all(|w| w[0] < w[1])
        {
            return Err(StoreError::Format(format!(
                "profile `{kernel}` has inconsistent samples"
            )));
        }
        profiles.push(SquareProfile::new(&kernel, sizes, efficiencies));
    }
    Ok(profiles)
}

fn calls_from_json(docs: &[Json]) -> Result<CallTimeTable, StoreError> {
    let mut calls = CallTimeTable::new();
    for entry in docs {
        let (op, seconds) = op_from_json(entry)?;
        calls.insert(op, seconds);
    }
    Ok(calls)
}

/// One call entry: the mnemonic, then the op's fields by name. Calls are
/// stored by timing key, so the flags every key resets are not written.
fn op_to_json(op: &KernelOp, seconds: f64) -> Json {
    let mut fields: Vec<(String, Json)> = vec![("op".into(), Json::Str(op.mnemonic().into()))];
    for field in op.fields().into_iter().filter(|field| field.keyed) {
        let value = match field.value {
            FieldValue::Flag(tag) => Json::Str(tag.to_string()),
            FieldValue::Dim(dim) => Json::Num(dim as f64),
        };
        fields.push((field.name.into(), value));
    }
    fields.push(("seconds".into(), Json::Num(seconds)));
    Json::Obj(fields)
}

fn op_from_json(entry: &Json) -> Result<(KernelOp, f64), StoreError> {
    let kind = field_str(entry, "op")?;
    let op = KernelOp::from_fields(&kind, |name| match entry.get(name)? {
        Json::Str(tag) => {
            let mut chars = tag.chars();
            match (chars.next(), chars.next()) {
                (Some(tag), None) => Some(FieldValue::Flag(tag)),
                _ => None,
            }
        }
        dim => usize::try_from(dim.as_u64()?).ok().map(FieldValue::Dim),
    })
    .map_err(StoreError::Format)?;
    let seconds = field_f64(entry, "seconds")?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(StoreError::Format(format!(
            "call `{op}` has invalid time {seconds}"
        )));
    }
    Ok((op, seconds))
}

fn field_str(doc: &Json, key: &str) -> Result<String, StoreError> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| StoreError::Format(format!("missing or non-string field `{key}`")))
}

fn field_u64(doc: &Json, key: &str) -> Result<u64, StoreError> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| StoreError::Format(format!("missing or non-integer field `{key}`")))
}

fn field_bool(doc: &Json, key: &str) -> Result<bool, StoreError> {
    match doc.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(StoreError::Format(format!(
            "missing or non-boolean field `{key}`"
        ))),
    }
}

fn field_f64(doc: &Json, key: &str) -> Result<f64, StoreError> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| StoreError::Format(format!("missing or non-numeric field `{key}`")))
}

/// A rate: a machine whose peak or bandwidth is zero, negative or not finite
/// would turn every efficiency computed against it into nonsense.
fn field_positive(doc: &Json, key: &str) -> Result<f64, StoreError> {
    let value = field_f64(doc, key)?;
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(StoreError::Format(format!(
            "field `{key}` must be positive and finite, not {value}"
        )))
    }
}

fn field_array<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], StoreError> {
    doc.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| StoreError::Format(format!("missing or non-array field `{key}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lamb_matrix::{Trans, Uplo};

    fn sample_store() -> CalibrationStore {
        let mut store = CalibrationStore::new(MachineModel::paper_xeon_silver_4210(), "simulated");
        store.meta.block_fingerprint = "mc128-kc256-nc4096".into();
        store.meta.timing_reps = 10;
        store
            .profiles
            .push(SquareProfile::new("gemm", vec![100, 300], vec![0.3, 0.6]));
        store
            .profiles
            .push(SquareProfile::new("syrk", vec![100, 300], vec![0.2, 0.5]));
        store.calls.insert(
            KernelOp::Gemm {
                transa: Trans::Yes, // canonicalised to N on insert
                transb: Trans::No,
                m: 100,
                n: 200,
                k: 300,
            },
            1.0 / 3.0,
        );
        store.calls.insert(
            KernelOp::Syrk {
                uplo: Uplo::Lower,
                trans: Trans::Yes,
                n: 50,
                k: 70,
            },
            2.5e-4,
        );
        store.calls.insert(
            KernelOp::Symm {
                side: Side::Right,
                uplo: Uplo::Upper,
                m: 40,
                n: 60,
            },
            1.125e-5,
        );
        store.calls.insert(
            KernelOp::Symm {
                side: Side::Left,
                uplo: Uplo::Lower,
                m: 44,
                n: 28,
            },
            6.5e-5,
        );
        store.calls.insert(
            KernelOp::Trmm {
                side: Side::Left,
                uplo: Uplo::Lower,
                trans: Trans::Yes, // canonicalised to (Upper, N) on insert
                m: 80,
                n: 35,
            },
            3.25e-4,
        );
        store.calls.insert(
            KernelOp::Trmm {
                side: Side::Right,
                uplo: Uplo::Lower,
                trans: Trans::No,
                m: 30,
                n: 66,
            },
            2.75e-4,
        );
        store.calls.insert(
            KernelOp::Trsm {
                side: Side::Left,
                uplo: Uplo::Upper,
                trans: Trans::No,
                m: 64,
                n: 16,
            },
            9.5e-5,
        );
        store.calls.insert(
            KernelOp::Trsm {
                side: Side::Right,
                uplo: Uplo::Upper,
                trans: Trans::Yes, // canonicalised to (R, Lower, N) on insert
                m: 12,
                n: 48,
            },
            1.75e-4,
        );
        store.calls.insert(
            KernelOp::Potrf {
                uplo: Uplo::Lower,
                n: 72,
            },
            4.75e-4,
        );
        store.calls.insert(
            KernelOp::CopyTriangle {
                uplo: Uplo::Lower,
                n: 90,
            },
            7.0e-7,
        );
        store.calls.insert(KernelOp::Getrf { n: 56 }, 3.125e-4);
        store.calls.insert(KernelOp::Qr { m: 96, n: 24 }, 5.5e-4);
        store
            .calls
            .insert(KernelOp::Ormqr { m: 96, n: 24, k: 5 }, 8.25e-5);
        store.calls.insert(
            KernelOp::FactorTri {
                uplo: Uplo::Upper,
                n: 56,
            },
            4.0e-7,
        );
        store.calls.insert(
            KernelOp::PivotApply {
                side: Side::Left,
                m: 56,
                n: 5,
            },
            2.0e-7,
        );
        store
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let store = sample_store();
        let text = store.to_json();
        let back = CalibrationStore::from_json(&text).unwrap();
        assert_eq!(back.meta, store.meta);
        assert_eq!(back.machine, store.machine);
        assert_eq!(back.profiles, store.profiles);
        assert_eq!(back.calls.len(), store.calls.len());
        let mut original = store.calls.clone();
        let mut reloaded = back.calls.clone();
        for (op, _) in store.calls.entries() {
            let a = original.lookup(op).unwrap();
            let b = reloaded.lookup(op).unwrap();
            assert_eq!(a.to_bits(), b.to_bits(), "{op}");
        }
        // Serialisation is deterministic: same store, same bytes.
        assert_eq!(text, back.to_json());
    }

    #[test]
    fn gemm_lookup_is_transpose_invariant_after_reload() {
        let store = sample_store();
        let back = CalibrationStore::from_json(&store.to_json()).unwrap();
        let mut calls = back.calls;
        let transposed = KernelOp::Gemm {
            transa: Trans::No,
            transb: Trans::Yes,
            m: 100,
            n: 200,
            k: 300,
        };
        assert_eq!(calls.lookup(&transposed), Some(1.0 / 3.0));
    }

    #[test]
    fn wrong_format_version_and_garbage_are_rejected() {
        assert!(matches!(
            CalibrationStore::from_json("{ not json"),
            Err(StoreError::Json(_))
        ));
        assert!(matches!(
            CalibrationStore::from_json(r#"{"format": "something-else"}"#),
            Err(StoreError::Format(_))
        ));
        let mut text = sample_store().to_json();
        text = text.replace(
            &format!("\"version\": {STORE_FORMAT_VERSION}"),
            "\"version\": 999",
        );
        let err = CalibrationStore::from_json(&text).unwrap_err();
        assert!(err.to_string().contains("unsupported store version 999"));
        // A machine no time can be computed against is garbage too.
        let good = sample_store().to_json();
        for (field, value, bad) in [
            ("peak_flops", "352000000000", "-48000000000"),
            ("peak_flops", "352000000000", "0"),
            ("mem_bandwidth", "100000000000", "-1"),
            ("mem_bandwidth", "100000000000", "0"),
            ("cores", "10", "0"),
        ] {
            let from = format!("\"{field}\": {value}");
            assert!(good.contains(&from), "{from}");
            let text = good.replace(&from, &format!("\"{field}\": {bad}"));
            let err = CalibrationStore::from_json(&text).unwrap_err();
            assert!(matches!(err, StoreError::Format(_)), "{field} {bad}: {err}");
        }
    }

    #[test]
    fn every_older_version_number_is_refused() {
        // No deployed stores of an older format exist, so this build reads
        // its own format only: nothing is migrated, every older number gets
        // the same error a too-new one does.
        let current = sample_store().to_json();
        for version in 0..STORE_FORMAT_VERSION {
            let old = current.replace(
                &format!("\"version\": {STORE_FORMAT_VERSION}"),
                &format!("\"version\": {version}"),
            );
            let err = CalibrationStore::from_json(&old).unwrap_err();
            assert!(
                err.to_string()
                    .contains(&format!("unsupported store version {version}")),
                "{err}"
            );
        }
    }

    #[test]
    fn merge_unions_calls_and_profiles_and_accumulates_meta() {
        let mut base = sample_store();
        base.meta.created_unix = 100;
        base.meta.updated_unix = 200;
        let mut sweep = CalibrationStore::new(
            MachineModel::paper_xeon_silver_4210().with_peak(360.0e9),
            "simulated",
        );
        sweep.meta.block_fingerprint = base.meta.block_fingerprint.clone();
        sweep.meta.created_unix = 300;
        sweep.meta.updated_unix = 400;
        // Refines gemm at a shared size and extends the curve.
        sweep
            .profiles
            .push(SquareProfile::new("gemm", vec![300, 500], vec![0.65, 0.8]));
        sweep.calls.insert(
            KernelOp::Gemm {
                transa: Trans::No,
                transb: Trans::No,
                m: 100,
                n: 200,
                k: 300,
            },
            0.25, // fresher measurement of an existing key
        );
        sweep.calls.insert(
            KernelOp::Gemm {
                transa: Trans::No,
                transb: Trans::No,
                m: 999,
                n: 1,
                k: 1,
            },
            1e-6,
        );
        base.merge_from(&sweep).unwrap();
        assert_eq!(base.meta.sweeps, 2);
        assert_eq!(base.meta.created_unix, 100);
        assert_eq!(base.meta.updated_unix, 400);
        assert_eq!(base.machine.peak_flops, 360.0e9);
        let gemm = base.profiles.iter().find(|p| p.kernel == "gemm").unwrap();
        assert_eq!(gemm.sizes, vec![100, 300, 500]);
        assert_eq!(gemm.efficiencies, vec![0.3, 0.65, 0.8]);
        assert_eq!(base.calls.len(), sample_store().calls.len() + 1);
        let mut calls = base.calls.clone();
        assert_eq!(
            calls.lookup(&KernelOp::Gemm {
                transa: Trans::No,
                transb: Trans::No,
                m: 100,
                n: 200,
                k: 300,
            }),
            Some(0.25)
        );
    }

    #[test]
    fn merging_incompatible_stores_is_refused() {
        let mut base = sample_store();
        let other = CalibrationStore::new(MachineModel::generic_laptop(), "measured");
        assert!(base.merge_from(&other).is_err());
        let mut different_block = sample_store();
        different_block.meta.block_fingerprint = "mc64-kc64-nc64".into();
        assert!(base.merge_from(&different_block).is_err());
    }

    #[test]
    fn staleness_flags_drift_age_and_block_changes() {
        let store = sample_store();
        let now = store.meta.updated_unix;
        assert!(store
            .staleness(&store.machine, &store.meta.block_fingerprint, now)
            .is_empty());
        let faster = store
            .machine
            .clone()
            .with_peak(store.machine.peak_flops * 1.5);
        let warnings = store.staleness(&faster, "other-config", now + 40 * 24 * 3600);
        assert_eq!(warnings.len(), 3);
        assert!(warnings
            .iter()
            .any(|w| matches!(w, StalenessWarning::PeakDrift { .. })));
        assert!(warnings
            .iter()
            .any(|w| matches!(w, StalenessWarning::BlockConfigChanged { .. })));
        assert!(warnings
            .iter()
            .any(|w| matches!(w, StalenessWarning::Aged { .. })));
        for w in &warnings {
            assert!(!w.to_string().is_empty());
        }
        // A store written under an earlier default configuration — the one
        // whose parallel cutoff was 2·64³, and the one whose register tile
        // was 8x4 on every target — differs from today's default in nothing
        // but the fingerprint, and that alone reports it stale. (Without
        // AVX-512 the second one still is the default.)
        let today = BlockConfig::default().fingerprint();
        for fingerprint in [
            "mc128-kc256-nc4096-tb64-r8x4-pft524288-par",
            "mc128-kc256-nc4096-tb64-r8x4-pft14155776-par",
        ] {
            let mut earlier = sample_store();
            earlier.meta.block_fingerprint = fingerprint.into();
            let warnings = earlier.staleness(&earlier.machine, &today, now);
            if fingerprint == today {
                assert!(warnings.is_empty(), "{warnings:?}");
            } else {
                assert!(
                    matches!(
                        warnings.as_slice(),
                        [StalenessWarning::BlockConfigChanged { .. }]
                    ),
                    "{fingerprint}: {warnings:?}"
                );
            }
        }
    }

    #[test]
    fn save_and_load_round_trip_through_the_filesystem() {
        let store = sample_store();
        let dir = std::env::temp_dir().join(format!("lamb-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("calibration.json");
        store.save(&path).unwrap();
        let back = CalibrationStore::load(&path).unwrap();
        assert_eq!(back.to_json(), store.to_json());
        assert!(CalibrationStore::load(&dir.join("missing.json")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn targets_differing_only_in_extension_get_distinct_temp_files() {
        let dir = Path::new("stores");
        let (v1, v2) = (temp_path(&dir.join("x.v1")), temp_path(&dir.join("x.v2")));
        assert_ne!(v1, v2);
        assert_eq!(v1.parent(), Some(dir));
        assert_eq!(v2.parent(), Some(dir));
        // A `.json` store keeps the temp name it always had.
        assert_eq!(
            temp_path(&dir.join("calibration.json")),
            dir.join("calibration.json.tmp")
        );
    }

    #[test]
    fn coverage_counts_by_kernel() {
        let store = sample_store();
        let cov = store.coverage();
        for kernel in [
            "gemm",
            "syrk",
            "symm",
            "symm_r",
            "trmm",
            "trmm_r",
            "trsm",
            "trsm_r",
            "potrf",
            "copy",
            "getrf",
            "qr",
            "ormqr",
            "factortri",
            "laswp",
        ] {
            assert_eq!(cov.get(kernel), Some(&1), "{kernel}");
        }
        assert!(store.missing_kernels().is_empty());

        // A store that only ever benchmarked the paper's original vocabulary
        // reports every other sweep kernel as its coverage gap, in sweep
        // order, through a save/load round trip...
        let mut partial = sample_store();
        partial.calls = CallTimeTable::from_entries(
            store
                .calls
                .entries()
                .filter(|(op, _)| {
                    matches!(
                        op,
                        KernelOp::Gemm { .. }
                            | KernelOp::Syrk { .. }
                            | KernelOp::Symm { .. }
                            | KernelOp::CopyTriangle { .. }
                    )
                })
                .map(|(op, s)| (op.clone(), s)),
        );
        let mut partial = CalibrationStore::from_json(&partial.to_json()).unwrap();
        assert_eq!(
            partial.missing_kernels(),
            vec!["trmm", "trsm", "potrf", "getrf", "qr", "trmm_r", "trsm_r"]
        );
        // ...until a sweep that covers them is merged in.
        partial.merge_from(&store).unwrap();
        assert!(partial.missing_kernels().is_empty());
    }

    #[test]
    fn triangular_lookups_are_timing_key_invariant_after_reload() {
        // The (Lower, T) insert canonicalised to (Upper, N); after a reload
        // both spellings hit the same entry.
        let back = CalibrationStore::from_json(&sample_store().to_json()).unwrap();
        let mut calls = back.calls;
        let stored_lower_t = KernelOp::Trmm {
            side: Side::Left,
            uplo: Uplo::Lower,
            trans: Trans::Yes,
            m: 80,
            n: 35,
        };
        let stored_upper_n = KernelOp::Trmm {
            side: Side::Left,
            uplo: Uplo::Upper,
            trans: Trans::No,
            m: 80,
            n: 35,
        };
        assert_eq!(calls.lookup(&stored_lower_t), Some(3.25e-4));
        assert_eq!(calls.lookup(&stored_upper_n), Some(3.25e-4));
    }

    fn sample_tuned() -> TunedConfig {
        TunedConfig {
            config: BlockConfig {
                mc: 192,
                kc: 384,
                nc: 2048,
                tri_block: 96,
                tile: TileVariant::T8x8,
                parallel: true,
                parallel_flop_threshold: 1 << 21,
            },
            // Not exactly representable: a real bit-identity test.
            gflops: 100.0 / 7.0,
        }
    }

    #[test]
    fn tuned_config_round_trips_bit_identically() {
        // An untuned store has no `tuned` section and loads without one.
        let untuned = sample_store();
        assert!(!untuned.to_json().contains("\"tuned\""));
        let mut plain = CalibrationStore::from_json(&untuned.to_json()).unwrap();
        assert!(plain.tuned.is_none());
        assert!(plain.tuned_block_config().is_none());
        // Merging an autotune sweep adopts its tuned configuration.
        let mut sweep = CalibrationStore::new(MachineModel::paper_xeon_silver_4210(), "simulated");
        sweep.meta.block_fingerprint = plain.meta.block_fingerprint.clone();
        sweep.tuned = Some(sample_tuned());
        plain.merge_from(&sweep).unwrap();
        assert_eq!(plain.tuned, Some(sample_tuned()));

        let mut store = sample_store();
        store.tuned = Some(sample_tuned());
        let text = store.to_json();
        let back = CalibrationStore::from_json(&text).unwrap();
        let tuned = back.tuned.as_ref().unwrap();
        assert_eq!(tuned.config, sample_tuned().config);
        assert_eq!(
            tuned.config.fingerprint(),
            sample_tuned().config.fingerprint()
        );
        assert_eq!(tuned.gflops.to_bits(), sample_tuned().gflops.to_bits());
        assert_eq!(back.tuned_block_config(), Some(&sample_tuned().config));
        // Serialisation is deterministic: same tuned store, same bytes.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn malformed_tuned_sections_are_rejected() {
        let mut store = sample_store();
        store.tuned = Some(sample_tuned());
        let text = store.to_json();
        let bad_tile = text.replace("\"tile\": \"8x8\"", "\"tile\": \"3x5\"");
        assert!(CalibrationStore::from_json(&bad_tile)
            .unwrap_err()
            .to_string()
            .contains("unknown register tile"));
        let bad_parallel = text.replace("\"parallel\": true", "\"parallel\": 1");
        assert!(CalibrationStore::from_json(&bad_parallel)
            .unwrap_err()
            .to_string()
            .contains("non-boolean"));
    }

    #[test]
    fn merge_keeps_existing_tuned_config_when_sweep_has_none() {
        let mut base = sample_store();
        base.tuned = Some(sample_tuned());
        let mut sweep = CalibrationStore::new(MachineModel::paper_xeon_silver_4210(), "simulated");
        sweep.meta.block_fingerprint = base.meta.block_fingerprint.clone();
        base.merge_from(&sweep).unwrap();
        assert_eq!(base.tuned, Some(sample_tuned()));
    }
}
