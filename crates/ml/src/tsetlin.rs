//! An integer-only Tsetlin machine detector backend.
//!
//! The second resident of the detector zoo, after the paper's linear
//! SVM. A Tsetlin machine classifies by evaluating conjunctive clauses
//! over *booleanized* features and summing clause votes — no multiply,
//! no divide, no floating point anywhere on the scoring path, which
//! makes it a natural fit for the MSP430 deployment profile this
//! workspace enforces on embedded modules.
//!
//! Booleanization uses the **total-order key trick**: a finite `f32`
//! maps through [`f32_key`] to an `i32` whose integer ordering equals
//! the float ordering, so every threshold test `x >= t` on the device
//! is a plain integer compare against a precomputed key. Each feature
//! contributes [`THRESHOLDS_PER_FEATURE`] threshold literals plus their
//! negations; with at most [`MAX_FEATURES`] features the whole literal
//! universe fits one `u64`, so a clause is a single bitmask and clause
//! evaluation is `mask & input == mask`.
//!
//! Training (host-side, like the SVM's liblinear step) runs the
//! classic two-action automaton update with Type I / Type II feedback.
//! All stochastic decisions draw from an inline SplitMix64 stream and
//! compare integers, so training is bit-reproducible from its seed and
//! involves no floating-point arithmetic either.
//!
//! The on-flash codec mirrors model codec v2 (`SIFTMDL`): magic,
//! version byte, shape header, payload, trailing CRC-32 shared with
//! [`crate::embedded`]. Torn or bit-flipped blobs decode to typed
//! errors, never panics.

use crate::embedded::{crc32, put};
use crate::{Label, MlError};

/// Maximum feature dimension a model can booleanize (the SIFT flavor
/// ladder tops out at 8 features).
pub const MAX_FEATURES: usize = 8;

/// Threshold literals per feature (each also has a negated twin).
pub const THRESHOLDS_PER_FEATURE: usize = 4;

/// Maximum clause pairs (one positive- plus one negative-polarity
/// clause per pair); 32 pairs keeps the clause bank inside 64 masks.
pub const MAX_CLAUSE_PAIRS: usize = 32;

/// Size of the literal universe: a threshold literal and its negation
/// per (feature, threshold) — at most 64, one `u64` lane.
pub const MAX_LITERALS: usize = 2 * MAX_FEATURES * THRESHOLDS_PER_FEATURE;

const MAX_CLAUSES: usize = 2 * MAX_CLAUSE_PAIRS;

/// Automaton state at or above this includes the literal in its clause.
const INCLUDE_FLOOR: u8 = 128;

/// Magic bytes identifying an encoded Tsetlin model on flash.
pub const MAGIC: [u8; 7] = *b"SIFTTSM";

/// Current on-flash format version for the Tsetlin codec.
pub const FORMAT_VERSION: u8 = 1;

/// Fixed header: magic + version byte + `u32` dimension + `u32` pairs.
pub const HEADER_BYTES: usize = MAGIC.len() + 1 + 4 + 4;

/// Trailing CRC-32 over everything before it.
pub const CRC_BYTES: usize = 4;

/// Exact encoded size of a model of `dim` features and `pairs` clause
/// pairs: header, `i32` threshold keys, `u64` clause masks, CRC.
pub const fn encoded_len(dim: usize, pairs: usize) -> usize {
    HEADER_BYTES + 4 * (dim * THRESHOLDS_PER_FEATURE) + 8 * (2 * pairs) + CRC_BYTES
}

/// Map a finite `f32` to an `i32` whose integer order equals the float
/// order (IEEE-754 total-order trick): the device compares keys, never
/// floats.
pub const fn f32_key(x: f32) -> i32 {
    let b = x.to_bits() as i32;
    b ^ (((b >> 31) as u32) >> 1) as i32
}

/// Bitmask covering the live literal universe for `dim` features.
const fn literal_universe(dim: usize) -> u64 {
    let n = 2 * dim * THRESHOLDS_PER_FEATURE;
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Deterministic SplitMix64 step — the only randomness source in
/// training, all-integer.
fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Little-endian `u32` at `*at`, advancing the cursor; missing bytes
/// read as zero (callers length-check the whole blob first).
fn read_u32_at(bytes: &[u8], at: &mut usize) -> u32 {
    let mut v = 0u32;
    for (k, &b) in bytes.iter().skip(*at).take(4).enumerate() {
        v |= u32::from(b) << (8 * k);
    }
    *at += 4;
    v
}

/// Little-endian `u64` at `*at`, advancing the cursor.
fn read_u64_at(bytes: &[u8], at: &mut usize) -> u64 {
    let mut v = 0u64;
    for (k, &b) in bytes.iter().skip(*at).take(8).enumerate() {
        v |= u64::from(b) << (8 * k);
    }
    *at += 8;
    v
}

/// A trained, deployable Tsetlin machine: threshold keys plus clause
/// masks, fixed-capacity so the struct itself is heap-free.
///
/// Clause `c` is positive polarity (votes *attack*) when `c` is even,
/// negative polarity (votes *genuine*) when odd.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TsetlinModel {
    dim: u32,
    pairs: u32,
    thresholds: [i32; MAX_FEATURES * THRESHOLDS_PER_FEATURE],
    masks: [u64; MAX_CLAUSES],
}

impl TsetlinModel {
    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim as usize
    }

    /// Clause pairs (the flavor-ladder knob: fewer pairs, smaller
    /// footprint, coarser decision boundary).
    pub fn pairs(&self) -> usize {
        self.pairs as usize
    }

    /// Booleanize a raw feature vector into the literal bitmap: for
    /// each (feature, threshold) pair exactly one of the literal and
    /// its negation is set, decided by an integer key compare.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()` (a compile-time guarantee in the
    /// generated device code; the simulation asserts it).
    pub fn booleanize(&self, x: &[f32]) -> u64 {
        // lint:allow(detector-embedded-profile, dimension is a compile-time guarantee in the generated device code; the simulation asserts it)
        assert_eq!(x.len(), self.dim(), "feature dimension mismatch");
        let mut bits = 0u64;
        for (f, &xf) in x.iter().enumerate() {
            let key = f32_key(xf);
            let base = f * THRESHOLDS_PER_FEATURE;
            for (t, &thr) in self
                .thresholds
                .iter()
                .skip(base)
                .take(THRESHOLDS_PER_FEATURE)
                .enumerate()
            {
                let literal = 2 * (base + t);
                if key >= thr {
                    bits |= 1u64 << literal;
                } else {
                    bits |= 1u64 << (literal + 1);
                }
            }
        }
        bits
    }

    /// Clause-vote sum for a booleanized input: `+1` per firing
    /// positive clause, `-1` per firing negative clause. Bounded by
    /// `±pairs()`.
    pub fn vote(&self, input: u64) -> i32 {
        let mut sum = 0i32;
        for (c, &mask) in self.masks.iter().take(2 * self.pairs()).enumerate() {
            if mask & input == mask {
                if c & 1 == 0 {
                    sum += 1;
                } else {
                    sum -= 1;
                }
            }
        }
        sum
    }

    /// Signed decision value for a raw feature vector — the integer
    /// clause-vote sum widened to `f32` so the backend surface matches
    /// the SVM's. `> 0` classifies *attack*.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()`.
    pub fn score_f32(&self, x: &[f32]) -> f32 {
        self.vote(self.booleanize(x)) as f32
    }

    /// Hard label for a raw feature vector, by integer vote sign.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()`.
    pub fn predict_f32(&self, x: &[f32]) -> Label {
        if self.vote(self.booleanize(x)) > 0 {
            Label::Positive
        } else {
            Label::Negative
        }
    }

    /// Decision values for a row-major flat batch, one per window.
    ///
    /// Full blocks of [`crate::SIMD_LANES`] rows are booleanized into a
    /// lane array of literal bitmaps and voted lane-parallel: each
    /// clause mask is tested against all lanes in one pass, which the
    /// compiler vectorizes as wide integer AND/compare. The clause
    /// votes are exact integers, so lane order cannot perturb the
    /// result — batched and per-window scores agree bit for bit
    /// (certified by the conformance suite). The ragged tail runs the
    /// scalar path.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] when `batch.len()` is not
    /// a multiple of `dim()`.
    // lint:allow(detector-embedded-profile, host-side sink batch scoring; the device scores one window at a time through score_f32)
    pub fn score_batch_f32(&self, batch: &[f32]) -> Result<Vec<f32>, MlError> {
        let dim = self.dim();
        if dim == 0 || !batch.len().is_multiple_of(dim) {
            return Err(MlError::DimensionMismatch {
                expected: dim,
                actual: batch.len(),
            });
        }
        let rows = batch.len() / dim;
        let blocks = rows / crate::SIMD_LANES;
        let mut out = Vec::with_capacity(rows);
        for b in 0..blocks {
            let base = b * crate::SIMD_LANES * dim;
            let mut inputs = [0u64; crate::SIMD_LANES];
            for (l, row) in batch[base..base + crate::SIMD_LANES * dim]
                .chunks_exact(dim)
                .enumerate()
            {
                inputs[l] = self.booleanize(row);
            }
            let mut votes = [0i32; crate::SIMD_LANES];
            for (c, &mask) in self.masks.iter().take(2 * self.pairs()).enumerate() {
                let delta = if c & 1 == 0 { 1i32 } else { -1i32 };
                for (v, &input) in votes.iter_mut().zip(inputs.iter()) {
                    *v += if mask & input == mask { delta } else { 0 };
                }
            }
            out.extend(votes.iter().map(|&v| v as f32));
        }
        for row in batch[blocks * crate::SIMD_LANES * dim..].chunks_exact(dim) {
            out.push(self.score_f32(row));
        }
        Ok(out)
    }

    /// Exact serialized size in bytes (the model's FRAM contribution).
    pub fn footprint_bytes(&self) -> usize {
        encoded_len(self.dim(), self.pairs())
    }

    /// Serialize into a caller-provided buffer, heap-free: magic,
    /// version, shape, threshold keys, clause masks, trailing CRC-32.
    /// Returns the bytes written (always [`encoded_len`]).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::MalformedModel`] when `out` is shorter than
    /// [`encoded_len`]; nothing is written in that case.
    pub fn encode_into(&self, out: &mut [u8]) -> Result<usize, MlError> {
        let needed = self.footprint_bytes();
        if out.len() < needed {
            return Err(MlError::MalformedModel {
                reason: "encode buffer too small",
            });
        }
        let mut at = 0;
        put(out, &mut at, &MAGIC);
        put(out, &mut at, &[FORMAT_VERSION]);
        put(out, &mut at, &self.dim.to_le_bytes());
        put(out, &mut at, &self.pairs.to_le_bytes());
        for &thr in self
            .thresholds
            .iter()
            .take(self.dim() * THRESHOLDS_PER_FEATURE)
        {
            put(out, &mut at, &thr.to_le_bytes());
        }
        for &mask in self.masks.iter().take(2 * self.pairs()) {
            put(out, &mut at, &mask.to_le_bytes());
        }
        let crc = crc32(0, out.get(..at).unwrap_or(&[]));
        put(out, &mut at, &crc.to_le_bytes());
        Ok(at)
    }

    /// Serialize to the on-flash byte format (little-endian).
    // lint:allow(detector-embedded-profile, host-side serialization; the device reads the finished image out of FRAM)
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.footprint_bytes()];
        // Cannot fail: the buffer is sized by the same formula.
        let _ = self.encode_into(&mut out);
        out
    }

    /// Decode a model previously produced by [`TsetlinModel::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`MlError::UnsupportedModelVersion`] for a recognized
    /// magic with a foreign version byte, and
    /// [`MlError::MalformedModel`] for any framing, shape, or checksum
    /// violation. Never panics, whatever the input bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, MlError> {
        if bytes.len() < HEADER_BYTES + CRC_BYTES {
            return Err(MlError::MalformedModel {
                reason: "too short for header",
            });
        }
        if bytes.get(..MAGIC.len()) != Some(MAGIC.as_slice()) {
            return Err(MlError::MalformedModel {
                reason: "bad magic",
            });
        }
        let version = bytes.get(MAGIC.len()).copied().unwrap_or(0);
        if version != FORMAT_VERSION {
            return Err(MlError::UnsupportedModelVersion { found: version });
        }
        let mut at = MAGIC.len() + 1;
        let dim = read_u32_at(bytes, &mut at) as usize;
        let pairs = read_u32_at(bytes, &mut at) as usize;
        if dim == 0 || dim > MAX_FEATURES {
            return Err(MlError::MalformedModel {
                reason: "dimension out of range",
            });
        }
        if pairs == 0 || pairs > MAX_CLAUSE_PAIRS {
            return Err(MlError::MalformedModel {
                reason: "clause pairs out of range",
            });
        }
        let want = encoded_len(dim, pairs);
        if bytes.len() != want {
            return Err(MlError::MalformedModel {
                reason: "length does not match header",
            });
        }
        let mut crc_at = want - CRC_BYTES;
        let stored = read_u32_at(bytes, &mut crc_at);
        if crc32(0, bytes.get(..want - CRC_BYTES).unwrap_or(&[])) != stored {
            return Err(MlError::MalformedModel {
                reason: "checksum mismatch",
            });
        }
        let mut thresholds = [0i32; MAX_FEATURES * THRESHOLDS_PER_FEATURE];
        for slot in thresholds.iter_mut().take(dim * THRESHOLDS_PER_FEATURE) {
            *slot = read_u32_at(bytes, &mut at) as i32;
        }
        let universe = literal_universe(dim);
        let mut masks = [0u64; MAX_CLAUSES];
        for slot in masks.iter_mut().take(2 * pairs) {
            let mask = read_u64_at(bytes, &mut at);
            if mask & !universe != 0 {
                return Err(MlError::MalformedModel {
                    reason: "clause mask outside literal universe",
                });
            }
            *slot = mask;
        }
        Ok(Self {
            dim: dim as u32,
            pairs: pairs as u32,
            thresholds,
            masks,
        })
    }
}

/// Host-side Tsetlin trainer: deterministic from `seed`, integer-only
/// stochastic updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TsetlinTrainer {
    /// Clause pairs to train (the flavor-ladder knob), `1..=32`.
    pub pairs: u32,
    /// Specificity `s`: Type I forget/boost probability is `1/s`,
    /// must be at least 2.
    pub specificity: u64,
    /// Vote-margin target `T` for feedback damping, at least 1.
    pub vote_margin: i32,
    /// Full passes over the training set.
    pub epochs: u32,
    /// RNG seed for every stochastic update.
    pub seed: u64,
}

impl Default for TsetlinTrainer {
    fn default() -> Self {
        Self {
            pairs: 16,
            specificity: 4,
            vote_margin: 8,
            epochs: 24,
            seed: 1,
        }
    }
}

/// True when every literal the automata currently include is present
/// in `input`.
fn clause_fires(states: &[u8], n_literals: usize, input: u64) -> bool {
    for (l, &st) in states.iter().take(n_literals).enumerate() {
        if st >= INCLUDE_FLOOR && input >> l & 1 == 0 {
            return false;
        }
    }
    true
}

/// Clause-vote sum straight from automata states (used mid-training,
/// before masks are frozen).
fn vote_from_states(states: &[[u8; MAX_LITERALS]], clauses: usize, n_literals: usize, input: u64) -> i32 {
    let mut sum = 0i32;
    for (c, clause) in states.iter().take(clauses).enumerate() {
        if clause_fires(clause, n_literals, input) {
            if c & 1 == 0 {
                sum += 1;
            } else {
                sum -= 1;
            }
        }
    }
    sum
}

// lint:allow(detector-embedded-profile, host-side trainer — the paper's offline training step; the device only scores and decodes)
impl TsetlinTrainer {
    /// Fit a model on a row-major flat matrix of raw `f32` features
    /// (`rows.len() == dim * labels.len()`). Thresholds are per-feature
    /// quantile keys of the training data; automata then run
    /// `epochs` passes of Type I / Type II feedback.
    ///
    /// # Errors
    ///
    /// [`MlError::InvalidParameter`] for an out-of-domain knob,
    /// [`MlError::EmptyDataset`] / [`MlError::DimensionMismatch`] /
    /// [`MlError::NonFiniteFeature`] / [`MlError::SingleClass`] for
    /// unusable data.
    pub fn fit(&self, dim: usize, rows: &[f32], labels: &[Label]) -> Result<TsetlinModel, MlError> {
        if dim == 0 || dim > MAX_FEATURES {
            return Err(MlError::InvalidParameter {
                name: "dim",
                reason: "must be 1..=MAX_FEATURES",
            });
        }
        if self.pairs == 0 || self.pairs as usize > MAX_CLAUSE_PAIRS {
            return Err(MlError::InvalidParameter {
                name: "pairs",
                reason: "must be 1..=MAX_CLAUSE_PAIRS",
            });
        }
        if self.specificity < 2 {
            return Err(MlError::InvalidParameter {
                name: "specificity",
                reason: "must be at least 2",
            });
        }
        if self.vote_margin < 1 {
            return Err(MlError::InvalidParameter {
                name: "vote_margin",
                reason: "must be at least 1",
            });
        }
        if labels.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if rows.len() != dim * labels.len() {
            return Err(MlError::DimensionMismatch {
                expected: dim * labels.len(),
                actual: rows.len(),
            });
        }
        if rows.iter().any(|v| !v.is_finite()) {
            return Err(MlError::NonFiniteFeature);
        }
        if labels.iter().all(|&l| l == labels[0]) {
            return Err(MlError::SingleClass);
        }

        let thresholds = fit_thresholds(dim, rows);
        let mut model = TsetlinModel {
            dim: dim as u32,
            pairs: self.pairs,
            thresholds,
            masks: [0u64; MAX_CLAUSES],
        };
        let inputs: Vec<u64> = rows.chunks_exact(dim).map(|r| model.booleanize(r)).collect();

        let n_literals = 2 * dim * THRESHOLDS_PER_FEATURE;
        let clauses = 2 * self.pairs as usize;
        let mut states = [[INCLUDE_FLOOR - 1; MAX_LITERALS]; MAX_CLAUSES];
        let mut rng = self.seed ^ 0x7E7A_11AD_5EED_0001;
        let t = self.vote_margin;
        let denom = 2 * t as u64;
        let s = self.specificity;

        for _ in 0..self.epochs {
            for (&input, &label) in inputs.iter().zip(labels) {
                let attack = label == Label::Positive;
                let v = vote_from_states(&states, clauses, n_literals, input).clamp(-t, t);
                let prob_num = if attack { (t - v) as u64 } else { (t + v) as u64 };
                for (c, clause) in states.iter_mut().take(clauses).enumerate() {
                    if next_u64(&mut rng) % denom >= prob_num {
                        continue;
                    }
                    let positive_clause = c & 1 == 0;
                    let fires = clause_fires(clause, n_literals, input);
                    if positive_clause == attack {
                        // Type I: reinforce true-positive patterns.
                        if fires {
                            for (l, st) in clause.iter_mut().take(n_literals).enumerate() {
                                if input >> l & 1 == 1 {
                                    if !next_u64(&mut rng).is_multiple_of(s) {
                                        *st = st.saturating_add(1);
                                    }
                                } else if next_u64(&mut rng).is_multiple_of(s) {
                                    *st = st.saturating_sub(1);
                                }
                            }
                        } else {
                            for st in clause.iter_mut().take(n_literals) {
                                if next_u64(&mut rng).is_multiple_of(s) {
                                    *st = st.saturating_sub(1);
                                }
                            }
                        }
                    } else if fires {
                        // Type II: add absent literals to kill the
                        // false-positive firing.
                        for (l, st) in clause.iter_mut().take(n_literals).enumerate() {
                            if input >> l & 1 == 0 && *st < INCLUDE_FLOOR {
                                *st = st.saturating_add(1);
                            }
                        }
                    }
                }
            }
        }

        for (mask, clause) in model.masks.iter_mut().take(clauses).zip(states.iter()) {
            let mut m = 0u64;
            for (l, &st) in clause.iter().take(n_literals).enumerate() {
                if st >= INCLUDE_FLOOR {
                    m |= 1u64 << l;
                }
            }
            *mask = m;
        }
        Ok(model)
    }
}

/// Per-feature quantile threshold keys from the training rows.
// lint:allow(detector-embedded-profile, host-side threshold fitting over the whole training set; the device stores only the resulting keys)
fn fit_thresholds(dim: usize, rows: &[f32]) -> [i32; MAX_FEATURES * THRESHOLDS_PER_FEATURE] {
    let mut thresholds = [0i32; MAX_FEATURES * THRESHOLDS_PER_FEATURE];
    let n = rows.len() / dim;
    for f in 0..dim {
        let mut keys: Vec<i32> = rows
            .iter()
            .skip(f)
            .step_by(dim)
            .map(|&v| f32_key(v))
            .collect();
        keys.sort_unstable();
        for t in 0..THRESHOLDS_PER_FEATURE {
            let rank = ((t + 1) * n) / (THRESHOLDS_PER_FEATURE + 1);
            thresholds[f * THRESHOLDS_PER_FEATURE + t] = keys[rank.min(n - 1)];
        }
    }
    thresholds
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n_per_class: usize) -> (Vec<f32>, Vec<Label>) {
        // Two well-separated 3-feature clusters, deterministic jitter.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let mut rng = 42u64;
        for _ in 0..n_per_class {
            let j = |rng: &mut u64| (next_u64(rng) % 100) as f32 / 1000.0;
            rows.extend([j(&mut rng), 0.2 + j(&mut rng), -1.0 + j(&mut rng)]);
            labels.push(Label::Negative);
            rows.extend([2.0 + j(&mut rng), 3.0 + j(&mut rng), 1.0 + j(&mut rng)]);
            labels.push(Label::Positive);
        }
        (rows, labels)
    }

    fn trained() -> TsetlinModel {
        let (rows, labels) = toy(40);
        TsetlinTrainer::default().fit(3, &rows, &labels).unwrap()
    }

    #[test]
    fn f32_key_preserves_float_order() {
        let xs = [
            f32::NEG_INFINITY,
            -1.0e20,
            -2.0,
            -1.0,
            -0.5,
            -0.0,
            0.0,
            0.5,
            1.0,
            2.0,
            1.0e20,
            f32::INFINITY,
        ];
        for w in xs.windows(2) {
            assert!(f32_key(w[0]) <= f32_key(w[1]), "{} vs {}", w[0], w[1]);
        }
        assert!(f32_key(-0.0) < f32_key(0.5));
    }

    #[test]
    fn separable_toy_data_is_learned() {
        let (rows, labels) = toy(40);
        let model = trained();
        let mut correct = 0usize;
        for (row, &label) in rows.chunks_exact(3).zip(&labels) {
            if model.predict_f32(row) == label {
                correct += 1;
            }
        }
        let acc = correct as f64 / labels.len() as f64;
        assert!(acc > 0.9, "toy accuracy {acc}");
    }

    #[test]
    fn training_is_deterministic_from_seed() {
        let (rows, labels) = toy(25);
        let a = TsetlinTrainer::default().fit(3, &rows, &labels).unwrap();
        let b = TsetlinTrainer::default().fit(3, &rows, &labels).unwrap();
        assert_eq!(a, b);
        let c = TsetlinTrainer {
            seed: 99,
            ..TsetlinTrainer::default()
        }
        .fit(3, &rows, &labels)
        .unwrap();
        // A different seed explores differently (masks may coincide on
        // toy data, but encodings must stay self-consistent).
        assert_eq!(c.footprint_bytes(), a.footprint_bytes());
    }

    #[test]
    fn vote_is_bounded_by_pairs() {
        let model = trained();
        let pairs = model.pairs() as i32;
        for bits in [0u64, u64::MAX, 0xAAAA_AAAA_AAAA_AAAA, 1] {
            let v = model.vote(bits & literal_universe(model.dim()));
            assert!(v.abs() <= pairs, "vote {v} exceeds ±{pairs}");
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let model = trained();
        let bytes = model.encode();
        assert_eq!(bytes.len(), model.footprint_bytes());
        assert_eq!(bytes.len(), encoded_len(model.dim(), model.pairs()));
        let back = TsetlinModel::decode(&bytes).unwrap();
        assert_eq!(back, model);
    }

    #[test]
    fn decode_rejects_corruption_with_typed_errors() {
        let model = trained();
        let good = model.encode();
        assert!(matches!(
            TsetlinModel::decode(&[]),
            Err(MlError::MalformedModel { .. })
        ));
        assert!(matches!(
            TsetlinModel::decode(&good[..good.len() - 1]),
            Err(MlError::MalformedModel { .. })
        ));
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(TsetlinModel::decode(&bad_magic).is_err());
        let mut bad_version = good.clone();
        bad_version[MAGIC.len()] = 9;
        assert_eq!(
            TsetlinModel::decode(&bad_version),
            Err(MlError::UnsupportedModelVersion { found: 9 })
        );
        for i in HEADER_BYTES..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x10;
            assert!(
                TsetlinModel::decode(&bad).is_err(),
                "bit flip at byte {i} was accepted"
            );
        }
    }

    #[test]
    fn invalid_parameters_are_typed() {
        let (rows, labels) = toy(5);
        let bad_pairs = TsetlinTrainer {
            pairs: 0,
            ..TsetlinTrainer::default()
        };
        assert!(matches!(
            bad_pairs.fit(3, &rows, &labels),
            Err(MlError::InvalidParameter { name: "pairs", .. })
        ));
        let bad_s = TsetlinTrainer {
            specificity: 1,
            ..TsetlinTrainer::default()
        };
        assert!(bad_s.fit(3, &rows, &labels).is_err());
        assert!(matches!(
            TsetlinTrainer::default().fit(3, &[], &[]),
            Err(MlError::EmptyDataset)
        ));
        assert!(matches!(
            TsetlinTrainer::default().fit(3, &rows[..5], &labels),
            Err(MlError::DimensionMismatch { .. })
        ));
        let one_class = vec![Label::Positive; labels.len()];
        assert!(matches!(
            TsetlinTrainer::default().fit(3, &rows, &one_class),
            Err(MlError::SingleClass)
        ));
    }

    #[test]
    fn batched_scoring_matches_scalar() {
        // Enough rows for lane blocks plus a ragged tail.
        let (rows, _) = toy(3 * crate::SIMD_LANES + 5);
        let model = trained();
        let batch = model.score_batch_f32(&rows).unwrap();
        for (b, row) in batch.iter().zip(rows.chunks_exact(3)) {
            assert_eq!(b.to_bits(), model.score_f32(row).to_bits());
        }
    }

    #[test]
    fn ragged_batch_rejected_with_typed_error() {
        let model = trained();
        assert_eq!(
            model.score_batch_f32(&[1.0, 2.0]),
            Err(MlError::DimensionMismatch {
                expected: 3,
                actual: 2
            })
        );
    }
}
