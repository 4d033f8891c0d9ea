//! Aggregate functions and their mergeable accumulators.
//!
//! §2 of the paper: *"we denote by F the set of potential aggregate
//! functions over the measure attributes (e.g. COUNT, SUM, AVG)."* MIN and
//! MAX are included for completeness of the SQL surface.
//!
//! A single [`Accumulator`] carries enough state (count, sum, min, max) to
//! finalize *any* of the functions, and merges losslessly — the property
//! that makes the multi-GROUP-BY rollup, the phased partial execution,
//! *and* morsel-driven parallel execution correct. Accumulators are the
//! result currency; while scanning, the kernel keeps leaner state: one
//! struct-of-arrays `AggColumn` per (aggregate, side), indexed by group
//! slot, holding only what the function needs.
//!
//! ## Order-invariant summation
//!
//! Naive `f64` addition is not associative, so a partition-and-merge
//! execution (phases, morsels, rollups) would drift from the serial result
//! by a few ULPs depending on where the partition boundaries fall. The
//! engine promises **bit-identical** results across execution shapes, so
//! SUM is kept exactly ([`ExactSum`]: a 256-bit fixed-point window for
//! ordinary values, a `math.fsum`-style expansion for the rest): the state
//! represents the *exact* real-number sum of everything fed in, and
//! finalization rounds it correctly once. The rounded value therefore depends only on
//! the multiset of inputs — never on accumulation or merge order. COUNT,
//! MIN, and MAX are order-invariant by nature; non-finite inputs are
//! tracked as flags (any NaN, or both infinities ⇒ NaN; one-sided
//! infinities saturate), which is again order-independent.

use std::fmt;
use std::str::FromStr;

/// SQL aggregate functions supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(m)` — number of non-NULL measure values.
    Count,
    /// `SUM(m)`.
    Sum,
    /// `AVG(m)`.
    Avg,
    /// `MIN(m)`.
    Min,
    /// `MAX(m)`.
    Max,
}

impl AggFunc {
    /// All functions, for sweeps.
    pub const ALL: [AggFunc; 5] = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
    ];

    /// SQL spelling.
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for AggFunc {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "COUNT" => Ok(AggFunc::Count),
            "SUM" => Ok(AggFunc::Sum),
            "AVG" => Ok(AggFunc::Avg),
            "MIN" => Ok(AggFunc::Min),
            "MAX" => Ok(AggFunc::Max),
            other => Err(format!("unknown aggregate function '{other}'")),
        }
    }
}

/// Error-free transformation: `a + b = s + err` exactly (Knuth's TwoSum,
/// branchless, magnitude order irrelevant).
#[inline(always)]
fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    let err = (a - (s - bb)) + (b - bb);
    (s, err)
}

/// Grows a Shewchuk expansion (non-overlapping partials, increasing
/// magnitude) by `x`, exactly — the `math.fsum` step. `Err` carries the
/// non-finite top when the running sum leaves the `f64` range; the
/// partials then keep only their finite part.
fn grow(partials: &mut Vec<f64>, mut x: f64) -> Result<(), f64> {
    let mut kept = 0;
    for j in 0..partials.len() {
        let (hi, lo) = two_sum(x, partials[j]);
        if lo != 0.0 {
            partials[kept] = lo;
            kept += 1;
        }
        x = hi;
    }
    partials.truncate(kept);
    if x.is_finite() {
        partials.push(x);
        Ok(())
    } else {
        // An overflowing TwoSum leaves NaN residuals behind.
        partials.retain(|p| p.is_finite());
        Err(x)
    }
}

/// The correctly rounded value of an expansion (the `fsum` tail: sum from
/// the top until a step is inexact, then correct a half-way tie).
fn round_expansion(p: &[f64]) -> f64 {
    let Some(&last) = p.last() else {
        return 0.0;
    };
    let mut n = p.len() - 1;
    let mut hi = last;
    let mut lo = 0.0;
    while n > 0 {
        let x = hi;
        n -= 1;
        let y = p[n];
        hi = x + y;
        let yr = hi - x;
        lo = y - yr;
        if lo != 0.0 {
            break;
        }
    }
    if n > 0 && ((lo < 0.0 && p[n - 1] < 0.0) || (lo > 0.0 && p[n - 1] > 0.0)) {
        let y = lo * 2.0;
        let x = hi + y;
        if y == x - hi {
            hi = x;
        }
    }
    hi
}

/// Weight of bit 0 of [`ExactSum`]'s window integer: `2^-128`.
const WINDOW_LSB: i32 = -128;

/// Largest window position of a mantissa's bit 0: values below `2^65` in
/// magnitude. The integer then stays below `count · 2^193`, far inside its
/// 256 bits.
const WINDOW_MAX_SHIFT: i32 = 140;

/// Exact running sum of `f64` values whose correctly rounded value depends
/// only on the multiset of inputs.
///
/// Every normal value of magnitude below `2^65` whose bits lie above
/// `2^-128` — all ordinary measure data — goes into a 256-bit
/// two's-complement fixed-point integer in units of `2^-128` (a
/// one-window form of Neal's small superaccumulator, arXiv:1505.05571):
/// one shift and one wide add per value, and a wide add per merge. Other
/// finite values (subnormals, tiny or huge magnitudes) grow a Shewchuk
/// expansion; non-finite inputs set flags (any NaN, or both infinities ⇒
/// NaN; one-sided infinities saturate). A zero total is `-0.0` only when
/// every input was `-0.0`, as in IEEE summation.
///
/// **Overflow domain**: exactness — and therefore order-invariance — holds
/// while `Σ|xᵢ|` stays within `f64` range. Beyond that this sum saturates
/// to ±∞ like naive IEEE summation would; which side saturates first can
/// then depend on partition boundaries, just as it depends on input order
/// for a naive sum. SeeDB measure data is ~600 orders of magnitude away
/// from this regime.
#[derive(Debug, Clone, Default)]
struct ExactSum {
    /// The window integer's little-endian 64-bit words (word-aligned, so
    /// an accumulator stays as small as the expansion-only one was).
    window: [u64; 4],
    /// Expansion of the finite values outside the window (rare, so kept
    /// as a boxed slice that is empty without allocating).
    outside: Box<[f64]>,
    /// A `-0.0` input was observed.
    neg_zero: bool,
    /// An input other than `-0.0` was observed.
    not_neg_zero: bool,
    /// A `+∞` input (or positive overflow) was observed.
    pos_inf: bool,
    /// A `−∞` input (or negative overflow) was observed.
    neg_inf: bool,
    /// A NaN input was observed.
    nan: bool,
}

impl ExactSum {
    /// The window integer as `(low, high)` 128-bit halves.
    #[inline(always)]
    fn halves(&self) -> (u128, u128) {
        let [a, b, c, d] = self.window.map(u128::from);
        (a | b << 64, c | d << 64)
    }

    #[inline(always)]
    fn set_halves(&mut self, lo: u128, hi: u128) {
        self.window = [lo as u64, (lo >> 64) as u64, hi as u64, (hi >> 64) as u64];
    }

    #[inline]
    fn add(&mut self, x: f64) {
        let bits = x.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i32;
        // The mantissa's bit 0 weighs 2^(exp - 1075).
        let shift = exp - 1075 - WINDOW_LSB;
        if exp == 0 || exp == 0x7ff || !(0..=WINDOW_MAX_SHIFT).contains(&shift) {
            self.add_outside(x);
            return;
        }
        self.not_neg_zero = true;
        let mant = ((bits & ((1 << 52) - 1)) | (1 << 52)) as u128;
        let shift = shift as u32;
        let (lo, hi) = match shift {
            0 => (mant, 0),
            1..=127 => (mant << shift, mant >> (128 - shift)),
            _ => (0, mant << (shift - 128)),
        };
        if bits >> 63 == 0 {
            self.add_window(lo, hi);
        } else {
            let (wl, wh) = self.halves();
            let (diff, borrow) = wl.overflowing_sub(lo);
            self.set_halves(diff, wh.wrapping_sub(hi).wrapping_sub(borrow as u128));
        }
    }

    #[inline]
    fn add_window(&mut self, lo: u128, hi: u128) {
        let (wl, wh) = self.halves();
        let (sum, carry) = wl.overflowing_add(lo);
        self.set_halves(sum, wh.wrapping_add(hi).wrapping_add(carry as u128));
    }

    fn add_outside(&mut self, x: f64) {
        if x.is_nan() {
            self.nan = true;
        } else if x == f64::INFINITY {
            self.pos_inf = true;
        } else if x == f64::NEG_INFINITY {
            self.neg_inf = true;
        } else if x == 0.0 {
            if x.is_sign_negative() {
                self.neg_zero = true;
            } else {
                self.not_neg_zero = true;
            }
        } else {
            self.not_neg_zero = true;
            self.grow_outside(x);
        }
    }

    fn grow_outside(&mut self, x: f64) {
        let mut partials = std::mem::take(&mut self.outside).into_vec();
        let grown = grow(&mut partials, x);
        self.outside = partials.into_boxed_slice();
        if let Err(top) = grown {
            if top.is_nan() {
                self.nan = true;
            } else if top > 0.0 {
                self.pos_inf = true;
            } else {
                self.neg_inf = true;
            }
        }
    }

    fn merge(&mut self, other: &ExactSum) {
        let (lo, hi) = other.halves();
        self.add_window(lo, hi);
        self.neg_zero |= other.neg_zero;
        self.not_neg_zero |= other.not_neg_zero;
        self.pos_inf |= other.pos_inf;
        self.neg_inf |= other.neg_inf;
        self.nan |= other.nan;
        for &p in other.outside.iter() {
            self.grow_outside(p);
        }
    }

    /// Correctly-rounded value of the exact sum. Depends only on the
    /// multiset of inputs, not the order they were added or merged in.
    fn value(&self) -> f64 {
        if self.nan || (self.pos_inf && self.neg_inf) {
            return f64::NAN;
        }
        if self.pos_inf {
            return f64::INFINITY;
        }
        if self.neg_inf {
            return f64::NEG_INFINITY;
        }
        // The window integer as exactly representable 53-bit pieces,
        // smallest first: a non-overlapping expansion of its own.
        let mut pieces = [0.0f64; 5];
        let mut n = 0;
        let (mut lo, mut hi) = self.halves();
        let negative = (hi as i128) < 0;
        if negative {
            let (l, carry) = (!lo).overflowing_add(1);
            lo = l;
            hi = (!hi).wrapping_add(carry as u128);
        }
        while lo != 0 || hi != 0 {
            let low = if lo != 0 {
                lo.trailing_zeros()
            } else {
                128 + hi.trailing_zeros()
            };
            let chunk = match low {
                0..=127 => (lo >> low) | hi.checked_shl(128 - low).unwrap_or(0),
                _ => hi >> (low - 128),
            } as u64
                & ((1 << 53) - 1);
            let c = chunk as u128;
            match low {
                0..=127 => {
                    let (l, borrow) = lo.overflowing_sub(c << low);
                    lo = l;
                    hi = hi.wrapping_sub(c.checked_shr(128 - low).unwrap_or(0) + borrow as u128);
                }
                _ => hi -= c << (low - 128),
            }
            // 2^(low + WINDOW_LSB) lies in [2^-128, 2^127]: a normal f64.
            let scale = f64::from_bits(((low as i64 + WINDOW_LSB as i64 + 1023) as u64) << 52);
            let piece = chunk as f64 * scale;
            pieces[n] = if negative { -piece } else { piece };
            n += 1;
        }
        let total = if self.outside.is_empty() {
            round_expansion(&pieces[..n])
        } else {
            let mut all = self.outside.to_vec();
            for &p in &pieces[..n] {
                if let Err(top) = grow(&mut all, p) {
                    return top;
                }
            }
            round_expansion(&all)
        };
        if total == 0.0 && self.neg_zero && !self.not_neg_zero {
            -0.0
        } else if total == 0.0 {
            0.0
        } else {
            total
        }
    }
}

/// Mergeable aggregation state sufficient for every [`AggFunc`].
///
/// Equality compares *observable* state — count, the rounded sum, min, max
/// — not the internal expansion, so two accumulators that consumed the same
/// multiset of values through different partitions compare equal (and NaN
/// sums compare equal to NaN sums, which the equivalence suites rely on).
#[derive(Debug, Clone)]
pub struct Accumulator {
    /// Number of non-NULL values observed.
    pub count: u64,
    /// Exact sum of observed values.
    sum: ExactSum,
    /// Minimum observed value (`+inf` when empty).
    pub min: f64,
    /// Maximum observed value (`-inf` when empty).
    pub max: f64,
}

impl Default for Accumulator {
    fn default() -> Self {
        Accumulator {
            count: 0,
            sum: ExactSum::default(),
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl PartialEq for Accumulator {
    fn eq(&self, other: &Self) -> bool {
        let sum_eq = {
            let (a, b) = (self.sum.value(), other.sum.value());
            a == b || (a.is_nan() && b.is_nan())
        };
        self.count == other.count && sum_eq && self.min == other.min && self.max == other.max
    }
}

impl Accumulator {
    /// Fresh empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one measure value (`None` = NULL, ignored per SQL semantics).
    #[inline]
    pub fn update(&mut self, value: Option<f64>) {
        if let Some(x) = value {
            self.count += 1;
            self.sum.add(x);
            if x < self.min {
                self.min = x;
            }
            if x > self.max {
                self.max = x;
            }
        }
    }

    /// Merges another accumulator into this one (for rollups, cross-phase
    /// merging, and morsel-partial folding). Exact: the merged state equals
    /// the state of a single accumulator fed both input multisets, in any
    /// order.
    pub fn merge(&mut self, other: &Accumulator) {
        self.count += other.count;
        self.sum.merge(&other.sum);
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// True if no value has been observed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The correctly-rounded sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.sum.value()
    }

    /// Finalizes the accumulator under `func`. Returns `None` when the
    /// group saw no values and the function has no defined result
    /// (AVG/MIN/MAX of an empty set); `COUNT` and `SUM` of an empty set are
    /// 0, per SQL-on-groups semantics.
    pub fn finish(&self, func: AggFunc) -> Option<f64> {
        match func {
            AggFunc::Count => Some(self.count as f64),
            AggFunc::Sum => Some(self.sum.value()),
            AggFunc::Avg => {
                if self.count == 0 {
                    None
                } else {
                    Some(self.sum.value() / self.count as f64)
                }
            }
            AggFunc::Min => self
                .is_empty()
                .then_some(())
                .map_or(Some(self.min), |_| None),
            AggFunc::Max => self
                .is_empty()
                .then_some(())
                .map_or(Some(self.max), |_| None),
        }
    }
}

/// Calls `f(i)` for every set bit `i` of a selection bitmap's words, in
/// ascending order.
#[inline(always)]
fn for_each_bit(words: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let i = (w << 6) | bits.trailing_zeros() as usize;
            bits &= bits - 1;
            f(i);
        }
    }
}

/// The aggregation kernel's state for one aggregate on one side (target or
/// reference): struct-of-arrays over dense group slots, holding only what
/// the function needs. Every function keeps a non-NULL count (it decides
/// whether AVG/MIN/MAX are defined); SUM and AVG add an exact sum, MIN and
/// MAX a running extremum.
#[derive(Debug, Clone)]
pub(crate) struct AggColumn {
    func: AggFunc,
    counts: Vec<u64>,
    sums: Vec<ExactSum>,
    extrema: Vec<f64>,
}

impl AggColumn {
    pub(crate) fn new(func: AggFunc) -> Self {
        AggColumn {
            func,
            counts: Vec::new(),
            sums: Vec::new(),
            extrema: Vec::new(),
        }
    }

    /// Appends one empty group slot.
    pub(crate) fn push_slot(&mut self) {
        self.counts.push(0);
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => self.sums.push(ExactSum::default()),
            AggFunc::Min => self.extrema.push(f64::INFINITY),
            AggFunc::Max => self.extrema.push(f64::NEG_INFINITY),
        }
    }

    /// Feeds row `i`'s value into slot `slots[i]` for every row selected
    /// in `selection` (bitmap words). `value(i)` is `None` for NULL, which
    /// is skipped; callers pass a dense typed slice's `Some(v[i])` on the
    /// hot path, which the optimizer reduces to a plain load.
    #[inline]
    pub(crate) fn update(
        &mut self,
        selection: &[u64],
        slots: &[u32],
        value: impl Fn(usize) -> Option<f64>,
    ) {
        let counts = &mut self.counts;
        match self.func {
            AggFunc::Count => for_each_bit(selection, |i| {
                if value(i).is_some() {
                    counts[slots[i] as usize] += 1;
                }
            }),
            AggFunc::Sum | AggFunc::Avg => {
                let sums = &mut self.sums;
                for_each_bit(selection, |i| {
                    if let Some(x) = value(i) {
                        let s = slots[i] as usize;
                        counts[s] += 1;
                        sums[s].add(x);
                    }
                })
            }
            AggFunc::Min => {
                let mins = &mut self.extrema;
                for_each_bit(selection, |i| {
                    if let Some(x) = value(i) {
                        let s = slots[i] as usize;
                        counts[s] += 1;
                        if x < mins[s] {
                            mins[s] = x;
                        }
                    }
                })
            }
            AggFunc::Max => {
                let maxs = &mut self.extrema;
                for_each_bit(selection, |i| {
                    if let Some(x) = value(i) {
                        let s = slots[i] as usize;
                        counts[s] += 1;
                        if x > maxs[s] {
                            maxs[s] = x;
                        }
                    }
                })
            }
        }
    }

    /// Folds `other`'s slot `src` into this column's slot `dst` (exact,
    /// like [`Accumulator::merge`]).
    pub(crate) fn merge_slot(&mut self, dst: usize, other: &AggColumn, src: usize) {
        self.counts[dst] += other.counts[src];
        let x = other.extrema.get(src).copied();
        match (self.func, x) {
            (AggFunc::Sum | AggFunc::Avg, _) => self.sums[dst].merge(&other.sums[src]),
            (AggFunc::Min, Some(x)) if x < self.extrema[dst] => self.extrema[dst] = x,
            (AggFunc::Max, Some(x)) if x > self.extrema[dst] => self.extrema[dst] = x,
            _ => {}
        }
    }

    /// Slot `s` as a standalone [`Accumulator`], carrying the state this
    /// column keeps; fields the function does not need stay empty.
    pub(crate) fn accumulator(&self, s: usize) -> Accumulator {
        let mut acc = Accumulator {
            count: self.counts[s],
            ..Accumulator::default()
        };
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => acc.sum = self.sums[s].clone(),
            AggFunc::Min => acc.min = self.extrema[s],
            AggFunc::Max => acc.max = self.extrema[s],
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_sum_matches_the_reference_across_the_window_edges() {
        // Values inside, at and beyond both window edges, plus zeros of
        // both signs, subnormals and exact cancellations, mixed by a
        // fixed LCG: the sum — whole or split-and-merged — must round to
        // the naive reference's msum bits.
        let pool = [
            0.0,
            -0.0,
            1e-300,
            -5e-324,
            f64::MIN_POSITIVE,
            2f64.powi(-128),
            -(2f64.powi(-76) * 1.5),
            2f64.powi(-75) * 1.5,
            0.1,
            -0.1,
            1_400.123_456_789,
            -2.5,
            3.0e19,
            -3.6e19,
            3.7e19,
            2f64.powi(65),
            -1e30,
            1e300,
        ];
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state
        };
        let sum = |xs: &[f64]| {
            let mut s = ExactSum::default();
            xs.iter().for_each(|&x| s.add(x));
            s
        };
        for trial in 0..400 {
            let len = 1 + (next() % 40) as usize;
            let values: Vec<f64> = (0..len)
                .map(|_| {
                    let r = next();
                    if r % 3 == 0 {
                        // A full-precision value at a random exponent.
                        let exp = (r >> 8) % 200;
                        let mant = f64::from_bits((r >> 12) | 0x3ff0_0000_0000_0000);
                        let v = mant * 2f64.powi(exp as i32 - 100);
                        if r & 1 == 0 {
                            v
                        } else {
                            -v
                        }
                    } else {
                        pool[(r >> 5) as usize % pool.len()]
                    }
                })
                .collect();
            let want = crate::naive::exact_sum(&values).to_bits();
            assert_eq!(sum(&values).value().to_bits(), want, "trial {trial}");
            let split = (next() as usize) % (len + 1);
            let mut right = sum(&values[split..]);
            right.merge(&sum(&values[..split]));
            assert_eq!(right.value().to_bits(), want, "trial {trial} split");
        }
        // Signed zeros and exact cancellation round like IEEE summation.
        assert_eq!(sum(&[-0.0, -0.0]).value().to_bits(), (-0.0f64).to_bits());
        assert_eq!(sum(&[5.0, -5.0]).value().to_bits(), 0.0f64.to_bits());
        assert_eq!(sum(&[-0.0, 2.5, -2.5]).value().to_bits(), 0.0f64.to_bits());
        assert_eq!(sum(&[]).value().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn accumulator_stays_within_its_cached_footprint() {
        // Cached per-view partials hold one accumulator per group and side;
        // the window sum must not make them larger than the 80 bytes an
        // expansion-only accumulator took.
        assert!(std::mem::size_of::<Accumulator>() <= 80);
    }

    #[test]
    fn empty_accumulator_semantics() {
        let a = Accumulator::new();
        assert_eq!(a.finish(AggFunc::Count), Some(0.0));
        assert_eq!(a.finish(AggFunc::Sum), Some(0.0));
        assert_eq!(a.finish(AggFunc::Avg), None);
        assert_eq!(a.finish(AggFunc::Min), None);
        assert_eq!(a.finish(AggFunc::Max), None);
    }

    #[test]
    fn updates_feed_all_functions() {
        let mut a = Accumulator::new();
        for x in [3.0, -1.0, 4.0] {
            a.update(Some(x));
        }
        a.update(None); // NULL ignored
        assert_eq!(a.finish(AggFunc::Count), Some(3.0));
        assert_eq!(a.finish(AggFunc::Sum), Some(6.0));
        assert_eq!(a.finish(AggFunc::Avg), Some(2.0));
        assert_eq!(a.finish(AggFunc::Min), Some(-1.0));
        assert_eq!(a.finish(AggFunc::Max), Some(4.0));
    }

    #[test]
    fn merge_equals_sequential_updates() {
        let values = [1.0, 2.0, 3.0, 4.0, 5.0];
        let mut whole = Accumulator::new();
        for x in values {
            whole.update(Some(x));
        }
        let mut left = Accumulator::new();
        let mut right = Accumulator::new();
        for x in &values[..2] {
            left.update(Some(*x));
        }
        for x in &values[2..] {
            right.update(Some(*x));
        }
        left.merge(&right);
        for f in AggFunc::ALL {
            assert_eq!(whole.finish(f), left.finish(f), "merge broke {f}");
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Accumulator::new();
        a.update(Some(7.0));
        let before = a.clone();
        a.merge(&Accumulator::new());
        assert_eq!(a, before);

        let mut empty = Accumulator::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn summation_is_bit_identical_across_partitions() {
        // Values chosen so naive left-to-right f64 addition differs by ULPs
        // from the re-associated (partitioned-and-merged) addition; the
        // exact accumulator must agree bitwise under every partitioning.
        let values: Vec<f64> = (0..257)
            .map(|i| {
                let x = (i as f64) * 0.1 - 11.7;
                x * (1.0 + (i % 13) as f64 * 1e-13)
            })
            .collect();
        // Sanity: the naive sums genuinely disagree, so this test has teeth.
        let naive_whole: f64 = values.iter().sum();
        let naive_split = values[..100].iter().sum::<f64>() + values[100..].iter().sum::<f64>();
        assert_ne!(naive_whole.to_bits(), naive_split.to_bits());

        let mut serial = Accumulator::new();
        for &x in &values {
            serial.update(Some(x));
        }
        for split_at in [1, 7, 100, 256] {
            let mut left = Accumulator::new();
            let mut right = Accumulator::new();
            for &x in &values[..split_at] {
                left.update(Some(x));
            }
            for &x in &values[split_at..] {
                right.update(Some(x));
            }
            left.merge(&right);
            assert_eq!(
                serial.finish(AggFunc::Sum).unwrap().to_bits(),
                left.finish(AggFunc::Sum).unwrap().to_bits(),
                "split at {split_at}"
            );
            assert_eq!(
                serial.finish(AggFunc::Avg).unwrap().to_bits(),
                left.finish(AggFunc::Avg).unwrap().to_bits(),
                "avg split at {split_at}"
            );
        }
        // Merge in the reverse order too: order must not matter.
        let mut left = Accumulator::new();
        let mut right = Accumulator::new();
        for &x in &values[..100] {
            left.update(Some(x));
        }
        for &x in &values[100..] {
            right.update(Some(x));
        }
        right.merge(&left);
        assert_eq!(
            serial.finish(AggFunc::Sum).unwrap().to_bits(),
            right.finish(AggFunc::Sum).unwrap().to_bits()
        );
    }

    #[test]
    fn non_finite_inputs_are_order_invariant() {
        let feed = |values: &[f64]| {
            let mut a = Accumulator::new();
            for &x in values {
                a.update(Some(x));
            }
            a.finish(AggFunc::Sum).unwrap()
        };
        // One-sided infinity saturates regardless of position.
        assert_eq!(feed(&[1.0, f64::INFINITY, 2.0]), f64::INFINITY);
        assert_eq!(feed(&[f64::INFINITY, 1.0, 2.0]), f64::INFINITY);
        assert_eq!(feed(&[1.0, f64::NEG_INFINITY]), f64::NEG_INFINITY);
        // Both infinities (or any NaN) poison the sum, in any order.
        assert!(feed(&[f64::INFINITY, f64::NEG_INFINITY, 1.0]).is_nan());
        assert!(feed(&[1.0, f64::NEG_INFINITY, f64::INFINITY]).is_nan());
        assert!(feed(&[f64::NAN, 1.0]).is_nan());
        // Merging non-finite partials behaves identically.
        let mut a = Accumulator::new();
        a.update(Some(f64::INFINITY));
        let mut b = Accumulator::new();
        b.update(Some(f64::NEG_INFINITY));
        a.merge(&b);
        assert!(a.finish(AggFunc::Sum).unwrap().is_nan());
        // Min/max ignore nothing: infinities participate normally.
        assert_eq!(a.finish(AggFunc::Min), Some(f64::NEG_INFINITY));
        assert_eq!(a.finish(AggFunc::Max), Some(f64::INFINITY));
    }

    #[test]
    fn intermediate_overflow_saturates_like_ieee_summation() {
        // Σ|xᵢ| exceeds the f64 range, so the exactness contract no longer
        // applies; the sum must saturate to ±∞ exactly as naive IEEE
        // addition would — never surface a NaN from the overflowing
        // TwoSum's residuals.
        let mut a = Accumulator::new();
        for x in [1e308, 1e308, -1e308] {
            a.update(Some(x));
        }
        assert_eq!(a.finish(AggFunc::Sum), Some(f64::INFINITY)); // == naive
                                                                 // Continues to behave after saturation; min/max/count unaffected.
        a.update(Some(5.0));
        assert_eq!(a.finish(AggFunc::Sum), Some(f64::INFINITY));
        assert_eq!(a.count, 4);
        assert_eq!(a.finish(AggFunc::Min), Some(-1e308));

        // Negative direction saturates to −∞.
        let mut b = Accumulator::new();
        for x in [-1e308, -1e308] {
            b.update(Some(x));
        }
        assert_eq!(b.finish(AggFunc::Sum), Some(f64::NEG_INFINITY));

        // Overflow in both directions poisons to NaN, like inf + -inf.
        b.merge(&a);
        assert!(b.finish(AggFunc::Sum).unwrap().is_nan());

        // Deeper expansions overflow safely too (spill + general paths).
        let mut c = Accumulator::new();
        for i in 0..64 {
            c.update(Some(1e300 * (1.0 + (i % 9) as f64 * 1e-13)));
            c.update(Some(1e30 + i as f64));
            c.update(Some(f64::MAX / 4.0));
        }
        assert_eq!(c.finish(AggFunc::Sum), Some(f64::INFINITY));
    }

    #[test]
    fn agg_func_parse_round_trip() {
        for f in AggFunc::ALL {
            assert_eq!(f.name().parse::<AggFunc>().unwrap(), f);
            assert_eq!(f.name().to_lowercase().parse::<AggFunc>().unwrap(), f);
        }
        assert!("MEDIAN".parse::<AggFunc>().is_err());
    }
}
