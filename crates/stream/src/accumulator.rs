//! Mergeable per-shard accumulation state for every report shape.
//!
//! A streaming server never stores reports; each arriving report is folded
//! into an accumulator immediately. [`ShapedAccumulator`] is that state:
//! per-bucket integer counts (a core [`CountAccumulator`]) plus the
//! [`ReportShape`] the counts are folded under. Accumulation is per-shard
//! local state (`Send`), shards [`ShapedAccumulator::merge_from`] exactly
//! (integer counts — no floating point, no order dependence), and a frozen
//! [`AccumulatorSnapshot`] of the merged state feeds the incremental oracle
//! path ([`idldp_core::mechanism::FrequencyOracle::estimate_from`]).
//!
//! Reports arrive as [`Report`] in any of the four wire shapes, and the
//! accumulator is picked from
//! [`idldp_core::mechanism::Mechanism::report_shape`], so servers stay free
//! of per-mechanism `match`es. Every shape folds through the core fold
//! table ([`Report::fold_into`]):
//!
//! * [`ReportShape::Bits`] — 0/1 bit vectors, the shape of the
//!   unary-encoding family (UE/RAPPOR/OUE, IDUE, and the PS-extended
//!   IDUE-PS/PS over `m + ℓ` buckets).
//! * [`ReportShape::Value`] — a single value in `0..report_len`: GRR's
//!   value reports and the one-hot rows of a
//!   [`idldp_core::matrix_mech::PerturbationMatrix`] mechanism.
//! * [`ReportShape::Hashed`] — OLH-style `(seed, value)` reports, folded
//!   over the item domain through the shared
//!   [`idldp_core::report::hash_bucket`] — the *server half* of the hash
//!   protocol, so client and server agree on the mapping by construction.
//! * [`ReportShape::ItemSet`] — subset-selection reports: a small set of
//!   distinct items, each incrementing its own bucket.
//!
//! Every shape also accepts the report's *folded* bit-vector form
//! ([`Report::Bits`]), which is what
//! [`idldp_core::mechanism::Mechanism::perturb_into`] writes — so streams
//! and batch pipelines interoperate with either representation and the
//! counts are identical by the fold laws tested in `idldp-core`. A
//! value-shaped accumulator takes only one-hot bit vectors.

use idldp_core::error::{Error, Result};
use idldp_core::fold::{pack_bits_row, packed_words, BitPlanes};
use idldp_core::mechanism::{CountAccumulator, Mechanism};
use idldp_core::report::ReportShape;
use idldp_core::snapshot::AccumulatorSnapshot;

pub use idldp_core::report::Report;

fn check_width(what: &str, expected: usize, actual: usize) -> Result<()> {
    if expected != actual {
        return Err(Error::DimensionMismatch {
            what: what.into(),
            expected,
            actual,
        });
    }
    Ok(())
}

/// The hot index of a one-hot bit vector of width `m`.
fn hot_index(bits: &[u8], m: usize) -> Result<usize> {
    check_width("one-hot report", m, bits.len())?;
    let mut hot = None;
    for (i, &b) in bits.iter().enumerate() {
        match (b, hot) {
            (0, _) => {}
            (1, None) => hot = Some(i),
            _ => {
                return Err(Error::ParameterOrdering {
                    detail: "categorical report must be one-hot (one bit set)".into(),
                })
            }
        }
    }
    hot.ok_or_else(|| Error::ParameterOrdering {
        detail: "categorical report must be one-hot (one bit set)".into(),
    })
}

/// Mergeable, shard-local count state for one [`ReportShape`].
///
/// Satisfies the *exact-merge law*: for any partition of a report multiset
/// across accumulators and any merge tree over them, the merged counts
/// equal those of a single accumulator fed every report sequentially.
/// (Counts are integers; the property test suite checks this for streams
/// generated by all eight mechanisms, in every wire shape.)
///
/// # Examples
/// ```
/// use idldp_core::report::ReportShape;
/// use idldp_stream::{Report, ShapedAccumulator};
///
/// let mut shard_a = ShapedAccumulator::for_shape(ReportShape::Bits, 3);
/// let mut shard_b = ShapedAccumulator::for_shape(ReportShape::Bits, 3);
/// shard_a.accumulate(Report::Bits(&[1, 0, 1])).unwrap();
/// shard_b.accumulate(Report::Bits(&[0, 1, 1])).unwrap();
///
/// // Shards merge exactly, regardless of how reports were distributed.
/// shard_a.merge_from(&shard_b).unwrap();
/// let snapshot = shard_a.snapshot();
/// assert_eq!(snapshot.counts(), &[1, 1, 2]);
/// assert_eq!(snapshot.num_users(), 2);
///
/// // Picked from a mechanism, it ingests that mechanism's wire shape.
/// use idldp_core::budget::Epsilon;
/// use idldp_core::olh::OptimalLocalHashing;
/// let olh = OptimalLocalHashing::new(Epsilon::new(1.0).unwrap(), 16).unwrap();
/// let mut acc = ShapedAccumulator::for_mechanism(&olh);
/// acc.accumulate(Report::Hashed { seed: 7, value: 1 }).unwrap();
/// assert_eq!(acc.num_users(), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShapedAccumulator {
    shape: ReportShape,
    inner: CountAccumulator,
}

impl ShapedAccumulator {
    /// An empty accumulator for `shape` over `report_len` buckets.
    ///
    /// A pinned [`ReportShape::ItemSet`] cardinality carries through: the
    /// accumulator then refuses wrong-sized sets — a wrong-sized set folds
    /// cleanly but biases the subset-selection estimator's
    /// `(p, (k - p) / (m - 1))` calibration, so it is rejected at the door.
    ///
    /// # Panics
    /// Panics if `report_len == 0`, a hashed shape has `range < 2`, or an
    /// item-set shape has `k >= report_len`.
    pub fn for_shape(shape: ReportShape, report_len: usize) -> Self {
        assert!(report_len > 0, "report width must be positive");
        match shape {
            ReportShape::Hashed { range } => {
                assert!(range >= 2, "hash range must have at least two buckets")
            }
            ReportShape::ItemSet { k } => assert!(
                k < report_len,
                "pinned cardinality must leave room for exclusion (k < m)"
            ),
            ReportShape::Bits | ReportShape::Value => {}
        }
        Self {
            shape,
            inner: CountAccumulator::new(report_len),
        }
    }

    /// The accumulator matching a mechanism's declared shape and width.
    pub fn for_mechanism(mechanism: &dyn Mechanism) -> Self {
        Self::for_shape(mechanism.report_shape(), mechanism.report_len())
    }

    /// The shape this accumulator ingests.
    pub fn shape(&self) -> ReportShape {
        self.shape
    }

    /// Width of the folded count state (the mechanism's
    /// [`Mechanism::report_len`]).
    pub fn report_len(&self) -> usize {
        self.inner.counts().len()
    }

    /// Number of reports absorbed so far.
    pub fn num_users(&self) -> u64 {
        self.inner.num_users()
    }

    /// The typed refusal of a report variant this shape does not take.
    fn wrong_shape(&self, got: &Report<'_>) -> Error {
        Error::DimensionMismatch {
            what: format!(
                "report shape ({} accumulator got a {} report)",
                self.shape.label(),
                got.shape_label()
            ),
            expected: self.report_len(),
            actual: 0,
        }
    }

    /// Refuses a report that is neither this shape's native variant nor a
    /// folded bit vector.
    fn check_variant(&self, report: &Report<'_>) -> Result<()> {
        if matches!(report, Report::Bits(_)) || self.shape.is_native(report) {
            Ok(())
        } else {
            Err(self.wrong_shape(report))
        }
    }

    /// Folds one report into the state, through the core fold table
    /// ([`Report::fold_into`]) — the same validation as a batch.
    ///
    /// # Errors
    /// Returns an error if the report has the wrong width, the wrong shape
    /// for this accumulator, a non-0/1 slot, or an out-of-range value;
    /// nothing is counted on failure.
    pub fn accumulate(&mut self, report: Report<'_>) -> Result<()> {
        self.check_variant(&report)?;
        match (self.shape, report) {
            (ReportShape::Value, Report::Bits(bits)) => {
                let hot = hot_index(bits, self.report_len())?;
                self.inner.fold_report(Report::Value(hot), 0)
            }
            _ => self.inner.fold_report(report, self.shape.param()),
        }
    }

    /// Folds a whole batch of reports (one `Reports` frame, one stream
    /// chunk) in a single call, so servers pay one lock acquisition and
    /// one fold per frame instead of per-report round trips.
    ///
    /// Atomic *validate-all-then-fold*: a batch containing any invalid
    /// report counts nothing, which is what the transport server relies on
    /// to reject a hostile mixed frame without a partial fold. Counts after
    /// a successful call are bit-identical to sequential
    /// [`Self::accumulate`] of the same reports (the batched fold engine in
    /// [`idldp_core::fold`] is pure integer arithmetic) — the stream
    /// property suite asserts this for every shape and every batch split.
    ///
    /// # Errors
    /// Returns the first report's validation error.
    pub fn accumulate_batch(&mut self, reports: &[Report<'_>]) -> Result<()> {
        match self.shape {
            ReportShape::Bits => self.fold_bits(reports),
            ReportShape::Value => self.fold_values(reports),
            ReportShape::Hashed { .. } => self.fold_hashed(reports),
            ReportShape::ItemSet { .. } => self.fold_item_sets(reports),
        }
    }

    /// Word-packed bit batch: each report is packed 64 slots per `u64`
    /// (packing doubles as the 0/1 validation) and carry-save-added into
    /// SWAR bit-planes, spilling into a staged buffer that only commits
    /// once the whole batch has validated.
    fn fold_bits(&mut self, reports: &[Report<'_>]) -> Result<()> {
        let m = self.report_len();
        let mut planes = BitPlanes::new(m);
        let mut staged = vec![0u64; m];
        let mut row = vec![0u64; packed_words(m)];
        for report in reports {
            let Report::Bits(bits) = report else {
                return Err(self.wrong_shape(report));
            };
            check_width("accumulated report width", m, bits.len())?;
            pack_bits_row(bits, &mut row)?;
            planes.add_row(&row, &mut staged);
        }
        planes.spill_into(&mut staged);
        for (c, &s) in self.inner.counts_mut().iter_mut().zip(&staged) {
            *c += s;
        }
        self.inner.add_users(reports.len() as u64);
        Ok(())
    }

    /// Value batch: resolves every report to its hot index first (the
    /// all-or-nothing validation pass), then applies the increments.
    fn fold_values(&mut self, reports: &[Report<'_>]) -> Result<()> {
        let m = self.report_len();
        let mut values = Vec::with_capacity(reports.len());
        for report in reports {
            let value = match *report {
                Report::Value(v) if v < m => v,
                Report::Value(v) => {
                    return Err(Error::IndexOutOfRange {
                        what: "categorical report value".into(),
                        index: v,
                        bound: m,
                    })
                }
                Report::Bits(bits) => hot_index(bits, m)?,
                ref other => return Err(self.wrong_shape(other)),
            };
            values.push(value);
        }
        for value in values {
            self.inner.add_bit(value);
        }
        self.inner.add_users(reports.len() as u64);
        Ok(())
    }

    /// Hashed batch: validates every report first, then folds each one
    /// through the same [`CountAccumulator::fold_report`] as
    /// [`Self::accumulate`].
    fn fold_hashed(&mut self, reports: &[Report<'_>]) -> Result<()> {
        let (m, range) = (self.report_len(), self.shape.param());
        for report in reports {
            self.check_variant(report)?;
            report.validate(m, range)?;
        }
        for report in reports {
            self.inner
                .fold_report(*report, range)
                .expect("report validated in the first pass");
        }
        Ok(())
    }

    /// Item-set batch: validates every report (width, domain,
    /// distinctness, pinned cardinality) before any bucket moves, then
    /// applies the member increments.
    ///
    /// Distinctness is checked against an epoch-stamped scratch row shared
    /// by the whole batch, replacing the per-report sort-and-scan of
    /// [`Report::validate`] with one `O(k)` pass and no per-report
    /// allocation — the same errors, amortized over the batch.
    fn fold_item_sets(&mut self, reports: &[Report<'_>]) -> Result<()> {
        let (m, k) = (self.report_len(), self.shape.param());
        let mut stamp = vec![0u32; m];
        let mut epoch = 0u32;
        for report in reports {
            let items = match report {
                Report::ItemSet(items) => *items,
                Report::Bits(_) => {
                    report.validate(m, k)?;
                    continue;
                }
                other => return Err(self.wrong_shape(other)),
            };
            if items.is_empty() {
                return Err(Error::Empty {
                    what: "item-set report".into(),
                });
            }
            if k > 0 && items.len() != k {
                return Err(Error::DimensionMismatch {
                    what: "item-set report cardinality".into(),
                    expected: k,
                    actual: items.len(),
                });
            }
            epoch += 1;
            for &item in items {
                if item >= m {
                    return Err(Error::IndexOutOfRange {
                        what: "item-set report member".into(),
                        index: item,
                        bound: m,
                    });
                }
                if stamp[item] == epoch {
                    return Err(Error::ParameterOrdering {
                        detail: format!("item-set report repeats item {item}"),
                    });
                }
                stamp[item] = epoch;
            }
        }
        let counts = self.inner.counts_mut();
        for report in reports {
            match *report {
                Report::ItemSet(items) => {
                    for &item in items {
                        counts[item] += 1;
                    }
                }
                Report::Bits(bits) => {
                    for (c, &bit) in counts.iter_mut().zip(bits) {
                        *c += u64::from(bit);
                    }
                }
                _ => unreachable!("shapes checked in the validation pass"),
            }
        }
        self.inner.add_users(reports.len() as u64);
        Ok(())
    }

    /// Adds another accumulator's state (the shard-merge step).
    ///
    /// # Errors
    /// Returns an error if the shapes, widths, hash ranges or pinned
    /// cardinalities differ — the folds would disagree.
    pub fn merge_from(&mut self, other: &Self) -> Result<()> {
        if std::mem::discriminant(&self.shape) != std::mem::discriminant(&other.shape) {
            return Err(Error::ParameterOrdering {
                detail: format!(
                    "cannot merge accumulators of different shapes ({:?} vs {:?})",
                    self.shape, other.shape
                ),
            });
        }
        check_width(
            "accumulator shape parameter",
            self.shape.param(),
            other.shape.param(),
        )?;
        self.absorb(&other.inner)
    }

    /// Adds pre-folded counts (the batch pipeline's per-chunk
    /// [`CountAccumulator`]) in one step.
    ///
    /// # Errors
    /// Returns an error if the widths differ.
    pub fn absorb(&mut self, counts: &CountAccumulator) -> Result<()> {
        check_width(
            "accumulator merge width",
            self.report_len(),
            counts.counts().len(),
        )?;
        self.inner.merge(counts);
        Ok(())
    }

    /// Freezes the current counts into a snapshot for estimation or
    /// checkpointing.
    pub fn snapshot(&self) -> AccumulatorSnapshot {
        self.inner.snapshot()
    }

    /// Adds this accumulator's per-bucket counts into `out` and returns
    /// its user count — the allocation-free half of [`Self::snapshot`].
    /// A caller merging many shards sums them all into one preallocated
    /// buffer in a single pass instead of allocating an intermediate
    /// snapshot per shard and merging pairwise.
    ///
    /// # Panics
    /// Panics if `out.len() != self.report_len()`.
    pub fn add_counts_into(&self, out: &mut [u64]) -> u64 {
        assert_eq!(out.len(), self.report_len(), "count buffer width mismatch");
        for (o, &c) in out.iter_mut().zip(self.inner.counts()) {
            *o += c;
        }
        self.inner.num_users()
    }

    /// Replaces the state with checkpointed counts (restart recovery).
    ///
    /// # Errors
    /// Returns an error if the snapshot width differs from
    /// [`Self::report_len`].
    pub fn restore(&mut self, snapshot: &AccumulatorSnapshot) -> Result<()> {
        check_width(
            "restored snapshot width",
            self.report_len(),
            snapshot.report_len(),
        )?;
        self.inner = CountAccumulator::from_snapshot(snapshot);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idldp_core::report::{hash_bucket, ReportData};

    fn bits(m: usize) -> ShapedAccumulator {
        ShapedAccumulator::for_shape(ReportShape::Bits, m)
    }

    fn values(m: usize) -> ShapedAccumulator {
        ShapedAccumulator::for_shape(ReportShape::Value, m)
    }

    fn hashed(m: usize, range: usize) -> ShapedAccumulator {
        ShapedAccumulator::for_shape(ReportShape::Hashed { range }, m)
    }

    fn sets(m: usize, k: usize) -> ShapedAccumulator {
        ShapedAccumulator::for_shape(ReportShape::ItemSet { k }, m)
    }

    #[test]
    fn bit_accumulator_counts_and_merges() {
        let mut a = bits(3);
        let mut b = bits(3);
        let mut seq = bits(3);
        let reports: [[u8; 3]; 4] = [[1, 0, 1], [0, 1, 1], [1, 1, 0], [0, 0, 1]];
        for (i, r) in reports.iter().enumerate() {
            let target = if i % 2 == 0 { &mut a } else { &mut b };
            target.accumulate(Report::Bits(r)).unwrap();
            seq.accumulate(Report::Bits(r)).unwrap();
        }
        a.merge_from(&b).unwrap();
        assert_eq!(a.snapshot(), seq.snapshot());
        assert_eq!(a.num_users(), 4);
        assert_eq!(a.snapshot().counts(), &[2, 2, 3]);
    }

    #[test]
    fn bit_accumulator_rejects_bad_shapes() {
        let mut a = bits(3);
        assert!(a.accumulate(Report::Bits(&[1, 0])).is_err());
        assert!(a.accumulate(Report::Value(1)).is_err());
        assert!(a.accumulate(Report::Hashed { seed: 1, value: 0 }).is_err());
        assert!(a.accumulate(Report::ItemSet(&[0])).is_err());
        let b = bits(4);
        assert!(a.merge_from(&b).is_err());
        assert_eq!(a.num_users(), 0, "failed accumulations count nothing");
    }

    #[test]
    fn one_hot_accumulator_accepts_both_shapes() {
        let mut a = values(4);
        a.accumulate(Report::Value(2)).unwrap();
        a.accumulate(Report::Bits(&[0, 0, 1, 0])).unwrap();
        a.accumulate(Report::Bits(&[1, 0, 0, 0])).unwrap();
        let snap = a.snapshot();
        assert_eq!(snap.counts(), &[1, 0, 2, 0]);
        assert_eq!(snap.num_users(), 3);
    }

    #[test]
    fn one_hot_accumulator_rejects_invalid() {
        let mut a = values(3);
        assert!(a.accumulate(Report::Value(3)).is_err());
        assert!(a.accumulate(Report::Bits(&[0, 0, 0])).is_err());
        assert!(a.accumulate(Report::Bits(&[1, 1, 0])).is_err());
        assert!(a.accumulate(Report::Bits(&[1, 0])).is_err());
        assert!(a.accumulate(Report::ItemSet(&[1])).is_err());
        assert_eq!(a.num_users(), 0);
    }

    #[test]
    fn hashed_accumulator_folds_through_shared_hash() {
        let (m, g) = (6usize, 3usize);
        let mut a = hashed(m, g);
        assert_eq!(a.shape().param(), g);
        let (seed, value) = (99u64, 1usize);
        a.accumulate(Report::Hashed { seed, value }).unwrap();
        let snap = a.snapshot();
        for v in 0..m {
            let want = u64::from(hash_bucket(seed, v, g) == value);
            assert_eq!(snap.counts()[v], want, "item {v}");
        }
        assert_eq!(snap.num_users(), 1);

        // The pre-folded bits form counts identically.
        let mut bits = vec![0u8; m];
        for (v, b) in bits.iter_mut().enumerate() {
            *b = u8::from(hash_bucket(seed, v, g) == value);
        }
        let mut via_bits = hashed(m, g);
        via_bits.accumulate(Report::Bits(&bits)).unwrap();
        assert_eq!(via_bits.snapshot(), snap);
    }

    #[test]
    fn hashed_accumulator_rejects_invalid() {
        let mut a = hashed(4, 3);
        assert!(a.accumulate(Report::Hashed { seed: 1, value: 3 }).is_err());
        assert!(a.accumulate(Report::Value(1)).is_err());
        assert!(a.accumulate(Report::ItemSet(&[0])).is_err());
        assert!(a.accumulate(Report::Bits(&[1, 0])).is_err());
        assert_eq!(a.num_users(), 0);
        // Merging across hash ranges is refused (folds would disagree).
        let b = hashed(4, 5);
        assert!(a.merge_from(&b).is_err());
    }

    #[test]
    fn item_set_accumulator_counts_members_once() {
        let mut a = sets(5, 0);
        a.accumulate(Report::ItemSet(&[0, 3])).unwrap();
        a.accumulate(Report::ItemSet(&[3])).unwrap();
        a.accumulate(Report::Bits(&[0, 1, 0, 1, 0])).unwrap();
        let snap = a.snapshot();
        assert_eq!(snap.counts(), &[1, 1, 0, 3, 0]);
        assert_eq!(snap.num_users(), 3);
    }

    #[test]
    fn item_set_accumulator_rejects_invalid() {
        let mut a = sets(3, 0);
        assert!(a.accumulate(Report::ItemSet(&[3])).is_err());
        assert!(a.accumulate(Report::ItemSet(&[1, 1])).is_err());
        assert!(a.accumulate(Report::Value(0)).is_err());
        assert!(a.accumulate(Report::Hashed { seed: 0, value: 0 }).is_err());
        assert_eq!(a.num_users(), 0, "failed accumulations count nothing");
    }

    #[test]
    fn shaped_accumulator_dispatches_every_shape() {
        let cases: Vec<(ReportShape, ReportData)> = vec![
            (ReportShape::Bits, ReportData::Bits(vec![1, 0, 1, 0])),
            (ReportShape::Value, ReportData::Value(2)),
            (
                ReportShape::Hashed { range: 3 },
                ReportData::Hashed { seed: 5, value: 1 },
            ),
            (
                ReportShape::ItemSet { k: 0 },
                ReportData::ItemSet(vec![0, 2]),
            ),
            (
                ReportShape::ItemSet { k: 2 },
                ReportData::ItemSet(vec![0, 2]),
            ),
        ];
        for (shape, data) in cases {
            let mut acc = ShapedAccumulator::for_shape(shape, 4);
            assert_eq!(acc.shape(), shape);
            assert_eq!(acc.report_len(), 4);
            acc.accumulate(data.as_report()).unwrap();
            assert_eq!(acc.num_users(), 1, "{shape:?}");
            // Merge-from an identical clone doubles the state...
            let other = acc.clone();
            acc.merge_from(&other).unwrap();
            assert_eq!(acc.num_users(), 2);
            // ...and restore round-trips.
            let snap = acc.snapshot();
            let mut fresh = ShapedAccumulator::for_shape(shape, 4);
            fresh.restore(&snap).unwrap();
            assert_eq!(fresh.snapshot(), snap);
        }
        // Cross-shape merges are refused.
        let mut bits = ShapedAccumulator::for_shape(ReportShape::Bits, 4);
        let value = ShapedAccumulator::for_shape(ReportShape::Value, 4);
        assert!(bits.merge_from(&value).is_err());
    }

    #[test]
    fn item_set_accumulator_pins_cardinality() {
        let mut a = sets(5, 2);
        assert_eq!(a.shape().param(), 2);
        a.accumulate(Report::ItemSet(&[0, 3])).unwrap();
        assert!(a.accumulate(Report::ItemSet(&[1])).is_err());
        assert!(a.accumulate(Report::ItemSet(&[1, 2, 4])).is_err());
        assert_eq!(a.num_users(), 1, "wrong-sized sets count nothing");
        // Merging across pinned cardinalities is refused.
        let other = sets(5, 3);
        assert!(a.merge_from(&other).is_err());
        // The shape round-trips the pinned k.
        let shaped = ShapedAccumulator::for_shape(ReportShape::ItemSet { k: 2 }, 5);
        assert_eq!(shaped.shape(), ReportShape::ItemSet { k: 2 });
    }

    #[test]
    fn batch_matches_sequential_for_every_shape() {
        // The core batched-fold guarantee: accumulate_batch is
        // bit-identical to sequential accumulate, for every shape, with
        // enough bit rows to cross a SWAR spill boundary.
        let m = 9usize;
        let bit_rows: Vec<Vec<u8>> = (0..600u64)
            .map(|r| (0..m).map(|i| hash_bucket(r, i, 2) as u8).collect())
            .collect();
        let bit_reports: Vec<Report<'_>> = bit_rows.iter().map(|r| Report::Bits(r)).collect();

        let value_reports: Vec<Report<'_>> = (0..40).map(|v| Report::Value(v % m)).collect();

        // Hashed: fresh, distinct seeds (what real clients send, one per
        // user) alongside repeated ones, plus a mixed-in pre-folded bits
        // row.
        let g = 3usize;
        let fresh = (0..300u64).map(|i| Report::Hashed {
            // An odd multiplier is a bijection on u64: every seed differs.
            seed: (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            value: (i % g as u64) as usize,
        });
        let hashed_reports: Vec<Report<'_>> = (0..300u64)
            .map(|i| Report::Hashed {
                seed: i % 7,
                value: (i % g as u64) as usize,
            })
            .chain(fresh)
            .chain(std::iter::once(Report::Bits(&bit_rows[0])))
            .collect();

        let set_rows: Vec<Vec<usize>> = (0..30usize).map(|i| vec![i % m, (i + 3) % m]).collect();
        let set_reports: Vec<Report<'_>> = set_rows
            .iter()
            .map(|s| Report::ItemSet(s))
            .chain(std::iter::once(Report::Bits(&bit_rows[1])))
            .collect();

        for (proto, reports) in [
            (bits(m), bit_reports),
            (values(m), value_reports),
            (hashed(m, g), hashed_reports),
            (sets(m, 0), set_reports),
        ] {
            let mut seq = proto.clone();
            for r in &reports {
                seq.accumulate(*r).unwrap();
            }
            let mut batched = proto;
            batched.accumulate_batch(&reports).unwrap();
            assert_eq!(batched, seq, "{:?}", seq.shape());
        }
    }

    #[test]
    fn batch_with_any_invalid_report_counts_nothing() {
        // Atomicity: one bad report anywhere in the batch leaves the
        // accumulator untouched — no partial fold, no user counted. Every
        // shape meets its own malformed tails, then a tail in each wire
        // variant it refuses.
        let natives = [
            ReportData::Bits(vec![1, 0, 1]),
            ReportData::Value(1),
            ReportData::Hashed { seed: 1, value: 0 },
            ReportData::ItemSet(vec![0, 1]),
        ];
        let cases = [
            (
                bits(3),
                vec![Report::Bits(&[1, 0]), Report::Bits(&[1, 2, 0])],
            ),
            (values(3), vec![Report::Value(3), Report::Bits(&[1, 1, 0])]),
            (hashed(3, 2), vec![Report::Hashed { seed: 2, value: 2 }]),
            (sets(3, 2), vec![Report::ItemSet(&[2])]),
        ];
        for (i, (proto, mut tails)) in cases.into_iter().enumerate() {
            let good = natives[i].as_report();
            tails.extend(
                natives[1..]
                    .iter()
                    .filter(|d| **d != natives[i])
                    .map(ReportData::as_report),
            );
            for tail in tails {
                let mut acc = proto.clone();
                assert!(
                    acc.accumulate_batch(&[good, good, tail]).is_err(),
                    "{:?} took {tail:?}",
                    acc.shape()
                );
                assert_eq!(acc.num_users(), 0);
                assert_eq!(acc.snapshot().counts(), &[0, 0, 0]);
            }
        }
    }

    #[test]
    fn single_bit_report_slots_must_be_zero_or_one() {
        // A slot of 2 is refused one report at a time exactly as in a
        // batch, for every shape that takes folded bit vectors.
        let bad = Report::Bits(&[2, 0, 1]);
        for proto in [bits(3), values(3), hashed(3, 2), sets(3, 0)] {
            let mut acc = proto.clone();
            assert!(acc.accumulate(bad).is_err(), "{:?}", proto.shape());
            assert_eq!(acc, proto, "nothing counted");
            let sharded = crate::ShardedAccumulator::new(proto.clone(), 2);
            assert!(sharded.push(bad).is_err(), "{:?}", proto.shape());
            assert_eq!(sharded.snapshot(), proto.snapshot());
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut acc = bits(4);
        acc.accumulate_batch(&[]).unwrap();
        assert_eq!(acc.num_users(), 0);
    }

    #[test]
    fn restore_round_trips() {
        let mut a = values(3);
        a.accumulate(Report::Value(1)).unwrap();
        a.accumulate(Report::Value(1)).unwrap();
        let snap = a.snapshot();
        let mut fresh = values(3);
        fresh.restore(&snap).unwrap();
        assert_eq!(fresh, a);
        let mut bits = bits(3);
        bits.restore(&snap).unwrap();
        assert_eq!(bits.snapshot(), snap);
        assert!(bits
            .restore(&idldp_core::snapshot::AccumulatorSnapshot::empty(5).unwrap())
            .is_err());
    }

    #[test]
    fn absorb_counts_matches_streaming() {
        let mut batch = CountAccumulator::new(2);
        batch.accumulate_report(&[1, 0]).unwrap();
        batch.accumulate_report(&[1, 1]).unwrap();
        let mut acc = bits(2);
        acc.accumulate(Report::Bits(&[0, 1])).unwrap();
        acc.absorb(&batch).unwrap();
        assert!(acc.absorb(&CountAccumulator::new(3)).is_err());
        assert_eq!(acc.snapshot().counts(), &[2, 2]);
        assert_eq!(acc.num_users(), 3);
    }
}
