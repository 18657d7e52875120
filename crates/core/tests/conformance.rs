//! Trait-layer conformance suite.
//!
//! Every [`Mechanism`]/[`BatchMechanism`]/[`FrequencyOracle`] implementation
//! in the crate is run through the same checks:
//!
//! 1. **report shape** — reports have `report_len()` slots, all 0/1;
//! 2. **batch ≡ loop** — the (possibly specialized) `perturb_batch` produces
//!    bit-identical counts to the default loop over `perturb_into` under the
//!    same RNG stream;
//! 3. **oracle unbiasedness** — averaging oracle estimates over seeded
//!    trials on a synthetic dataset recovers the true counts;
//! 4. **input validation** — wrong-kind and out-of-domain inputs surface
//!    errors (not panics) from every entry point;
//! 5. **profile consistency** — `bit_profile`, when present, matches the
//!    report width and is properly ordered.

use idldp_core::budget::Epsilon;
use idldp_core::grr::GeneralizedRandomizedResponse;
use idldp_core::idue::Idue;
use idldp_core::idue_ps::IduePs;
use idldp_core::levels::LevelPartition;
use idldp_core::matrix_mech::PerturbationMatrix;
use idldp_core::mechanism::{
    BatchMechanism, CountAccumulator, Input, InputBatch, InputKind, Mechanism,
};
use idldp_core::olh::OptimalLocalHashing;
use idldp_core::params::LevelParams;
use idldp_core::ps::PsMechanism;
use idldp_core::report::ReportShape;
use idldp_core::subset::SubsetSelection;
use idldp_core::ue::UnaryEncoding;
use idldp_num::rng::{stream_rng, SplitMix64};

const DOMAIN: usize = 8;
const PADDING: usize = 3;

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

fn two_level_partition() -> (LevelPartition, LevelParams) {
    let levels = LevelPartition::new(
        vec![0, 0, 1, 1, 1, 1, 1, 1],
        vec![eps(2.0_f64.ln()), eps(4.0_f64.ln())],
    )
    .unwrap();
    // Feasible MinID-LDP parameters (checked in `fixture_is_feasible`).
    let params = LevelParams::new(vec![0.48, 0.60], vec![0.38, 0.38]).unwrap();
    (levels, params)
}

/// Every mechanism in the crate, over the same 8-item domain.
fn all_mechanisms() -> Vec<Box<dyn BatchMechanism>> {
    let (levels, params) = two_level_partition();
    vec![
        Box::new(GeneralizedRandomizedResponse::new(eps(1.5), DOMAIN).unwrap()),
        Box::new(UnaryEncoding::optimized(eps(1.0), DOMAIN).unwrap()),
        Box::new(Idue::new(levels.clone(), &params).unwrap()),
        Box::new(PsMechanism::new(DOMAIN, PADDING).unwrap()),
        Box::new(IduePs::new(levels, &params, PADDING).unwrap()),
        Box::new(PerturbationMatrix::grr(eps(1.5), DOMAIN).unwrap()),
        Box::new(OptimalLocalHashing::new(eps(1.5), DOMAIN).unwrap()),
        Box::new(SubsetSelection::new(eps(1.5), DOMAIN).unwrap()),
    ]
}

/// A deterministic synthetic workload matching the mechanism's input kind.
fn workload(mech: &dyn BatchMechanism, n: usize) -> Workload {
    let mut rng = SplitMix64::new(2024);
    match mech.input_kind() {
        InputKind::Item => {
            // Skewed single-item data: item i with weight ∝ (i + 1)⁻¹.
            let items: Vec<u32> = (0..n)
                .map(|_| {
                    let u = rng.next_f64();
                    let mut acc = 0.0;
                    let norm: f64 = (1..=DOMAIN).map(|k| 1.0 / k as f64).sum();
                    for i in 0..DOMAIN {
                        acc += 1.0 / ((i + 1) as f64 * norm);
                        if u < acc {
                            return i as u32;
                        }
                    }
                    (DOMAIN - 1) as u32
                })
                .collect();
            Workload::Items(items)
        }
        InputKind::Set => {
            // Sets of exactly PADDING distinct items (η = 1: estimates are
            // unbiased with no padding-truncation bias).
            let sets: Vec<Vec<u32>> = (0..n)
                .map(|_| {
                    let mut set = Vec::new();
                    while set.len() < PADDING {
                        let item = (rng.next() % DOMAIN as u64) as u32;
                        if !set.contains(&item) {
                            set.push(item);
                        }
                    }
                    set
                })
                .collect();
            Workload::Sets(sets)
        }
    }
}

enum Workload {
    Items(Vec<u32>),
    Sets(Vec<Vec<u32>>),
}

impl Workload {
    fn batch(&self) -> InputBatch<'_> {
        match self {
            Workload::Items(items) => InputBatch::Items(items),
            Workload::Sets(sets) => InputBatch::Sets(sets),
        }
    }

    fn len(&self) -> usize {
        self.batch().len()
    }

    fn input(&self, i: usize) -> Input<'_> {
        match self {
            Workload::Items(items) => Input::Item(items[i] as usize),
            Workload::Sets(sets) => Input::Set(&sets[i]),
        }
    }

    fn true_counts(&self) -> Vec<f64> {
        let mut counts = vec![0.0; DOMAIN];
        match self {
            Workload::Items(items) => {
                for &i in items {
                    counts[i as usize] += 1.0;
                }
            }
            Workload::Sets(sets) => {
                for set in sets {
                    for &i in set {
                        counts[i as usize] += 1.0;
                    }
                }
            }
        }
        counts
    }
}

#[test]
fn fixture_is_feasible() {
    let (levels, params) = two_level_partition();
    assert!(params
        .verify(&levels, idldp_core::notion::RFunction::Min, 1e-9)
        .is_ok());
}

#[test]
fn report_shape_and_binary_values() {
    for mech in all_mechanisms() {
        let load = workload(mech.as_ref(), 16);
        let mut rng = stream_rng(1, 0);
        for i in 0..load.len() {
            let report = mech.perturb_report(load.input(i), &mut rng).unwrap();
            assert_eq!(report.len(), mech.report_len(), "{}", mech.kind());
            assert!(
                report.iter().all(|&b| b <= 1),
                "{}: non-binary report",
                mech.kind()
            );
        }
        assert!(
            mech.report_len() >= mech.domain_size(),
            "{}: report narrower than domain",
            mech.kind()
        );
    }
}

/// Forwards `Mechanism` and takes `BatchMechanism`'s *default* loop, so the
/// specialized fast paths can be compared against it.
struct DefaultLoop<'a>(&'a dyn BatchMechanism);

impl Mechanism for DefaultLoop<'_> {
    fn kind(&self) -> &'static str {
        self.0.kind()
    }
    fn domain_size(&self) -> usize {
        self.0.domain_size()
    }
    fn report_len(&self) -> usize {
        self.0.report_len()
    }
    fn input_kind(&self) -> InputKind {
        self.0.input_kind()
    }
    fn perturb_into(
        &self,
        input: Input<'_>,
        rng: &mut dyn rand::RngCore,
        report: &mut [u8],
    ) -> idldp_core::error::Result<()> {
        self.0.perturb_into(input, rng, report)
    }
    fn encode_hot(
        &self,
        input: Input<'_>,
        rng: &mut dyn rand::RngCore,
    ) -> idldp_core::error::Result<usize> {
        self.0.encode_hot(input, rng)
    }
    fn ldp_epsilon(&self) -> f64 {
        self.0.ldp_epsilon()
    }
    fn frequency_oracle(&self, n: u64) -> Box<dyn idldp_core::mechanism::FrequencyOracle> {
        self.0.frequency_oracle(n)
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self.0.as_any()
    }
}

impl BatchMechanism for DefaultLoop<'_> {}

#[test]
fn batch_fast_path_is_bit_identical_to_default_loop() {
    for mech in all_mechanisms() {
        let load = workload(mech.as_ref(), 500);
        for seed in [3u64, 4, 5] {
            let mut fast_rng = stream_rng(seed, 0);
            let mut fast = CountAccumulator::new(mech.report_len());
            mech.perturb_batch(load.batch(), &mut fast_rng, &mut fast)
                .unwrap();

            let looped_mech = DefaultLoop(mech.as_ref());
            let mut loop_rng = stream_rng(seed, 0);
            let mut looped = CountAccumulator::new(mech.report_len());
            looped_mech
                .perturb_batch(load.batch(), &mut loop_rng, &mut looped)
                .unwrap();

            assert_eq!(
                fast,
                looped,
                "{}: specialized batch diverged from default loop",
                mech.kind()
            );
            assert_eq!(fast.num_users(), load.len() as u64, "{}", mech.kind());
        }
    }
}

#[test]
fn oracle_estimates_are_unbiased_on_seeded_data() {
    let n = 4000usize;
    let trials = 30u64;
    for mech in all_mechanisms() {
        let load = workload(mech.as_ref(), n);
        let truth = load.true_counts();
        let oracle = mech.frequency_oracle(n as u64);
        assert_eq!(oracle.report_len(), mech.report_len(), "{}", mech.kind());
        assert_eq!(oracle.domain_size(), mech.domain_size(), "{}", mech.kind());
        let mut mean_est = vec![0.0; mech.domain_size()];
        for t in 0..trials {
            let mut rng = stream_rng(900 + t, 0);
            let mut acc = CountAccumulator::new(mech.report_len());
            mech.perturb_batch(load.batch(), &mut rng, &mut acc)
                .unwrap();
            let est = oracle.estimate(acc.counts()).unwrap();
            for (m, e) in mean_est.iter_mut().zip(est) {
                *m += e / trials as f64;
            }
        }
        for (i, (&mean, &want)) in mean_est.iter().zip(&truth).enumerate() {
            assert!(
                (mean - want).abs() < 0.05 * n as f64,
                "{}: item {i} mean estimate {mean:.1} vs truth {want:.1}",
                mech.kind()
            );
        }
    }
}

#[test]
fn invalid_inputs_error_everywhere() {
    for mech in all_mechanisms() {
        let mut rng = stream_rng(7, 0);
        let oversized = [DOMAIN as u32];
        let (bad, wrong_kind) = match mech.input_kind() {
            InputKind::Item => (Input::Item(DOMAIN), Input::Set(&[0u32, 1][..])),
            InputKind::Set => (Input::Set(&oversized[..]), Input::Item(0)),
        };
        assert!(
            mech.perturb_report(bad, &mut rng).is_err(),
            "{}: out-of-domain input must error",
            mech.kind()
        );
        assert!(
            mech.perturb_report(wrong_kind, &mut rng).is_err(),
            "{}: wrong input kind must error",
            mech.kind()
        );
        assert!(
            mech.encode_hot(bad, &mut rng).is_err(),
            "{}: encode_hot must validate",
            mech.kind()
        );
        // Undersized report buffer.
        let mut short = vec![0u8; mech.report_len() - 1];
        let good = match mech.input_kind() {
            InputKind::Item => Input::Item(0),
            InputKind::Set => Input::Set(&[0u32]),
        };
        assert!(
            mech.perturb_into(good, &mut rng, &mut short).is_err(),
            "{}: short report buffer must error",
            mech.kind()
        );
        // Mis-sized accumulator.
        let mut acc = CountAccumulator::new(mech.report_len() + 1);
        let items = [0u32];
        let sets = [vec![0u32]];
        let batch = match mech.input_kind() {
            InputKind::Item => InputBatch::Items(&items),
            InputKind::Set => InputBatch::Sets(&sets),
        };
        assert!(
            mech.perturb_batch(batch, &mut rng, &mut acc).is_err(),
            "{}: mis-sized accumulator must error",
            mech.kind()
        );
    }
}

#[test]
fn bit_profiles_are_consistent() {
    for mech in all_mechanisms() {
        let Some(profile) = mech.bit_profile() else {
            assert_eq!(mech.kind(), "matrix", "only matrix lacks a profile");
            continue;
        };
        assert_eq!(profile.a.len(), mech.report_len(), "{}", mech.kind());
        assert_eq!(profile.b.len(), mech.report_len(), "{}", mech.kind());
        for (k, (&a, &b)) in profile.a.iter().zip(&profile.b).enumerate() {
            assert!(
                (0.0..=1.0).contains(&a) && (0.0..=1.0).contains(&b) && a > b,
                "{}: bucket {k} profile ({a}, {b}) out of order",
                mech.kind()
            );
        }
    }
}

#[test]
fn encode_hot_matches_report_expectation() {
    // For single-item mechanisms the encoding stage is deterministic and
    // must point at the input's own bucket.
    for mech in all_mechanisms() {
        if mech.input_kind() != InputKind::Item {
            continue;
        }
        let mut rng = stream_rng(13, 0);
        for item in 0..mech.domain_size() {
            assert_eq!(
                mech.encode_hot(Input::Item(item), &mut rng).unwrap(),
                item,
                "{}",
                mech.kind()
            );
        }
    }
}

#[test]
fn perturb_data_folds_to_perturb_into() {
    // The wire-shape law behind the shape-generic pipeline: emitting the
    // native-shape report (`perturb_data`) and folding it server-side must
    // give the exact bit pattern `perturb_into` writes, under the same RNG
    // stream — for every mechanism and every shape.
    for mech in all_mechanisms() {
        let load = workload(mech.as_ref(), 200);
        let shape = mech.report_shape();
        for i in 0..load.len() {
            let mut r1 = stream_rng(41, i as u64);
            let mut r2 = stream_rng(41, i as u64);
            let report = mech.perturb_report(load.input(i), &mut r1).unwrap();
            let data = mech.perturb_data(load.input(i), &mut r2).unwrap();
            assert!(
                shape.is_native(&data.as_report()),
                "{}: a {} report under shape {}",
                mech.kind(),
                data.as_report().shape_label(),
                shape.label()
            );
            let mut via_into = vec![0u64; mech.report_len()];
            for (c, &b) in via_into.iter_mut().zip(&report) {
                *c = u64::from(b);
            }
            let mut via_data = vec![0u64; mech.report_len()];
            data.fold_into(&mut via_data, shape.param()).unwrap();
            assert_eq!(
                via_data,
                via_into,
                "{}: perturb_data fold diverged from perturb_into",
                mech.kind()
            );
        }
    }
}

#[test]
fn report_shapes_are_declared_consistently() {
    for mech in all_mechanisms() {
        let shape = mech.report_shape();
        match mech.kind() {
            "grr" | "matrix" | "ps" => assert_eq!(shape, ReportShape::Value, "{}", mech.kind()),
            "olh" => assert!(
                matches!(shape, ReportShape::Hashed { range } if range >= 2),
                "{}: {shape:?}",
                mech.kind()
            ),
            "ss" => assert!(
                matches!(shape, ReportShape::ItemSet { k } if k >= 1),
                "{}: {shape:?}",
                mech.kind()
            ),
            _ => assert_eq!(shape, ReportShape::Bits, "{}", mech.kind()),
        }
    }
}

#[test]
fn ldp_epsilon_finite_for_private_mechanisms() {
    for mech in all_mechanisms() {
        let e = mech.ldp_epsilon();
        if mech.kind() == "ps" {
            assert!(e.is_infinite(), "bare PS reports no privacy");
        } else {
            assert!(e.is_finite() && e > 0.0, "{}: ldp_epsilon {e}", mech.kind());
        }
    }
}
