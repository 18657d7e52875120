//! Fresh client traffic and the local reference it is checked against.
//!
//! A [`Stream`] is one population of users reporting to one tenant under
//! one mechanism. User `u` of a stream draws its private item and every
//! perturbation coin from its own RNG, seeded from `(stream seed, u)`, so
//! no two users share randomness (each OLH user draws its own 64-bit hash
//! seed) and the same workload seed always yields the same reports. Reports
//! come only from [`Mechanism::perturb_data`]; the benchmark never builds a
//! report itself.
//!
//! Reports are perturbed ahead of the timed phase and held in memory; a
//! report leaves the pool exactly once, when a frame claims it, and is
//! folded into the stream's local reference once acknowledged.

use idldp_core::budget::Epsilon;
use idldp_core::identity::TenantId;
use idldp_core::mechanism::{Input, Mechanism};
use idldp_core::report::{ReportData, ReportShape};
use idldp_core::snapshot::AccumulatorSnapshot;
use idldp_data::budgets::BudgetScheme;
use idldp_num::rng::{derive_seed, stream_rng, SplitMix64};
use idldp_num::vecops::top_k_indices;
use idldp_sim::{BuildContext, MechanismRegistry};
use std::collections::HashSet;
use std::sync::Arc;

/// The mechanism-construction seed `idldp serve` uses by default; the
/// benchmark passes it explicitly so both sides build the same mechanism.
pub const CONFIG_SEED: u64 = 20_200_401;

/// Every workload runs at this plain-LDP budget.
pub const EPS: f64 = 1.0;

/// Zipf exponent of the users' private items: a few heavy hitters and a
/// long tail, so top-k queries have a real ranking to compute.
const ZIPF_S: f64 = 1.1;

/// Builds a single-item mechanism exactly as `idldp serve` does: the
/// paper-default budget scheme over RNG stream `(seed, 1)`, then the
/// registry entry. A divergence here shows up as a refused handshake.
pub fn build_mechanism(name: &str, m: usize) -> Result<Arc<dyn Mechanism>, String> {
    let base = Epsilon::new(EPS).map_err(|e| e.to_string())?;
    let levels = BudgetScheme::paper_default()
        .assign(m, base, &mut stream_rng(CONFIG_SEED, 1))
        .map_err(|e| e.to_string())?;
    let ctx = BuildContext {
        levels: &levels,
        padding: 0,
        solver: None,
    };
    let mechanism = MechanismRegistry::standard()
        .build_single_item(name, &ctx)
        .map_err(|e| e.to_string())?;
    Ok(Arc::<dyn idldp_sim::BatchMechanism>::from(mechanism))
}

/// The shape parameter [`idldp_core::report::Report::validate`] and
/// `fold_into` take: the hash range for hashed reports, the pinned set
/// size for item sets, unused otherwise.
pub fn shape_param(mechanism: &dyn Mechanism) -> usize {
    match mechanism.report_shape() {
        ReportShape::Hashed { range } => range,
        ReportShape::ItemSet { k } => k,
        ReportShape::Bits | ReportShape::Value => 0,
    }
}

/// One user population reporting to one tenant.
pub struct Stream {
    /// Mechanism name as `idldp serve --mechanism` takes it.
    pub mech_name: &'static str,
    pub m: usize,
    pub tenant: Option<TenantId>,
    pub mechanism: Arc<dyn Mechanism>,
    /// Reports per `Reports` frame.
    pub frame: usize,
    seed: u64,
    zipf_cdf: Vec<f64>,
    /// Users perturbed so far (the next user's index).
    next_user: u64,
    /// Perturbed reports not yet claimed by a frame.
    pub pool: Vec<ReportData>,
    /// Local reference: counts over every acknowledged report.
    counts: Vec<u64>,
    users: u64,
    /// OLH hash seeds seen so far (the fresh-traffic guard).
    hash_seeds: HashSet<u64>,
}

impl Stream {
    pub fn new(
        mech_name: &'static str,
        m: usize,
        tenant: Option<&str>,
        frame: usize,
        workload_seed: u64,
        stream_index: u64,
    ) -> Result<Self, String> {
        let mechanism = build_mechanism(mech_name, m)?;
        let tenant = tenant
            .map(|t| t.parse::<TenantId>().map_err(|e| e.to_string()))
            .transpose()?;
        let mut cdf = Vec::with_capacity(m);
        let mut total = 0.0;
        for i in 0..m {
            total += 1.0 / ((i + 1) as f64).powf(ZIPF_S);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Ok(Self {
            mech_name,
            m,
            tenant,
            counts: vec![0; mechanism.report_len()],
            mechanism,
            frame,
            seed: derive_seed(workload_seed, stream_index),
            zipf_cdf: cdf,
            next_user: 0,
            pool: Vec::new(),
            users: 0,
            hash_seeds: HashSet::new(),
        })
    }

    /// The `--tenants` spec `idldp serve` takes for this stream.
    pub fn tenant_spec(&self) -> Option<String> {
        self.tenant
            .as_ref()
            .map(|t| format!("{t}={}:{}:{}:{CONFIG_SEED}", self.mech_name, self.m, EPS))
    }

    /// Users acknowledged (and folded into the reference) so far.
    pub fn acknowledged(&self) -> u64 {
        self.users
    }

    /// Perturbs users `from..from + count` on the calling thread.
    fn make_reports(&self, from: u64, count: usize) -> Result<Vec<ReportData>, String> {
        let cdf = &self.zipf_cdf;
        (from..from + count as u64)
            .map(|user| {
                let mut rng = SplitMix64::new(derive_seed(self.seed, user));
                let u = rng.next_f64();
                let item = cdf.partition_point(|&c| c <= u).min(cdf.len() - 1);
                self.mechanism
                    .perturb_data(Input::Item(item), &mut rng)
                    .map_err(|e| format!("perturb user {user}: {e}"))
            })
            .collect()
    }

    /// Perturbs the next `n` users into fresh reports, on two threads.
    pub fn perturb(&mut self, n: usize) -> Result<Vec<ReportData>, String> {
        let first = self.next_user;
        self.next_user += n as u64;
        let half = n / 2;
        let this = &*self;
        let (low, high) = std::thread::scope(|s| {
            let high = s.spawn(|| this.make_reports(first + half as u64, n - half));
            (
                this.make_reports(first, half),
                high.join().expect("perturb thread panicked"),
            )
        });
        let mut reports = low?;
        reports.extend(high?);
        Ok(reports)
    }

    /// Perturbs the next `n` users on the calling thread — what the layer
    /// replay times as the client's per-report cost.
    pub fn perturb_serial(&mut self, n: usize) -> Result<Vec<ReportData>, String> {
        let first = self.next_user;
        self.next_user += n as u64;
        self.make_reports(first, n)
    }

    /// Tops the pool up to at least `n` unclaimed reports.
    pub fn fill_pool(&mut self, n: usize) -> Result<(), String> {
        if self.pool.len() < n {
            let fresh = self.perturb(n - self.pool.len())?;
            self.pool.extend(fresh);
        }
        Ok(())
    }

    /// Removes the first `n` pool reports — the ones frames claimed and the
    /// server acknowledged — and folds them into the local reference.
    ///
    /// # Errors
    /// A report that fails to fold, or an OLH hash seed seen before (a
    /// replayed or non-fresh user).
    pub fn acknowledge(&mut self, n: usize) -> Result<(), String> {
        let taken: Vec<ReportData> = self.pool.drain(..n).collect();
        self.fold_reference(&taken)
    }

    /// Folds reports the server acknowledged into the local reference.
    fn fold_reference(&mut self, reports: &[ReportData]) -> Result<(), String> {
        for report in reports {
            // The one place the benchmark looks inside a report: an OLH
            // user's hash seed, for the fresh-traffic guard.
            if let ReportData::Hashed { seed, .. } = report {
                if !self.hash_seeds.insert(*seed) {
                    return Err(format!(
                        "fresh-traffic guard: two {} reports share hash seed {seed:#x}",
                        self.mech_name
                    ));
                }
            }
        }
        let param = shape_param(self.mechanism.as_ref());
        let width = self.counts.len();
        let fold = |part: &[ReportData]| -> Result<Vec<u64>, String> {
            let mut counts = vec![0u64; width];
            for report in part {
                report
                    .fold_into(&mut counts, param)
                    .map_err(|e| format!("reference fold: {e}"))?;
            }
            Ok(counts)
        };
        let (low, high) = reports.split_at(reports.len() / 2);
        let (a, b) = std::thread::scope(|s| {
            let b = s.spawn(|| fold(high));
            (fold(low), b.join().expect("fold thread panicked"))
        });
        for part in [a?, b?] {
            for (c, add) in self.counts.iter_mut().zip(part) {
                *c += add;
            }
        }
        self.users += reports.len() as u64;
        Ok(())
    }

    /// The estimates a correct server must answer for the acknowledged
    /// reports: the mechanism's own oracle over the reference counts.
    pub fn reference_estimates(&self) -> Result<Vec<f64>, String> {
        if self.users == 0 {
            return Ok(Vec::new());
        }
        let snapshot =
            AccumulatorSnapshot::new(self.counts.clone(), self.users).map_err(|e| e.to_string())?;
        self.mechanism
            .frequency_oracle(self.users)
            .estimate_from(&snapshot)
            .map_err(|e| e.to_string())
    }

    /// The top-`k` a correct server must answer.
    pub fn reference_top_k(&self, k: usize) -> Result<Vec<(u64, f64)>, String> {
        let estimates = self.reference_estimates()?;
        Ok(top_k_indices(&estimates, k)
            .into_iter()
            .map(|i| (i as u64, estimates[i]))
            .collect())
    }
}
