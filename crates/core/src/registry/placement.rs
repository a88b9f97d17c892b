//! Resource-aware tenant placement onto engine shards.
//!
//! Each shard models one board slice with an ALUT/DSP/M20K budget derived
//! from the real device ([`ShardBudget::from_device`]). A tenant's demand
//! is its live firmware's estimate from
//! [`reads_hls4ml::resource::estimate_resources_with`] — the rule4ml idea of
//! deploying from the estimator rather than from synthesis runs. The
//! planner packs first-fit-decreasing by IP ALUTs (the paper's binding
//! resource: Table II's ⟨18,10⟩ row overflows on ALUTs first), is fully
//! deterministic for a fixed tenant set, and rejects with a typed
//! [`PlacementError::OverBudget`] naming the squeezed resource when a
//! tenant cannot fit anywhere.

use super::{ModelRegistry, RegistryError, TenantId, DEFAULT_TENANT};
use reads_hls4ml::device::Device;
use reads_hls4ml::latency::estimate_latency;
use reads_hls4ml::resource::estimate_resources_with;
use reads_hls4ml::Firmware;
use serde::Serialize;
use std::collections::BTreeMap;

/// Per-shard resource budget in the three dimensions the estimator and
/// Table III agree are binding: IP ALUTs, DSP blocks, M20K blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ShardBudget {
    /// IP datapath ALUTs available per shard.
    pub ip_aluts: u64,
    /// DSP blocks available per shard.
    pub dsps: u64,
    /// M20K blocks available per shard.
    pub m20k_blocks: u64,
}

impl ShardBudget {
    /// Splits one device evenly across `shards` shards (each worker thread
    /// stands in for a slice of the board's fabric).
    #[must_use]
    pub fn from_device(device: &Device, shards: usize) -> Self {
        let n = shards.max(1) as u64;
        Self {
            ip_aluts: device.aluts / n,
            dsps: device.dsps / n,
            m20k_blocks: device.m20k_blocks / n,
        }
    }
}

/// One tenant's resource demand, derived from its live firmware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TenantDemand {
    /// The tenant.
    pub tenant: TenantId,
    /// IP ALUTs the firmware's datapath needs.
    pub ip_aluts: u64,
    /// DSP blocks.
    pub dsps: u64,
    /// M20K blocks.
    pub m20k_blocks: u64,
}

impl TenantDemand {
    /// Estimates the demand of `firmware` for `tenant` through the Arria
    /// 10 estimator (reusing one latency breakdown for the mult counts).
    #[must_use]
    pub fn of(tenant: TenantId, firmware: &Firmware) -> Self {
        let lat = estimate_latency(firmware);
        let est = estimate_resources_with(firmware, &lat);
        Self {
            tenant,
            ip_aluts: est.ip_aluts,
            dsps: est.dsps,
            m20k_blocks: est.bram_blocks,
        }
    }
}

/// Typed placement failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// The plan was asked for zero shards.
    NoShards,
    /// A tenant's demand exceeds every shard's remaining capacity; names
    /// the tightest resource on the best candidate shard.
    OverBudget {
        /// The tenant that cannot be placed.
        tenant: TenantId,
        /// The resource dimension that ran out ("aluts", "dsps", "m20k").
        resource: &'static str,
        /// Units the tenant needs in that dimension.
        needed: u64,
        /// The largest remaining capacity any shard offers in it.
        available: u64,
    },
    /// A registry lookup failed while deriving demands.
    Registry(RegistryError),
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::NoShards => write!(f, "placement over zero shards"),
            PlacementError::OverBudget {
                tenant,
                resource,
                needed,
                available,
            } => write!(
                f,
                "tenant {tenant} over budget: needs {needed} {resource}, best shard has {available}"
            ),
            PlacementError::Registry(e) => write!(f, "placement registry lookup: {e}"),
        }
    }
}

impl std::error::Error for PlacementError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlacementError::Registry(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RegistryError> for PlacementError {
    fn from(e: RegistryError) -> Self {
        PlacementError::Registry(e)
    }
}

/// Remaining headroom on one shard after placement.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ShardUsage {
    /// IP ALUTs consumed.
    pub ip_aluts: u64,
    /// DSP blocks consumed.
    pub dsps: u64,
    /// M20K blocks consumed.
    pub m20k_blocks: u64,
}

/// A complete, budget-respecting assignment of tenants to shards.
#[derive(Debug, Clone)]
pub struct PlacementMap {
    /// Shards each tenant runs on, ascending shard index.
    pub assignments: BTreeMap<TenantId, Vec<usize>>,
    /// Post-placement consumption per shard.
    pub usage: Vec<ShardUsage>,
    /// The budget every shard was packed under.
    pub budget: ShardBudget,
}

impl PlacementMap {
    /// Shards serving `tenant` (empty when unknown).
    #[must_use]
    pub fn shards_of(&self, tenant: TenantId) -> &[usize] {
        self.assignments.get(&tenant).map_or(&[][..], Vec::as_slice)
    }

    /// One-line-per-tenant console rendering of the map.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (tenant, shards) in &self.assignments {
            let list = shards
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",");
            out.push_str(&format!(" tenant {tenant:<3} -> shards [{list}]\n"));
        }
        for (i, u) in self.usage.iter().enumerate() {
            out.push_str(&format!(
                " shard {i:<3} used {} aluts | {} dsps | {} m20k (of {}/{}/{})\n",
                u.ip_aluts,
                u.dsps,
                u.m20k_blocks,
                self.budget.ip_aluts,
                self.budget.dsps,
                self.budget.m20k_blocks
            ));
        }
        out
    }
}

/// First-fit-decreasing bin packer over shard budgets.
#[derive(Debug, Clone, Copy)]
pub struct PlacementPlanner {
    /// Budget applied to every shard.
    pub budget: ShardBudget,
    /// Number of shards to pack onto.
    pub shards: usize,
}

impl PlacementPlanner {
    /// Planner for `shards` shards under `budget` each.
    #[must_use]
    pub fn new(budget: ShardBudget, shards: usize) -> Self {
        Self { budget, shards }
    }

    /// Plans placement for every tenant in the registry from its live
    /// variant's demand. The default tenant is replicated on every shard
    /// first (it is the pre-registry traffic and must keep today's
    /// chain-to-shard spread); remaining tenants pack first-fit-decreasing
    /// by IP ALUTs, ties broken by ascending tenant id — deterministic for
    /// a fixed tenant set.
    ///
    /// # Errors
    /// [`PlacementError::NoShards`], registry lookup errors, or
    /// [`PlacementError::OverBudget`].
    pub fn plan(&self, registry: &ModelRegistry) -> Result<PlacementMap, PlacementError> {
        let mut demands = Vec::new();
        for t in registry.tenants() {
            let live = registry.live(t.id)?;
            demands.push(TenantDemand::of(t.id, &live.firmware));
        }
        self.plan_demands(&demands)
    }

    /// Plans placement for explicit demands (the property-test entry
    /// point; same algorithm as [`PlacementPlanner::plan`]).
    ///
    /// # Errors
    /// [`PlacementError::NoShards`] or [`PlacementError::OverBudget`].
    pub fn plan_demands(&self, demands: &[TenantDemand]) -> Result<PlacementMap, PlacementError> {
        if self.shards == 0 {
            return Err(PlacementError::NoShards);
        }
        let mut usage = vec![
            ShardUsage {
                ip_aluts: 0,
                dsps: 0,
                m20k_blocks: 0,
            };
            self.shards
        ];
        let mut assignments: BTreeMap<TenantId, Vec<usize>> = BTreeMap::new();

        let mut ordered: Vec<&TenantDemand> = demands.iter().collect();
        ordered.sort_by(|a, b| {
            b.ip_aluts
                .cmp(&a.ip_aluts)
                .then_with(|| a.tenant.cmp(&b.tenant))
        });
        // Default tenant first, on every shard.
        ordered.sort_by_key(|d| u8::from(d.tenant != DEFAULT_TENANT));

        for d in ordered {
            if d.tenant == DEFAULT_TENANT {
                for u in &mut usage {
                    Self::charge(u, d, self.budget, self.shards)?;
                }
                assignments.insert(d.tenant, (0..self.shards).collect());
                continue;
            }
            let slot = (0..self.shards).find(|&i| Self::fits(&usage[i], d, self.budget));
            match slot {
                Some(i) => {
                    Self::charge(&mut usage[i], d, self.budget, 1)?;
                    assignments.insert(d.tenant, vec![i]);
                }
                None => return Err(self.over_budget(&usage, d)),
            }
        }

        Ok(PlacementMap {
            assignments,
            usage,
            budget: self.budget,
        })
    }

    fn fits(u: &ShardUsage, d: &TenantDemand, b: ShardBudget) -> bool {
        u.ip_aluts + d.ip_aluts <= b.ip_aluts
            && u.dsps + d.dsps <= b.dsps
            && u.m20k_blocks + d.m20k_blocks <= b.m20k_blocks
    }

    fn charge(
        u: &mut ShardUsage,
        d: &TenantDemand,
        b: ShardBudget,
        _shards: usize,
    ) -> Result<(), PlacementError> {
        if !Self::fits(u, d, b) {
            let (resource, needed, available) = Self::tightest(u, d, b);
            return Err(PlacementError::OverBudget {
                tenant: d.tenant,
                resource,
                needed,
                available,
            });
        }
        u.ip_aluts += d.ip_aluts;
        u.dsps += d.dsps;
        u.m20k_blocks += d.m20k_blocks;
        Ok(())
    }

    fn over_budget(&self, usage: &[ShardUsage], d: &TenantDemand) -> PlacementError {
        // Report against the shard with the most remaining headroom in the
        // dimension that blocked it there — the best the tenant could get.
        let best = usage
            .iter()
            .max_by_key(|u| self.budget.ip_aluts.saturating_sub(u.ip_aluts))
            .expect("shards > 0 checked");
        let (resource, needed, available) = Self::tightest(best, d, self.budget);
        PlacementError::OverBudget {
            tenant: d.tenant,
            resource,
            needed,
            available,
        }
    }

    fn tightest(u: &ShardUsage, d: &TenantDemand, b: ShardBudget) -> (&'static str, u64, u64) {
        let rem_aluts = b.ip_aluts.saturating_sub(u.ip_aluts);
        let rem_dsps = b.dsps.saturating_sub(u.dsps);
        let rem_m20k = b.m20k_blocks.saturating_sub(u.m20k_blocks);
        if d.ip_aluts > rem_aluts {
            ("aluts", d.ip_aluts, rem_aluts)
        } else if d.dsps > rem_dsps {
            ("dsps", d.dsps, rem_dsps)
        } else {
            ("m20k", d.m20k_blocks, rem_m20k)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(tenant: TenantId, aluts: u64, dsps: u64, m20k: u64) -> TenantDemand {
        TenantDemand {
            tenant,
            ip_aluts: aluts,
            dsps,
            m20k_blocks: m20k,
        }
    }

    const BUDGET: ShardBudget = ShardBudget {
        ip_aluts: 100,
        dsps: 50,
        m20k_blocks: 40,
    };

    #[test]
    fn default_tenant_lands_on_every_shard() {
        let plan = PlacementPlanner::new(BUDGET, 3)
            .plan_demands(&[demand(0, 10, 5, 4), demand(1, 60, 10, 10)])
            .unwrap();
        assert_eq!(plan.shards_of(0), &[0, 1, 2]);
        assert_eq!(plan.shards_of(1).len(), 1);
        for u in &plan.usage {
            assert!(u.ip_aluts <= BUDGET.ip_aluts);
        }
    }

    #[test]
    fn packs_decreasing_and_deterministic() {
        let demands = [
            demand(0, 10, 2, 2),
            demand(3, 30, 5, 5),
            demand(1, 80, 10, 10),
            demand(2, 50, 8, 8),
        ];
        let planner = PlacementPlanner::new(BUDGET, 2);
        let a = planner.plan_demands(&demands).unwrap();
        let b = planner.plan_demands(&demands).unwrap();
        assert_eq!(a.assignments, b.assignments);
        // Largest non-default tenant (1: 80) goes first onto shard 0
        // (10 default already charged, 80 fits); 2 (50) can't fit shard 0,
        // lands on 1; 3 (30) fits shard 1 alongside.
        assert_eq!(a.shards_of(1), &[0]);
        assert_eq!(a.shards_of(2), &[1]);
        assert_eq!(a.shards_of(3), &[1]);
        for u in &a.usage {
            assert!(u.ip_aluts <= BUDGET.ip_aluts);
            assert!(u.dsps <= BUDGET.dsps);
            assert!(u.m20k_blocks <= BUDGET.m20k_blocks);
        }
    }

    #[test]
    fn over_budget_is_typed_with_resource_name() {
        let err = PlacementPlanner::new(BUDGET, 2)
            .plan_demands(&[demand(1, 120, 1, 1)])
            .unwrap_err();
        assert_eq!(
            err,
            PlacementError::OverBudget {
                tenant: 1,
                resource: "aluts",
                needed: 120,
                available: 100,
            }
        );
        let err = PlacementPlanner::new(BUDGET, 1)
            .plan_demands(&[demand(2, 10, 60, 1)])
            .unwrap_err();
        assert!(matches!(
            err,
            PlacementError::OverBudget {
                tenant: 2,
                resource: "dsps",
                ..
            }
        ));
    }

    #[test]
    fn zero_shards_is_typed() {
        assert!(matches!(
            PlacementPlanner::new(BUDGET, 0).plan_demands(&[]),
            Err(PlacementError::NoShards)
        ));
    }
}
