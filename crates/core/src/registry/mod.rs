//! The multi-tenant model registry: digest-pinned firmware variants with a
//! typed lifecycle, resource-aware placement, and zero-downtime hot-swap.
//!
//! The paper serves exactly one quantized firmware per board. Production
//! edge serving means many models sharing one shard fleet, each pinned by
//! its [`Firmware::content_digest`] so a deployed build can never drift
//! silently. This module family is that serving-plane subsystem:
//!
//! * [`ModelRegistry`] — tenants and their firmware variants, each variant
//!   walking a typed lifecycle FSM (`Staged → Shadow → Live → Retired`)
//!   with [`RegistryCounters`] ticking on every transition;
//! * [`placement`] — a [`PlacementPlanner`]
//!   that packs tenants onto engine shards using the Arria 10
//!   ALUT/DSP/M20K estimator as its bin-packing cost model (the rule4ml
//!   idea: estimation-driven deployment), with typed rejection when a
//!   tenant cannot fit;
//! * [`hotswap`] — shadow-scoring gates (bit-diff plus the Table II
//!   |q−float| ≤ 0.20 tolerance) and the stage → shadow → promote /
//!   rollback driver over a live [`crate::engine::ShardedEngine`].
//!
//! Every failure on these paths is a typed [`RegistryError`] or
//! [`placement::PlacementError`] — never a panic: an operator staging a
//! bad digest must get a diagnosis, not a dead serving plane.

pub mod hotswap;
pub mod placement;

pub use hotswap::{run_hot_swap, ShadowGate, ShadowStats, ShadowVerdict, SwapOutcome, SwapReport};
pub use placement::{PlacementError, PlacementMap, PlacementPlanner, ShardBudget, TenantDemand};

use reads_hls4ml::Firmware;
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Duration;

/// Tenant identity on the serving plane. Tenant [`DEFAULT_TENANT`] is the
/// pre-registry single-model behaviour and always exists.
pub type TenantId = u32;

/// The implicit tenant every pre-registry client is bound to. Placed on
/// every shard, weight 1 — a registry with only this tenant behaves
/// bit-identically to the single-firmware engine.
pub const DEFAULT_TENANT: TenantId = 0;

/// Lifecycle of one firmware variant within its tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum LifecycleState {
    /// Registered and digest-pinned, not yet receiving any traffic.
    Staged,
    /// Shadow-scored on live frames against the incumbent; its outputs
    /// are compared, never emitted.
    Shadow,
    /// The variant serving this tenant's traffic.
    Live,
    /// Rotated out (superseded on promote, or rolled back).
    Retired,
}

impl LifecycleState {
    /// Whether the FSM allows `self → to`. Promotion retires the previous
    /// live variant as a side effect; `Staged → Live` is allowed only for
    /// a tenant's *first* activation (checked by the registry, which sees
    /// the whole tenant, not this edge table).
    #[must_use]
    pub fn can_step(self, to: LifecycleState) -> bool {
        matches!(
            (self, to),
            (LifecycleState::Staged, LifecycleState::Shadow)
                | (LifecycleState::Staged, LifecycleState::Live)
                | (LifecycleState::Staged, LifecycleState::Retired)
                | (LifecycleState::Shadow, LifecycleState::Live)
                | (LifecycleState::Shadow, LifecycleState::Retired)
                | (LifecycleState::Live, LifecycleState::Retired)
        )
    }
}

/// Typed registry failures. Everything an operator or test can trigger on
/// the registry paths surfaces here instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The tenant id is not registered.
    UnknownTenant(TenantId),
    /// The tenant exists but has no variant with this digest.
    UnknownDigest {
        /// Tenant searched.
        tenant: TenantId,
        /// Digest that was not found.
        digest: u64,
    },
    /// A firmware's recomputed content digest does not match the digest it
    /// was pinned under (bit rot, or the wrong artifact shipped).
    DigestMismatch {
        /// Tenant owning the variant.
        tenant: TenantId,
        /// Digest the variant was registered under.
        expected: u64,
        /// Digest the firmware actually hashes to.
        actual: u64,
    },
    /// The tenant already has a variant with this digest.
    DuplicateDigest {
        /// Tenant owning the variant.
        tenant: TenantId,
        /// The colliding digest.
        digest: u64,
    },
    /// The tenant id is already registered.
    DuplicateTenant(TenantId),
    /// The lifecycle FSM forbids this transition.
    InvalidTransition {
        /// Tenant owning the variant.
        tenant: TenantId,
        /// Variant being transitioned.
        digest: u64,
        /// Current state.
        from: LifecycleState,
        /// Requested state.
        to: LifecycleState,
    },
    /// The tenant has no live variant to serve or compare against.
    NoLiveVariant(TenantId),
    /// A tenant weight of zero would starve the tenant forever.
    ZeroWeight(TenantId),
    /// The engine's control plane is gone (the engine finished or its
    /// workers exited) — no further staging or promotion is possible.
    EngineStopped,
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownTenant(t) => write!(f, "unknown tenant {t}"),
            RegistryError::UnknownDigest { tenant, digest } => {
                write!(f, "tenant {tenant} has no variant {digest:016x}")
            }
            RegistryError::DigestMismatch {
                tenant,
                expected,
                actual,
            } => write!(
                f,
                "tenant {tenant}: firmware hashes to {actual:016x}, pinned as {expected:016x}"
            ),
            RegistryError::DuplicateDigest { tenant, digest } => {
                write!(f, "tenant {tenant} already has variant {digest:016x}")
            }
            RegistryError::DuplicateTenant(t) => write!(f, "tenant {t} already registered"),
            RegistryError::InvalidTransition {
                tenant,
                digest,
                from,
                to,
            } => write!(
                f,
                "tenant {tenant} variant {digest:016x}: invalid transition {from:?} -> {to:?}"
            ),
            RegistryError::NoLiveVariant(t) => write!(f, "tenant {t} has no live variant"),
            RegistryError::ZeroWeight(t) => write!(f, "tenant {t}: weight must be >= 1"),
            RegistryError::EngineStopped => write!(f, "engine control plane is stopped"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// One digest-pinned firmware variant of a tenant.
#[derive(Debug, Clone)]
pub struct VariantRecord {
    /// Content digest the variant is pinned under.
    pub digest: u64,
    /// The functional content.
    pub firmware: Firmware,
    /// Where the variant sits in its lifecycle.
    pub state: LifecycleState,
}

/// One tenant: identity, scheduling policy, and its variant history.
#[derive(Debug, Clone)]
pub struct TenantRecord {
    /// Tenant id (the wire-level selector).
    pub id: TenantId,
    /// Human-readable name for the console.
    pub name: String,
    /// Deficit-round-robin weight in the shard scheduler (≥ 1).
    pub weight: u32,
    /// Per-frame queue-to-verdict latency SLO; misses are counted per
    /// tenant per shard (`None` = unbounded).
    pub slo: Option<Duration>,
    variants: Vec<VariantRecord>,
}

impl TenantRecord {
    /// All variants, registration order.
    #[must_use]
    pub fn variants(&self) -> &[VariantRecord] {
        &self.variants
    }

    /// The live variant, if any.
    #[must_use]
    pub fn live(&self) -> Option<&VariantRecord> {
        self.variants
            .iter()
            .find(|v| v.state == LifecycleState::Live)
    }

    /// The variant currently shadow-scoring, if any.
    #[must_use]
    pub fn shadow(&self) -> Option<&VariantRecord> {
        self.variants
            .iter()
            .find(|v| v.state == LifecycleState::Shadow)
    }
}

/// Transition counters: one tick per lifecycle event, so a promotion that
/// happened is auditable even after the variants rotate away.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RegistryCounters {
    /// Variants registered (entered `Staged`).
    pub registered: u64,
    /// Shadows started (`Staged → Shadow`).
    pub shadows_started: u64,
    /// Promotions (`Shadow → Live`, or a tenant's first `Staged → Live`).
    pub promoted: u64,
    /// Rollbacks (`Shadow → Retired` after a failed gate).
    pub rolled_back: u64,
    /// Variants retired for any reason (supersede, rollback, explicit).
    pub retired: u64,
}

/// The registry: tenants keyed by id, each holding digest-pinned variants.
#[derive(Debug, Clone, Default)]
pub struct ModelRegistry {
    tenants: BTreeMap<TenantId, TenantRecord>,
    counters: RegistryCounters,
}

impl ModelRegistry {
    /// Empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a tenant.
    ///
    /// # Errors
    /// [`RegistryError::DuplicateTenant`] when the id is taken;
    /// [`RegistryError::ZeroWeight`] when `weight` is zero.
    pub fn add_tenant(
        &mut self,
        id: TenantId,
        name: impl Into<String>,
        weight: u32,
        slo: Option<Duration>,
    ) -> Result<(), RegistryError> {
        if weight == 0 {
            return Err(RegistryError::ZeroWeight(id));
        }
        if self.tenants.contains_key(&id) {
            return Err(RegistryError::DuplicateTenant(id));
        }
        self.tenants.insert(
            id,
            TenantRecord {
                id,
                name: name.into(),
                weight,
                slo,
                variants: Vec::new(),
            },
        );
        Ok(())
    }

    /// Registers a firmware variant for a tenant, pinned by its content
    /// digest, in state [`LifecycleState::Staged`]. Returns the digest.
    ///
    /// # Errors
    /// [`RegistryError::UnknownTenant`] / [`RegistryError::DuplicateDigest`].
    pub fn register(&mut self, tenant: TenantId, firmware: Firmware) -> Result<u64, RegistryError> {
        let digest = firmware.content_digest();
        let rec = self
            .tenants
            .get_mut(&tenant)
            .ok_or(RegistryError::UnknownTenant(tenant))?;
        if rec.variants.iter().any(|v| v.digest == digest) {
            return Err(RegistryError::DuplicateDigest { tenant, digest });
        }
        rec.variants.push(VariantRecord {
            digest,
            firmware,
            state: LifecycleState::Staged,
        });
        self.counters.registered += 1;
        Ok(digest)
    }

    /// Convenience for bootstrap: registers a variant and activates it as
    /// the tenant's first live build in one step.
    ///
    /// # Errors
    /// As [`ModelRegistry::register`], plus
    /// [`RegistryError::InvalidTransition`] when the tenant already has a
    /// live variant (use the shadow → promote path instead).
    pub fn register_live(
        &mut self,
        tenant: TenantId,
        firmware: Firmware,
    ) -> Result<u64, RegistryError> {
        let digest = self.register(tenant, firmware)?;
        self.transition(tenant, digest, LifecycleState::Live)?;
        Ok(digest)
    }

    /// Looks a tenant up.
    ///
    /// # Errors
    /// [`RegistryError::UnknownTenant`].
    pub fn tenant(&self, id: TenantId) -> Result<&TenantRecord, RegistryError> {
        self.tenants
            .get(&id)
            .ok_or(RegistryError::UnknownTenant(id))
    }

    /// All tenants in id order.
    pub fn tenants(&self) -> impl Iterator<Item = &TenantRecord> {
        self.tenants.values()
    }

    /// The tenant's live variant.
    ///
    /// # Errors
    /// [`RegistryError::UnknownTenant`] / [`RegistryError::NoLiveVariant`].
    pub fn live(&self, tenant: TenantId) -> Result<&VariantRecord, RegistryError> {
        self.tenant(tenant)?
            .live()
            .ok_or(RegistryError::NoLiveVariant(tenant))
    }

    /// Looks a variant up by digest, verifying the stored firmware still
    /// hashes to the digest it was pinned under.
    ///
    /// # Errors
    /// [`RegistryError::UnknownTenant`] / [`RegistryError::UnknownDigest`] /
    /// [`RegistryError::DigestMismatch`].
    pub fn variant(&self, tenant: TenantId, digest: u64) -> Result<&VariantRecord, RegistryError> {
        let v = self
            .tenant(tenant)?
            .variants
            .iter()
            .find(|v| v.digest == digest)
            .ok_or(RegistryError::UnknownDigest { tenant, digest })?;
        let actual = v.firmware.content_digest();
        if actual != digest {
            return Err(RegistryError::DigestMismatch {
                tenant,
                expected: digest,
                actual,
            });
        }
        Ok(v)
    }

    /// Starts shadow-scoring a staged variant (`Staged → Shadow`). At most
    /// one variant per tenant shadows at a time.
    ///
    /// # Errors
    /// Lookup errors, or [`RegistryError::InvalidTransition`] when the
    /// variant is not staged or another shadow is already running.
    pub fn start_shadow(&mut self, tenant: TenantId, digest: u64) -> Result<(), RegistryError> {
        if let Some(other) = self.tenant(tenant)?.shadow() {
            return Err(RegistryError::InvalidTransition {
                tenant,
                digest: other.digest,
                from: LifecycleState::Shadow,
                to: LifecycleState::Shadow,
            });
        }
        self.transition(tenant, digest, LifecycleState::Shadow)
    }

    /// Promotes a shadowing variant to live (`Shadow → Live`), retiring
    /// the previous incumbent. Returns the retired incumbent's digest
    /// (`None` for a first activation).
    ///
    /// # Errors
    /// Lookup errors or [`RegistryError::InvalidTransition`].
    pub fn promote(&mut self, tenant: TenantId, digest: u64) -> Result<Option<u64>, RegistryError> {
        let previous = self.tenant(tenant)?.live().map(|v| v.digest);
        if let Some(prev) = previous {
            if prev == digest {
                return Err(RegistryError::InvalidTransition {
                    tenant,
                    digest,
                    from: LifecycleState::Live,
                    to: LifecycleState::Live,
                });
            }
        }
        self.transition(tenant, digest, LifecycleState::Live)?;
        Ok(previous)
    }

    /// Rolls a shadowing variant back (`Shadow → Retired`): the candidate
    /// failed its gate; the incumbent is untouched.
    ///
    /// # Errors
    /// Lookup errors or [`RegistryError::InvalidTransition`].
    pub fn rollback(&mut self, tenant: TenantId, digest: u64) -> Result<(), RegistryError> {
        let from = self.variant(tenant, digest)?.state;
        if from != LifecycleState::Shadow {
            return Err(RegistryError::InvalidTransition {
                tenant,
                digest,
                from,
                to: LifecycleState::Retired,
            });
        }
        self.transition(tenant, digest, LifecycleState::Retired)?;
        self.counters.rolled_back += 1;
        Ok(())
    }

    /// Applies one lifecycle transition under the FSM, ticking counters.
    ///
    /// # Errors
    /// Lookup errors or [`RegistryError::InvalidTransition`].
    pub fn transition(
        &mut self,
        tenant: TenantId,
        digest: u64,
        to: LifecycleState,
    ) -> Result<(), RegistryError> {
        let has_live = self.tenant(tenant)?.live().is_some();
        let from = self.variant(tenant, digest)?.state;
        let first_activation = from == LifecycleState::Staged && to == LifecycleState::Live;
        if !from.can_step(to) || (first_activation && has_live) {
            return Err(RegistryError::InvalidTransition {
                tenant,
                digest,
                from,
                to,
            });
        }
        // Promotion retires the incumbent atomically with the new live.
        if to == LifecycleState::Live && !first_activation {
            let rec = self.tenants.get_mut(&tenant).expect("checked above");
            for v in &mut rec.variants {
                if v.state == LifecycleState::Live {
                    v.state = LifecycleState::Retired;
                    self.counters.retired += 1;
                }
            }
        }
        let rec = self.tenants.get_mut(&tenant).expect("checked above");
        let v = rec
            .variants
            .iter_mut()
            .find(|v| v.digest == digest)
            .expect("checked above");
        v.state = to;
        match to {
            LifecycleState::Shadow => self.counters.shadows_started += 1,
            LifecycleState::Live => self.counters.promoted += 1,
            LifecycleState::Retired => self.counters.retired += 1,
            LifecycleState::Staged => {}
        }
        Ok(())
    }

    /// Transition counters so far.
    #[must_use]
    pub fn counters(&self) -> RegistryCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reads_hls4ml::{convert, profile_model, HlsConfig};
    use reads_nn::models;

    fn firmware(seed: u64) -> Firmware {
        let m = models::reads_mlp(seed);
        let frames = vec![vec![0.2; 259]];
        let p = profile_model(&m, &frames);
        convert(&m, &p, &HlsConfig::paper_default())
    }

    #[test]
    fn lifecycle_walks_stage_shadow_live_retire() {
        let mut reg = ModelRegistry::new();
        reg.add_tenant(0, "default", 1, None).unwrap();
        let a = reg.register_live(0, firmware(1)).unwrap();
        let b = reg.register(0, firmware(2)).unwrap();
        assert_ne!(a, b, "distinct seeds must pin distinct digests");
        assert_eq!(reg.variant(0, b).unwrap().state, LifecycleState::Staged);
        reg.start_shadow(0, b).unwrap();
        assert_eq!(reg.tenant(0).unwrap().shadow().unwrap().digest, b);
        let retired = reg.promote(0, b).unwrap();
        assert_eq!(retired, Some(a));
        assert_eq!(reg.live(0).unwrap().digest, b);
        assert_eq!(reg.variant(0, a).unwrap().state, LifecycleState::Retired);
        let c = reg.counters();
        assert_eq!(c.registered, 2);
        assert_eq!(c.shadows_started, 1);
        assert_eq!(c.promoted, 2, "bootstrap activation + promotion");
        assert_eq!(c.retired, 1);
        assert_eq!(c.rolled_back, 0);
    }

    #[test]
    fn rollback_retires_candidate_and_keeps_incumbent() {
        let mut reg = ModelRegistry::new();
        reg.add_tenant(0, "default", 1, None).unwrap();
        let a = reg.register_live(0, firmware(1)).unwrap();
        let b = reg.register(0, firmware(2)).unwrap();
        reg.start_shadow(0, b).unwrap();
        reg.rollback(0, b).unwrap();
        assert_eq!(reg.live(0).unwrap().digest, a);
        assert_eq!(reg.variant(0, b).unwrap().state, LifecycleState::Retired);
        assert_eq!(reg.counters().rolled_back, 1);
    }

    #[test]
    fn typed_errors_not_panics() {
        let mut reg = ModelRegistry::new();
        assert!(matches!(
            reg.tenant(7),
            Err(RegistryError::UnknownTenant(7))
        ));
        reg.add_tenant(1, "unet", 2, None).unwrap();
        assert_eq!(
            reg.add_tenant(1, "again", 1, None),
            Err(RegistryError::DuplicateTenant(1))
        );
        assert_eq!(
            reg.add_tenant(2, "zero", 0, None),
            Err(RegistryError::ZeroWeight(2))
        );
        let fw = firmware(3);
        let d = reg.register(1, fw.clone()).unwrap();
        assert_eq!(
            reg.register(1, fw),
            Err(RegistryError::DuplicateDigest {
                tenant: 1,
                digest: d
            })
        );
        assert!(matches!(reg.live(1), Err(RegistryError::NoLiveVariant(1))));
        assert!(matches!(
            reg.variant(1, 0xDEAD),
            Err(RegistryError::UnknownDigest {
                tenant: 1,
                digest: 0xDEAD
            })
        ));
        // Live → Shadow is not an FSM edge.
        reg.transition(1, d, LifecycleState::Live).unwrap();
        assert!(matches!(
            reg.transition(1, d, LifecycleState::Shadow),
            Err(RegistryError::InvalidTransition { .. })
        ));
    }

    #[test]
    fn second_concurrent_shadow_is_rejected() {
        let mut reg = ModelRegistry::new();
        reg.add_tenant(0, "default", 1, None).unwrap();
        reg.register_live(0, firmware(1)).unwrap();
        let b = reg.register(0, firmware(2)).unwrap();
        let c = reg.register(0, firmware(3)).unwrap();
        reg.start_shadow(0, b).unwrap();
        assert!(matches!(
            reg.start_shadow(0, c),
            Err(RegistryError::InvalidTransition { .. })
        ));
    }

    #[test]
    fn digest_mismatch_is_detected() {
        let mut reg = ModelRegistry::new();
        reg.add_tenant(0, "default", 1, None).unwrap();
        let d = reg.register(0, firmware(1)).unwrap();
        // Corrupt the stored firmware behind the registry's back.
        let rec = reg.tenants.get_mut(&0).unwrap();
        rec.variants[0].firmware.input_len += 1;
        assert!(matches!(
            reg.variant(0, d),
            Err(RegistryError::DigestMismatch { .. })
        ));
    }
}
