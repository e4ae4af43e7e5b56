//! Content-addressed cache keys and the service's cache layers.
//!
//! Two in-memory layers, each a [`SharedLru`] from `mpi_dfa_core::cache`
//! bounded in bytes (`--cache-mem` MiB per layer):
//!
//! 1. **`irs`** — whole-program [`ProgramIr`]s keyed by the 128-bit FNV
//!    hash of the *exact source text* ([`source_key`]): identical text ⇒
//!    identical IR, statement ids and source spans included. Any other
//!    text is compiled and lowered from scratch. An IR weighs
//!    [`ir_weight`], an estimate from its CFG node count.
//! 2. **`results`** — rendered result JSON keyed by [`result_key`], which
//!    embeds **every analysis-configuration input** (kind, source hash,
//!    context, clone level, independents/dependents, matching, mode,
//!    degrade mode, deterministic budget caps, pass bound). A degraded or
//!    differently-configured result can therefore never be served for a
//!    different request — flipping any knob changes the key. Results whose
//!    outcome can depend on wall-clock (a `budget_ms` deadline) get **no**
//!    key at all and bypass the cache entirely. A result weighs its
//!    length in bytes.
//!
//! The optional [`DiskStore`] persists only the `results` layer (namespace
//! `"results"`): IRs are cheap to rebuild, while results carry the
//! expensive fixpoints across process restarts.

use crate::proto::{Request, RequestKind};
use mpi_dfa_core::cache::{DiskStore, SharedLru};
use mpi_dfa_core::hash::Hasher128;
use mpi_dfa_graph::icfg::ProgramIr;
use std::sync::Arc;

/// Bump when any cached representation or key schema changes; keys embed
/// it, so stale on-disk entries from older builds simply miss.
/// v2: on-disk entries gained the checksummed `DiskStore` frame (older
/// unframed files are quarantined by the startup fsck, never misread).
/// v3: requests gained the `verify` kind and its `nprocs`/`schedules`
/// fields, which joined both key schemas.
/// v4: requests gained the `analyze-delta` kind and the demand-driven
/// `at` field; `at` fills the formerly reserved key slot, so a demand
/// answer (a slice) can never be served for a full-solve key or vice
/// versa. `prev` (the seed's request id) stays **out** of the key:
/// incremental answers are byte-identical to cold ones.
/// v5: the `solver` field is gone and every full solve is round-robin.
/// Entries written under v4 may embed another strategy's pass and work
/// counters, so none of them is served.
/// v6: the per-procedure CFG layer is gone. A v5 `verify` result may have
/// been rendered from a CFG lowered for another program, whose source
/// spans place findings at that program's lines, so none of them is
/// served.
pub const CACHE_SCHEMA_VERSION: u64 = 6;

/// Key for a whole-program IR: exact source text.
pub fn source_key(source: &str) -> u128 {
    Hasher128::new()
        .write_str("ir")
        .write_u64(CACHE_SCHEMA_VERSION)
        .write_str(source)
        .finish()
}

/// Key for a finished result, or `None` when the request must bypass the
/// cache:
///
/// * `budget_ms` or `deadline_ms` present — a wall-clock deadline makes
///   the outcome timing-dependent, so the "hit ≡ recompute" determinism
///   contract cannot hold;
/// * `ping` / `shutdown` / `cache-stats` — no computed result to cache
///   (cache-stats in particular reports live counters).
///
/// Deterministic budget caps (`max_visits`, `max_fact_bytes`,
/// `max_passes`) *are* cacheable and are part of the key.
///
/// `prev` (on `analyze-delta`, the id of an earlier request) is excluded:
/// nothing reads it, so it must not fragment the cache. The demand-driven
/// `at` node **is** included (in the formerly reserved slot and again at
/// the tail): a demand answer covers only a slice of the program and must
/// never be served for a full-solve key or vice versa.
pub fn result_key(req: &Request, source_hash: u128, effective_max_passes: u64) -> Option<u128> {
    if req.budget_ms.is_some() || req.deadline_ms.is_some() {
        return None;
    }
    if matches!(
        req.kind,
        RequestKind::Ping | RequestKind::Shutdown | RequestKind::CacheStats | RequestKind::Metrics
    ) {
        return None;
    }
    let mut h = Hasher128::new();
    h.write_str("result")
        .write_u64(CACHE_SCHEMA_VERSION)
        .write_str(req.kind.as_str())
        .write_u64(source_hash as u64)
        .write_u64((source_hash >> 64) as u64)
        .write_opt_u64(req.at) // demand queries never alias full solves
        .write_str(req.context.as_deref().unwrap_or(""))
        .write_u64(req.clone_level as u64)
        .write_strs(&req.ind)
        .write_strs(&req.dep)
        .write_str(req.var.as_deref().unwrap_or(""))
        .write_str(req.row.as_deref().unwrap_or(""))
        .write_opt_u64(req.nprocs)
        .write_opt_u64(req.schedules)
        .write_str(req.matching_str())
        .write_str(&req.mode)
        .write_str(req.degrade_str())
        .write_opt_u64(req.max_visits)
        .write_opt_u64(req.max_fact_bytes)
        .write_u64(effective_max_passes);
    Some(h.finish())
}

/// The shard-routing key for one request: where [`result_key`] answers
/// "may this be cached?", this answers "which shard owns it?". It hashes
/// the same analysis-configuration inputs but deliberately keeps hashing
/// when `budget_ms`/`deadline_ms` force a cache bypass — a retried or
/// hedged bypass request must still land on the same shard family — and
/// it hashes the raw `program`/`source` fields instead of resolved text,
/// so the router never has to compile anything. `id` and `prev` are
/// excluded for the same reason `prev` is excluded from [`result_key`].
pub fn routing_key(req: &Request) -> u128 {
    let mut h = Hasher128::new();
    h.write_str("routing")
        .write_u64(CACHE_SCHEMA_VERSION)
        .write_str(req.kind.as_str())
        .write_str(req.program.as_deref().unwrap_or(""))
        .write_str(req.source.as_deref().unwrap_or(""))
        .write_str(req.context.as_deref().unwrap_or(""))
        .write_u64(req.clone_level as u64)
        .write_strs(&req.ind)
        .write_strs(&req.dep)
        .write_str(req.var.as_deref().unwrap_or(""))
        .write_str(req.row.as_deref().unwrap_or(""))
        .write_opt_u64(req.nprocs)
        .write_opt_u64(req.schedules)
        .write_str(req.matching_str())
        .write_str(&req.mode)
        .write_str(req.degrade_str())
        .write_opt_u64(req.max_visits)
        .write_opt_u64(req.max_fact_bytes)
        .write_opt_u64(req.max_passes)
        .write_opt_u64(req.at);
    h.finish()
}

/// Bytes one CFG node of a [`ProgramIr`] stands for: its `CfgNode` with
/// the expression ASTs and operand lists it owns, its share of the
/// compiled unit, the location table, the call graph and the edge lists.
/// Measured live bytes per node run 1.7–2.3 KiB over the bundled programs
/// and generated ones (`tests/ir_weight.rs` holds the estimate within 2×).
const IR_BYTES_PER_NODE: usize = 2048;

/// The weight of an IR in the `irs` layer: an estimate of the bytes it
/// holds, from the node count it already has.
pub fn ir_weight(ir: &ProgramIr) -> usize {
    let nodes: usize = ir.cfgs.iter().map(|c| c.num_nodes()).sum();
    nodes.saturating_mul(IR_BYTES_PER_NODE)
}

/// The two in-memory layers plus the optional on-disk result store.
#[derive(Debug, Clone)]
pub struct ServiceCaches {
    pub irs: SharedLru<Arc<ProgramIr>>,
    pub results: SharedLru<String>,
    pub disk: Option<DiskStore>,
}

/// Disk namespace holding rendered result JSON.
pub const RESULTS_NAMESPACE: &str = "results";

impl ServiceCaches {
    /// `budget` bounds each in-memory layer in bytes; 0 disables
    /// in-memory caching entirely.
    pub fn new(budget: usize, disk: Option<DiskStore>) -> Self {
        ServiceCaches {
            irs: SharedLru::new("ir", budget),
            results: SharedLru::new("result", budget),
            disk,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::parse_request;

    fn req(extra: &str) -> Request {
        parse_request(&format!(
            r#"{{"id":1,"kind":"analyze","program":"figure1","ind":["x"],"dep":["f"]{extra}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn any_config_knob_changes_the_result_key() {
        let base = result_key(&req(""), 42, 100).unwrap();
        for variant in [
            r#","clone":1"#,
            r#","context":"other""#,
            r#","ind":["x","y"]"#,
            r#","dep":["g"]"#,
            r#","matching":"naive""#,
            r#","mode":"global""#,
            r#","degrade":"off""#,
            r#","max_visits":10"#,
            r#","max_fact_bytes":1024"#,
            r#","nprocs":4"#,
            r#","schedules":16"#,
        ] {
            let k = result_key(&req(variant), 42, 100).unwrap();
            assert_ne!(k, base, "variant {variant} must change the key");
        }
        assert_ne!(result_key(&req(""), 43, 100), Some(base), "source hash");
        assert_ne!(result_key(&req(""), 42, 99), Some(base), "max_passes");
    }

    #[test]
    fn demand_and_full_solve_keys_never_alias() {
        let full = result_key(&req(""), 42, 100).unwrap();
        let demand = result_key(&req(r#","at":3"#), 42, 100).unwrap();
        assert_ne!(demand, full, "a slice answer must never hit a full key");
        assert_ne!(
            result_key(&req(r#","at":0"#), 42, 100).unwrap(),
            full,
            "node 0 must still be distinguished from `no query`"
        );
        assert_ne!(
            result_key(&req(r#","at":4"#), 42, 100).unwrap(),
            demand,
            "different query nodes are different results"
        );
    }

    #[test]
    fn delta_keys_by_kind_but_never_by_seed_id() {
        let delta = |extra: &str| {
            parse_request(&format!(
                r#"{{"id":1,"kind":"analyze-delta","source":"program p sub main() {{ }}","ind":["x"],"dep":["f"],"prev":41{extra}}}"#
            ))
            .unwrap()
        };
        let a = result_key(&delta(""), 42, 100).unwrap();
        let full = result_key(&req(""), 42, 100).unwrap();
        assert_ne!(a, full, "kind is folded into the key");
        // `prev` is read by nothing, so it must NOT fragment the cache.
        let mut b = delta("");
        b.prev = Some(99);
        assert_eq!(result_key(&b, 42, 100), Some(a));
    }

    #[test]
    fn list_boundaries_do_not_alias() {
        // ind=["x","y"] dep=["f"] must differ from ind=["x"] dep=["y","f"].
        let a = req(r#","ind":["x","y"],"dep":["f"]"#);
        let b = req(r#","ind":["x"],"dep":["y","f"]"#);
        // Both parse to valid requests; re-build explicitly to override the
        // defaults injected by `req`'s fixed prefix.
        assert_ne!(result_key(&a, 1, 1), result_key(&b, 1, 1));
    }

    #[test]
    fn wall_clock_budgets_bypass() {
        assert!(result_key(&req(r#","budget_ms":5"#), 42, 100).is_none());
        assert!(result_key(&req(r#","deadline_ms":5"#), 42, 100).is_none());
        assert!(result_key(&req(""), 42, 100).is_some());
        let ping = parse_request(r#"{"id":1,"kind":"ping"}"#).unwrap();
        assert!(result_key(&ping, 0, 100).is_none());
        let stats = parse_request(r#"{"id":1,"kind":"cache-stats"}"#).unwrap();
        assert!(result_key(&stats, 0, 100).is_none());
    }

    #[test]
    fn source_keys_are_stable_and_distinct() {
        assert_eq!(source_key("program p"), source_key("program p"));
        assert_ne!(source_key("program p"), source_key("program q"));
    }
}
