//! On-disk Table-1 row cache for the `repro` driver (`--cache-dir`).
//!
//! Keys are content-addressed: the 128-bit FNV hash of the row's *entire
//! analysis configuration* — the spec's identity and inputs, the bundled
//! program's exact source text, and the governor knobs that can change the
//! published numbers (deterministic budget caps, degrade mode, pass
//! bound). Flipping any knob — including `--degrade` — changes the key, so
//! a degraded row can never be served for a precise request (the same
//! contract as the service's result cache in `crates/service`).
//!
//! Runs under a wall-clock deadline (`--budget-ms`) get **no** key: their
//! tier outcome is timing-dependent, so "hit ≡ recompute" cannot hold and
//! they bypass the cache entirely.
//!
//! Records are a versioned plain-text format (the workspace is
//! dependency-free); any parse failure is treated as a miss, so stale or
//! truncated files only cost a recompute. A cached row restores with
//! `budget_spent.elapsed == 0` — wall clock is an observation of the
//! original run, not part of the result, and a hit does no analysis work.

use crate::experiments::ExperimentSpec;
use crate::programs;
use crate::runner::{MeasuredMode, MeasuredRow};
use mpi_dfa_analyses::governor::{AnalysisProvenance, GovernorConfig, Tier};
use mpi_dfa_core::budget::BudgetSpent;
use mpi_dfa_core::cache::DiskStore;
use mpi_dfa_core::hash::Hasher128;
use std::time::Duration;

/// Disk namespace holding serialized rows.
pub const ROWS_NAMESPACE: &str = "table1-rows";

/// Bump when the record format or key schema changes; old entries miss.
/// v2: every full solve is round-robin. A v1 row written by a
/// `--solver region` run carries that engine's Iter column, so none is
/// served.
pub const ROW_SCHEMA_VERSION: u64 = 2;

/// A [`DiskStore`]-backed cache of measured Table-1 rows.
#[derive(Debug)]
pub struct RowCache {
    store: DiskStore,
}

impl RowCache {
    /// Open (creating directories as needed) a row cache rooted at `dir`.
    pub fn open(dir: &str) -> Result<RowCache, String> {
        Ok(RowCache {
            store: DiskStore::open(dir).map_err(|e| format!("--cache-dir {dir}: {e}"))?,
        })
    }

    /// The content-addressed key for `spec` under `gov`, or `None` when
    /// the run must bypass the cache (wall-clock deadline budget).
    pub fn key(spec: &ExperimentSpec, gov: Option<&GovernorConfig>) -> Option<u128> {
        if gov.is_some_and(|g| g.budget.deadline.is_some()) {
            return None;
        }
        // Unknown program: nothing to hash; the runner will fail loudly.
        let source = programs::source(spec.program)?;
        let mut h = Hasher128::new();
        h.write_str("table1-row")
            .write_u64(ROW_SCHEMA_VERSION)
            .write_str(spec.id)
            .write_str(spec.program)
            .write_str(source)
            .write_str(spec.context)
            .write_u64(spec.clone_level as u64)
            .write_strs(spec.independents)
            .write_strs(spec.dependents)
            .write_u64(spec.num_indeps);
        match gov {
            None => {
                h.write_str("ungoverned");
            }
            Some(g) => {
                h.write_str("governed")
                    .write_u64(g.clone_level as u64)
                    .write_str(&format!("{:?}", g.matching))
                    .write_opt_u64(g.budget.max_work)
                    .write_opt_u64(g.budget.max_fact_bytes)
                    .write_str(&format!("{:?}", g.degrade))
                    .write_u64(g.max_passes as u64);
            }
        }
        Some(h.finish())
    }

    /// Fetch a cached row for `spec`; any missing, corrupt, or
    /// version-skewed record is a miss.
    pub fn get(&self, key: u128, spec: &ExperimentSpec) -> Option<MeasuredRow> {
        let bytes = self.store.get(ROWS_NAMESPACE, key)?;
        let text = String::from_utf8(bytes).ok()?;
        parse_row(&text, spec)
    }

    /// Store a freshly measured row; failures are silent (they only cost
    /// future misses).
    pub fn put(&self, key: u128, row: &MeasuredRow) {
        let _ = self
            .store
            .put(ROWS_NAMESPACE, key, render_row(row).as_bytes());
    }
}

fn render_mode(m: &MeasuredMode) -> String {
    format!(
        "{} {} {} {} {} {} {} {} {}",
        m.iterations,
        m.active_bytes,
        m.deriv_bytes,
        m.active_locs,
        m.converged,
        m.node_visits,
        m.meets,
        m.comm_evals,
        m.worklist_peak
    )
}

fn render_row(row: &MeasuredRow) -> String {
    let prov = match &row.provenance {
        None => "none".to_string(),
        Some(p) => format!(
            "{} {} {} {}",
            p.tier,
            p.saturated,
            p.budget_spent.work,
            // Reason last: free text, newlines escaped.
            p.degradation_reason
                .as_deref()
                .map(|r| r.replace('\\', "\\\\").replace('\n', "\\n"))
                .unwrap_or_else(|| "-".to_string()),
        ),
    };
    format!(
        "rowcache v{ROW_SCHEMA_VERSION}\nicfg {}\nmpi {}\ncomm_edges {}\nprov {}\n",
        render_mode(&row.icfg),
        render_mode(&row.mpi),
        row.comm_edges,
        prov
    )
}

fn parse_mode(line: &str) -> Option<MeasuredMode> {
    let mut it = line.split_ascii_whitespace();
    let mut num = || it.next()?.parse::<u64>().ok();
    let iterations = num()?;
    let active_bytes = num()?;
    let deriv_bytes = num()?;
    let active_locs = num()?;
    let converged = match it.next()? {
        "true" => true,
        "false" => false,
        _ => return None,
    };
    let mut num = || it.next()?.parse::<u64>().ok();
    let node_visits = num()?;
    let meets = num()?;
    let comm_evals = num()?;
    let worklist_peak = num()?;
    Some(MeasuredMode {
        iterations,
        active_bytes,
        deriv_bytes,
        active_locs,
        converged,
        node_visits,
        meets,
        comm_evals,
        worklist_peak,
    })
}

fn parse_row(text: &str, spec: &ExperimentSpec) -> Option<MeasuredRow> {
    let mut lines = text.lines();
    if lines.next()? != format!("rowcache v{ROW_SCHEMA_VERSION}") {
        return None;
    }
    let icfg = parse_mode(lines.next()?.strip_prefix("icfg ")?)?;
    let mpi = parse_mode(lines.next()?.strip_prefix("mpi ")?)?;
    let comm_edges: usize = lines.next()?.strip_prefix("comm_edges ")?.parse().ok()?;
    let prov_line = lines.next()?.strip_prefix("prov ")?;
    let provenance = if prov_line == "none" {
        None
    } else {
        let mut it = prov_line.splitn(4, ' ');
        let tier = match it.next()? {
            "T0" => Tier::T0,
            "T1" => Tier::T1,
            "T2" => Tier::T2,
            _ => return None,
        };
        let saturated = match it.next()? {
            "true" => true,
            "false" => false,
            _ => return None,
        };
        let work: u64 = it.next()?.parse().ok()?;
        let reason = match it.next()? {
            "-" => None,
            r => Some(r.replace("\\n", "\n").replace("\\\\", "\\")),
        };
        Some(AnalysisProvenance {
            tier,
            budget_spent: BudgetSpent {
                work,
                elapsed: Duration::ZERO,
            },
            degradation_reason: reason,
            saturated,
        })
    };
    Some(MeasuredRow {
        spec: spec.clone(),
        icfg,
        mpi,
        comm_edges,
        provenance,
        cache: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::by_id;
    use crate::runner;
    use mpi_dfa_analyses::governor::DegradeMode;
    use mpi_dfa_core::budget::Budget;

    fn tmpdir(tag: &str) -> String {
        let d = std::env::temp_dir().join(format!("mpi-dfa-rowcache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d.to_string_lossy().into_owned()
    }

    #[test]
    fn round_trips_a_measured_row_exactly() {
        let spec = by_id("Biostat").unwrap();
        let row = runner::run_experiment(&spec);
        let dir = tmpdir("roundtrip");
        let cache = RowCache::open(&dir).unwrap();
        let key = RowCache::key(&spec, None).unwrap();
        assert!(cache.get(key, &spec).is_none(), "cold store is empty");
        cache.put(key, &row);
        let back = cache.get(key, &spec).unwrap();
        assert_eq!(back.icfg, row.icfg);
        assert_eq!(back.mpi, row.mpi);
        assert_eq!(back.comm_edges, row.comm_edges);
        assert_eq!(back.provenance, row.provenance);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn governed_provenance_round_trips_without_wall_clock() {
        let spec = by_id("Biostat").unwrap();
        let gov = GovernorConfig::default();
        let row = runner::run_experiment_governed(&spec, &gov).unwrap();
        let dir = tmpdir("prov");
        let cache = RowCache::open(&dir).unwrap();
        let key = RowCache::key(&spec, Some(&gov)).unwrap();
        cache.put(key, &row);
        let back = cache.get(key, &spec).unwrap();
        let p = back.provenance.unwrap();
        let q = row.provenance.unwrap();
        assert_eq!(p.tier, q.tier);
        assert_eq!(p.saturated, q.saturated);
        assert_eq!(p.budget_spent.work, q.budget_spent.work);
        assert_eq!(p.degradation_reason, q.degradation_reason);
        assert_eq!(p.budget_spent.elapsed, Duration::ZERO, "no wall clock");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn any_governor_knob_changes_the_key() {
        // Satellite regression: flipping `--degrade` (or any deterministic
        // budget cap) must be a MISS, never a stale hit.
        let spec = by_id("Biostat").unwrap();
        let base = GovernorConfig::default();
        let k0 = RowCache::key(&spec, Some(&base)).unwrap();
        let degrade_off = GovernorConfig {
            degrade: DegradeMode::Off,
            ..base.clone()
        };
        assert_ne!(k0, RowCache::key(&spec, Some(&degrade_off)).unwrap());
        let capped = GovernorConfig {
            budget: Budget::unlimited().with_max_work(10),
            ..base.clone()
        };
        assert_ne!(k0, RowCache::key(&spec, Some(&capped)).unwrap());
        let fewer_passes = GovernorConfig {
            max_passes: 3,
            ..base.clone()
        };
        assert_ne!(k0, RowCache::key(&spec, Some(&fewer_passes)).unwrap());
        // Governed-with-defaults and ungoverned are distinct configs too.
        assert_ne!(k0, RowCache::key(&spec, None).unwrap());
        // But the key is stable for an identical config.
        assert_eq!(k0, RowCache::key(&spec, Some(&base.clone())).unwrap());
    }

    #[test]
    fn deadline_budgets_bypass() {
        let spec = by_id("Biostat").unwrap();
        let gov = GovernorConfig {
            budget: Budget::unlimited().with_deadline_ms(5),
            ..GovernorConfig::default()
        };
        assert!(RowCache::key(&spec, Some(&gov)).is_none());
    }

    #[test]
    fn bit_flipped_row_file_is_a_miss_and_recomputes() {
        // Satellite regression for the crash-only store: `repro
        // --cache-dir` inherits DiskStore's checksummed framing, so a bit
        // flip anywhere in a persisted row file must read as a miss (the
        // file quarantined), and re-putting the recomputed row must serve
        // hits again — never a panic, never a corrupted row.
        let spec = by_id("Biostat").unwrap();
        let row = runner::run_experiment(&spec);
        let dir = tmpdir("bitflip");
        let cache = RowCache::open(&dir).unwrap();
        let key = RowCache::key(&spec, None).unwrap();
        cache.put(key, &row);
        assert!(cache.get(key, &spec).is_some());

        // Flip one payload byte in the single file under the namespace.
        let ns = std::path::Path::new(&dir).join(ROWS_NAMESPACE);
        let path = std::fs::read_dir(&ns)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.is_file())
            .expect("one persisted row file");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        assert!(cache.get(key, &spec).is_none(), "bit flip must miss");
        assert_eq!(cache.store.counters().snapshot().quarantined, 1);
        // Recompute + re-put restores service.
        cache.put(key, &row);
        let back = cache.get(key, &spec).unwrap();
        assert_eq!(back.mpi, row.mpi);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_records_are_misses() {
        let spec = by_id("Biostat").unwrap();
        let dir = tmpdir("corrupt");
        let cache = RowCache::open(&dir).unwrap();
        let key = RowCache::key(&spec, None).unwrap();
        let garbled = format!("rowcache v{ROW_SCHEMA_VERSION}\nicfg not numbers\n");
        cache
            .store
            .put(ROWS_NAMESPACE, key, garbled.as_bytes())
            .unwrap();
        assert!(cache.get(key, &spec).is_none());
        cache
            .store
            .put(ROWS_NAMESPACE, key, b"rowcache v999\n")
            .unwrap();
        assert!(cache.get(key, &spec).is_none(), "version skew is a miss");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
