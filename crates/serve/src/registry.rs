//! The daemon's model registry: name → canonicalized graph, memoized.
//!
//! Canonicalizing a multi-hundred-layer zoo model is far from free, and a
//! service answering a request stream must pay it once per model per
//! process, not once per request. The registry builds a model lazily on
//! first use and keeps the canonical [`Graph`] (plus its fingerprint and
//! `PE_min`) behind an [`Arc`] for every later request to share — the
//! service-side analogue of `sweep_jobs` sharing one graph allocation
//! across a model's jobs.

use std::collections::BTreeMap;
use std::sync::Arc;

use cim_arch::Architecture;
use cim_frontend::{canonicalize, CanonOptions};
use cim_ir::Graph;
use cim_mapping::{MappingOptions, Solver};
use clsa_core::RunConfig;
use cim_bench::runner::{fingerprint, pe_min_of};
use parking_lot::Mutex;

use crate::protocol::{ErrorCode, ServeError};

/// One resolved model: the canonical graph plus the derived facts every
/// request on it needs.
#[derive(Debug)]
pub struct ModelEntry {
    /// Registry name (`fig5` or a zoo name such as `TinyYOLOv4`).
    pub name: String,
    /// The canonicalized graph, shared by all requests on the model.
    pub graph: Arc<Graph>,
    /// Fingerprint of the canonical graph (the cache/store model key).
    pub fingerprint: u64,
    /// `PE_min` on the paper's case-study crossbar.
    pub pe_min: usize,
}

/// Lazily-built, memoized name → [`ModelEntry`] map.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    entries: Mutex<BTreeMap<String, Arc<ModelEntry>>>,
}

/// The strategy names the service accepts, in canonical order.
pub const STRATEGIES: [&str; 4] = ["layer-by-layer", "xinf", "wdup", "wdup+xinf"];

impl ModelRegistry {
    /// An empty registry (models materialize on first request).
    pub fn new() -> Self {
        Self::default()
    }

    /// Every name the registry can resolve, in canonical order.
    fn known_names() -> Vec<String> {
        let mut names = vec!["fig5".to_string()];
        names.extend(cim_models::all_models().into_iter().map(|m| m.name.to_string()));
        names
    }

    /// Resolves `name`, canonicalizing and probing `PE_min` on first use.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownModel`] for names outside the registry;
    /// [`ErrorCode::ScheduleFailed`] if canonicalization or the cost
    /// probe fails (deterministic per name, so the error replies are
    /// reproducible too).
    pub fn resolve(&self, name: &str) -> Result<Arc<ModelEntry>, ServeError> {
        if let Some(entry) = self.entries.lock().get(name) {
            return Ok(Arc::clone(entry));
        }
        // Build outside the lock: canonicalization is slow and concurrent
        // requests for *different* models must not serialize on it. A
        // racing duplicate build of the same model is benign (identical
        // output; last insert wins).
        let raw = cim_models::graph_by_name(name).ok_or_else(|| {
            ServeError::new(
                ErrorCode::UnknownModel,
                format!("unknown model `{name}` (known: {})", Self::known_names().join(", ")),
            )
        })?;
        let canon = canonicalize(&raw, &CanonOptions::default()).map_err(|e| {
            ServeError::new(
                ErrorCode::ScheduleFailed,
                format!("canonicalization of `{name}` failed: {e}"),
            )
        })?;
        let graph = Arc::new(canon.into_graph());
        let fp = fingerprint(graph.as_ref());
        let pe_min = pe_min_of(&graph, &MappingOptions::default()).map_err(|e| {
            ServeError::new(
                ErrorCode::ScheduleFailed,
                format!("PE_min probe of `{name}` failed: {e}"),
            )
        })?;
        let entry = Arc::new(ModelEntry {
            name: name.to_string(),
            graph,
            fingerprint: fp,
            pe_min,
        });
        self.entries
            .lock()
            .insert(name.to_string(), Arc::clone(&entry));
        Ok(entry)
    }
}

/// Builds the [`RunConfig`] and canonical sweep label for a request's
/// `(strategy, x)` on `entry`, using the paper's case-study architecture
/// family (`PE_min + x` PEs of 256×256 crossbars).
///
/// # Errors
///
/// [`ErrorCode::UnknownStrategy`] for names outside [`STRATEGIES`];
/// [`ErrorCode::ScheduleFailed`] if the architecture cannot be built.
pub fn build_config(
    entry: &ModelEntry,
    strategy: &str,
    x: usize,
) -> Result<(RunConfig, String), ServeError> {
    let base = |pes: usize| -> Result<RunConfig, ServeError> {
        let arch = Architecture::paper_case_study(pes).map_err(|e| {
            ServeError::new(
                ErrorCode::ScheduleFailed,
                format!("architecture with {pes} PEs rejected: {e}"),
            )
        })?;
        Ok(RunConfig::baseline(arch))
    };
    match strategy {
        // The paper's baseline/xinf points are defined at PE_min exactly;
        // extra PEs only matter once duplication can use them.
        "layer-by-layer" | "baseline" => Ok((base(entry.pe_min)?, "layer-by-layer".into())),
        "xinf" => Ok((base(entry.pe_min)?.with_cross_layer(), "xinf".into())),
        "wdup" => Ok((
            base(entry.pe_min + x)?.with_duplication(Solver::Greedy),
            format!("wdup+{x}"),
        )),
        "wdup+xinf" => Ok((
            base(entry.pe_min + x)?
                .with_duplication(Solver::Greedy)
                .with_cross_layer(),
            format!("wdup+{x}+xinf"),
        )),
        other => Err(ServeError::new(
            ErrorCode::UnknownStrategy,
            format!(
                "unknown strategy `{other}` (known: {})",
                STRATEGIES.join(", ")
            ),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_resolves_and_is_memoized() {
        let reg = ModelRegistry::new();
        let a = reg.resolve("fig5").unwrap();
        let b = reg.resolve("fig5").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second resolve reuses the entry");
        assert_eq!(a.pe_min, 2);
        assert_eq!(a.name, "fig5");
    }

    #[test]
    fn unknown_model_is_a_typed_error() {
        let reg = ModelRegistry::new();
        let err = reg.resolve("GPT7").unwrap_err();
        assert_eq!(err.code, ErrorCode::UnknownModel);
        assert!(err.detail.contains("fig5"), "detail lists known names");
    }

    #[test]
    fn strategies_map_to_sweep_labels() {
        let reg = ModelRegistry::new();
        let entry = reg.resolve("fig5").unwrap();
        let labels: Vec<String> = [
            ("layer-by-layer", 0),
            ("xinf", 0),
            ("wdup", 1),
            ("wdup+xinf", 2),
        ]
        .iter()
        .map(|&(s, x)| build_config(&entry, s, x).unwrap().1)
        .collect();
        assert_eq!(labels, ["layer-by-layer", "xinf", "wdup+1", "wdup+2+xinf"]);
        let err = build_config(&entry, "magic", 0).unwrap_err();
        assert_eq!(err.code, ErrorCode::UnknownStrategy);
    }

    #[test]
    fn wdup_architecture_grows_with_x() {
        let reg = ModelRegistry::new();
        let entry = reg.resolve("fig5").unwrap();
        let (cfg, _) = build_config(&entry, "wdup", 3).unwrap();
        assert_eq!(cfg.arch.total_pes(), entry.pe_min + 3);
    }
}
