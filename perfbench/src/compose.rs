//! The pipeline composed from its public stage functions, one span per
//! stage, in the order `clsa_core::prepare` and `run_prepared` call them.
//!
//! The trace guard compares the composition with `clsa_core::run` on
//! every traced configuration: same schedule, same utilization report.

use cim_arch::place_groups;
use cim_ir::Graph;
use cim_mapping::{apply_duplication, layer_costs, min_pes, optimize, MappingError, Solver};
use clsa_core::{
    cross_layer_schedule_costed, determine_dependencies, determine_sets, layer_by_layer_schedule,
    utilization, validate_schedule_costed, CoreError, CostedDeps, Dependencies, EdgeCost,
    LayerSets, MappingChoice, RunConfig, RunResult, Schedule, SchedulingChoice, UtilizationReport,
};

use crate::trace::Tracer;

/// What the composed pipeline produced.
pub struct Composed {
    pub layers: Vec<LayerSets>,
    pub deps: Dependencies,
    pub costed: CostedDeps,
    pub schedule: Schedule,
    pub report: UtilizationReport,
}

impl Composed {
    /// Whether this composition reproduces `run` exactly.
    pub fn matches(&self, run: &RunResult) -> bool {
        self.schedule == run.schedule && self.report == run.report
    }

    pub fn sets(&self) -> u64 {
        self.layers.iter().map(|l| l.sets.len() as u64).sum()
    }
}

/// Runs mapping, Stage I, Stage II, the cost tables, Stage III and
/// Stage IV on `graph` under `config`, each stage in its own span.
pub fn compose(t: &Tracer<'_>, graph: &Graph, config: &RunConfig) -> Result<Composed, CoreError> {
    let xbar = config.arch.crossbar();
    let budget = config.arch.total_pes();
    let opts = &config.mapping_options;

    // Mapping (as `prepare`): costs, plan, budget check, rewrite, costs
    // of the rewritten graph.
    let costs0 = t.span("mapping", "mapping.layer_costs", || {
        layer_costs(graph, xbar, opts)
    })?;
    let pe_min = min_pes(&costs0);
    let plan = t.span("mapping", "mapping.optimize", || match config.mapping {
        MappingChoice::OnceEach => optimize(&costs0, pe_min, Solver::Greedy),
        MappingChoice::WeightDuplication { solver } => optimize(&costs0, budget, solver),
    })?;
    if pe_min > budget {
        return Err(MappingError::BudgetTooSmall {
            required: pe_min,
            available: budget,
        }
        .into());
    }
    let mapped = t.span("mapping", "mapping.apply_duplication", || {
        apply_duplication(graph, &costs0, &plan)
    })?;
    let costs = t.span("mapping", "mapping.layer_costs", || {
        layer_costs(&mapped, xbar, opts)
    })?;

    // Stages I and II, and the peak-model cost table `prepare` caches.
    let layers = t.span("core", "core.determine_sets", || {
        determine_sets(&mapped, &costs, &config.set_policy)
    })?;
    let deps = t.span("core", "core.determine_dependencies", || {
        determine_dependencies(&mapped, &layers)
    })?;
    let costed_free = t.span("core", "core.cost_table", || {
        CostedDeps::free(&layers, &deps)
    })?;

    // `run_prepared`: the data-movement cost table when one is asked for.
    let costed = if config.noc_cost || config.gpeu_cost {
        t.span(
            "core",
            "core.cost_table",
            || -> Result<CostedDeps, CoreError> {
                let sizes: Vec<usize> = layers.iter().map(|l| l.pes).collect();
                let placement = place_groups(&config.arch, &sizes, config.placement)?;
                match config.scheduling {
                    SchedulingChoice::LayerByLayer => Ok(costed_free),
                    SchedulingChoice::CrossLayer => {
                        let arch = config.arch.clone();
                        let edge_cost = if config.gpeu_cost {
                            EdgeCost::NocAndGpeu { arch, placement }
                        } else {
                            EdgeCost::NocHops { arch, placement }
                        };
                        CostedDeps::build(&layers, &deps, &edge_cost)
                    }
                }
            },
        )?
    } else {
        costed_free
    };

    // Stages III and IV.
    let schedule = t.span("core", "core.schedule", || match config.scheduling {
        SchedulingChoice::LayerByLayer => layer_by_layer_schedule(&layers),
        SchedulingChoice::CrossLayer => cross_layer_schedule_costed(&layers, &deps, &costed),
    })?;
    t.span("core", "core.validate", || {
        validate_schedule_costed(&layers, &deps, &schedule, &costed)
    })?;
    let report = t.span("core", "core.utilization", || {
        utilization(&layers, &schedule, budget)
    })?;
    Ok(Composed {
        layers,
        deps,
        costed,
        schedule,
        report,
    })
}

/// The stage span names whose durations make up one composed pipeline.
pub const STAGE_SPANS: [&str; 9] = [
    "mapping.layer_costs",
    "mapping.optimize",
    "mapping.apply_duplication",
    "core.determine_sets",
    "core.determine_dependencies",
    "core.cost_table",
    "core.schedule",
    "core.validate",
    "core.utilization",
];
