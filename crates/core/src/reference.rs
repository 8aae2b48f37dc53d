//! Naive reference implementations — the executable specification of the
//! scheduling core.
//!
//! These are the pre-CSR algorithms, kept verbatim: nested `Vec` dependency
//! tables, per-edge [`EdgeCost::cycles`] calls inside the scheduling inner
//! loops, per-set `HashSet` allocation in the dependency analysis. They are
//! deliberately *not* optimized — their job is to stay obviously correct so
//! the differential property suite (`tests/csr_differential.rs`) can
//! compare the flat/precomputed hot paths against them on random DAGs,
//! real models, and every cost model.


// cim-lint: allow-file(hash-collection) the pre-CSR reference implementation is kept verbatim as the differential-testing oracle
use std::collections::HashSet;

use cim_ir::{input_region, Graph, NodeId, Op, Rect};

use crate::deps::{Dependencies, SetRef};
use crate::error::{CoreError, Result};
use crate::schedule::{set_bytes, BatchedSchedule, EdgeCost, Schedule, SetTime};
use crate::sets::LayerSets;

/// Reference Stage IV: the cross-layer longest-path sweep with per-edge
/// cost-model calls (the pre-optimization implementation of
/// [`cross_layer_schedule`](crate::cross_layer_schedule)).
///
/// # Errors
///
/// Same conditions as the optimized scheduler.
pub fn cross_layer_schedule_naive(
    layers: &[LayerSets],
    deps: &Dependencies,
    edge_cost: &EdgeCost,
) -> Result<Schedule> {
    if deps.num_layers() != layers.len() {
        return Err(CoreError::StageMismatch {
            detail: format!(
                "dependencies cover {} layers, sets cover {}",
                deps.num_layers(),
                layers.len()
            ),
        });
    }
    let mut times: Vec<Vec<SetTime>> = Vec::with_capacity(layers.len());
    let mut makespan = 0u64;
    for (li, layer) in layers.iter().enumerate() {
        let mut layer_times = Vec::with_capacity(layer.sets.len());
        let mut group_free = 0u64;
        for (si, set) in layer.sets.iter().enumerate() {
            let mut start = group_free;
            for dep in deps.of(li, si) {
                if dep.layer >= li {
                    return Err(CoreError::StageMismatch {
                        detail: format!(
                            "dependency {dep} of layer {li} is not topologically earlier"
                        ),
                    });
                }
                let dep_finish: u64 = times[dep.layer][dep.set].finish;
                let bytes = set_bytes(&layers[dep.layer], dep.set);
                let arrive = dep_finish + edge_cost.cycles(dep.layer, li, bytes)?;
                start = start.max(arrive);
            }
            let finish = start + set.duration;
            group_free = finish;
            makespan = makespan.max(finish);
            layer_times.push(SetTime { start, finish });
        }
        times.push(layer_times);
    }
    Ok(Schedule::from_nested(times, makespan))
}

/// Reference batched scheduler: recomputes every edge cost for every batch
/// instance (the `O(batch × edges)` behaviour the precomputed tables
/// eliminate).
///
/// # Errors
///
/// Same conditions as the optimized scheduler.
pub fn batched_cross_layer_schedule_naive(
    layers: &[LayerSets],
    deps: &Dependencies,
    edge_cost: &EdgeCost,
    batch: usize,
) -> Result<BatchedSchedule> {
    if batch == 0 {
        return Err(CoreError::StageMismatch {
            detail: "batch must be at least 1".into(),
        });
    }
    if deps.num_layers() != layers.len() {
        return Err(CoreError::StageMismatch {
            detail: format!(
                "dependencies cover {} layers, sets cover {}",
                deps.num_layers(),
                layers.len()
            ),
        });
    }
    let mut group_free = vec![0u64; layers.len()];
    let mut instances = Vec::with_capacity(batch);
    let mut makespan = 0u64;
    for _ in 0..batch {
        let mut times: Vec<Vec<SetTime>> = Vec::with_capacity(layers.len());
        let mut instance_makespan = 0u64;
        for (li, layer) in layers.iter().enumerate() {
            let mut layer_times = Vec::with_capacity(layer.sets.len());
            for (si, set) in layer.sets.iter().enumerate() {
                let mut start = group_free[li];
                for dep in deps.of(li, si) {
                    if dep.layer >= li {
                        return Err(CoreError::StageMismatch {
                            detail: format!(
                                "dependency {dep} of layer {li} is not topologically earlier"
                            ),
                        });
                    }
                    let dep_finish = times[dep.layer][dep.set].finish;
                    let bytes = set_bytes(&layers[dep.layer], dep.set);
                    start = start.max(dep_finish + edge_cost.cycles(dep.layer, li, bytes)?);
                }
                let finish = start + set.duration;
                group_free[li] = finish;
                instance_makespan = instance_makespan.max(finish);
                layer_times.push(SetTime { start, finish });
            }
            times.push(layer_times);
        }
        makespan = makespan.max(instance_makespan);
        instances.push(Schedule::from_nested(times, instance_makespan));
    }
    Ok(BatchedSchedule {
        instances,
        makespan,
    })
}

/// Reference Stage II: per-set `HashSet` accumulation (the pre-CSR
/// implementation of
/// [`determine_dependencies`](crate::determine_dependencies)).
///
/// It is also the full-scan oracle for the optimized analysis's
/// producer-range lookup: it tests every set of every reached producer
/// layer, so it needs no ordering of the sets.
///
/// # Errors
///
/// Same conditions as the optimized analysis.
pub fn determine_dependencies_naive(graph: &Graph, layers: &[LayerSets]) -> Result<Dependencies> {
    let mut layer_of = vec![usize::MAX; graph.len()];
    for (i, l) in layers.iter().enumerate() {
        let node = graph.node(l.node)?;
        if !node.op.is_base() {
            return Err(CoreError::StageMismatch {
                detail: format!("layer entry `{}` is not a base layer", l.name),
            });
        }
        layer_of[l.node.index()] = i;
    }

    let sets_per_layer: Vec<usize> = layers.iter().map(|l| l.sets.len()).collect();
    let mut edges: Vec<(SetRef, SetRef)> = Vec::new();
    for (li, layer) in layers.iter().enumerate() {
        let node = graph.node(layer.node)?;
        let in_shapes: Vec<_> = node
            .inputs
            .iter()
            .map(|&i| graph.node(i).map(|n| n.out_shape))
            .collect::<std::result::Result<_, _>>()?;
        for (si, set) in layer.sets.iter().enumerate() {
            let mut found: HashSet<SetRef> = HashSet::new();
            for (idx, &inp) in node.inputs.iter().enumerate() {
                if let Some(r) = input_region(&node.op, set.rect, &in_shapes, idx, node.out_shape) {
                    back_propagate_naive(graph, &layer_of, layers, inp, r, &mut found)?;
                }
            }
            let consumer = SetRef { layer: li, set: si };
            edges.extend(found.into_iter().map(|p| (consumer, p)));
        }
    }
    Dependencies::from_edges(&sets_per_layer, &edges)
}

fn back_propagate_naive(
    graph: &Graph,
    layer_of: &[usize],
    layers: &[LayerSets],
    node: NodeId,
    rect: Rect,
    found: &mut HashSet<SetRef>,
) -> Result<()> {
    let n = graph.node(node)?;
    if n.op.is_base() {
        let li = layer_of[node.index()];
        if li == usize::MAX {
            return Err(CoreError::StageMismatch {
                detail: format!("base layer `{}` has no Stage-I sets", n.name),
            });
        }
        for (si, set) in layers[li].sets.iter().enumerate() {
            if set.rect.intersects(&rect) {
                found.insert(SetRef { layer: li, set: si });
            }
        }
        return Ok(());
    }
    if matches!(n.op, Op::Input { .. }) {
        return Ok(());
    }
    let in_shapes: Vec<_> = n
        .inputs
        .iter()
        .map(|&i| graph.node(i).map(|x| x.out_shape))
        .collect::<std::result::Result<_, _>>()?;
    for (idx, &inp) in n.inputs.iter().enumerate() {
        if let Some(r) = input_region(&n.op, rect, &in_shapes, idx, n.out_shape) {
            back_propagate_naive(graph, layer_of, layers, inp, r, found)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_arch::CrossbarSpec;
    use cim_ir::{Conv2dAttrs, FeatureShape, Op, Padding};
    use cim_mapping::{layer_costs, MappingOptions};

    use crate::schedule::{batched_cross_layer_schedule, cross_layer_schedule};
    use crate::sets::{determine_sets, SetPolicy};

    #[test]
    fn reference_agrees_on_the_fig5_style_chain() {
        let mut g = Graph::new("t");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(12, 12, 3),
                },
                &[],
            )
            .unwrap();
        let c1 = g
            .add(
                "c1",
                Op::Conv2d(Conv2dAttrs {
                    out_channels: 8,
                    kernel: (3, 3),
                    stride: (1, 1),
                    padding: Padding::Valid,
                    use_bias: false,
                }),
                &[x],
            )
            .unwrap();
        g.add(
            "c2",
            Op::Conv2d(Conv2dAttrs {
                out_channels: 8,
                kernel: (3, 3),
                stride: (1, 1),
                padding: Padding::Valid,
                use_bias: false,
            }),
            &[c1],
        )
        .unwrap();
        let costs = layer_costs(
            &g,
            &CrossbarSpec::wan_nature_2022(),
            &MappingOptions::default(),
        )
        .unwrap();
        let layers = determine_sets(&g, &costs, &SetPolicy::finest()).unwrap();
        let deps = crate::deps::determine_dependencies(&g, &layers).unwrap();
        assert_eq!(determine_dependencies_naive(&g, &layers).unwrap(), deps);
        assert_eq!(
            cross_layer_schedule_naive(&layers, &deps, &EdgeCost::Free).unwrap(),
            cross_layer_schedule(&layers, &deps, &EdgeCost::Free).unwrap()
        );
        assert_eq!(
            batched_cross_layer_schedule_naive(&layers, &deps, &EdgeCost::Free, 8).unwrap(),
            batched_cross_layer_schedule(&layers, &deps, &EdgeCost::Free, 8).unwrap()
        );
    }
}
