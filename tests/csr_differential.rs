//! Differential property suite: the CSR-flattened, cost-precomputed
//! scheduling core against the retained naive reference implementations
//! (`clsa_core::reference`) — on random DAG workloads under all three
//! [`EdgeCost`] variants, on real models across Stage-I policies and
//! weight duplication, and on hand-cut uneven row bands.
//!
//! The optimized paths (flat `Dependencies`, `CostedDeps` tables, arena
//! `Schedule`s) must be *output-identical* to the per-edge, nested-`Vec`
//! reference on every input; this suite is the executable proof, alongside
//! the byte-exact golden harness.

use cim_ir::{Conv2dAttrs, FeatureShape, Graph, NodeId, Op, PadSpec, Padding, PoolAttrs, Rect};
use clsa_cim::arch::{place_groups, Architecture, CrossbarSpec, PlacementStrategy, TileSpec};
use clsa_cim::core::{
    batched_cross_layer_schedule, batched_cross_layer_schedule_costed, cross_layer_schedule,
    cross_layer_schedule_costed, determine_dependencies, determine_sets, prepare, reference,
    validate_schedule, validate_schedule_costed, CostedDeps, Dependencies, EdgeCost, LayerSets,
    OfmSet, RunConfig, SetPolicy, SetRef,
};
use clsa_cim::frontend::{canonicalize, CanonOptions};
use clsa_cim::mapping::{layer_costs, MappingOptions, Solver};
use clsa_cim::sim::Simulator;
use proptest::prelude::*;

/// Random layered workloads: synthetic sets with random durations, PE
/// counts, and random backward edges (the same generator family as the
/// simulator's property tests).
fn arb_workload() -> impl Strategy<Value = (Vec<LayerSets>, Vec<(SetRef, SetRef)>)> {
    let layer = (1usize..6, 1u64..20, 1usize..4);
    proptest::collection::vec(layer, 1..6).prop_flat_map(|spec| {
        let layers: Vec<LayerSets> = spec
            .iter()
            .enumerate()
            .map(|(i, &(nsets, dur, pes))| LayerSets {
                node: NodeId(i as u32),
                name: format!("l{i}"),
                logical: i as u32,
                ofm: FeatureShape::new(nsets, dur as usize, 1),
                pes,
                quantum: 1,
                sets: (0..nsets)
                    .map(|y| OfmSet {
                        rect: Rect::new(y, 0, y, dur as usize - 1),
                        duration: dur,
                    })
                    .collect(),
            })
            .collect();
        let n_layers = layers.len();
        let sets_per: Vec<usize> = layers.iter().map(|l| l.sets.len()).collect();
        if n_layers < 2 {
            return Just((layers, Vec::new())).boxed();
        }
        let edge = (0usize..1024, 0usize..1024, 0usize..1024).prop_map(move |(a, cs, ps)| {
            let cl = 1 + a % (n_layers - 1); // strictly later layer
            let pl = ps % cl; // strictly earlier layer
            let consumer = SetRef {
                layer: cl,
                set: cs % sets_per[cl],
            };
            let producer = SetRef {
                layer: pl,
                set: (cs + ps) % sets_per[pl],
            };
            (consumer, producer)
        });
        proptest::collection::vec(edge, 0..24)
            .prop_map(move |edges| (layers.clone(), edges))
            .boxed()
    })
}

/// All three cost models over a random workload's group sizes.
fn cost_variants(layers: &[LayerSets], hop: u64, gpeu: usize) -> Vec<EdgeCost> {
    let sizes: Vec<usize> = layers.iter().map(|l| l.pes).collect();
    let used: usize = sizes.iter().sum();
    let arch = Architecture::builder()
        .tile(TileSpec {
            pes_per_tile: 2,
            gpeu_ops_per_cycle: gpeu.max(1),
            ..TileSpec::isaac_like()
        })
        .noc_hop_latency(hop)
        .pes(used.max(1))
        .build()
        .expect("workload arch");
    let placement =
        place_groups(&arch, &sizes, PlacementStrategy::Contiguous).expect("placement fits");
    vec![
        EdgeCost::Free,
        EdgeCost::NocHops {
            arch: arch.clone(),
            placement: placement.clone(),
        },
        EdgeCost::NocAndGpeu { arch, placement },
    ]
}

proptest! {
    /// Schedulers: CSR + precomputed costs ≡ naive reference, for every
    /// random DAG, every cost variant, single and batched.
    #[test]
    fn prop_schedulers_match_reference(
        (layers, edges) in arb_workload(),
        hop in 0u64..6,
        gpeu in 1usize..32,
        batch in 1usize..5,
    ) {
        let sets_per: Vec<usize> = layers.iter().map(|l| l.sets.len()).collect();
        let deps = Dependencies::from_edges(&sets_per, &edges).unwrap();
        for cost in cost_variants(&layers, hop, gpeu) {
            let fast = cross_layer_schedule(&layers, &deps, &cost).unwrap();
            let naive = reference::cross_layer_schedule_naive(&layers, &deps, &cost).unwrap();
            prop_assert_eq!(&fast, &naive);
            validate_schedule(&layers, &deps, &fast, &cost).unwrap();

            // The prebuilt-table entry points agree with the wrappers.
            let costed = CostedDeps::build(&layers, &deps, &cost).unwrap();
            prop_assert_eq!(
                &cross_layer_schedule_costed(&layers, &deps, &costed).unwrap(),
                &fast
            );
            validate_schedule_costed(&layers, &deps, &fast, &costed).unwrap();

            let fast_b =
                batched_cross_layer_schedule(&layers, &deps, &cost, batch).unwrap();
            let naive_b = reference::batched_cross_layer_schedule_naive(
                &layers, &deps, &cost, batch,
            )
            .unwrap();
            prop_assert_eq!(&fast_b, &naive_b);
            prop_assert_eq!(
                &batched_cross_layer_schedule_costed(&layers, &deps, &costed, batch).unwrap(),
                &fast_b
            );

            // The event engine on the same precomputed table agrees too.
            let sim = Simulator::new(&layers, &deps).run_costed(&costed).unwrap();
            prop_assert_eq!(&sim.schedule, &fast);
        }
    }
}

/// Fast Stage II against the full-scan oracle: the same CSR arrays
/// (`Dependencies` equality compares them) and the same serde wire format.
fn assert_stage2_matches_oracle(g: &Graph, layers: &[LayerSets], what: &str) {
    let fast = determine_dependencies(g, layers).expect("stage II");
    let naive = reference::determine_dependencies_naive(g, layers).expect("reference stage II");
    assert_eq!(fast, naive, "{what}");
    assert_eq!(
        serde_json::to_string(&fast).unwrap(),
        serde_json::to_string(&naive).unwrap(),
        "{what} wire format"
    );
}

/// Stage II on real models, across Stage-I policies: the producer-range
/// lookup produces exactly the reference (full-scan, `HashSet`-per-set)
/// relation. ResNet-50's `Add` chains let one consumer set reach many
/// producer layers; TinyYOLOv4 adds concat, upsample and stride-2 paths.
#[test]
fn stage2_matches_reference_on_models_and_policies() {
    let models: Vec<(&str, Graph)> = vec![
        ("fig5", clsa_cim::models::fig5_example()),
        ("toy_cnn", clsa_cim::models::toy_cnn(None)),
        ("resnet50", clsa_cim::models::resnet50()),
        ("tiny_yolo_v4", clsa_cim::models::tiny_yolo_v4()),
    ];
    for (name, g) in models {
        let costs = layer_costs(
            &g,
            &CrossbarSpec::wan_nature_2022(),
            &MappingOptions::default(),
        )
        .expect("model has base layers");
        for policy in [
            SetPolicy::finest(),
            SetPolicy::coarse(4),
            SetPolicy::coarse(1),
        ] {
            let layers = determine_sets(&g, &costs, &policy).expect("stage I");
            assert_stage2_matches_oracle(&g, &layers, &format!("{name} under {policy:?}"));
        }
    }

    // Weight duplication: consumers read duplicated producers through the
    // rewrite's row split.
    let g = canonicalize(&clsa_cim::models::tiny_yolo_v4(), &CanonOptions::default())
        .expect("zoo model canonicalizes")
        .into_graph();
    let arch = Architecture::paper_case_study(117 + 48).expect("case-study arch");
    let config = RunConfig::baseline(arch).with_duplication(Solver::Greedy);
    let prepared = prepare(&g, &config).expect("prepare");
    assert!(
        prepared.layers.len() > g.base_layers().len(),
        "the plan duplicates some layer"
    );
    let naive = reference::determine_dependencies_naive(&prepared.mapped_graph, &prepared.layers)
        .expect("reference stage II");
    assert_eq!(
        *prepared.deps, naive,
        "tiny_yolo_v4 with weight duplication"
    );
}

/// A small conv → pool → pad chain, one `(kernel, stride, pool, pad)`
/// tuple per stage, closed by a 3×3 consumer conv.
fn chain_graph(side: usize, stages: &[(usize, usize, bool, usize)]) -> Graph {
    let conv = |k: usize, s: usize| {
        Op::Conv2d(Conv2dAttrs {
            out_channels: 4,
            kernel: (k, k),
            stride: (s, s),
            padding: Padding::Same,
            use_bias: false,
        })
    };
    let mut g = Graph::new("chain");
    let mut cur = g
        .add(
            "input",
            Op::Input {
                shape: FeatureShape::new(side, side, 3),
            },
            &[],
        )
        .unwrap();
    for (i, &(k, stride, pool, pad)) in stages.iter().enumerate() {
        let h = g.node(cur).unwrap().out_shape.h;
        let stride = if h >= 4 { stride } else { 1 };
        cur = g.add(format!("conv{i}"), conv(k, stride), &[cur]).unwrap();
        if pool && g.node(cur).unwrap().out_shape.h >= 4 {
            let window = PoolAttrs {
                window: (2, 2),
                stride: (2, 2),
                padding: Padding::Valid,
            };
            cur = g
                .add(format!("pool{i}"), Op::MaxPool2d(window), &[cur])
                .unwrap();
        }
        if pad > 0 {
            cur = g
                .add(
                    format!("pad{i}"),
                    Op::ZeroPad2d(PadSpec::uniform(pad)),
                    &[cur],
                )
                .unwrap();
        }
    }
    g.add("head", conv(3, 1), &[cur]).unwrap();
    g
}

/// Cuts `h` rows into bands whose heights cycle through `heights`
/// (starting at `shift`), then closes with a one-row band.
fn uneven_bands(h: usize, w: usize, heights: &[usize], shift: usize) -> Vec<OfmSet> {
    let mut sets = Vec::new();
    let mut y = 0;
    for i in shift.. {
        if y + 1 >= h {
            break;
        }
        let y1 = (y + heights[i % heights.len()]).min(h - 1) - 1;
        sets.push(Rect::new(y, 0, y1, w - 1));
        y = y1 + 1;
    }
    sets.push(Rect::new(h - 1, 0, h - 1, w - 1));
    sets.into_iter()
        .map(|rect| OfmSet {
            rect,
            duration: rect.area() as u64,
        })
        .collect()
}

proptest! {
    /// Stage II over hand-cut row bands of uneven height, with a short
    /// last band, on every producer layer: the range lookup must find
    /// exactly the producers the full scan finds.
    #[test]
    fn prop_stage2_matches_reference_on_uneven_bands(
        side in 6usize..28,
        stages in proptest::collection::vec(
            (prop_oneof![Just(1usize), Just(3usize)], 1usize..3, proptest::bool::ANY, 0usize..3),
            1..5,
        ),
        heights in proptest::collection::vec(1usize..6, 1..5),
    ) {
        let g = chain_graph(side, &stages);
        let costs = layer_costs(
            &g,
            &CrossbarSpec::wan_nature_2022(),
            &MappingOptions::default(),
        )
        .unwrap();
        let mut layers = determine_sets(&g, &costs, &SetPolicy::finest()).unwrap();
        for (i, layer) in layers.iter_mut().enumerate() {
            layer.sets = uneven_bands(layer.ofm.h, layer.ofm.w, &heights, i);
        }
        assert_stage2_matches_oracle(&g, &layers, &format!("side {side}, {stages:?}, bands {heights:?}"));
    }
}
