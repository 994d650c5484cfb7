//! Path analysis over workflow DAGs.
//!
//! Utilities behind the paper's quantities: the set of possible execution
//! paths of a conditional workflow, each path's probability under the
//! ground-truth branch model, and expectations over paths (executed
//! function count, runtime). The MLP (Algorithm 1) *predicts* one path;
//! these helpers characterize the distribution it is predicting against,
//! which the evaluation uses for workloads like the Figure 8 DAG and
//! Table 1's lattice.

use crate::dag::{BranchMode, WorkflowDag};
use crate::id::NodeId;
use crate::nodeset::NodeSet;
use serde::{Deserialize, Error, Map, Serialize, Value};
use std::collections::HashMap;

/// One possible execution outcome of a workflow: the set of activated
/// nodes and its probability under the ground-truth XOR model.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionOutcome {
    /// Activated nodes, in topological order.
    pub nodes: Vec<NodeId>,
    /// Probability of exactly this outcome.
    pub probability: f64,
    /// Bitset membership view of `nodes`, kept in sync by
    /// [`ExecutionOutcome::new`] so [`contains`](ExecutionOutcome::contains)
    /// is O(1).
    members: NodeSet,
}

impl ExecutionOutcome {
    /// Creates an outcome from its activated nodes (topological order) and
    /// probability, building the O(1) membership view.
    pub fn new(nodes: Vec<NodeId>, probability: f64) -> Self {
        let members = nodes.iter().copied().collect();
        ExecutionOutcome {
            nodes,
            probability,
            members,
        }
    }

    /// Whether `node` activates in this outcome.
    pub fn contains(&self, node: NodeId) -> bool {
        self.members.contains(node)
    }

    /// Number of functions that execute in this outcome.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the outcome is empty (never true for valid workflows).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

impl Serialize for ExecutionOutcome {
    fn to_json(&self) -> Value {
        let mut obj = Map::with_capacity(2);
        obj.insert("nodes".to_string(), self.nodes.to_json());
        obj.insert("probability".to_string(), self.probability.to_json());
        Value::Object(obj)
    }
}

impl Deserialize for ExecutionOutcome {
    fn from_json(value: &Value) -> Result<Self, Error> {
        let obj = value
            .as_object()
            .ok_or_else(|| Error::expected("object", value))?;
        let nodes = obj
            .get("nodes")
            .map(Vec::<NodeId>::from_json)
            .transpose()?
            .ok_or_else(|| Error::missing_field("nodes", "ExecutionOutcome"))?;
        let probability = obj
            .get("probability")
            .map(f64::from_json)
            .transpose()?
            .ok_or_else(|| Error::missing_field("probability", "ExecutionOutcome"))?;
        Ok(ExecutionOutcome::new(nodes, probability))
    }
}

/// Enumerates every possible execution outcome of `dag` with its
/// probability, by branching on each XOR decision. The number of outcomes
/// is the product of XOR fanouts — exponential in the number of
/// conditional points — so `max_outcomes` bounds the enumeration
/// (`None` is returned when the bound would be exceeded).
///
/// # Example
///
/// ```
/// use xanadu_chain::{WorkflowBuilder, FunctionSpec};
/// use xanadu_chain::paths::enumerate_outcomes;
///
/// let mut b = WorkflowBuilder::new("x");
/// let a = b.add(FunctionSpec::new("a"))?;
/// let hot = b.add(FunctionSpec::new("hot"))?;
/// let cold = b.add(FunctionSpec::new("cold"))?;
/// b.link_xor(a, &[(hot, 0.7), (cold, 0.3)])?;
/// let dag = b.build()?;
///
/// let outcomes = enumerate_outcomes(&dag, 100).unwrap();
/// assert_eq!(outcomes.len(), 2);
/// let total: f64 = outcomes.iter().map(|o| o.probability).sum();
/// assert!((total - 1.0).abs() < 1e-12);
/// # Ok::<(), xanadu_chain::ChainError>(())
/// ```
pub fn enumerate_outcomes(dag: &WorkflowDag, max_outcomes: usize) -> Option<Vec<ExecutionOutcome>> {
    // Each partial state: assignment of chosen child per decided XOR node.
    #[derive(Clone)]
    struct Partial {
        choices: HashMap<NodeId, NodeId>,
        probability: f64,
    }

    let xor_nodes: Vec<NodeId> = dag
        .node_ids()
        .filter(|&id| dag.node(id).branch_mode() == BranchMode::Xor && !dag.children(id).is_empty())
        .collect();

    let mut partials = vec![Partial {
        choices: HashMap::new(),
        probability: 1.0,
    }];
    for &xor in &xor_nodes {
        let mut next = Vec::with_capacity(partials.len() * dag.children(xor).len());
        for partial in &partials {
            for edge in dag.children(xor) {
                let p = dag.edge_probability(xor, edge.to).unwrap_or(0.0);
                if p <= 0.0 {
                    continue;
                }
                let mut extended = partial.clone();
                extended.choices.insert(xor, edge.to);
                extended.probability *= p;
                next.push(extended);
            }
        }
        partials = next;
        if partials.len() > max_outcomes {
            return None;
        }
    }

    // Resolve each full choice assignment to its activated set; identical
    // activation sets merge (choices at unreached XOR nodes don't matter).
    let mut merged: HashMap<Vec<NodeId>, f64> = HashMap::new();
    for partial in partials {
        let activated = activate(dag, &partial.choices);
        *merged.entry(activated).or_insert(0.0) += partial.probability;
    }
    let mut outcomes: Vec<ExecutionOutcome> = merged
        .into_iter()
        .map(|(nodes, probability)| ExecutionOutcome::new(nodes, probability))
        .collect();
    outcomes.sort_by(|a, b| {
        b.probability
            .partial_cmp(&a.probability)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.nodes.cmp(&b.nodes))
    });
    Some(outcomes)
}

/// The activated node set given a full XOR choice assignment.
fn activate(dag: &WorkflowDag, choices: &HashMap<NodeId, NodeId>) -> Vec<NodeId> {
    let mut activated = vec![false; dag.len()];
    for root in dag.roots() {
        activated[root.index()] = true;
    }
    for id in dag.topo_order() {
        if !activated[id.index()] {
            continue;
        }
        match dag.node(id).branch_mode() {
            BranchMode::Multicast => {
                for e in dag.children(id) {
                    activated[e.to.index()] = true;
                }
            }
            BranchMode::Xor => {
                if let Some(&chosen) = choices.get(&id) {
                    activated[chosen.index()] = true;
                }
            }
        }
    }
    dag.node_ids().filter(|n| activated[n.index()]).collect()
}

/// The probability that each node executes on a trigger — the exact
/// quantity the MLP's likelihood factor `L` estimates (§3.1 Equation 3,
/// for XOR-only workflows).
pub fn execution_probabilities(dag: &WorkflowDag) -> Vec<f64> {
    let mut prob = vec![0.0f64; dag.len()];
    for root in dag.roots() {
        prob[root.index()] = 1.0;
    }
    for id in dag.topo_order() {
        if prob[id.index()] == 0.0 {
            continue;
        }
        match dag.node(id).branch_mode() {
            BranchMode::Multicast => {
                for e in dag.children(id) {
                    let p = dag.edge_probability(id, e.to).unwrap_or(0.0);
                    prob[e.to.index()] += prob[id.index()] * p;
                }
            }
            BranchMode::Xor => {
                for e in dag.children(id) {
                    let p = dag.edge_probability(id, e.to).unwrap_or(0.0);
                    prob[e.to.index()] += prob[id.index()] * p;
                }
            }
        }
    }
    // Barrier joins can accumulate above 1 when several multicast parents
    // all fire; clamp (the node runs once).
    for p in &mut prob {
        *p = p.min(1.0);
    }
    prob
}

/// Expected number of functions executed per trigger.
pub fn expected_executed_functions(dag: &WorkflowDag) -> f64 {
    execution_probabilities(dag).iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::WorkflowBuilder;
    use crate::spec::FunctionSpec;
    use crate::{linear_chain, ChainError};

    fn xor_chain() -> Result<WorkflowDag, ChainError> {
        let mut b = WorkflowBuilder::new("x");
        let a = b.add(FunctionSpec::new("a"))?;
        let hot = b.add(FunctionSpec::new("hot"))?;
        let cold = b.add(FunctionSpec::new("cold"))?;
        let tail = b.add(FunctionSpec::new("tail"))?;
        b.link_xor(a, &[(hot, 0.7), (cold, 0.3)])?;
        b.link(hot, tail)?;
        b.build()
    }

    #[test]
    fn linear_chain_has_one_outcome() {
        let dag = linear_chain("l", 4, &FunctionSpec::new("f")).unwrap();
        let outcomes = enumerate_outcomes(&dag, 10).unwrap();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].len(), 4);
        assert_eq!(outcomes[0].probability, 1.0);
    }

    #[test]
    fn xor_chain_outcomes_and_ordering() {
        let dag = xor_chain().unwrap();
        let outcomes = enumerate_outcomes(&dag, 10).unwrap();
        assert_eq!(outcomes.len(), 2);
        // Sorted by descending probability: hot path first.
        assert!((outcomes[0].probability - 0.7).abs() < 1e-12);
        assert_eq!(outcomes[0].len(), 3, "a, hot, tail");
        assert!((outcomes[1].probability - 0.3).abs() < 1e-12);
        assert_eq!(outcomes[1].len(), 2, "a, cold");
    }

    #[test]
    fn outcome_probabilities_sum_to_one() {
        let dag = xanadu_test_fig8();
        let outcomes = enumerate_outcomes(&dag, 1000).unwrap();
        let total: f64 = outcomes.iter().map(|o| o.probability).sum();
        assert!((total - 1.0).abs() < 1e-9, "sum {total}");
        // Note the subtlety the MLP sidesteps: the most likely *single*
        // outcome is the earliest deviation (p = 0.3), because the solid
        // path's joint probability is only 0.7⁴ ≈ 0.24 — yet the solid
        // path is still the right speculation target because each of its
        // nodes individually has the highest marginal probability.
        assert_eq!(outcomes[0].len(), 2);
        assert!((outcomes[0].probability - 0.3).abs() < 1e-12);
        let solid = outcomes.iter().find(|o| o.len() == 5).expect("solid path");
        assert!((solid.probability - 0.7f64.powi(4)).abs() < 1e-12);
    }

    /// A local copy of the Figure 8 shape (workloads depends on chain, not
    /// vice versa).
    fn xanadu_test_fig8() -> WorkflowDag {
        let mut b = WorkflowBuilder::new("fig8");
        let a = b.add(FunctionSpec::new("A")).unwrap();
        let mut parent = a;
        for level in 0..4 {
            let solid = b.add(FunctionSpec::new(format!("S{level}"))).unwrap();
            let alt = b.add(FunctionSpec::new(format!("X{level}"))).unwrap();
            b.link_xor(parent, &[(solid, 0.7), (alt, 0.3)]).unwrap();
            parent = solid;
        }
        b.build().unwrap()
    }

    #[test]
    fn bound_exceeded_returns_none() {
        let dag = xanadu_test_fig8();
        assert!(enumerate_outcomes(&dag, 3).is_none());
    }

    #[test]
    fn execution_probabilities_match_enumeration() {
        let dag = xor_chain().unwrap();
        let probs = execution_probabilities(&dag);
        let outcomes = enumerate_outcomes(&dag, 10).unwrap();
        for id in dag.node_ids() {
            let from_outcomes: f64 = outcomes
                .iter()
                .filter(|o| o.contains(id))
                .map(|o| o.probability)
                .sum();
            assert!(
                (probs[id.index()] - from_outcomes).abs() < 1e-12,
                "{id}: dp {} vs enumeration {from_outcomes}",
                probs[id.index()]
            );
        }
    }

    #[test]
    fn expected_function_count() {
        let dag = xor_chain().unwrap();
        // a (1.0) + hot (0.7) + cold (0.3) + tail (0.7) = 2.7
        assert!((expected_executed_functions(&dag) - 2.7).abs() < 1e-12);
        let lin = linear_chain("l", 6, &FunctionSpec::new("f")).unwrap();
        assert!((expected_executed_functions(&lin) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn barrier_probability_clamped_to_one() {
        let mut b = WorkflowBuilder::new("d");
        let a = b.add(FunctionSpec::new("a")).unwrap();
        let l = b.add(FunctionSpec::new("l")).unwrap();
        let r = b.add(FunctionSpec::new("r")).unwrap();
        let j = b.add(FunctionSpec::new("j")).unwrap();
        b.link(a, l).unwrap();
        b.link(a, r).unwrap();
        b.link(l, j).unwrap();
        b.link(r, j).unwrap();
        let dag = b.build().unwrap();
        let probs = execution_probabilities(&dag);
        assert_eq!(probs[j.index()], 1.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::builder::WorkflowBuilder;
    use crate::spec::FunctionSpec;
    use proptest::prelude::*;

    fn random_xor_tree(depth: usize, weights: &[f64]) -> WorkflowDag {
        let mut b = WorkflowBuilder::new("pt");
        let root = b.add(FunctionSpec::new("n0")).unwrap();
        let mut frontier = vec![root];
        let mut name = 1usize;
        let mut w = 0usize;
        for _ in 0..depth {
            let mut next = Vec::new();
            for &parent in &frontier {
                let a = b.add(FunctionSpec::new(format!("n{name}"))).unwrap();
                let c = b.add(FunctionSpec::new(format!("n{}", name + 1))).unwrap();
                name += 2;
                let wa = weights[w % weights.len()].max(0.01);
                w += 1;
                b.link_xor(parent, &[(a, wa), (c, 1.0 - wa.min(0.99))])
                    .unwrap();
                next.push(a);
                next.push(c);
            }
            frontier = next;
        }
        b.build().unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn outcomes_partition_probability_space(
            depth in 1usize..3,
            weights in proptest::collection::vec(0.05f64..0.95, 2..8),
        ) {
            let dag = random_xor_tree(depth, &weights);
            let outcomes = enumerate_outcomes(&dag, 10_000).unwrap();
            let total: f64 = outcomes.iter().map(|o| o.probability).sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
            // Outcomes are distinct activation sets.
            let mut sets: Vec<&Vec<NodeId>> = outcomes.iter().map(|o| &o.nodes).collect();
            sets.sort();
            sets.dedup();
            prop_assert_eq!(sets.len(), outcomes.len());
        }

        #[test]
        fn dp_probabilities_match_enumeration(
            depth in 1usize..3,
            weights in proptest::collection::vec(0.05f64..0.95, 2..8),
        ) {
            let dag = random_xor_tree(depth, &weights);
            let probs = execution_probabilities(&dag);
            let outcomes = enumerate_outcomes(&dag, 10_000).unwrap();
            for id in dag.node_ids() {
                let enumerated: f64 = outcomes
                    .iter()
                    .filter(|o| o.contains(id))
                    .map(|o| o.probability)
                    .sum();
                prop_assert!((probs[id.index()] - enumerated).abs() < 1e-9);
            }
        }
    }
}
