//! Incremental construction of attack trees.

use std::collections::HashSet;

use crate::error::BuildError;
use crate::node::{BasId, NodeId, NodeType};
use crate::tree::AttackTree;

/// Builds an [`AttackTree`] node by node.
///
/// Children must be created before the gates that reference them, which makes
/// cycles unrepresentable and gives the finished tree a topological node
/// order for free. Sharing a node between several parents is allowed and
/// produces a DAG-like tree.
///
/// # Example
///
/// ```
/// use cdat_core::AttackTreeBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = AttackTreeBuilder::new();
/// let steal = b.bas("steal badge");
/// let tailgate = b.bas("tailgate");
/// let enter = b.or("enter building", [steal, tailgate]);
/// let hack = b.bas("hack console");
/// let _goal = b.and("sabotage", [enter, hack]);
/// let tree = b.build()?;
/// assert_eq!(tree.node_count(), 5);
/// assert!(tree.is_treelike());
/// # Ok(()) }
/// ```
#[derive(Clone, Debug, Default)]
pub struct AttackTreeBuilder {
    types: Vec<NodeType>,
    children: Vec<Vec<NodeId>>,
    names: Vec<String>,
}

impl AttackTreeBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.types.len()
    }

    fn push(&mut self, name: &str, ty: NodeType, children: Vec<NodeId>) -> NodeId {
        let id = NodeId::from_index(self.types.len());
        self.types.push(ty);
        self.children.push(children);
        self.names.push(name.to_owned());
        id
    }

    /// Adds a basic attack step (leaf) named `name`.
    pub fn bas(&mut self, name: &str) -> NodeId {
        self.push(name, NodeType::Bas, Vec::new())
    }

    /// Adds an `OR` gate over `children`.
    pub fn or<I>(&mut self, name: &str, children: I) -> NodeId
    where
        I: IntoIterator<Item = NodeId>,
    {
        let children = children.into_iter().collect();
        self.push(name, NodeType::Or, children)
    }

    /// Adds an `AND` gate over `children`.
    pub fn and<I>(&mut self, name: &str, children: I) -> NodeId
    where
        I: IntoIterator<Item = NodeId>,
    {
        let children = children.into_iter().collect();
        self.push(name, NodeType::And, children)
    }

    /// Adds a gate of the given type (convenience for generic construction).
    ///
    /// # Panics
    ///
    /// Panics if `ty` is [`NodeType::Bas`]; use [`bas`](Self::bas) for leaves.
    pub fn gate<I>(&mut self, name: &str, ty: NodeType, children: I) -> NodeId
    where
        I: IntoIterator<Item = NodeId>,
    {
        assert!(ty.is_gate(), "use AttackTreeBuilder::bas for leaves");
        match ty {
            NodeType::Or => self.or(name, children),
            NodeType::And => self.and(name, children),
            NodeType::Bas => unreachable!(),
        }
    }

    /// Validates the accumulated nodes and produces the final tree.
    ///
    /// # Errors
    ///
    /// * [`BuildError::Empty`] — no nodes were added;
    /// * [`BuildError::EmptyGate`] — a gate has no children;
    /// * [`BuildError::DuplicateName`] — two nodes share a name;
    /// * [`BuildError::ForeignChild`] — a gate references an id not created by
    ///   this builder;
    /// * [`BuildError::DuplicateChild`] — a gate lists a child twice;
    /// * [`BuildError::MultipleRoots`] — more than one node has no parent.
    pub fn build(self) -> Result<AttackTree, BuildError> {
        let n = self.types.len();
        if n == 0 {
            return Err(BuildError::Empty);
        }
        let mut seen_names = HashSet::with_capacity(n);
        for name in &self.names {
            if !seen_names.insert(name.as_str()) {
                return Err(BuildError::DuplicateName(name.clone()));
            }
        }
        let mut parents: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        // The last gate that listed each node: a child stamped with the
        // current gate is listed twice.
        let mut last_parent = vec![usize::MAX; n];
        for (i, ch) in self.children.iter().enumerate() {
            let v = NodeId::from_index(i);
            if self.types[i].is_gate() && ch.is_empty() {
                return Err(BuildError::EmptyGate(self.names[i].clone()));
            }
            for &c in ch {
                if c.index() >= n {
                    return Err(BuildError::ForeignChild(self.names[i].clone()));
                }
                if std::mem::replace(&mut last_parent[c.index()], i) == i {
                    return Err(BuildError::DuplicateChild {
                        gate: self.names[i].clone(),
                        child: self.names[c.index()].clone(),
                    });
                }
                parents[c.index()].push(v);
            }
        }
        let mut roots = (0..n).filter(|&i| parents[i].is_empty());
        let root = match roots.next() {
            Some(r) => NodeId::from_index(r),
            // Unreachable in practice: children precede parents, so the last
            // node can never be somebody's child... unless it is, in which
            // case an earlier node must be parentless. Defensive anyway.
            None => return Err(BuildError::Empty),
        };
        if let Some(other) = roots.next() {
            return Err(BuildError::MultipleRoots(
                self.names[root.index()].clone(),
                self.names[other].clone(),
            ));
        }
        let treelike = parents.iter().all(|p| p.len() <= 1);
        let mut bas_nodes = Vec::new();
        let mut bas_of_node = vec![None; n];
        for (i, ty) in self.types.iter().enumerate() {
            if *ty == NodeType::Bas {
                bas_of_node[i] = Some(BasId::from_index(bas_nodes.len()));
                bas_nodes.push(NodeId::from_index(i));
            }
        }
        Ok(AttackTree {
            types: self.types,
            children: self.children,
            parents,
            names: self.names,
            root,
            bas_nodes,
            bas_of_node,
            treelike,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_builder_fails() {
        assert_eq!(AttackTreeBuilder::new().build().unwrap_err(), BuildError::Empty);
    }

    #[test]
    fn single_bas_is_a_valid_tree() {
        let mut b = AttackTreeBuilder::new();
        let x = b.bas("x");
        let t = b.build().unwrap();
        assert_eq!(t.root(), x);
        assert_eq!(t.bas_count(), 1);
        assert!(t.is_treelike());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = AttackTreeBuilder::new();
        let x = b.bas("x");
        let y = b.bas("x");
        b.or("r", [x, y]);
        assert_eq!(b.build().unwrap_err(), BuildError::DuplicateName("x".into()));
    }

    #[test]
    fn empty_gate_rejected() {
        let mut b = AttackTreeBuilder::new();
        let x = b.bas("x");
        let g = b.or("g", []);
        b.and("r", [x, g]);
        assert_eq!(b.build().unwrap_err(), BuildError::EmptyGate("g".into()));
    }

    #[test]
    fn multiple_roots_rejected() {
        let mut b = AttackTreeBuilder::new();
        b.bas("x");
        b.bas("y");
        let err = b.build().unwrap_err();
        assert!(matches!(err, BuildError::MultipleRoots(_, _)));
    }

    #[test]
    fn duplicate_child_rejected() {
        let mut b = AttackTreeBuilder::new();
        let x = b.bas("x");
        b.and("r", [x, x]);
        let err = b.build().unwrap_err();
        assert!(matches!(err, BuildError::DuplicateChild { .. }));
    }

    #[test]
    fn foreign_child_rejected() {
        let mut other = AttackTreeBuilder::new();
        let x = other.bas("x");
        let _y = other.bas("y");
        let foreign = other.or("r", [x]); // id 2, beyond the new builder's range

        let mut b = AttackTreeBuilder::new();
        let a = b.bas("a");
        b.or("g", [a, foreign]);
        assert_eq!(b.build().unwrap_err(), BuildError::ForeignChild("g".into()));
    }

    #[test]
    fn shared_child_makes_dag() {
        let mut b = AttackTreeBuilder::new();
        let x = b.bas("x");
        let y = b.bas("y");
        let z = b.bas("z");
        let g1 = b.and("g1", [x, y]);
        let g2 = b.and("g2", [y, z]);
        b.or("r", [g1, g2]);
        let t = b.build().unwrap();
        assert!(!t.is_treelike());
        let yid = t.find("y").unwrap();
        assert_eq!(t.parents(yid).len(), 2);
    }

    #[test]
    fn gate_helper_matches_explicit_constructors() {
        let mut b = AttackTreeBuilder::new();
        let x = b.bas("x");
        let y = b.bas("y");
        let g = b.gate("g", NodeType::And, [x, y]);
        let _r = b.gate("r", NodeType::Or, [g]);
        let t = b.build().unwrap();
        assert_eq!(t.node_type(t.find("g").unwrap()), NodeType::And);
        assert_eq!(t.node_type(t.root()), NodeType::Or);
    }

    #[test]
    #[should_panic(expected = "use AttackTreeBuilder::bas")]
    fn gate_helper_rejects_bas_type() {
        let mut b = AttackTreeBuilder::new();
        b.gate("g", NodeType::Bas, []);
    }
}
