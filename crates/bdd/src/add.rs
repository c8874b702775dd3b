//! Algebraic decision diagrams (ADDs): hash-consed decision diagrams with
//! `f64` terminals.
//!
//! The fused DAG solvers ([`crate::fuse`]) need more than the Boolean
//! structure function: they need the *damage function* of an attack tree as
//! a decision diagram, so that a Pareto-front recursion can staircase-merge
//! over its nodes. An [`Add`] is the multi-terminal generalization of
//! [`Bdd`]: internal nodes Shannon-decompose on a variable,
//! leaves carry real values, and hash-consing keeps semantically equal
//! functions pointer-equal (terminals are interned by their exact bit
//! pattern, so "equal" means bit-equal — the fused solvers rely on this to
//! reproduce the enumerative oracle's floating-point results verbatim).
//!
//! Every constructor is fallible: the manager enforces a node budget and
//! returns [`AddLimit`] instead of exhausting memory on adversarially
//! entangled DAGs, which callers surface as a clean, cacheable error.

use std::collections::HashMap;

use crate::{Bdd, NodeRef};

/// Default node budget for fused analysis (see [`Add::new`]).
///
/// Two million nodes corresponds to a few hundred MB of peak working set —
/// far beyond any benchmarked workload, while still failing cleanly (rather
/// than thrashing) on pathological inputs.
pub const DEFAULT_NODE_LIMIT: usize = 1 << 21;

/// Reference to an ADD node inside its [`Add`] manager.
///
/// References are only meaningful for the manager that produced them.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct AddRef(u32);

/// The ADD node budget was exhausted (see [`Add::new`]).
///
/// This is the only failure mode of fused analysis: the input DAG's decision
/// diagram grew past the manager's limit. It is deterministic for a given
/// input, so callers may cache it like any other analysis error.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AddLimit {
    /// The budget that was exhausted.
    pub limit: usize,
}

impl std::fmt::Display for AddLimit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "the BDD-fused solver exceeded its decision-diagram budget of {} nodes",
            self.limit
        )
    }
}

impl std::error::Error for AddLimit {}

#[derive(Copy, Clone)]
struct ANode {
    var: u32,
    /// Child for `var = 0`; for terminals (`var == sentinel`), the index of
    /// the value in `values`.
    lo: u32,
    hi: u32,
}

#[derive(Copy, Clone, Eq, PartialEq, Hash)]
enum Op2 {
    /// Pointwise `l + r`.
    Plus,
    /// Pointwise `(1 - p)·l + p·r` for the probability whose bits these are.
    Affine(u64),
}

/// A hash-consed ADD manager over a fixed set of Boolean variables.
///
/// Variables are indexed `0..num_vars` and ordered by index (for attack
/// trees: BAS id order), compatible with the [`Bdd`] managers produced by
/// [`compile_structure`](crate::compile_structure) — [`Add::import_bdd`] and
/// [`Add::prob_transform`] import BDDs directly.
pub struct Add {
    nodes: Vec<ANode>,
    values: Vec<f64>,
    terminals: HashMap<u64, u32>,
    unique: HashMap<(u32, u32, u32), u32>,
    apply_cache: HashMap<(Op2, u32, u32), u32>,
    scale_cache: HashMap<(u64, u32), u32>,
    num_vars: usize,
    node_limit: usize,
}

impl std::fmt::Debug for Add {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Add")
            .field("num_vars", &self.num_vars)
            .field("nodes", &self.nodes.len())
            .field("terminals", &self.values.len())
            .finish()
    }
}

impl Add {
    /// Creates a manager for `num_vars` variables with a total node budget
    /// of `node_limit` (terminals included); constructors return
    /// [`AddLimit`] once it is exhausted.
    pub fn new(num_vars: usize, node_limit: usize) -> Self {
        let _ = u32::try_from(num_vars).expect("too many variables");
        Add {
            nodes: Vec::new(),
            values: Vec::new(),
            terminals: HashMap::new(),
            unique: HashMap::new(),
            apply_cache: HashMap::new(),
            scale_cache: HashMap::new(),
            num_vars,
            node_limit,
        }
    }

    /// Number of variables of the manager.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Total number of live nodes in the manager (a capacity measure).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn sentinel(&self) -> u32 {
        self.num_vars as u32
    }

    fn push_node(&mut self, node: ANode) -> Result<u32, AddLimit> {
        if self.nodes.len() >= self.node_limit {
            return Err(AddLimit { limit: self.node_limit });
        }
        self.nodes.push(node);
        Ok((self.nodes.len() - 1) as u32)
    }

    fn term_idx(&mut self, value: f64) -> Result<u32, AddLimit> {
        if let Some(&i) = self.terminals.get(&value.to_bits()) {
            return Ok(i);
        }
        let sentinel = self.sentinel();
        let vi = self.values.len() as u32;
        let i = self.push_node(ANode { var: sentinel, lo: vi, hi: 0 })?;
        self.values.push(value);
        self.terminals.insert(value.to_bits(), i);
        Ok(i)
    }

    fn mk(&mut self, var: u32, lo: u32, hi: u32) -> Result<u32, AddLimit> {
        if lo == hi {
            return Ok(lo);
        }
        if let Some(&i) = self.unique.get(&(var, lo, hi)) {
            return Ok(i);
        }
        let i = self.push_node(ANode { var, lo, hi })?;
        self.unique.insert((var, lo, hi), i);
        Ok(i)
    }

    /// The constant function `value`.
    pub fn constant(&mut self, value: f64) -> Result<AddRef, AddLimit> {
        self.term_idx(value).map(AddRef)
    }

    /// The value of a terminal node, or `None` for internal nodes.
    pub fn terminal_value(&self, f: AddRef) -> Option<f64> {
        let n = self.nodes[f.0 as usize];
        (n.var == self.sentinel()).then(|| self.values[n.lo as usize])
    }

    /// Shannon-decomposes an internal node into `(variable, lo, hi)`:
    /// `f = if x_variable then hi else lo`. Returns `None` on terminals.
    pub fn decompose(&self, f: AddRef) -> Option<(usize, AddRef, AddRef)> {
        let n = self.nodes[f.0 as usize];
        (n.var != self.sentinel()).then_some((n.var as usize, AddRef(n.lo), AddRef(n.hi)))
    }

    /// Imports a BDD as the two-terminal ADD mapping `false ↦ lo_value` and
    /// `true ↦ hi_value`.
    ///
    /// # Panics
    ///
    /// Panics if the BDD manager ranges over a different variable count.
    pub fn import_bdd(
        &mut self,
        bdd: &Bdd,
        f: NodeRef,
        lo_value: f64,
        hi_value: f64,
    ) -> Result<AddRef, AddLimit> {
        assert_eq!(bdd.num_vars(), self.num_vars, "variable universes must agree");
        let zero = self.term_idx(lo_value)?;
        let one = self.term_idx(hi_value)?;
        let mut memo = HashMap::new();
        self.import_bdd_rec(bdd, f, zero, one, &mut memo).map(AddRef)
    }

    fn import_bdd_rec(
        &mut self,
        bdd: &Bdd,
        f: NodeRef,
        zero: u32,
        one: u32,
        memo: &mut HashMap<NodeRef, u32>,
    ) -> Result<u32, AddLimit> {
        if f == NodeRef::FALSE {
            return Ok(zero);
        }
        if f == NodeRef::TRUE {
            return Ok(one);
        }
        if let Some(&r) = memo.get(&f) {
            return Ok(r);
        }
        let (var, lo, hi) = bdd.decompose(f).expect("non-terminal");
        let l = self.import_bdd_rec(bdd, lo, zero, one, memo)?;
        let h = self.import_bdd_rec(bdd, hi, zero, one, memo)?;
        let r = self.mk(var as u32, l, h)?;
        memo.insert(f, r);
        Ok(r)
    }

    /// Imports a BDD as its *reach-probability* ADD: the function mapping an
    /// attack `x` (an assignment of the decision variables) to the exact
    /// probability that `f` holds when every attempted BAS `b ∈ x`
    /// independently succeeds with probability `probs[b]`.
    ///
    /// The terminal reached along a path is computed with **the same
    /// floating-point expression, in the same order**, as
    /// [`Bdd::probability`] over the attack-masked probability table — the
    /// fused probabilistic solver depends on this to be bit-identical to the
    /// enumerative DAG oracle.
    ///
    /// # Panics
    ///
    /// Panics if `probs.len()` differs from the variable count or the BDD
    /// manager ranges over a different variable count.
    pub fn prob_transform(
        &mut self,
        bdd: &Bdd,
        f: NodeRef,
        probs: &[f64],
    ) -> Result<AddRef, AddLimit> {
        assert_eq!(bdd.num_vars(), self.num_vars, "variable universes must agree");
        assert_eq!(probs.len(), self.num_vars, "one probability per variable");
        let mut memo = HashMap::new();
        self.prob_rec(bdd, f, probs, &mut memo).map(AddRef)
    }

    fn prob_rec(
        &mut self,
        bdd: &Bdd,
        f: NodeRef,
        probs: &[f64],
        memo: &mut HashMap<NodeRef, u32>,
    ) -> Result<u32, AddLimit> {
        if f == NodeRef::FALSE {
            return self.term_idx(0.0);
        }
        if f == NodeRef::TRUE {
            return self.term_idx(1.0);
        }
        if let Some(&r) = memo.get(&f) {
            return Ok(r);
        }
        let (var, lo, hi) = bdd.decompose(f).expect("non-terminal");
        let l = self.prob_rec(bdd, lo, probs, memo)?;
        let h = self.prob_rec(bdd, hi, probs, memo)?;
        // Not attempting `var` forces its success probability to zero, which
        // collapses the Shannon decomposition to the lo cofactor exactly;
        // attempting it mixes the cofactors with the BAS's probability.
        let mixed = self.apply2(Op2::Affine(probs[var].to_bits()), l, h)?;
        let r = self.mk(var as u32, l, mixed)?;
        memo.insert(f, r);
        Ok(r)
    }

    /// Pointwise sum `a + b`.
    pub fn plus(&mut self, a: AddRef, b: AddRef) -> Result<AddRef, AddLimit> {
        self.apply2(Op2::Plus, a.0, b.0).map(AddRef)
    }

    fn apply2(&mut self, op: Op2, a: u32, b: u32) -> Result<u32, AddLimit> {
        let (na, nb) = (self.nodes[a as usize], self.nodes[b as usize]);
        let sentinel = self.sentinel();
        if na.var == sentinel && nb.var == sentinel {
            let (l, r) = (self.values[na.lo as usize], self.values[nb.lo as usize]);
            let value = match op {
                Op2::Plus => l + r,
                Op2::Affine(bits) => {
                    let p = f64::from_bits(bits);
                    (1.0 - p) * l + p * r
                }
            };
            return self.term_idx(value);
        }
        // `+` commutes bit-for-bit, so normalize its cache key.
        let key = match op {
            Op2::Plus => (op, a.min(b), a.max(b)),
            Op2::Affine(_) => (op, a, b),
        };
        if let Some(&r) = self.apply_cache.get(&key) {
            return Ok(r);
        }
        let v = na.var.min(nb.var);
        let (al, ah) = if na.var == v { (na.lo, na.hi) } else { (a, a) };
        let (bl, bh) = if nb.var == v { (nb.lo, nb.hi) } else { (b, b) };
        let lo = self.apply2(op, al, bl)?;
        let hi = self.apply2(op, ah, bh)?;
        let r = self.mk(v, lo, hi)?;
        self.apply_cache.insert(key, r);
        Ok(r)
    }

    /// Pointwise scaling `factor · a` (with `factor` as the left operand of
    /// the multiplication, matching the oracle's `damage · probability`).
    pub fn scale(&mut self, factor: f64, a: AddRef) -> Result<AddRef, AddLimit> {
        let key = (factor.to_bits(), a.0);
        if let Some(&r) = self.scale_cache.get(&key) {
            return Ok(AddRef(r));
        }
        let n = self.nodes[a.0 as usize];
        let r = if n.var == self.sentinel() {
            let v = self.values[n.lo as usize];
            self.term_idx(factor * v)?
        } else {
            let lo = self.scale(factor, AddRef(n.lo))?;
            let hi = self.scale(factor, AddRef(n.hi))?;
            self.mk(n.var, lo.0, hi.0)?
        };
        self.scale_cache.insert(key, r);
        Ok(AddRef(r))
    }

    /// Evaluates `f` under a total truth assignment.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != num_vars`.
    pub fn eval(&self, f: AddRef, assignment: &[bool]) -> f64 {
        assert_eq!(assignment.len(), self.num_vars, "assignment must cover all variables");
        let mut cur = f.0;
        loop {
            let n = self.nodes[cur as usize];
            if n.var == self.sentinel() {
                return self.values[n.lo as usize];
            }
            cur = if assignment[n.var as usize] { n.hi } else { n.lo };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assignments(n: usize) -> impl Iterator<Item = Vec<bool>> {
        (0..(1u32 << n)).map(move |m| (0..n).map(|i| m >> i & 1 == 1).collect())
    }

    #[test]
    fn import_bdd_maps_terminals_and_hash_conses() {
        let mut bdd = Bdd::new(2);
        let x = bdd.var(0);
        let y = bdd.var(1);
        let f = bdd.or(x, y);
        let mut add = Add::new(2, 1 << 10);
        let a = add.import_bdd(&bdd, f, 0.0, 7.5).unwrap();
        let b = add.import_bdd(&bdd, f, 0.0, 7.5).unwrap();
        assert_eq!(a, b, "hash-consing makes equal imports identical");
        for asg in assignments(2) {
            let expect = if bdd.eval(f, &asg) { 7.5 } else { 0.0 };
            assert_eq!(add.eval(a, &asg), expect, "{asg:?}");
        }
    }

    #[test]
    fn plus_is_pointwise_and_canonical() {
        let mut bdd = Bdd::new(3);
        let x = bdd.var(0);
        let y = bdd.var(1);
        let z = bdd.var(2);
        let xy = bdd.and(x, y);
        let f = bdd.or(xy, z);
        let mut add = Add::new(3, 1 << 10);
        let a = add.import_bdd(&bdd, f, 0.0, 3.0).unwrap();
        let b = add.import_bdd(&bdd, x, 0.0, 4.0).unwrap();
        let s1 = add.plus(a, b).unwrap();
        let s2 = add.plus(b, a).unwrap();
        assert_eq!(s1, s2, "plus commutes");
        for asg in assignments(3) {
            assert_eq!(add.eval(s1, &asg), add.eval(a, &asg) + add.eval(b, &asg), "{asg:?}");
        }
    }

    #[test]
    fn prob_transform_matches_masked_probability_bit_for_bit() {
        // f = (x ∧ y) ∨ (x ∧ z): shared x correlates the disjuncts.
        let mut bdd = Bdd::new(3);
        let x = bdd.var(0);
        let y = bdd.var(1);
        let z = bdd.var(2);
        let xy = bdd.and(x, y);
        let xz = bdd.and(x, z);
        let f = bdd.or(xy, xz);
        let probs = [0.3, 0.7, 0.9];
        let mut add = Add::new(3, 1 << 10);
        let t = add.prob_transform(&bdd, f, &probs).unwrap();
        for asg in assignments(3) {
            let masked: Vec<f64> = (0..3).map(|i| if asg[i] { probs[i] } else { 0.0 }).collect();
            let expect = bdd.probability(f, &masked);
            let got = add.eval(t, &asg);
            assert_eq!(got.to_bits(), expect.to_bits(), "{asg:?}: {got} vs {expect}");
        }
    }

    #[test]
    fn scale_multiplies_terminals() {
        let mut bdd = Bdd::new(1);
        let x = bdd.var(0);
        let mut add = Add::new(1, 1 << 10);
        let a = add.import_bdd(&bdd, x, 0.5, 2.5).unwrap();
        let s = add.scale(3.0, a).unwrap();
        assert_eq!(add.eval(s, &[false]), 1.5);
        assert_eq!(add.eval(s, &[true]), 7.5);
    }

    #[test]
    fn node_budget_fails_cleanly() {
        // A parity-like sum of many distinct singleton functions forces
        // terminal and node growth past a tiny budget.
        let n = 12;
        let mut bdd = Bdd::new(n);
        let mut add = Add::new(n, 24);
        let mut acc = add.constant(0.0).unwrap();
        let mut failed = None;
        for i in 0..n {
            let v = bdd.var(i);
            let t = match add.import_bdd(&bdd, v, 0.0, (i + 1) as f64) {
                Ok(t) => t,
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            };
            match add.plus(acc, t) {
                Ok(s) => acc = s,
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        let err = failed.expect("budget of 24 nodes must be exhausted");
        assert_eq!(err, AddLimit { limit: 24 });
        assert!(err.to_string().contains("decision-diagram budget of 24 nodes"));
    }
}
