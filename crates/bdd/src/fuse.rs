//! BDD-fused Pareto-front computation: exact DAG analysis for all four
//! query families.
//!
//! The bottom-up solver recurses over the *tree*, so a BAS shared between
//! two subtrees is double-counted on DAG-shaped inputs; the enumerative
//! oracle is exact but exponential in the BAS count. This module runs the
//! staircase recursion over a *decision diagram* of the queried attribute
//! instead: every attack appears on exactly one root-to-terminal path, so
//! sharing is handled exactly, and hash-consing makes the recursion
//! polynomial in the diagram size rather than the attack count.
//!
//! The pipeline, per query family:
//!
//! 1. Compile the structure function with [`compile_structure`] (BAS `b`
//!    ↦ variable `b`, so diagram variable order is BAS id order).
//! 2. Build an [`Add`] of the queried attribute — the attack-to-value map —
//!    by combining per-node diagrams with [`Add::plus`] / [`Add::scale`] /
//!    [`Add::prob_transform`] in **the same floating-point evaluation order
//!    as the enumerative oracle**, so terminals are bit-identical to what
//!    enumeration computes.
//! 3. Run one generic front recursion ([`AttributeDomain`]-parameterized)
//!    bottom-up over the ADD with push-time dominance pruning, keeping for
//!    every surviving value the **numerically smallest witness attack** —
//!    exactly the witness the first-match-wins enumerative oracle reports.
//!
//! Byte-identity with the oracle is guaranteed for integer costs and
//! damages (the generator's decoration), plus dyadic success probabilities
//! `≥ 0.25` for the probability-maximization family; arbitrary attributes
//! remain exact up to the usual floating-point reassociation caveats.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::rc::Rc;

use cdat_core::{Attack, BasId, CdAttackTree, CdpAttackTree};
use cdat_pareto::{AttributeDomain, CdTriples, FrontEntry, MaxProb, MinTime, ParetoFront, Triple};

use crate::add::{Add, AddLimit, AddRef, DEFAULT_NODE_LIMIT};
use crate::compile_structure;

/// A front over the sub-universe below an ADD node: dominance-minimal
/// values in `cmp_key` order, each with its numerically smallest witness.
type Front<D> = Rc<Vec<(<D as AttributeDomain>::Value, Attack)>>;

/// Merges two staircase-ordered fronts, keeping the numerically smallest
/// witness among entries with bit-equal values and pruning dominated
/// values at push time.
///
/// This mirrors `Staircase::union`, except that ties between equal values
/// break on [`Attack::cmp_numeric`] instead of "self wins": the enumerative
/// oracle attaches the first matching attack in ascending bit-pattern
/// order, so the fused recursion must minimize the same order.
fn union_min_mask<D: AttributeDomain>(
    a: &[(D::Value, Attack)],
    b: &[(D::Value, Attack)],
) -> Vec<(D::Value, Attack)> {
    let mut out: Vec<(D::Value, Attack)> = Vec::with_capacity(a.len().max(b.len()));
    let mut stairs = D::Stairs::default();
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let take_a = match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) => {
                D::cmp_key(&x.0, &y.0).then_with(|| x.1.cmp_numeric(&y.1)) != Ordering::Greater
            }
            (Some(_), None) => true,
            _ => false,
        };
        let (v, w) = if take_a {
            i += 1;
            &a[i - 1]
        } else {
            j += 1;
            &b[j - 1]
        };
        // Equal values arrive adjacently with the smaller mask first; the
        // later duplicates are dropped here.
        if out.last().is_some_and(|(prev, _)| *prev == *v) {
            continue;
        }
        if D::admit(&mut stairs, v) {
            out.push((*v, w.clone()));
        }
    }
    out
}

/// The generic fused recursion: computes the Pareto front of the attribute
/// function represented by `root`, over attacks on `bas_count` BASs.
///
/// `terminal` maps a leaf value to the front entry of the empty attack in
/// its sub-universe (`None` = no useful attack, e.g. a failing scalar
/// path); `shift` folds an attempted BAS into an inherited value. Keeping
/// `shift` a caller-supplied closure (instead of `combine_and` with a unit)
/// lets each family reproduce its oracle's exact floating-point expression.
fn fused_front<D: AttributeDomain>(
    add: &Add,
    root: AddRef,
    bas_count: usize,
    terminal: &impl Fn(f64) -> Option<D::Value>,
    shift: &impl Fn(usize, &D::Value) -> D::Value,
    memo: &mut HashMap<AddRef, Front<D>>,
) -> Front<D> {
    if let Some(front) = memo.get(&root) {
        return front.clone();
    }
    let front = if let Some(t) = add.terminal_value(root) {
        match terminal(t) {
            Some(v) => vec![(v, Attack::empty(bas_count))],
            None => Vec::new(),
        }
    } else {
        let (var, lo, hi) = add.decompose(root).expect("non-terminal");
        let lo_front = fused_front::<D>(add, lo, bas_count, terminal, shift, memo);
        let hi_front = fused_front::<D>(add, hi, bas_count, terminal, shift, memo);
        // The hi cofactor's attacks additionally attempt `var`. Witnesses
        // below a node never mention the node's own variable (or any
        // smaller one), so inserting the bit keeps masks consistent.
        let shifted: Vec<(D::Value, Attack)> = hi_front
            .iter()
            .map(|(v, w)| {
                let mut w = w.clone();
                w.insert(BasId::new(var));
                (shift(var, v), w)
            })
            .collect();
        union_min_mask::<D>(&lo_front, &shifted)
    };
    let front = Rc::new(front);
    memo.insert(root, front.clone());
    front
}

fn run_front<D: AttributeDomain>(
    add: &Add,
    root: AddRef,
    bas_count: usize,
    terminal: impl Fn(f64) -> Option<D::Value>,
    shift: impl Fn(usize, &D::Value) -> D::Value,
) -> Vec<(D::Value, Attack)> {
    let mut memo: HashMap<AddRef, Front<D>> = HashMap::new();
    let front = fused_front::<D>(add, root, bas_count, &terminal, &shift, &mut memo);
    drop(memo);
    Rc::try_unwrap(front).unwrap_or_else(|rc| (*rc).clone())
}

/// Builds the damage ADD of a deterministic cd-AT: attack ↦ total damage of
/// all reached nodes, summed in ascending node order like
/// `CdAttackTree::damage_of`.
fn damage_add(cd: &CdAttackTree) -> Result<(Add, AddRef), AddLimit> {
    let tree = cd.tree();
    let (bdd, refs) = compile_structure(tree);
    let mut add = Add::new(tree.bas_count(), DEFAULT_NODE_LIMIT);
    let mut acc = add.constant(0.0)?;
    for (v, &d) in cd.damages().iter().enumerate() {
        if d != 0.0 {
            let node = add.import_bdd(&bdd, refs[v], 0.0, d)?;
            acc = add.plus(acc, node)?;
        }
    }
    Ok((add, acc))
}

/// The deterministic cost–damage Pareto front (CDPF), exact on DAGs.
///
/// Entry-for-entry identical — points and witness BAS sets — to
/// `cdat_enumerative::cdpf` for integer attributes: both cost and damage
/// are recomputed from the witness via `cost_of` / `damage_of`, so the ADD
/// terminals only steer dominance decisions.
pub fn cdpf(cd: &CdAttackTree) -> Result<ParetoFront, AddLimit> {
    let n = cd.tree().bas_count();
    let (add, root) = damage_add(cd)?;
    let costs = cd.costs();
    let entries = run_front::<CdTriples<bool>>(
        &add,
        root,
        n,
        |t| Some(Triple { cost: 0.0, damage: t, act: true }),
        |b, v| Triple { cost: v.cost + costs[b], damage: v.damage, act: true },
    );
    Ok(ParetoFront::from_entries(
        entries
            .into_iter()
            .map(|(_, w)| FrontEntry::with_witness(cd.cost_of(&w), cd.damage_of(&w), w)),
    ))
}

/// The probabilistic cost–expected-damage Pareto front (CEDPF), exact on
/// DAGs.
///
/// The expected damage of each entry is the ADD terminal itself, which
/// [`Add::prob_transform`] and [`Add::scale`] keep bit-identical to the
/// oracle's `Σ dᵥ · P(v reached)` evaluation; the cost is recomputed from
/// the witness.
pub fn cedpf(cdp: &CdpAttackTree) -> Result<ParetoFront, AddLimit> {
    let tree = cdp.tree();
    let n = tree.bas_count();
    let (bdd, refs) = compile_structure(tree);
    let mut add = Add::new(n, DEFAULT_NODE_LIMIT);
    let mut acc = add.constant(0.0)?;
    for (v, &d) in cdp.cd().damages().iter().enumerate() {
        if d != 0.0 {
            let reach = add.prob_transform(&bdd, refs[v], cdp.probs())?;
            let weighted = add.scale(d, reach)?;
            acc = add.plus(acc, weighted)?;
        }
    }
    let costs = cdp.cd().costs();
    let entries = run_front::<CdTriples<bool>>(
        &add,
        acc,
        n,
        |t| Some(Triple { cost: 0.0, damage: t, act: true }),
        |b, v| Triple { cost: v.cost + costs[b], damage: v.damage, act: true },
    );
    Ok(ParetoFront::from_entries(
        entries.into_iter().map(|(v, w)| FrontEntry::with_witness(cdp.cost_of(&w), v.damage, w)),
    ))
}

/// Minimal cost of reaching the root (the paper's min-time specialization),
/// exact on DAGs. Returns a one-entry front (cost in the value slot, damage
/// `0.0`) like the enumerative scalar oracle, or an empty front when the
/// root is unreachable.
pub fn min_time(cd: &CdAttackTree) -> Result<ParetoFront, AddLimit> {
    let tree = cd.tree();
    let n = tree.bas_count();
    let (bdd, refs) = compile_structure(tree);
    let mut add = Add::new(n, DEFAULT_NODE_LIMIT);
    let root = add.import_bdd(&bdd, refs[tree.root().index()], 0.0, 1.0)?;
    let costs = cd.costs();
    let entries =
        run_front::<MinTime>(&add, root, n, |t| (t == 1.0).then_some(0.0), |b, v| v + costs[b]);
    Ok(ParetoFront::from_entries(
        entries.into_iter().map(|(_, w)| FrontEntry::with_witness(cd.cost_of(&w), 0.0, w)),
    ))
}

/// Maximal success probability of reaching the root, exact on DAGs. Returns
/// a one-entry front (probability in the value slot, damage `0.0`), or an
/// empty front when the root is unreachable.
pub fn max_prob(cdp: &CdpAttackTree) -> Result<ParetoFront, AddLimit> {
    let tree = cdp.tree();
    let n = tree.bas_count();
    let (bdd, refs) = compile_structure(tree);
    let mut add = Add::new(n, DEFAULT_NODE_LIMIT);
    let root = add.import_bdd(&bdd, refs[tree.root().index()], 0.0, 1.0)?;
    let probs = cdp.probs();
    let entries =
        run_front::<MaxProb>(&add, root, n, |t| (t == 1.0).then_some(1.0), |b, v| v * probs[b]);
    Ok(ParetoFront::from_entries(entries.into_iter().map(|(_, w)| {
        let p = w.iter().map(|b| cdp.prob(b)).product::<f64>();
        FrontEntry::with_witness(p, 0.0, w)
    })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdat_core::AttackTreeBuilder;

    /// r = (x ∧ y) ∨ (x ∧ z) with x shared: the canonical shape where the
    /// tree recursion double-counts x's cost and damage.
    fn shared_dag() -> CdAttackTree {
        let mut b = AttackTreeBuilder::new();
        let x = b.bas("x");
        let y = b.bas("y");
        let z = b.bas("z");
        let left = b.and("left", [x, y]);
        let right = b.and("right", [x, z]);
        let _root = b.or("root", [left, right]);
        let tree = b.build().expect("valid dag");
        assert!(!tree.is_treelike());
        CdAttackTree::builder(tree)
            .cost("x", 5.0)
            .and_then(|b| b.cost("y", 3.0))
            .and_then(|b| b.cost("z", 4.0))
            .and_then(|b| b.damage("x", 1.0))
            .and_then(|b| b.damage("left", 10.0))
            .and_then(|b| b.damage("right", 20.0))
            .and_then(|b| b.damage("root", 100.0))
            .and_then(|b| b.finish())
            .expect("valid attributes")
    }

    fn brute_cdpf(cd: &CdAttackTree) -> ParetoFront {
        let n = cd.tree().bas_count();
        ParetoFront::from_entries(
            Attack::all(n).map(|x| FrontEntry::with_witness(cd.cost_of(&x), cd.damage_of(&x), x)),
        )
    }

    #[test]
    fn cdpf_matches_brute_force_on_a_shared_dag() {
        let cd = shared_dag();
        let fused = cdpf(&cd).expect("within budget");
        let oracle = brute_cdpf(&cd);
        assert_eq!(fused, oracle, "fused {fused:?} vs oracle {oracle:?}");
    }

    #[test]
    fn witnesses_are_the_numerically_smallest_attacks() {
        // Two BASs with identical attributes: the oracle reports the one
        // with the smaller bit pattern.
        let mut b = AttackTreeBuilder::new();
        let p = b.bas("p");
        let q = b.bas("q");
        let _root = b.or("root", [p, q]);
        let tree = b.build().expect("valid tree");
        let cd = CdAttackTree::builder(tree)
            .cost("p", 2.0)
            .and_then(|b| b.cost("q", 2.0))
            .and_then(|b| b.damage("root", 9.0))
            .and_then(|b| b.finish())
            .expect("valid attributes");
        let fused = cdpf(&cd).expect("within budget");
        let oracle = brute_cdpf(&cd);
        assert_eq!(fused, oracle);
        let witnesses: Vec<_> =
            fused.entries().iter().map(|e| e.witness.clone().expect("witness")).collect();
        assert!(witnesses.contains(&Attack::from_bas_ids(2, [BasId::new(0)])));
    }

    #[test]
    fn min_time_picks_the_cheapest_reaching_attack() {
        let cd = shared_dag();
        let front = min_time(&cd).expect("within budget");
        let entries = front.entries();
        assert_eq!(entries.len(), 1);
        // Cheapest root-reaching attack: {x, y} at cost 8 (tree recursion
        // would price the right branch at 5 + 4 = 9, and a double-counting
        // bottom-up pass would see 2·5 under the disjunction).
        assert_eq!(entries[0].point.cost, 8.0);
        assert_eq!(
            entries[0].witness.as_ref().expect("witness"),
            &Attack::from_bas_ids(3, [BasId::new(0), BasId::new(1)])
        );
    }

    #[test]
    fn probabilistic_families_match_the_bdd_oracle_bitwise() {
        let cd = shared_dag();
        let cdp = CdpAttackTree::from_parts(cd.clone(), vec![0.5, 0.75, 0.25])
            .expect("valid probabilities");

        // Oracle: exhaustive expected damage over the structure BDD.
        let tree = cdp.tree();
        let n = tree.bas_count();
        let (bdd, refs) = compile_structure(tree);
        let damage_nodes: Vec<(usize, f64)> = cd
            .damages()
            .iter()
            .enumerate()
            .filter(|(_, &d)| d != 0.0)
            .map(|(i, &d)| (i, d))
            .collect();
        let oracle = ParetoFront::from_entries(Attack::all(n).map(|x| {
            let masked: Vec<f64> = (0..n)
                .map(|i| if x.contains(BasId::new(i)) { cdp.prob(BasId::new(i)) } else { 0.0 })
                .collect();
            let ed: f64 =
                damage_nodes.iter().map(|&(i, d)| d * bdd.probability(refs[i], &masked)).sum();
            FrontEntry::with_witness(cdp.cost_of(&x), ed, x)
        }));
        let fused = cedpf(&cdp).expect("within budget");
        assert_eq!(fused, oracle, "fused {fused:?} vs oracle {oracle:?}");

        // Max-prob: best product over root-reaching attacks, smallest mask.
        let root_ref = refs[tree.root().index()];
        let mut best: Option<(f64, Attack)> = None;
        for x in Attack::all(n) {
            let asg: Vec<bool> = (0..n).map(|i| x.contains(BasId::new(i))).collect();
            if !bdd.eval(root_ref, &asg) {
                continue;
            }
            let p = x.iter().map(|b| cdp.prob(b)).product::<f64>();
            if best.as_ref().is_none_or(|(bp, _)| p > *bp) {
                best = Some((p, x));
            }
        }
        let (bp, bx) = best.expect("root reachable");
        let front = max_prob(&cdp).expect("within budget");
        assert_eq!(front.entries().len(), 1);
        assert_eq!(front.entries()[0].point.cost.to_bits(), bp.to_bits());
        assert_eq!(front.entries()[0].witness.as_ref().expect("witness"), &bx);
    }

    #[test]
    fn single_bas_scalars_behave() {
        let mut b = AttackTreeBuilder::new();
        b.bas("x");
        let tree = b.build().expect("valid tree");
        let cd = CdAttackTree::builder(tree)
            .cost("x", 1.5)
            .and_then(|b| b.damage("x", 2.0))
            .and_then(|b| b.finish())
            .expect("valid attributes");
        let front = min_time(&cd).expect("within budget");
        assert_eq!(front.entries().len(), 1);
        assert_eq!(front.entries()[0].point.cost, 1.5);
        let cdp = CdpAttackTree::from_parts(cd, vec![0.25]).expect("valid probabilities");
        let front = max_prob(&cdp).expect("within budget");
        assert_eq!(front.entries().len(), 1);
        assert_eq!(front.entries()[0].point.cost, 0.25);
    }
}
