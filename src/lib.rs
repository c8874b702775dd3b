//! # cdat — cost-damage analysis of attack trees
//!
//! A Rust implementation of *"Cost-damage analysis of attack trees"*
//! (Lopuhaä-Zwakenberg & Stoelinga, DSN 2023). An attacker wants to do as
//! much damage as possible under a cost budget; every node of the attack
//! tree carries a damage value, every basic attack step (BAS) a cost, and —
//! crucially — attacks that never reach the root still count. The library
//! answers the paper's three questions exactly:
//!
//! * **CDPF** — the full cost-damage Pareto front ([`solve::cdpf`]),
//! * **DgC** — the most damaging attack within a budget ([`solve::dgc`]),
//! * **CgD** — the cheapest attack reaching a damage threshold
//!   ([`solve::cgd`]),
//!
//! plus the probabilistic variants where BASs succeed with a probability
//! ([`solve::cedpf`], [`solve::edgc`], [`solve::cged`]), and two scalar
//! attribute-domain queries over the same generic bottom-up kernel
//! ([`cdat_pareto::AttributeDomain`]): minimal time-to-attack
//! ([`solve::min_time`]) and maximal single-attack success probability
//! ([`solve::max_prob`]).
//!
//! # Quick start
//!
//! ```
//! use cdat::{AttackTreeBuilder, CdAttackTree};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's running example: shut down a factory.
//! let mut b = AttackTreeBuilder::new();
//! let ca = b.bas("cyberattack");
//! let pb = b.bas("place bomb");
//! let fd = b.bas("force door");
//! let dr = b.and("destroy robot", [pb, fd]);
//! let _ps = b.or("production shutdown", [ca, dr]);
//!
//! let cd = CdAttackTree::builder(b.build()?)
//!     .cost("cyberattack", 1.0)?
//!     .cost("place bomb", 3.0)?
//!     .cost("force door", 2.0)?
//!     .damage("force door", 10.0)?
//!     .damage("destroy robot", 100.0)?
//!     .damage("production shutdown", 200.0)?
//!     .finish()?;
//!
//! // The Pareto front tells the whole cost-damage story:
//! let front = cdat::solve::cdpf(&cd)?;
//! assert_eq!(front.to_string(), "{(0, 0), (1, 200), (3, 210), (5, 310)}");
//!
//! // With a budget of 2, the worst the attacker can do is 200:
//! let best = cdat::solve::dgc(&cd, 2.0)?.expect("budget is nonnegative");
//! assert_eq!(best.point.damage, 200.0);
//! # Ok(()) }
//! ```
//!
//! # Crate map
//!
//! | crate | contents |
//! |-------|----------|
//! | [`core`] | attack-tree model, attacks, structure function, cd/cdp attribution, theory constructions |
//! | [`pareto`] | fronts, extended attribute triples, generic attribute domains, `min_U` pruning |
//! | [`bottomup`] | treelike solver over any attribute domain, deterministic + probabilistic + scalar |
//! | [`bilp`] | Theorem 6/7 encodings for DAG-like trees |
//! | [`engine`] | parallel batch solving, structural dedup, memoizing front cache with LRU eviction |
//! | [`server`] | micro-batching query server: JSON-lines protocol (see `docs/PROTOCOL.md`), shard-by-hash routing |
//! | [`store`] | append-only persistent front store (warm restarts; layout in `docs/ARCHITECTURE.md`) |
//! | [`ilp`] | simplex, branch-and-bound, bi-objective ε-constraint |
//! | [`enumerative`] | brute-force baselines, exact DAG-probabilistic extension |
//! | [`bdd`] | hash-consed BDDs for structure functions |
//! | [`models`] | case studies (panda IoT, data server) and Table IV blocks |
//! | [`obs`] | counters, log2 latency histograms, Prometheus text exposition, JSONL trace recorder |
//! | [`gen`] | random AT suites |
//! | [`analysis`] | defense what-ifs, defense ranking, minimal attacks |
//! | [`format`](mod@format) | human-writable text format (used by the `cdat` CLI) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cdat_analysis as analysis;
pub use cdat_bdd as bdd;
pub use cdat_bilp as bilp;
pub use cdat_bottomup as bottomup;
pub use cdat_core as core;
pub use cdat_engine as engine;
pub use cdat_enumerative as enumerative;
pub use cdat_format as format;
pub use cdat_gen as gen;
pub use cdat_ilp as ilp;
pub use cdat_models as models;
pub use cdat_obs as obs;
pub use cdat_pareto as pareto;
pub use cdat_server as server;
pub use cdat_store as store;

pub use cdat_core::{
    binarize, Attack, AttackTree, AttackTreeBuilder, BasId, CdAttackTree, CdpAttackTree, NodeId,
    NodeType,
};
pub use cdat_pareto::{CostDamage, FrontEntry, ParetoFront};

pub mod serve;
pub mod solve;
