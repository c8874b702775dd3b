//! Seeded, deterministic workload inputs. The same seed gives the same
//! trees, documents and request lists; the program under test sees only
//! the generated text.

use std::sync::Arc;

use cdat::core::CdpAttackTree;
use cdat::format::json;
use rand::prelude::*;

use crate::client::Req;

/// A treelike tree with `bas` basic attack steps and the paper's random
/// attributes (costs 1–10, damage 0–10 on every node, probabilities
/// 0.1–1.0).
pub fn treelike(rng: &mut StdRng, bas: usize) -> CdpAttackTree {
    let tree = cdat::gen::random_dag(rng, bas, 0.0);
    debug_assert!(tree.is_treelike());
    cdat::gen::decorate_prob(tree, rng)
}

/// A DAG-shaped tree (at least one shared node) with `bas` basic attack
/// steps and the same attributes as [`treelike`].
pub fn dag(rng: &mut StdRng, bas: usize) -> CdpAttackTree {
    loop {
        let tree = cdat::gen::random_dag(rng, bas, 0.5);
        if !tree.is_treelike() {
            return cdat::gen::decorate_prob(tree, rng);
        }
    }
}

/// The `cdat-format` text of a tree.
pub fn text(tree: &CdpAttackTree) -> String {
    cdat::format::write(tree)
}

/// A multi-document suite of `docs`, named `d0`, `d1`, … in order.
pub fn suite<'a>(docs: impl IntoIterator<Item = &'a str>) -> String {
    let mut out = String::new();
    for (i, doc) in docs.into_iter().enumerate() {
        out.push_str(&format!("--- d{i}\n"));
        out.push_str(doc);
        if !doc.ends_with('\n') {
            out.push('\n');
        }
    }
    out
}

/// The `"tree":"..."` request field carrying `doc`.
pub fn tree_field(doc: &str) -> Arc<str> {
    format!("\"tree\":\"{}\"", json::escape(doc)).into()
}

/// One query of a request: its wire fields and the `cdat batch` flags
/// that answer the same query for the reference check.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Combo {
    /// The request's fields after the document, with the closing brace.
    pub tail: &'static str,
    /// The equivalent `cdat batch` flags.
    pub flags: &'static [&'static str],
}

/// The six queries of the warm mix: cdpf, cedpf and dgc, each with and
/// without witnesses.
pub const WARM_COMBOS: [Combo; 6] = [
    Combo { tail: ",\"query\":\"cdpf\"}", flags: &["--cdpf"] },
    Combo { tail: ",\"query\":\"cdpf\",\"witnesses\":true}", flags: &["--cdpf", "--witnesses"] },
    Combo { tail: ",\"query\":\"cedpf\"}", flags: &["--cedpf"] },
    Combo { tail: ",\"query\":\"cedpf\",\"witnesses\":true}", flags: &["--cedpf", "--witnesses"] },
    Combo { tail: ",\"query\":\"dgc\",\"arg\":25}", flags: &["--dgc", "25"] },
    Combo {
        tail: ",\"query\":\"dgc\",\"arg\":25,\"witnesses\":true}",
        flags: &["--dgc", "25", "--witnesses"],
    },
];

/// The serve_warm inputs, generated as the run consumes them: a pool of
/// distinct trees, solved once per front family in the warm-up, then a
/// stream of requests of which half repeat an earlier document's bytes
/// exactly and half carry a fresh `isomorphic_copy` of a pool tree.
///
/// Memory stays bounded however fast the server answers: repeats draw
/// from the pool and the most recent copies, and only every
/// [`WarmStream::KEEP_EVERY`]-th copy's text is kept for the reference
/// check after the run.
pub struct WarmStream {
    rng: StdRng,
    trees: Vec<CdpAttackTree>,
    /// The pool trees' document texts.
    pub pool: Vec<String>,
    pool_fields: Vec<Arc<str>>,
    recent: std::collections::VecDeque<(u32, Arc<str>)>,
    /// The pool tree behind each document (pool documents first).
    pub pool_of: Vec<u32>,
    /// Texts of the documents kept for the reference check, by document.
    pub kept: std::collections::HashMap<u32, Arc<str>>,
}

/// One generated serve_warm request.
pub struct WarmReq {
    /// The request.
    pub req: Req,
    /// Its document.
    pub doc: u32,
    /// Whether the document's bytes were sent before.
    pub repeat: bool,
}

impl WarmStream {
    /// Copies a repeat can draw from besides the pool.
    const RECENT: usize = 4096;
    /// One copy in this many keeps its text for the reference check.
    pub const KEEP_EVERY: u32 = 8;

    /// `pool` treelike trees of `bas` BASs.
    pub fn new(seed: u64, pool: usize, bas: usize) -> WarmStream {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5741_524d);
        let trees: Vec<CdpAttackTree> = (0..pool).map(|_| treelike(&mut rng, bas)).collect();
        let docs: Vec<String> = trees.iter().map(text).collect();
        let pool_fields: Vec<Arc<str>> = docs.iter().map(|d| tree_field(d)).collect();
        let kept = pool_fields.iter().enumerate().map(|(i, f)| (i as u32, f.clone())).collect();
        WarmStream {
            rng,
            trees,
            pool: docs,
            pool_fields,
            recent: Default::default(),
            pool_of: (0..pool as u32).collect(),
            kept,
        }
    }

    /// Documents created so far.
    pub fn docs(&self) -> usize {
        self.pool_of.len()
    }

    /// The warm-up: every pool tree once per front family (cdpf keys the
    /// deterministic front dgc shares, cedpf the probabilistic one).
    pub fn warmup(&self) -> Vec<Req> {
        let mut out = Vec::new();
        for (doc, field) in self.pool_fields.iter().enumerate() {
            for combo in [0, 2] {
                out.push(warm_req(field, doc as u32, combo));
            }
        }
        out
    }

    /// The next `n` requests of the stream.
    pub fn next(&mut self, n: usize) -> Vec<WarmReq> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let (doc, field, repeat) = if self.rng.gen_bool(0.5) {
                let k = self.rng.gen_range(0..self.pool_fields.len() + self.recent.len());
                match k.checked_sub(self.pool_fields.len()) {
                    None => (k as u32, self.pool_fields[k].clone(), true),
                    Some(r) => (self.recent[r].0, self.recent[r].1.clone(), true),
                }
            } else {
                let p = self.rng.gen_range(0..self.trees.len());
                let copy = cdat::gen::isomorphic_copy(&self.trees[p], &mut self.rng);
                let field = tree_field(&text(&copy));
                let doc = self.pool_of.len() as u32;
                self.pool_of.push(p as u32);
                if doc.is_multiple_of(Self::KEEP_EVERY) {
                    self.kept.insert(doc, field.clone());
                }
                if self.recent.len() == Self::RECENT {
                    self.recent.pop_front();
                }
                self.recent.push_back((doc, field.clone()));
                (doc, field, false)
            };
            let combo = self.rng.gen_range(0..WARM_COMBOS.len());
            out.push(WarmReq { req: warm_req(&field, doc, combo), doc, repeat });
        }
        out
    }
}

fn warm_req(field: &Arc<str>, doc: u32, combo: usize) -> Req {
    Req {
        head: field.clone(),
        tail: WARM_COMBOS[combo].tail.into(),
        lines: 1,
        check: warm_slot(doc as usize, combo),
    }
}

/// The document text inside a `"tree":"..."` field.
pub fn field_text(field: &str) -> String {
    let value = json::parse(&format!("{{{field}}}")).expect("tree fields are JSON");
    value.get("tree").and_then(json::Value::as_str).expect("a tree field").to_owned()
}

/// Reference slot of (document, combo) in the warm mix.
pub fn warm_slot(doc: usize, combo: usize) -> u32 {
    u32::try_from(doc * WARM_COMBOS.len() + combo).expect("slot index fits u32")
}

/// The batch_cold suite: `count` all-distinct trees, treelike with `bas`
/// BASs except every `dag_every`-th, a DAG with `dag_bas` BASs.
pub fn cold(seed: u64, count: usize, bas: usize, dag_bas: usize, dag_every: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x434f_4c44);
    (0..count)
        .map(|i| {
            let tree = if i % dag_every == dag_every - 1 {
                dag(&mut rng, dag_bas)
            } else {
                treelike(&mut rng, bas)
            };
            text(&tree)
        })
        .collect()
}

/// The serve_store inputs: a working set of distinct treelike trees, the
/// half pre-written to the store, and the measured list — the whole
/// working set twice, shuffled, half the requests asking for witnesses.
pub struct Stored {
    /// The working set's document texts.
    pub docs: Vec<String>,
    /// Indices of the documents the untimed `cdat batch --store` run
    /// writes to the store before the server starts.
    pub prewritten: Vec<usize>,
    /// Per measured request, its document.
    pub list_docs: Vec<u32>,
    /// The measured request list.
    pub list: Vec<Req>,
}

/// The two store-workload combos: cdpf without and with witnesses.
pub const STORE_COMBOS: [Combo; 2] = [WARM_COMBOS[0], WARM_COMBOS[1]];

/// Builds the serve_store inputs.
pub fn stored(seed: u64, count: usize, bas: usize) -> Stored {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5354_4f52);
    let docs: Vec<String> = (0..count).map(|_| text(&treelike(&mut rng, bas))).collect();
    let fields: Vec<Arc<str>> = docs.iter().map(|d| tree_field(d)).collect();
    let mut order: Vec<usize> = (0..count).collect();
    shuffle(&mut order, &mut rng);
    let prewritten = order[..count / 2].to_vec();
    let mut sequence: Vec<usize> = (0..count).chain(0..count).collect();
    shuffle(&mut sequence, &mut rng);
    let mut list = Vec::with_capacity(sequence.len());
    for &doc in &sequence {
        let combo = usize::from(rng.gen_bool(0.5));
        list.push(Req {
            head: fields[doc].clone(),
            tail: STORE_COMBOS[combo].tail.into(),
            lines: 1,
            check: (doc * STORE_COMBOS.len() + combo) as u32,
        });
    }
    let list_docs = sequence.iter().map(|&d| d as u32).collect();
    Stored { docs, prewritten, list_docs, list }
}

/// The serve_interactive inputs: per base tree a plain cdpf solve, one
/// sweep of single-edit variants and a few single-edit what-ifs.
pub struct Interactive {
    /// The base trees' document texts.
    pub bases: Vec<String>,
    /// The request list of one session, in the order the analyst sends it.
    pub list: Vec<Req>,
    /// One reference per slot: the document whose `cdat batch` answer
    /// the slot's line must equal, and the combo that asks for it.
    pub refs: Vec<(String, Combo)>,
}

const SOLVE: Combo = WARM_COMBOS[0];
const WHATIF_COMBOS: [Combo; 2] =
    [WARM_COMBOS[1], Combo { tail: ",\"query\":\"dgc\",\"arg\":50}", flags: &["--dgc", "50"] }];

/// Builds the serve_interactive inputs: `bases` treelike trees of `bas`
/// BASs, each followed by a sweep of `variants` patches and `whatifs`
/// what-if requests. Every patch edits one cost, one damage or one gate
/// type; each variant is materialized (`TreePatch::apply`) for its
/// reference.
pub fn interactive(
    seed: u64,
    bases: usize,
    bas: usize,
    variants: usize,
    whatifs: usize,
) -> Interactive {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x494e_5445);
    let mut out = Interactive { bases: Vec::new(), list: Vec::new(), refs: Vec::new() };
    for _ in 0..bases {
        let doc = text(&treelike(&mut rng, bas));
        // The server resolves patch names against the parsed document, so
        // the variants are materialized from the same parse.
        let tree = cdat::format::parse(&doc).expect("generated documents parse");
        let field = tree_field(&doc);
        let slot = |out: &Interactive| out.refs.len() as u32;

        out.list.push(Req {
            head: field.clone(),
            tail: SOLVE.tail.into(),
            lines: 1,
            check: slot(&out),
        });
        out.refs.push((doc.clone(), SOLVE));

        let mut patches = Vec::with_capacity(variants);
        let check = slot(&out);
        for _ in 0..variants {
            let (wire, variant) = edit(&tree, &mut rng);
            patches.push(wire);
            out.refs.push((variant, SOLVE));
        }
        out.list.push(Req {
            head: format!("\"op\":\"sweep\",{field}").into(),
            tail: format!("{},\"patches\":[{}]}}", query_fields(SOLVE), patches.join(",")).into(),
            lines: variants as u32,
            check,
        });

        for k in 0..whatifs {
            let combo = WHATIF_COMBOS[k % WHATIF_COMBOS.len()];
            let (wire, variant) = edit(&tree, &mut rng);
            out.list.push(Req {
                head: format!("\"op\":\"whatif\",{field}").into(),
                tail: format!("{},\"patch\":{wire}}}", query_fields(combo)).into(),
                lines: 1,
                check: slot(&out),
            });
            out.refs.push((variant, combo));
        }
        out.bases.push(doc);
    }
    out
}

/// A combo's request fields without the closing brace.
fn query_fields(combo: Combo) -> String {
    combo.tail.trim_end_matches('}').to_owned()
}

/// One random single edit of `tree`: its wire patch object and the text
/// of the materialized variant.
fn edit(tree: &CdpAttackTree, rng: &mut StdRng) -> (String, String) {
    use cdat::core::NodeType;
    let t = tree.tree();
    let nodes: Vec<_> = t.node_ids().collect();
    let gates: Vec<_> =
        nodes.iter().copied().filter(|&v| t.node_type(v) != NodeType::Bas).collect();
    let bas: Vec<_> = nodes.iter().copied().filter(|&v| t.node_type(v) == NodeType::Bas).collect();
    let name = |v| json::escape(t.name(v));
    let wire = match rng.gen_range(0..3) {
        0 => {
            let v = bas[rng.gen_range(0..bas.len())];
            format!("{{\"cost\":{{\"{}\":{}}}}}", name(v), rng.gen_range(1..=10))
        }
        1 => {
            let v = nodes[rng.gen_range(0..nodes.len())];
            format!("{{\"damage\":{{\"{}\":{}}}}}", name(v), rng.gen_range(0..=10))
        }
        _ => {
            let v = gates[rng.gen_range(0..gates.len())];
            let flipped = if t.node_type(v) == NodeType::And { "or" } else { "and" };
            format!("{{\"gate\":{{\"{}\":\"{flipped}\"}}}}", name(v))
        }
    };
    let value = json::parse(&wire).expect("generated patches are JSON");
    let patch = cdat::server::protocol::parse_patch(&value, tree).expect("patch names resolve");
    let variant = patch.apply(tree).expect("cost, damage and gate edits materialize");
    (wire, text(&variant))
}

/// Fisher–Yates with the workload's own generator.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}
