//! Parsing the text format.

use std::collections::HashMap;
use std::fmt;

use cdat_core::{AttackTreeBuilder, CdAttackTree, CdpAttackTree, NodeId, NodeType};

use crate::quote;

/// Error while parsing an attack-tree document.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// 1-based line the error was detected on, when known.
    pub line: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

impl ParseError {
    fn at(line: usize, message: impl Into<String>) -> Self {
        ParseError { line: Some(line), message: message.into() }
    }

    fn global(message: impl Into<String>) -> Self {
        ParseError { line: None, message: message.into() }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(line) => write!(f, "line {line}: {}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for ParseError {}

#[derive(Clone, Debug, PartialEq)]
enum Kind {
    Bas,
    Or,
    And,
    Ref,
}

#[derive(Clone, Debug)]
struct Record {
    line: usize,
    kind: Kind,
    name: String,
    cost: Option<f64>,
    damage: Option<f64>,
    prob: Option<f64>,
    children: Vec<usize>,
}

/// Parses a document into a cdp-AT (probabilities default to 1, so purely
/// deterministic documents work too).
///
/// # Errors
///
/// Returns a [`ParseError`] with a line number for syntax problems, bad
/// indentation, unknown `ref` targets, reference cycles, duplicate names,
/// attribute misuse (cost/prob on gates) and out-of-range values.
pub fn parse(text: &str) -> Result<CdpAttackTree, ParseError> {
    let records = scan(text)?;
    build(records)
}

/// Parses a document and keeps only the cost-damage layer.
///
/// # Errors
///
/// Same conditions as [`parse`].
pub fn parse_cd(text: &str) -> Result<CdAttackTree, ParseError> {
    parse(text).map(|cdp| cdp.cd().clone())
}

/// Splits a line into whitespace-separated fields, honoring double quotes
/// with backslash escapes.
fn fields(line: &str, lineno: usize) -> Result<Vec<String>, ParseError> {
    let mut out = Vec::new();
    let mut chars = line.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
        } else if c == '#' {
            break; // trailing comment
        } else if c == '"' {
            chars.next();
            let mut s = String::new();
            loop {
                match chars.next() {
                    None => return Err(ParseError::at(lineno, "unterminated quoted name")),
                    Some('"') => break,
                    Some('\\') => match chars.next() {
                        Some(e @ ('"' | '\\')) => s.push(e),
                        _ => return Err(ParseError::at(lineno, "bad escape in quoted name")),
                    },
                    Some(other) => s.push(other),
                }
            }
            out.push(s);
        } else {
            let mut s = String::new();
            while let Some(&c) = chars.peek() {
                if c.is_whitespace() || c == '#' {
                    break;
                }
                s.push(c);
                chars.next();
            }
            out.push(s);
        }
    }
    Ok(out)
}

fn scan(text: &str) -> Result<Vec<Record>, ParseError> {
    let mut records: Vec<Record> = Vec::new();
    // Stack of (indent, record index) along the current root-to-leaf path.
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let indent = raw.len() - raw.trim_start().len();
        let parts = fields(raw, lineno)?;
        if parts.is_empty() {
            continue;
        }
        let kind = match parts[0].as_str() {
            "bas" => Kind::Bas,
            "or" => Kind::Or,
            "and" => Kind::And,
            "ref" => Kind::Ref,
            other => {
                return Err(ParseError::at(
                    lineno,
                    format!("expected bas/or/and/ref, found {}", quote(other)),
                ))
            }
        };
        let name =
            parts.get(1).cloned().ok_or_else(|| ParseError::at(lineno, "missing node name"))?;
        let mut rec = Record {
            line: lineno,
            kind,
            name,
            cost: None,
            damage: None,
            prob: None,
            children: Vec::new(),
        };
        for attr in &parts[2..] {
            let (key, value) = attr.split_once('=').ok_or_else(|| {
                ParseError::at(lineno, format!("expected key=value, found {}", quote(attr)))
            })?;
            let value: f64 = value
                .parse()
                .map_err(|_| ParseError::at(lineno, format!("bad number {}", quote(value))))?;
            let slot = match key {
                "cost" => &mut rec.cost,
                "damage" => &mut rec.damage,
                "prob" => &mut rec.prob,
                _ => {
                    return Err(ParseError::at(lineno, format!("unknown attribute {}", quote(key))))
                }
            };
            if slot.replace(value).is_some() {
                return Err(ParseError::at(lineno, format!("duplicate attribute {}", quote(key))));
            }
        }
        // Validate probabilities here, where the line number is still
        // known: the later whole-tree validation only reports globally.
        if let Some(p) = rec.prob {
            if !(0.0..=1.0).contains(&p) {
                return Err(ParseError::at(lineno, format!("prob {p} is outside [0, 1]")));
            }
        }
        if rec.kind == Kind::Ref
            && (rec.cost.is_some() || rec.damage.is_some() || rec.prob.is_some())
        {
            return Err(ParseError::at(lineno, "ref lines cannot carry attributes"));
        }

        // Find the parent by indentation.
        while stack.last().is_some_and(|&(ind, _)| ind >= indent) {
            stack.pop();
        }
        match stack.last() {
            None => {
                if !records.is_empty() {
                    // A second node at (or above) root indentation.
                    return Err(ParseError::at(
                        lineno,
                        "more than one top-level node; attack trees have a single root",
                    ));
                }
                if rec.kind == Kind::Ref {
                    return Err(ParseError::at(lineno, "the root cannot be a ref"));
                }
            }
            Some(&(_, parent)) => {
                if records[parent].kind == Kind::Bas {
                    return Err(ParseError::at(
                        lineno,
                        format!("BAS {} cannot have children", quote(&records[parent].name)),
                    ));
                }
                let idx = records.len();
                records[parent].children.push(idx);
            }
        }
        stack.push((indent, records.len()));
        records.push(rec);
    }
    if records.is_empty() {
        return Err(ParseError::global("document contains no nodes"));
    }
    Ok(records)
}

fn build(records: Vec<Record>) -> Result<CdpAttackTree, ParseError> {
    // Resolve names: every non-ref record declares one.
    let mut by_name: HashMap<&str, usize> = HashMap::new();
    for (i, r) in records.iter().enumerate() {
        if r.kind != Kind::Ref && by_name.insert(r.name.as_str(), i).is_some() {
            return Err(ParseError::at(r.line, format!("duplicate node name {}", quote(&r.name))));
        }
    }
    // Attribute placement checks.
    for r in &records {
        if matches!(r.kind, Kind::Or | Kind::And) {
            if r.cost.is_some() {
                return Err(ParseError::at(
                    r.line,
                    format!(
                        "cost on gate {}: only BASs carry costs (add a dummy BAS child instead)",
                        quote(&r.name)
                    ),
                ));
            }
            if r.prob.is_some() {
                return Err(ParseError::at(
                    r.line,
                    format!("prob on gate {}: only BASs carry probabilities", quote(&r.name)),
                ));
            }
            if r.children.is_empty() {
                return Err(ParseError::at(
                    r.line,
                    format!("gate {} has no children", quote(&r.name)),
                ));
            }
        }
    }

    // Emit children-first into the builder, resolving refs and catching
    // reference cycles.
    #[derive(Copy, Clone, PartialEq)]
    enum State {
        Unvisited,
        Visiting,
        Done(NodeId),
    }
    struct Emit<'a> {
        records: &'a [Record],
        by_name: &'a HashMap<&'a str, usize>,
        builder: AttackTreeBuilder,
        state: Vec<State>,
    }
    impl Emit<'_> {
        fn emit(&mut self, i: usize) -> Result<NodeId, ParseError> {
            let r = &self.records[i];
            match self.state[i] {
                State::Done(id) => return Ok(id),
                State::Visiting => {
                    return Err(ParseError::at(
                        r.line,
                        format!("reference cycle through {}", quote(&r.name)),
                    ))
                }
                State::Unvisited => {}
            }
            self.state[i] = State::Visiting;
            let id = match r.kind {
                Kind::Bas => self.builder.bas(&r.name),
                Kind::Or | Kind::And => {
                    let mut kids = Vec::with_capacity(r.children.len());
                    for &c in &r.children {
                        let target = self.resolve(c)?;
                        let kid = self.emit(target)?;
                        if kids.contains(&kid) {
                            return Err(ParseError::at(
                                self.records[c].line,
                                format!("gate {} lists the same child twice", quote(&r.name)),
                            ));
                        }
                        kids.push(kid);
                    }
                    let ty = if r.kind == Kind::Or { NodeType::Or } else { NodeType::And };
                    self.builder.gate(&r.name, ty, kids)
                }
                Kind::Ref => unreachable!("refs are resolved before emission"),
            };
            self.state[i] = State::Done(id);
            Ok(id)
        }

        /// Follows a ref record to its declaration; plain records map to
        /// themselves.
        fn resolve(&self, i: usize) -> Result<usize, ParseError> {
            let r = &self.records[i];
            if r.kind != Kind::Ref {
                return Ok(i);
            }
            self.by_name.get(r.name.as_str()).copied().ok_or_else(|| {
                ParseError::at(r.line, format!("ref to undeclared node {}", quote(&r.name)))
            })
        }
    }

    let mut emit = Emit {
        records: &records,
        by_name: &by_name,
        builder: AttackTreeBuilder::new(),
        state: vec![State::Unvisited; records.len()],
    };
    emit.emit(0)?;
    // Any declaration never emitted would be unreachable from the root; the
    // indentation pass makes every record a descendant of record 0, so this
    // is defensive only.
    if let Some((_, r)) = records
        .iter()
        .enumerate()
        .find(|(i, r)| r.kind != Kind::Ref && emit.state[*i] == State::Unvisited)
    {
        return Err(ParseError::at(
            r.line,
            format!("node {} is unreachable from the root", quote(&r.name)),
        ));
    }

    let tree =
        emit.builder.build().map_err(|e| ParseError::global(format!("invalid tree: {e}")))?;

    let mut cost = vec![0.0; tree.bas_count()];
    let mut damage = vec![0.0; tree.node_count()];
    let mut prob = vec![1.0; tree.bas_count()];
    for (i, r) in records.iter().enumerate() {
        if r.kind == Kind::Ref {
            continue;
        }
        let State::Done(id) = emit.state[i] else { unreachable!("checked above") };
        if let Some(d) = r.damage {
            damage[id.index()] = d;
        }
        if let Some(b) = tree.bas_of_node(id) {
            if let Some(c) = r.cost {
                cost[b.index()] = c;
            }
            if let Some(p) = r.prob {
                prob[b.index()] = p;
            }
        }
    }
    let cd = CdAttackTree::from_parts(tree, cost, damage)
        .map_err(|e| ParseError::global(format!("invalid attributes: {e}")))?;
    CdpAttackTree::from_parts(cd, prob)
        .map_err(|e| ParseError::global(format!("invalid probabilities: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    const FACTORY: &str = r#"
# The paper's factory example.
or "production shutdown" damage=200
  bas cyberattack cost=1 prob=0.2
  and "destroy robot" damage=100
    bas "place bomb" cost=3 prob=0.4
    bas "force door" cost=2 damage=10 prob=0.9
"#;

    #[test]
    fn parses_the_factory_example() {
        let cdp = parse(FACTORY).unwrap();
        let t = cdp.tree();
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.bas_count(), 3);
        assert_eq!(t.name(t.root()), "production shutdown");
        assert!(t.is_treelike());
        let x = t.attack_of_names(["place bomb", "force door"]).unwrap();
        assert_eq!(cdp.cd().cost_of(&x), 5.0);
        assert_eq!(cdp.cd().damage_of(&x), 310.0);
        let b = t.bas_of_node(t.find("cyberattack").unwrap()).unwrap();
        assert_eq!(cdp.prob(b), 0.2);
    }

    #[test]
    fn refs_build_dags() {
        let text = r#"
or root
  and g1
    bas x cost=1
    bas y cost=2
  and g2 damage=5
    ref x
    bas z cost=3
"#;
        let cdp = parse(text).unwrap();
        assert!(!cdp.tree().is_treelike());
        let x = cdp.tree().find("x").unwrap();
        assert_eq!(cdp.tree().parents(x).len(), 2);
    }

    #[test]
    fn forward_refs_are_allowed() {
        let text = r#"
or root
  and g1
    ref x
    bas y
  bas x cost=4
"#;
        let cdp = parse(text).unwrap();
        let x = cdp.tree().find("x").unwrap();
        assert_eq!(cdp.tree().parents(x).len(), 2, "child of g1 and of root");
    }

    #[test]
    fn error_messages_carry_line_numbers() {
        let cases: &[(&str, &str)] = &[
            ("or root\n  zap x", "expected bas/or/and/ref"),
            ("or root\n  bas", "missing node name"),
            ("or root\n  bas x cost", "expected key=value"),
            ("or root\n  bas x cost=abc", "bad number"),
            ("or root\n  bas x size=1", "unknown attribute"),
            ("or root\n  bas x cost=1 cost=2", "duplicate attribute"),
            ("or root\n  bas x\nbas y", "more than one top-level node"),
            ("or root\n  bas x\n  bas x", "duplicate node name"),
            ("or root\n  ref y", "ref to undeclared node"),
            ("or root damage=1", "no children"),
            ("or root cost=2\n  bas x", "cost on gate"),
            ("or root prob=0.5\n  bas x", "prob on gate"),
            ("or root\n  bas x\n    bas y", "cannot have children"),
            ("ref root", "the root cannot be a ref"),
            ("or root\n  ref x cost=1", "ref lines cannot carry attributes"),
            ("or root\n  bas \"x", "unterminated quoted name"),
            ("or root\n  bas x prob=1.5", "outside [0, 1]"),
        ];
        for (text, needle) in cases {
            let err = parse(text).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{text:?} should fail with {needle:?}, got {err}"
            );
        }
    }

    #[test]
    fn ref_with_attributes_is_rejected() {
        let err = parse("or root\n  bas x\n  ref x damage=3").unwrap_err();
        assert!(err.to_string().contains("ref lines cannot carry attributes"), "{err}");
    }

    #[test]
    fn reference_cycles_are_rejected() {
        let text = r#"
or root
  or a
    ref b
  or b
    ref a
"#;
        let err = parse(text).unwrap_err();
        assert!(err.to_string().contains("reference cycle"), "{err}");
    }

    #[test]
    fn empty_documents_are_rejected() {
        let err = parse("# nothing here\n\n").unwrap_err();
        assert!(err.to_string().contains("no nodes"));
    }

    #[test]
    fn quoted_names_with_escapes() {
        let text = "or \"the \\\"root\\\"\"\n  bas \"a \\\\ b\" cost=1";
        let cdp = parse(text).unwrap();
        assert_eq!(cdp.tree().name(cdp.tree().root()), "the \"root\"");
        assert!(cdp.tree().find("a \\ b").is_some());
    }

    #[test]
    fn trailing_comments_are_stripped() {
        let text = "or root damage=5 # the goal\n  bas x cost=1 # cheap";
        let cdp = parse(text).unwrap();
        assert_eq!(cdp.cd().damage(cdp.tree().root()), 5.0);
    }

    #[test]
    fn parse_cd_drops_probabilities() {
        let cd = parse_cd(FACTORY).unwrap();
        assert_eq!(cd.max_damage(), 310.0);
    }
}
