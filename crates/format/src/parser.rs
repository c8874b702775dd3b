//! Parsing the text format.

use std::borrow::Cow;
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

/// One node line. The name borrows from the document text (it is owned
/// only when a quoted name carried an escape) until the builder copies it.
#[derive(Clone, Debug)]
struct Record<'a> {
    line: usize,
    kind: Kind,
    name: Cow<'a, str>,
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

/// Classifies the character starting at byte `at` of `line`: whether it is
/// whitespace by [`char::is_whitespace`], and its length in bytes. ASCII
/// bytes are classified directly: space and `\t \n \x0B \x0C \r` (unlike
/// [`u8::is_ascii_whitespace`], which leaves out `\x0B`).
#[inline]
fn char_at(line: &str, at: usize) -> (bool, usize) {
    let b = line.as_bytes()[at];
    if b.is_ascii() {
        return (matches!(b, b' ' | b'\t'..=b'\r'), 1);
    }
    let c = line[at..].chars().next().expect("the scan stops on character boundaries");
    (c.is_whitespace(), c.len_utf8())
}

/// Splits a line into whitespace-separated fields, honoring double quotes
/// with backslash escapes; `#` outside quotes starts a comment. `out` is
/// cleared first, so one buffer serves a whole document. Fields borrow
/// from `line`, except a quoted name with escapes.
fn fields<'a>(line: &'a str, lineno: usize, out: &mut Vec<Cow<'a, str>>) -> Result<(), ParseError> {
    out.clear();
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let (space, len) = char_at(line, i);
        if space {
            i += len;
            continue;
        }
        match bytes[i] {
            b'#' => break,
            b'"' => {
                let (field, end) = quoted(line, i + 1, lineno)?;
                out.push(field);
                i = end;
            }
            _ => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'#' {
                    let (space, len) = char_at(line, i);
                    if space {
                        break;
                    }
                    i += len;
                }
                out.push(Cow::Borrowed(&line[start..i]));
            }
        }
    }
    Ok(())
}

/// Scans the quoted name that starts at byte `start`, just after its
/// opening quote; returns the name and the byte index after the closing
/// quote. `"` and `\` are ASCII, so they never occur inside a multi-byte
/// character.
fn quoted(line: &str, start: usize, lineno: usize) -> Result<(Cow<'_, str>, usize), ParseError> {
    let bytes = line.as_bytes();
    // The unescaped name so far, once an escape forces a copy; `run` is
    // where the bytes not yet copied into it begin.
    let mut owned: Option<String> = None;
    let mut run = start;
    let mut i = start;
    loop {
        match bytes.get(i) {
            None => return Err(ParseError::at(lineno, "unterminated quoted name")),
            Some(b'"') => {
                let name = match owned {
                    None => Cow::Borrowed(&line[start..i]),
                    Some(mut name) => {
                        name.push_str(&line[run..i]);
                        Cow::Owned(name)
                    }
                };
                return Ok((name, i + 1));
            }
            Some(b'\\') => {
                let escaped = match bytes.get(i + 1) {
                    Some(&e @ (b'"' | b'\\')) => char::from(e),
                    _ => return Err(ParseError::at(lineno, "bad escape in quoted name")),
                };
                let name = owned.get_or_insert_with(String::new);
                name.push_str(&line[run..i]);
                name.push(escaped);
                i += 2;
                run = i;
            }
            Some(_) => i += 1,
        }
    }
}

fn scan(text: &str) -> Result<Vec<Record<'_>>, ParseError> {
    let mut records: Vec<Record<'_>> = Vec::new();
    // Stack of (indent, record index) along the current root-to-leaf path.
    let mut stack: Vec<(usize, usize)> = Vec::new();
    let mut parts: Vec<Cow<'_, str>> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let indent = raw.len() - raw.trim_start().len();
        fields(raw, lineno, &mut parts)?;
        if parts.is_empty() {
            continue;
        }
        let kind = match &*parts[0] {
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
        let name = match parts.get_mut(1) {
            Some(name) => std::mem::take(name),
            None => return Err(ParseError::at(lineno, "missing node name")),
        };
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

fn build(records: Vec<Record<'_>>) -> Result<CdpAttackTree, ParseError> {
    // Resolve names: every non-ref record declares one.
    let mut by_name: HashMap<&str, usize> = HashMap::with_capacity(records.len());
    for (i, r) in records.iter().enumerate() {
        if r.kind != Kind::Ref && by_name.insert(&r.name, i).is_some() {
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
        records: &'a [Record<'a>],
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
            self.by_name.get(&*r.name).copied().ok_or_else(|| {
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

    /// Cost of the BAS named `name` (0 when the document gave none).
    fn cost_of(cdp: &CdpAttackTree, name: &str) -> f64 {
        let t = cdp.tree();
        cdp.cd().cost(t.bas_of_node(t.find(name).expect("node exists")).expect("a BAS"))
    }

    #[test]
    fn unicode_whitespace_indents_by_its_byte_length() {
        // NBSP (2 bytes) and EM SPACE (3 bytes) are whitespace like a space.
        let cdp = parse("or r\n\u{a0}bas a cost=1\n\u{a0}bas b cost=2").unwrap();
        assert_eq!(cdp.tree().children(cdp.tree().root()).len(), 2);
        let cdp = parse("or r\n\u{2003}\u{2003}bas a\n\u{2003}\u{2003}bas b").unwrap();
        assert_eq!(cdp.tree().children(cdp.tree().root()).len(), 2);
        // Indentation is counted in bytes: one NBSP sits level with two
        // spaces, so `a` is a sibling of `g`, not its child.
        let err = parse("or r\n  and g\n\u{a0}bas a").unwrap_err();
        assert_eq!(err.to_string(), "line 2: gate \"g\" has no children");
    }

    #[test]
    fn ascii_bytes_classify_like_char_is_whitespace() {
        for b in 0..=0x7Fu8 {
            let line = char::from(b).to_string();
            assert_eq!(char_at(&line, 0), (char::from(b).is_whitespace(), 1), "byte {b:#04x}");
        }
        for c in ['\u{85}', '\u{a0}', '\u{2003}', '\u{3000}', '\u{200b}', 'é', '😀'] {
            let line = c.to_string();
            assert_eq!(char_at(&line, 0), (c.is_whitespace(), c.len_utf8()), "{c:?}");
        }
    }

    #[test]
    fn vertical_tab_separates_fields() {
        let cdp = parse("or r\n  bas\x0Ba\x0Bcost=1").unwrap();
        assert_eq!(cost_of(&cdp, "a"), 1.0);
    }

    #[test]
    fn comments_cut_bare_fields_but_not_quoted_ones() {
        // `#` ends the bare name `x` and the rest of the line.
        let cdp = parse("or r\n  bas x#c cost=1").unwrap();
        assert_eq!(cost_of(&cdp, "x"), 0.0);
        let cdp = parse("or r\n  bas \"a # b\" cost=1").unwrap();
        assert_eq!(cost_of(&cdp, "a # b"), 1.0);
    }

    #[test]
    fn a_closing_quote_ends_the_field() {
        let cdp = parse("or r\n  bas \"a\"cost=1").unwrap();
        assert_eq!(cost_of(&cdp, "a"), 1.0);
    }

    #[test]
    fn crlf_line_endings_parse_like_lf() {
        let cdp = parse("or r damage=5\r\n  bas a cost=1\r\n").unwrap();
        assert_eq!(cdp.cd().damage(cdp.tree().root()), 5.0);
        assert_eq!(cost_of(&cdp, "a"), 1.0);
    }

    #[test]
    fn the_whole_line_is_tokenized_before_the_keyword_check() {
        let err = parse("or root\n  zap \"x").unwrap_err();
        assert_eq!(err.to_string(), "line 2: unterminated quoted name");
    }
}
