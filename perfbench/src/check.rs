//! Reference answers for the output check, computed untimed with
//! `cdat batch` (the batch contract: a serve body equals the batch body
//! for the same document and query).

use std::collections::HashMap;
use std::io;
use std::path::Path;

use crate::client::{self, digest, strip_batch};
use crate::inputs::{self, Combo};

/// The digest of the `cdat batch` body answering each `(document, combo)`
/// item, in input order. One batch run per distinct combo, over that
/// combo's documents; `extra` flags (e.g. a pinned `--solver`) are
/// appended to every run.
///
/// `history` documents are solved first in every run and their lines
/// skipped. A cache answers a renamed copy from the front of whichever
/// copy it solved first, and among attacks tied on cost and damage the
/// witness it reports follows that copy's numbering; so a reference for
/// a server that was warmed with `history` must be computed after it.
pub fn references(
    cdat: &Path,
    dir: &Path,
    items: &[(&str, Combo)],
    extra: &[&str],
    history: &[&str],
) -> io::Result<Vec<u64>> {
    let mut groups: HashMap<Combo, Vec<usize>> = HashMap::new();
    for (i, (_, combo)) in items.iter().enumerate() {
        groups.entry(*combo).or_default().push(i);
    }
    let mut digests = vec![0u64; items.len()];
    let mut keys: Vec<Combo> = groups.keys().copied().collect();
    keys.sort_by_key(|c| c.tail);
    for (g, combo) in keys.into_iter().enumerate() {
        let members = &groups[&combo];
        let path = dir.join(format!("reference-{g}.txt"));
        let docs = history.iter().copied().chain(members.iter().map(|&i| items[i].0));
        std::fs::write(&path, inputs::suite(docs))?;
        let mut args: Vec<String> = combo.flags.iter().map(|s| s.to_string()).collect();
        args.extend(extra.iter().map(|s| s.to_string()));
        args.extend(["--workers".to_owned(), "2".to_owned()]);
        let run = client::batch(cdat, &path, &args)?;
        if run.lines.len() != history.len() + members.len() {
            return Err(io::Error::other(format!(
                "reference batch answered {} lines for {} documents",
                run.lines.len(),
                history.len() + members.len()
            )));
        }
        for (&i, line) in members.iter().zip(&run.lines[history.len()..]) {
            let body = strip_batch(line)
                .ok_or_else(|| io::Error::other(format!("unparseable batch line {line:?}")))?;
            digests[i] = digest(&body);
        }
        std::fs::remove_file(&path)?;
    }
    Ok(digests)
}

/// Compares filled slots against their references; returns how many
/// disagree. Slots never answered (0) are skipped.
pub fn compare(slots: &[u64], references: &[(usize, u64)]) -> usize {
    references.iter().filter(|&&(slot, want)| slots[slot] != 0 && slots[slot] != want).count()
}
