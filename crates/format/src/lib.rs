//! A human-writable text format for cost-damage attack trees.
//!
//! The format is indentation-based, one node per line, parents before
//! children:
//!
//! ```text
//! # The paper's factory example (Fig. 1).
//! or "production shutdown" damage=200
//!   bas cyberattack cost=1 prob=0.2
//!   and "destroy robot" damage=100
//!     bas "place bomb" cost=3 prob=0.4
//!     bas "force door" cost=2 damage=10 prob=0.9
//! ```
//!
//! * `bas NAME`, `or NAME`, `and NAME` declare a node; quote names containing
//!   spaces. Gates list their children on the following, deeper-indented
//!   lines.
//! * Attributes are `key=value` pairs: `damage` on any node, `cost` and
//!   `prob` on BASs only (matching the cd-AT model: internal costs can be
//!   simulated by dummy BASs, internal damage cannot be pushed down).
//! * `ref NAME` makes an already-declared node a child of the current gate —
//!   this is how shared nodes (DAG-like trees) are written.
//! * `#` starts a comment; blank lines are ignored.
//!
//! [`parse`] reads a document into a [`CdpAttackTree`](cdat_core::CdpAttackTree)
//! (probabilities default
//! to 1, so deterministic documents round-trip through the same type);
//! [`write()`] renders one back, using `ref` for every shared node.
//!
//! Multi-document *suites* pack many trees into one file, separated by
//! `--- [name]` lines ([`parse_multi`]/[`write_multi`]); this is the input
//! format of the `cdat batch` subcommand and the batch engine.
//!
//! The [`json`] module is the std-only JSON layer shared by the serving
//! protocol (`cdat-server`) and the JSON-lines output of `cdat batch`.
//!
//! # Example
//!
//! ```
//! let text = r#"
//! or goal damage=10
//!   bas pick-lock cost=5
//!   bas smash-window cost=1 damage=2
//! "#;
//! let cdp = cdat_format::parse(text)?;
//! assert_eq!(cdp.tree().bas_count(), 2);
//! assert_eq!(cdp.cd().max_damage(), 12.0);
//! # Ok::<(), cdat_format::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
mod multi;
mod parser;
mod writer;

pub use multi::{parse_multi, write_multi, Document};
pub use parser::{parse, parse_cd, ParseError};
pub use writer::{write, write_cd};

/// Characters of request text [`quote`] keeps before truncating.
const QUOTE_MAX_CHARS: usize = 64;

/// Quotes request text for an error message, so an error line stays small
/// however large the offending token. Text of at most 64 characters comes
/// back exactly as `{:?}` formats it; longer text keeps its first 64
/// characters, then `...` and its full length in bytes.
///
/// ```
/// assert_eq!(cdat_format::quote("cdpf"), "\"cdpf\"");
/// let long = "x".repeat(1_000);
/// assert_eq!(cdat_format::quote(&long), format!("{:?}... (1000 bytes)", &long[..64]));
/// // The cut falls on a character boundary; the length counts bytes.
/// let wide = "é".repeat(100);
/// assert_eq!(cdat_format::quote(&wide), format!("{:?}... (200 bytes)", "é".repeat(64)));
/// ```
pub fn quote(text: &str) -> String {
    match text.char_indices().nth(QUOTE_MAX_CHARS) {
        None => format!("{text:?}"),
        Some((cut, _)) => format!("{:?}... ({} bytes)", &text[..cut], text.len()),
    }
}
