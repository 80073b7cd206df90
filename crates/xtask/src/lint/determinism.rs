//! Rule `determinism`: no time/scheduler/entropy call may bypass the
//! `flock_sync::clock` seam.
//!
//! PR 5 made whole multi-node runs a pure function of their
//! configuration by routing every time and scheduling decision through
//! `flock_sync::clock`. One stray `Instant::now()` silently re-couples a
//! "deterministic" run to the host, and nothing in the type system stops
//! it — so this rule does: any of the patterns below outside
//! `crates/sync/src/clock.rs` (the seam's own threaded arm) is an error
//! unless justified in `determinism.allow`.
//!
//! Asking which executor runs (`clock::is_virtual`) is the seam's
//! business too: a call site that branches on it forks a wait into a
//! threaded and a virtual copy, which the seam's wait primitives
//! (`clock::wait_until`, `clock::recv_until`, `AdaptiveBackoff`) exist
//! to replace. Only the seam crate, `crates/sync/src/`, may call it.
//!
//! Test/bench/example scaffolding is exempt: it drives the system from
//! *outside* the lab on real OS threads by design (spawning the client
//! threads that then `clock::install` themselves, timing wall-clock
//! smoke runs, …).

use crate::allowlist::Allowlist;
use crate::diag::Diagnostic;
use crate::lex::TokKind;
use crate::parse::SourceModel;
use std::collections::BTreeMap;

/// The one file allowed to touch `std` time/thread primitives: the seam
/// itself.
const SEAM: &str = "crates/sync/src/clock.rs";

/// The seam crate, the one place allowed to branch on the executor.
const SEAM_CRATE: &str = "crates/sync/src/";

/// The executor query: an escape outside [`SEAM_CRATE`] only.
const EXECUTOR_QUERY: (&str, &str) = ("clock", "is_virtual");

/// `prefix :: name` patterns that escape the seam.
const QUALIFIED: &[(&str, &str)] = &[
    EXECUTOR_QUERY,
    ("Instant", "now"),
    ("SystemTime", "now"),
    ("thread", "sleep"),
    ("thread", "spawn"),
    ("thread", "park"),
    ("thread", "park_timeout"),
    ("thread", "yield_now"),
    ("thread", "Builder"),
    ("rand", "random"),
];

/// Bare identifiers that escape the seam wherever they appear (RNG
/// seeding from host entropy).
const BARE: &[&str] = &["from_entropy", "thread_rng", "OsRng"];

/// A matched seam escape, keyed like the ordering audit:
/// `file::fn::Pattern#n`.
pub struct Escape {
    pub key: String,
    pub file: String,
    pub line: usize,
    pub pattern: String,
}

/// Scan one file model for seam escapes (test regions skipped).
pub fn scan(model: &SourceModel) -> Vec<Escape> {
    if model.path == SEAM {
        return Vec::new();
    }
    let in_seam_crate = model.path.starts_with(SEAM_CRATE);
    let mut ordinals: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut out = Vec::new();
    let toks = &model.toks;
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        let matched: Option<String> = QUALIFIED
            .iter()
            .filter(|p| !(in_seam_crate && **p == EXECUTOR_QUERY))
            .find(|(q, name)| {
                toks[i].text == *q
                    && toks.get(i + 1).is_some_and(|t| t.text == "::")
                    && toks.get(i + 2).is_some_and(|t| t.text == *name)
            })
            .map(|(q, name)| format!("{q}::{name}"))
            .or_else(|| {
                BARE.iter()
                    .find(|b| toks[i].text == **b)
                    .map(|b| b.to_string())
            });
        let Some(pattern) = matched else {
            continue;
        };
        if model.in_test_region(i) {
            continue;
        }
        let func = model.enclosing_fn_name(i);
        let n = ordinals.entry((func.clone(), pattern.clone())).or_insert(0);
        *n += 1;
        out.push(Escape {
            key: format!("{}::{}::{}#{}", model.path, func, pattern, n),
            file: model.path.clone(),
            line: toks[i].line,
            pattern,
        });
    }
    out
}

/// Check `escapes` against the allowlist, producing diagnostics and the
/// keys that would need new entries.
pub fn check(models: &[&SourceModel], allow: &Allowlist) -> (Vec<Diagnostic>, Vec<String>) {
    let mut diags = Vec::new();
    let mut missing = Vec::new();
    let mut all_keys = Vec::new();
    for model in models {
        for esc in scan(model) {
            all_keys.push(esc.key.clone());
            match allow.get(&esc.key) {
                None => {
                    diags.push(
                        Diagnostic::error(
                            "determinism",
                            format!("`{}` escapes the virtual-clock seam", esc.pattern),
                        )
                        .at(&esc.file, esc.line)
                        .snippet(model.line_text(esc.line))
                        .note(format!("key: {}", esc.key))
                        .note(if esc.pattern == "clock::is_virtual" {
                            "wait through flock_sync::clock::{wait_until, recv_until} or \
                             AdaptiveBackoff instead of forking the call site"
                        } else {
                            "route through flock_sync::clock (now_ns/deadline/sleep/spawn) \
                             or justify in determinism.allow"
                        }),
                    );
                    missing.push(esc.key);
                }
                Some("TODO") => {
                    diags.push(
                        Diagnostic::error(
                            "determinism",
                            format!("TODO justification for `{}`", esc.pattern),
                        )
                        .at(&esc.file, esc.line)
                        .note(format!("key: {}", esc.key)),
                    );
                }
                Some(_) => {}
            }
        }
    }
    // Stale entries: the site a justification covered is gone.
    for key in allow.entries.keys() {
        if !all_keys.iter().any(|k| k == key) {
            diags.push(Diagnostic::warn(
                "determinism",
                format!("stale determinism.allow entry `{key}` (site no longer exists)"),
            ));
        }
    }
    for (key, line) in &allow.duplicates {
        diags.push(Diagnostic::warn(
            "determinism",
            format!(
                "duplicate determinism.allow entry `{key}` (line {line} shadows an earlier one)"
            ),
        ));
    }
    (diags, missing)
}
