//! The invariant rules enforced by `lcc-lint`.
//!
//! Each rule has a stable kebab-case id (used by the fixture `//~ ERROR`
//! markers and CI output):
//!
//! * `safety-comment` — every `unsafe` site (block, fn, or impl) must be
//!   immediately preceded by a `// SAFETY:` comment (attributes and
//!   contiguous comment lines may sit between; a `/// # Safety` doc
//!   section also satisfies the rule). A trailing same-line `// SAFETY:`
//!   comment is accepted for one-liner impls.
//! * `unwrap-ratchet` — `.unwrap()` / `.expect(` in non-test code of
//!   `crates/comm/src`, `crates/core/src`, and `crates/service/src` is
//!   budgeted by the ratchet file (`tools/lcc-lint/unwrap-ratchet.txt`);
//!   counts can only shrink. Individually justified sites carry
//!   `// lcc-lint: allow(unwrap)`.
//! * `hot-path-alloc` — inside modules annotated `// lcc-lint: hot-path`,
//!   the allocating tokens `vec!`, `Vec::new`, `Vec::with_capacity`,
//!   `Box::new` and `.to_vec()` are banned outside test code. Plan-time
//!   or per-solve allocations are opted out per line with
//!   `// lcc-lint: allow(alloc)` (same line or the line above).
//! * `no-blocking-in-step` — the protocol-actor seam
//!   (`crates/comm/src/actor.rs`, `crates/check/src/model.rs`, plus any
//!   module annotated `// lcc-lint: no-blocking`) must stay a pure
//!   transition function: the model checker explores it in-process, so
//!   clocks (`Instant::now`, `SystemTime`), sleeping, locking (`Mutex`,
//!   `RwLock`, `.lock()`), I/O (`std::fs`, `std::net`, `std::io`,
//!   `std::process`) and console printing are banned outside test code.
//!   Deliberate exceptions carry `// lcc-lint: allow(blocking)`.
//! * `typed-error` — functions in `crates/comm/src`, `crates/core/src`,
//!   and `crates/service/src` that return `Result` must use the crates'
//!   typed errors (`CommError`, `CodecError`, `ConfigError`,
//!   `ServiceError`); returning `Box<dyn Error>` (or any other
//!   `Box<dyn …>`) is a violation. Additionally, in
//!   `crates/comm/src/transport/` the stringly `coord_err(…)` constructor
//!   may not wrap a timeout or child-exit condition: a `coord_err` call
//!   whose statement (or the block head right above it) references
//!   deadline/exit machinery (`deadline`, `elapsed`, `exit`, `try_wait`,
//!   `ChildExit`, …) must use `CommError::Timeout` /
//!   `CommError::ChildExited` instead, or carry a
//!   `// lcc-lint: allow(coord-err)` justification.
//! * `le-bytes` — `to_le_bytes` / `from_le_bytes` in non-test code under
//!   `crates/*/src` outside `crates/obs/src/codec.rs`: every byte format
//!   reads and writes through `lcc_obs::codec`, the one module that
//!   touches byte order (DESIGN.md §5p). No escape hatch.
//! * `one-comm-writer` — a `COMM_*` / `LIVENESS_*` identifier (the comm
//!   and liveness obs counters) in non-test code under `crates/*/src`
//!   outside `crates/comm/src/stats.rs` and `crates/obs/src/metrics.rs`.
//!   Every comm and liveness event is counted by one `CommStats::add`,
//!   which writes the run's table and the obs counter together (DESIGN.md
//!   §6); a second writer is a second count to drift. No escape hatch.

use std::collections::BTreeMap;

use crate::lexer::{find_word, SourceFile};

/// One rule violation, addressed `path:line` (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub path: String,
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.msg
        )
    }
}

/// Ratchet budgets: repo-relative path → allowed `.unwrap()`/`.expect(`
/// count. Files under the ratcheted trees that are absent here have an
/// implicit budget of zero.
pub type Ratchet = BTreeMap<String, usize>;

/// Whether `path` (repo-relative, `/`-separated) is subject to the unwrap
/// ratchet and the typed-error rule.
fn in_ratcheted_tree(path: &str) -> bool {
    path.starts_with("crates/comm/src/")
        || path.starts_with("crates/core/src/")
        || path.starts_with("crates/service/src/")
}

/// Scans one sanitized file, returning direct violations plus the lines of
/// unratcheted unwrap sites (empty when the path is outside the ratcheted
/// trees). The caller folds the site lists into the ratchet comparison.
pub fn check_file(path: &str, file: &SourceFile) -> (Vec<Violation>, Vec<usize>) {
    let mut v = Vec::new();
    check_safety_comments(path, file, &mut v);
    // The annotation must open its comment (`// lcc-lint: hot-path ...`)
    // so prose that merely *mentions* the directive doesn't activate it.
    if file
        .lines
        .iter()
        .any(|l| l.comment.trim_start().starts_with("lcc-lint: hot-path"))
    {
        check_hot_path_allocs(path, file, &mut v);
    }
    // The actor seam is pure by construction; the annotation extends the
    // guarantee to any other module that opts in (same opening-comment
    // requirement as hot-path, so prose mentions don't activate it).
    if ACTOR_SEAM_PATHS.contains(&path)
        || file
            .lines
            .iter()
            .any(|l| l.comment.trim_start().starts_with("lcc-lint: no-blocking"))
    {
        check_no_blocking(path, file, &mut v);
    }
    let mut unwrap_sites = Vec::new();
    if in_ratcheted_tree(path) {
        unwrap_sites = collect_unwrap_sites(file);
    }
    if in_ratcheted_tree(path) {
        check_typed_errors(path, file, &mut v);
    }
    if path.starts_with("crates/comm/src/transport/") {
        check_coord_err(path, file, &mut v);
    }
    let crate_src = path.starts_with("crates/") && path.split('/').nth(2) == Some("src");
    if crate_src && path != CODEC_PATH {
        let fix = "outside `lcc_obs::codec`; use its `Reader`/`Writer`";
        let banned = |w: &str| matches!(w, "to_le_bytes" | "from_le_bytes");
        check_confined(path, file, "le-bytes", banned, fix, &mut v);
    }
    if crate_src && !COMM_LEDGER_PATHS.contains(&path) {
        let fix = "is an obs counter of the comm ledger; count through `CommStats::add`";
        let banned = |w: &str| w.starts_with("COMM_") || w.starts_with("LIVENESS_");
        check_confined(path, file, "one-comm-writer", banned, fix, &mut v);
    }
    (v, unwrap_sites)
}

/// `safety-comment`: every line whose code contains the word `unsafe` must
/// carry a SAFETY justification. Walking up from the site, attribute lines
/// and contiguous comment lines are skipped; one of the skipped comments
/// (or the site's own trailing comment) must contain `SAFETY` or
/// `# Safety`. A blank line or any other code terminates the walk.
fn check_safety_comments(path: &str, file: &SourceFile, out: &mut Vec<Violation>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if find_word(&line.code, "unsafe", 0).is_none() {
            continue;
        }
        if comment_satisfies_safety(&line.comment) {
            continue;
        }
        let mut ok = false;
        let mut j = idx;
        while j > 0 {
            j -= 1;
            let prev = &file.lines[j];
            let code = prev.code.trim();
            let is_attr = code.starts_with("#[") || code.starts_with("#![");
            let is_comment_only = code.is_empty() && !prev.comment.is_empty();
            // A code line that doesn't end a statement (`let x: T =` before
            // an `unsafe { … }` on the next line) is part of the same
            // statement: look through it rather than stopping the walk.
            let is_continuation_head =
                !code.is_empty() && !matches!(code.chars().last(), Some(';' | '{' | '}'));
            if comment_satisfies_safety(&prev.comment) {
                ok = true;
                break;
            }
            if !is_attr && !is_comment_only && !is_continuation_head {
                break;
            }
        }
        if !ok {
            out.push(Violation {
                path: path.to_string(),
                line: idx + 1,
                rule: "safety-comment",
                msg: "unsafe site without an immediately preceding `// SAFETY:` comment"
                    .to_string(),
            });
        }
    }
}

fn comment_satisfies_safety(comment: &str) -> bool {
    comment.contains("SAFETY") || comment.contains("# Safety")
}

/// The files that *are* the protocol-actor seam: the transition kernels
/// the model checker drives in-process. They must never gain a clock,
/// lock, sleep, or I/O — that would desynchronize the checked model from
/// the production behavior (and hang the checker).
const ACTOR_SEAM_PATHS: [&str; 2] = ["crates/comm/src/actor.rs", "crates/check/src/model.rs"];

/// Tokens that block, tell time, or touch the outside world. String and
/// comment contents are blanked by the lexer, so these match code only.
const BLOCKING_TOKENS: [&str; 12] = [
    "thread::sleep",
    "sleep(",
    "Mutex",
    "RwLock",
    ".lock()",
    "Instant::now",
    "SystemTime",
    "std::fs",
    "std::net",
    "std::io",
    "println!",
    "eprintln!",
];

/// `no-blocking-in-step`: flags blocking/impure tokens in actor-seam
/// modules outside test code, unless escaped with
/// `// lcc-lint: allow(blocking)`.
fn check_no_blocking(path: &str, file: &SourceFile, out: &mut Vec<Violation>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test || allow_escape(file, idx, "lcc-lint: allow(blocking)") {
            continue;
        }
        for tok in BLOCKING_TOKENS {
            if find_word(&line.code, tok, 0).is_some() {
                out.push(Violation {
                    path: path.to_string(),
                    line: idx + 1,
                    rule: "no-blocking-in-step",
                    msg: format!(
                        "`{tok}` in a pure actor-step module; the protocol seam must \
                         stay clock-, lock-, and I/O-free so the model checker can \
                         drive it, or justify with `// lcc-lint: allow(blocking)`"
                    ),
                });
                break; // one violation per line is enough
            }
        }
    }
}

/// The allocating tokens banned in hot-path modules.
const ALLOC_TOKENS: [&str; 5] = [
    "vec!",
    "Vec::new",
    "Vec::with_capacity",
    "Box::new",
    ".to_vec()",
];

fn check_hot_path_allocs(path: &str, file: &SourceFile, out: &mut Vec<Violation>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test || allow_escape(file, idx, "lcc-lint: allow(alloc)") {
            continue;
        }
        for tok in ALLOC_TOKENS {
            if find_word(&line.code, tok, 0).is_some() {
                out.push(Violation {
                    path: path.to_string(),
                    line: idx + 1,
                    rule: "hot-path-alloc",
                    msg: format!(
                        "`{tok}` in a `lcc-lint: hot-path` module; use the pooled \
                         workspace, or justify with `// lcc-lint: allow(alloc)`"
                    ),
                });
                break; // one violation per line is enough
            }
        }
    }
}

/// True when the line carries the given directive in a comment, or one of
/// the lines reachable by walking up through comment-only lines and
/// statement continuations does (so a directive above a multi-line
/// statement still covers the token lines inside it).
fn allow_escape(file: &SourceFile, idx: usize, directive: &str) -> bool {
    if file.lines[idx].comment.contains(directive) {
        return true;
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let prev = &file.lines[j];
        if prev.comment.contains(directive) {
            return true;
        }
        let code = prev.code.trim();
        let comment_only = code.is_empty() && !prev.comment.is_empty();
        let continuation =
            !code.is_empty() && !matches!(code.chars().last(), Some(';' | '{' | '}'));
        if !comment_only && !continuation {
            break;
        }
    }
    false
}

/// Lines (1-based) of ratcheted `.unwrap()` / `.expect(` sites: non-test,
/// not individually allowlisted. A line with several such calls counts
/// once per call.
fn collect_unwrap_sites(file: &SourceFile) -> Vec<usize> {
    let mut sites = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test || allow_escape(file, idx, "lcc-lint: allow(unwrap)") {
            continue;
        }
        for tok in [".unwrap()", ".expect("] {
            let mut from = 0;
            while let Some(at) = find_word(&line.code, tok, from) {
                sites.push(idx + 1);
                from = at + tok.len();
            }
        }
    }
    sites
}

/// `typed-error`: capture each fn signature (from the `fn` keyword to the
/// first `{` or `;`) and flag `Result`-returning ones whose return type
/// drags in `Box<dyn …>` instead of a typed error.
fn check_typed_errors(path: &str, file: &SourceFile, out: &mut Vec<Violation>) {
    let mut idx = 0usize;
    while idx < file.lines.len() {
        let line = &file.lines[idx];
        if line.in_test {
            idx += 1;
            continue;
        }
        let Some(at) = find_word(&line.code, "fn", 0) else {
            idx += 1;
            continue;
        };
        // Accumulate the signature across lines.
        let mut sig = String::new();
        let mut j = idx;
        let mut col = at;
        let mut terminated = false;
        while j < file.lines.len() && !terminated {
            let code = &file.lines[j].code;
            for ch in code[col.min(code.len())..].chars() {
                if ch == '{' || ch == ';' {
                    terminated = true;
                    break;
                }
                sig.push(ch);
            }
            sig.push(' ');
            col = 0;
            if !terminated {
                j += 1;
            }
        }
        if sig.contains("->") && sig.contains("Result") && sig.contains("Box<dyn") {
            out.push(Violation {
                path: path.to_string(),
                line: idx + 1,
                rule: "typed-error",
                msg: "fn returns `Result` with a `Box<dyn …>` error; use the typed \
                      `CommError`, `CodecError`, `ConfigError`, or `ServiceError` \
                      instead"
                    .to_string(),
            });
        }
        idx = j.max(idx) + 1;
    }
}

/// Code identifiers that mark a `coord_err` call as wrapping a timeout or
/// child-exit condition. String contents are blanked by the lexer, so the
/// rule keys off the *code* of the surrounding statement, not the message
/// text — these are the identifiers deadline checks and reap paths cannot
/// avoid naming.
const COORD_ERR_CONTEXT_TOKENS: [&str; 7] = [
    "deadline",
    "elapsed",
    "exit",
    "exited",
    "try_wait",
    "wait_timeout",
    "ChildExit",
];

/// `typed-error` (coord-err leg): in the transport tree, a stringly
/// `coord_err(…)` may not stand in for a typed timeout/exit error. The
/// scanned window is the statement containing the call — walking up
/// through continuation lines and including the block head right above it
/// (`if now >= deadline {`), walking down to the statement terminator —
/// so the deadline comparison or the reaped exit binding is in view even
/// when the `return Err(coord_err(…))` sits on its own line.
fn check_coord_err(path: &str, file: &SourceFile, out: &mut Vec<Violation>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test || find_word(&line.code, "coord_err", 0).is_none() {
            continue;
        }
        if allow_escape(file, idx, "lcc-lint: allow(coord-err)") {
            continue;
        }
        // Statement start: walk up through comment-only lines and
        // continuation heads. A trailing `,` terminates too, so one match
        // arm never bleeds into the arm above it.
        let mut lo = idx;
        while lo > 0 {
            let prev = &file.lines[lo - 1];
            let code = prev.code.trim_end();
            let comment_only = code.trim().is_empty() && !prev.comment.is_empty();
            let continuation = !code.trim().is_empty()
                && !matches!(code.chars().last(), Some(';' | '{' | '}' | ','));
            if comment_only || continuation {
                lo -= 1;
            } else {
                break;
            }
        }
        // The enclosing block head (the guard that decided to error).
        let head = (lo > 0 && file.lines[lo - 1].code.trim_end().ends_with('{')).then(|| lo - 1);
        // Statement end: the first terminated line at or below the call.
        let mut hi = idx;
        while hi + 1 < file.lines.len()
            && !matches!(
                file.lines[hi].code.trim_end().chars().last(),
                Some(';' | '{' | '}')
            )
        {
            hi += 1;
        }
        let token = head.into_iter().chain(lo..=hi).find_map(|j| {
            COORD_ERR_CONTEXT_TOKENS
                .iter()
                .find(|tok| find_word(&file.lines[j].code, tok, 0).is_some())
        });
        if let Some(tok) = token {
            out.push(Violation {
                path: path.to_string(),
                line: idx + 1,
                rule: "typed-error",
                msg: format!(
                    "`coord_err` string-wraps a timeout/exit condition (`{tok}` in the \
                     statement); use `CommError::Timeout` / `CommError::ChildExited`, \
                     or justify with `// lcc-lint: allow(coord-err)`"
                ),
            });
        }
    }
}

/// The one module allowed to touch byte order.
const CODEC_PATH: &str = "crates/obs/src/codec.rs";

/// The comm ledger's table and the obs registry: the only modules that
/// may name a comm or liveness obs counter.
const COMM_LEDGER_PATHS: [&str; 2] = ["crates/comm/src/stats.rs", "crates/obs/src/metrics.rs"];

/// The confinement rules (`le-bytes`, `one-comm-writer`): flags the first
/// identifier on each non-test line that `banned` picks out; the caller
/// has already exempted the one module the identifiers belong to.
fn check_confined(
    path: &str,
    file: &SourceFile,
    rule: &'static str,
    banned: fn(&str) -> bool,
    fix: &str,
    out: &mut Vec<Violation>,
) {
    for (idx, line) in file.lines.iter().enumerate() {
        let hit = line
            .code
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .find(|w| banned(w));
        if let Some(tok) = hit.filter(|_| !line.in_test) {
            out.push(Violation {
                path: path.to_string(),
                line: idx + 1,
                rule,
                msg: format!("`{tok}` {fix}"),
            });
        }
    }
}

/// Folds per-file unwrap site lists into ratchet violations: a file over
/// budget reports every site (budget 0) or a summary (budget > 0); a file
/// under budget reports a stale ratchet so the budget can only shrink.
pub fn apply_ratchet(
    ratchet: &Ratchet,
    sites_by_file: &BTreeMap<String, Vec<usize>>,
    out: &mut Vec<Violation>,
) {
    let mut all_paths: Vec<&String> = sites_by_file.keys().collect();
    for p in ratchet.keys() {
        if !sites_by_file.contains_key(p) {
            all_paths.push(p);
        }
    }
    for path in all_paths {
        let sites = sites_by_file.get(path).cloned().unwrap_or_default();
        let allowed = ratchet.get(path).copied().unwrap_or(0);
        let actual = sites.len();
        if actual > allowed {
            if allowed == 0 {
                for line in sites {
                    out.push(Violation {
                        path: path.clone(),
                        line,
                        rule: "unwrap-ratchet",
                        msg: "`.unwrap()`/`.expect(` in non-test comm/core/service code; \
                              return a typed error, or justify with \
                              `// lcc-lint: allow(unwrap)`"
                            .to_string(),
                    });
                }
            } else {
                out.push(Violation {
                    path: path.clone(),
                    line: 1,
                    rule: "unwrap-ratchet",
                    msg: format!(
                        "{actual} unwrap/expect sites but the ratchet allows {allowed}; \
                         burn the new ones down (the ratchet only shrinks)"
                    ),
                });
            }
        } else if actual < allowed {
            out.push(Violation {
                path: path.clone(),
                line: 1,
                rule: "unwrap-ratchet",
                msg: format!(
                    "ratchet is stale: {allowed} allowed but only {actual} remain; \
                     lower the entry in tools/lcc-lint/unwrap-ratchet.txt to {actual}"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(path: &str, src: &str) -> Vec<Violation> {
        let file = SourceFile::parse(src);
        let (mut v, sites) = check_file(path, &file);
        let mut by_file = BTreeMap::new();
        if !sites.is_empty() {
            by_file.insert(path.to_string(), sites);
        }
        apply_ratchet(&Ratchet::new(), &by_file, &mut v);
        v
    }

    #[test]
    fn unsafe_without_safety_comment_is_flagged() {
        let v = check("crates/x/src/lib.rs", "fn f() { unsafe { g() } }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "safety-comment");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn safety_comment_above_satisfies() {
        let src = "// SAFETY: g has no preconditions here.\nfn f() { unsafe { g() } }\n";
        assert!(check("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn safety_comment_separated_by_attributes_satisfies() {
        let src = "\
// SAFETY: the impl is sound because T: Send.
#[allow(dead_code)]
#[inline]
unsafe impl<T> Send for Wrapper<T> {}
";
        assert!(check("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn multi_line_safety_comment_satisfies() {
        let src = "\
// SAFETY: the pointer is valid for the whole
// region and nobody else writes to it.
let x = unsafe { *p };
";
        assert!(check("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn safety_walk_sees_through_statement_continuations() {
        let src = "\
// SAFETY: the reference outlives every worker.
let job: &'static Body =
    unsafe { transmute(body) };
";
        assert!(check("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn blank_line_breaks_the_safety_walk() {
        let src = "// SAFETY: stale comment.\n\nlet x = unsafe { *p };\n";
        let v = check("crates/x/src/lib.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "safety-comment");
    }

    #[test]
    fn unsafe_in_string_or_comment_is_ignored() {
        let src =
            "let s = \"unsafe { }\"; // an unsafe-looking string\n/// unsafe docs\nfn f() {}\n";
        assert!(check("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn trailing_safety_comment_satisfies_oneliners() {
        let src = "unsafe impl Send for X {} // SAFETY: X is a plain address.\n";
        assert!(check("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn hot_path_alloc_tokens_are_flagged_outside_tests() {
        let src = "\
// lcc-lint: hot-path
fn hot() { let v = vec![0u8; 4]; }
fn cold() { let b = Box::new(1); } // lcc-lint: allow(alloc) — plan time
#[cfg(test)]
mod tests {
    fn t() { let v = Vec::with_capacity(3); }
}
";
        let v = check("crates/x/src/lib.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "hot-path-alloc");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn allow_alloc_covers_multi_line_statements() {
        let src = "\
// lcc-lint: hot-path
// lcc-lint: allow(alloc) — per-solve output buffers, explained over
// two comment lines.
let kept: Vec<Vec<u8>> =
    (0..6).map(|_| vec![0u8; 4]).collect();
";
        assert!(check("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unratcheted_unwraps_are_flagged_per_site() {
        let src = "fn f() { a.unwrap(); b.expect(\"x\"); }\n";
        let v = check("crates/comm/src/y.rs", src);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.rule == "unwrap-ratchet"));
        // Same file outside the ratcheted tree: silent.
        assert!(check("crates/fft/src/y.rs", src).is_empty());
    }

    #[test]
    fn allow_unwrap_escape_is_honoured() {
        let src =
            "// lcc-lint: allow(unwrap) — infallible by construction\nfn f() { a.unwrap(); }\n";
        assert!(check("crates/comm/src/y.rs", src).is_empty());
    }

    #[test]
    fn ratchet_budget_and_staleness() {
        let mut ratchet = Ratchet::new();
        ratchet.insert("crates/comm/src/y.rs".into(), 2);
        let file = SourceFile::parse("fn f() { a.unwrap(); }\n");
        let (_, sites) = check_file("crates/comm/src/y.rs", &file);
        let mut by_file = BTreeMap::new();
        by_file.insert("crates/comm/src/y.rs".to_string(), sites);
        let mut v = Vec::new();
        apply_ratchet(&ratchet, &by_file, &mut v);
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("stale"), "{v:?}");
    }

    #[test]
    fn boxed_dyn_error_in_comm_result_is_flagged() {
        let src = "\
pub fn bad(x: u8) -> Result<u8, Box<dyn std::error::Error>> { Ok(x) }
pub fn good(x: u8) -> Result<u8, CommError> { Ok(x) }
pub fn multi_line(
    x: u8,
) -> Result<u8, Box<dyn std::error::Error>> {
    Ok(x)
}
";
        let v = check("crates/comm/src/y.rs", src);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.rule == "typed-error"));
        assert_eq!(v[0].line, 1);
        assert_eq!(v[1].line, 3);
    }

    #[test]
    fn coord_err_wrapping_a_deadline_is_flagged() {
        let src = "\
fn serve() -> Result<(), CommError> {
    if Instant::now() >= deadline {
        return Err(coord_err(\"timed out\".to_string()));
    }
    Ok(())
}
";
        let v = check("crates/comm/src/transport/socket.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "typed-error");
        assert_eq!(v[0].line, 3);
        assert!(v[0].msg.contains("deadline"), "{v:?}");
        // Outside the transport tree the coord-err leg stays silent.
        assert!(check("crates/comm/src/cluster.rs", src).is_empty());
    }

    #[test]
    fn coord_err_wrapping_a_child_exit_is_flagged() {
        let src = "\
fn gather(sup: &mut Sup) -> Result<(), CommError> {
    if let Some((rank, exit)) = sup.reap().into_iter().next() {
        return Err(coord_err(format!(
            \"rank died\"
        )));
    }
    Ok(())
}
";
        let v = check("crates/comm/src/transport/socket.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "typed-error");
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn coord_err_for_protocol_violations_is_fine() {
        // Framing/protocol errors are what coord_err is *for* — and a
        // sibling match arm naming RecvTimeoutError::Timeout must not
        // contaminate the arm below it (`,` terminates the walk).
        let src = "\
fn pump() -> Result<(), CommError> {
    match rx.recv() {
        Err(RecvTimeoutError::Timeout) => Ok(()),
        Err(RecvTimeoutError::Disconnected) => Err(coord_err(
            \"all control readers gone\".to_string(),
        )),
    }
}
";
        assert!(check("crates/comm/src/transport/socket.rs", src).is_empty());
    }

    #[test]
    fn allow_coord_err_escape_is_honoured() {
        let src = "\
fn serve() -> Result<(), CommError> {
    if Instant::now() >= deadline {
        // lcc-lint: allow(coord-err) — aggregate condition, no single peer
        return Err(coord_err(\"startup deadline\".to_string()));
    }
    Ok(())
}
";
        assert!(check("crates/comm/src/transport/socket.rs", src).is_empty());
    }

    #[test]
    fn blocking_tokens_in_the_actor_seam_are_flagged() {
        let src = "\
fn step() {
    std::thread::sleep(d);
    let now = Instant::now();
    let g = state.lock();
}
#[cfg(test)]
mod tests {
    fn t() { std::thread::sleep(d); }
}
";
        let v = check("crates/comm/src/actor.rs", src);
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().all(|x| x.rule == "no-blocking-in-step"));
        assert_eq!(
            v.iter().map(|x| x.line).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "test code is exempt"
        );
        // The same source outside the seam (and without the directive) is
        // not subject to the rule.
        assert!(check("crates/comm/src/cluster.rs", src).is_empty());
    }

    #[test]
    fn no_blocking_directive_activates_the_rule_anywhere() {
        let src = "\
// lcc-lint: no-blocking
fn pure() { let m = Mutex::new(0); }
";
        let v = check("crates/octree/src/y.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "no-blocking-in-step");
        assert_eq!(v[0].line, 2);
        // Prose that merely mentions the directive does not activate it.
        let prose = "// the lcc-lint: no-blocking rule is documented elsewhere\n\
                     fn pure() { let m = Mutex::new(0); }\n";
        assert!(check("crates/octree/src/y.rs", prose).is_empty());
    }

    #[test]
    fn allow_blocking_escape_is_honoured() {
        let src = "\
// lcc-lint: no-blocking
// lcc-lint: allow(blocking) — diagnostics helper, never on the step path
fn dump() { println!(\"{state:?}\"); }
";
        assert!(check("crates/octree/src/y.rs", src).is_empty());
    }

    #[test]
    fn the_committed_actor_seam_is_clean() {
        // The rule hardwires the real seam files; prove they pass so the
        // workspace scan stays green.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap()
            .to_path_buf();
        for rel in ACTOR_SEAM_PATHS {
            let text = std::fs::read_to_string(root.join(rel)).expect(rel);
            let v = check(rel, &text);
            assert!(
                v.iter().all(|x| x.rule != "no-blocking-in-step"),
                "{rel}: {v:?}"
            );
        }
    }

    #[test]
    fn service_tree_is_ratcheted() {
        // PR 10 added crates/service to the ratcheted trees: zero-budget
        // unwraps and the typed-error rule both apply there.
        let unwraps = "fn f() { a.unwrap(); }\n";
        let v = check("crates/service/src/server.rs", unwraps);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "unwrap-ratchet");
        let boxed = "pub fn bad(x: u8) -> Result<u8, Box<dyn std::error::Error>> { Ok(x) }\n";
        let v = check("crates/service/src/wire.rs", boxed);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "typed-error");
        // Test trees of the service crate are not ratcheted.
        assert!(check("crates/service/tests/admission.rs", unwraps).is_empty());
    }

    #[test]
    fn le_bytes_is_confined_to_the_codec_module() {
        let src = "\
fn put(out: &mut Vec<u8>, v: u64) { out.extend_from_slice(&v.to_le_bytes()); }
fn get(b: [u8; 4]) -> u32 { u32::from_le_bytes(b) }
#[cfg(test)]
mod tests {
    fn t() { let _ = 1u32.to_le_bytes(); }
}
";
        let v = check("crates/service/src/wire.rs", src);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.rule == "le-bytes"));
        assert_eq!(v.iter().map(|x| x.line).collect::<Vec<_>>(), vec![1, 2]);
        // The codec module itself, and code outside crate sources, are exempt.
        assert!(check(CODEC_PATH, src).is_empty());
        assert!(check("crates/service/tests/wire_props.rs", src).is_empty());
        assert!(check("tools/lcc-lint/src/main.rs", src).is_empty());
    }

    #[test]
    fn comm_counters_are_named_only_by_the_ledger() {
        let src = "\
fn send(n: u64) { obs::COMM_BYTES_LOGICAL.add(n); }
use lcc_obs::metrics::{LIVENESS_REJOINS, SERVICE_SHED};
fn ok(stats: &CommStats) { stats.add(CommCounter::Acks, 1); let _ = MY_COMM_X; }
#[cfg(test)]
mod tests {
    fn t() { let _ = lcc_obs::metrics::COMM_ACKS.get(); }
}
";
        let v = check("crates/comm/src/cluster.rs", src);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.rule == "one-comm-writer"));
        assert_eq!(v.iter().map(|x| x.line).collect::<Vec<_>>(), vec![1, 2]);
        // The table, the registry, and code outside crate sources are exempt.
        for exempt in COMM_LEDGER_PATHS {
            assert!(check(exempt, src).is_empty());
        }
        assert!(check("tests/obs_cluster.rs", src).is_empty());
    }

    #[test]
    fn typed_error_rule_covers_core_tree() {
        let src = "\
pub fn bad(x: u8) -> Result<u8, Box<dyn std::error::Error>> { Ok(x) }
pub fn good(x: u8) -> Result<u8, ConfigError> { Ok(x) }
";
        let v = check("crates/core/src/config.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "typed-error");
        assert_eq!(v[0].line, 1);
        // Outside both ratcheted trees the rule stays silent.
        assert!(check("crates/octree/src/y.rs", src).is_empty());
    }
}
