//! Systematic concurrency mutation testing: `cargo xtask mutate`.
//!
//! Replaces the three hand-rolled `sed` smokes that used to live in
//! `ci.yml`. Those broke silently as code drifted — `sed` matches
//! nothing, the "mutant" is the original code, the test passes, and the
//! smoke rots into a green no-op. Here every operator is applied
//! through the xtask lexer ([`crate::lexer`]): a pattern must match
//! *code* (never comments or string literals), and a pattern that no
//! longer matches is a loud engine error, not a silent pass.
//!
//! Operator set (curated for this codebase's failure modes):
//!
//! * **Ordering weakening** — `Release→Relaxed`, `Acquire→Relaxed`,
//!   `AcqRel→Acquire`, `SeqCst→AcqRel` at a single site. Killed
//!   *statically* by `xtask orderings`: the manifest rules pin exact
//!   ordering sequences and the committed inventory pins per-sequence
//!   site counts, so any weakening flips a lint or drifts the
//!   inventory. (A dynamic kill would be theater on x86, where TSO
//!   grants acquire/release semantics for free — the lint is the only
//!   honest judge we have without a weaker-memory CI host.)
//! * **Pair-lock sort inversion** — the deadlock-avoidance total order.
//! * **Batch stripe-sort inversion** — the write-group `lock_batch`
//!   acquisition order flipped to descending, breaking the shared
//!   total order with `lock_pair`.
//! * **`.rev()` stripping** — hole-backwards → items-forward execution.
//! * **Seqlock stamp flip** — `try_lock` acquires with an even (+2)
//!   stamp instead of odd, erasing the reader-visible write window.
//! * **Fence removal** — drops the `read_validate` Acquire fence.
//! * **Bounds off-by-one** — the path executor walks one step too far.
//! * **Read-protocol check removal** — the optimistic protocol skips
//!   its second stripe's validation; the locked protocol skips its
//!   `valid` re-check under the pair lock.
//! * **SAFETY-comment strip** — the SAFETY lint must notice its
//!   comments disappearing (the old first sed smoke).
//!
//! Modes: `--ci` runs the pinned per-PR subset (every mutant must be
//! killed), `--all` additionally generates the full ordering-weakening
//! matrix over every atomic site in the workspace (scheduled job), and
//! `--selftest` proves the engine itself works: each pinned operator
//! produces a *compiling* mutant, a missing pattern errors loudly, and
//! a deliberately unkillable fixture mutant makes the run fail.
//!
//! Survivors are reported to `target/mutation-report.txt`; a survivor
//! is fatal unless listed (with a reason) in `xtask/mutants-allow.toml`.

use std::path::Path;
use std::process::Command;

use crate::lexer::{blank_test_mods, lex, lex_lines, Class};
use crate::orderings;

/// A single code rewrite, applied through the lexer.
#[derive(Debug, Clone)]
pub enum Op {
    /// Replace the first occurrence of `find` whose every character is
    /// code-class (comments and literals can never match).
    Replace { find: String, replace: String },
    /// Weaken the first `Ordering::<from>` (code-class) whose
    /// surrounding ±3 code lines contain `near` — the guard makes the
    /// mutant drift-proof: if the site moves away, the engine errors.
    Weaken {
        from: String,
        to: String,
        near: String,
    },
    /// Weaken the `k`-th `Ordering::<from>` on 1-based line `line`
    /// (used by the generated full matrix, where the generator and the
    /// applier read the same file in the same run).
    WeakenAt {
        line: usize,
        k: usize,
        from: String,
        to: String,
    },
    /// Delete every comment character on lines whose comment mentions
    /// `SAFETY:` — the lexer-applied equivalent of the old
    /// `sed '/\/\/ SAFETY:/d'` smoke, minus the line-number churn.
    StripSafety,
}

/// How a mutant must die.
#[derive(Debug, Clone)]
pub enum Kill {
    /// `xtask orderings` (lint + inventory drift) must report ≥1
    /// violation. In-process; no build required.
    Orderings,
    /// The SAFETY lint must report ≥1 violation. In-process.
    Safety,
    /// `cargo test -q -p <pkg> --lib <filter>` must fail.
    Test {
        pkg: &'static str,
        filter: &'static str,
    },
}

pub struct Mutant {
    pub id: String,
    /// Repo-relative path of the mutated file.
    pub file: String,
    pub op: Op,
    pub kill: Kill,
    /// What property the mutant probes (for the report).
    pub note: &'static str,
}

fn replace_first_code_match(src: &str, find: &str, replace: &str) -> Option<String> {
    let lexed = lex(src);
    let pat: Vec<char> = find.chars().collect();
    let n = lexed.chars.len();
    let mut i = 0;
    while i + pat.len() <= n {
        if lexed.chars[i..i + pat.len()] == pat[..]
            && lexed.classes[i..i + pat.len()]
                .iter()
                .all(|&c| c == Class::Code)
        {
            let mut out: String = lexed.chars[..i].iter().collect();
            out.push_str(replace);
            out.extend(&lexed.chars[i + pat.len()..]);
            return Some(out);
        }
        i += 1;
    }
    None
}

/// (line, k) → char range of the k-th code-class `Ordering::<from>`
/// occurrence on that 1-based line; also usable as an enumerator when
/// `want` is `None`.
fn ordering_occurrences(src: &str, from: &str) -> Vec<(usize, usize, usize)> {
    // (1-based line, char start, char end) for each code-class match.
    let lexed = lex(src);
    let pat: Vec<char> = format!("Ordering::{from}").chars().collect();
    let mut out = Vec::new();
    let mut line = 1usize;
    let n = lexed.chars.len();
    let mut i = 0;
    while i < n {
        if lexed.chars[i] == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if i + pat.len() <= n
            && lexed.chars[i..i + pat.len()] == pat[..]
            && lexed.classes[i..i + pat.len()]
                .iter()
                .all(|&c| c == Class::Code)
            && (i == 0 || !crate::lexer::is_ident(lexed.chars[i - 1]))
            && (i + pat.len() == n || !crate::lexer::is_ident(lexed.chars[i + pat.len()]))
        {
            out.push((line, i, i + pat.len()));
            i += pat.len();
        } else {
            i += 1;
        }
    }
    out
}

fn splice(src: &str, start: usize, end: usize, replacement: &str) -> String {
    let chars: Vec<char> = src.chars().collect();
    let mut out: String = chars[..start].iter().collect();
    out.push_str(replacement);
    out.extend(&chars[end..]);
    out
}

/// Applies `op` to `src`, or explains why it no longer matches.
pub fn apply(src: &str, op: &Op) -> Result<String, String> {
    match op {
        Op::Replace { find, replace } => replace_first_code_match(src, find, replace)
            .ok_or_else(|| format!("pattern not found in code (operator drifted): `{find}`")),
        Op::Weaken { from, to, near } => {
            let lines = lex_lines(src);
            let occurrences = ordering_occurrences(src, from);
            // Same-line guard matches win over the ±3-line window, so a
            // guard like `fetch_or` picks its own line even when another
            // site sits a line or two above.
            for window in [0usize, 3] {
                for &(line, start, end) in &occurrences {
                    let lo = line.saturating_sub(1 + window); // 0-based
                    let hi = (line - 1 + window).min(lines.len().saturating_sub(1));
                    let ctx: String = lines[lo..=hi]
                        .iter()
                        .map(|l| l.code.as_str())
                        .collect::<Vec<_>>()
                        .join("\n");
                    if ctx.contains(near.as_str()) {
                        return Ok(splice(src, start, end, &format!("Ordering::{to}")));
                    }
                }
            }
            Err(format!(
                "no code-class `Ordering::{from}` near `{near}` (operator drifted)"
            ))
        }
        Op::WeakenAt { line, k, from, to } => {
            let on_line: Vec<_> = ordering_occurrences(src, from)
                .into_iter()
                .filter(|(l, _, _)| l == line)
                .collect();
            match on_line.get(*k) {
                Some(&(_, start, end)) => Ok(splice(src, start, end, &format!("Ordering::{to}"))),
                None => Err(format!(
                    "no {k}-th `Ordering::{from}` on line {line} (generator/applier drift)"
                )),
            }
        }
        Op::StripSafety => {
            let lexed = lex(src);
            // Mark lines whose comment text contains SAFETY:.
            let lines = lex_lines(src);
            let strip: Vec<bool> = lines.iter().map(|l| l.comment.contains("SAFETY:")).collect();
            if !strip.iter().any(|&b| b) {
                return Err("no SAFETY: comments to strip (operator drifted)".into());
            }
            let mut out = String::new();
            let mut line = 0usize;
            for (&c, &class) in lexed.chars.iter().zip(lexed.classes.iter()) {
                if c == '\n' {
                    line += 1;
                    out.push(c);
                    continue;
                }
                if class == Class::Comment && strip.get(line).copied().unwrap_or(false) {
                    continue;
                }
                out.push(c);
            }
            Ok(out)
        }
    }
}

/// Restores the original file content on scope exit (including panics),
/// with a fresh mtime so later builds never reuse a stale mutant
/// artifact — the failure mode the old CI smokes dodged with `cp`.
struct Restore<'a> {
    path: &'a Path,
    original: &'a str,
}

impl Drop for Restore<'_> {
    fn drop(&mut self) {
        if let Err(e) = std::fs::write(self.path, self.original) {
            eprintln!(
                "mutate: FAILED to restore {} — working tree is mutated! ({e})",
                self.path.display()
            );
        }
    }
}

fn kill_check(root: &Path, kill: &Kill) -> Result<bool, String> {
    match kill {
        Kill::Orderings => Ok(!orderings::check(root).is_empty()),
        Kill::Safety => Ok(!crate::safety_lint(root).is_empty()),
        Kill::Test { pkg, filter } => {
            let status = Command::new(env!("CARGO"))
                .args(["test", "-q", "-p", pkg, "--lib", filter])
                .current_dir(root)
                .status()
                .map_err(|e| format!("could not run cargo test: {e}"))?;
            Ok(!status.success())
        }
    }
}

fn kill_name(kill: &Kill) -> String {
    match kill {
        Kill::Orderings => "xtask orderings".into(),
        Kill::Safety => "SAFETY lint".into(),
        Kill::Test { pkg, filter } => format!("cargo test -p {pkg} --lib {filter}"),
    }
}

/// The pinned per-PR subset. The first three are the lexer-applied
/// equivalents of the retired sed smokes; the rest cover the remaining
/// operators on the seqlock/displacement protocol core.
pub fn pinned() -> Vec<Mutant> {
    let m = |id: &str, file: &str, op: Op, kill: Kill, note: &'static str| Mutant {
        id: id.into(),
        file: file.into(),
        op,
        kill,
        note,
    };
    vec![
        m(
            "safety-strip-map",
            "crates/cuckoo/src/map.rs",
            Op::StripSafety,
            Kill::Safety,
            "retired sed smoke 1: deleting SAFETY comments must trip the lint",
        ),
        m(
            "lock-pair-sort-invert",
            "crates/cuckoo/src/sync.rs",
            Op::Replace {
                find: "if s1 <= s2 { (s1, s2) } else { (s2, s1) }".into(),
                replace: "if s1 <= s2 { (s2, s1) } else { (s1, s2) }".into(),
            },
            Kill::Test {
                pkg: "cuckoo",
                filter: "lock_pair_sorts",
            },
            "retired sed smoke 2: pair-lock total order inverted (deadlock seed)",
        ),
        m(
            "exec-items-forward",
            "crates/cuckoo/src/search/exec.rs",
            Op::Replace {
                find: "for i in (0..path.len() - 1).rev()".into(),
                replace: "for i in 0..path.len() - 1".into(),
            },
            Kill::Test {
                pkg: "cuckoo",
                filter: "hole_backwards_executes",
            },
            "retired sed smoke 3: items-forward execution lets readers miss live keys",
        ),
        m(
            "seqlock-even-stamp",
            "crates/cuckoo/src/sync.rs",
            Op::Replace {
                find: "(cur + 1) | LOCKED".into(),
                replace: "(cur + 2) | LOCKED".into(),
            },
            Kill::Test {
                pkg: "cuckoo",
                filter: "lock_sets_odd_version",
            },
            "seqlock stamp flip: even version during the write window hides writers",
        ),
        m(
            "seqlock-fence-removal",
            "crates/cuckoo/src/sync.rs",
            Op::Replace {
                find: "std::sync::atomic::fence(Ordering::Acquire);".into(),
                replace: "();".into(),
            },
            Kill::Orderings,
            "read_validate loses its fence: the committed inventory pins the site count",
        ),
        m(
            "exec-bounds-off-by-one",
            "crates/cuckoo/src/search/exec.rs",
            Op::Replace {
                find: "(0..path.len() - 1).rev()".into(),
                replace: "(0..path.len()).rev()".into(),
            },
            Kill::Test {
                pkg: "cuckoo",
                filter: "hole_backwards",
            },
            "path executor walks one displacement past the vacancy",
        ),
        m(
            "weaken-unlock-release",
            "crates/cuckoo/src/sync.rs",
            Op::Weaken {
                from: "Release".into(),
                to: "Relaxed".into(),
                near: "!LOCKED) + 1".into(),
            },
            Kill::Orderings,
            "seqlock unlock loses its Release publication",
        ),
        m(
            "weaken-trylock-acquire",
            "crates/cuckoo/src/sync.rs",
            Op::Weaken {
                from: "Acquire".into(),
                to: "Relaxed".into(),
                near: "compare_exchange_weak".into(),
            },
            Kill::Orderings,
            "seqlock try_lock CAS loses its Acquire edge",
        ),
        m(
            "weaken-bucket-occupied",
            "crates/cuckoo/src/bucket.rs",
            Op::Weaken {
                from: "Release".into(),
                to: "Relaxed".into(),
                near: "fetch_or".into(),
            },
            Kill::Orderings,
            "occupied-bit publication weakened under optimistic readers",
        ),
        m(
            "weaken-chunk-done",
            "crates/cuckoo/src/map.rs",
            Op::Weaken {
                from: "Release".into(),
                to: "Relaxed".into(),
                near: "CHUNK_DONE".into(),
            },
            Kill::Orderings,
            "migration chunk-done store weakened: helpers could read a torn chunk",
        ),
        m(
            "batch-stripe-sort-invert",
            "crates/cuckoo/src/sync.rs",
            Op::Replace {
                find: "stripes[..m].sort_unstable();".into(),
                replace: "stripes[..m].sort_unstable_by(|a, b| b.cmp(a));".into(),
            },
            Kill::Test {
                pkg: "cuckoo",
                filter: "lock_batch",
            },
            "batched write-group stripe sort inverted (deadlock seed vs pair/multi order)",
        ),
        m(
            "weaken-exec-displacements",
            "crates/cuckoo/src/search/exec.rs",
            Op::Weaken {
                from: "SeqCst".into(),
                to: "AcqRel".into(),
                near: "displacements".into(),
            },
            Kill::Orderings,
            "scan's displacement counter loses SeqCst (fuzzy snapshots tear)",
        ),
        m(
            "read-skip-second-validate",
            "crates/cuckoo/src/read.rs",
            Op::Replace {
                find: "(same_stripe || s2.read_validate(st2))".into(),
                replace: "(same_stripe || true)".into(),
            },
            Kill::Test {
                pkg: "cuckoo",
                filter: "optimistic_attempt_validates_both_stripes",
            },
            "optimistic protocol ignores the alternate bucket's stripe (torn reads of displaced keys)",
        ),
        m(
            "read-locked-skip-valid",
            "crates/cuckoo/src/read.rs",
            Op::Replace {
                find: "(self.valid)().then(".into(),
                replace: "true.then(".into(),
            },
            Kill::Test {
                pkg: "cuckoo",
                filter: "locked_attempt_rechecks_valid_under_the_lock",
            },
            "locked protocol trusts a table swapped or drained while it waited for the pair lock",
        ),
    ]
}

/// The full matrix: one weakening mutant per weakenable ordering token
/// at every product atomic site in the workspace. All are killed
/// statically (exact-sequence rules, or inventory drift for
/// allows-based rules), so the matrix runs without a single build.
pub fn generate_weakenings(root: &Path) -> Vec<Mutant> {
    const WEAKEN: &[(&str, &str)] = &[
        ("Release", "Relaxed"),
        ("Acquire", "Relaxed"),
        ("AcqRel", "Acquire"),
        ("SeqCst", "AcqRel"),
    ];
    let mut out = Vec::new();
    for dir in orderings::lint_roots(root) {
        for file in crate::rust_files(&dir) {
            let Ok(src) = std::fs::read_to_string(&file) else {
                continue;
            };
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .display()
                .to_string();
            // Skip sites inside #[cfg(test)] mods — the ordering lint
            // does not see them, so nothing could kill those mutants.
            let mut lines = lex_lines(&src);
            blank_test_mods(&mut lines);
            for (from, to) in WEAKEN {
                let mut per_line_k = std::collections::BTreeMap::new();
                for (line, _, _) in ordering_occurrences(&src, from) {
                    let k = per_line_k.entry(line).or_insert(0usize);
                    let in_product = lines
                        .get(line - 1)
                        .is_some_and(|l| l.code.contains("Ordering::"));
                    if in_product {
                        out.push(Mutant {
                            id: format!("weaken:{rel}:{line}#{k}:{from}->{to}"),
                            file: rel.clone(),
                            op: Op::WeakenAt {
                                line,
                                k: *k,
                                from: (*from).into(),
                                to: (*to).into(),
                            },
                            kill: Kill::Orderings,
                            note: "generated ordering weakening (killed statically)",
                        });
                    }
                    *k += 1;
                }
            }
        }
    }
    out
}

fn parse_allowlist(root: &Path) -> Vec<(String, String)> {
    let Ok(text) = std::fs::read_to_string(root.join("xtask/mutants-allow.toml")) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let (mut id, mut reason) = (None::<String>, None::<String>);
    let flush = |id: &mut Option<String>, reason: &mut Option<String>, out: &mut Vec<_>| {
        if let Some(i) = id.take() {
            out.push((i, reason.take().unwrap_or_default()));
        }
    };
    for line in text.lines() {
        let line = line.trim();
        if line == "[[allow]]" {
            flush(&mut id, &mut reason, &mut out);
        } else if let Some(v) = line.strip_prefix("id = ") {
            id = Some(v.trim_matches('"').to_string());
        } else if let Some(v) = line.strip_prefix("reason = ") {
            reason = Some(v.trim_matches('"').to_string());
        }
    }
    flush(&mut id, &mut reason, &mut out);
    out
}

/// Applies each mutant in turn (mutate → kill-check → restore) and
/// writes the report. Returns `false` if any mutant survived without an
/// allowlist entry, or the engine itself failed.
pub fn run_mutants(root: &Path, mutants: &[Mutant], report_name: &str) -> bool {
    let allow = parse_allowlist(root);
    let mut report = String::new();
    let mut killed = 0usize;
    let mut survived: Vec<&Mutant> = Vec::new();
    let mut allowed = 0usize;
    let mut errors = 0usize;

    for m in mutants {
        let path = root.join(&m.file);
        let original = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("mutate [{}]: unreadable {}: {e}", m.id, m.file);
                errors += 1;
                continue;
            }
        };
        let mutated = match apply(&original, &m.op) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("mutate [{}]: ENGINE ERROR: {e}", m.id);
                report.push_str(&format!("ERROR     {}  {e}\n", m.id));
                errors += 1;
                continue;
            }
        };
        if mutated == original {
            eprintln!("mutate [{}]: ENGINE ERROR: mutant is identical to original", m.id);
            errors += 1;
            continue;
        }
        let verdict = {
            let _restore = Restore {
                path: &path,
                original: &original,
            };
            match std::fs::write(&path, &mutated) {
                Ok(()) => kill_check(root, &m.kill),
                Err(e) => Err(format!("could not write mutant: {e}")),
            }
            // `_restore` drops here: original bytes back, fresh mtime.
        };
        match verdict {
            Ok(true) => {
                killed += 1;
                println!("mutate [{}]: killed by {}", m.id, kill_name(&m.kill));
                report.push_str(&format!("KILLED    {}  ({})\n", m.id, kill_name(&m.kill)));
            }
            Ok(false) => {
                if let Some((_, reason)) = allow.iter().find(|(id, _)| id == &m.id) {
                    allowed += 1;
                    println!("mutate [{}]: SURVIVED (allowlisted: {reason})", m.id);
                    report.push_str(&format!("ALLOWED   {}  ({reason})\n", m.id));
                } else {
                    eprintln!(
                        "mutate [{}]: SURVIVED `{}` — {}",
                        m.id,
                        kill_name(&m.kill),
                        m.note
                    );
                    report.push_str(&format!(
                        "SURVIVED  {}  (not killed by {}; {})\n",
                        m.id,
                        kill_name(&m.kill),
                        m.note
                    ));
                    survived.push(m);
                }
            }
            Err(e) => {
                eprintln!("mutate [{}]: ENGINE ERROR: {e}", m.id);
                report.push_str(&format!("ERROR     {}  {e}\n", m.id));
                errors += 1;
            }
        }
    }

    let summary = format!(
        "mutate: {} mutant(s): {killed} killed, {} survived, {allowed} allowlisted, {errors} error(s)",
        mutants.len(),
        survived.len()
    );
    report.push_str(&summary);
    report.push('\n');
    let report_path = root.join("target").join(report_name);
    let _ = std::fs::create_dir_all(root.join("target"));
    if let Err(e) = std::fs::write(&report_path, &report) {
        eprintln!("mutate: could not write report {}: {e}", report_path.display());
    } else {
        println!("mutate: report at {}", report_path.display());
    }
    if survived.is_empty() && errors == 0 {
        println!("{summary}");
        true
    } else {
        eprintln!("{summary}");
        false
    }
}

pub fn run_ci(root: &Path) -> bool {
    run_mutants(root, &pinned(), "mutation-report.txt")
}

pub fn run_all(root: &Path) -> bool {
    let mut mutants = pinned();
    let generated = generate_weakenings(root);
    println!(
        "mutate --all: {} pinned + {} generated ordering weakenings",
        mutants.len(),
        generated.len()
    );
    mutants.extend(generated);
    run_mutants(root, &mutants, "mutation-report-full.txt")
}

/// Proves the engine works: every pinned operator produces a mutant
/// that differs from the original *and compiles*; a missing pattern is
/// a loud error; and an unkillable mutant fails the run.
pub fn run_selftest(root: &Path) -> bool {
    let mut ok = true;

    // 1. Every pinned mutant applies cleanly and compiles.
    for m in pinned() {
        let path = root.join(&m.file);
        let original = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("mutate selftest [{}]: unreadable {}: {e}", m.id, m.file);
                ok = false;
                continue;
            }
        };
        let mutated = match apply(&original, &m.op) {
            Ok(s) if s != original => s,
            Ok(_) => {
                eprintln!("mutate selftest [{}]: mutant identical to original", m.id);
                ok = false;
                continue;
            }
            Err(e) => {
                eprintln!("mutate selftest [{}]: {e}", m.id);
                ok = false;
                continue;
            }
        };
        let pkg = m
            .file
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("cuckoo")
            .to_string();
        let compiled = {
            let _restore = Restore {
                path: &path,
                original: &original,
            };
            std::fs::write(&path, &mutated).is_ok()
                && Command::new(env!("CARGO"))
                    .args(["check", "-q", "-p", &pkg, "--lib"])
                    .current_dir(root)
                    .status()
                    .map(|s| s.success())
                    .unwrap_or(false)
        };
        if compiled {
            println!("mutate selftest [{}]: applies and compiles", m.id);
        } else {
            eprintln!("mutate selftest [{}]: mutant does not compile", m.id);
            ok = false;
        }
    }

    // 2. A drifted pattern is a loud error, not a silent no-op pass.
    let drifted = Mutant {
        id: "selftest-drifted-pattern".into(),
        file: "crates/cuckoo/src/sync.rs".into(),
        op: Op::Replace {
            find: "this_pattern_exists_nowhere_in_the_tree".into(),
            replace: "x".into(),
        },
        kill: Kill::Orderings,
        note: "fixture: must be reported as an engine error",
    };
    if run_mutants(root, std::slice::from_ref(&drifted), "mutation-report-selftest.txt") {
        eprintln!("mutate selftest: drifted pattern did NOT fail the run");
        ok = false;
    } else {
        println!("mutate selftest: drifted pattern errors loudly");
    }

    // 3. A surviving mutant fails the run: mutate a test-only constant
    // the ordering lint cannot see.
    let survivor = Mutant {
        id: "selftest-survivor".into(),
        file: "crates/cuckoo/src/search/exec.rs".into(),
        op: Op::Replace {
            find: "0xAA".into(),
            replace: "0xAB".into(),
        },
        kill: Kill::Orderings,
        note: "fixture: invisible to the static kill, must survive",
    };
    if run_mutants(root, std::slice::from_ref(&survivor), "mutation-report-selftest.txt") {
        eprintln!("mutate selftest: unkilled mutant did NOT fail the run");
        ok = false;
    } else {
        println!("mutate selftest: surviving mutant fails the run");
    }

    // 4. The working tree is pristine again.
    for m in pinned() {
        let path = root.join(&m.file);
        if let Ok(now) = std::fs::read_to_string(&path) {
            if apply(&now, &m.op).is_err() && !matches!(m.op, Op::StripSafety) {
                eprintln!("mutate selftest: {} not restored?", m.file);
                ok = false;
            }
        }
    }

    if ok {
        println!("mutate selftest: the engine mutates, kills, and restores");
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replace_skips_comments_and_strings() {
        let src = "// for i in (0..n).rev()\nlet s = \"for i in (0..n).rev()\";\nfor i in (0..n).rev() {}\n";
        let out = replace_first_code_match(src, "for i in (0..n).rev()", "for i in 0..n").unwrap();
        assert!(out.contains("// for i in (0..n).rev()"), "comment untouched");
        assert!(out.contains("\"for i in (0..n).rev()\""), "string untouched");
        assert!(out.contains("for i in 0..n {}"), "code mutated");
    }

    #[test]
    fn replace_errors_on_missing_pattern() {
        assert!(replace_first_code_match("let x = 1;\n", "nope", "x").is_none());
    }

    #[test]
    fn weaken_near_guard_selects_the_right_site() {
        let src = "a.store(1, Ordering::Release);\n// target below\nb.fetch_or(2, Ordering::Release);\n";
        let out = apply(
            src,
            &Op::Weaken {
                from: "Release".into(),
                to: "Relaxed".into(),
                near: "fetch_or".into(),
            },
        )
        .unwrap();
        assert!(out.contains("a.store(1, Ordering::Release)"), "first site kept");
        assert!(out.contains("b.fetch_or(2, Ordering::Relaxed)"), "guarded site weakened");
    }

    #[test]
    fn weaken_errors_when_near_guard_fails() {
        let src = "a.store(1, Ordering::Release);\n";
        assert!(apply(
            src,
            &Op::Weaken {
                from: "Release".into(),
                to: "Relaxed".into(),
                near: "fetch_or".into(),
            },
        )
        .is_err());
    }

    #[test]
    fn weaken_at_addresses_line_and_occurrence() {
        let src = "a.load(Ordering::Acquire);\ncas(Ordering::Acquire, Ordering::Acquire);\n";
        let out = apply(
            src,
            &Op::WeakenAt {
                line: 2,
                k: 1,
                from: "Acquire".into(),
                to: "Relaxed".into(),
            },
        )
        .unwrap();
        assert_eq!(
            out,
            "a.load(Ordering::Acquire);\ncas(Ordering::Acquire, Ordering::Relaxed);\n"
        );
    }

    #[test]
    fn strip_safety_removes_only_safety_comments() {
        let src = "// SAFETY: p is valid.\nunsafe { *p }\n// just a note\nlet x = 1;\n";
        let out = apply(src, &Op::StripSafety).unwrap();
        assert!(!out.contains("SAFETY"));
        assert!(out.contains("// just a note"));
        assert!(out.contains("unsafe { *p }"));
        // Line count unchanged: the lint's line numbers stay meaningful.
        assert_eq!(out.lines().count(), src.lines().count());
    }

    #[test]
    fn pinned_mutants_apply_to_the_real_tree() {
        // The in-repo halves of the selftest (no cargo): every pinned
        // pattern still matches, so none of them has silently rotted —
        // the exact failure mode of the retired sed smokes.
        let root = crate::repo_root();
        for m in pinned() {
            let src = std::fs::read_to_string(root.join(&m.file))
                .unwrap_or_else(|e| panic!("{}: {e}", m.file));
            let mutated = apply(&src, &m.op).unwrap_or_else(|e| panic!("[{}] {e}", m.id));
            assert_ne!(mutated, src, "[{}] mutant must differ", m.id);
        }
    }

    #[test]
    fn generated_matrix_covers_the_protocol_core() {
        let root = crate::repo_root();
        let all = generate_weakenings(&root);
        assert!(
            all.len() >= 100,
            "expected a substantial matrix, got {}",
            all.len()
        );
        for probe in [
            "crates/cuckoo/src/sync.rs",
            "crates/cuckoo/src/bucket.rs",
            "crates/cuckoo/src/core.rs",
            "crates/cuckoo/src/map.rs",
        ] {
            assert!(
                all.iter().any(|m| m.file == probe),
                "no generated mutants in {probe}"
            );
        }
    }
}
