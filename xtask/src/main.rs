//! Repo automation: `cargo xtask check` is the static-analysis gate.
//!
//! Subcommands:
//!
//! * `check` — the full suite: SAFETY-comment lint, forbid-list,
//!   memory-ordering lint, lint-config audit, `cargo clippy -D
//!   warnings`, and a Miri pass over the single-threaded smoke tests
//!   (skipped with a notice when Miri is not installed — the container
//!   image has no nightly toolchain). Flags: `--no-clippy`, `--no-miri`
//!   to skip the slow/toolchain steps.
//! * `safety` — only the SAFETY-comment lint (fast inner loop).
//! * `forbid` — only the forbid-list scan.
//! * `orderings` — the memory-ordering lint (see [`orderings`]):
//!   every atomic site justified against `xtask/orderings.toml`, site
//!   inventory pinned in `xtask/orderings-inventory.tsv`
//!   (`--write-inventory` regenerates it after review).
//! * `mutate` — the mutation-testing engine (see [`mutate`]):
//!   `--ci` pinned subset, `--all` full ordering-weakening matrix,
//!   `--selftest` engine self-checks.
//! * `selftest` — prove the lint machinery catches violations: runs
//!   embedded good/bad fixtures through the same code paths CI relies
//!   on, failing if a bad fixture passes or a good one is flagged.
//!
//! The SAFETY lint enforces the repo discipline that every `unsafe`
//! site carries its proof obligation in-line: an `unsafe` block (or
//! `unsafe impl`/`unsafe trait`) needs a `// SAFETY:` comment within
//! the six lines above it, and an `unsafe fn` needs either a
//! `# Safety` section in its doc comment or a nearby `// SAFETY:`.
//! Comments and string literals are stripped by the [`lexer`] first, so
//! a "SAFETY:" inside a string does not satisfy the lint and an
//! "unsafe" inside a comment does not trigger it.

mod lexer;
mod mutate;
mod orderings;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use lexer::{blank_test_mods, find_word, is_ident, lex_lines, LexedLine};

/// Roots the SAFETY-comment discipline covers: every `crates/*/src`,
/// `shims/loom/src`, the root `src/`, and `xtask/src` (the other shims
/// mimic third-party crates' shapes). Newly added crates are picked up
/// automatically instead of rotting off a hand-kept list (which is how
/// `persist` and `metrics` once escaped coverage).
fn safety_roots(root: &Path) -> Vec<PathBuf> {
    let mut roots = vec![root.join("src"), root.join("xtask/src"), root.join("shims/loom/src")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            let src = entry.path().join("src");
            if src.is_dir() {
                roots.push(src);
            }
        }
    }
    roots.sort();
    roots
}

/// The forbid-list applies everywhere, baselines included.
const FORBID_ROOTS: &[&str] = &["crates", "shims", "src", "xtask/src"];

/// Crates whose *lib* code must not call `.unwrap(` — the PR 3
/// burn-down, continued: durability and the network front door are the
/// two places a panic becomes data loss or a dropped connection, so
/// every fallible site documents its invariant via `.expect("…")` or
/// propagates. Tests are exempt (`#[cfg(test)]` mods are blanked).
const UNWRAP_FORBID_ROOTS: &[&str] = &["crates/server/src", "crates/persist/src"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let flag = |f: &str| args.iter().any(|a| a == f);
    let root = repo_root();

    let ok = match cmd {
        "check" => run_check(&root, !flag("--no-clippy"), !flag("--no-miri")),
        "safety" => report("SAFETY lint", safety_lint(&root)),
        "forbid" => report("forbid-list", forbid_list(&root)),
        "orderings" if flag("--write-inventory") => match orderings::write_inventory(&root) {
            Ok(n) => {
                println!("memory-ordering lint: inventory regenerated ({n} sites)");
                true
            }
            Err(violations) => report("memory-ordering lint", violations),
        },
        "orderings" => report("memory-ordering lint", orderings::check(&root)),
        "mutate" if flag("--all") => mutate::run_all(&root),
        "mutate" if flag("--selftest") => mutate::run_selftest(&root),
        "mutate" => mutate::run_ci(&root),
        "selftest" => run_selftest(),
        _ => {
            eprintln!(
                "usage: cargo xtask <check [--no-clippy] [--no-miri] | safety | forbid \
                 | orderings [--write-inventory] | mutate [--ci|--all|--selftest] | selftest>"
            );
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn repo_root() -> PathBuf {
    // xtask is always invoked through cargo, so CARGO_MANIFEST_DIR is
    // xtask/ and the workspace root is its parent.
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .expect("xtask must be run via cargo (CARGO_MANIFEST_DIR unset)");
    Path::new(&manifest)
        .parent()
        .expect("xtask sits one level below the workspace root")
        .to_path_buf()
}

fn run_check(root: &Path, clippy: bool, miri: bool) -> bool {
    let mut ok = true;
    ok &= report("SAFETY lint", safety_lint(root));
    ok &= report("forbid-list", forbid_list(root));
    ok &= report("memory-ordering lint", orderings::check(root));
    ok &= report("lint-config audit", lint_config_audit(root));
    if clippy {
        ok &= run_step(
            root,
            "clippy",
            &["clippy", "--workspace", "--all-targets", "--", "-D", "warnings"],
        );
    }
    if miri {
        ok &= run_miri(root);
    }
    if ok {
        println!("xtask check: all gates passed");
    } else {
        eprintln!("xtask check: FAILED (see above)");
    }
    ok
}

fn report(name: &str, violations: Vec<String>) -> bool {
    if violations.is_empty() {
        println!("{name}: ok");
        true
    } else {
        for v in &violations {
            eprintln!("{v}");
        }
        eprintln!("{name}: {} violation(s)", violations.len());
        false
    }
}

fn run_step(root: &Path, name: &str, cargo_args: &[&str]) -> bool {
    println!("{name}: running `cargo {}`", cargo_args.join(" "));
    let status = Command::new(env!("CARGO"))
        .args(cargo_args)
        .current_dir(root)
        .status();
    match status {
        Ok(s) if s.success() => {
            println!("{name}: ok");
            true
        }
        Ok(s) => {
            eprintln!("{name}: FAILED ({s})");
            false
        }
        Err(e) => {
            eprintln!("{name}: could not run cargo: {e}");
            false
        }
    }
}

/// Miri runs the single-threaded `miri_` smoke tests in crates/cuckoo.
/// Gated: the container toolchain has no nightly/Miri, so absence is a
/// skip (with a notice), not a failure — CI installs the component.
fn run_miri(root: &Path) -> bool {
    let probe = Command::new(env!("CARGO"))
        .args(["miri", "--version"])
        .current_dir(root)
        .output();
    let available = matches!(&probe, Ok(o) if o.status.success());
    if !available {
        println!(
            "miri: not installed — skipped (rustup +nightly component add miri; CI runs this)"
        );
        return true;
    }
    run_step(
        root,
        "miri",
        &["miri", "test", "-p", "cuckoo", "--lib", "miri_"],
    )
}

// ---------------------------------------------------------------------
// SAFETY-comment lint
// ---------------------------------------------------------------------

fn safety_lint(root: &Path) -> Vec<String> {
    let mut violations = Vec::new();
    for dir in safety_roots(root) {
        for file in rust_files(&dir) {
            let src = match std::fs::read_to_string(&file) {
                Ok(s) => s,
                Err(e) => {
                    violations.push(format!("{}: unreadable: {e}", file.display()));
                    continue;
                }
            };
            let rel = file.strip_prefix(root).unwrap_or(&file).display().to_string();
            violations.extend(lint_source(&rel, &src));
        }
    }
    violations
}

fn forbid_list(root: &Path) -> Vec<String> {
    let mut violations = Vec::new();
    for dir in FORBID_ROOTS {
        for file in rust_files(&root.join(dir)) {
            let src = match std::fs::read_to_string(&file) {
                Ok(s) => s,
                Err(_) => continue,
            };
            let rel = file.strip_prefix(root).unwrap_or(&file).display().to_string();
            violations.extend(forbid_in_source(&rel, &src));
        }
    }
    for dir in UNWRAP_FORBID_ROOTS {
        for file in rust_files(&root.join(dir)) {
            let src = match std::fs::read_to_string(&file) {
                Ok(s) => s,
                Err(_) => continue,
            };
            let rel = file.strip_prefix(root).unwrap_or(&file).display().to_string();
            violations.extend(unwrap_forbid_in_source(&rel, &src));
        }
    }
    violations
}

fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// How far above an `unsafe` keyword a `// SAFETY:` comment may sit.
const SAFETY_WINDOW: usize = 6;

#[derive(Debug, PartialEq, Clone, Copy)]
enum UnsafeKind {
    Block,
    Fn,
    Impl,
    Trait,
    ExternBlock,
}

/// Finds every `unsafe` keyword in the lexed code and classifies it by
/// the next meaningful token.
fn unsafe_sites(lines: &[LexedLine]) -> Vec<(usize, UnsafeKind)> {
    let mut sites = Vec::new();
    for (ln, line) in lines.iter().enumerate() {
        let code: Vec<char> = line.code.chars().collect();
        let mut col = 0;
        while let Some(pos) = find_word(&code, col, "unsafe") {
            let kind = classify(lines, ln, pos + "unsafe".len());
            sites.push((ln, kind));
            col = pos + "unsafe".len();
        }
    }
    sites
}

/// Reads the token after an `unsafe` keyword (possibly on a later line).
fn classify(lines: &[LexedLine], ln: usize, col: usize) -> UnsafeKind {
    let mut line = ln;
    let mut chars: Vec<char> = lines[line].code.chars().collect();
    let mut i = col;
    loop {
        while i < chars.len() && chars[i].is_whitespace() {
            i += 1;
        }
        if i >= chars.len() {
            line += 1;
            if line >= lines.len() {
                return UnsafeKind::Block;
            }
            chars = lines[line].code.chars().collect();
            i = 0;
            continue;
        }
        if is_ident(chars[i]) {
            let start = i;
            while i < chars.len() && is_ident(chars[i]) {
                i += 1;
            }
            let word: String = chars[start..i].iter().collect();
            return match word.as_str() {
                "fn" => UnsafeKind::Fn,
                "impl" => UnsafeKind::Impl,
                "trait" => UnsafeKind::Trait,
                "extern" => UnsafeKind::ExternBlock,
                // e.g. `unsafe async fn` does not exist, but be tolerant.
                _ => UnsafeKind::Block,
            };
        }
        return UnsafeKind::Block;
    }
}

/// Whether a `// SAFETY:` comment covers line `ln` (same line or within
/// the window above).
fn has_safety_comment(lines: &[LexedLine], ln: usize) -> bool {
    let lo = ln.saturating_sub(SAFETY_WINDOW);
    lines[lo..=ln].iter().any(|l| l.comment.contains("SAFETY:"))
}

/// Whether the doc block immediately above line `ln` has a `# Safety`
/// section. Walks up over doc comments, attributes, and blank lines.
fn has_safety_doc(lines: &[LexedLine], ln: usize) -> bool {
    let mut i = ln;
    while i > 0 {
        i -= 1;
        let l = &lines[i];
        let code = l.code.trim();
        let comment = l.comment.trim_start();
        if comment.starts_with("///") || comment.starts_with("//!") {
            if comment.contains("# Safety") {
                return true;
            }
            continue;
        }
        // Attributes and blank lines between the docs and the item.
        if code.is_empty() || code.starts_with("#[") || code.starts_with("#!") || code == "]" {
            continue;
        }
        // Signature continuation lines (e.g. `pub(crate) unsafe` split):
        // anything else ends the doc block.
        return false;
    }
    false
}

fn lint_source(path: &str, src: &str) -> Vec<String> {
    let lines = lex_lines(src);
    let mut violations = Vec::new();
    for (ln, kind) in unsafe_sites(&lines) {
        // Functions and traits conventionally carry their contract as a
        // `# Safety` doc section; blocks/impls justify in-line.
        let covered = match kind {
            UnsafeKind::Fn | UnsafeKind::Trait => {
                has_safety_comment(&lines, ln) || has_safety_doc(&lines, ln)
            }
            _ => has_safety_comment(&lines, ln),
        };
        if !covered {
            let what = match kind {
                UnsafeKind::Block => "unsafe block",
                UnsafeKind::Fn => "unsafe fn",
                UnsafeKind::Impl => "unsafe impl",
                UnsafeKind::Trait => "unsafe trait",
                UnsafeKind::ExternBlock => "unsafe extern block",
            };
            let fix = match kind {
                UnsafeKind::Fn | UnsafeKind::Trait => {
                    "add a `# Safety` doc section or a `// SAFETY:` comment"
                }
                _ => "add a `// SAFETY:` comment within the 6 lines above",
            };
            violations.push(format!(
                "{path}:{}: {what} without a safety justification ({fix})",
                ln + 1
            ));
        }
    }
    violations
}

/// Constructs mentioning these tokens are forbidden outright: transmute
/// defeats every type-level invariant the SAFETY comments argue from,
/// and `static mut` is unsynchronized-by-construction (use atomics or
/// `OnceLock`).
fn forbid_in_source(path: &str, src: &str) -> Vec<String> {
    let lines = lex_lines(src);
    let mut violations = Vec::new();
    for (ln, line) in lines.iter().enumerate() {
        let code: Vec<char> = line.code.chars().collect();
        if find_word(&code, 0, "transmute").is_some() {
            violations.push(format!(
                "{path}:{}: `transmute` is forbidden (use typed conversions or raw-pointer casts with a SAFETY argument)",
                ln + 1
            ));
        }
        if let Some(pos) = find_word(&code, 0, "static") {
            let rest: String = code[pos + "static".len()..].iter().collect();
            if rest.trim_start().starts_with("mut ") {
                violations.push(format!(
                    "{path}:{}: `static mut` is forbidden (use atomics or OnceLock)",
                    ln + 1
                ));
            }
        }
    }
    violations
}

/// Opt-in `.unwrap(` forbid for [`UNWRAP_FORBID_ROOTS`] lib code. Test
/// mods are blanked first: a test asserting its own fixture may unwrap.
fn unwrap_forbid_in_source(path: &str, src: &str) -> Vec<String> {
    let mut lines = lex_lines(src);
    blank_test_mods(&mut lines);
    let mut violations = Vec::new();
    for (ln, line) in lines.iter().enumerate() {
        let mut from = 0;
        while let Some(pos) = line.code[from..].find(".unwrap(") {
            violations.push(format!(
                "{path}:{}: `.unwrap()` in lib code (state the invariant with \
                 `.expect(\"…\")` or propagate the error)",
                ln + 1
            ));
            from += pos + ".unwrap(".len();
        }
    }
    violations
}

// ---------------------------------------------------------------------
// Lint-config audit
// ---------------------------------------------------------------------

/// The product crates — the served table, the cache, the server,
/// durability and metrics — and the reproduction apparatus they must not
/// depend on: the transactional-memory simulator and the baselines /
/// MemC3 ladder built on it. Dev-dependencies are not checked.
const PRODUCT_CRATES: &[&str] = &["cuckoo", "cache", "server", "persist", "metrics"];
const LADDER_CRATES: &[&str] = &["htm", "baselines"];

/// Every workspace member must opt into the shared lint table, and the
/// workspace table must keep `unsafe_op_in_unsafe_fn = "deny"` — this is
/// what makes every implicit unsafe operation inside an `unsafe fn`
/// surface as its own block (and thus its own SAFETY comment). The
/// product crates must not list a ladder crate under `[dependencies]`.
fn lint_config_audit(root: &Path) -> Vec<String> {
    let mut violations = Vec::new();
    let ws = root.join("Cargo.toml");
    match std::fs::read_to_string(&ws) {
        Ok(text) => {
            if !toml_section_has(&text, "workspace.lints.rust", "unsafe_op_in_unsafe_fn") {
                violations.push(
                    "Cargo.toml: [workspace.lints.rust] must set unsafe_op_in_unsafe_fn = \"deny\""
                        .to_string(),
                );
            }
        }
        Err(e) => violations.push(format!("Cargo.toml: unreadable: {e}")),
    }
    for manifest in member_manifests(root) {
        let rel = manifest
            .strip_prefix(root)
            .unwrap_or(&manifest)
            .display()
            .to_string();
        match std::fs::read_to_string(&manifest) {
            Ok(text) => {
                if !toml_section_has(&text, "lints", "workspace") {
                    violations.push(format!(
                        "{rel}: missing `[lints]\\nworkspace = true` (workspace lint opt-in)"
                    ));
                }
                let product = manifest.parent().is_some_and(|dir| {
                    dir.parent() == Some(root.join("crates").as_path())
                        && dir.file_name().is_some_and(|n| PRODUCT_CRATES.iter().any(|p| n == *p))
                });
                for dep in LADDER_CRATES {
                    if product && toml_section_has(&text, "dependencies", dep) {
                        violations.push(format!(
                            "{rel}: product crate depends on `{dep}` (the reproduction \
                             apparatus stays out of the product crates)"
                        ));
                    }
                }
            }
            Err(e) => violations.push(format!("{rel}: unreadable: {e}")),
        }
    }
    violations
}

fn member_manifests(root: &Path) -> Vec<PathBuf> {
    // The workspace root doubles as a package (examples/bins), so its
    // manifest needs the `[lints]` opt-in too — it used to escape this
    // walk along with any crate added under a new parent directory.
    let mut out = vec![root.join("Cargo.toml")];
    for parent in ["crates", "shims"] {
        let Ok(entries) = std::fs::read_dir(root.join(parent)) else {
            continue;
        };
        for entry in entries.flatten() {
            let m = entry.path().join("Cargo.toml");
            if m.is_file() {
                out.push(m);
            }
        }
    }
    let xtask = root.join("xtask/Cargo.toml");
    if xtask.is_file() {
        out.push(xtask);
    }
    out.sort();
    out
}

/// Minimal TOML poke: does `[section]` set `key` (as `key = …` or a
/// dotted `key.sub = …`)? Good enough for manifests we control; avoids a
/// TOML dep.
fn toml_section_has(text: &str, section: &str, key: &str) -> bool {
    let header = format!("[{section}]");
    let mut in_section = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_section = line == header;
            continue;
        }
        if in_section
            && line
                .strip_prefix(key)
                .is_some_and(|rest| rest.trim_start().starts_with(['=', '.']))
        {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------
// Selftest: the gate must actually gate
// ---------------------------------------------------------------------

struct Fixture {
    name: &'static str,
    src: &'static str,
    /// Expected number of SAFETY-lint violations.
    lint: usize,
    /// Expected number of forbid-list violations.
    forbid: usize,
}

const FIXTURES: &[Fixture] = &[
    Fixture {
        name: "bad: bare unsafe block",
        src: "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
        lint: 1,
        forbid: 0,
    },
    Fixture {
        name: "good: commented unsafe block",
        src: "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n",
        lint: 0,
        forbid: 0,
    },
    Fixture {
        name: "bad: SAFETY inside a string does not count",
        src: "fn f(p: *const u8) -> u8 {\n    let _tag = \"// SAFETY: not a comment\";\n    unsafe { *p }\n}\n",
        lint: 1,
        forbid: 0,
    },
    Fixture {
        name: "good: unsafe in a comment is not a site",
        src: "// this fn is not unsafe at all\nfn f() {}\n",
        lint: 0,
        forbid: 0,
    },
    Fixture {
        name: "good: unsafe fn with # Safety doc",
        src: "/// Does a thing.\n///\n/// # Safety\n///\n/// Caller must uphold X.\npub unsafe fn f() {}\n",
        lint: 0,
        forbid: 0,
    },
    Fixture {
        name: "bad: undocumented unsafe fn",
        src: "pub unsafe fn f() {}\n",
        lint: 1,
        forbid: 0,
    },
    Fixture {
        name: "bad: comment too far above the block",
        src: "fn f(p: *const u8) -> u8 {\n    // SAFETY: stale, eight lines up.\n\n\n\n\n\n\n\n    unsafe { *p }\n}\n",
        lint: 1,
        forbid: 0,
    },
    Fixture {
        name: "bad: transmute is forbidden",
        src: "fn f(x: u64) -> f64 {\n    // SAFETY: same size.\n    unsafe { std::mem::transmute(x) }\n}\n",
        lint: 0,
        forbid: 1,
    },
    Fixture {
        name: "bad: static mut is forbidden",
        src: "static mut COUNTER: u64 = 0;\n",
        lint: 0,
        forbid: 1,
    },
    Fixture {
        name: "good: unsafe impl with SAFETY comment",
        src: "struct W(*mut u8);\n// SAFETY: W's pointer is uniquely owned.\nunsafe impl Send for W {}\n",
        lint: 0,
        forbid: 0,
    },
];

fn run_selftest() -> bool {
    let mut ok = true;
    for f in FIXTURES {
        let lint = lint_source("fixture.rs", f.src).len();
        let forbid = forbid_in_source("fixture.rs", f.src).len();
        if lint != f.lint || forbid != f.forbid {
            eprintln!(
                "selftest FAILED [{}]: lint {lint} (want {}), forbid {forbid} (want {})",
                f.name, f.lint, f.forbid
            );
            ok = false;
        } else {
            println!("selftest ok   [{}]", f.name);
        }
    }
    ok &= selftest_unwrap_forbid();
    ok &= selftest_unlisted_member();
    ok &= selftest_layering();
    ok &= selftest_orderings();
    if ok {
        println!("selftest: the gate gates");
    }
    ok
}

fn selftest_unwrap_forbid() -> bool {
    let bad = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    let good = "pub fn f(x: Option<u8>) -> u8 { x.expect(\"caller checked\") }\n\
                #[cfg(test)]\nmod tests {\n    fn t(x: Option<u8>) { x.unwrap(); }\n}\n";
    let mut ok = true;
    if unwrap_forbid_in_source("fixture.rs", bad).len() != 1 {
        eprintln!("selftest FAILED [unwrap forbid]: lib unwrap not flagged");
        ok = false;
    }
    if !unwrap_forbid_in_source("fixture.rs", good).is_empty() {
        eprintln!("selftest FAILED [unwrap forbid]: expect/test unwrap flagged");
        ok = false;
    }
    if ok {
        println!("selftest ok   [unwrap forbid: lib flagged, tests exempt]");
    }
    ok
}

/// The lint-config audit must actually fail on a member missing the
/// `[lints] workspace = true` opt-in — proved against a throwaway
/// workspace on disk, since the audit's blind spot was precisely
/// members its walk never visited.
fn selftest_unlisted_member() -> bool {
    let dir = std::env::temp_dir().join(format!("xtask-audit-selftest-{}", std::process::id()));
    let member = dir.join("crates/rogue");
    let cleanup = |dir: &Path| {
        let _ = std::fs::remove_dir_all(dir);
    };
    if std::fs::create_dir_all(&member).is_err() {
        eprintln!("selftest FAILED [unlisted member]: cannot create temp workspace");
        return false;
    }
    let ws = "[workspace]\nmembers = [\"crates/*\"]\n\n[workspace.lints.rust]\nunsafe_op_in_unsafe_fn = \"deny\"\n";
    let rogue = "[package]\nname = \"rogue\"\nversion = \"0.1.0\"\n";
    if std::fs::write(dir.join("Cargo.toml"), ws).is_err()
        || std::fs::write(member.join("Cargo.toml"), rogue).is_err()
    {
        cleanup(&dir);
        eprintln!("selftest FAILED [unlisted member]: cannot write temp manifests");
        return false;
    }
    let violations = lint_config_audit(&dir);
    let flagged = violations.iter().any(|v| v.contains("rogue"));
    let mut ok = flagged;
    if !flagged {
        eprintln!(
            "selftest FAILED [unlisted member]: rogue crate without [lints] not flagged: {violations:?}"
        );
    }
    let fixed = format!("{rogue}\n[lints]\nworkspace = true\n");
    if std::fs::write(member.join("Cargo.toml"), fixed).is_ok() {
        let violations = lint_config_audit(&dir);
        if violations.iter().any(|v| v.contains("rogue")) {
            eprintln!("selftest FAILED [unlisted member]: opted-in crate still flagged");
            ok = false;
        }
    }
    cleanup(&dir);
    if ok {
        println!("selftest ok   [lint-config audit flags a member missing [lints]]");
    }
    ok
}

/// The layering rule must fail a product crate that lists a ladder crate
/// under `[dependencies]`, and pass the same edge as a dev-dependency.
fn selftest_layering() -> bool {
    let dir = std::env::temp_dir().join(format!("xtask-layering-selftest-{}", std::process::id()));
    let member = dir.join("crates/cuckoo");
    let ws = "[workspace]\nmembers = [\"crates/*\"]\n\n[workspace.lints.rust]\nunsafe_op_in_unsafe_fn = \"deny\"\n";
    let manifest = |section: &str| {
        format!("[package]\nname = \"cuckoo\"\n\n[{section}]\nhtm.workspace = true\n\n[lints]\nworkspace = true\n")
    };
    let flagged = |section: &str| {
        std::fs::write(member.join("Cargo.toml"), manifest(section))
            .map(|()| lint_config_audit(&dir).iter().any(|v| v.contains("`htm`")))
    };
    let result = std::fs::create_dir_all(&member)
        .and_then(|()| std::fs::write(dir.join("Cargo.toml"), ws))
        .and_then(|()| Ok((flagged("dependencies")?, flagged("dev-dependencies")?)));
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok((true, false)) => {
            println!("selftest ok   [lint-config audit flags a product crate depending on htm]");
            true
        }
        Ok((dep, dev)) => {
            eprintln!("selftest FAILED [layering]: [dependencies] flagged {dep} (want true), [dev-dependencies] flagged {dev} (want false)");
            false
        }
        Err(e) => {
            eprintln!("selftest FAILED [layering]: cannot write temp workspace: {e}");
            false
        }
    }
}

/// Smoke fixtures for the ordering lint (full coverage lives in
/// `orderings::tests`): a weakened tagged site and an untagged site
/// must be flagged; the tagged original must pass.
fn selftest_orderings() -> bool {
    let rules = match orderings::parse_manifest(
        "[[rule]]\nid = \"pub.rel\"\nsummary = \"publication store\"\nexact = [\"Release\"]\n",
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("selftest FAILED [orderings]: fixture manifest: {e}");
            return false;
        }
    };
    let good = "fn f(a: &AtomicU64) {\n    // ORDERING: pub.rel\n    a.store(1, Ordering::Release);\n}\n";
    let weak = "fn f(a: &AtomicU64) {\n    // ORDERING: pub.rel\n    a.store(1, Ordering::Relaxed);\n}\n";
    let untagged = "fn f(a: &AtomicU64) { a.store(1, Ordering::Release); }\n";
    let mut ok = true;
    if !orderings::lint_sources(&rules, &[("x.rs", good)]).violations.is_empty() {
        eprintln!("selftest FAILED [orderings]: tagged exact site flagged");
        ok = false;
    }
    for (name, src) in [("weakened", weak), ("untagged", untagged)] {
        let v = orderings::lint_sources(&rules, &[("x.rs", src)]).violations;
        if !v.iter().any(|v| v.contains("x.rs")) {
            eprintln!("selftest FAILED [orderings]: {name} site not flagged");
            ok = false;
        }
    }
    if ok {
        println!("selftest ok   [ordering lint: tagged passes, weakened/untagged flagged]");
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_behave() {
        assert!(run_selftest());
    }

    #[test]
    fn lexer_handles_raw_strings_and_lifetimes() {
        let src = "fn f<'a>(s: &'a str) -> char {\n    let _r = r#\"unsafe { nope } // SAFETY: nope\"#;\n    let c: char = 'x';\n    c\n}\n";
        let lines = lex_lines(src);
        assert!(unsafe_sites(&lines).is_empty(), "no real unsafe here");
        assert!(!lines.iter().any(|l| l.comment.contains("SAFETY:")));
    }

    #[test]
    fn lexer_handles_nested_block_comments() {
        let src = "/* outer /* unsafe { } */ still comment */\nfn f() {}\n";
        let lines = lex_lines(src);
        assert!(unsafe_sites(&lines).is_empty());
    }

    #[test]
    fn classify_spots_fn_impl_trait() {
        let src = "unsafe fn a() {}\nunsafe impl Send for X {}\nunsafe trait T {}\nunsafe extern \"C\" {}\n";
        let lines = lex_lines(src);
        let kinds: Vec<UnsafeKind> = unsafe_sites(&lines).into_iter().map(|(_, k)| k).collect();
        assert_eq!(
            kinds,
            vec![
                UnsafeKind::Fn,
                UnsafeKind::Impl,
                UnsafeKind::Trait,
                UnsafeKind::ExternBlock
            ]
        );
    }

    #[test]
    fn window_is_six_lines() {
        let mut src = String::from("// SAFETY: at the edge.\n");
        src.push_str(&"\n".repeat(SAFETY_WINDOW - 1));
        src.push_str("fn f(p: *const u8) -> u8 { unsafe { *p } }\n");
        assert!(lint_source("x.rs", &src).is_empty(), "exactly in window");

        let mut src = String::from("// SAFETY: one too far.\n");
        src.push_str(&"\n".repeat(SAFETY_WINDOW));
        src.push_str("fn f(p: *const u8) -> u8 { unsafe { *p } }\n");
        assert_eq!(lint_source("x.rs", &src).len(), 1, "just out of window");
    }
}
