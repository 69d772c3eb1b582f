//! Memory-ordering lint: every atomic-op site in product code must
//! carry a machine-checkable justification.
//!
//! The paper's performance rests on deliberately weak orderings (seqlock
//! stamps, tag probes outside locks, hole-backwards displacement), and
//! the argument for each lives in DESIGN.md §5d. This lint closes the
//! loop between that prose table and the code:
//!
//! * `xtask/orderings.toml` is the machine-readable manifest: one rule
//!   per §5d row (plus rules for the other crates' protocols), each with
//!   the *exact* ordering sequence its sites must use.
//! * Every non-`SeqCst` atomic site must carry an `// ORDERING: <rule>`
//!   tag (same line or within [`ORDERING_WINDOW`] lines above) resolving
//!   to a rule whose `exact`/`allows` set admits the site's orderings.
//!   Silently weakening `Release` → `Relaxed` at a tagged site therefore
//!   fails this lint — statically, before any test runs. The mutation
//!   engine (`xtask mutate`) proves that property by applying exactly
//!   those weakenings and requiring this check to kill them.
//! * `SeqCst` needs no tag off the hot path (it is never *too weak*),
//!   but on the hot-path files ([`HOT_FILES`]) it must be tagged with a
//!   rule marked `seqcst = true` — a cycle-level cost needs the same
//!   quality of argument as a weakening.
//! * A `Relaxed` store/swap to anything that smells like a pointer or
//!   length publication ([`PUBLISH_WORDS`], `into_raw`) is flagged
//!   unless its rule opts in with `relaxed_publish = true`.
//! * Files that are wholly statistics counters may use a file-level
//!   `// ORDERING-FILE: <rule>` directive; it covers only all-`Relaxed`
//!   sites and only through rules marked `blanket = true`.
//! * The committed inventory (`xtask/orderings-inventory.tsv`) pins the
//!   per-(file, rule, sequence) site counts, so *removing* an atomic or
//!   a fence is also a static failure until the inventory is
//!   regenerated (`xtask orderings --write-inventory`) and reviewed.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::lexer::{blank_test_mods, find_word, lex_lines, LexedLine};

/// How far above a site an `// ORDERING:` tag may sit.
pub const ORDERING_WINDOW: usize = 6;

/// Files on the per-operation hot path: `SeqCst` here needs an explicit
/// `seqcst = true` rule (cold-path files like `map.rs` use untagged
/// `SeqCst` freely — see the §5d migration row for why that is cheap).
const HOT_FILES: &[&str] = &[
    "crates/cuckoo/src/sync.rs",
    "crates/cuckoo/src/read.rs",
    "crates/cuckoo/src/bucket.rs",
    "crates/cuckoo/src/search/exec.rs",
    "crates/cuckoo/src/core.rs",
    "crates/cuckoo/src/optimistic.rs",
];

/// Receiver identifiers that suggest a pointer/length publication.
const PUBLISH_WORDS: &[&str] = &[
    "ptr", "storage", "migration", "head", "tail", "next", "top", "len",
];

const ORDERING_NAMES: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// One manifest rule.
#[derive(Debug, Default, Clone)]
pub struct Rule {
    pub id: String,
    pub summary: String,
    pub pairs: String,
    /// Exact ordering sequence a covered site must use (strongest form:
    /// any change at the site, weakening or strengthening, is caught).
    pub exact: Option<Vec<String>>,
    /// Orderings a covered site may use (set containment) when `exact`
    /// is not given.
    pub allows: Vec<String>,
    /// May be used as a file-level directive for all-Relaxed sites.
    pub blanket: bool,
    /// Justifies `SeqCst` on hot-path files.
    pub seqcst: bool,
    /// Justifies a publication-shaped `Relaxed` store.
    pub relaxed_publish: bool,
}

/// Parses the manifest (a deliberately small TOML subset: `[[rule]]`
/// tables with string / bool / string-array values — no external dep).
pub fn parse_manifest(text: &str) -> Result<Vec<Rule>, String> {
    let mut rules: Vec<Rule> = Vec::new();
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[rule]]" {
            rules.push(Rule::default());
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("orderings.toml:{}: expected `key = value`", ln + 1));
        };
        let rule = rules
            .last_mut()
            .ok_or_else(|| format!("orderings.toml:{}: key before first [[rule]]", ln + 1))?;
        let (key, value) = (key.trim(), value.trim());
        let parse_str = |v: &str| -> Result<String, String> {
            v.strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .map(str::to_string)
                .ok_or_else(|| format!("orderings.toml:{}: expected a quoted string", ln + 1))
        };
        let parse_list = |v: &str| -> Result<Vec<String>, String> {
            let inner = v
                .strip_prefix('[')
                .and_then(|v| v.strip_suffix(']'))
                .ok_or_else(|| format!("orderings.toml:{}: expected a [list]", ln + 1))?;
            inner
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(parse_str)
                .collect()
        };
        match key {
            "id" => rule.id = parse_str(value)?,
            "summary" => rule.summary = parse_str(value)?,
            "pairs" => rule.pairs = parse_str(value)?,
            "exact" => rule.exact = Some(parse_list(value)?),
            "allows" => rule.allows = parse_list(value)?,
            "blanket" => rule.blanket = value == "true",
            "seqcst" => rule.seqcst = value == "true",
            "relaxed_publish" => rule.relaxed_publish = value == "true",
            other => {
                return Err(format!("orderings.toml:{}: unknown key `{other}`", ln + 1));
            }
        }
    }
    let mut seen = BTreeSet::new();
    for r in &rules {
        if r.id.is_empty() {
            return Err("orderings.toml: rule with empty id".into());
        }
        if r.summary.is_empty() {
            return Err(format!("orderings.toml: rule `{}` needs a summary", r.id));
        }
        if !seen.insert(r.id.clone()) {
            return Err(format!("orderings.toml: duplicate rule id `{}`", r.id));
        }
        for o in r.exact.iter().flatten().chain(r.allows.iter()) {
            if !ORDERING_NAMES.contains(&o.as_str()) {
                return Err(format!("orderings.toml: rule `{}`: bad ordering `{o}`", r.id));
            }
        }
        if r.exact.is_none() && r.allows.is_empty() {
            return Err(format!(
                "orderings.toml: rule `{}` needs `exact` or `allows`",
                r.id
            ));
        }
        if r.blanket {
            let all_relaxed = r
                .exact
                .as_deref()
                .unwrap_or(&r.allows)
                .iter()
                .all(|o| o == "Relaxed");
            if !all_relaxed {
                return Err(format!(
                    "orderings.toml: blanket rule `{}` may only admit Relaxed",
                    r.id
                ));
            }
        }
    }
    Ok(rules)
}

/// One atomic-op site: a maximal run of consecutive ordering-bearing
/// lines belonging to one call (continuation lines end with `,` or `(`).
#[derive(Debug)]
struct Site {
    /// 1-based first line.
    first: usize,
    /// 1-based last line.
    last: usize,
    /// `Ordering::X` tokens in source order.
    seq: Vec<String>,
    /// Whether the site looks like a Relaxed pointer/len publication.
    publishy: bool,
}

fn orderings_on_line(code: &str) -> Vec<String> {
    let chars: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = find_word(&chars, from, "Ordering") {
        from = pos + "Ordering".len();
        if chars.get(from) == Some(&':') && chars.get(from + 1) == Some(&':') {
            let start = from + 2;
            let mut end = start;
            while end < chars.len() && crate::lexer::is_ident(chars[end]) {
                end += 1;
            }
            let name: String = chars[start..end].iter().collect();
            if ORDERING_NAMES.contains(&name.as_str()) {
                out.push(name);
            }
            from = end;
        }
    }
    out
}

fn is_publishy(code: &str) -> bool {
    if !code.contains("Ordering::Relaxed") {
        return false;
    }
    let call = [".store(", ".swap("].iter().filter_map(|p| code.find(p)).min();
    let Some(pos) = call else {
        return false;
    };
    let recv = &code[..pos];
    if code.contains("into_raw") {
        return true;
    }
    let chars: Vec<char> = recv.chars().collect();
    PUBLISH_WORDS
        .iter()
        .any(|w| find_word(&chars, 0, w).is_some())
}

fn extract_sites(lines: &[LexedLine]) -> Vec<Site> {
    let mut sites = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let seq = orderings_on_line(&lines[i].code);
        if seq.is_empty() {
            i += 1;
            continue;
        }
        let first = i;
        let mut all = seq;
        let mut text = lines[i].code.clone();
        let mut last = i;
        // Continuation: the next line carries orderings of the same
        // (multi-line) call when this line is syntactically unfinished.
        while last + 1 < lines.len() {
            let trimmed = lines[last].code.trim_end();
            if !(trimmed.ends_with(',') || trimmed.ends_with('(')) {
                break;
            }
            let next = orderings_on_line(&lines[last + 1].code);
            if next.is_empty() {
                break;
            }
            all.extend(next);
            text.push(' ');
            text.push_str(&lines[last + 1].code);
            last += 1;
        }
        sites.push(Site {
            first: first + 1,
            last: last + 1,
            seq: all,
            publishy: is_publishy(&text),
        });
        i = last + 1;
    }
    sites
}

/// Tag ids on a comment line (`// ORDERING: a, b — prose`), if any.
fn tag_ids(comment: &str) -> Option<Vec<String>> {
    let pos = comment.find("ORDERING:")?;
    if comment.contains("ORDERING-FILE:") {
        return None;
    }
    let rest = &comment[pos + "ORDERING:".len()..];
    // Prose may follow after an em-dash, double-dash, or parenthesis.
    let rest = rest
        .split(['—', '('])
        .next()
        .unwrap_or("")
        .split("--")
        .next()
        .unwrap_or("");
    let ids: Vec<String> = rest
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if ids.is_empty() {
        None
    } else {
        Some(ids)
    }
}

fn file_directive(lines: &[LexedLine]) -> Option<String> {
    for l in lines {
        if let Some(pos) = l.comment.find("ORDERING-FILE:") {
            let rest = l.comment[pos + "ORDERING-FILE:".len()..].trim();
            let id: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '_'))
                .collect();
            if !id.is_empty() {
                return Some(id);
            }
        }
    }
    None
}

/// Inventory entry: (file, rule, ordering sequence) → site count.
pub type Inventory = BTreeMap<(String, String, String), usize>;

pub struct Outcome {
    pub violations: Vec<String>,
    pub inventory: Inventory,
}

/// Why a rule failed to admit a site (for error messages).
fn rule_mismatch(rule: &Rule, site: &Site, hot: bool) -> Option<String> {
    if let Some(exact) = &rule.exact {
        if &site.seq != exact {
            return Some(format!(
                "orderings [{}] (exact [{}])",
                site.seq.join(", "),
                exact.join(", ")
            ));
        }
    } else {
        for o in &site.seq {
            if !rule.allows.contains(o) {
                return Some(format!(
                    "ordering {o} not in allows [{}]",
                    rule.allows.join(", ")
                ));
            }
        }
    }
    if hot && site.seq.iter().any(|o| o == "SeqCst") && !rule.seqcst {
        return Some("SeqCst on a hot-path file needs a rule with seqcst = true".into());
    }
    if site.publishy && !rule.relaxed_publish {
        return Some(
            "Relaxed store/swap to a pointer/len-like target needs relaxed_publish = true".into(),
        );
    }
    None
}

/// Lints one already-lexed file against the manifest. Returns the
/// violations and fills `inventory`; `used_rules` records manifest
/// coverage.
fn lint_file(
    path: &str,
    lines: &[LexedLine],
    rules: &BTreeMap<String, Rule>,
    inventory: &mut Inventory,
    used_rules: &mut BTreeSet<String>,
) -> Vec<String> {
    let mut violations = Vec::new();
    let hot = HOT_FILES.contains(&path);
    let sites = extract_sites(lines);
    let directive = file_directive(lines);
    if let Some(id) = &directive {
        match rules.get(id) {
            Some(r) if !r.blanket => violations.push(format!(
                "{path}: ORDERING-FILE rule `{id}` is not marked blanket = true"
            )),
            Some(_) => {}
            None => violations.push(format!("{path}: unknown ORDERING-FILE rule `{id}`")),
        }
    }
    // Tag lines (0-based) → ids.
    let mut tags: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for (ln, l) in lines.iter().enumerate() {
        if let Some(ids) = tag_ids(&l.comment) {
            tags.insert(ln, ids);
        }
    }
    let mut used_tags: BTreeSet<usize> = BTreeSet::new();

    for site in &sites {
        // Nearest covering tag: same lines as the site, else up to
        // ORDERING_WINDOW lines above its first line.
        let lo = site.first.saturating_sub(1 + ORDERING_WINDOW);
        let covering = (lo..site.last)
            .rev()
            .find(|ln| tags.contains_key(ln));
        let all_seqcst = site.seq.iter().all(|o| o == "SeqCst");
        let all_relaxed = site.seq.iter().all(|o| o == "Relaxed");
        let loc = format!("{path}:{}", site.first);

        if let Some(tag_ln) = covering {
            used_tags.insert(tag_ln);
            let ids = &tags[&tag_ln];
            let mut errs = Vec::new();
            let mut matched = None;
            for id in ids {
                match rules.get(id) {
                    None => errs.push(format!("unknown rule `{id}`")),
                    Some(rule) => match rule_mismatch(rule, site, hot) {
                        None => {
                            matched = Some(id.clone());
                            break;
                        }
                        Some(why) => errs.push(format!("`{id}`: {why}")),
                    },
                }
            }
            for id in ids {
                used_rules.insert(id.clone());
            }
            match matched {
                Some(id) => {
                    *inventory
                        .entry((path.to_string(), id, site.seq.join("+")))
                        .or_default() += 1;
                }
                None => violations.push(format!(
                    "{loc}: site [{}] does not satisfy its ORDERING tag ({})",
                    site.seq.join(", "),
                    errs.join("; ")
                )),
            }
        } else if all_seqcst && !hot {
            // SeqCst is never too weak; off the hot path it needs no tag.
            *inventory
                .entry((path.to_string(), "-".into(), site.seq.join("+")))
                .or_default() += 1;
        } else if all_relaxed && directive.is_some() && !site.publishy {
            let id = directive.clone().expect("checked above");
            used_rules.insert(id.clone());
            *inventory
                .entry((path.to_string(), id, site.seq.join("+")))
                .or_default() += 1;
        } else {
            let why = if all_seqcst {
                "SeqCst on a hot-path file: tag it with a rule marked seqcst = true \
                 or move the work off the hot path"
            } else if site.publishy {
                "Relaxed publication of a pointer/len-like target: tag it with a rule \
                 marked relaxed_publish = true (or strengthen the ordering)"
            } else {
                "non-SeqCst atomic without an `// ORDERING: <rule>` tag (see xtask/orderings.toml)"
            };
            violations.push(format!("{loc}: [{}] {why}", site.seq.join(", ")));
        }
    }

    for (ln, ids) in &tags {
        if !used_tags.contains(ln) {
            violations.push(format!(
                "{path}:{}: dangling ORDERING tag `{}` (no atomic site on the tagged \
                 line or within {ORDERING_WINDOW} lines below)",
                ln + 1,
                ids.join(", ")
            ));
        }
    }
    violations
}

/// Lints a set of in-memory sources (the selftest entry point).
pub fn lint_sources(rules: &[Rule], files: &[(&str, &str)]) -> Outcome {
    let rule_map: BTreeMap<String, Rule> =
        rules.iter().map(|r| (r.id.clone(), r.clone())).collect();
    let mut inventory = Inventory::new();
    let mut used = BTreeSet::new();
    let mut violations = Vec::new();
    for (path, src) in files {
        let mut lines = lex_lines(src);
        blank_test_mods(&mut lines);
        violations.extend(lint_file(path, &lines, &rule_map, &mut inventory, &mut used));
    }
    for r in rules {
        if !used.contains(&r.id) {
            violations.push(format!(
                "orderings.toml: rule `{}` matches no site (delete it or tag its sites)",
                r.id
            ));
        }
    }
    Outcome {
        violations,
        inventory,
    }
}

/// Source roots the ordering lint covers: every workspace member's
/// `src/` (tests, benches, and examples are exempt — test-only atomics
/// carry no product invariant).
pub fn lint_roots(root: &Path) -> Vec<std::path::PathBuf> {
    let mut roots = vec![root.join("src")];
    for parent in ["crates", "shims"] {
        let Ok(entries) = std::fs::read_dir(root.join(parent)) else {
            continue;
        };
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

/// Runs the lint over the workspace. Does not compare the inventory —
/// callers decide (check vs regenerate).
pub fn analyze(root: &Path) -> Outcome {
    let manifest_path = root.join("xtask/orderings.toml");
    let rules = match std::fs::read_to_string(&manifest_path) {
        Ok(text) => match parse_manifest(&text) {
            Ok(r) => r,
            Err(e) => {
                return Outcome {
                    violations: vec![e],
                    inventory: Inventory::new(),
                }
            }
        },
        Err(e) => {
            return Outcome {
                violations: vec![format!("{}: unreadable: {e}", manifest_path.display())],
                inventory: Inventory::new(),
            }
        }
    };
    let mut sources = Vec::new();
    for dir in lint_roots(root) {
        for file in crate::rust_files(&dir) {
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .display()
                .to_string();
            match std::fs::read_to_string(&file) {
                Ok(src) => sources.push((rel, src)),
                Err(e) => {
                    return Outcome {
                        violations: vec![format!("{rel}: unreadable: {e}")],
                        inventory: Inventory::new(),
                    }
                }
            }
        }
    }
    let refs: Vec<(&str, &str)> = sources
        .iter()
        .map(|(p, s)| (p.as_str(), s.as_str()))
        .collect();
    lint_sources(&rules, &refs)
}

pub fn render_inventory(inv: &Inventory) -> String {
    let mut out = String::from(
        "# Atomic-site inventory — generated by `cargo xtask orderings --write-inventory`.\n\
         # file\trule\torderings\tsites   (`-` = untagged SeqCst off the hot path)\n",
    );
    for ((file, rule, seq), count) in inv {
        out.push_str(&format!("{file}\t{rule}\t{seq}\t{count}\n"));
    }
    out
}

pub fn parse_inventory(text: &str) -> Inventory {
    let mut inv = Inventory::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let cols: Vec<&str> = line.split('\t').collect();
        if cols.len() == 4 {
            if let Ok(n) = cols[3].parse() {
                inv.insert((cols[0].into(), cols[1].into(), cols[2].into()), n);
            }
        }
    }
    inv
}

/// Full check: lint + committed-inventory comparison. The inventory diff
/// is what turns *removals* (a deleted fence, a dropped atomic) into
/// static failures — the lint alone only sees sites that still exist.
pub fn check(root: &Path) -> Vec<String> {
    let Outcome {
        mut violations,
        inventory,
    } = analyze(root);
    let inv_path = root.join("xtask/orderings-inventory.tsv");
    match std::fs::read_to_string(&inv_path) {
        Ok(text) => {
            let committed = parse_inventory(&text);
            for (key, n) in &inventory {
                match committed.get(key) {
                    Some(m) if m == n => {}
                    Some(m) => violations.push(format!(
                        "inventory drift: {} [{}] rule {}: {n} site(s) in source, {m} committed \
                         (review, then `cargo xtask orderings --write-inventory`)",
                        key.0, key.2, key.1
                    )),
                    None => violations.push(format!(
                        "inventory drift: {} [{}] rule {}: new site(s) not in committed inventory \
                         (review, then `cargo xtask orderings --write-inventory`)",
                        key.0, key.2, key.1
                    )),
                }
            }
            for key in committed.keys() {
                if !inventory.contains_key(key) {
                    violations.push(format!(
                        "inventory drift: {} [{}] rule {}: committed site(s) no longer in source \
                         (an atomic or fence was removed — review, then \
                         `cargo xtask orderings --write-inventory`)",
                        key.0, key.2, key.1
                    ));
                }
            }
        }
        Err(e) => violations.push(format!(
            "{}: unreadable ({e}) — run `cargo xtask orderings --write-inventory`",
            inv_path.display()
        )),
    }
    violations
}

/// Regenerates the committed inventory. Fails (returning the lint
/// violations) if the lint itself does not pass — the inventory must
/// only ever pin a clean state.
pub fn write_inventory(root: &Path) -> Result<usize, Vec<String>> {
    let Outcome {
        violations,
        inventory,
    } = analyze(root);
    if !violations.is_empty() {
        return Err(violations);
    }
    let n = inventory.values().sum();
    std::fs::write(
        root.join("xtask/orderings-inventory.tsv"),
        render_inventory(&inventory),
    )
    .map_err(|e| vec![format!("write inventory: {e}")])?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules() -> Vec<Rule> {
        parse_manifest(
            r#"
[[rule]]
id = "pub.rel"
summary = "publication store"
exact = ["Release"]

[[rule]]
id = "cas.acq"
summary = "CAS acquire/relaxed"
exact = ["Acquire", "Relaxed"]

[[rule]]
id = "ctr"
summary = "statistics counters"
allows = ["Relaxed"]
blanket = true

[[rule]]
id = "hot.sc"
summary = "justified hot-path SeqCst"
exact = ["SeqCst"]
seqcst = true
"#,
        )
        .expect("fixture manifest parses")
    }

    fn lint_one(path: &str, src: &str) -> Vec<String> {
        // Drop unused-rule noise: fixtures rarely use every rule.
        lint_sources(&rules(), &[(path, src)])
            .violations
            .into_iter()
            .filter(|v| !v.contains("matches no site"))
            .collect()
    }

    #[test]
    fn tagged_exact_site_passes_and_weakened_fails() {
        let good = "fn f(a: &AtomicU64) {\n    // ORDERING: pub.rel\n    a.store(1, Ordering::Release);\n}\n";
        assert!(lint_one("x.rs", good).is_empty());
        let weak = good.replace("Release", "Relaxed");
        let v = lint_one("x.rs", &weak);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("does not satisfy"));
    }

    #[test]
    fn untagged_non_seqcst_is_flagged() {
        let src = "fn f(a: &AtomicU64) { a.load(Ordering::Acquire); }\n";
        let v = lint_one("x.rs", src);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("without an `// ORDERING:"));
    }

    #[test]
    fn untagged_seqcst_off_hot_path_passes() {
        let src = "fn f(a: &AtomicU64) { a.load(Ordering::SeqCst); }\n";
        assert!(lint_one("crates/persist/src/x.rs", src).is_empty());
    }

    #[test]
    fn untagged_seqcst_on_hot_path_is_flagged() {
        let src = "fn f(a: &AtomicU64) { a.load(Ordering::SeqCst); }\n";
        let v = lint_one("crates/cuckoo/src/sync.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("hot-path"));
        let tagged = format!("// ORDERING: hot.sc\n{src}");
        assert!(lint_one("crates/cuckoo/src/sync.rs", &tagged).is_empty());
    }

    #[test]
    fn multiline_cas_is_one_site() {
        let src = "fn f(a: &AtomicU64) {\n    // ORDERING: cas.acq\n    a.compare_exchange(\n        0,\n        1,\n        Ordering::Acquire,\n        Ordering::Relaxed,\n    )\n}\n";
        assert!(lint_one("x.rs", src).is_empty(), "{:?}", lint_one("x.rs", src));
    }

    #[test]
    fn blanket_covers_relaxed_counters_only() {
        let src = "// ORDERING-FILE: ctr\nfn f(a: &AtomicU64) {\n    a.fetch_add(1, Ordering::Relaxed);\n    a.load(Ordering::Acquire);\n}\n";
        let v = lint_one("x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("Acquire"));
    }

    #[test]
    fn relaxed_pointer_publication_is_flagged() {
        let src = "// ORDERING-FILE: ctr\nfn f(p: &AtomicPtr<u8>, b: Box<u8>) {\n    p.store(Box::into_raw(b), Ordering::Relaxed);\n}\n";
        let v = lint_one("x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("publication"));
    }

    #[test]
    fn dangling_tag_is_flagged() {
        let src = "// ORDERING: pub.rel\nfn f() {}\n";
        let v = lint_one("x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("dangling"));
    }

    #[test]
    fn sites_in_test_mods_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(a: &AtomicU64) { a.load(Ordering::Acquire); }\n}\n";
        assert!(lint_one("x.rs", src).is_empty());
    }

    #[test]
    fn tag_in_string_does_not_count() {
        let src = "fn f(a: &AtomicU64) {\n    let _t = \"// ORDERING: pub.rel\";\n    a.store(1, Ordering::Release);\n}\n";
        let v = lint_one("x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn inventory_roundtrip_and_drift() {
        let out = lint_sources(
            &rules(),
            &[(
                "x.rs",
                "fn f(a: &AtomicU64) {\n    // ORDERING: pub.rel\n    a.store(1, Ordering::Release);\n}\n",
            )],
        );
        let text = render_inventory(&out.inventory);
        let parsed = parse_inventory(&text);
        assert_eq!(parsed, out.inventory);
        assert_eq!(
            parsed.get(&("x.rs".into(), "pub.rel".into(), "Release".into())),
            Some(&1)
        );
    }

    #[test]
    fn manifest_rejects_bad_rules() {
        assert!(parse_manifest("[[rule]]\nid = \"x\"\n").is_err(), "no summary");
        assert!(
            parse_manifest("[[rule]]\nid = \"x\"\nsummary = \"s\"\nexact = [\"Sloppy\"]\n")
                .is_err(),
            "bad ordering name"
        );
        assert!(
            parse_manifest(
                "[[rule]]\nid = \"x\"\nsummary = \"s\"\nallows = [\"Release\"]\nblanket = true\n"
            )
            .is_err(),
            "blanket must be Relaxed-only"
        );
    }

    /// Golden: the manifest's rule-id set. A rename or removal breaks
    /// every `// ORDERING:` tag referring to the old id, so it must show
    /// up here as a deliberate change, not slip through in a refactor.
    #[test]
    fn manifest_rule_ids_are_pinned() {
        let manifest = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("orderings.toml"),
        )
        .expect("xtask/orderings.toml readable");
        let rules = parse_manifest(&manifest).expect("manifest parses");
        let ids: Vec<&str> = rules.iter().map(|r| r.id.as_str()).collect();
        let pinned = [
            "seqlock.lock-acquire",
            "seqlock.unlock-release",
            "seqlock.read-begin",
            "seqlock.validate",
            "seqlock.advisory-probe",
            "epoch.seqcst",
            "alloc.unique-id",
            "bucket.meta-acquire",
            "bucket.meta-publish",
            "exec.scan-counter",
            "migration.chunk-claim",
            "migration.chunk-done",
            "migration.chunk-poll",
            "cold.seqcst",
            "publish.release-store",
            "publish.acquire-load",
            "handoff.acqrel-rmw",
            "advisory.relaxed",
            "stats.counter",
            "htm.racy-chunk",
            "simd_probe",
        ];
        assert_eq!(
            ids, pinned,
            "manifest rule ids changed — update this golden list *and* every tag using the old id"
        );
    }
}
