//! Registry exhaustiveness rules: enums and counter tables that must
//! stay wired end to end.
//!
//! Three registries keep the chaos harness honest, and each has a
//! failure mode the compiler cannot see:
//!
//! * **Scenario events** — a new [`ScenarioEvent`] variant that is
//!   generated but never scheduled in `Scenario::apply`, or skipped by
//!   `heals()`/`horizon()`, silently produces runs whose fault windows
//!   never close (or whose drain horizon is wrong). Wildcard match arms
//!   would compile fine; this rule demands every variant be *named* in
//!   all three functions.
//! * **Counters** — `CoverageReport`'s branch table and the `probe`
//!   sweeps reference counters by string. A typo (or a renamed counter)
//!   reads as eternally zero: the branch looks unreached, the sweep
//!   column flatlines, and nothing fails. This rule cross-checks every
//!   referenced counter name against the set of names some crate
//!   actually produces (`bump`/`record_send` call sites, and the
//!   per-stack `LogNames` tables the replica log reports under).
//! * **Stable-store keys** — every layer of a stack writes the one
//!   stable store of its process, namespaced by the key's high byte
//!   (`N << 56`). Two layers sharing a high byte overwrite each other's
//!   durable state, which only shows after a crash and restart (a
//!   collision once let rbcast's sequence counter clobber the persisted
//!   snapshot). This rule demands a distinct high byte per constant.
//! * **Violations** — a [`Violation`] variant that `process()`,
//!   `kind()` or `Display` does not name would dodge the trace-dump and
//!   minimization paths: the oracle would report it, but the bounded
//!   violation trace written to `target/trace/` could anchor on the
//!   wrong process, ddmin could conflate it with a different bug, or
//!   the report could render nothing useful.
//!
//! [`ScenarioEvent`]: ../../chaos/src/scenario.rs
//! [`Violation`]: ../../chaos/src/oracle.rs

use std::collections::BTreeSet;
use std::path::Path;

use crate::report::{Finding, Report};
use crate::source::SourceFile;

/// Rule id: `ScenarioEvent` wiring.
pub const RULE_SCENARIO: &str = "scenario-registry";
/// Rule id: counter-name cross-check.
pub const RULE_COUNTER: &str = "counter-registry";
/// Rule id: `Violation` wiring.
pub const RULE_VIOLATION: &str = "violation-registry";
/// Rule id: stable-store key namespaces.
pub const RULE_STABLE_KEY: &str = "stable-key";

/// The functions every `ScenarioEvent` variant must be named in.
/// `family` feeds the fuzz coverage matrix: a variant missing there
/// would be generated but never earn a matrix row, so steering could
/// never notice it is under-explored.
const SCENARIO_FNS: &[&str] = &["fn apply", "fn heals", "fn horizon", "fn family"];

/// Extracts the variant names of `enum <name>` from a preprocessed
/// file. Returns `(variants, 1-based line of the enum)`.
pub fn enum_variants(src: &SourceFile, name: &str) -> Option<(Vec<String>, usize)> {
    let needle = format!("enum {name}");
    let start = src
        .scan
        .iter()
        .position(|l| l.contains(&needle) && !l.trim_start().starts_with("use "))?;
    let mut variants = Vec::new();
    let mut depth: i64 = 0;
    let mut entered = false;
    for line in src.scan.iter().skip(start) {
        let at_variant_depth = entered && depth == 1;
        if at_variant_depth {
            let t = line.trim_start();
            let mut chars = t.chars();
            if let Some(first) = chars.next() {
                if first.is_ascii_uppercase() {
                    let end = t
                        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                        .unwrap_or(t.len());
                    let candidate = &t[..end];
                    // A variant line continues with `{`, `(`, `,` or
                    // nothing; anything else (`:` of a field, `=`) is
                    // not a variant.
                    let rest = t[end..].trim_start();
                    if rest.is_empty() || rest.starts_with(['{', '(', ',', '=']) {
                        variants.push(candidate.to_string());
                    }
                }
            }
        }
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    entered = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if entered && depth == 0 {
            break;
        }
    }
    Some((variants, start + 1))
}

/// The body (including signature line) of the first `fn <name>` in the
/// file, as one string, plus its 1-based line.
pub fn fn_body(src: &SourceFile, fn_needle: &str) -> Option<(String, usize)> {
    let start = src.scan.iter().position(|l| {
        l.contains(fn_needle)
            && l[l.find(fn_needle).unwrap() + fn_needle.len()..].starts_with(['(', '<'])
    })?;
    Some((capture_block(src, start), start + 1))
}

/// The body of an `impl` block whose header contains `header_needle`.
pub fn impl_body(src: &SourceFile, header_needle: &str) -> Option<(String, usize)> {
    let start = src
        .scan
        .iter()
        .position(|l| l.contains("impl") && l.contains(header_needle))?;
    Some((capture_block(src, start), start + 1))
}

/// Captures lines from `start` through the close of the first brace
/// block opened at or after it.
fn capture_block(src: &SourceFile, start: usize) -> String {
    let mut out = String::new();
    let mut depth: i64 = 0;
    let mut entered = false;
    for line in src.scan.iter().skip(start) {
        out.push_str(line);
        out.push('\n');
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    entered = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if entered && depth <= 0 {
            break;
        }
    }
    out
}

/// `ScenarioEvent` wiring (see the [module docs](self)).
pub fn check_scenario_events(src: &SourceFile, rel: &str, report: &mut Report) {
    let Some((variants, enum_line)) = enum_variants(src, "ScenarioEvent") else {
        report.findings.push(Finding {
            rule: RULE_SCENARIO,
            file: rel.to_string(),
            line: 0,
            message: "enum ScenarioEvent not found (did the scenario registry move?)".to_string(),
        });
        return;
    };
    if variants.is_empty() {
        report.findings.push(Finding {
            rule: RULE_SCENARIO,
            file: rel.to_string(),
            line: enum_line,
            message: "enum ScenarioEvent parsed with zero variants".to_string(),
        });
        return;
    }
    for fn_needle in SCENARIO_FNS {
        let Some((body, fn_line)) = fn_body(src, fn_needle) else {
            report.findings.push(Finding {
                rule: RULE_SCENARIO,
                file: rel.to_string(),
                line: 0,
                message: format!("`{fn_needle}` not found next to enum ScenarioEvent"),
            });
            continue;
        };
        for v in &variants {
            if !body.contains(&format!("ScenarioEvent::{v}")) {
                report.findings.push(Finding {
                    rule: RULE_SCENARIO,
                    file: rel.to_string(),
                    line: fn_line,
                    message: format!(
                        "ScenarioEvent::{v} is not named in `{fn_needle}`: every variant must be \
                         explicitly scheduled (apply) and accounted (heals/horizon) — wildcard \
                         arms hide dropped fault events"
                    ),
                });
            }
        }
    }
}

/// `Violation` wiring: every variant named in `fn process` (the trace
/// dump anchor), `fn kind` (the minimizer's violation identity) and the
/// `Display` impl (the human diagnostic).
pub fn check_violations(src: &SourceFile, rel: &str, report: &mut Report) {
    let Some((variants, _)) = enum_variants(src, "Violation") else {
        report.findings.push(Finding {
            rule: RULE_VIOLATION,
            file: rel.to_string(),
            line: 0,
            message: "enum Violation not found (did the oracle move?)".to_string(),
        });
        return;
    };
    type Sink<'a> = (&'a str, Option<(String, usize)>, &'a str);
    let sinks: [Sink<'_>; 3] = [
        (
            "fn process",
            fn_body(src, "fn process"),
            "the violation trace dump anchors its bounded window on `Violation::process`",
        ),
        (
            "fn kind",
            fn_body(src, "fn kind"),
            "the counterexample minimizer matches candidate runs by `Violation::kind` — a \
             variant collapsing into another's kind (or a wildcard) lets ddmin swap one bug \
             for a different one mid-shrink",
        ),
        (
            "Display for Violation",
            impl_body(src, "Display for Violation"),
            "oracle reports render violations through `Display`",
        ),
    ];
    for (what, body, why) in sinks {
        let Some((body, line)) = body else {
            report.findings.push(Finding {
                rule: RULE_VIOLATION,
                file: rel.to_string(),
                line: 0,
                message: format!("`{what}` not found for enum Violation"),
            });
            continue;
        };
        for v in &variants {
            if !body.contains(&format!("Violation::{v}")) {
                report.findings.push(Finding {
                    rule: RULE_VIOLATION,
                    file: rel.to_string(),
                    line,
                    message: format!("Violation::{v} is not named in `{what}`: {why}"),
                });
            }
        }
    }
}

/// Collects counter names *produced* in `src`: string literals passed
/// to `bump(` / `record_send(` — or to a `send(` / `send_msg(` /
/// `broadcast_msg(` call, which is how the protocol modules register
/// their per-kind message counters (the literal may sit on a later line,
/// and for a send it is not the first argument) — plus every dotted
/// literal in a `LogNames { … }` table, the names a stack's replica log
/// bumps and sends under.
pub fn collect_produced(src: &SourceFile, out: &mut BTreeSet<String>) {
    collect_log_names(src, out);
    let joined = src.code.join("\n");
    for needle in [
        "bump(",
        "record_send(",
        "send(",
        "send_msg(",
        "broadcast_msg(",
    ] {
        let mut from = 0;
        while let Some(p) = joined[from..].find(needle) {
            let name_start = from + p;
            let at = name_start + needle.len();
            // Boundary on the left of the method name (`send_estimate(`
            // and `record_send(`-via-`send(` must not double-match).
            let bounded = name_start == 0 || {
                let c = joined.as_bytes()[name_start - 1] as char;
                c == '.' || !(c.is_ascii_alphanumeric() || c == '_')
            };
            if bounded {
                if let Some(lit) = harvest_call(&joined[at..]) {
                    out.insert(lit);
                }
            }
            from = at;
        }
    }
}

/// The dotted literals of every `LogNames { … }` table in `src` (the
/// struct definition aside): the block runs from the line naming it to
/// the line where its braces close, matched on the string-blind view.
fn collect_log_names(src: &SourceFile, out: &mut BTreeSet<String>) {
    for (start, line) in src.scan.iter().enumerate() {
        if !line.contains("LogNames {") || line.contains("struct LogNames") {
            continue;
        }
        let mut depth: i64 = 0;
        for idx in start..src.scan.len() {
            let literals = src.code[idx].split('"').skip(1).step_by(2);
            out.extend(literals.filter(|l| l.contains('.')).map(str::to_string));
            depth += src.scan[idx].matches(['{', '[']).count() as i64;
            depth -= src.scan[idx].matches(['}', ']']).count() as i64;
            if depth <= 0 {
                break;
            }
        }
    }
}

/// The counter-name literal of one call, given the text just after the
/// opening paren: the first argument when it is a string literal, or
/// else the first *dotted* literal among the arguments (counter names
/// always carry a `module.` prefix; payload strings do not).
fn harvest_call(args: &str) -> Option<String> {
    let window = &args[..args.len().min(600)];
    let mut depth: i32 = 1;
    let mut first_arg = true;
    let mut i = 0;
    let bytes = window.as_bytes();
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '"' => {
                let rest = &window[i + 1..];
                let end = rest.find('"')?;
                let lit = &rest[..end];
                if first_arg || lit.contains('.') {
                    return Some(lit.to_string());
                }
                i += end + 1;
                first_arg = false;
            }
            '(' => {
                depth += 1;
                first_arg = false;
            }
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return None;
                }
            }
            c if c.is_whitespace() => {}
            _ => first_arg = false,
        }
        i += 1;
    }
    None
}

/// Counter names *referenced* in `src` through `.event("…")` or
/// `.kind("…")` lookups, with their 1-based lines.
pub fn collect_referenced(src: &SourceFile, out: &mut Vec<(String, usize)>) {
    for (idx, line) in src.code.iter().enumerate() {
        if src.in_test[idx] {
            // Unit tests legitimately probe unknown counters to assert
            // zero-default semantics.
            continue;
        }
        for needle in [".event(\"", ".kind(\""] {
            let mut from = 0;
            while let Some(p) = line[from..].find(needle) {
                let at = from + p + needle.len();
                if let Some(end) = line[at..].find('"') {
                    out.push((line[at..at + end].to_string(), idx + 1));
                }
                from = at;
            }
        }
    }
}

/// Counter keys referenced by `CoverageReport`'s `BRANCHES` table: the
/// string literals inside the `keys:` arrays (every key carries a `.`;
/// branch *names* do not, which keeps the two apart without parsing the
/// struct).
pub fn coverage_keys(src: &SourceFile) -> Vec<(String, usize)> {
    let Some(start) = src.scan.iter().position(|l| l.contains("BRANCHES")) else {
        return Vec::new();
    };
    let block_end = {
        let mut depth: i64 = 0;
        let mut entered = false;
        let mut end = start;
        for (off, line) in src.scan.iter().skip(start).enumerate() {
            for c in line.chars() {
                match c {
                    '[' | '{' => {
                        depth += 1;
                        entered = true;
                    }
                    ']' | '}' => depth -= 1,
                    _ => {}
                }
            }
            end = start + off;
            if entered && depth <= 0 {
                break;
            }
        }
        end
    };
    let mut out = Vec::new();
    for idx in start..=block_end.min(src.code.len() - 1) {
        let line = &src.code[idx];
        let mut rest = line.as_str();
        let mut seen = 0;
        while let Some(q) = rest.find('"') {
            let tail = &rest[q + 1..];
            let Some(end) = tail.find('"') else { break };
            let lit = &tail[..end];
            if lit.contains('.') {
                out.push((lit.to_string(), idx + 1));
            }
            rest = &tail[end + 1..];
            seen += 1;
            if seen > 32 {
                break;
            }
        }
    }
    out
}

/// Collects the stable-store key constants of `src` — `const NAME: u64
/// = N << 56;` outside test code — as `(name, high byte N, 1-based
/// line)`. `N` may be decimal or `0x` hex.
pub fn collect_stable_keys(src: &SourceFile, out: &mut Vec<(String, u64, usize)>) {
    for (idx, line) in src.scan.iter().enumerate() {
        if src.in_test[idx] {
            continue;
        }
        let Some(decl) = line.find("const ").map(|p| &line[p + "const ".len()..]) else {
            continue;
        };
        let (Some(colon), Some(eq)) = (decl.find(':'), decl.find('=')) else {
            continue;
        };
        let Some(expr) = decl[eq + 1..].trim().strip_suffix(';') else {
            continue;
        };
        let Some(high) = expr.strip_suffix("<< 56").map(str::trim) else {
            continue;
        };
        let parsed = match high.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => high.parse(),
        };
        if let Ok(byte) = parsed {
            out.push((decl[..colon].trim().to_string(), byte, idx + 1));
        }
    }
}

/// Fails every stable-key constant whose high byte an earlier one
/// (in `(file, line)` order) already claimed.
pub fn check_stable_keys(keys: &[(String, u64, usize, String)], report: &mut Report) {
    let mut claimed: Vec<&(String, u64, usize, String)> = Vec::new();
    for key in keys {
        let (name, byte, line, file) = key;
        if let Some((first, _, first_line, first_file)) =
            claimed.iter().copied().find(|k| k.1 == *byte)
        {
            report.findings.push(Finding {
                rule: RULE_STABLE_KEY,
                file: file.clone(),
                line: *line,
                message: format!(
                    "stable-store key `{name}` uses high byte {byte}, already claimed by \
                     `{first}` ({first_file}:{first_line}): a stack's layers share one stable \
                     store, so the two would overwrite each other's durable state"
                ),
            });
        } else {
            claimed.push(key);
        }
    }
}

/// Cross-checks every referenced counter name against the produced set.
pub fn check_counter_names(
    referenced: &[(String, usize, String)], // (name, line, file)
    produced: &BTreeSet<String>,
    report: &mut Report,
) {
    for (name, line, file) in referenced {
        if !produced.contains(name) {
            report.findings.push(Finding {
                rule: RULE_COUNTER,
                file: file.clone(),
                line: *line,
                message: format!(
                    "counter `{name}` is referenced here but no crate ever bumps it — it will \
                     read as eternally zero (typo, or a renamed counter?)"
                ),
            });
        }
    }
}

/// Runs all registry rules over the workspace rooted at `root`.
pub fn check(root: &Path, report: &mut Report) -> std::io::Result<()> {
    // Scenario events + violations live in the chaos crate.
    let scenario_path = root.join("crates/chaos/src/scenario.rs");
    let scenario = SourceFile::load(&scenario_path)?;
    check_scenario_events(&scenario, &crate::rel_label(root, &scenario_path), report);

    let oracle_path = root.join("crates/chaos/src/oracle.rs");
    let oracle = SourceFile::load(&oracle_path)?;
    check_violations(&oracle, &crate::rel_label(root, &oracle_path), report);

    // Produced counters: every .rs file in the workspace (tests and
    // examples included — producers can live anywhere). Stable-store
    // keys: the library sources of every crate.
    let mut produced = BTreeSet::new();
    let mut keys = Vec::new();
    let mut all_rs = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        crate::walk_rs(&root.join(dir), &mut all_rs)?;
    }
    for path in &all_rs {
        let src = SourceFile::load(path)?;
        collect_produced(&src, &mut produced);
        let rel = crate::rel_label(root, path);
        if rel.starts_with("crates/") && rel.contains("/src/") {
            let mut found = Vec::new();
            collect_stable_keys(&src, &mut found);
            keys.extend(found.into_iter().map(|(n, b, l)| (n, b, l, rel.clone())));
        }
    }
    check_stable_keys(&keys, report);

    // Referenced counters: the CoverageReport branch table, plus every
    // non-test `.event("…")` / `.kind("…")` lookup in the bench crate
    // (probe's sweeps and audits).
    let mut referenced: Vec<(String, usize, String)> = Vec::new();
    let coverage_path = root.join("crates/chaos/src/coverage.rs");
    let coverage = SourceFile::load(&coverage_path)?;
    let cov_rel = crate::rel_label(root, &coverage_path);
    for (name, line) in coverage_keys(&coverage) {
        referenced.push((name, line, cov_rel.clone()));
    }
    let mut bench_rs = Vec::new();
    crate::walk_rs(&root.join("crates/bench"), &mut bench_rs)?;
    for path in &bench_rs {
        let src = SourceFile::load(path)?;
        let rel = crate::rel_label(root, path);
        let mut refs = Vec::new();
        collect_referenced(&src, &mut refs);
        for (name, line) in refs {
            referenced.push((name, line, rel.clone()));
        }
    }
    check_counter_names(&referenced, &produced, report);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn sf(text: &str) -> SourceFile {
        SourceFile::from_text(Path::new("mem.rs"), text)
    }

    #[test]
    fn variant_extraction_skips_fields_and_bodies() {
        let src = sf(
            "pub enum ScenarioEvent {\n    Crash {\n        pid: ProcessId,\n        at: VDur,\n    },\n    Restart { pid: ProcessId },\n    Lossy(f64),\n    Heal,\n}\n",
        );
        let (vars, line) = enum_variants(&src, "ScenarioEvent").unwrap();
        assert_eq!(vars, vec!["Crash", "Restart", "Lossy", "Heal"]);
        assert_eq!(line, 1);
    }

    #[test]
    fn missing_variant_in_apply_fires() {
        let src = sf(
            "pub enum ScenarioEvent {\n    Crash,\n    Restart,\n}\nimpl S {\n    pub fn apply(&self) {\n        match e { ScenarioEvent::Crash => {} _ => {} }\n    }\n    pub fn heals(&self) -> bool {\n        matches!(e, ScenarioEvent::Crash | ScenarioEvent::Restart)\n    }\n    pub fn horizon(&self) {\n        let _ = (ScenarioEvent::Crash, ScenarioEvent::Restart);\n    }\n    pub fn family(&self) {\n        let _ = (ScenarioEvent::Crash, ScenarioEvent::Restart);\n    }\n}\n",
        );
        let mut r = Report::default();
        check_scenario_events(&src, "mem.rs", &mut r);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert!(r.findings[0].message.contains("ScenarioEvent::Restart"));
        assert!(r.findings[0].message.contains("fn apply"));
    }

    #[test]
    fn violation_display_gap_fires() {
        let src = sf(
            "pub enum Violation {\n    A { p: u32 },\n    B,\n}\nimpl Violation {\n    pub fn process(&self) {\n        match self { Violation::A { .. } => {} Violation::B => {} }\n    }\n    pub fn kind(&self) {\n        match self { Violation::A { .. } => \"A\", Violation::B => \"B\" };\n    }\n}\nimpl fmt::Display for Violation {\n    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {\n        match self { Violation::A { .. } => write!(f, \"a\"), _ => write!(f, \"other\") }\n    }\n}\n",
        );
        let mut r = Report::default();
        check_violations(&src, "mem.rs", &mut r);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert!(r.findings[0].message.contains("Violation::B"));
        assert!(r.findings[0].message.contains("Display"));
    }

    #[test]
    fn produced_counters_found_across_lines() {
        let src = sf("ctx.bump(\"a.one\", 1);\nctx.bump(\n    \"a.two\",\n    1,\n);\nctx.record_send(\"k.send\", n);\nctx.bump(name, 1);\nself.send(ctx, coord, \"mono.estimate\", &msg);\nself.send(dst, kind, bytes);\n");
        let mut out = BTreeSet::new();
        collect_produced(&src, &mut out);
        let names: Vec<&str> = out.iter().map(|s| s.as_str()).collect();
        assert_eq!(names, vec!["a.one", "a.two", "k.send", "mono.estimate"]);
    }

    #[test]
    fn unproduced_reference_fires() {
        let mut produced = BTreeSet::new();
        produced.insert("real.counter".to_string());
        let refs = vec![
            ("real.counter".to_string(), 3, "f.rs".to_string()),
            ("ghost.counter".to_string(), 9, "f.rs".to_string()),
        ];
        let mut r = Report::default();
        check_counter_names(&refs, &produced, &mut r);
        assert_eq!(r.findings.len(), 1);
        assert!(r.findings[0].message.contains("ghost.counter"));
        assert_eq!(r.findings[0].line, 9);
    }

    /// The dynamic-membership additions must be *visible* to the
    /// registry rules: the enum parser discovers the `AddNode` /
    /// `RemoveNode` scenario variants and the `ConfigDivergence`
    /// violation in the real workspace sources, and both are fully
    /// wired (apply/heals/horizon/family, process/kind/Display). If a
    /// refactor moved or renamed them, the exhaustiveness guarantee
    /// would silently evaporate — this pins it.
    #[test]
    fn workspace_registries_cover_the_reconfig_vocabulary() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let scenario = SourceFile::load(&root.join("crates/chaos/src/scenario.rs")).unwrap();
        let (vars, _) = enum_variants(&scenario, "ScenarioEvent").unwrap();
        for v in ["AddNode", "RemoveNode"] {
            assert!(
                vars.iter().any(|x| x == v),
                "ScenarioEvent::{v} not discovered"
            );
        }
        let mut r = Report::default();
        check_scenario_events(&scenario, "scenario.rs", &mut r);
        assert!(r.findings.is_empty(), "{:?}", r.findings);

        let oracle = SourceFile::load(&root.join("crates/chaos/src/oracle.rs")).unwrap();
        let (vars, _) = enum_variants(&oracle, "Violation").unwrap();
        assert!(
            vars.iter().any(|x| x == "ConfigDivergence"),
            "Violation::ConfigDivergence not discovered"
        );
        let mut r = Report::default();
        check_violations(&oracle, "oracle.rs", &mut r);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn coverage_keys_take_only_dotted_literals() {
        let src = sf(
            "const BRANCHES: &[Branch] = &[\n    Branch {\n        name: \"round_changes\",\n        keys: &[\"consensus.round_changes\", \"mono.round_changes\"],\n    },\n];\n",
        );
        let keys = coverage_keys(&src);
        let names: Vec<&str> = keys.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["consensus.round_changes", "mono.round_changes"]);
    }
}
