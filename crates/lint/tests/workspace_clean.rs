//! The committed tree must satisfy its own lints: this is the same
//! check CI's `cargo run -p fortika-lint` gate performs, wired into
//! `cargo test` so a violation fails fast locally too.

use std::path::Path;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels under the workspace root");
    assert!(
        root.join("Cargo.toml").is_file(),
        "workspace root not found"
    );

    let report = fortika_lint::run(root).expect("scan succeeds");
    assert!(
        report.clean(),
        "the committed workspace must be lint-clean; fix or waive:\n{}",
        report.render_human()
    );
    // The scan actually covered the tree (guards against a refactor
    // that silently walks the wrong directory and reports vacuous
    // success).
    assert!(
        report.files_scanned > 30,
        "only {} files scanned",
        report.files_scanned
    );
    assert!(
        report.crates_checked >= 14,
        "only {} crates checked",
        report.crates_checked
    );
}

/// The `stable-key` rule sees every namespace the replica-log docs list:
/// high bytes 1–4 (replica log), 5 (rbcast) and 6 (abcast), each once.
#[test]
fn stable_key_rule_sees_every_documented_namespace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut bytes = Vec::new();
    for file in [
        "crates/net/src/replica_log.rs",
        "crates/rbcast/src/module.rs",
        "crates/abcast/src/module.rs",
    ] {
        let src = fortika_lint::source::SourceFile::load(&root.join(file)).unwrap();
        let mut keys = Vec::new();
        fortika_lint::registry::collect_stable_keys(&src, &mut keys);
        bytes.extend(keys.into_iter().map(|(_, byte, _)| byte));
    }
    assert_eq!(bytes, vec![1, 2, 3, 4, 5, 6]);
}
