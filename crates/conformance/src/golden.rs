//! Golden-file comparison with an `UPDATE_GOLDEN=1` regeneration path.

use std::path::PathBuf;

/// The on-disk location of a committed golden file.
pub fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("goldens")
        .join(format!("{name}.golden"))
}

/// Whether this run regenerates goldens instead of checking them.
pub fn updating() -> bool {
    std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v == "1")
}

/// Compares `actual` against the committed golden `name`, or rewrites
/// the golden when `UPDATE_GOLDEN=1` is set.
///
/// # Panics
///
/// Panics when the golden is missing or differs (pointing at the first
/// diverging line), or when regeneration cannot write the file.
pub fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if updating() {
        let dir = path.parent().expect("goldens/ has a parent");
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        std::fs::write(&path, actual)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run `UPDATE_GOLDEN=1 cargo test -p \
             ftsyn-conformance` to create it",
            path.display()
        )
    });
    if expected != actual {
        panic!(
            "golden mismatch for `{name}` ({}):\n{}\nRun `UPDATE_GOLDEN=1 cargo test -p \
             ftsyn-conformance` to accept the new output.",
            path.display(),
            first_divergence(&expected, actual)
        );
    }
}

/// A human-readable description of the first line where two texts
/// diverge.
fn first_divergence(expected: &str, actual: &str) -> String {
    let (mut e, mut a) = (expected.lines(), actual.lines());
    let mut line = 1;
    loop {
        match (e.next(), a.next()) {
            (Some(x), Some(y)) if x == y => line += 1,
            (Some(x), Some(y)) => return format!("line {line}:\n  expected: {x}\n  actual:   {y}"),
            (Some(x), None) => return format!("line {line}: actual ends early (expected: {x})"),
            (None, Some(y)) => return format!("line {line}: actual has extra line: {y}"),
            (None, None) => return "texts differ only in trailing whitespace".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divergence_points_at_first_differing_line() {
        let msg = first_divergence("a\nb\nc\n", "a\nX\nc\n");
        assert!(msg.contains("line 2"), "{msg}");
        assert!(msg.contains("expected: b"), "{msg}");
        assert!(msg.contains("actual:   X"), "{msg}");
    }

    #[test]
    fn divergence_reports_truncation() {
        let msg = first_divergence("a\nb\n", "a\n");
        assert!(msg.contains("ends early"), "{msg}");
        let msg = first_divergence("a\n", "a\nextra\n");
        assert!(msg.contains("extra line"), "{msg}");
    }

    #[test]
    fn golden_path_is_under_the_crate() {
        let p = golden_path("x");
        assert!(p.ends_with("goldens/x.golden"), "{}", p.display());
    }
}
