//! The one golden harness: every committed golden under `tests/golden/`
//! is compared, and re-blessed, through [`check`].
//!
//! After an *intended* change, `GDR_BLESS=1 cargo test --test <name>
//! -- --include-ignored` rewrites the goldens that test owns, its
//! ignored tests' included; read their `git diff` before committing.

/// Compare `got` byte for byte against `tests/golden/<name>`. On a
/// mismatch, panic naming the file, the first differing line (got and
/// want) or the two line counts, and the re-bless command. With
/// `GDR_BLESS` set, write `got` there instead and pass.
pub fn check(name: &str, got: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let bless = format!("GDR_BLESS=1 cargo test --test {} -- --include-ignored", env!("CARGO_CRATE_NAME"));
    if std::env::var_os("GDR_BLESS").is_some() {
        std::fs::write(&path, got).unwrap_or_else(|e| panic!("cannot bless {path}: {e}"));
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read tests/golden/{name} ({e}); create it with `{bless}`"));
    if got == want {
        return;
    }
    let (g, w) = (got.lines().count(), want.lines().count());
    let first = got
        .lines()
        .zip(want.lines())
        .enumerate()
        .find(|(_, (g, w))| g != w)
        .map(|(i, (g, w))| format!("first difference at line {}:\n  got  {g}\n  want {w}", i + 1))
        .unwrap_or_else(|| format!("no line differs; got {g} lines, want {w}"));
    panic!("tests/golden/{name} drifted; {first}\nafter an intended change, re-bless with `{bless}`");
}
