//! The one golden harness: every committed golden under `tests/golden/`
//! is compared, and re-blessed, through [`check`].
//!
//! After an *intended* change, `GDR_BLESS=1 cargo test --test <name>
//! -- --include-ignored` rewrites the goldens that test owns, its
//! ignored tests' included; read their `git diff` before committing.

/// Compare `got` byte for byte against `tests/golden/<name>`. On a
/// mismatch, panic naming the file, how many lines differ (a line one
/// side lacks counts), the first differing line (got and want) or the
/// two line counts, and the re-bless command. With
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
    let (got, want): (Vec<&str>, Vec<&str>) = (got.lines().collect(), want.lines().collect());
    let (g, w) = (got.len(), want.len());
    let differ = (0..g.max(w)).filter(|&i| got.get(i) != want.get(i)).count();
    let first = (0..g.min(w))
        .find(|&i| got[i] != want[i])
        .map(|i| format!("first difference at line {}:\n  got  {}\n  want {}", i + 1, got[i], want[i]))
        .unwrap_or_else(|| format!("the first {} lines agree; got {g} lines, want {w}", g.min(w)));
    panic!(
        "tests/golden/{name} drifted, {differ} of {} lines differ; {first}\n\
         after an intended change, re-bless with `{bless}`",
        g.max(w)
    );
}
