//! `docs/REPRODUCTION.md` names the tests and targets that check each paper
//! item; a rename or deletion that leaves a name stale fails here. Every
//! `` `file.rs::name` `` (and each `` `::name` `` after it) is a `fn name`
//! in `tests/file.rs` — or, for a path like `crates/x/src/file.rs`, in that
//! file — and `::*` needs only the file; every ``target `x` `` (or
//! ``targets `x`, `y` ``) is a [`SUITE`] `bin` or a variant with a committed
//! `benches/baselines/BENCH_x.json`, and every ``binary `x` `` is a `bin`.

use lapushdb::benchsuite::SUITE;
use std::path::Path;

fn repo_file(path: &str) -> Option<String> {
    std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(path)).ok()
}

#[test]
fn every_named_test_and_target_exists() {
    let doc = repo_file("docs/REPRODUCTION.md").expect("docs/REPRODUCTION.md");
    let is_bin = |name: &str| SUITE.iter().any(|run| run.bin == name);
    let baseline = |name: &str| repo_file(&format!("benches/baselines/BENCH_{name}.json"));
    let (mut file, mut in_targets, mut checked) = (None, false, 0);
    let mut stale: Vec<String> = Vec::new();
    // Odd pieces are code spans; even pieces are the prose between them.
    let pieces: Vec<&str> = doc.split('`').collect();
    for i in (1..pieces.len()).step_by(2) {
        let (before, span) = (pieces[i - 1], pieces[i]);
        in_targets = before.ends_with("target ")
            || before.ends_with("targets ")
            || (in_targets && before == ", ");
        if in_targets || before.ends_with("binary ") {
            checked += 1;
            let known = is_bin(span) || (in_targets && baseline(span).is_some());
            if !known {
                stale.push(format!("target `{span}` is not in the bench suite"));
            }
            continue;
        }
        let Some((prefix, name)) = span.split_once("::") else {
            continue;
        };
        match prefix {
            "" => {}
            f if f.ends_with(".rs") => file = Some(f),
            _ => continue,
        }
        checked += 1;
        let f = file.unwrap_or("<no file named before>");
        let path = match f.contains('/') {
            true => f.to_string(),
            false => format!("tests/{f}"),
        };
        match repo_file(&path) {
            None => stale.push(format!("`{span}`: no file {path}")),
            Some(text) if name != "*" && !text.contains(&format!("fn {name}(")) => {
                stale.push(format!("`{span}`: no `fn {name}` in {path}"))
            }
            Some(_) => {}
        }
    }
    assert!(
        stale.is_empty(),
        "stale docs/REPRODUCTION.md:\n{}",
        stale.join("\n")
    );
    // The parser must see the index, not skip all of it.
    assert!(checked >= 40, "only {checked} names checked");
}
