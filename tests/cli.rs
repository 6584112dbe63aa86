//! The `lapush` binary, run the way a user runs it: a directory of CSV
//! files, a query on the command line, answers on stdout, errors on stderr
//! with exit code 1.

use std::path::PathBuf;
use std::process::{Command, Output};

const QUERY: &str = "q(x) :- R(x, y), T(y)";

/// A CSV directory of this test binary's own, holding the given files.
fn data_dir(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (file, text) in files {
        std::fs::write(dir.join(file), text).unwrap();
    }
    dir
}

/// `R(x, y)` and `T(y)` with a probability column; exact answers
/// `1 → 0.45`, `2 → 0.32`.
fn probabilistic_dir(name: &str) -> PathBuf {
    data_dir(
        name,
        &[("R.csv", "1,2,0.5\n2,3,0.8\n"), ("T.csv", "2,0.9\n3,0.4\n")],
    )
}

fn lapush(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lapush"))
        .args(args)
        .output()
        .expect("run lapush")
}

fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "lapush failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).unwrap()
}

/// Exit code 1, the message on stderr, nothing on stdout.
fn assert_fails_with(out: &Output, message: &str) {
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.lines().any(|l| l == format!("lapush: {message}")),
        "stderr was: {stderr}"
    );
    assert!(out.stdout.is_empty(), "stdout is for answers only");
}

#[test]
fn no_probs_is_a_switch_wherever_it_stands() {
    // No probability column, and last fields that do not parse as one: the
    // load fails unless `--no-probs` is honoured.
    let dir = data_dir("no_probs", &[("R.csv", "a,b\nb,c\n"), ("T.csv", "b\nc\n")]);
    let dir = dir.to_str().unwrap();
    let first = stdout(&lapush(&["--no-probs", "--data", dir, "--query", QUERY]));
    let middle = stdout(&lapush(&["--data", dir, "--no-probs", "--query", QUERY]));
    let last = stdout(&lapush(&["--data", dir, "--query", QUERY, "--no-probs"]));
    assert_eq!(first, "a\t1.000000\nb\t1.000000\n");
    assert_eq!(middle, first);
    assert_eq!(last, first);
}

#[test]
fn top_k_prints_the_head_of_the_exhaustive_ranking() {
    let dir = probabilistic_dir("top_k");
    let dir = dir.to_str().unwrap();
    let all = stdout(&lapush(&["--data", dir, "--query", QUERY]));
    assert_eq!(all, "1\t0.450000\n2\t0.320000\n");
    let top = stdout(&lapush(&["--data", dir, "--query", QUERY, "--top-k", "1"]));
    assert_eq!(
        top.lines().collect::<Vec<_>>(),
        [all.lines().next().unwrap()]
    );
}

#[test]
fn errors_exit_one_with_the_message_on_stderr() {
    let dir = probabilistic_dir("errors");
    let dir = dir.to_str().unwrap();
    assert_fails_with(
        &lapush(&["--data", dir, "--query", "q(x) :- R(x, y"]),
        "query parse error: expected term, got None",
    );
    assert_fails_with(
        &lapush(&["--data", dir, "--query", "q(x) :- Nope(x)"]),
        "execution error: unknown relation `Nope`",
    );
    let mc = [
        "--data",
        dir,
        "--query",
        QUERY,
        "--method",
        "mc",
        "--samples",
    ];
    for samples in ["abc", "0"] {
        assert_fails_with(
            &lapush(&[&mc[..], &[samples]].concat()),
            "--samples needs a positive integer",
        );
    }
}

#[test]
fn unknown_methods_and_foreign_flags_are_refused_before_loading() {
    // The data directory does not exist, so each refusal below must come
    // before the load that would fail on it.
    let missing = data_dir("refused", &[]).join("missing");
    let missing = missing.to_str().unwrap();
    let run = |extra: &[&str]| lapush(&[&["--data", missing, "--query", QUERY], extra].concat());
    assert_fails_with(&run(&["--method", "bogus"]), "unknown --method `bogus`");
    assert_fails_with(
        &run(&["--top-k", "abc"]),
        "--top-k needs a positive integer",
    );
    for method in ["exact", "bounds", "mc", "sql", "plans"] {
        assert_fails_with(
            &run(&["--method", method, "--top-k", "1"]),
            "--top-k only applies to --method diss",
        );
    }
    for method in ["diss", "exact", "bounds", "sql", "plans"] {
        assert_fails_with(
            &run(&["--method", method, "--samples", "10"]),
            "--samples only applies to --method mc",
        );
        assert_fails_with(
            &run(&["--method", method, "--threads", "2"]),
            "--threads only applies to --method mc",
        );
    }
}

#[test]
fn mc_estimates_are_the_same_at_every_thread_count() {
    let dir = probabilistic_dir("threads-mc");
    let args = ["--data", dir.to_str().unwrap(), "--query", QUERY];
    let mc = |threads: &str| {
        let flags = ["--method", "mc", "--samples", "500", "--threads", threads];
        stdout(&lapush(&[&args[..], &flags].concat()))
    };
    assert_eq!(mc("2"), mc("1"));
}

#[test]
fn bounds_prints_an_interval_per_answer() {
    let dir = data_dir(
        "bounds",
        &[
            ("R.csv", "1,2,0.5\n1,3,0.5\n2,3,0.8\n"),
            ("T.csv", "2,0.9\n3,0.4\n"),
        ],
    );
    let args = ["--data", dir.to_str().unwrap(), "--query", QUERY];
    let out = stdout(&lapush(&[&args[..], &["--method", "bounds"]].concat()));
    // Answer 1 has two derivations; the best is 0.5·0.9, and the query is
    // safe, so the upper end is exact: 1 − (1 − 0.45)(1 − 0.5·0.4).
    assert_eq!(out, "1\t[0.450000, 0.560000]\n2\t[0.320000, 0.320000]\n");
}

#[test]
fn plans_prints_the_minimal_plans_without_loading_data() {
    // Example 17: two minimal plans, one per minimal safe dissociation.
    let out = stdout(&lapush(&[
        "--method",
        "plans",
        "--query",
        "q :- R(x), S(x), T(x, y), U(y)",
    ]));
    assert_eq!(
        out,
        "2 minimal plan(s):\n\
         \x20 π-[x] ⋈[R(x), S(x), π-[y] ⋈[T(x,y), U(y)]]\n\
         \x20 π-[y] ⋈[π-[x] ⋈[R(x), S(x), T(x,y)], U(y)]\n"
    );

    // Example 29 (Figure 4a): six minimal plans, compared as a set.
    let out = stdout(&lapush(&[
        "--method",
        "plans",
        "--query",
        "q :- R(x, z), S(y, u), T(z), U(u), M(x, y, z, u)",
    ]));
    let mut lines = out.lines();
    assert_eq!(lines.next(), Some("6 minimal plan(s):"));
    let mut plans: Vec<&str> = lines.collect();
    plans.sort_unstable();
    let mut want = [
        "  π-[z] ⋈[π-[x] ⋈[R(x,z), π-[u] ⋈[π-[y] ⋈[S(y,u), M(x,y,z,u)], U(u)]], T(z)]",
        "  π-[u] ⋈[π-[z] ⋈[π-[x] ⋈[R(x,z), π-[y] ⋈[S(y,u), M(x,y,z,u)]], T(z)], U(u)]",
        "  π-[z] ⋈[π-[u] ⋈[π-[x] ⋈[R(x,z), π-[y] ⋈[S(y,u), M(x,y,z,u)]], U(u)], T(z)]",
        "  π-[u] ⋈[π-[z] ⋈[π-[y] ⋈[π-[x] ⋈[R(x,z), M(x,y,z,u)], S(y,u)], T(z)], U(u)]",
        "  π-[z] ⋈[π-[u] ⋈[π-[y] ⋈[π-[x] ⋈[R(x,z), M(x,y,z,u)], S(y,u)], U(u)], T(z)]",
        "  π-[u] ⋈[π-[y] ⋈[π-[z] ⋈[π-[x] ⋈[R(x,z), M(x,y,z,u)], T(z)], S(y,u)], U(u)]",
    ];
    want.sort_unstable();
    assert_eq!(plans, want);
}

#[test]
fn a_query_with_more_than_64_atoms_is_refused() {
    // Atom masks are 64 bits wide: a 65th atom used to alias the first and
    // drop out of every plan, printing a wrong score.
    let files: Vec<(String, &str)> = (0..65)
        .map(|i| {
            (
                format!("R{i}.csv"),
                if i == 64 { "1,0.1\n" } else { "1,0.99\n" },
            )
        })
        .collect();
    let files: Vec<(&str, &str)> = files.iter().map(|(f, t)| (f.as_str(), *t)).collect();
    let dir = data_dir("too_many_atoms", &files);
    let atoms: Vec<String> = (0..65).map(|i| format!("R{i}(x)")).collect();
    let query = format!("q(x) :- {}", atoms.join(", "));
    assert_fails_with(
        &lapush(&["--data", dir.to_str().unwrap(), "--query", &query]),
        "query parse error: queries support at most 64 atoms",
    );
}

/// A data directory that fails to load says which file is at fault.
fn assert_load_fails_naming(dir: &std::path::Path, file: &str, message: &str) {
    assert_fails_with(
        &lapush(&["--data", dir.to_str().unwrap(), "--query", QUERY]),
        &format!("{}: {message}", dir.join(file).display()),
    );
}

#[test]
fn an_empty_file_among_many_is_named() {
    let dir = data_dir(
        "empty_file",
        &[
            ("R.csv", "1,2,0.5\n"),
            ("S.csv", "# nothing\n"),
            ("T.csv", "2,0.9\n"),
        ],
    );
    assert_load_fails_naming(&dir, "S.csv", "no data rows");
}

#[test]
fn a_bad_cell_is_named_with_its_file_and_line() {
    let dir = data_dir(
        "bad_cell",
        &[("R.csv", "1,2,0.5\n"), ("T.csv", "2,0.9\n3,0.4\n4,often\n")],
    );
    assert_load_fails_naming(&dir, "T.csv", "line 3: bad probability `often`");
}
