//! `compare <dir> <setA> <setB>`: the table behind `repeat.sh`. Reads the
//! result lines of two sets of runs (`<dir>/<set>-<workload>-e2e.txt` and
//! `-layer.txt`), prints every end-to-end metric side by side with its
//! bound, and fails if any disagrees beyond its bound or any in-process
//! count differs.

use lapush_benchmark::json::Json;
use lapush_benchmark::spec::WORKLOADS;
use lapush_benchmark::stats::worsening;
use std::path::Path;

/// The metrics of a run's last output line.
fn metrics(path: &Path) -> Result<Vec<(String, f64, String)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let last = text
        .lines()
        .last()
        .ok_or_else(|| format!("{}: empty", path.display()))?;
    let doc = Json::parse(last).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{}: the run reports failed checks", path.display()));
    }
    let field = |m: &Json, key: &str| m.get(key).cloned().unwrap_or(Json::Null);
    Ok(doc
        .get("metrics")
        .map(Json::members)
        .unwrap_or_default()
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                field(m, "value").as_f64().unwrap_or(f64::NAN),
                field(m, "unit").as_str().unwrap_or("").to_string(),
            )
        })
        .collect())
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let [_, dir, a, b] = argv.as_slice() else {
        eprintln!("usage: compare <dir> <setA> <setB>");
        std::process::exit(2);
    };
    let bench = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("read BENCHMARK.json");
    let bench = Json::parse(&bench).expect("parse BENCHMARK.json");
    let declared = bench.get("end_to_end").map(Json::items).unwrap_or_default();

    let mut bad = Vec::new();
    println!("| workload | metric | unit | {a} | {b} | difference | bound | |");
    println!("|---|---|---|---:|---:|---:|---:|---|");
    for workload in WORKLOADS {
        let file =
            |set: &str, kind: &str| Path::new(dir).join(format!("{set}-{workload}-{kind}.txt"));
        let load = |set: &str, kind: &str| {
            metrics(&file(set, kind)).unwrap_or_else(|e| {
                eprintln!("compare: {e}");
                std::process::exit(1);
            })
        };
        let (ea, eb) = (load(a, "e2e"), load(b, "e2e"));
        for ((name, va, unit), (_, vb, _)) in ea.iter().zip(&eb) {
            let spec = declared
                .iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
                .expect("declared metric");
            let bound = spec.get("bound").and_then(Json::as_f64).expect("bound");
            let higher = spec.get("better").and_then(Json::as_str) == Some("higher");
            // Two runs of the same code: neither may be worse than the other
            // by more than the bound.
            let diff = worsening(*va, *vb, higher).max(worsening(*vb, *va, higher));
            let ok = diff <= bound;
            println!(
                "| {workload} | {name} | {unit} | {va:.4} | {vb:.4} | {:.1}% | {:.0}% | {} |",
                diff * 100.0,
                bound * 100.0,
                if ok { "" } else { "DISAGREE" }
            );
            if !ok {
                bad.push(format!("{workload} {name}: {va} vs {vb}"));
            }
        }
        // Counts made in-process must repeat exactly; the serve.* counters
        // depend on how the two clients interleave and are only reported.
        let (la, lb) = (load(a, "layer"), load(b, "layer"));
        for ((name, va, unit), (_, vb, _)) in la.iter().zip(&lb) {
            if unit == "count" && !name.starts_with("serve.") && va != vb {
                bad.push(format!("{workload} {name}: count {va} vs {vb}"));
            }
        }
    }
    let counts = "in-process counts (per_layer metrics in `count`, serve.* excepted)";
    if bad.is_empty() {
        println!("\nevery end-to-end metric agrees within its bound; {counts} are identical");
    } else {
        println!("\nDISAGREEMENTS:");
        bad.iter().for_each(|b| println!("- {b}"));
        std::process::exit(1);
    }
}
