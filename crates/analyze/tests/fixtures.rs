//! Self-testing fixture corpus: every file under `fixtures/` declares the
//! findings it must produce with trailing `//~ <rule-id> [<rule-id>…]`
//! markers, and this harness asserts the analyzer emits *exactly* those —
//! same file, same line, same rule, nothing extra, nothing missing.
//!
//! Layout:
//!
//! * a top-level `fixtures/<name>.rs` is analyzed alone;
//! * a directory `fixtures/<name>/` is analyzed as one workspace (its files
//!   see each other's symbols — cross-crate fixtures live here);
//! * the first line `//! fixture-crate: <name>` sets the simulated Cargo
//!   package (crate-gated rules like bounded-recv key on it; default
//!   `ohpc-fixture` stays outside every gated rule).
//!
//! A fixture with no markers is a *negative* fixture: the analyzer must stay
//! silent on it. Both directions keep the rules honest — a rule that stops
//! firing breaks a positive fixture, one that starts overreaching breaks a
//! negative one.

use std::collections::BTreeMap;
use std::path::Path;

use ohpc_analyze::rules;
use ohpc_analyze::source::SourceFile;

/// (file label, line, rule) — the comparison key for one finding.
type Key = (String, u32, &'static str);

fn fixture_crate(src: &str) -> String {
    src.lines()
        .next()
        .and_then(|l| l.trim().strip_prefix("//! fixture-crate:"))
        .map(|n| n.trim().to_string())
        .unwrap_or_else(|| "ohpc-fixture".to_string())
}

/// Parse `//~ rule [rule…]` markers into expected (line, rule) pairs.
fn expected_of(label: &str, src: &str) -> Vec<Key> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        let Some(rest) = line.split("//~").nth(1) else { continue };
        for word in rest.split_whitespace() {
            let Some(&rule) = rules::ALL_RULES.iter().find(|&&r| r == word) else {
                panic!("{label}:{}: unknown rule `{word}` in //~ marker", i + 1);
            };
            out.push((label.to_string(), i as u32 + 1, rule));
        }
    }
    out
}

/// Analyze one fixture (a set of files forming a mini-workspace) and check
/// its findings against the markers.
fn check_fixture(name: &str, sources: &[(String, String)]) {
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(label, src)| {
            SourceFile::from_source(label, &fixture_crate(src), false, src)
        })
        .collect();
    let mut expected: Vec<Key> = sources
        .iter()
        .flat_map(|(label, src)| expected_of(label, src))
        .collect();
    let mut got: Vec<Key> = rules::run_all(&files)
        .into_iter()
        .map(|d| (d.file, d.line, d.rule))
        .collect();
    expected.sort();
    got.sort();
    if expected != got {
        let fmt = |v: &[Key]| {
            v.iter()
                .map(|(f, l, r)| format!("  {f}:{l} [{r}]"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        panic!(
            "fixture `{name}` mismatch\nexpected:\n{}\ngot:\n{}",
            fmt(&expected),
            fmt(&got)
        );
    }
}

fn read(p: &Path) -> String {
    std::fs::read_to_string(p).unwrap_or_else(|e| panic!("{}: {e}", p.display()))
}

#[test]
fn fixture_corpus() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    // BTreeMap for deterministic order in failure output.
    let mut fixtures: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
    for entry in std::fs::read_dir(&dir).expect("fixtures/ directory") {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        if path.is_dir() {
            let mut members = Vec::new();
            for sub in std::fs::read_dir(&path).unwrap() {
                let sub = sub.unwrap().path();
                if sub.extension().is_some_and(|e| e == "rs") {
                    let label = format!(
                        "fixtures/{name}/{}",
                        sub.file_name().unwrap().to_string_lossy()
                    );
                    members.push((label, read(&sub)));
                }
            }
            members.sort();
            fixtures.insert(name, members);
        } else if path.extension().is_some_and(|e| e == "rs") {
            fixtures.insert(name.clone(), vec![(format!("fixtures/{name}"), read(&path))]);
        }
    }
    assert!(!fixtures.is_empty(), "no fixtures found in {}", dir.display());
    for (name, sources) in &fixtures {
        check_fixture(name, sources);
    }
}
