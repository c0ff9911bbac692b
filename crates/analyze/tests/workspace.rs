//! The analyzer over this workspace: every finding is printed, and any
//! finding fails tier-1.

use std::path::Path;

use ohpc_analyze::{rules, source};

#[test]
fn the_workspace_has_no_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = source::load_workspace(&root).unwrap();
    let diags = rules::run_all(&files);
    for d in &diags {
        println!("{d}");
    }
    assert!(diags.is_empty(), "{} findings in {} files (listed above)", diags.len(), files.len());
}
