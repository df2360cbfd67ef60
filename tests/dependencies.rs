//! The workspace builds offline from its own crates plus one vendored
//! stand-in (`proptest`, which the property tests run on). This test
//! reads the root `Cargo.lock` and fails if any other package appears,
//! so a new external dependency, or a stand-in that does no work, is a
//! deliberate change rather than a silent one.

use std::path::Path;

/// `(name, has_source)` for every `[[package]]` in a `Cargo.lock`.
fn locked_packages(lock: &str) -> Vec<(String, bool)> {
    lock.split("[[package]]")
        .skip(1)
        .map(|block| {
            let name = block
                .lines()
                .find_map(|l| l.strip_prefix("name = "))
                .expect("every package has a name")
                .trim_matches('"')
                .to_string();
            let has_source = block.lines().any(|l| l.starts_with("source = "));
            (name, has_source)
        })
        .collect()
}

#[test]
fn lockfile_holds_only_workspace_crates_and_proptest() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.lock");
    let lock = std::fs::read_to_string(&path).expect("root Cargo.lock is readable");
    let packages = locked_packages(&lock);
    assert!(
        packages.iter().any(|(name, _)| name == "acm-exec"),
        "lockfile parse found no workspace crates: {packages:?}"
    );
    let foreign: Vec<&str> = packages
        .iter()
        .filter(|(name, has_source)| {
            *has_source || !(name == "proptest" || name == "acm" || name.starts_with("acm-"))
        })
        .map(|(name, _)| name.as_str())
        .collect();
    assert!(
        foreign.is_empty(),
        "Cargo.lock lists packages outside the workspace and proptest: {foreign:?}"
    );
}
