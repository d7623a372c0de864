//! DESIGN.md's experiment index names real files: every `ute-X::m` in
//! its "Implementing modules" column is `crates/X/src/m.rs`, and every
//! `--bin`/`--bench` in its "Regenerating target" column is a target of
//! `crates/bench`.

use std::path::Path;

/// The identifier `text` starts with.
fn ident(text: &str) -> &str {
    let end = text.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'));
    &text[..end.unwrap_or(text.len())]
}

/// Every `ute-X::m` and `ute-X::{m, n}` in `cell`, as `(X, m)`.
fn module_paths(cell: &str) -> Vec<(&str, &str)> {
    let mut out = Vec::new();
    for rest in cell.split("`ute-").skip(1) {
        let Some((krate, path)) = rest.split_once("::") else {
            continue;
        };
        if !krate.chars().all(|c| c.is_ascii_lowercase()) {
            continue;
        }
        match path.strip_prefix('{') {
            Some(list) => {
                let list = &list[..list.find('}').expect("closing brace")];
                out.extend(list.split(',').map(|m| (krate, m.trim())));
            }
            None => out.push((krate, ident(path))),
        }
    }
    out
}

#[test]
fn the_experiment_index_names_real_files() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).unwrap();
    let index = design
        .split("## Experiment index")
        .nth(1)
        .expect("DESIGN.md has an experiment index");
    let rows: Vec<Vec<&str>> = index
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .filter(|l| l.starts_with("| **"))
        .map(|l| l.split('|').map(str::trim).collect())
        .collect();
    let (mut modules, mut targets) = (0, 0);
    for row in &rows {
        assert_eq!(row.len(), 7, "five columns: {row:?}");
        let (exp, implementing, regenerating) = (row[1], row[4], row[5]);
        for (krate, m) in module_paths(implementing) {
            let file = root.join(format!("crates/{krate}/src/{m}.rs"));
            assert!(file.exists(), "{exp}: `ute-{krate}::{m}` names no file");
            modules += 1;
        }
        for (flag, dir) in [("--bin ", "src/bin"), ("--bench ", "benches")] {
            for name in regenerating.split(flag).skip(1).map(ident) {
                let file = root.join(format!("crates/bench/{dir}/{name}.rs"));
                assert!(file.exists(), "{exp}: `{flag}{name}` is no target");
                targets += 1;
            }
        }
    }
    assert_eq!(rows.len(), 10, "one row per table and figure");
    assert!(
        modules >= 15 && targets >= 7,
        "{modules} modules, {targets} targets"
    );
}
