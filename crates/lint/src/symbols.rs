//! Cross-crate symbol graph: every named `fn`/method item in the
//! workspace with a canonical path, plus the resolution indexes the
//! call-graph layer queries.
//!
//! Canonical paths are `crate::modules::Type::name`, where the crate
//! name is the directory under `crates/` (`"dui"` for the workspace
//! root `src/`), the module path combines the file's path below
//! `src/` with any inline `mod` blocks, and `Type` appears only for
//! methods. Symbols are sorted by `(path, file, line, col)`, so
//! symbol *ids* (indexes into [`SymbolGraph::symbols`]) are
//! path-ordered — the property that makes worklist iteration and
//! witness-path selection in [`crate::taint`] deterministic.

use crate::parse::ParsedFile;
use std::collections::BTreeMap;

/// One function or method symbol in the workspace.
#[derive(Debug, Clone)]
pub struct Symbol {
    /// Canonical display path, e.g. `supervisord::pipeline::run`.
    pub path: String,
    /// Crate name (directory under `crates/`; `"dui"` for root src/).
    pub crate_name: String,
    /// Leading path segments — crate + modules, without `Type::name`.
    /// Used for `self`/`super`/bare-name resolution.
    pub mod_segs: Vec<String>,
    /// The item's bare name.
    pub name: String,
    /// Self type when the item is a method.
    pub self_type: Option<String>,
    /// Index of the defining file in the parsed-file slice.
    pub file_idx: u32,
    /// Index of the item within its file's item list.
    pub item_idx: u32,
    /// 1-based line of the definition.
    pub line: u32,
    /// 1-based column of the definition.
    pub col: u32,
    /// Test-gated: `#[cfg(test)]` region or a `tests/`, `benches/`,
    /// `examples/` harness file.
    pub cfg_test: bool,
    /// Lives under a library source root (`src/`, `crates/*/src/`,
    /// excluding `src/bin/`)?
    pub library: bool,
}

/// The workspace symbol table with deterministic lookup indexes.
#[derive(Debug, Default)]
pub struct SymbolGraph {
    /// Symbols sorted by `(path, file, line, col)`; ids are indexes.
    pub symbols: Vec<Symbol>,
    by_path: BTreeMap<String, Vec<u32>>,
    by_suffix2: BTreeMap<String, Vec<u32>>,
    by_fn_name: BTreeMap<String, Vec<u32>>,
    by_method: BTreeMap<String, Vec<u32>>,
    by_item: BTreeMap<(u32, u32), u32>,
}

/// Crate name for a repo-relative path: the directory under
/// `crates/`, or `"dui"` for the workspace root `src/`.
pub fn crate_of(path: &str) -> String {
    if let Some(rest) = path.strip_prefix("crates/") {
        if let Some((name, _)) = rest.split_once('/') {
            return name.to_string();
        }
    }
    "dui".to_string()
}

/// Module path derived from a file path (below the crate), plus
/// whether the file is a test/bench/example harness.
fn module_of(path: &str) -> (Vec<String>, bool) {
    let rest = match path.strip_prefix("crates/") {
        Some(r) => r.split_once('/').map_or("", |(_, tail)| tail),
        None => path,
    };
    let harness = rest.starts_with("tests/")
        || rest.starts_with("benches/")
        || rest.starts_with("examples/");
    let rest = rest.strip_prefix("src/").unwrap_or(rest);
    let rest = rest.strip_suffix(".rs").unwrap_or(rest);
    let mut segs: Vec<String> = rest
        .split('/')
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    if matches!(segs.last().map(String::as_str), Some("lib" | "main" | "mod")) {
        segs.pop();
    }
    (segs, harness)
}

fn is_library(path: &str) -> bool {
    let in_src =
        path.starts_with("src/") || (path.starts_with("crates/") && path.contains("/src/"));
    in_src && !path.contains("/src/bin/")
}

impl SymbolGraph {
    /// Build the table from parsed files (which must already be in
    /// path-sorted order for deterministic ids).
    pub fn build(files: &[ParsedFile<'_>]) -> SymbolGraph {
        let mut symbols: Vec<Symbol> = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            let crate_name = crate_of(&f.scan.path);
            let (fmod, harness) = module_of(&f.scan.path);
            let library = is_library(&f.scan.path);
            for (ii, item) in f.items.iter().enumerate().skip(1) {
                let mut mod_segs = vec![crate_name.clone()];
                mod_segs.extend(fmod.iter().cloned());
                mod_segs.extend(item.module.iter().cloned());
                let mut segs = mod_segs.clone();
                if let Some(t) = &item.self_type {
                    segs.push(t.clone());
                }
                segs.push(item.name.clone());
                symbols.push(Symbol {
                    path: segs.join("::"),
                    crate_name: crate_name.clone(),
                    mod_segs,
                    name: item.name.clone(),
                    self_type: item.self_type.clone(),
                    file_idx: fi as u32,
                    item_idx: ii as u32,
                    line: item.line,
                    col: item.col,
                    cfg_test: item.cfg_test || harness,
                    library,
                });
            }
        }
        symbols.sort_by(|a, b| {
            (a.path.as_str(), a.file_idx, a.line, a.col)
                .cmp(&(b.path.as_str(), b.file_idx, b.line, b.col))
        });

        let mut g = SymbolGraph {
            symbols,
            ..SymbolGraph::default()
        };
        for (id, s) in g.symbols.iter().enumerate() {
            let id = id as u32;
            g.by_path.entry(s.path.clone()).or_default().push(id);
            let segs: Vec<&str> = s.path.split("::").collect();
            if segs.len() >= 2 {
                let suf = segs[segs.len() - 2..].join("::");
                g.by_suffix2.entry(suf).or_default().push(id);
            }
            if s.self_type.is_none() {
                g.by_fn_name.entry(s.name.clone()).or_default().push(id);
            } else {
                g.by_method.entry(s.name.clone()).or_default().push(id);
            }
            g.by_item.insert((s.file_idx, s.item_idx), id);
        }
        g
    }

    /// Symbols with exactly this canonical path.
    pub fn lookup_path(&self, path: &str) -> Option<&[u32]> {
        self.by_path.get(path).map(Vec::as_slice)
    }

    /// Symbols whose last two path segments match `suffix`
    /// (`Type::name` or `module::name`) — robust to re-exports.
    pub fn lookup_suffix2(&self, suffix: &str) -> Option<&[u32]> {
        self.by_suffix2.get(suffix).map(Vec::as_slice)
    }

    /// Free functions with this bare name.
    pub fn lookup_fn(&self, name: &str) -> Option<&[u32]> {
        self.by_fn_name.get(name).map(Vec::as_slice)
    }

    /// Methods (items with a self type) with this bare name.
    pub fn lookup_method(&self, name: &str) -> Option<&[u32]> {
        self.by_method.get(name).map(Vec::as_slice)
    }

    /// Symbol id for `(file index, item index)`, if the item is named.
    pub fn id_of(&self, file_idx: u32, item_idx: u32) -> Option<u32> {
        self.by_item.get(&(file_idx, item_idx)).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::ParsedFile;

    #[test]
    fn paths_combine_crate_file_mods_and_type() {
        let srcs = [
            (
                "crates/supervisord/src/pipeline/engine.rs",
                "pub fn run() {}\nimpl Engine { fn step(&mut self) {} }\n",
            ),
            ("src/lib.rs", "pub fn top() {}\n"),
            ("crates/alpha/src/lib.rs", "mod deep { pub fn f() {} }\n"),
        ];
        let files: Vec<ParsedFile<'_>> =
            srcs.iter().map(|(p, s)| ParsedFile::parse(p, s)).collect();
        let g = SymbolGraph::build(&files);
        let paths: Vec<&str> = g.symbols.iter().map(|s| s.path.as_str()).collect();
        assert!(paths.contains(&"supervisord::pipeline::engine::run"));
        assert!(paths.contains(&"supervisord::pipeline::engine::Engine::step"));
        assert!(paths.contains(&"dui::top"));
        assert!(paths.contains(&"alpha::deep::f"));
        assert!(g.lookup_suffix2("Engine::step").is_some());
        assert!(g.lookup_fn("run").is_some());
        assert!(g.lookup_method("step").is_some());
    }

    #[test]
    fn harness_files_are_test_gated() {
        let srcs = [("crates/x/tests/prop.rs", "fn helper() {}\n")];
        let files: Vec<ParsedFile<'_>> =
            srcs.iter().map(|(p, s)| ParsedFile::parse(p, s)).collect();
        let g = SymbolGraph::build(&files);
        assert!(g.symbols.iter().all(|s| s.cfg_test));
        assert!(g.symbols.iter().all(|s| !s.library));
    }
}
