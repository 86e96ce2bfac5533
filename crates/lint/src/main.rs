//! CLI for `ale-lint`.
//!
//! ```text
//! ale-lint [--deny] [--json] [--baseline <path>] [--effects]
//!          [--callgraph-dot <path>] [--capacity <r,w>] [PATH ...]
//! ```
//!
//! With no `PATH` arguments the default workspace surface is linted
//! (`crates/*/src` and `tests/`) and the checked-in `lint-baseline.txt`
//! is applied. Explicit paths (files or directories) are linted as-is —
//! used by the fixture tests and for spot checks.
//!
//! * `--effects` prints the per-function transitive effect sets instead of
//!   findings (one line per call-graph node, sorted by file and line;
//!   SWOpt roots are tagged `[swopt]`).
//! * `--callgraph-dot <path>` writes the resolved call graph as Graphviz.
//! * `--capacity <r,w>` overrides the `htm-footprint` backend limits
//!   (estimated distinct read/write cells; default mirrors the haswell
//!   profile, 4096,448).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: ale-lint [--deny] [--json] [--baseline <path>] [--effects] \
         [--callgraph-dot <path>] [--capacity <r,w>] [PATH ...]"
    );
    std::process::exit(2);
}

fn parse_capacity(s: &str) -> Option<ale_lint::Capacity> {
    let (r, w) = s.split_once(',')?;
    Some(ale_lint::Capacity {
        reads: r.trim().parse().ok()?,
        writes: w.trim().parse().ok()?,
    })
}

fn main() -> ExitCode {
    let mut deny = false;
    let mut json = false;
    let mut effects = false;
    let mut baseline_path: Option<PathBuf> = None;
    let mut dot_path: Option<PathBuf> = None;
    let mut capacity = ale_lint::Capacity::DEFAULT;
    let mut paths: Vec<PathBuf> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--json" => json = true,
            "--effects" => effects = true,
            "--baseline" => match args.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => usage(),
            },
            "--callgraph-dot" => match args.next() {
                Some(p) => dot_path = Some(PathBuf::from(p)),
                None => usage(),
            },
            "--capacity" => match args.next().as_deref().and_then(parse_capacity) {
                Some(c) => capacity = c,
                None => usage(),
            },
            "--help" | "-h" => usage(),
            flag if flag.starts_with("--") => usage(),
            path => paths.push(PathBuf::from(path)),
        }
    }

    let root = ale_lint::default_workspace_root();

    let files: Vec<PathBuf> = if paths.is_empty() {
        ale_lint::workspace_files(&root)
    } else {
        let mut files = Vec::new();
        for p in &paths {
            if p.is_dir() {
                let mut sub = Vec::new();
                collect(p, &mut sub);
                files.extend(sub);
            } else {
                files.push(p.clone());
            }
        }
        files
    };

    let analysis = match ale_lint::analyze_files(&root, &files, !paths.is_empty()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ale-lint: io error: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(dot) = &dot_path {
        if let Err(e) = std::fs::write(dot, analysis.callgraph_dot()) {
            eprintln!("ale-lint: cannot write {}: {e}", dot.display());
            return ExitCode::from(2);
        }
    }

    if effects {
        println!("{}", analysis.effects_dump());
        return ExitCode::SUCCESS;
    }

    let findings = analysis.findings(capacity);

    // The baseline applies to the default workspace walk automatically and
    // to explicit paths only when requested via --baseline.
    let baseline = match (&baseline_path, paths.is_empty()) {
        (Some(p), _) => ale_lint::load_baseline(p),
        (None, true) => ale_lint::load_baseline(&root.join("lint-baseline.txt")),
        (None, false) => Default::default(),
    };
    let findings = ale_lint::apply_baseline(findings, &baseline);

    if json {
        println!("{}", ale_lint::to_json(&findings));
    } else {
        for f in &findings {
            println!("{f}");
        }
        println!(
            "ale-lint: {} finding(s) in {} file(s)",
            findings.len(),
            files.len()
        );
    }

    if deny && !findings.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
