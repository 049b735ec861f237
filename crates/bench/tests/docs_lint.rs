//! First-party documentation link checker: every relative Markdown
//! link in the repository's `README.md` and `docs/*.md` must resolve to
//! a real file, without taking any dependency on an external link
//! checker.
//!
//! ```sh
//! cargo test -p smlc-bench --test docs_lint
//! ```
//!
//! Checked: inline links `[text](target)` whose target is a relative
//! path, resolved against the directory of the file containing the
//! link; a `#fragment` suffix is stripped first. Skipped: absolute
//! URLs (`http://`, `https://`, `mailto:`), pure in-page anchors
//! (`#...`), and fenced code blocks (link-shaped text inside ``` ... ```
//! is code, not a link). A failure lists every broken link.

use std::path::{Path, PathBuf};

/// Extracts `(line_number, target)` for every inline Markdown link in
/// `text`, ignoring fenced code blocks and inline code spans.
fn links(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for (ln, line) in text.lines().enumerate() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("```") || trimmed.starts_with("~~~") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        // Strip inline code spans so `[not](a-link)` in backticks is
        // not reported.
        let mut stripped = String::with_capacity(line.len());
        let mut in_code = false;
        for c in line.chars() {
            if c == '`' {
                in_code = !in_code;
            } else if !in_code {
                stripped.push(c);
            }
        }
        // Scan `](target)` occurrences; markdown images `![...](...)`
        // resolve identically.
        let mut i = 0;
        while let Some(k) = stripped[i..].find("](") {
            let start = i + k + 2;
            let Some(rel_end) = stripped[start..].find(')') else {
                break;
            };
            let target = &stripped[start..start + rel_end];
            // Inside `(...)` a link may carry a quoted title: `(a.md "t")`.
            let target = target.split_whitespace().next().unwrap_or("");
            out.push((ln + 1, target.to_owned()));
            i = start + rel_end + 1;
        }
    }
    out
}

/// Whether a link target is a relative file path this linter verifies.
fn is_relative_file(target: &str) -> bool {
    !(target.is_empty()
        || target.starts_with('#')
        || target.starts_with("http://")
        || target.starts_with("https://")
        || target.starts_with("mailto:")
        || target.starts_with('/'))
}

/// Checks one Markdown file; appends `file:line: target` for every
/// broken relative link.
fn check_file(path: &Path, broken: &mut Vec<String>) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            broken.push(format!("{}: unreadable: {e}", path.display()));
            return;
        }
    };
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    for (line, target) in links(&text) {
        if !is_relative_file(&target) {
            continue;
        }
        let file_part = target.split('#').next().unwrap_or("");
        if file_part.is_empty() {
            continue;
        }
        let resolved = dir.join(file_part);
        if !resolved.exists() {
            broken.push(format!(
                "{}:{line}: broken relative link `{target}` (resolved {})",
                path.display(),
                resolved.display()
            ));
        }
    }
}

#[test]
fn relative_links_resolve() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("the crate sits two levels below the repository root");
    let mut files: Vec<PathBuf> = vec![root.join("README.md")];
    let mut md: Vec<PathBuf> = std::fs::read_dir(root.join("docs"))
        .expect("docs/ is readable")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "md"))
        .collect();
    md.sort();
    files.extend(md);

    let mut broken = Vec::new();
    for f in &files {
        check_file(f, &mut broken);
    }
    assert!(
        broken.is_empty(),
        "{} broken link(s):\n  {}",
        broken.len(),
        broken.join("\n  ")
    );
}
