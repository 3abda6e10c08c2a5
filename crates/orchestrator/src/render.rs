//! The generated-docs pipeline: measured-number tables in EXPERIMENTS.md
//! live between `<!-- generated:NAME -->` / `<!-- /generated:NAME -->`
//! markers and are rewritten from merged results, so the document can
//! never silently drift from the code (CI regenerates and diffs).

use experiments::cell::{markdown_table, suite_names, SUITES};
use pdd::telemetry::json::Json;

use crate::manifest;

/// Renders the blocks of every suite with complete cells in a merged
/// results document as `(name, markdown body)` pairs, in suite-table order
/// — what `propdiff-run run` prints.
pub fn suite_blocks(merged: &Json) -> Vec<(String, String)> {
    SUITES
        .iter()
        .flat_map(|suite| suite.blocks)
        .filter_map(|(name, render)| Some((name.to_string(), render(merged)?)))
        .collect()
}

/// Every generated block a document may carry: the [`suite_blocks`] plus
/// the suite catalog.
pub fn generated_blocks(merged: &Json) -> Vec<(String, String)> {
    let mut blocks = suite_blocks(merged);
    blocks.push(("suite-catalog".to_string(), suite_catalog()));
    blocks
}

/// The suite catalog, derived from the manifest itself (not from results),
/// so hand-written cell totals in the docs can never drift from the code.
fn suite_catalog() -> String {
    let rows = suite_names()
        .iter()
        .map(|name| {
            let m = manifest::suite(name).expect("known suite");
            let shards: usize = m
                .cells
                .iter()
                .map(|c| c.shard_count(experiments::Scale::Quick))
                .sum();
            vec![
                format!("`{name}`"),
                format!("{}", m.cells.len()),
                format!("{shards}"),
            ]
        })
        .collect();
    markdown_table(&["suite", "cells", "shards (quick scale)"], rows)
}

/// Rewrites every generated block that appears in `doc`.
///
/// Returns the new document, or an error naming markers present in the
/// document that no renderer produced (a drift bug in itself) or
/// malformed marker pairs.
pub fn render_doc(doc: &str, merged: &Json) -> Result<String, String> {
    let blocks = generated_blocks(merged);
    let mut out = doc.to_string();
    for name in marker_names(doc)? {
        let Some((_, body)) = blocks.iter().find(|(n, _)| *n == name) else {
            return Err(format!("no renderer for generated block `{name}`"));
        };
        out = substitute(&out, &name, body)?;
    }
    Ok(out)
}

/// Lists the generated-block names appearing in a document, in order.
pub fn marker_names(doc: &str) -> Result<Vec<String>, String> {
    let mut names = Vec::new();
    for line in doc.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("<!-- generated:") {
            let name = rest
                .strip_suffix("-->")
                .ok_or_else(|| format!("malformed marker line `{line}`"))?
                .trim();
            names.push(name.to_string());
        }
    }
    Ok(names)
}

/// Replaces the contents between `<!-- generated:name -->` and
/// `<!-- /generated:name -->` with `body`.
pub fn substitute(doc: &str, name: &str, body: &str) -> Result<String, String> {
    let open = format!("<!-- generated:{name} -->");
    let close = format!("<!-- /generated:{name} -->");
    let start = doc
        .find(&open)
        .ok_or_else(|| format!("missing marker {open}"))?
        + open.len();
    let end = doc[start..]
        .find(&close)
        .ok_or_else(|| format!("missing closing marker {close}"))?
        + start;
    Ok(format!(
        "{}\n{}\n{}",
        &doc[..start],
        body.trim_end(),
        &doc[end..]
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn substitute_replaces_between_markers() {
        let doc = "before\n<!-- generated:x -->\nstale\n<!-- /generated:x -->\nafter\n";
        let out = substitute(doc, "x", "fresh").unwrap();
        assert_eq!(
            out,
            "before\n<!-- generated:x -->\nfresh\n<!-- /generated:x -->\nafter\n"
        );
        // Idempotent.
        assert_eq!(substitute(&out, "x", "fresh").unwrap(), out);
    }

    #[test]
    fn substitute_reports_missing_markers() {
        assert!(substitute("nothing here", "x", "body").is_err());
        assert!(substitute("<!-- generated:x -->\nno close", "x", "body").is_err());
    }

    #[test]
    fn marker_names_are_found_in_order() {
        let doc = "<!-- generated:b -->\n<!-- /generated:b -->\n<!-- generated:a -->\n<!-- /generated:a -->";
        assert_eq!(marker_names(doc).unwrap(), vec!["b", "a"]);
    }

    #[test]
    fn render_doc_rejects_unknown_blocks() {
        let merged = Json::obj(vec![("cells", Json::Arr(vec![]))]);
        let doc = "<!-- generated:bogus -->\n<!-- /generated:bogus -->";
        assert!(render_doc(doc, &merged).is_err());
    }

    #[test]
    fn suite_catalog_tracks_the_manifest() {
        let table = suite_catalog();
        let all = manifest::suite("all").unwrap();
        assert!(
            table.contains(&format!("| `all` | {} |", all.cells.len())),
            "catalog must list the real `all` cell count:\n{table}"
        );
        assert_eq!(
            table.lines().count(),
            suite_names().len() + 2,
            "one row per suite plus header"
        );
    }
}
