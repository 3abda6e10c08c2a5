//! Sweep manifests: a named suite's cells, looked up in the experiment
//! crate's one suite table ([`experiments::cell::SUITES`]) so the manifest
//! can never drift from the harness.

use experiments::cell::{suite_cells, Cell};

/// A named sweep: the unit `propdiff-run` executes.
pub struct Manifest {
    /// The suite name this manifest was built from.
    pub suite: String,
    /// Cells in canonical (merge) order.
    pub cells: Vec<Box<dyn Cell>>,
}

/// Builds the manifest for a suite name, or `None` for an unknown name.
///
/// `figures` covers Figures 1–5 + Table 1; `ablations` the eight ablation
/// studies plus the dynamics reconvergence study, the LSTF rank probe, and
/// the online conformance-monitor study; `mesh` the fat-tree decomposition
/// study; `all` everything; the remaining names select one experiment each.
pub fn suite(name: &str) -> Option<Manifest> {
    Some(Manifest {
        suite: name.to_string(),
        cells: suite_cells(name)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use experiments::cell::suite_names;

    #[test]
    fn unknown_suites_do_not_resolve() {
        assert!(suite("nope").is_none());
        assert_eq!(suite("plr").expect("plr suite").suite, "plr");
    }

    /// Pinned at the commit before the suites moved behind [`Cell`]: the
    /// suite name order and every `all` cell's id and canonical params.
    /// Cache keys, worker job indices and the merged document's cell
    /// order all hang off these bytes.
    #[test]
    fn suite_names_ids_and_params_are_pinned() {
        let mut h = crate::fingerprint::Fnv::new();
        for name in suite_names() {
            h.write(name.as_bytes());
            h.write(b"\n");
        }
        for cell in &suite("all").unwrap().cells {
            h.write(cell.id().as_bytes());
            h.write(b"\n");
            h.write(cell.params().serialize().as_bytes());
            h.write(b"\n");
        }
        assert_eq!(h.finish(), 0xd77d_f240_e653_37f6);
    }
}
