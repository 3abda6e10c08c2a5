//! Pins every seed-swept cell outside the Study-A ratio grid — `fig3`,
//! `dynamics`, `monitor` and the `shootout`, `moderate-load`, `additive` and
//! `analytic` ablations — byte for byte: id, parameters, the merged result
//! and its metrics sidecar, plus each shard's partial and registry snapshot
//! for the three suites whose shard shape is fixed. FNV-1a over all of it
//! at a small scale. The digest was captured before these cells were moved
//! onto one shared per-seed shape; it must not be edited to make a change
//! pass.

use experiments::cell::{suite_cells, Cell};
use experiments::Scale;

const SCALE: Scale = Scale::Custom {
    punits: 400,
    nseeds: 2,
};

/// FNV-1a of every pinned cell at [`SCALE`] (debug and release agree).
const PINNED_SEED_CELLS: u64 = 0xb33e_de36_bfa2_4c5f;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[test]
fn seed_cells_are_pinned() {
    let mut h = 0xcbf2_9ce4_8422_2325;
    let mut cells = 0;
    for suite in [
        "fig3",
        "dynamics",
        "monitor",
        "shootout",
        "moderate-load",
        "additive",
        "analytic",
    ] {
        let shard_shape_is_fixed = matches!(suite, "fig3" | "dynamics" | "monitor");
        for cell in suite_cells(suite).expect("suite exists") {
            let cell: &dyn Cell = cell.as_ref();
            cells += 1;
            h = fnv1a(h, cell.id().as_bytes());
            h = fnv1a(h, cell.params().serialize().as_bytes());
            if shard_shape_is_fixed {
                for shard in 0..cell.shard_count(SCALE) {
                    let (partial, registry) = cell.execute_shard(SCALE, shard);
                    h = fnv1a(h, partial.serialize().as_bytes());
                    h = fnv1a(h, registry.as_deref().unwrap_or("-").as_bytes());
                }
            }
            let (merged, registry) = cell.execute(SCALE);
            h = fnv1a(h, merged.serialize().as_bytes());
            h = fnv1a(
                h,
                registry.map(|r| r.to_json()).unwrap_or_default().as_bytes(),
            );
        }
    }
    assert_eq!(cells, 2 + 4 + 8 + 1 + 4 + 1 + 1);
    assert_eq!(h, PINNED_SEED_CELLS, "seed cells moved: {h:#018x}");
}
