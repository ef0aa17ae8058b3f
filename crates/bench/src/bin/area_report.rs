//! Section V-A area and power-density claims:
//!
//! * a 16x16 Dalorex with 4.2 MB per tile occupies roughly 305 mm², an
//!   order of magnitude less silicon than the ~3616 mm² of 16 HMC cubes;
//! * power density stays below 300 mW/mm², far under the ~1.5 W/mm²
//!   air-cooling limit;
//! * the torus NoC costs ~0.2% extra area over the mesh and the ruche-torus
//!   ~1.2% more (Section V-C), on 4 MB tiles.
//!
//! Usage:
//! ```text
//! cargo run -p dalorex-bench --release --bin area_report [-- --csv]
//! ```

use dalorex_bench::cli::{CommonFlag, FigureCli};
use dalorex_bench::report::Table;
use dalorex_noc::Topology;
use dalorex_sim::area::{AreaConstants, AreaModel};

fn main() {
    let cli = FigureCli::parse(&[]);
    // An analytical table: no simulation for these flags to act on.
    cli.reject_unapplied(&CommonFlag::ALL);
    let tile_bytes = (4.2 * 1024.0 * 1024.0) as usize;
    let mut table = Table::new(vec![
        "configuration",
        "tiles",
        "MB/tile",
        "chip-mm2",
        "NoC-area-%",
        "power-density mW/mm2 @50W",
    ]);

    for (label, tiles, topology) in [
        ("Dalorex 16x16 (paper)", 256, Topology::Torus),
        ("Dalorex 16x16 mesh", 256, Topology::Mesh),
        (
            "Dalorex 64x64 ruche-torus",
            4096,
            Topology::TorusRuche { factor: 4 },
        ),
    ] {
        let model = AreaModel::new(AreaConstants::paper_7nm(), tiles, tile_bytes, topology);
        table.push_row(vec![
            label.to_string(),
            tiles.to_string(),
            "4.2".to_string(),
            format!("{:.0}", model.chip_mm2()),
            format!("{:.2}", model.noc_area_percent()),
            format!("{:.0}", model.power_density_mw_per_mm2(50.0)),
        ]);
    }

    table.print(
        "Section V-A area and power density (paper: ~305 mm2, < 300 mW/mm2; Tesseract aggregate ~3616 mm2)",
        cli.csv,
    );
}
