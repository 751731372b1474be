//! Figure 10: RowClone - No Flush execution-time speedup for Copy (a) and
//! Init (b) over increasing data sizes, normalized to each configuration's
//! CPU baseline.
//!
//! Paper averages (maxima): without time scaling Copy 306.7× (423.1×), Init
//! 36.7× (51.3×); with time scaling Copy 15.0× (17.4×), Init 1.8× (2.0×);
//! Ramulator 2.0 Copy 27.2× (33.0×), Init 17.3× (21.0×).

use easydram_bench::{geomean, rowclone_speedup_figure};
use easydram_workloads::micro::FlushMode;

fn main() {
    let acc = rowclone_speedup_figure(FlushMode::NoFlush, "Figure 10", 1);
    println!(
        "\nShape check (paper): NoTS >> TS for both; Ramulator > TS; \
         skew factor Copy NoTS/TS = {:.1}x (paper ~20x)",
        geomean(&acc[0]) / geomean(&acc[1]).max(1e-9)
    );
}
