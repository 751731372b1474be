//! Figure 11: RowClone - CLFLUSH execution-time speedup for Copy (a) and
//! Init (b): dirty source lines are written back and clean target lines
//! invalidated *inside* the measured region — RowClone's worst case.
//!
//! Paper: with/without time scaling Copy improves 4.04×/3.1× on average
//! (6.62×/4.83× max); Init degrades performance below ≈256 KB and improves
//! modestly above; benefits grow with data size because coherence overheads
//! overlap with more accesses.

use easydram_bench::rowclone_speedup_figure;
use easydram_workloads::micro::FlushMode;

fn main() {
    let acc = rowclone_speedup_figure(FlushMode::ClFlush, "Figure 11", 2);
    println!(
        "\nShape checks (paper): CLFLUSH speedups far below No-Flush; \
         Init degrades (<1x) at small sizes; benefit grows with size."
    );
    let small = acc[4].first().copied().unwrap_or(0.0);
    let large = acc[4].last().copied().unwrap_or(0.0);
    println!("  TS Init: {small:.2}x at smallest vs {large:.2}x at largest size");
}
