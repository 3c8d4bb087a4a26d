//! Table 4: estimated vs actual device memory for the streaming pipeline at
//! the paper's exact (N, k, r) rows, on the simulated device, next to this
//! repository's host working set.
//!
//! "The difference between the values is due to the use of CUFFT, which
//! creates temporaries in the midst of calculations" — our tracking
//! allocator charges those plan workspaces explicitly, reproducing the
//! estimated < actual gap. (These rows are allocator accounting only; no
//! real 2048³ buffers exist, exactly as Table 2/4 are capacity statements.)
//!
//! The host column is `LocalConvolver::footprint` on a real `SamplingPlan`
//! of each row (the `exp_table3` schedule around a hotspot at `N/2`): the
//! column-blocked pipeline's call arena, tile scratch and compressed
//! output. The device model holds the whole slab and every retained plane;
//! the host pipeline holds one column block of them at a time.

use std::sync::Arc;

use lcc_bench::{gb, schedule_for_r};
use lcc_core::{LocalConvolver, PipelineFootprint};
use lcc_grid::BoxRegion;
use lcc_octree::SamplingPlan;

fn main() {
    println!("Table 4 — estimated vs actual GPU memory for sub-domain convolution");
    println!(
        "{:<6} {:<5} {:<5} {:>16} {:>14} {:>8} {:>10}",
        "N", "k", "r", "Estimated (GB)", "Actual (GB)", "ratio", "Host (GB)"
    );
    // The paper's rows: (N, k, r, paper_estimated, paper_actual).
    let rows: [(usize, usize, u32, f64, f64); 7] = [
        (512, 32, 16, 0.62, 1.29),
        (1024, 32, 32, 2.49, 4.33),
        (2048, 8, 128, 3.52, 5.67),
        (2048, 16, 128, 5.02, 8.16),
        (2048, 32, 128, 8.00, 13.16),
        (2048, 32, 64, 9.97, 16.20),
        (2048, 64, 64, 15.92, 26.20),
    ];
    for (n, k, r, p_est, p_act) in rows {
        // Retained planes: dense response (~2k) + exterior strided at r.
        let retained = (2 * k + n / r as usize).min(n);
        let compressed = 8 * ((k as u64).pow(3) + (n as u64).pow(3) / (r as u64).pow(3));
        let batch = (4 * n).min(32768);
        let fp = PipelineFootprint::model(n, k, retained, batch, compressed);
        let est = fp.estimated_bytes();
        let act = fp.actual_bytes();
        let hotspot = BoxRegion::new([n / 2; 3], [n / 2 + k; 3]);
        let plan = Arc::new(SamplingPlan::build(n, hotspot, &schedule_for_r(k, r)));
        let host = LocalConvolver::new(n, k, batch)
            .footprint(&plan)
            .estimated_bytes();
        println!(
            "{:<6} {:<5} {:<5} {:>10.2} [{:>5.2}] {:>8.2} [{:>6.2}] {:>8.2} {:>10.3}",
            n,
            k,
            r,
            gb(est),
            p_est,
            gb(act),
            p_act,
            act as f64 / est as f64,
            gb(host)
        );
    }
    println!("\n[bracketed values: paper's numbers]");
    println!("Shape to match: actual exceeds estimated by a ~1.6x-2.1x library-workspace");
    println!("factor, and footprints stay far below the 16·N³ dense requirement.");
    println!("Host: the column-blocked pipeline's working set on this plan (arena, tile");
    println!("scratch, compressed output); it holds one 8-column block of the slab and of");
    println!("the retained planes at a time, and no library workspaces.");
}
