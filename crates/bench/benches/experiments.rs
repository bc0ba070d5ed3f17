//! `cargo bench -p xsc-bench --bench experiments` — regenerates every
//! table/figure of the reproduction in one pass (E01–E21). Sizes come from
//! `XSC_SCALE` (`quick` default, `full` for the paper-shaped runs).

fn main() {
    // Criterion-style CLI flags (e.g. `--bench`) are accepted and ignored.
    let scale = xsc_bench::Scale::from_env();
    println!("xsc experiment suite (scale: {scale:?}) — one section per reproduced table/figure");
    xsc_bench::experiments::run_all(scale);
    println!("\nAll experiments completed. Claimed-vs-measured record: EXPERIMENTS.md");
}
