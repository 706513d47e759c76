//! Regenerate every table and figure in one run (EXPERIMENTS.md source;
//! `experiments_paper_scale.txt` is its default output).
//!
//! `--small` runs a 64-node partition (fig9's process-count sweep and the
//! color ablation fix their own machines); `--json` prints one JSON array
//! of the figures, in print order, instead of the text tables; `--trace`
//! also writes the probe artifacts (see `bgp_bench::trace`) of fig6's
//! 64 KiB `TreeShaddr` bcast and table1's 64 Ki-double allreduce.
use bgp_bench::trace::{self, TraceOp};
use bgp_bench::{figures, Figure, Scale};
use bgp_machine::{MachineConfig, OpMode};
use bgp_mpi::allreduce::AllreduceAlgorithm;
use bgp_mpi::BcastAlgorithm;

fn main() {
    let scale = Scale::from_args();
    let figs = [
        figures::fig6(scale),
        figures::fig7(scale),
        figures::fig8(scale),
        figures::fig9(),
        figures::fig10(scale),
        figures::table1(scale),
        figures::ablation_pwidth(scale),
        figures::ablation_fifo(scale),
        figures::ablation_colors(),
        figures::ext_allgather(scale),
        figures::ext_reduce_gather(scale),
    ];
    if std::env::args().any(|a| a == "--json") {
        let docs: Vec<String> = figs.iter().map(Figure::to_json).collect();
        println!("[\n{}\n]", docs.join(",\n"));
    } else {
        for fig in &figs {
            fig.print();
            println!();
        }
    }
    let cfg = MachineConfig::with_nodes(scale.nodes(), OpMode::Quad);
    trace::emit_if_requested(
        "fig6",
        cfg.clone(),
        TraceOp::Bcast(BcastAlgorithm::TreeShaddr { caching: true }, 64 << 10),
    );
    trace::emit_if_requested(
        "table1",
        cfg,
        TraceOp::Allreduce(AllreduceAlgorithm::ShaddrSpecialized, 64 * 1024),
    );
}
