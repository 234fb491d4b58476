//! `figures` — regenerates every table and figure of the paper's
//! evaluation from the reproduction.
//!
//! Usage:
//!
//! ```text
//! figures [--quick] [fig1|fig5|fig6|fig7|fig8|fig9|table1|nwp|secagg|pace|pipeline|kclients|all]
//! ```
//!
//! `--quick` uses reduced scales (seconds instead of minutes); run without
//! it in `--release` for paper-scale parameters.

use fl_bench::{
    fleet_experiments as fleet, learning_experiments as learn, protocol_experiments as proto, Scale,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = Scale::from_flag(quick);
    let targets: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let targets: Vec<&str> = if targets.is_empty() || targets.contains(&"all") {
        vec![
            "fig1", "fig5", "fig6", "fig7", "fig8", "fig9", "table1", "nwp", "secagg", "pace",
            "pipeline", "kclients",
        ]
    } else {
        targets
    };

    // The fleet simulation backs five figures plus Table 1; run it once.
    let needs_fleet = targets
        .iter()
        .any(|t| matches!(*t, "fig5" | "fig6" | "fig7" | "fig8" | "fig9" | "table1"));
    let fleet_report = needs_fleet.then(|| {
        eprintln!(
            "running fleet simulation ({:?} scale: {} devices, {} days)…",
            scale,
            fleet::fleet_config(scale).devices,
            fleet::fleet_config(scale).days
        );
        fleet::run_fleet(scale)
    });

    for target in targets {
        let output = match target {
            "fig1" => proto::fig1_round_trace(),
            "fig5" => fleet::fig5(fleet_report.as_ref().expect("fleet ran")),
            "fig6" => fleet::fig6(fleet_report.as_ref().expect("fleet ran")),
            "fig7" => fleet::fig7(fleet_report.as_ref().expect("fleet ran")),
            "fig8" => fleet::fig8(fleet_report.as_ref().expect("fleet ran")),
            "fig9" => fleet::fig9(fleet_report.as_ref().expect("fleet ran")),
            "table1" => fleet::table1(fleet_report.as_ref().expect("fleet ran")),
            "nwp" => {
                eprintln!("running next-word-prediction experiment…");
                learn::nwp_report(&learn::next_word_prediction(scale))
            }
            "secagg" => proto::secagg_report(&proto::secagg_cost_sweep(scale)),
            "pace" => proto::pace_report(),
            "pipeline" => proto::pipelining_report(),
            "kclients" => {
                eprintln!("running clients-per-round sweep…");
                learn::kclients_report(&learn::kclients_sweep(scale))
            }
            other => {
                eprintln!("unknown target: {other}");
                std::process::exit(2);
            }
        };
        println!("{output}");
    }
}
