//! Matrix-chain algorithm selection for a signal-processing-style pipeline.
//!
//! The paper's introduction motivates the problem with expressions from
//! signal processing and data assimilation in which a chain of operators with
//! very different dimensions (wide measurement matrices, skinny projection
//! matrices) is applied to data. The multiplication order then changes the
//! FLOP count by orders of magnitude — and, as this example shows, the
//! FLOP-optimal order is not always the time-optimal one.
//!
//! ```text
//! cargo run --release --example signal_chain_selection
//! ```

use lamb::prelude::*;

fn main() {
    // A four-operator pipeline: projection (tall-skinny), two mixing
    // operators, and a wide readout — dimensions chosen so the multiplication
    // order matters a lot.
    let dims = [900usize, 64, 720, 48, 1024];
    println!("operator chain A*B*C*D with dimensions {dims:?}\n");

    let chain = TreeExpression::parse("A*B*C*D").expect("well-formed text");
    let mut executor = SimulatedExecutor::paper_like();
    let plan = Planner::for_expression(&chain)
        .threshold(0.05)
        .plan_with(&dims, &mut executor)
        .expect("valid chain");
    let outcome = plan.execute_with(&mut executor);
    let cheapest_flops = outcome.timings.iter().map(|t| t.flops).min().unwrap();
    println!(
        "{:<44} {:>16} {:>12} {:>10}",
        "algorithm", "FLOPs", "time [ms]", "vs cheapest"
    );
    for (alg, t) in plan.algorithms.iter().zip(&outcome.timings) {
        println!(
            "{:<44} {:>16} {:>12.2} {:>9.2}x",
            alg.name,
            t.flops,
            t.seconds * 1e3,
            t.flops as f64 / cheapest_flops as f64
        );
    }

    let verdict = &outcome.verdict;
    println!(
        "\ncheapest: {:?}  fastest: {:?}  anomaly at 5%: {}",
        verdict.cheapest, verdict.fastest, verdict.is_anomaly
    );

    // Compare what the different selection policies would pick across a
    // sweep of the unknown readout width d4 (the "symbolic size" scenario of
    // the paper's conclusions).
    println!("\nsweep of the readout width d4 (selection under a symbolic size):");
    println!(
        "{:>6} {:>12} {:>14} {:>12}",
        "d4", "min-flops", "predicted-time", "oracle"
    );
    for d4 in [64usize, 128, 256, 512, 1024, 2048] {
        let mut dims = dims;
        dims[4] = d4;
        let policies: [Box<dyn SelectionPolicy>; 3] = [
            Box::new(MinFlops),
            Box::new(MinPredictedTime),
            Box::new(Oracle),
        ];
        let mut row = Vec::new();
        for policy in policies {
            let outcome = Planner::for_expression(&chain)
                .policy(policy)
                .plan_with(&dims, &mut executor)
                .expect("valid chain")
                .execute_with(&mut executor);
            row.push(format!(
                "alg{} ({:.0}ms)",
                outcome.chosen + 1,
                outcome.chosen_seconds() * 1e3
            ));
        }
        println!("{:>6} {:>12} {:>14} {:>12}", d4, row[0], row[1], row[2]);
    }
}
