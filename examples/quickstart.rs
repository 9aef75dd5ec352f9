//! Quickstart: from an expression to an algorithm choice.
//!
//! Parses the paper's two expressions, enumerates their algorithm sets, times them on the simulated machine model, and shows where
//! the minimum-FLOP-count discriminant goes wrong.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use lamb::prelude::*;

fn main() {
    // ---------------------------------------------------------------- chain
    // X := A·B·C·D with the instance (331, 279, 338, 854, 427) — one of the
    // anomalies highlighted in the paper's Figure 8.
    let dims = [331, 279, 338, 854, 427];
    let chain = TreeExpression::parse("A*B*C*D").expect("well-formed text");
    let mut executor = SimulatedExecutor::paper_like();
    let plan = Planner::for_expression(&chain)
        .plan_with(&dims, &mut executor)
        .expect("valid instance");
    println!("expression {chain}: {} algorithms", plan.algorithms.len());

    // Execute every algorithm: the timings and the verdict (at the planner's
    // default 10% threshold) of one run.
    let outcome = plan.execute_with(&mut executor);
    println!("\n{:<38} {:>16} {:>12}", "algorithm", "FLOPs", "time [ms]");
    for (alg, t) in plan.algorithms.iter().zip(&outcome.timings) {
        println!("{:<38} {:>16} {:>12.2}", alg.name, t.flops, t.seconds * 1e3);
    }
    let verdict = outcome.verdict;
    println!(
        "cheapest: {:?}  fastest: {:?}  anomaly: {}  (time score {:.1}%, FLOP score {:.1}%)",
        verdict.cheapest,
        verdict.fastest,
        verdict.is_anomaly,
        100.0 * verdict.time_score,
        100.0 * verdict.flop_score
    );

    // ----------------------------------------------------------------- AAtB
    // X := A·Aᵀ·B with a small symmetric order — the regime where the paper
    // finds abundant anomalies.
    let (d0, d1, d2) = (80, 514, 768);
    let aatb = TreeExpression::parse("A*A^T*B").expect("well-formed text");
    let plan = Planner::for_expression(&aatb)
        .plan_with(&[d0, d1, d2], &mut executor)
        .expect("valid instance");
    println!("\nexpression {aatb}: {} algorithms", plan.algorithms.len());

    let outcome = plan.execute_with(&mut executor);
    println!("\n{:<38} {:>16} {:>12}", "algorithm", "FLOPs", "time [ms]");
    for (alg, t) in plan.algorithms.iter().zip(&outcome.timings) {
        println!("{:<38} {:>16} {:>12.2}", alg.name, t.flops, t.seconds * 1e3);
    }
    let verdict = outcome.verdict;
    println!(
        "cheapest: {:?}  fastest: {:?}  anomaly: {}  (time score {:.1}%, FLOP score {:.1}%)",
        verdict.cheapest,
        verdict.fastest,
        verdict.is_anomaly,
        100.0 * verdict.time_score,
        100.0 * verdict.flop_score
    );

    // ------------------------------------------------------------ selection
    // What would the different selection policies pick?
    let policies: [Box<dyn SelectionPolicy>; 3] = [
        Box::new(MinFlops),
        Box::new(MinPredictedTime),
        Box::new(Oracle),
    ];
    for policy in policies {
        let plan = Planner::for_expression(&aatb)
            .policy(policy)
            .plan_with(&[d0, d1, d2], &mut executor)
            .expect("valid instance");
        let outcome = plan.execute_with(&mut executor);
        println!(
            "strategy {:<22} picks algorithm {} ({:.2} ms, {:.1}% slower than optimal)",
            plan.policy,
            outcome.chosen + 1,
            outcome.chosen_seconds() * 1e3,
            100.0 * outcome.regret()
        );
    }
}
