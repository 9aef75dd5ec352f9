//! Batched planning with the `Planner`: sweep a grid of `A·Aᵀ·B` instances,
//! fan the planning out across worker threads with a shared prediction
//! cache, and report where the minimum-FLOP discriminant would have gone
//! wrong.
//!
//! ```text
//! cargo run --release --example planner_grid
//! ```

use lamb::prelude::*;

fn main() {
    let expr = TreeExpression::parse("A*A^T*B").unwrap();

    // A lattice over (d0, d1, d2): small symmetric orders against growing
    // right-hand sides — the regime where the paper finds abundant anomalies.
    let mut grid = Vec::new();
    for d0 in (40..=200).step_by(40) {
        for d2 in (200..=1000).step_by(200) {
            grid.push(vec![d0, 514, d2]);
        }
    }

    let planner = Planner::for_expression(&expr)
        .policy(MinPredictedTime)
        .threshold(0.10);
    let plans = planner.plan_grid(&grid);

    println!(
        "{:<20} {:<28} {:>10} {:>10} {:>9}",
        "dims", "chosen (min-predicted-time)", "regret", "min-flops", "anomaly"
    );
    let mut anomalies = 0;
    let mut rescued = 0;
    for plan in plans {
        let plan = plan.expect("all grid instances are valid");
        let outcome = plan.execute();
        let cheapest_idx = plan
            .scores
            .iter()
            .min_by_key(|s| s.flops)
            .expect("non-empty")
            .index;
        if outcome.is_anomaly() {
            anomalies += 1;
            if plan.chosen != cheapest_idx {
                rescued += 1;
            }
        }
        println!(
            "{:<20} {:<28} {:>9.2}% {:>10} {:>9}",
            format!("{:?}", plan.dims),
            plan.chosen_algorithm().kernel_summary(),
            100.0 * outcome.regret(),
            plan.algorithms[cheapest_idx].kernel_summary(),
            if outcome.is_anomaly() { "yes" } else { "no" }
        );
    }
    let (hits, misses) = planner.cache_stats();
    println!(
        "\n{} instances, {} anomalies, {} where the policy deviated from min-FLOPs",
        grid.len(),
        anomalies,
        rescued
    );
    println!("prediction cache: {hits} hits / {misses} misses across the whole grid");
}
