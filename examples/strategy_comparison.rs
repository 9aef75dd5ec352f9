//! How much performance is left on the table by selecting algorithms with the
//! FLOP count alone?
//!
//! This example quantifies the paper's concluding conjecture: combining FLOP
//! counts with kernel performance profiles (the `MinPredictedTime` and
//! `Hybrid` policies) should recover most of the loss that the pure
//! `MinFlops` discriminant incurs on anomalous instances.
//!
//! ```text
//! cargo run --release --example strategy_comparison
//! ```

use lamb::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let instances = 200;
    let mut rng = StdRng::seed_from_u64(4210);

    for text in ["A*B*C*D", "A*A^T*B"] {
        let expr = TreeExpression::parse(text).expect("well-formed text");
        let num_dims = expr.num_dims();
        let sampled: Vec<Vec<usize>> = (0..instances)
            .map(|_| (0..num_dims).map(|_| rng.random_range(20..=1200)).collect())
            .collect();
        println!("==== {text}: {instances} random instances in [20, 1200]^{num_dims} ====");
        println!(
            "{:<26} {:>18} {:>16} {:>16}",
            "strategy", "mean slowdown", "worst slowdown", "optimal picks"
        );
        let policies: [Box<dyn SelectionPolicy>; 4] = [
            Box::new(MinFlops),
            Box::new(MinPredictedTime),
            Box::new(Hybrid { flop_margin: 0.5 }),
            Box::new(Oracle),
        ];
        for policy in policies {
            let name = policy.name();
            let planner = Planner::for_expression(&expr).policy(policy);
            let mut executor = SimulatedExecutor::paper_like();
            let mut total = 0.0;
            let mut worst: f64 = 0.0;
            let mut optimal = 0usize;
            for dims in &sampled {
                let outcome = planner
                    .plan_with(dims, &mut executor)
                    .expect("valid instance")
                    .execute_with(&mut executor);
                total += outcome.regret();
                worst = worst.max(outcome.regret());
                if outcome.regret() < 1e-9 {
                    optimal += 1;
                }
            }
            println!(
                "{:<26} {:>17.2}% {:>15.2}% {:>15.1}%",
                name,
                100.0 * total / instances as f64,
                100.0 * worst,
                100.0 * optimal as f64 / instances as f64
            );
        }
        println!();
    }
    println!("Reading: `min-flops` is the discriminant studied by the paper; its mean and");
    println!("worst-case slowdowns on A*A^T*B are what the anomalies cost in practice, and");
    println!("`min-predicted-time` (FLOPs + kernel performance profiles) recovers most of it.");
}
