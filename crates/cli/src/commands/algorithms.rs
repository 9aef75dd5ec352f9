//! `lamb algorithms` — list the algorithm set of an expression instance with
//! FLOP counts, kernel composition and the cheapest/most-expensive markers.
//!
//! Works with the named paper expressions (`chain`, `aatb`) and with any
//! parsed text via `--expr "A*A^T*B" --dims 80,514,768`.

use super::common;
use lamb_expr::Expression;

/// Run the subcommand.
pub fn run(args: &[String]) -> Result<(), String> {
    let opts = common::parse(args)?;
    let (_, expr) = opts.expression()?;
    let dims = opts.dims(expr.num_dims())?;
    let algorithms = expr
        .algorithms_pruned(&dims, opts.top_k)
        .map_err(|e| e.to_string())?;
    let min_flops = algorithms.iter().map(|a| a.flops()).min().unwrap_or(0);

    println!("{} with dims {:?}", expr.name(), dims);
    if let Some(k) = opts.top_k {
        println!(
            "{} FLOP-cheapest algorithms (top-k = {k}):",
            algorithms.len()
        );
    } else {
        println!("{} mathematically equivalent algorithms:", algorithms.len());
    }
    for (i, alg) in algorithms.iter().enumerate() {
        let marker = if alg.flops() == min_flops {
            "  <-- cheapest"
        } else {
            ""
        };
        println!(
            "  [{}] {:<45} {:>16} FLOPs  kernels: {}{}",
            i + 1,
            alg.name,
            alg.flops(),
            alg.kernel_summary(),
            marker
        );
        for call in &alg.calls {
            println!("        {call}");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn named_expressions_still_work() {
        assert!(run(&strs(&["aatb", "40", "50", "60"])).is_ok());
    }

    #[test]
    fn parsed_expressions_enumerate() {
        assert!(run(&strs(&["--expr", "A*A^T*B", "--dims", "40,50,60"])).is_ok());
        assert!(run(&strs(&[
            "--expr",
            "A*B*C*D*E",
            "--dims",
            "9,8,7,6,5,4",
            "--top-k",
            "3"
        ]))
        .is_ok());
    }

    #[test]
    fn parse_errors_are_reported() {
        let err = run(&strs(&["--expr", "A**B", "--dims", "4,5,6"])).unwrap_err();
        assert!(err.contains("cannot parse"), "{err}");
    }
}
