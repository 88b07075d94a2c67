//! Watch a lower-bound proof run: the Theorem 4 adversary (clock skew plus
//! maximum delays) defeats a too-fast implementation of `dequeue` while the
//! standard Algorithm 1 survives the identical schedule.
//!
//! ```sh
//! cargo run --example skew_attack
//! ```

use lintime_adt::prelude::*;
use lintime_bounds::prelude::*;
use lintime_core::prelude::*;
use lintime_sim::prelude::*;

fn main() {
    let params = ModelParams::default_experiment();
    let spec = erase(RmwRegister::new(0));
    let bound = formulas::thm4_pair_free_lb(params);
    println!(
        "Theorem 4: any pair-free operation needs ≥ d + min{{ε, u, d/3}} = {bound} ticks.\n\
         The adversary schedules two rmw(1) instances m = {} apart on processes whose\n\
         clocks differ by m, with all messages at the maximum delay d = {}.\n",
        params.m(),
        params.d
    );

    // A victim that executes mixed operations 600 ticks too early.
    let mut waits = Waits::standard(params, Time::ZERO);
    waits.execute -= Time(600); // latency d + ε − 600 < d + m
    let victim_latency = waits.add + waits.execute;

    for (label, algo, latency) in [
        ("victim (mixed ops in d + ε − 600)", Algorithm::WtlwWaits(waits), victim_latency),
        (
            "standard Algorithm 1 (mixed ops in d + ε)",
            Algorithm::Wtlw { x: Time::ZERO },
            params.d + params.epsilon,
        ),
    ] {
        println!("--- {label}: |rmw| = {latency} vs bound {bound} ---");
        let report =
            thm4_attack(params, &spec, Invocation::new("rmw", 1), Invocation::new("rmw", 1), algo);
        if let Some(run) = &report.base {
            for op in &run.ops {
                println!(
                    "  {} rmw(1) over [{}, {}] -> {:?}",
                    op.pid,
                    op.t_invoke,
                    op.t_respond.unwrap(),
                    op.ret.as_ref().unwrap()
                );
            }
        }
        match report.outcome {
            Outcome::ViolationInBase | Outcome::ViolationInShifted => {
                println!("  checker verdict: NOT linearizable — both instances returned the");
                println!("  pre-state; no sequential order explains that. The bound bites. ✗\n");
                assert!(latency < bound);
            }
            Outcome::NoViolation => {
                println!(
                    "  checker verdict: linearizable — the second instance saw the first. ✓\n"
                );
                assert!(latency >= bound);
            }
            Outcome::Inconclusive(why) => println!("  inconclusive: {why}\n"),
        }
    }

    println!("The crossover sits exactly at the Theorem 4 formula; run");
    println!("`cargo run -p lintime-bench -- attack` for the full sweeps.");
}
