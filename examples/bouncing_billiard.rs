//! A look at the raw physics: the event-driven engine traces every collision
//! of a single round, illustrating the bouncing dynamics that all the
//! higher-level protocols are built on (and the pass-through equivalence
//! behind the rotation-index lemma).
//!
//! Run with `cargo run -p ring-examples --bin bouncing_billiard`.

use ring_sim::prelude::*;
use ring_sim::AnalyticScratch;

fn main() -> Result<(), RingError> {
    let n = 7;
    let config = RingConfig::builder(n).random_positions(99).build()?;

    // Four agents clockwise, three anticlockwise: rotation index 1.
    let directions: Vec<ObjectiveDirection> = (0..n)
        .map(|i| {
            if i % 2 == 0 {
                ObjectiveDirection::Clockwise
            } else {
                ObjectiveDirection::Anticlockwise
            }
        })
        .collect();

    println!("initial positions:");
    for (agent, p) in config.positions().iter().enumerate() {
        println!(
            "  agent {agent}: {:.4} ({})",
            p.as_fraction(),
            directions[agent]
        );
    }

    let expected = rotation_index(&directions);
    println!("\nrotation index predicted by Lemma 1: {}", expected.shift);

    // A fresh ring: rotation offset 0, agent `i` in slot `i`.
    let trajectory = EventEngine::new().simulate(&config, 0, &directions);
    println!(
        "\ncollisions during the round ({} in total):",
        trajectory.collisions.len()
    );
    for c in trajectory.collisions.iter().take(12) {
        println!(
            "  t = {:.4}: agents {} and {} meet at {:.4}",
            c.time, c.agents.0, c.agents.1, c.position
        );
    }
    if trajectory.collisions.len() > 12 {
        println!("  … and {} more", trajectory.collisions.len() - 12);
    }

    println!("\nfinal positions (every agent ends on some agent's initial position):");
    for (agent, p) in trajectory.final_positions.iter().enumerate() {
        println!(
            "  agent {agent}: {:.4} (first collision after travelling {:.4})",
            p,
            trajectory.first_collision[agent].unwrap_or(f64::NAN)
        );
    }

    // Cross-check against the exact analytic engine, in the objective
    // frame: its rotation index against Lemma 1, and every agent's
    // clockwise displacement against the simulated one (0 and 1 are the
    // same point of the circle, so the difference is taken modulo 1).
    let mut analytic = AnalyticScratch::new();
    let rotation = AnalyticEngine::new().execute_into(&config, 0, &directions, &mut analytic);
    let mut mismatches = 0;
    if rotation != expected {
        eprintln!(
            "mismatch: analytic rotation index {} vs Lemma 1's {}",
            rotation.shift, expected.shift
        );
        mismatches += 1;
    }
    for (agent, (exact, &simulated)) in analytic
        .cw_displacement
        .iter()
        .zip(&trajectory.cw_displacement)
        .enumerate()
    {
        let diff = (exact.as_fraction() - simulated).abs();
        if diff.min(1.0 - diff) >= 1e-6 {
            eprintln!(
                "mismatch: agent {agent} displacement {:.9} (analytic) vs {simulated:.9} (event)",
                exact.as_fraction()
            );
            mismatches += 1;
        }
    }
    if mismatches > 0 {
        eprintln!("the engines disagree in {mismatches} place(s)");
        std::process::exit(1);
    }
    println!(
        "\nanalytic engine agrees: rotation index {} and every displacement matches within 1e-6",
        rotation.shift
    );
    Ok(())
}
