//! Quickstart: ten bouncing agents on a circle discover where everybody
//! started.
//!
//! Run with `cargo run -p ring-examples --bin quickstart`.
//!
//! The agents cannot talk, cannot see, and only learn per round how far they
//! ended from where they started (plus, in the perceptive model used here,
//! the distance to their first collision). The library's location-discovery
//! pipeline — nontrivial move, direction agreement, leader election, ring
//! distances, and the `Convolution`/`Pivot` measurement schedule — lets each
//! of them reconstruct the entire initial configuration.

use ring_examples::{demo_deployment, demo_network, pct};
use ring_protocols::locate::{discover_locations, verify_location_discovery};
use ring_sim::Model;

fn main() {
    let n = 10;
    let (config, ids) = demo_deployment(n, 2015);
    let mut net = demo_network(&config, &ids, Model::Perceptive);

    println!(
        "deployment: {n} agents, identifier universe [1, {}]",
        ids.universe()
    );
    println!("hidden initial positions (ground truth, never shown to agents):");
    for (agent, position) in config.positions().iter().enumerate() {
        println!(
            "  agent {agent} (id {:>3}) at {} of the circle, chirality {}",
            ids.id(agent),
            pct(position.as_fraction()),
            config.chirality(agent),
        );
    }

    let discovery = discover_locations(&mut net).expect("location discovery succeeds");
    println!(
        "\nlocation discovery finished in {} rounds (method: {:?})",
        discovery.rounds(),
        discovery.method()
    );

    // What agent 0 now believes about the ring, expressed in its own frame.
    let view = discovery.view(0);
    println!("\nagent 0's reconstructed map (distances from its own start, own clockwise):");
    for (hops, arc) in view.relative_positions().enumerate() {
        println!(
            "  neighbour {hops:>2} hops away: {}",
            pct(arc.as_fraction())
        );
    }

    let ok = verify_location_discovery(&net, &discovery);
    println!(
        "\nground-truth check: every agent's map is {}",
        if ok { "exact" } else { "WRONG" }
    );
    assert!(ok);
}
