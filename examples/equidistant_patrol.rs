//! Boundary patrolling: after location discovery, the swarm rearranges
//! itself into an equidistant formation — the application the paper's
//! introduction motivates ("equidistant distribution along the circumference
//! of the circle and an optimal boundary patrolling scheme").
//!
//! Run with `cargo run -p ring-examples --bin equidistant_patrol`.
//!
//! Every agent independently computes, from its discovered map alone, where
//! every agent of the swarm should stand so that the whole swarm ends up
//! evenly spaced. All maps describe the same ring, rotated, so if every
//! agent anchors the formation at the same agent, the plans agree without
//! any further communication. The anchor is the agent that starts the
//! lexicographically smallest sequence of gaps, which every agent finds in
//! its own map. The example checks both claims: every map is the same ring
//! rotated, and every agent's plan is every other agent's.

use ring_examples::{demo_deployment, demo_network, pct};
use ring_protocols::locate::discover_locations;
use ring_sim::{Model, CIRCUMFERENCE};

/// A per-hop sequence read from hop `k` on.
fn rotated<T: Clone>(seq: &[T], k: usize) -> Vec<T> {
    [&seq[k..], &seq[..k]].concat()
}

/// The hop whose gap sequence is lexicographically smallest.
fn anchor(gaps: &[u64]) -> usize {
    (0..gaps.len())
        .min_by_key(|&k| rotated(gaps, k))
        .expect("a ring has agents")
}

fn main() {
    let n = 12;
    let (config, ids) = demo_deployment(n, 777);
    let mut net = demo_network(&config, &ids, Model::Perceptive);

    let discovery = discover_locations(&mut net).expect("location discovery succeeds");
    println!(
        "location discovery finished in {} rounds; planning the patrol formation…\n",
        discovery.rounds()
    );

    // Each agent's map: the arcs to the agents 0, 1, … hops logically
    // clockwise from it, and the gaps between them.
    let rels: Vec<Vec<u64>> = discovery
        .views()
        .map(|view| view.relative_positions().map(|arc| arc.ticks()).collect())
        .collect();
    let maps: Vec<Vec<u64>> = rels
        .iter()
        .map(|rel| {
            (0..n)
                .map(|j| rel.get(j + 1).unwrap_or(&CIRCUMFERENCE) - rel[j])
                .collect()
        })
        .collect();
    // Every map is agent 0's ring, read from the hop where that agent is.
    let hops: Vec<usize> = maps
        .iter()
        .map(|map| {
            (0..n)
                .find(|&k| rotated(&maps[0], k) == *map)
                .expect("every agent's map is the same ring, rotated")
        })
        .collect();

    // Each agent's plan: keep the cyclic order (agents cannot overpass!),
    // anchor the formation at the agent `anchor` hops clockwise and send the
    // agent `i` hops past the anchor to `i/n` of the circle past it. The
    // plan is every agent's signed correction, by hops from the planner.
    let slot_width = CIRCUMFERENCE / n as u64;
    let plans: Vec<Vec<i64>> = rels
        .iter()
        .zip(&maps)
        .map(|(rel, map)| {
            let a = anchor(map);
            (0..n)
                .map(|j| {
                    let target = rel[a] + ((j + n - a) % n) as u64 * slot_width;
                    let ahead = (target + CIRCUMFERENCE - rel[j]) % CIRCUMFERENCE;
                    if ahead > CIRCUMFERENCE / 2 {
                        ahead as i64 - CIRCUMFERENCE as i64
                    } else {
                        ahead as i64
                    }
                })
                .collect()
        })
        .collect();
    // The plans agree: what agent `a` plans for the agent `j` hops from it
    // is what agent 0 plans for that same agent.
    for (agent, plan) in plans.iter().enumerate() {
        assert_eq!(
            *plan,
            rotated(&plans[0], hops[agent]),
            "agent {agent}'s plan differs from agent 0's"
        );
    }

    let fraction = |ticks: i64| ticks as f64 / CIRCUMFERENCE as f64;
    println!("agent | hops to anchor | own correction (clockwise)");
    for (agent, plan) in plans.iter().enumerate() {
        println!(
            "  {agent:>3} | {:>14} | {}",
            anchor(&maps[agent]),
            pct(fraction(plan[0]))
        );
    }
    let max_travel = plans[0].iter().map(|c| c.unsigned_abs()).max().unwrap_or(0);
    println!(
        "\nall {n} maps are the same ring, rotated, and all {n} plans agree;\n\
         largest correction any agent must travel: {} of the circumference",
        pct(fraction(max_travel as i64))
    );
    println!("(the formation preserves the cyclic order, so it is reachable without overpassing)");
}
