//! The unified experiment CLI: parallel sweeps, structure caching and
//! streaming JSONL results for every artefact of the reproduction. See
//! `ring_harness::cli` for the full usage.

fn main() {
    ring_harness::cli::main()
}
