#![warn(missing_docs)]

//! The Cyclops engine — the paper's primary contribution.
//!
//! Cyclops is a synchronous vertex-oriented graph engine built around the
//! **distributed immutable view** (§3): for every edge that spans workers
//! after an edge-cut, the source vertex gets a read-only replica on the
//! destination worker. A vertex's `compute` reads its in-neighbors'
//! previous-superstep publications directly through shared memory; only the
//! master copy is writable, and at the end of a superstep the master sends
//! **one unidirectional message per replica** carrying the new publication
//! plus a distributed-activation flag. Consequences the engine realizes:
//!
//! * *Computation efficiency* — converged vertices deactivate and are never
//!   recomputed, yet stay readable by neighbors (dynamic computation, §3.3),
//! * *Communication efficiency* — at most one message per replica per
//!   superstep, so replica updates are applied lock-free in parallel
//!   (no enqueue contention, §3.4),
//! * *Hierarchical processing* — CyclopsMT (§5) is the same engine run with
//!   a [`cyclops_net::ClusterSpec`] that gives each machine one worker with
//!   `T` compute threads and `R` receiver threads: replicas then exist only
//!   for edges crossing *machines*, intra-machine communication becomes
//!   memory references, and the superstep barrier is hierarchical.
//!
//! Crate layout:
//!
//! * [`program::CyclopsProgram`] — the user-facing vertex program (the
//!   paper's Figure 5 shape: read in-edges, set value, `activateNeighbors`),
//! * [`plan::CyclopsPlan`] — the ingress product: masters, replicas,
//!   in-edge references into the immutable view, mirror lists, local
//!   activation fan-out (§4.3),
//! * [`engine::run_cyclops`] — the unified runner (flat Cyclops and
//!   CyclopsMT differ only in the `ClusterSpec`),
//! * [`engine::Convergence`] — activity-, proportion- and global-error-based
//!   convergence detection (§4.4),
//! * [`checkpoint`] — value-only checkpoints (replicas and messages need not
//!   be saved, §3.6).

pub mod checkpoint;
pub mod engine;
pub mod frontier;
pub mod migrate;
pub mod mutation;
pub mod plan;
pub mod program;

pub use checkpoint::CyclopsCheckpoint;
pub use engine::{
    run_cyclops, run_cyclops_from_checkpoint, run_cyclops_traced, run_cyclops_with_plan,
    run_cyclops_with_plan_traced, Convergence, CyclopsConfig, CyclopsResult,
};
pub use frontier::{FreshSlots, Frontier};
pub use migrate::{
    apply_migration, run_cyclops_migrated, run_cyclops_migrated_traced, MigrationEvent,
    MigrationReport,
};
pub use mutation::{
    apply_mutations, run_cyclops_evolving, EvolvingResult, MutationBatch, WarmStart,
};
pub use plan::{CyclopsPlan, IngressStats};
pub use program::{CyclopsContext, CyclopsProgram};
