//! Roster compilation: key and gate → CSE → fused one-pass evaluators.
//!
//! The engines' first stage (candidate admission) originally drove every
//! filter as an opaque [`GroupFilter`](crate::filter::GroupFilter) trait
//! object, one virtual call per filter per tuple, each re-reading the same
//! attributes and re-computing the same `|Δ|` distances. Filters in a
//! group overlap *by construction* — that is the paper's whole premise —
//! so the roster is compiled instead:
//!
//! 1. **Lowering** ([`FilterPlan::lower`]) — every
//!    [`FilterSpec`](crate::quality::FilterSpec) kind (delta, stateful
//!    delta, trend delta, multi-attr delta, sampling window gates) lowers
//!    to the two things the first stage runs: a **key** ([`Expr`]), the
//!    one value derived from a tuple — an attribute load, its trend, or
//!    the mean of several loads — and a **gate** ([`Gate`]), what the
//!    filter does with that value: a `(slack, δ)` admission automaton
//!    against its base, or a window sampler. A one-attribute mean lowers
//!    to the plain load, since it is the same value bit for bit.
//! 2. **Sharing** ([`RosterPlan`]) — structurally equal keys become one
//!    *class* across the group's filters (CSE): same attribute ⇒ one load,
//!    one derived value per tuple, feeding N gates.
//! 3. **Fusion** ([`CompiledRoster`]) — the admission automata of all
//!    members run in one monomorphized pass per tuple. Per-filter state
//!    (bases, reference values, window cursors, open candidate lists)
//!    lives in packed struct-of-arrays arenas instead of per-trait-object
//!    fields. Members that share a key *and* a comparison base are grouped
//!    into a cohort sorted by qualification threshold, so one
//!    `|Δ|` computation plus one binary search admits/skips whole runs of
//!    filters at once, and sampler admissions fill the recipient
//!    [`FilterSet`](crate::bitset::FilterSet) by `u64`-block union rather
//!    than bit by bit. Filters that are equal as a whole — same key
//!    class, bit-equal gate ([`RosterPlan::twin_of`]) — are one member:
//!    identical subscriptions cost one filter, and the engine multiplies
//!    the outcome back out (docs/ARCHITECTURE.md, "Twin folding").
//!
//! Compilation is a **pure function of the roster** (specs + slot ids +
//! algorithm): it holds no durable state of its own, so snapshots stay
//! format-stable — a restored engine simply recompiles — and the control
//! plane recompiles at every epoch safe point (vacancy holes preserved).
//! The trait-object path is kept as the *oracle*: build with
//! [`EvaluatorTier::Interpreted`] to run it, and
//! `tests/tests/compile_equivalence.rs` pins the two tiers byte-identical
//! across every algorithm, output strategy and parallelism, including
//! under churn and recovery.

mod compiled;
mod expr;

pub use compiled::CompiledRoster;
pub(crate) use compiled::{StepActions, TwinTable};
pub use expr::{Expr, FilterPlan, Gate, RosterPlan};

/// Which first-stage evaluator a [`GroupEngine`](crate::engine::GroupEngine)
/// drives.
///
/// Both tiers are byte-for-byte equivalent on every input (the contract
/// `tests/tests/compile_equivalence.rs` pins); they differ only in cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvaluatorTier {
    /// The fused [`CompiledRoster`] evaluator (the default): one pass per
    /// tuple over shared key derivations and cohort cascades.
    #[default]
    Compiled,
    /// The original per-filter trait-object path — the reference
    /// implementation the compiled tier is checked against.
    Interpreted,
}
