//! Roster compilation: key and gate → CSE → fused one-pass evaluators.
//!
//! The engines' first stage (candidate admission) runs one automaton per
//! filter. The readable form of each automaton is a
//! [`GroupFilter`](crate::filter::GroupFilter) trait object, one virtual
//! call per filter per tuple, each re-reading the same attributes and
//! re-computing the same `|Δ|` distances. Filters in a group overlap *by
//! construction* — that is the paper's whole premise — so the engine
//! runs a compiled roster instead:
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
//!
//! The compiled roster is the only first stage the engines run. The
//! trait objects stay as the per-filter reference: the lockstep tests in
//! `plan::compiled` drive each slot's trait object next to the compiled
//! member that stands for it and compare every answer after every tuple,
//! and `tests/tests/twin_equivalence.rs` checks folding at the engine
//! level (k copies of a roster emit what one copy emits with every label
//! expanded to its k twins).

mod compiled;
mod expr;

pub use compiled::CompiledRoster;
pub(crate) use compiled::{OwnedSet, StepActions, TwinTable};
pub use expr::{Expr, FilterPlan, Gate, RosterPlan};
