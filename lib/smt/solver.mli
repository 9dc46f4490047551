(* The solver facade: lazy DPLL(T) over the SAT core and the LIA theory.

   This plays the role Z3 plays in the paper (§5.2): every branch decision
   of the symbolic executor and every refinement obligation lands here.
   Two paths:

   - conjunctions of literals (the overwhelmingly common case — path
     conditions) go straight to the LIA procedure;
   - arbitrary boolean structure goes through Tseitin CNF into one
     persistent CDCL solver, which learns each theory refutation's
     conflict core as a clause until convergence.

   A domain-local result cache (canonical-conjunction → result memo) and
   an incremental assertion stack sit on top; see [Incremental]. Both
   are always on, and the persistent store plugs in below the cache.
   Certificate validation ([set_certify]) is the one switch. The solver
   keeps no statistics record: what it counts is in the metrics
   registry, read as before/after deltas (see below). *)

type result = Sat of Model.t | Unsat | Unknown

(* Counters live in the metrics registry (lib/trace) under the
   "solver.*" names, one domain-local cell each: solver.checks,
   solver.fast_path, solver.dpllt_iterations, solver.unknowns (every
   Unknown answer, forced ones included), solver.cache_hits,
   solver.cache_misses, solver.incremental_checks,
   solver.scratch_checks, solver.cert_checks (certificates validated)
   and solver.cert_failures (certificates rejected). Callers take
   before/after deltas of the named counters; Parallel.Domainpool
   absorbs worker deltas at the join barrier. *)

(* Drop this domain's result caches (Unknown answers are never cached),
   so benchmarks and tests can measure from a cold start. *)
val clear_caches : unit -> unit

(* Certificate switch (on by default). When on and a validator is
   installed ([Proof.set_validator], done by [Cert.install]), every Sat
   and Unsat answer handed out — fresh, replayed from a cache, or served
   by the incremental stack's refuted-prefix short-circuit — is
   validated against its certificate first; an unjustifiable answer is
   degraded to Unknown and counted in solver.cert_failures. A corrupted
   memo entry can therefore degrade a verdict but never flip one. *)
val set_certify : bool -> unit
val certify_enabled : unit -> bool

(* Persistent-store hook (installed by [Store.with_solver] in lib/store,
   which sits above this library). Consulted only on in-memory cache
   misses. [p_lookup] gets the canonical term list of a query and must
   return nothing it cannot justify — the store re-validates
   certificates on load and falls through to a fresh solve on any
   failure; whatever it serves still passes the solver's own [validate]
   gatekeeper. [p_save] receives
   Sat-with-model and Unsat-with-certificate answers only; Unknown is
   never persisted. Atomic: installing on the main domain is observed
   by parallel workers. *)
type persist = {
  p_lookup : Term.t list -> (result * Proof.t option) option;
  p_save : Term.t list -> result * Proof.t option -> unit;
}

val set_persist : persist option -> unit
val persist_installed : unit -> persist option

(* Scope a resource budget over every [check]/[entails] call made by
   [f]: each call charges one solver step and honors the deadline. The
   scope is domain-local. *)
val current_budget : unit -> Budget.t option ref
val with_budget : Budget.t -> (unit -> 'a) -> 'a

(* Lazy DPLL(T) on one term, uncached. With a budget in scope, each
   refutation-loop re-iteration charges one solver step, so
   `--solver-steps` governs the loop and a cap hit surfaces as the
   machine-readable [Budget.Solver_steps_exhausted] Inconclusive
   reason. *)
val check_dpllt : Term.t -> result

(* The certificate-producing core (no budget charge, no validation):
   exposed for the certificate test-suite. *)
val check_core_cert : Term.t list -> result * Proof.t option
val check : Term.t list -> result
val is_unsat : Term.t list -> bool

type entailment = Valid | Counterexample of Model.t | Unknown_validity

val entails : hyps:Term.t list -> Term.t -> entailment

(* Incremental assertion stack: push/assert/pop frames mirroring a path
   condition, so a branch decision extends the parent path's analyzed
   solver state by one literal instead of re-translating the whole
   conjunction. Refuted prefixes short-circuit every extension. Each
   [check]/[check_pc] charges the budget and fault plan exactly like a
   top-level [check]. *)
module Incremental : sig
  type t

  val create : unit -> t
  val push : t -> unit
  val assert_term : t -> Term.t -> unit
  val pop : t -> unit
  val depth : t -> int
  val terms : t -> Term.t list
  val check : t -> result

  (* Decide path condition [pc] (newest literal first), syncing the
     stack to it by physical identity of the cons cells — sibling
     branches and parent paths share tails, and shared literals keep
     their analysis. Do not mix with the explicit push/assert API on
     the same stack. *)
  val check_pc : t -> Term.t list -> result
  val entails : t -> hyps:Term.t list -> Term.t -> entailment
end
