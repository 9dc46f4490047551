(* Linear integer arithmetic decision procedure: branch-and-bound over the
   rational simplex, plus disequality splitting.

   Conjunctions of `Linear.atom`s are decided here. Integrality is
   enforced by branching  x ≤ ⌊v⌋ ∨ x ≥ ⌈v⌉  on a fractional variable of
   the relaxation; disequalities split as  lin ≤ −1 ∨ lin ≥ 1. A depth cap
   returns [Unknown] rather than diverging on adversarial unbounded
   instances (never reached by DNS-V's bounded-list encodings).

   [check_cert] additionally certifies Unsat answers with an index-based
   branch-and-bound proof (facts reference input atoms by position in the
   given list, which callers keep canonical), so the proof can be cached
   with the result and re-anchored to term-level provenance on replay. *)

module String_map : Map.S with type key = string

type model = int String_map.t
type result = Sat of model | Unsat | Unknown

(* A fact usable in a Farkas step:
   - [F_atom i]: the i-th input atom (0-based);
   - [F_le (x, k)] / [F_ge (x, k)]: a branching bound on variable x;
   - [F_neq_le i] / [F_neq_ge i]: the tightenings  lin ≤ −1  and
     −lin ≤ −1  of disequality input atom i. *)
type fact =
  | F_atom of int
  | F_le of string * int
  | F_ge of string * int
  | F_neq_le of int
  | F_neq_ge of int

type proof =
  | P_farkas of (fact * Q.t) list
  | P_branch of string * int * proof * proof (* x ≤ k  ∨  x ≥ k+1 *)
  | P_split of int * proof * proof (* neq atom i: lin ≤ −1 ∨ −lin ≤ −1 *)

(* [Cunsat None]: the answer is Unsat but certificate construction
   failed; callers must treat it as a validation failure. *)
type cert_result = Csat of model | Cunsat of proof option | Cunknown

val max_depth : int

type row = { coeffs : (int * string) list; rhs : int; is_eq : bool }

val pp_model : Format.formatter -> int String_map.t -> unit
val check_cert : Linear.atom list -> cert_result
val check : Linear.atom list -> result

(* Input atom indices a proof cites — the theory conflict core. The
   DPLL(T) loop blocks just these atoms instead of the whole satisfying
   assignment, so one theory conflict prunes every assignment that
   shares the core. *)
val proof_atoms : proof -> int list
