(* The refinement checker (§4.3, Figure 6).

   Engine side: full-path symbolic execution of `resolve` over the
   concrete in-heap domain tree with a symbolic query, yielding path
   conditions and the final Response memory image per path.
   Specification side: Specsym's partition of the same query space.

   For every overlapping (engine path, spec path) pair the checker
   discharges equality of the response images with the SMT solver;
   failures concretize into a real query via the model, which is
   replayed concretely on both the engine interpreter and the concrete
   specification (so every reported bug comes with a confirmed
   counterexample). Reachable panic paths are safety violations
   (§4.1). *)

module Term = Smt.Term
module Solver = Smt.Solver
module Model = Smt.Model
module Value = Minir.Value
module Name = Dns.Name
module Rr = Dns.Rr
module Zone = Dns.Zone
module Message = Dns.Message
module Layout = Dnstree.Layout
module Encode = Dnstree.Encode
module Rrlookup = Spec.Rrlookup
module Sval = Symex.Sval
module Exec = Symex.Exec
module Summary = Symex.Summary
type mode = Inline_all | With_summaries
type mismatch = {
  query : Message.query;
  detail : string;
  engine_replay : string;
  spec_replay : string;
}
type panic_report = { panic_query : Message.query; reason : string; }
type report = {
  version : string;
  qtype : Rr.rtype;
  engine_paths : int;
  spec_paths : int;
  pairs_checked : int;
  solver_calls : int;
  unknowns : int; (* solver Unknowns this check leaned on *)
  cert_checks : int; (* verdict certificates validated *)
  cert_failures : int; (* certificates rejected (answers degraded) *)
  summary_cases : (string * int) list;
  summary_times : (string * float) list;
  mismatches : mismatch list;
  panics : panic_report list;
  stateless : bool;
  inconclusive : Budget.reason option; (* the check stopped short *)
  summary_fallback : bool; (* With_summaries degraded to Inline_all *)
  elapsed : float;
}

(* No mismatches and no panics — NOT the same as proved: a check that
   leaned on solver Unknowns or stopped short is [ok] but inconclusive.
   Use [status] for the three-valued verdict. *)
val ok : report -> bool

(* Proved | Refuted (with the report as counterexample carrier) |
   Inconclusive with a machine-readable reason. *)
val status : report -> report Budget.outcome

(* A zeroed report recording why a check stopped before results; the
   cert counters survive so a crash downstream of a certificate
   rejection still shows the rejection. *)
val inconclusive_report :
  ?summary_fallback:bool ->
  ?cert_checks:int ->
  ?cert_failures:int ->
  version:string ->
  qtype:Rr.rtype -> elapsed:float -> Budget.reason -> report
val qname_cells : unit -> Sval.scell

(* The analysis environment every harness calling the compiled engine
   provides for runs entering `resolve`: entry-argument facts and
   Layout-capacity field invariants of the encoded tree (re-verified
   against each program by the analysis before use). Lint analyzes
   the engine under it. *)
val engine_env : unit -> Analysis.env
type harness = {
  exec_ctx : Exec.ctx;
  resp_ptr : Value.ptr;
  init_mem : Sval.memory;
  frozen_below : int;
  store : Summary.store;
}
val prepare :
  ?store:Summary.store ->
  ?budget:Budget.t ->
  Minir.Instr.program -> Encode.t -> mode -> harness
val run_engine : harness -> Encode.t -> qtype:Rr.rtype -> Exec.result
type slot = {
  s_rname : Term.t array;
  s_rname_len : Term.t;
  s_rtype : Term.t;
  s_data_id : Term.t;
  s_target : Term.t array;
  s_target_len : Term.t;
  s_has_target : Term.t;
}
type image = {
  i_rcode : Term.t;
  i_aa : Term.t;
  i_counts : Term.t array;
  i_slots : slot array array;
}
val as_int_cell : Sval.scell -> Sval.Term.t
val as_bool_cell : Sval.scell -> Sval.Term.t
val slot_of_cell : Sval.scell -> slot
val image_of_mem : Sval.memory -> Value.ptr -> image
val expected_slot :
  Layout.interner -> int option -> Specsym.srr -> slot
exception Refuted
val collect_eqs : (string, int) Hashtbl.t -> Term.t -> unit
val partial_eval : (string, int) Hashtbl.t -> Term.t -> bool option
val quick_refute : Term.t list -> Term.t list -> bool

(* [?incr] routes entailments through an incremental assertion stack so
   obligations sharing their hypothesis tail reuse its analysis. *)
val entails :
  ?incr:Solver.Incremental.t ->
  hyps:Term.t list -> Term.t -> Solver.entailment
val check_eq :
  ?incr:Solver.Incremental.t -> pc:Term.t list -> Term.t -> Term.t -> bool
val check_slot :
  ?incr:Solver.Incremental.t ->
  pc:Term.t list -> where:string -> slot -> slot -> (unit, string) result
val section_names : string array
val check_images :
  ?incr:Solver.Incremental.t ->
  pc:Term.t list ->
  Layout.interner ->
  image ->
  Specsym.sresponse -> qlen_pin:int option -> (unit, string) result
val pin_qlen :
  ?incr:Solver.Incremental.t -> Term.t list -> Model.t -> int option
val replay_engine :
  Engine.Builder.config -> Zone.t -> Message.query -> string
val replay_spec : Zone.t -> Message.query -> string
val reason_of_check_exn : exn -> Budget.reason

(* The robust entry point: always returns a report; budget exhaustion,
   injected faults and unexpected exceptions become [inconclusive], and
   a summary failure degrades once to Inline_all (unless [fallback] is
   false) under an escalated budget. *)
val check_version :
  ?budget:Budget.t ->
  ?mode:mode ->
  ?fallback:bool ->
  ?store:Summary.store ->
  Engine.Builder.config -> Zone.t -> qtype:Rr.rtype -> report
val pp_report : Format.formatter -> report -> unit
