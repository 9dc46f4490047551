(* Concrete Minir interpreter.

   The reference executor: it replays counterexample queries produced by
   the refinement checker against the real engine code, it answers every
   query [dnsv serve] serves, and it powers the differential tests
   (engine vs. top-level specification on random zones). It runs the
   resolved form ([Code]) over a per-run copy-on-write overlay of the
   caller's memory, which it never mutates. Opaque-pointer instructions
   must be resolved by [Opaque] first; the interpreter rejects them. *)

type 'mem result = Returned of Value.t option * 'mem | Panicked of string
type outcome = Value.memory result
exception Out_of_fuel
val default_fuel : int

(* The memory of a finished run: the caller's memory under the run's
   overlay. Reading a block out of it is cheap; folding it into a
   [Value.memory] ([run] does) costs a map insertion per block the run
   allocated. *)
type overlay
val overlay_load : overlay -> Value.ptr -> Value.mval

(* Execute [fn] on [args] in [memory], which is never mutated. Fuel
   bounds the total instruction count ([Out_of_fuel] past it). A runtime
   error is [Panicked]; an undefined callee or jump target raises
   [Invalid_argument] when taken. [observer] fires at every block entry
   (before its instructions) with the function name, block label,
   written frame registers, and current memory, both snapshots that
   later steps of the run leave unchanged; used by the static-analysis
   soundness tests. They are built only when an observer is given. *)
val exec :
  ?fuel:int ->
  ?observer:
    (string ->
    Instr.label ->
    (Instr.reg, Value.t) Hashtbl.t ->
    Value.memory ->
    unit) ->
  Code.t ->
  memory:Value.memory ->
  fn:string -> args:Value.t list -> overlay result
(* [exec] on [Code.of_program p] (resolving [p] on every call), with the
   overlay folded into a [Value.memory]: the caller's blocks, the ones
   the run wrote, and the ones it allocated. *)
val run :
  ?fuel:int ->
  ?observer:
    (string ->
    Instr.label ->
    (Instr.reg, Value.t) Hashtbl.t ->
    Value.memory ->
    unit) ->
  Instr.program ->
  memory:Value.memory ->
  fn:string -> args:Value.t list -> outcome
