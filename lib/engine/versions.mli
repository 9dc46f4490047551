
module Layout = Dnstree.Layout
val v1_0 : Builder.config
val v2_0 : Builder.config
val v3_0 : Builder.config
val dev : Builder.config
val all : Builder.config list
val fixed : Builder.config -> Builder.config
val find : string -> Builder.config option
module Value = Minir.Value
module Message = Dns.Message
module Rr = Dns.Rr
type run_outcome = Response of Message.response | Engine_panic of string
(* [observer] is forwarded to the concrete interpreter (fires at every
   block entry; used by the static-analysis soundness tests).
   [run_compiled] expects a program returned by [compiled] on the calling
   domain: it runs on that program's memoized resolved form. Any other
   program is resolved again on every call (0.35-0.56 ms each). *)
val run_compiled :
  ?observer:
    (string ->
    Minir.Instr.label ->
    (Minir.Instr.reg, Value.t) Hashtbl.t ->
    Value.memory ->
    unit) ->
  Minir.Instr.program -> Dnstree.Encode.t -> Message.query -> run_outcome
(* Compile memo, one table per domain (parallel workers never share):
   each program with its resolved form, built on first use. *)
val compiled : Builder.config -> Minir.Instr.program
val run :
  ?observer:
    (string ->
    Minir.Instr.label ->
    (Minir.Instr.reg, Value.t) Hashtbl.t ->
    Value.memory ->
    unit) ->
  Builder.config -> Dns.Zone.t -> Message.query -> run_outcome
