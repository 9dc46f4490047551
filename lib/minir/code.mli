(* The resolved program form both executors run on: functions and blocks
   in arrays, calls and jumps by index, registers as numbered frame
   slots, constant operands and all-constant GEP paths prebuilt.
   Resolution never fails; an undefined callee or jump target raises
   [Invalid_argument] (the message of [Instr.find_func] /
   [Instr.find_block]) only when an executor takes that edge. *)

type operand = Reg of int | Imm of Value.t

(* An [alloca] or [new] site; [template] caches the zero value of [ty]
   after its first allocation. *)
type alloc = { ty : Ty.t; mutable template : Value.mval option }

(* [callee] is -1 when no function is named [name]. *)
type call = { callee : int; name : string; args : operand array }

type rvalue =
  | Binop of Instr.binop * operand * operand
  | Icmp of Instr.icmp * operand * operand
  | Not of operand
  | Alloc of alloc
  | Load of operand
  | Gep of operand * operand list
  | Gep_const of operand * int list
  | Call of call
  | Opaque

type instr =
  | Assign of int * rvalue
  | Store of operand * operand (* value, pointer *)
  | Opaque_store
  | Call_void of call

(* Jump targets index [func.blocks]; a negative target -k-1 is the
   undefined label [func.missing.(k)]. *)
type term =
  | Br of int
  | Cond_br of operand * int * int
  | Ret of operand option
  | Panic of string
  | Unreachable

type block = {
  label : Instr.label;
  insns : instr array;
  term : term;
  src : Instr.block;
}

type func = {
  name : string;
  params : int array;
  reg_names : Instr.reg array;
  blocks : block array;
  entry : int;
  missing : Instr.label array;
  fsrc : Instr.func;
}

type t = {
  program : Instr.program;
  funcs : func array;
  index : (string, int) Hashtbl.t;
}

val of_program : Instr.program -> t

(* Index of the function named [name], or -1. *)
val func_index : t -> string -> int

(* [func c i name]: the function at index [i] (from [func_index c name]
   or a [call]); raises [Invalid_argument] naming [name] when [i] < 0. *)
val func : t -> int -> string -> func
val func_named : t -> string -> func

(* The block at a jump target; raises [Invalid_argument] for an
   undefined label. *)
val block : func -> int -> block

(* The [i]-th target of [b]'s terminator: 0 for [Br] and the true edge
   of [Cond_br], 1 for its false edge. *)
val successor : func -> block -> int -> block
val nslots : func -> int
