(* The resolved program form both executors run on.

   [Instr.program] names everything by string: functions by name, blocks
   by label, registers by name. Executing it directly costs a list scan
   per call and per jump and a string-keyed table per frame. [of_program]
   resolves those names once: functions live in an array and calls carry
   the callee's index, each function's blocks live in an array and jumps
   carry the target's index, and registers become numbered frame slots.
   Constant operands become ready-made values and all-constant GEP index
   lists become ready-made paths.

   Resolution never fails. A call to an undefined function keeps index
   -1, and a jump to an undefined label gets a negative index into the
   function's [missing] table, so the executors raise the same
   [Invalid_argument] as a name lookup would, at the moment the bad edge
   is taken and not before. *)

type operand = Reg of int | Imm of Value.t

(* An [alloca] or [new] site (the same thing to a concrete run): the
   zero value of [ty] is built on first execution (so an unknown struct
   fails there, not at resolution) and copied for every later
   allocation. *)
type alloc = { ty : Ty.t; mutable template : Value.mval option }

type call = { callee : int; name : string; args : operand array }

type rvalue =
  | Binop of Instr.binop * operand * operand
  | Icmp of Instr.icmp * operand * operand
  | Not of operand
  | Alloc of alloc
  | Load of operand
  | Gep of operand * operand list
  | Gep_const of operand * int list (* every index a constant integer *)
  | Call of call
  | Opaque (* Bitcast, Byte_gep, Opaque_load: the Opaque pass removes them *)

type instr =
  | Assign of int * rvalue
  | Store of operand * operand (* value, pointer *)
  | Opaque_store
  | Call_void of call

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
  params : int array; (* slot of each parameter, in order *)
  reg_names : Instr.reg array; (* slot → register name *)
  blocks : block array;
  entry : int;
  missing : Instr.label array; (* jump target -k-1 names missing.(k) *)
  fsrc : Instr.func;
}

type t = {
  program : Instr.program;
  funcs : func array;
  index : (string, int) Hashtbl.t;
}

let resolve_func index (f : Instr.func) : func =
  let slots = Hashtbl.create 64 and names = ref [] and nslots = ref 0 in
  let slot r =
    match Hashtbl.find_opt slots r with
    | Some s -> s
    | None ->
        let s = !nslots in
        Hashtbl.add slots r s;
        names := r :: !names;
        incr nslots;
        s
  in
  let labels = Hashtbl.create 64 in
  List.iteri
    (fun i (l, _) -> if not (Hashtbl.mem labels l) then Hashtbl.add labels l i)
    f.Instr.blocks;
  let missing = ref [] and nmissing = ref 0 in
  let target l =
    match Hashtbl.find_opt labels l with
    | Some i -> i
    | None ->
        Hashtbl.add labels l (-(!nmissing) - 1);
        missing := l :: !missing;
        incr nmissing;
        -(!nmissing)
  in
  let operand = function
    | Instr.Reg r -> Reg (slot r)
    | Instr.Const_int n -> Imm (Value.VInt n)
    | Instr.Const_bool b -> Imm (Value.VBool b)
    | Instr.Null _ -> Imm Value.VNull
  in
  let call name args =
    {
      callee = Option.value ~default:(-1) (Hashtbl.find_opt index name);
      name;
      args = Array.of_list (List.map operand args);
    }
  in
  let rvalue = function
    | Instr.Binop (op, a, b) -> Binop (op, operand a, operand b)
    | Instr.Icmp (op, _, a, b) -> Icmp (op, operand a, operand b)
    | Instr.Not a -> Not (operand a)
    | Instr.Alloca ty | Instr.Newobject ty -> Alloc { ty; template = None }
    | Instr.Load (_, p) -> Load (operand p)
    | Instr.Gep (_, base, indices) -> (
        let base = operand base in
        let const = function Instr.Const_int n -> Some n | _ -> None in
        match List.filter_map const indices with
        | path when List.length path = List.length indices ->
            Gep_const (base, path)
        | _ -> Gep (base, List.map operand indices))
    | Instr.Call (name, args) -> Call (call name args)
    | Instr.Bitcast _ | Instr.Byte_gep _ | Instr.Opaque_load _ -> Opaque
  in
  let instr = function
    | Instr.Assign (r, rv) -> Assign (slot r, rvalue rv)
    | Instr.Store (_, v, p) -> Store (operand v, operand p)
    | Instr.Opaque_store _ -> Opaque_store
    | Instr.Call_void (name, args) -> Call_void (call name args)
  in
  let term = function
    | Instr.Br l -> Br (target l)
    | Instr.Cond_br (c, l1, l2) -> Cond_br (operand c, target l1, target l2)
    | Instr.Ret o -> Ret (Option.map operand o)
    | Instr.Panic reason -> Panic reason
    | Instr.Unreachable -> Unreachable
  in
  let params = Array.of_list (List.map (fun (r, _) -> slot r) f.Instr.params) in
  let entry = target f.Instr.entry in
  let blocks =
    Array.of_list
      (List.map
         (fun (label, (b : Instr.block)) ->
           let insns = Array.of_list (List.map instr b.Instr.insns) in
           { label; insns; term = term b.Instr.term; src = b })
         f.Instr.blocks)
  in
  {
    name = f.Instr.fn_name;
    params;
    reg_names = Array.of_list (List.rev !names);
    blocks;
    entry;
    missing = Array.of_list (List.rev !missing);
    fsrc = f;
  }

let of_program (p : Instr.program) : t =
  let index = Hashtbl.create 64 in
  List.iteri
    (fun i f ->
      if not (Hashtbl.mem index f.Instr.fn_name) then
        Hashtbl.add index f.Instr.fn_name i)
    p.Instr.funcs;
  {
    program = p;
    funcs = Array.of_list (List.map (resolve_func index) p.Instr.funcs);
    index;
  }

let func_index (c : t) name =
  Option.value ~default:(-1) (Hashtbl.find_opt c.index name)

let unknown_func name = invalid_arg ("Minir: unknown function " ^ name)

let func (c : t) i name = if i >= 0 then c.funcs.(i) else unknown_func name

let func_named (c : t) name = func c (func_index c name) name

let missing_block (f : func) t =
  invalid_arg
    (Printf.sprintf "Minir: no block %s in function %s"
       f.missing.(-t - 1) f.name)

let block (f : func) t = if t >= 0 then f.blocks.(t) else missing_block f t

let successor (f : func) (b : block) i =
  match (b.term, i) with
  | Br t, 0 | Cond_br (_, t, _), 0 | Cond_br (_, _, t), 1 -> block f t
  | _ -> invalid_arg "Minir.Code.successor"

let nslots (f : func) = Array.length f.reg_names
