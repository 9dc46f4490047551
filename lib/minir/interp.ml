(* Concrete Minir interpreter.

   The reference executor: it replays counterexample queries produced by
   the refinement checker against the real engine code, it answers every
   query [dnsv serve] serves, and it powers the differential tests
   (engine vs. top-level specification on random zones). It runs the
   resolved form ([Code]): frames are slot arrays and jumps and calls are
   array indices. Opaque-pointer instructions must be resolved by
   [Opaque] first; the interpreter rejects them.

   Memory is a per-run overlay on the caller's [Value.memory], which is
   never mutated: a block of it is deep-copied on its first write, blocks
   allocated during the run live in the overlay, and stores write in
   place. The memory a run returns is the caller's with the overlay's
   blocks added, equal to what functional path-copying stores would have
   produced. *)

type 'mem result = Returned of Value.t option * 'mem | Panicked of string
type outcome = Value.memory result

exception Out_of_fuel

let default_fuel = 2_000_000

module Int_map = Value.Int_map

(* The content of a frame slot no instruction has written yet; found by
   physical equality, so no program value can be mistaken for it. *)
let unassigned = Value.VPtr { Value.block = min_int; path = [] }

type state = {
  base : Value.memory;
  mutable copied : Value.mval Int_map.t; (* base blocks written this run *)
  mutable fresh : Value.mval array; (* block base.next_block + i *)
  mutable next : int;
  mutable fuel : int;
}

let tick st =
  st.fuel <- st.fuel - 1;
  if st.fuel <= 0 then raise Out_of_fuel

let is_fresh st b = b >= st.base.Value.next_block && b < st.next

let block_value st b =
  if is_fresh st b then st.fresh.(b - st.base.Value.next_block)
  else if Int_map.is_empty st.copied then Value.block_value st.base b
  else
    match Int_map.find_opt b st.copied with
    | Some mv -> mv
    | None -> Value.block_value st.base b

let set_block st b mv =
  if is_fresh st b then st.fresh.(b - st.base.Value.next_block) <- mv
  else st.copied <- Int_map.add b mv st.copied

let rec deep_copy = function
  | Value.MStruct fs -> Value.MStruct (Array.map deep_copy fs)
  | Value.MArray cs -> Value.MArray (Array.map deep_copy cs)
  | (Value.MInt _ | MBool _ | MPtr _ | MNull | MUndef) as mv -> mv

(* The block's root, private to this run. *)
let writable st b =
  let mv = block_value st b in
  if is_fresh st b || Int_map.mem b st.copied then mv
  else begin
    let mv = deep_copy mv in
    set_block st b mv;
    mv
  end

let alloc st mv =
  let b = st.next in
  let i = b - st.base.Value.next_block in
  if i >= Array.length st.fresh then begin
    let grown = Array.make (max 16 (2 * i)) Value.MUndef in
    Array.blit st.fresh 0 grown 0 i;
    st.fresh <- grown
  end;
  st.next <- b + 1;
  set_block st b mv;
  Value.VPtr { Value.block = b; path = [] }

(* Write [v] at [path] inside [m] in place, with the bounds checks and
   messages of [Value.mval_get]. *)
let rec set_in (m : Value.mval) path v =
  match (m, path) with
  | _, [] -> assert false
  | Value.MStruct fields, i :: rest ->
      if i < 0 || i >= Array.length fields then
        Value.panic "struct field index %d out of range" i
      else begin
        match rest with [] -> fields.(i) <- v | _ -> set_in fields.(i) rest v
      end
  | Value.MArray cells, i :: rest ->
      if i < 0 || i >= Array.length cells then
        Value.panic "array index %d out of bounds (cap %d)" i (Array.length cells)
      else begin
        match rest with [] -> cells.(i) <- v | _ -> set_in cells.(i) rest v
      end
  | (Value.MInt _ | MBool _ | MPtr _ | MNull | MUndef), _ :: _ ->
      Value.panic "indexing into a scalar"

let store st (p : Value.ptr) v =
  match p.Value.path with
  | [] ->
      ignore (block_value st p.Value.block);
      set_block st p.Value.block v
  | path -> set_in (writable st p.Value.block) path v

(* The caller's memory with the run's blocks added, each passed through
   [copy]. *)
let memory_with copy st =
  let blocks =
    Int_map.fold (fun b mv m -> Int_map.add b (copy mv) m) st.copied
      st.base.Value.blocks
  in
  let blocks = ref blocks in
  for b = st.base.Value.next_block to st.next - 1 do
    blocks := Int_map.add b (copy st.fresh.(b - st.base.Value.next_block)) !blocks
  done;
  { Value.blocks = !blocks; next_block = st.next }

let memory_of st = memory_with Fun.id st

(* Shared boxes for the booleans and the small integers (label codes,
   lengths, counts, indices) that most results are. *)
let small_ints = Array.init 1024 (fun n -> Value.VInt n)
let vint n = if n >= 0 && n < 1024 then small_ints.(n) else Value.VInt n
let vtrue = Value.VBool true
let vfalse = Value.VBool false
let vbool b = if b then vtrue else vfalse

let value_of_mval = function
  | Value.MInt n -> vint n
  | Value.MBool b -> vbool b
  | mv -> Value.value_of_mval mv

let as_int = function
  | Value.VInt n -> n
  | v -> Value.panic "expected integer, got %a" Value.pp v

let as_bool = function
  | Value.VBool b -> b
  | v -> Value.panic "expected boolean, got %a" Value.pp v

let as_ptr = function
  | Value.VPtr p -> p
  | Value.VNull -> Value.panic "nil pointer dereference"
  | v -> Value.panic "expected pointer, got %a" Value.pp v

let eval_binop op a b =
  match op with
  | Instr.Add -> vint (as_int a + as_int b)
  | Instr.Sub -> vint (as_int a - as_int b)
  | Instr.Mul -> vint (as_int a * as_int b)
  | Instr.Sdiv ->
      let d = as_int b in
      if d = 0 then Value.panic "integer divide by zero"
      else vint (as_int a / d)
  | Instr.Srem ->
      let d = as_int b in
      if d = 0 then Value.panic "integer divide by zero"
      else vint (as_int a mod d)
  | Instr.And_ -> vbool (as_bool a && as_bool b)
  | Instr.Or_ -> vbool (as_bool a || as_bool b)
  | Instr.Xor -> vbool (as_bool a <> as_bool b)

let rec eval_icmp op a b =
  let open Value in
  match op with
  | Instr.Eq -> (
      match (a, b) with
      | VInt x, VInt y -> vbool (x = y)
      | VBool x, VBool y -> vbool (x = y)
      | VPtr x, VPtr y -> vbool (x = y)
      | VNull, VNull -> vtrue
      | (VPtr _, VNull | VNull, VPtr _) -> vfalse
      | _ -> Value.panic "icmp eq: incomparable values")
  | Instr.Ne -> (
      match eval_icmp Instr.Eq a b with
      | VBool r -> vbool (not r)
      | _ -> assert false)
  | Instr.Slt -> vbool (as_int a < as_int b)
  | Instr.Sle -> vbool (as_int a <= as_int b)
  | Instr.Sgt -> vbool (as_int a > as_int b)
  | Instr.Sge -> vbool (as_int a >= as_int b)

let operand_value (f : Code.func) (fr : Value.t array) = function
  | Code.Imm v -> v
  | Code.Reg s ->
      let v = fr.(s) in
      if v == unassigned then
        Value.panic "read of unassigned register %%%s" f.Code.reg_names.(s)
      else v

let instantiate tenv (a : Code.alloc) =
  match a.Code.template with
  | Some mv -> deep_copy mv
  | None ->
      let mv = Value.mval_default tenv a.Code.ty in
      a.Code.template <- Some mv;
      deep_copy mv

(* The frame as the observer sees it: name → value of every written
   slot. *)
let frame_table (f : Code.func) fr =
  let regs = Hashtbl.create 32 in
  Array.iteri
    (fun s v -> if v != unassigned then Hashtbl.replace regs f.Code.reg_names.(s) v)
    fr;
  regs

(* Execute [fn] on [args] in [memory]. Fuel bounds the total instruction
   count, turning accidental non-termination into an exception rather
   than a hang. [observer], if given, is called at every block entry
   (before its instructions) with the function name, block label, the
   frame's written registers, and current memory — the hook the
   static-analysis soundness tests use to compare concrete runs against
   abstract states. The table and memory are built only when an observer
   is given, as snapshots: the blocks the run owns are deep-copied, so
   later stores never change what an observer kept. *)
let exec ?(fuel = default_fuel)
    ?(observer :
       (string -> Instr.label -> (Instr.reg, Value.t) Hashtbl.t ->
        Value.memory -> unit)
       option) (c : Code.t) ~(memory : Value.memory) ~(fn : string)
    ~(args : Value.t list) : state result =
  let tenv = c.Code.program.Instr.tenv in
  let st =
    {
      base = memory;
      copied = Int_map.empty;
      fresh = [||];
      next = memory.Value.next_block;
      fuel;
    }
  in
  let rec call callee name (args : Value.t array) : Value.t option =
    let f = Code.func c callee name in
    if Array.length args <> Array.length f.Code.params then
      Value.panic "arity mismatch calling %s" name;
    let fr = Array.make (Code.nslots f) unassigned in
    Array.iteri (fun i s -> fr.(s) <- args.(i)) f.Code.params;
    exec_block f fr (Code.block f f.Code.entry)
  and exec_block f fr (b : Code.block) : Value.t option =
    (match observer with
    | Some obs ->
        obs f.Code.name b.Code.label (frame_table f fr)
          (memory_with deep_copy st)
    | None -> ());
    let insns = b.Code.insns in
    for i = 0 to Array.length insns - 1 do
      exec_instr f fr insns.(i)
    done;
    tick st;
    match b.Code.term with
    | Code.Br t -> exec_block f fr (Code.block f t)
    | Code.Cond_br (c, t1, t2) ->
        let target = if as_bool (operand_value f fr c) then t1 else t2 in
        exec_block f fr (Code.block f target)
    | Code.Ret None -> None
    | Code.Ret (Some o) -> Some (operand_value f fr o)
    | Code.Panic reason -> Value.panic "%s" reason
    | Code.Unreachable -> Value.panic "reached unreachable block"
  and exec_instr f fr = function
    | Code.Assign (r, rv) ->
        tick st;
        let v = eval_rvalue f fr rv in
        fr.(r) <- v
    | Code.Store (v, ptr) ->
        tick st;
        let p = as_ptr (operand_value f fr ptr) in
        store st p (Value.mval_of_value (operand_value f fr v))
    | Code.Opaque_store ->
        Value.panic "opaque store not resolved (run the Opaque pass)"
    | Code.Call_void cl ->
        tick st;
        let vs = Array.map (operand_value f fr) cl.Code.args in
        ignore (call cl.Code.callee cl.Code.name vs)
  and eval_rvalue f fr = function
    | Code.Binop (op, a, b) ->
        eval_binop op (operand_value f fr a) (operand_value f fr b)
    | Code.Icmp (op, a, b) ->
        eval_icmp op (operand_value f fr a) (operand_value f fr b)
    | Code.Not a -> vbool (not (as_bool (operand_value f fr a)))
    | Code.Alloc a ->
        (* Go zero-initializes locals, so stack slots start at their
           type's default rather than undef. *)
        alloc st (instantiate tenv a)
    | Code.Load ptr ->
        let p = as_ptr (operand_value f fr ptr) in
        value_of_mval (Value.mval_get (block_value st p.Value.block) p.Value.path)
    | Code.Gep_const (base, idx) ->
        let bp = as_ptr (operand_value f fr base) in
        Value.VPtr { bp with Value.path = bp.Value.path @ idx }
    | Code.Gep (base, indices) ->
        let bp = as_ptr (operand_value f fr base) in
        let idx = List.map (fun o -> as_int (operand_value f fr o)) indices in
        Value.VPtr { bp with Value.path = bp.Value.path @ idx }
    | Code.Call cl -> (
        let vs = Array.map (operand_value f fr) cl.Code.args in
        match call cl.Code.callee cl.Code.name vs with
        | Some v -> v
        | None -> Value.VUnit)
    | Code.Opaque ->
        Value.panic "opaque pointer op not resolved (run the Opaque pass)"
  in
  match call (Code.func_index c fn) fn (Array.of_list args) with
  | v -> Returned (v, st)
  | exception Value.Runtime_panic msg -> Panicked msg

type overlay = state

let overlay_load st (p : Value.ptr) =
  Value.mval_get (block_value st p.Value.block) p.Value.path

let run ?fuel ?observer (p : Instr.program) ~memory ~fn ~args : outcome =
  match exec ?fuel ?observer (Code.of_program p) ~memory ~fn ~args with
  | Returned (v, st) -> Returned (v, memory_of st)
  | Panicked msg -> Panicked msg
