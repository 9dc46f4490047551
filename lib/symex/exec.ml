(* Full-path symbolic execution over Minir (the verifier's core, §5.2).

   Every feasible control path is explored; branch feasibility is decided
   by the SMT solver against the accumulated path condition, so panics
   reported here are reachable modulo solver completeness. Calls are
   inlined by default; an *intercept* table redirects chosen callees to
   manual layer specifications or automatically generated summaries —
   the layered verification hook (§4.3). *)

module Term = Smt.Term
module Solver = Smt.Solver
module Instr = Minir.Instr
module Ty = Minir.Ty
module Value = Minir.Value
module Typing = Minir.Typing

type path = { pc : Term.t list; mem : Sval.memory }
type outcome = Returned of Sval.sval option | Panicked of string
type result = (path * outcome) list

type ctx = {
  code : Minir.Code.t; (* the program, resolved: jump targets and callees *)
  mutable intercepts : (string * intercept) list;
  mutable steps : int;
  max_steps : int;
  budget : Budget.t; (* fuel, path cap, deadline; shared with the solver *)
  mutable forks : int;
  mutable solver_calls : int;
  mutable unknowns : int; (* solver Unknowns treated as feasible *)
  incr : Solver.Incremental.t;
      (* assertion stack mirroring the current path condition: branch
         feasibility extends the parent path's analyzed solver state by
         one literal instead of re-translating the whole conjunction *)
}

and intercept = ctx -> path -> Sval.sval list -> result

exception Budget_exceeded of string

let default_max_steps = 5_000_000

let create ?(max_steps = default_max_steps) ?budget ?(intercepts = []) prog =
  {
    code = Minir.Code.of_program prog;
    intercepts;
    steps = 0;
    max_steps;
    budget = (match budget with Some b -> b | None -> Budget.unlimited ());
    forks = 0;
    solver_calls = 0;
    unknowns = 0;
    incr = Solver.Incremental.create ();
  }

let tenv ctx = ctx.code.Minir.Code.program.Instr.tenv

let tick ctx =
  ctx.steps <- ctx.steps + 1;
  if ctx.steps > ctx.max_steps then
    raise (Budget_exceeded "symbolic execution step budget exceeded");
  if Faultinject.fire Faultinject.Exec_fuel then
    raise
      (Budget.Exhausted
         (Budget.Fuel_exhausted
            { limit = Option.value ~default:0 ctx.budget.Budget.max_fuel }));
  Budget.tick_fuel ctx.budget

(* Charge one freshly forked path against the budget's path cap. *)
let charge_fork ctx =
  ctx.forks <- ctx.forks + 1;
  Budget.tick_path ctx.budget

(* Feasibility of a path condition. Unknown counts as feasible (sound
   for bug finding: we may report a spurious path, never miss one). *)
let feasible ctx (pc : Term.t list) : bool =
  ctx.solver_calls <- ctx.solver_calls + 1;
  match Solver.Incremental.check_pc ctx.incr pc with
  | Solver.Sat _ -> true
  | Solver.Unsat -> false
  | Solver.Unknown ->
      ctx.unknowns <- ctx.unknowns + 1;
      true

(* Fork on a boolean term. When only one side is feasible the condition
   is entailed and the path condition is left unchanged (keeps pc small). *)
let fork_bool ctx (path : path) (t : Term.t) ~(then_ : path -> 'a list)
    ~(else_ : path -> 'a list) : 'a list =
  match t with
  | Term.True -> then_ path
  | Term.False -> else_ path
  | t -> (
      (* Allocate each extended pc once and reuse it for both the
         feasibility query and the forked path: the assertion stack is
         keyed on the cons cells' physical identity, so the descent into
         the branch finds its condition already analyzed. *)
      let pc_t = t :: path.pc and pc_n = Term.not_ t :: path.pc in
      let sat_t = feasible ctx pc_t in
      let sat_n = feasible ctx pc_n in
      match (sat_t, sat_n) with
      | true, false -> then_ path
      | false, true -> else_ path
      | true, true ->
          charge_fork ctx;
          then_ { path with pc = pc_t } @ else_ { path with pc = pc_n }
      | false, false -> [] (* path condition itself became unsat *))

(* Concretize an integer term against the candidates 0..n-1 (symbolic
   array indexing): fork one branch per feasible value. Out-of-range
   values are the caller's panic case. *)
let fork_index ctx (path : path) (t : Term.t) ~(cap : int)
    ~(k : path -> int -> 'a list) ~(out_of_range : path -> 'a list) : 'a list =
  match t with
  | Term.Int_const v ->
      if v >= 0 && v < cap then k path v else out_of_range path
  | t ->
      let results = ref [] in
      for v = cap - 1 downto 0 do
        let pc_v = Term.eq t (Term.int v) :: path.pc in
        if feasible ctx pc_v then begin
          charge_fork ctx;
          results := k { path with pc = pc_v } v @ !results
        end
      done;
      let pc_oob =
        Term.or_ [ Term.lt t (Term.int 0); Term.ge t (Term.int cap) ]
        :: path.pc
      in
      if feasible ctx pc_oob then
        results := !results @ out_of_range { path with pc = pc_oob };
      !results

(* ------------------------------------------------------------------ *)
(* Operand and operator evaluation                                    *)
(* ------------------------------------------------------------------ *)

module Regs = Map.Make (String)

type regs = Sval.sval Regs.t

let operand_value (regs : regs) : Instr.operand -> Sval.sval = function
  | Instr.Const_int n -> Sval.SInt (Term.int n)
  | Instr.Const_bool b -> Sval.SBool (Term.of_bool b)
  | Instr.Null _ -> Sval.SNull
  | Instr.Reg r -> (
      match Regs.find_opt r regs with
      | Some v -> v
      | None -> Sval.error "read of unassigned register %%%s" r)

let as_int_term = function
  | Sval.SInt t -> t
  | v -> Sval.error "expected integer, got %a" Sval.pp_sval v

let as_bool_term = function
  | Sval.SBool t -> t
  | v -> Sval.error "expected boolean, got %a" Sval.pp_sval v

let eval_binop op a b : Sval.sval =
  match op with
  | Instr.Add -> Sval.SInt (Term.add [ as_int_term a; as_int_term b ])
  | Instr.Sub -> Sval.SInt (Term.sub (as_int_term a) (as_int_term b))
  | Instr.Mul -> (
      (* The logic is linear (§4.2): at least one operand must be
         constant. The engine only multiplies by constants. *)
      match (as_int_term a, as_int_term b) with
      | Term.Int_const k, t | t, Term.Int_const k -> Sval.SInt (Term.mul_const k t)
      | _ -> Sval.error "non-linear multiplication in symbolic execution")
  | Instr.Sdiv | Instr.Srem -> (
      match (as_int_term a, as_int_term b) with
      | Term.Int_const x, Term.Int_const y when y <> 0 ->
          Sval.SInt
            (Term.int (if op = Instr.Sdiv then x / y else x mod y))
      | _ -> Sval.error "symbolic division is not supported")
  | Instr.And_ -> Sval.SBool (Term.and_ [ as_bool_term a; as_bool_term b ])
  | Instr.Or_ -> Sval.SBool (Term.or_ [ as_bool_term a; as_bool_term b ])
  | Instr.Xor -> Sval.SBool (Term.not_ (Term.iff (as_bool_term a) (as_bool_term b)))

let eval_icmp op ty a b : Sval.sval =
  let bool_of t = Sval.SBool t in
  match ty with
  | Ty.Ptr _ | Ty.Opaque_ptr | Ty.Struct _ | Ty.Array _ -> (
      (* Pointer comparison: pointers are concrete, so this is decided
         immediately. *)
      let eq =
        match (a, b) with
        | Sval.SPtr p, Sval.SPtr q -> p = q
        | Sval.SNull, Sval.SNull -> true
        | Sval.SPtr _, Sval.SNull | Sval.SNull, Sval.SPtr _ -> false
        | _ -> Sval.error "pointer comparison on non-pointers"
      in
      match op with
      | Instr.Eq -> bool_of (Term.of_bool eq)
      | Instr.Ne -> bool_of (Term.of_bool (not eq))
      | _ -> Sval.error "ordered comparison on pointers")
  | Ty.I1 -> (
      let ta = as_bool_term a and tb = as_bool_term b in
      match op with
      | Instr.Eq -> bool_of (Term.iff ta tb)
      | Instr.Ne -> bool_of (Term.not_ (Term.iff ta tb))
      | _ -> Sval.error "ordered comparison on booleans")
  | Ty.I64 -> (
      let ta = as_int_term a and tb = as_int_term b in
      match op with
      | Instr.Eq -> bool_of (Term.eq ta tb)
      | Instr.Ne -> bool_of (Term.neq ta tb)
      | Instr.Slt -> bool_of (Term.lt ta tb)
      | Instr.Sle -> bool_of (Term.le ta tb)
      | Instr.Sgt -> bool_of (Term.gt ta tb)
      | Instr.Sge -> bool_of (Term.ge ta tb))

(* ------------------------------------------------------------------ *)
(* The executor                                                       *)
(* ------------------------------------------------------------------ *)

(* Resolve GEP indices against the pointee type, forking on symbolic
   array indices. Continues with the fully concrete pointer. *)
let rec resolve_gep ctx (path : path) (ty : Ty.t) (base : Value.ptr)
    (indices : Sval.sval list) (k : path -> Value.ptr -> 'a list) : 'a list =
  match indices with
  | [] -> k path base
  | idx :: rest -> (
      match ty with
      | Ty.Array (elt, cap) ->
          fork_index ctx path (as_int_term idx) ~cap
            ~k:(fun path i ->
              resolve_gep ctx path elt
                { base with Value.path = base.Value.path @ [ i ] }
                rest k)
            ~out_of_range:(fun _ ->
              Sval.error
                "gep index out of range (missing bounds check in frontend)")
      | Ty.Struct name -> (
          let def = Ty.find_struct (tenv ctx) name in
          match as_int_term idx with
          | Term.Int_const i ->
              let fty = (Ty.field_at def i).Ty.fty in
              resolve_gep ctx path fty
                { base with Value.path = base.Value.path @ [ i ] }
                rest k
          | _ -> Sval.error "symbolic struct field index")
      | _ -> Sval.error "gep into scalar type")

let rec exec_call (ctx : ctx) (path : path) (fn_name : string)
    (args : Sval.sval list) : result =
  match List.assoc_opt fn_name ctx.intercepts with
  | Some handler -> handler ctx path args
  | None ->
      let f = Minir.Code.func_named ctx.code fn_name in
      let params = f.Minir.Code.fsrc.Instr.params in
      if List.length args <> List.length params then
        Sval.error "arity mismatch calling %s" fn_name;
      let regs =
        List.fold_left2 (fun m (r, _) v -> Regs.add r v m) Regs.empty params args
      in
      exec_block ctx path f regs (Minir.Code.block f f.Minir.Code.entry)

and exec_block ctx path f regs (b : Minir.Code.block) : result =
  exec_insns ctx path regs b.Minir.Code.src.Instr.insns (fun path regs ->
      tick ctx;
      match b.Minir.Code.src.Instr.term with
      | Instr.Br _ -> exec_block ctx path f regs (Minir.Code.successor f b 0)
      | Instr.Cond_br (c, _, _) ->
          let t = as_bool_term (operand_value regs c) in
          fork_bool ctx path t
            ~then_:(fun path ->
              exec_block ctx path f regs (Minir.Code.successor f b 0))
            ~else_:(fun path ->
              exec_block ctx path f regs (Minir.Code.successor f b 1))
      | Instr.Ret None -> [ (path, Returned None) ]
      | Instr.Ret (Some o) -> [ (path, Returned (Some (operand_value regs o))) ]
      | Instr.Panic reason -> [ (path, Panicked reason) ]
      | Instr.Unreachable -> [ (path, Panicked "reached unreachable block") ])

(* Execute a straight-line instruction list, forking as needed, then
   continue with [k]. *)
and exec_insns ctx path regs (insns : Instr.instr list)
    (k : path -> regs -> result) : result =
  match insns with
  | [] -> k path regs
  | insn :: rest -> (
      tick ctx;
      let continue_ path regs = exec_insns ctx path regs rest k in
      match insn with
      | Instr.Assign (r, rv) ->
          eval_rvalue ctx path regs rv (fun path v ->
              continue_ path (Regs.add r v regs))
      | Instr.Store (_ty, vo, po) -> (
          let v = operand_value regs vo in
          match operand_value regs po with
          | Sval.SPtr p ->
              continue_
                { path with mem = Sval.store path.mem p (Sval.scell_of_sval v) }
                regs
          | Sval.SNull -> [ (path, Panicked "nil store") ]
          | _ -> Sval.error "store through non-pointer")
      | Instr.Opaque_store _ ->
          Sval.error "opaque store not resolved (run the Opaque pass)"
      | Instr.Call_void (name, args) ->
          let vs = List.map (operand_value regs) args in
          let results = exec_call ctx path name vs in
          List.concat_map
            (fun (path', outcome) ->
              match outcome with
              | Returned _ -> continue_ path' regs
              | Panicked m -> [ (path', Panicked m) ])
            results)

and eval_rvalue ctx path regs (rv : Instr.rvalue)
    (k : path -> Sval.sval -> result) : result =
  match rv with
  | Instr.Binop (op, a, b) ->
      k path (eval_binop op (operand_value regs a) (operand_value regs b))
  | Instr.Icmp (op, ty, a, b) ->
      k path (eval_icmp op ty (operand_value regs a) (operand_value regs b))
  | Instr.Not a ->
      k path (Sval.SBool (Term.not_ (as_bool_term (operand_value regs a))))
  | Instr.Alloca ty ->
      let mem, ptr =
        Sval.alloc ~stack:true path.mem
          (Sval.scell_default (tenv ctx) ty)
      in
      k { path with mem } (Sval.SPtr ptr)
  | Instr.Newobject ty ->
      let mem, ptr =
        Sval.alloc path.mem (Sval.scell_default (tenv ctx) ty)
      in
      k { path with mem } (Sval.SPtr ptr)
  | Instr.Load (_ty, po) -> (
      match operand_value regs po with
      | Sval.SPtr p -> k path (Sval.load path.mem p)
      | Sval.SNull -> [ (path, Panicked "nil load") ]
      | _ -> Sval.error "load through non-pointer")
  | Instr.Gep (pointee, base, indices) -> (
      match operand_value regs base with
      | Sval.SPtr p ->
          let idx_vals = List.map (operand_value regs) indices in
          resolve_gep ctx path pointee p idx_vals (fun path ptr ->
              k path (Sval.SPtr ptr))
      | Sval.SNull -> [ (path, Panicked "nil gep") ]
      | _ -> Sval.error "gep through non-pointer")
  | Instr.Call (name, args) ->
      let vs = List.map (operand_value regs) args in
      let results = exec_call ctx path name vs in
      List.concat_map
        (fun (path', outcome) ->
          match outcome with
          | Returned (Some v) -> k path' v
          | Returned None -> k path' Sval.SUnit
          | Panicked m -> [ (path', Panicked m) ])
        results
  | Instr.Bitcast _ | Instr.Byte_gep _ | Instr.Opaque_load _ ->
      Sval.error "opaque pointer op not resolved (run the Opaque pass)"

(* Top-level entry: run [fn] on [args] from [memory] under the initial
   path condition [pc]. The ctx's budget also governs every solver call
   made for branch feasibility while the run is in progress. *)
let run (ctx : ctx) ~(memory : Sval.memory) ~(pc : Term.t list) ~(fn : string)
    ~(args : Sval.sval list) : result =
  Trace.with_span "exec" ~attrs:[ ("fn", fn) ] @@ fun () ->
  let r =
    Solver.with_budget ctx.budget (fun () ->
        exec_call ctx { pc; mem = memory } fn args)
  in
  Trace.add_attr "paths" (string_of_int (List.length r));
  r
