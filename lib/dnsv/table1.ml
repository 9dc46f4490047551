(* Experiment: Table 1 (§6.4) — the execution paths of TreeSearch
   walking the Figure-11 example domain tree.

   We summarize TreeSearch with a symbolic qname constrained under the
   zone origin and report, for each input-effect pair: the path
   condition, a satisfying example qname (like the paper's table), and
   the recorded effect (match kind and result node). The paper lists
   exactly 14 paths (P0–P13). *)

module Term = Smt.Term
module Solver = Smt.Solver
module Name = Dns.Name
module Rr = Dns.Rr
module Zone = Dns.Zone
module Layout = Dnstree.Layout
module Encode = Dnstree.Encode
module Tree = Dnstree.Tree
module Sval = Symex.Sval
module Exec = Symex.Exec
module Specsym = Refine.Specsym

type row = {
  path_id : int;
  condition : string;
  example_qname : string;
  kind : string; (* EXACT / CLOSEST / DELEGATION *)
  result_node : string;
}

type result = {
  rows : row list;
  zone : Zone.t;
  elapsed : float;
  solver_calls : int;
}

let kind_name k =
  if k = Layout.k_exact then "EXACT"
  else if k = Layout.k_delegation then "DELEGATION"
  else "CLOSEST"

let run ?(zone = Spec.Fixtures.figure11_zone) () : result =
  let t0 = Unix.gettimeofday () in
  let enc = Encode.encode (Tree.build zone) in
  let prog = Engine.Versions.compiled (Engine.Versions.fixed Engine.Versions.v3_0) in
  let ctx = Exec.create prog in
  let tenv = prog.Minir.Instr.tenv in
  let mem0 = Sval.memory_of_concrete enc.Encode.memory in
  let mem0, stack_ptr =
    Sval.alloc mem0 (Sval.scell_default tenv (Minir.Ty.Struct "NodeStack"))
  in
  let mem0, res_ptr =
    Sval.alloc mem0 (Sval.scell_default tenv (Minir.Ty.Struct "SearchResult"))
  in
  let mem0, qname_ptr =
    Sval.alloc mem0
      (Sval.CArray
         (Array.init Layout.max_labels (fun j ->
              Sval.CInt (Specsym.qsym_label j))))
  in
  let coder = enc.Encode.interner.Layout.coder in
  let pc =
    Specsym.under coder (Zone.origin zone)
    :: Specsym.domain_constraints ~max_labels:Layout.max_labels
  in
  let args =
    [
      Sval.SPtr enc.Encode.root;
      Sval.SPtr stack_ptr;
      Sval.SPtr res_ptr;
      Sval.SPtr qname_ptr;
      Sval.SInt Specsym.qsym_len;
      Sval.SBool Term.false_;
    ]
  in
  let results = Exec.run ctx ~memory:mem0 ~pc ~fn:"treeSearch" ~args in
  let node_name_of_block b =
    match
      List.find_opt (fun (_, blk) -> blk = b) enc.Encode.node_blocks
    with
    | Some (name, _) -> Name.to_string name
    | None -> Printf.sprintf "block#%d" b
  in
  let rows =
    List.mapi
      (fun idx ((path : Exec.path), outcome) ->
        (match outcome with
        | Exec.Returned None -> ()
        | Exec.Returned (Some _) -> invalid_arg "treeSearch returned a value"
        | Exec.Panicked m -> invalid_arg ("treeSearch panicked: " ^ m));
        let example, kind, node =
          match Solver.check path.Exec.pc with
          | Solver.Sat m -> (
              let q = Specsym.query_of_model coder m ~qtype:Rr.A in
              match Sval.load_cell path.Exec.mem res_ptr with
              | Sval.CStruct [| node_cell; kind_cell |] ->
                  let kind =
                    match kind_cell with
                    | Sval.CInt (Term.Int_const k) -> kind_name k
                    | _ -> "?"
                  in
                  let node =
                    match node_cell with
                    | Sval.CPtr p -> node_name_of_block p.Minir.Value.block
                    | Sval.CNull -> "nil"
                    | _ -> "?"
                  in
                  (Name.to_string q.Dns.Message.qname, kind, node)
              | _ -> ("?", "?", "?"))
          | _ -> ("<unsat>", "?", "?")
        in
        (* Render the interesting conjuncts (skip the domain bounds). *)
        let condition =
          path.Exec.pc
          |> List.filter (fun t -> not (List.memq t pc))
          |> List.rev_map Term.to_string
          |> String.concat " && "
        in
        {
          path_id = idx;
          condition;
          example_qname = example;
          kind;
          result_node = node;
        })
      results
  in
  {
    rows;
    zone;
    elapsed = Unix.gettimeofday () -. t0;
    solver_calls = ctx.Exec.solver_calls;
  }

let print (r : result) =
  Printf.printf
    "Table 1: execution paths of TreeSearch on the Figure-11 domain tree\n";
  Printf.printf "(zone %s, %d paths, %d solver calls, %.3fs)\n\n"
    (Name.to_string (Zone.origin r.zone))
    (List.length r.rows) r.solver_calls r.elapsed;
  Printf.printf "%-5s %-28s %-12s %-22s\n" "Path" "Example qname" "Kind"
    "Result node";
  List.iter
    (fun row ->
      Printf.printf "P%-4d %-28s %-12s %-22s\n" row.path_id row.example_qname
        row.kind row.result_node)
    r.rows;
  Printf.printf "\nPath conditions:\n";
  List.iter
    (fun row ->
      Printf.printf "P%-3d %s\n" row.path_id
        (if row.condition = "" then "(true)" else row.condition))
    r.rows
