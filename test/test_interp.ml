(* The concrete interpreter, pinned: a golden table of (program, fuel)
   → outcome over hand-written programs that reach every runtime error
   path, the exact fuel at which real engine runs complete, and the
   isolation of the frozen zone image across queries. The tables were
   captured from the string-keyed interpreter this one replaced, after a
   differential of the two agreed on every run. *)

module Instr = Minir.Instr
module Value = Minir.Value
module Ty = Minir.Ty
module Interp = Minir.Interp
module Versions = Engine.Versions
module Encode = Dnstree.Encode
module Message = Dns.Message

(* ------------------------------------------------------------------ *)
(* Hand-written programs, one per runtime path                        *)
(* ------------------------------------------------------------------ *)

let tenv =
  [
    {
      Ty.sname = "Pair";
      fields =
        [ { Ty.fname = "a"; fty = Ty.I64 }; { Ty.fname = "xs"; fty = Ty.Array (Ty.I64, 3) } ];
    };
  ]

let pair = Ty.Struct "Pair"
let r x = Instr.Reg x
let i n = Instr.Const_int n
let b v = Instr.Const_bool v
let blk insns term = { Instr.insns; term }

let fn ?(params = []) ?(ret = Some Ty.I64) name blocks =
  {
    Instr.fn_name = name;
    params;
    ret_ty = ret;
    entry = fst (List.hd blocks);
    blocks;
  }

let prog funcs = { Instr.tenv; funcs }
let ret o = Instr.Ret (Some o)
let main ?params blocks = fn ?params "main" blocks

(* sum 0..n-1 in a loop through a stack slot: the fuel-sensitive one *)
let loop_sum =
  main ~params:[ ("n", Ty.I64) ]
    [
      ( "entry",
        blk
          [
            Instr.Assign ("acc", Instr.Alloca Ty.I64);
            Instr.Assign ("k", Instr.Alloca Ty.I64);
          ]
          (Instr.Br "head") );
      ( "head",
        blk
          [
            Instr.Assign ("kv", Instr.Load (Ty.I64, r "k"));
            Instr.Assign ("c", Instr.Icmp (Instr.Slt, Ty.I64, r "kv", r "n"));
          ]
          (Instr.Cond_br (r "c", "body", "exit")) );
      ( "body",
        blk
          [
            Instr.Assign ("av", Instr.Load (Ty.I64, r "acc"));
            Instr.Assign ("s", Instr.Binop (Instr.Add, r "av", r "kv"));
            Instr.Store (Ty.I64, r "s", r "acc");
            Instr.Assign ("k1", Instr.Binop (Instr.Add, r "kv", i 1));
            Instr.Store (Ty.I64, r "k1", r "k");
          ]
          (Instr.Br "head") );
      ("exit", blk [ Instr.Assign ("out", Instr.Load (Ty.I64, r "acc")) ] (ret (r "out")));
    ]

(* a heap pair, written through constant and dynamic GEPs, read back *)
let pair_prog =
  main ~params:[ ("j", Ty.I64) ]
    [
      ( "entry",
        blk
          [
            Instr.Assign ("p", Instr.Newobject pair);
            Instr.Assign ("fa", Instr.Gep (pair, r "p", [ i 0 ]));
            Instr.Store (Ty.I64, i 7, r "fa");
            Instr.Assign ("x", Instr.Gep (pair, r "p", [ i 1; r "j" ]));
            Instr.Store (Ty.I64, i 5, r "x");
            Instr.Assign ("v", Instr.Load (Ty.I64, r "x"));
            Instr.Assign ("w", Instr.Load (Ty.I64, r "fa"));
            Instr.Assign ("s", Instr.Binop (Instr.Mul, r "v", r "w"));
          ]
          (ret (r "s")) );
    ]

(* writes into a block of the caller's memory (block 0) *)
let poke_prog =
  main ~params:[ ("q", Ty.Ptr pair); ("v", Ty.I64) ]
    [
      ( "entry",
        blk
          [
            Instr.Assign ("x", Instr.Gep (pair, r "q", [ i 1; i 2 ]));
            Instr.Store (Ty.I64, r "v", r "x");
            Instr.Assign ("a", Instr.Gep (pair, r "q", [ i 0 ]));
            Instr.Assign ("old", Instr.Load (Ty.I64, r "a"));
            Instr.Store (Ty.I64, r "v", r "a");
          ]
          (ret (r "old")) );
    ]

let single name insns term = (name, prog [ main [ ("entry", blk insns term) ] ])

let programs : (string * Instr.program) list =
  [
    ("loop_sum", prog [ loop_sum ]);
    ("pair", prog [ pair_prog ]);
    ("poke", prog [ poke_prog ]);
    single "nil_load" [ Instr.Assign ("v", Instr.Load (Ty.I64, Instr.Null Ty.I64)) ] (ret (r "v"));
    single "nil_store" [ Instr.Store (Ty.I64, i 1, Instr.Null Ty.I64) ] (ret (i 0));
    single "array_oob"
      [
        Instr.Assign ("p", Instr.Alloca pair);
        Instr.Assign ("x", Instr.Gep (pair, r "p", [ i 1; i 3 ]));
        Instr.Assign ("v", Instr.Load (Ty.I64, r "x"));
      ]
      (ret (r "v"));
    single "array_oob_store"
      [
        Instr.Assign ("p", Instr.Alloca pair);
        Instr.Assign ("x", Instr.Gep (pair, r "p", [ i 1; i (-1) ]));
        Instr.Store (Ty.I64, i 9, r "x");
      ]
      (ret (i 0));
    single "field_oob"
      [
        Instr.Assign ("p", Instr.Alloca pair);
        Instr.Assign ("x", Instr.Gep (pair, r "p", [ i 4 ]));
        Instr.Store (Ty.I64, i 9, r "x");
      ]
      (ret (i 0));
    single "scalar_index"
      [
        Instr.Assign ("p", Instr.Alloca Ty.I64);
        Instr.Assign ("x", Instr.Gep (Ty.I64, r "p", [ i 0 ]));
        Instr.Assign ("v", Instr.Load (Ty.I64, r "x"));
      ]
      (ret (r "v"));
    single "scalar_index_store"
      [
        Instr.Assign ("p", Instr.Alloca Ty.I64);
        Instr.Assign ("x", Instr.Gep (Ty.I64, r "p", [ i 0; i 1 ]));
        Instr.Store (Ty.I64, i 1, r "x");
      ]
      (ret (i 0));
    single "aggregate_load"
      [ Instr.Assign ("p", Instr.Alloca pair); Instr.Assign ("v", Instr.Load (pair, r "p")) ]
      (ret (r "v"));
    single "whole_block_store"
      [
        Instr.Assign ("p", Instr.Alloca pair);
        Instr.Store (Ty.I64, i 3, r "p");
        Instr.Assign ("v", Instr.Load (Ty.I64, r "p"));
      ]
      (ret (r "v"));
    single "unassigned" [ Instr.Assign ("v", Instr.Binop (Instr.Add, r "nope", i 1)) ] (ret (r "v"));
    single "unassigned_both"
      [ Instr.Assign ("v", Instr.Binop (Instr.Add, r "left", r "right")) ]
      (ret (r "v"));
    single "div_zero" [ Instr.Assign ("v", Instr.Binop (Instr.Sdiv, i 1, i 0)) ] (ret (r "v"));
    single "rem_zero" [ Instr.Assign ("v", Instr.Binop (Instr.Srem, i 1, i 0)) ] (ret (r "v"));
    single "div_ok" [ Instr.Assign ("v", Instr.Binop (Instr.Sdiv, i (-7), i 2)) ] (ret (r "v"));
    single "expect_int" [ Instr.Assign ("v", Instr.Binop (Instr.Add, b true, i 1)) ] (ret (r "v"));
    single "expect_int_both"
      [ Instr.Assign ("v", Instr.Binop (Instr.Sub, b true, b false)) ]
      (ret (r "v"));
    single "expect_bool" [ Instr.Assign ("v", Instr.Not (i 3)) ] (ret (r "v"));
    single "expect_ptr" [ Instr.Assign ("v", Instr.Load (Ty.I64, i 3)) ] (ret (r "v"));
    single "gep_bool_index"
      [
        Instr.Assign ("p", Instr.Alloca pair);
        Instr.Assign ("x", Instr.Gep (pair, r "p", [ b true ]));
      ]
      (ret (i 0));
    single "icmp_incomparable"
      [ Instr.Assign ("v", Instr.Icmp (Instr.Eq, Ty.I64, i 1, b true)) ]
      (ret (r "v"));
    single "icmp_ne_ptr"
      [
        Instr.Assign ("p", Instr.Alloca Ty.I64);
        Instr.Assign ("v", Instr.Icmp (Instr.Ne, Ty.Ptr Ty.I64, r "p", Instr.Null Ty.I64));
      ]
      (ret (r "v"));
    single "bitcast" [ Instr.Assign ("v", Instr.Bitcast (i 0)) ] (ret (i 0));
    single "opaque_store" [ Instr.Opaque_store (Ty.I64, i 0, i 0) ] (ret (i 0));
    single "panic" [] (Instr.Panic "index out of range");
    single "unreachable" [] Instr.Unreachable;
    single "unknown_callee" [ Instr.Assign ("v", Instr.Call ("ghost", [ i 1 ])) ] (ret (r "v"));
    single "unknown_block" [] (Instr.Br "nowhere");
    single "unknown_struct" [ Instr.Assign ("p", Instr.Alloca (Ty.Struct "Ghost")) ] (ret (i 0));
    ( "store_unit",
      prog
        [
          main
            [
              ( "entry",
                blk
                  [
                    Instr.Assign ("p", Instr.Alloca Ty.I64);
                    Instr.Assign ("u", Instr.Call ("f", []));
                    Instr.Store (Ty.I64, r "u", r "p");
                  ]
                  (ret (i 0)) );
            ];
          fn ~ret:None "f" [ ("e", blk [] (Instr.Ret None)) ];
        ] );
    ( "dangling",
      prog
        [
          main ~params:[ ("q", Ty.Ptr Ty.I64) ]
            [ ("entry", blk [ Instr.Assign ("v", Instr.Load (Ty.I64, r "q")) ] (ret (r "v"))) ];
        ] );
    ( "arity",
      prog
        [
          main [ ("entry", blk [ Instr.Assign ("v", Instr.Call ("f", [ i 1 ])) ] (ret (r "v"))) ];
          fn ~params:[ ("a", Ty.I64); ("b", Ty.I64) ] "f" [ ("e", blk [] (ret (r "a"))) ];
        ] );
    ( "void_call",
      prog
        [
          main
            [
              ( "entry",
                blk
                  [
                    Instr.Call_void ("f", [ i 4 ]);
                    Instr.Assign ("u", Instr.Call ("f", [ i 4 ]));
                    Instr.Assign ("c", Instr.Icmp (Instr.Eq, Ty.I64, r "u", r "u"));
                  ]
                  (ret (r "c")) );
            ];
          fn ~ret:None ~params:[ ("a", Ty.I64) ] "f" [ ("e", blk [] (Instr.Ret None)) ];
        ] );
    ( "missing_entry",
      prog [ { (main [ ("entry", blk [] (ret (i 0))) ]) with Instr.entry = "start" } ] );
    ( "undef_load",
      prog
        [
          main ~params:[ ("q", Ty.Ptr pair) ]
            [
              ( "entry",
                blk
                  [
                    Instr.Assign ("x", Instr.Gep (pair, r "q", [ i 0 ]));
                    Instr.Assign ("v", Instr.Load (Ty.I64, r "x"));
                  ]
                  (ret (r "v")) );
            ];
        ] );
    ( "recurse",
      prog
        [
          main [ ("entry", blk [ Instr.Assign ("v", Instr.Call ("main", [])) ] (ret (r "v"))) ];
        ] );
  ]

(* The caller's memory holds one Pair at block 0 (all undef for
   [undef_load]); programs with a pointer parameter get a pointer to it,
   except [dangling], which points past the memory. *)
let setup name =
  let mem, q =
    Value.alloc Value.empty_memory
      ((if name = "undef_load" then Value.mval_undef else Value.mval_default) tenv pair)
  in
  let args =
    match name with
    | "loop_sum" -> [ Value.VInt 10 ]
    | "pair" -> [ Value.VInt 2 ]
    | "poke" -> [ Value.VPtr q; Value.VInt 11 ]
    | "undef_load" -> [ Value.VPtr q ]
    | "dangling" -> [ Value.VPtr { Value.block = 42; path = [] } ]
    | _ -> []
  in
  (mem, args)

let show_outcome = function
  | Interp.Returned (v, mem) ->
      let blocks =
        Value.Int_map.bindings mem.Value.blocks
        |> List.map (fun (b, mv) -> Format.asprintf "%d=%a" b Value.pp_mval mv)
      in
      Format.asprintf "ret %s; next %d; %s"
        (match v with None -> "void" | Some v -> Format.asprintf "%a" Value.pp v)
        mem.Value.next_block (String.concat " " blocks)
  | Interp.Panicked msg -> "panic: " ^ msg

let show_run f =
  match f () with
  | o -> show_outcome o
  | exception Interp.Out_of_fuel -> "out of fuel"
  | exception Invalid_argument m -> "invalid_arg: " ^ m

let run_program ?fuel name p =
  let memory, args = setup name in
  show_run (fun () -> Interp.run ?fuel p ~memory ~fn:"main" ~args)

(* (program, fuel, outcome) *)
let golden_programs =
  [
  ("loop_sum", None, "ret 45; next 3; 0={0, [0, 0, 0]} 1=45 2=10");
  ("loop_sum", Some 1, "out of fuel");
  ("loop_sum", Some 2, "out of fuel");
  ("loop_sum", Some 3, "out of fuel");
  ("loop_sum", Some 4, "out of fuel");
  ("loop_sum", Some 97, "out of fuel");
  ("loop_sum", Some 98, "out of fuel");
  ("loop_sum", Some 99, "ret 45; next 3; 0={0, [0, 0, 0]} 1=45 2=10");
  ("loop_sum", Some 100, "ret 45; next 3; 0={0, [0, 0, 0]} 1=45 2=10");
  ("pair", None, "ret 35; next 2; 0={0, [0, 0, 0]} 1={7, [0, 0, 5]}");
  ("pair", Some 1, "out of fuel");
  ("pair", Some 5, "out of fuel");
  ("pair", Some 9, "out of fuel");
  ("pair", Some 10, "ret 35; next 2; 0={0, [0, 0, 0]} 1={7, [0, 0, 5]}");
  ("poke", None, "ret 0; next 1; 0={11, [0, 0, 11]}");
  ("poke", Some 1, "out of fuel");
  ("poke", Some 5, "out of fuel");
  ("poke", Some 6, "out of fuel");
  ("poke", Some 7, "ret 0; next 1; 0={11, [0, 0, 11]}");
  ("nil_load", None, "panic: nil pointer dereference");
  ("nil_load", Some 1, "out of fuel");
  ("nil_store", None, "panic: nil pointer dereference");
  ("nil_store", Some 1, "out of fuel");
  ("array_oob", None, "panic: array index 3 out of bounds (cap 3)");
  ("array_oob", Some 1, "out of fuel");
  ("array_oob_store", None, "panic: array index -1 out of bounds (cap 3)");
  ("array_oob_store", Some 1, "out of fuel");
  ("field_oob", None, "panic: struct field index 4 out of range");
  ("field_oob", Some 1, "out of fuel");
  ("scalar_index", None, "panic: indexing into a scalar");
  ("scalar_index", Some 1, "out of fuel");
  ("scalar_index_store", None, "panic: indexing into a scalar");
  ("scalar_index_store", Some 1, "out of fuel");
  ("aggregate_load", None, "invalid_arg: value_of_mval: aggregate");
  ("aggregate_load", Some 1, "out of fuel");
  ("whole_block_store", None, "ret 3; next 2; 0={0, [0, 0, 0]} 1=3");
  ("whole_block_store", Some 1, "out of fuel");
  ("unassigned", None, "panic: read of unassigned register %nope");
  ("unassigned", Some 1, "out of fuel");
  ("unassigned_both", None, "panic: read of unassigned register %right");
  ("unassigned_both", Some 1, "out of fuel");
  ("div_zero", None, "panic: integer divide by zero");
  ("div_zero", Some 1, "out of fuel");
  ("rem_zero", None, "panic: integer divide by zero");
  ("rem_zero", Some 1, "out of fuel");
  ("div_ok", None, "ret -3; next 1; 0={0, [0, 0, 0]}");
  ("div_ok", Some 1, "out of fuel");
  ("expect_int", None, "panic: expected integer, got true");
  ("expect_int", Some 1, "out of fuel");
  ("expect_int_both", None, "panic: expected integer, got false");
  ("expect_int_both", Some 1, "out of fuel");
  ("expect_bool", None, "panic: expected boolean, got 3");
  ("expect_bool", Some 1, "out of fuel");
  ("expect_ptr", None, "panic: expected pointer, got 3");
  ("expect_ptr", Some 1, "out of fuel");
  ("gep_bool_index", None, "panic: expected integer, got true");
  ("gep_bool_index", Some 1, "out of fuel");
  ("icmp_incomparable", None, "panic: icmp eq: incomparable values");
  ("icmp_incomparable", Some 1, "out of fuel");
  ("icmp_ne_ptr", None, "ret true; next 2; 0={0, [0, 0, 0]} 1=0");
  ("icmp_ne_ptr", Some 1, "out of fuel");
  ("bitcast", None, "panic: opaque pointer op not resolved (run the Opaque pass)");
  ("bitcast", Some 1, "out of fuel");
  ("opaque_store", None, "panic: opaque store not resolved (run the Opaque pass)");
  ("opaque_store", Some 1, "panic: opaque store not resolved (run the Opaque pass)");
  ("panic", None, "panic: index out of range");
  ("panic", Some 1, "out of fuel");
  ("unreachable", None, "panic: reached unreachable block");
  ("unreachable", Some 1, "out of fuel");
  ("unknown_callee", None, "invalid_arg: Minir: unknown function ghost");
  ("unknown_callee", Some 1, "out of fuel");
  ("unknown_block", None, "invalid_arg: Minir: no block nowhere in function main");
  ("unknown_block", Some 1, "out of fuel");
  ("unknown_struct", None, "invalid_arg: Ty.find_struct: unknown struct Ghost");
  ("unknown_struct", Some 1, "out of fuel");
  ("store_unit", None, "invalid_arg: mval_of_value: unit");
  ("store_unit", Some 1, "out of fuel");
  ("dangling", None, "panic: dangling block 42");
  ("dangling", Some 1, "out of fuel");
  ("arity", None, "panic: arity mismatch calling f");
  ("arity", Some 1, "out of fuel");
  ("void_call", None, "panic: icmp eq: incomparable values");
  ("void_call", Some 1, "out of fuel");
  ("missing_entry", None, "invalid_arg: Minir: no block start in function main");
  ("missing_entry", Some 1, "invalid_arg: Minir: no block start in function main");
  ("undef_load", None, "panic: load of undefined value");
  ("undef_load", Some 1, "out of fuel");
  ("recurse", Some 1, "out of fuel");
  ("recurse", Some 2, "out of fuel");
  ("recurse", Some 500, "out of fuel");
  ]
(* (version, qname, qtype, least fuel that completes the run) on the
   reference zone *)
let golden_cutoffs =
  [
  ("1.0", "www.example.com", Dns.Rr.A, 2795);
  ("1.0", "nosuch.example.com", Dns.Rr.MX, 2241);
  ("1.0", "x.wild.example.com", Dns.Rr.TXT, 2427);
  ("2.0", "www.example.com", Dns.Rr.A, 2357);
  ("2.0", "nosuch.example.com", Dns.Rr.MX, 2205);
  ("2.0", "x.wild.example.com", Dns.Rr.TXT, 2420);
  ("3.0", "www.example.com", Dns.Rr.A, 2373);
  ("3.0", "nosuch.example.com", Dns.Rr.MX, 2241);
  ("3.0", "x.wild.example.com", Dns.Rr.TXT, 2428);
  ("dev", "www.example.com", Dns.Rr.A, 2365);
  ("dev", "nosuch.example.com", Dns.Rr.MX, 2241);
  ("dev", "x.wild.example.com", Dns.Rr.TXT, 2438);
  ("1.0-fixed", "www.example.com", Dns.Rr.A, 2354);
  ("1.0-fixed", "nosuch.example.com", Dns.Rr.MX, 2241);
  ("1.0-fixed", "x.wild.example.com", Dns.Rr.TXT, 2428);
  ("2.0-fixed", "www.example.com", Dns.Rr.A, 2354);
  ("2.0-fixed", "nosuch.example.com", Dns.Rr.MX, 2241);
  ("2.0-fixed", "x.wild.example.com", Dns.Rr.TXT, 2428);
  ("3.0-fixed", "www.example.com", Dns.Rr.A, 2365);
  ("3.0-fixed", "nosuch.example.com", Dns.Rr.MX, 2241);
  ("3.0-fixed", "x.wild.example.com", Dns.Rr.TXT, 2428);
  ("dev-fixed", "www.example.com", Dns.Rr.A, 2365);
  ("dev-fixed", "nosuch.example.com", Dns.Rr.MX, 2241);
  ("dev-fixed", "x.wild.example.com", Dns.Rr.TXT, 2428);
  ]

(* ------------------------------------------------------------------ *)
(* Engine runs                                                        *)
(* ------------------------------------------------------------------ *)

let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let reference_image () = Encode.encode (Dnstree.Tree.build Spec.Fixtures.reference_zone)

let version v =
  match Versions.find v with Some cfg -> cfg | None -> Alcotest.failf "no version %s" v

(* [Versions.run_compiled] with a fuel limit. *)
let engine_run ?fuel cfg (enc : Encode.t) (q : Message.query) =
  let mem, resp = Encode.alloc_response enc.Encode.memory in
  let mem, qname, qlen = Encode.alloc_qname enc mem q.Message.qname in
  let args =
    [
      Value.VPtr enc.Encode.root;
      Value.VPtr resp;
      Value.VPtr qname;
      Value.VInt qlen;
      Value.VInt (Dns.Rr.rtype_code q.Message.qtype);
    ]
  in
  let prog = Versions.compiled cfg in
  show_run (fun () ->
      match Interp.run ?fuel prog ~memory:mem ~fn:"resolve" ~args with
      | Interp.Returned (_, m) as o ->
          (* the decoded answer must be the one the serve path reads *)
          (match Versions.run_compiled prog enc q with
          | Versions.Response r ->
              check_bool "run_compiled agrees" true
                (Message.equal_response r (Encode.decode_response enc m resp))
          | Versions.Engine_panic msg -> Alcotest.failf "run_compiled panicked: %s" msg);
          o
      | o -> o)

let test_golden_programs () =
  List.iter
    (fun (name, fuel, expected) ->
      let p = List.assoc name programs in
      check_string
        (Printf.sprintf "%s at fuel %s" name
           (match fuel with None -> "default" | Some f -> string_of_int f))
        expected (run_program ?fuel name p))
    golden_programs

let test_golden_cutoffs () =
  let enc = reference_image () in
  List.iter
    (fun (v, qname, qtype, cutoff) ->
      let cfg = version v and q = Message.query (Dns.Name.of_string_exn qname) qtype in
      let where = Printf.sprintf "%s %s/%s" v qname (Dns.Rr.rtype_to_string qtype) in
      check_string (where ^ " one tick short") "out of fuel"
        (engine_run ~fuel:(cutoff - 1) cfg enc q);
      check_string (where ^ " at the cut-off") (engine_run cfg enc q)
        (engine_run ~fuel:cutoff cfg enc q))
    golden_cutoffs

(* The seed-1 loadgen mix, answered forward and then backward on one
   encoded image, gives the same answer to every question, and leaves
   the image equal to a fresh encoding: no query's writes reach the
   next. *)
let test_frozen_image () =
  let zone = Spec.Fixtures.reference_zone in
  let enc = reference_image () in
  let prog = Versions.compiled (Versions.fixed Versions.v3_0) in
  let mix = { Dnsv.Loadgen.queries = 1500; malformed_pct = 10; seed = 1 } in
  let questions =
    List.filter_map
      (fun i ->
        match Dnsv.Loadgen.datagram ~zone mix i with
        | `Valid, bytes -> (
            match Wire.decode bytes with
            | Ok m -> Some (List.hd m.Wire.question)
            | Error _ -> None)
        | `Malformed, _ -> None)
      (List.init mix.Dnsv.Loadgen.queries Fun.id)
  in
  let answer q =
    match Versions.run_compiled prog enc q with
    | Versions.Response r -> Format.asprintf "%a" Message.pp_response r
    | Versions.Engine_panic m -> "panic: " ^ m
  in
  let forward = List.map answer questions in
  let backward = List.rev_map answer (List.rev questions) in
  check_bool "questions in the mix" true (List.length questions > 1000);
  List.iter2
    (fun (q, a) b -> check_string (Format.asprintf "%a" Message.pp_query q) a b)
    (List.combine questions forward)
    backward;
  check_bool "image unchanged" true (enc.Encode.memory = (reference_image ()).Encode.memory);
  (* a program that does write into the caller's memory: the write shows
     in the returned memory only *)
  let memory, args = setup "poke" in
  let before = memory in
  (match Interp.run (List.assoc "poke" programs) ~memory ~fn:"main" ~args with
  | Interp.Returned (_, after) ->
      check_bool "write visible in the result" false (after = before)
  | Interp.Panicked m -> Alcotest.fail m);
  check_bool "caller memory untouched" true (memory = fst (setup "poke"))

(* The observer's register table and memory are snapshots: what an
   observer keeps from one block entry is unchanged by the stores the
   run makes after it, into a caller block and into a fresh one. *)
let test_observer_snapshots () =
  let store_twice =
    main ~params:[ ("q", Ty.Ptr pair) ]
      [
        ( "entry",
          blk
            [
              Instr.Assign ("p", Instr.Newobject pair);
              Instr.Assign ("x", Instr.Gep (pair, r "p", [ i 1; i 0 ]));
              Instr.Assign ("y", Instr.Gep (pair, r "q", [ i 0 ]));
              Instr.Store (Ty.I64, i 1, r "x");
              Instr.Store (Ty.I64, i 1, r "y");
            ]
            (Instr.Br "next") );
        ( "next",
          blk
            [
              Instr.Store (Ty.I64, i 2, r "x");
              Instr.Store (Ty.I64, i 2, r "y");
              Instr.Assign ("v", Instr.Load (Ty.I64, r "x"));
            ]
            (Instr.Br "last") );
        ("last", blk [ Instr.Store (Ty.I64, i 3, r "x") ] (ret (r "v")));
      ]
  in
  let memory, q = Value.alloc Value.empty_memory (Value.mval_default tenv pair) in
  let show regs (mem : Value.memory) =
    let regs =
      Hashtbl.fold (fun k v acc -> Format.asprintf "%s=%a" k Value.pp v :: acc) regs []
    in
    show_outcome (Interp.Returned (None, mem)) ^ " | " ^ String.concat " " (List.sort compare regs)
  in
  let kept = ref [] in
  let observer _ label regs mem = kept := (label, regs, mem, show regs mem) :: !kept in
  (match
     Interp.run ~observer (prog [ store_twice ]) ~memory ~fn:"main" ~args:[ Value.VPtr q ]
   with
  | Interp.Returned (Some (Value.VInt 2), _) -> ()
  | o -> Alcotest.fail (show_outcome o));
  check_string "entries" "entry next last"
    (String.concat " " (List.rev_map (fun (l, _, _, _) -> l) !kept));
  List.iter
    (fun (label, regs, mem, seen) -> check_string label seen (show regs mem))
    !kept

let () =
  Alcotest.run "interp"
    [
      ( "golden",
        [
          Alcotest.test_case "hand-written programs" `Quick test_golden_programs;
          Alcotest.test_case "engine fuel cut-offs" `Quick test_golden_cutoffs;
        ] );
      ("image", [ Alcotest.test_case "frozen image is isolated" `Quick test_frozen_image ]);
      ("observer", [ Alcotest.test_case "observer snapshots stay fixed" `Quick test_observer_snapshots ]);
    ]
