(* Integration tests for the dnsv facade: the pipeline, the four
   experiment drivers (Tables 1–3, Figure 12), batch verification over
   generated zones, and the LoC accounting. *)

module Rr = Dns.Rr
module Name = Dns.Name
module Versions = Engine.Versions
module Builder = Engine.Builder

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Pipeline                                                           *)
(* ------------------------------------------------------------------ *)

let test_pipeline_clean_verdict () =
  let zone = Spec.Fixtures.figure11_zone in
  let v =
    Dnsv.Pipeline.verify ~qtypes:[ Rr.A ] (Versions.fixed Versions.v3_0) zone
  in
  check_bool "clean" true (Dnsv.Pipeline.clean v);
  check_bool "layers checked" true (v.Dnsv.Pipeline.layer_reports <> []);
  check_int "one report" 1 (List.length v.Dnsv.Pipeline.reports);
  check_bool "no issues" true (Dnsv.Pipeline.issues v = []);
  (* Rendering smoke test. *)
  let s = Dnsv.Pipeline.verdict_to_string v in
  check_bool "mentions VERIFIED" true
    (Astring.String.is_infix ~affix:"VERIFIED" s)

let test_pipeline_dirty_verdict () =
  let w = Spec.Fixtures.witness 6 in
  let v =
    Dnsv.Pipeline.verify ~qtypes:[ Rr.A ] ~check_layers:false Versions.v2_0
      w.Spec.Fixtures.zone
  in
  check_bool "dirty" false (Dnsv.Pipeline.clean v);
  check_bool "issues reported" true (Dnsv.Pipeline.issues v <> [])

let test_verify_batch () =
  match
    (Dnsv.Pipeline.verify_batch_run ~qtypes:[ Rr.A ] ~count:3 ~seed:11
       (Versions.fixed Versions.v3_0)
       (Name.of_string_exn "batch.example"))
      .Dnsv.Pipeline.br_outcome
    |> Option.get
  with
  | Dnsv.Pipeline.All_clean n -> check_int "all zones verified" 3 n
  | Dnsv.Pipeline.Failed { zone_index; verdict } ->
      Alcotest.failf "zone %d failed:@.%s" zone_index
        (Dnsv.Pipeline.verdict_to_string verdict)
  | Dnsv.Pipeline.Partial { reason; _ } ->
      Alcotest.failf "batch unexpectedly partial: %s"
        (Budget.reason_to_string reason)

let test_verify_batch_catches_buggy () =
  (* v1.0's MX confusion shows up on generated zones (they contain MX
     records), so the batch must fail. *)
  match
    (Dnsv.Pipeline.verify_batch_run ~qtypes:[ Rr.MX ] ~count:5 ~seed:11
       Versions.v1_0
       (Name.of_string_exn "batch.example"))
      .Dnsv.Pipeline.br_outcome
    |> Option.get
  with
  | Dnsv.Pipeline.All_clean _ ->
      Alcotest.fail "buggy engine must fail batch verification"
  | Dnsv.Pipeline.Failed _ -> ()
  | Dnsv.Pipeline.Partial { reason; _ } ->
      Alcotest.failf "batch unexpectedly partial: %s"
        (Budget.reason_to_string reason)

(* ------------------------------------------------------------------ *)
(* Experiment drivers                                                 *)
(* ------------------------------------------------------------------ *)

let test_table1_driver () =
  let r = Dnsv.Table1.run () in
  check_int "14 paths (Table 1)" 14 (List.length r.Dnsv.Table1.rows);
  (* Exactly one EXACT row per tree node (5 nodes in Figure 11). *)
  let exact =
    List.filter (fun row -> row.Dnsv.Table1.kind = "EXACT") r.Dnsv.Table1.rows
  in
  check_int "5 exact rows" 5 (List.length exact);
  List.iter
    (fun row ->
      check_bool "example under origin" true
        (Name.is_under
           ~ancestor:(Name.of_string_exn "example.com")
           (Name.of_string_exn row.Dnsv.Table1.example_qname)))
    r.Dnsv.Table1.rows

let test_table2_driver () =
  let r = Dnsv.Table2.run () in
  check_int "nine rows" 9 (List.length r.Dnsv.Table2.rows);
  check_bool "all caught, all fixed clean" true (Dnsv.Table2.all_caught r);
  (* Bug 9 is the runtime error; the rest are mismatches. *)
  List.iter
    (fun (row : Dnsv.Table2.row) ->
      match row.Dnsv.Table2.evidence with
      | Dnsv.Table2.Runtime_error _ ->
          check_int "only bug 9 is a runtime error" 9 row.Dnsv.Table2.index
      | Dnsv.Table2.Mismatch _ ->
          check_bool "bugs 1-8 are mismatches" true (row.Dnsv.Table2.index < 9)
      | Dnsv.Table2.Not_caught -> Alcotest.fail "nothing may escape")
    r.Dnsv.Table2.rows

let test_table3_driver () =
  let r = Dnsv.Table3.run () in
  check_int "five artifacts" 5 (List.length r.Dnsv.Table3.rows);
  (* The implementation row dominates the spec rows, as in the paper. *)
  let impl =
    int_of_string
      (List.find
         (fun (row : Dnsv.Table3.row) -> row.Dnsv.Table3.artifact = "implementation")
         r.Dnsv.Table3.rows)
        .Dnsv.Table3.v2_size
  in
  check_bool "implementation is the largest artifact" true (impl > 200);
  check_bool "per-function sizes cover resolve" true
    (List.mem_assoc "resolve" r.Dnsv.Table3.impl_sizes)

let test_fig12_driver () =
  let r =
    Dnsv.Fig12.run ~zone:Spec.Fixtures.figure11_zone ~qtypes:[ Rr.A ] ()
  in
  let layers = List.map (fun row -> row.Dnsv.Fig12.layer) r.Dnsv.Fig12.rows in
  List.iter
    (fun expected ->
      check_bool (expected ^ " present") true (List.mem expected layers))
    [ "compareNames"; "compareRaw"; "treeSearch"; "resolve" ];
  (* The paper's headline: every layer under a minute. *)
  List.iter
    (fun row ->
      check_bool (row.Dnsv.Fig12.layer ^ " under 60s") true
        (row.Dnsv.Fig12.seconds < 60.0))
    r.Dnsv.Fig12.rows;
  check_bool "top level verified" true
    (let top =
       List.find (fun row -> row.Dnsv.Fig12.layer = "resolve") r.Dnsv.Fig12.rows
     in
     Astring.String.is_infix ~affix:"verified" top.Dnsv.Fig12.detail)

(* ------------------------------------------------------------------ *)
(* LoC accounting                                                     *)
(* ------------------------------------------------------------------ *)

let test_loc_accounting () =
  let p2 = Builder.golite_program Versions.v2_0 in
  let p3 = Builder.golite_program Versions.v3_0 in
  check_bool "program has size" true (Dnsv.Loc.program_size p2 > 100);
  let changed = Dnsv.Loc.changed_functions p2 p3 in
  check_bool "v2->v3 changed some functions" true (changed <> []);
  check_bool "resolve changed in v3" true (List.mem_assoc "resolve" changed);
  (* Identical versions have no diff. *)
  check_int "self diff" 0 (Dnsv.Loc.changed_size p2 p2);
  (* The fixed variant differs from the buggy one. *)
  let p2f = Builder.golite_program (Versions.fixed Versions.v2_0) in
  check_bool "fix is a real change" true (Dnsv.Loc.changed_size p2 p2f > 0)

let () =
  Alcotest.run "dnsv"
    [
      ( "pipeline",
        [
          Alcotest.test_case "clean verdict" `Quick test_pipeline_clean_verdict;
          Alcotest.test_case "dirty verdict" `Quick test_pipeline_dirty_verdict;
          Alcotest.test_case "batch over generated zones" `Slow
            test_verify_batch;
          Alcotest.test_case "batch catches buggy engine" `Slow
            test_verify_batch_catches_buggy;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "Table 1 driver" `Quick test_table1_driver;
          Alcotest.test_case "Table 2 driver" `Slow test_table2_driver;
          Alcotest.test_case "Table 3 driver" `Quick test_table3_driver;
          Alcotest.test_case "Figure 12 driver" `Slow test_fig12_driver;
        ] );
      ( "loc",
        [ Alcotest.test_case "accounting" `Quick test_loc_accounting ] );
    ]
