(* One verification step, run in a fresh process: compile one engine
   version (the step's set-up), verify it on the reference zone with
   all seven pipeline query types, dependency layers on, [jobs = 1],
   optionally against a persistent store, and report the verdict, its
   fingerprint and the known answer it must match.

   With tracing on, the run is recorded through the program's own
   [Trace] sink and the step also reports the exclusive (self) time of
   every span kind plus the metrics registry, which run.py turns into
   the per-layer ledger. *)

module Rr = Dns.Rr

let qtypes = [ Rr.A; Rr.AAAA; Rr.NS; Rr.CNAME; Rr.SOA; Rr.MX; Rr.TXT ]

(* The known answer, from the Table-2 registry alone: a "-fixed" twin
   must be proved; a base version must be refuted iff Table 2 seeds a
   bug in it (rows name "3.0/dev" for bugs shared by two releases). *)
let expected_status label =
  let fixed = Filename.check_suffix label "-fixed" in
  let base = if fixed then Filename.chop_suffix label "-fixed" else label in
  let seeded =
    List.exists
      (fun (i : Engine.Bugs.info) ->
        List.mem base (String.split_on_char '/' i.Engine.Bugs.version))
      Engine.Bugs.table2
  in
  if fixed || not seeded then "proved" else "refuted"

let status_name (v : Dnsv.Pipeline.verdict) =
  match Dnsv.Pipeline.status v with
  | Budget.Proved -> "proved"
  | Budget.Refuted _ -> "refuted"
  | Budget.Inconclusive r -> "inconclusive: " ^ Budget.reason_tag r

(* Self time of every span kind: a span's duration minus its children's.
   Summed over a forest this partitions the roots' wall time exactly. *)
let self_times (forest : Trace.forest) =
  let tbl = Hashtbl.create 16 in
  let rec walk (sp : Trace.span) =
    let kids = List.fold_left (fun a (c : Trace.span) -> a +. c.Trace.sp_dur) 0.0 sp.Trace.sp_children in
    let s, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt tbl sp.Trace.sp_name) in
    Hashtbl.replace tbl sp.Trace.sp_name (s +. sp.Trace.sp_dur -. kids, n + 1);
    List.iter walk sp.Trace.sp_children
  in
  List.iter walk forest;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let metrics_json (snap : Trace.Metrics.snapshot) =
  Jout.Obj
    [
      ("counters", Jout.Obj (List.map (fun (k, v) -> (k, Jout.Int v)) snap.Trace.Metrics.counters));
      ( "hist_sums",
        Jout.Obj
          (List.map
             (fun (k, (h : Trace.Metrics.hist)) -> (k, Jout.Num h.Trace.Metrics.h_sum))
             snap.Trace.Metrics.hists) );
    ]

(* [Store.Fingerprint.cone_fp] over every function, timed from outside
   on a physically fresh program record so the per-program memo cannot
   answer from the verification that just ran. *)
let cone_seconds prog =
  let fresh = { prog with Minir.Instr.funcs = prog.Minir.Instr.funcs } in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (f : Minir.Instr.func) -> ignore (Store.Fingerprint.cone_fp fresh f.Minir.Instr.fn_name))
    prog.Minir.Instr.funcs;
  Unix.gettimeofday () -. t0

(* This process's peak resident set (VmHWM) in kB, or 0 where /proc is
   not available. *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        | _ -> scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

let run ~engine ~label ~store_dir ~traced =
  let cfg =
    match Engine.Versions.find engine with
    | Some c -> c
    | None -> failwith ("unknown engine version " ^ engine)
  in
  let t0 = Unix.gettimeofday () in
  let prog = Engine.Versions.compiled cfg in
  let setup_s = Unix.gettimeofday () -. t0 in
  let zone = Spec.Fixtures.reference_zone in
  let timed () =
    let t0 = Unix.gettimeofday () in
    let store = Option.map (fun d -> Store.open_ d) store_dir in
    let open_s = Unix.gettimeofday () -. t0 in
    let v = Dnsv.Pipeline.verify ~qtypes ~check_layers:true ~jobs:1 ?store cfg zone in
    Option.iter Store.close store;
    (v, open_s, Unix.gettimeofday () -. t0)
  in
  let (v, open_s, verify_s), forest =
    if traced then Trace.recording timed else (timed (), [])
  in
  (* Peak memory of the step itself, read before the calibration's array
     can add to it; then time the host in the same warm process. *)
  let peak_rss_kb = peak_rss_kb () in
  Calibrate.sample ~reps:5;
  let status = status_name v and expected = expected_status label in
  let traced_fields =
    if not traced then []
    else
      [
        ("store_open_s", Jout.Num (if store_dir = None then 0.0 else open_s));
        ("cone_s", Jout.Num (cone_seconds prog));
        ( "self_s",
          Jout.Obj
            (List.map
               (fun (k, (s, n)) -> (k, Jout.Obj [ ("s", Jout.Num s); ("n", Jout.Int n) ]))
               (self_times forest)) );
        ("metrics", metrics_json (Trace.Metrics.snapshot ()));
      ]
  in
  Jout.print
    (Jout.Obj
       ([
          ("engine", Jout.Str engine);
          ("label", Jout.Str label);
          ("setup_s", Jout.Num setup_s);
          ("verify_s", Jout.Num verify_s);
          ("status", Jout.Str status);
          ("expected", Jout.Str expected);
          ("ok", Jout.Bool (status = expected));
          ("fingerprint", Jout.Str (Digest.to_hex (Digest.string (Dnsv.Pipeline.fingerprint v))));
          ("recommended_domains", Jout.Int (Domain.recommended_domain_count ()));
          ("jobs", Jout.Int 1);
          ("ocaml", Jout.Str Sys.ocaml_version);
          ("peak_rss_kb", Jout.Int peak_rss_kb);
          ("calibration", Calibrate.json ());
        ]
       @ traced_fields));
  status = expected
