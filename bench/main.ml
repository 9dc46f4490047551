(* The evaluation harness: regenerates every table and figure of the
   paper's evaluation (§7) and provides Bechamel micro-benchmarks for
   the core verification operations.

     dune exec bench/main.exe              # all tables + micro-benchmarks
     dune exec bench/main.exe -- table1    # just Table 1
     dune exec bench/main.exe -- table2    # just Table 2
     dune exec bench/main.exe -- table3    # just Table 3
     dune exec bench/main.exe -- fig12     # just Figure 12
     dune exec bench/main.exe -- micro     # just the Bechamel benches
     dune exec bench/main.exe -- ablation  # summaries vs. inlining
     dune exec bench/main.exe -- reverify  # cached/parallel re-verification
     dune exec bench/main.exe -- certoverhead # certificate-validation tax
     dune exec bench/main.exe -- traceoverhead # span-recording tax
     dune exec bench/main.exe -- chaos     # 200-plan seeded chaos soak
     dune exec bench/main.exe -- json      # machine-readable report (JSON);
                                           # exits 1 on perf/verdict/soundness
                                           # regression *)

open Bechamel
open Toolkit

let rule () = print_endline (String.make 78 '=')

let table1 () =
  rule ();
  Dnsv.Table1.print (Dnsv.Table1.run ());
  print_newline ()

let table2 () =
  rule ();
  Dnsv.Table2.print (Dnsv.Table2.run ());
  print_newline ()

let table3 () =
  rule ();
  Dnsv.Table3.print (Dnsv.Table3.run ());
  print_newline ()

let fig12 () =
  rule ();
  Dnsv.Fig12.print (Dnsv.Fig12.run ());
  print_newline ()

(* Ablation: the summarization design choice (§5.3) — whole-engine
   verification with summaries at resolution layers vs. naive full
   inlining. *)
let ablation () =
  rule ();
  print_endline
    "Ablation: summarized resolution layers vs. full inlining (3 qtypes,";
  print_endline "reference zone, engine v3.0-fixed)";
  print_newline ();
  let cfg = Engine.Versions.fixed Engine.Versions.v3_0 in
  let zone = Spec.Fixtures.reference_zone in
  let measure mode =
    let t0 = Unix.gettimeofday () in
    (* One summary store shared across the query types: summaries are
       reused wherever the calling shape recurs, which is where the
       technique pays off. *)
    let store = Symex.Summary.create_store () in
    let reports =
      List.map
        (fun qtype -> Refine.Check.check_version ~mode ~store cfg zone ~qtype)
        [ Dns.Rr.A; Dns.Rr.MX; Dns.Rr.NS ]
    in
    let ok = List.for_all Refine.Check.ok reports in
    let solver =
      List.fold_left
        (fun a (r : Refine.Check.report) -> a + r.Refine.Check.solver_calls)
        0 reports
    in
    (Unix.gettimeofday () -. t0, ok, solver)
  in
  let t_sum, ok_sum, calls_sum = measure Refine.Check.With_summaries in
  let t_inl, ok_inl, calls_inl = measure Refine.Check.Inline_all in
  Printf.printf "%-18s %10s %8s %14s\n" "mode" "seconds" "clean" "solver calls";
  Printf.printf "%-18s %10.3f %8b %14d\n" "with summaries" t_sum ok_sum
    calls_sum;
  Printf.printf "%-18s %10.3f %8b %14d\n" "full inlining" t_inl ok_inl
    calls_inl;
  Printf.printf
    "\nSummaries amortize re-exploration across call sites; both modes must\n";
  Printf.printf "agree on the verification verdict.\n\n"

(* ------------------------------------------------------------------ *)
(* Re-verification workload (Table-2 shaped)                          *)
(* ------------------------------------------------------------------ *)

(* Re-verify every fixed engine version [reverify_passes] times over
   the reference zone (all query types) — the workload of a developer
   re-running the proof after an unrelated edit. Two configurations:

   - cached:   sequential;
   - parallel: fanned over a [reverify_jobs]-worker domain pool
               (clamped to the machine's recommended domain count:
               oversubscribing cores only adds GC contention).

   The task list interleaves passes so the pool's static round-robin
   pins every pass of one version to one worker: its domain-local
   solver caches see the re-verification. Both configurations must
   produce byte-identical verdict fingerprints. *)

let reverify_passes = 2
let reverify_jobs = 4
let effective_jobs jobs = max 1 (min jobs (Domain.recommended_domain_count ()))

let reverify_versions () =
  List.map Engine.Versions.fixed
    Engine.Versions.[ v1_0; v2_0; v3_0; dev ]

(* Solver counters are read from the metrics registry as before/after
   deltas of this domain's cumulative cells. *)
let solver_count (d : Trace.Metrics.snapshot) name =
  Trace.Metrics.get d ("solver." ^ name)

type reverify_run = {
  rv_wall : float;
  rv_worker_walls : float list;
  rv_fingerprint : string;
  rv_stats : Trace.Metrics.snapshot; (* summed per-task deltas *)
}

let reverify_run ~jobs () =
  let zone = Spec.Fixtures.reference_zone in
  let tasks =
    List.concat (List.init reverify_passes (fun _ -> reverify_versions ()))
  in
  let jobs = effective_jobs jobs in
  Smt.Solver.clear_caches ();
  Dnsv.Pipeline.clear_summary_memo ();
  let task cfg =
    let s0 = Trace.Metrics.snapshot () in
    let v =
      Dnsv.Pipeline.verify ~check_layers:false ~budget:(Budget.create ()) cfg
        zone
    in
    ( Dnsv.Pipeline.fingerprint v,
      Trace.Metrics.diff (Trace.Metrics.snapshot ()) s0 )
  in
  let t0 = Unix.gettimeofday () in
  let results, walls = Parallel.Domainpool.map_timed ~jobs task tasks in
  let wall = Unix.gettimeofday () -. t0 in
  let stats =
    List.fold_left (fun acc (_, s) -> Trace.Metrics.sum acc s)
      Trace.Metrics.empty results
  in
  {
    rv_wall = wall;
    rv_worker_walls = walls;
    rv_fingerprint = String.concat "\n" (List.map fst results);
    rv_stats = stats;
  }

let reverify_all () =
  let cached = reverify_run ~jobs:1 () in
  let par = reverify_run ~jobs:reverify_jobs () in
  (cached, par)

(* ------------------------------------------------------------------ *)
(* Certificate-checking overhead                                      *)
(* ------------------------------------------------------------------ *)

(* The robustness tax of this PR: the cached sequential re-verification
   workload with certificate validation off (the PR-2 solver) vs. on
   (every answer — including cache and incremental-stack hits —
   re-validated by the independent checker). The wall-clock ratio must
   stay within [cert_overhead_gate]. Best-of-[cert_overhead_reps] per
   arm to keep machine noise out of the gate. *)

let cert_overhead_gate = 1.10
let cert_overhead_reps = 3

let best_of n f =
  let rec go k best =
    if k = 0 then best
    else
      let r = f () in
      go (k - 1) (if r.rv_wall < best.rv_wall then r else best)
  in
  go (n - 1) (f ())

let cert_overhead_runs () =
  let arm certify () =
    Smt.Solver.set_certify certify;
    let r = reverify_run ~jobs:1 () in
    Smt.Solver.set_certify true;
    r
  in
  let off = best_of cert_overhead_reps (arm false) in
  let on_ = best_of cert_overhead_reps (arm true) in
  (off, on_)

let cert_overhead () =
  rule ();
  print_endline
    "Certificate-checking overhead (cached sequential re-verification)";
  print_newline ();
  let off, on_ = cert_overhead_runs () in
  let ratio = on_.rv_wall /. off.rv_wall in
  Printf.printf "%-24s %8.3f s   cert checks %d\n" "validation off" off.rv_wall
    (solver_count off.rv_stats "cert_checks");
  Printf.printf "%-24s %8.3f s   cert checks %d\n" "validation on" on_.rv_wall
    (solver_count on_.rv_stats "cert_checks");
  Printf.printf "\noverhead %.3fx (gate <= %.2fx), verdicts identical: %b\n\n"
    ratio cert_overhead_gate
    (String.equal off.rv_fingerprint on_.rv_fingerprint)

(* ------------------------------------------------------------------ *)
(* Tracing overhead                                                   *)
(* ------------------------------------------------------------------ *)

(* The observability tax of this PR: the cached sequential
   re-verification workload with the trace sink disabled (the default)
   vs. recording the full span tree. Spans are allocation-light and the
   disabled path is a single atomic load, so the wall-clock ratio must
   stay within [trace_overhead_gate]. Best-of-[trace_overhead_reps] per
   arm to keep machine noise out of the gate. *)

let trace_overhead_gate = 1.05
let trace_overhead_reps = 9

let trace_overhead_runs () =
  let arm_untraced () = reverify_run ~jobs:1 () in
  let spans = ref 0 in
  let arm_traced () =
    let r, forest =
      Trace.recording (fun () -> reverify_run ~jobs:1 ())
    in
    spans := Trace.span_count forest;
    r
  in
  (* One discarded warm-up, then the arms *interleaved* (not
     back-to-back blocks): clock drift and thermal state over a long
     bench run would otherwise land entirely on whichever arm runs
     second and masquerade as tracing overhead. *)
  ignore (arm_untraced ());
  let best cur r =
    match cur with
    | Some b when b.rv_wall <= r.rv_wall -> Some b
    | _ -> Some r
  in
  let off = ref None and on_ = ref None in
  for _ = 1 to trace_overhead_reps do
    off := best !off (arm_untraced ());
    on_ := best !on_ (arm_traced ())
  done;
  (Option.get !off, Option.get !on_, !spans)

let trace_overhead () =
  rule ();
  print_endline "Tracing overhead (cached sequential re-verification)";
  print_newline ();
  let off, on_, spans = trace_overhead_runs () in
  let ratio = on_.rv_wall /. off.rv_wall in
  Printf.printf "%-24s %8.3f s\n" "tracing off" off.rv_wall;
  Printf.printf "%-24s %8.3f s   %d spans recorded\n" "tracing on" on_.rv_wall
    spans;
  Printf.printf "\noverhead %.3fx (gate <= %.2fx), verdicts identical: %b\n\n"
    ratio trace_overhead_gate
    (String.equal off.rv_fingerprint on_.rv_fingerprint)

(* ------------------------------------------------------------------ *)
(* Incremental cross-version re-verification (persistent store)       *)
(* ------------------------------------------------------------------ *)

(* The persistent-store probe: prime the store by verifying the buggy
   v3.0 engine, then verify its patched twin against the same store.
   The patch edits resolution-level code only, so everything outside
   the edit's cone of influence — layer verdicts, module summaries,
   solver results — is served from the store, and the warm run must
   finish in under a tenth of the cold storeless time with a
   byte-identical verdict fingerprint. Solver caches
   and the store's parsed-entry memos are scrubbed before every arm,
   so each run is cold apart from the store file itself. Warm reps
   each run over a fresh copy of the primed store (a warm rep would
   otherwise prime its own successor and quietly stop measuring the
   cross-version case). *)

let incremental_gate = 10.0
let incremental_reps = 2
let incremental_qtypes = [ Dns.Rr.A; Dns.Rr.MX ]

(* Cold-with-store vs. no-store on the same engine: the bookkeeping tax
   of recording every entry must stay within [store_overhead_gate]. *)
let store_overhead_gate = 1.10

(* Interleaved best-of-[store_overhead_reps] per arm: the arms are only
   ~0.6 s each, so on a busy single-core box a burst of steal time in
   one arm can swing the ratio by more than the gate's headroom; the
   min over enough interleaved reps converges on the quiet-machine
   wall for both arms. *)
let store_overhead_reps = 9

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir () =
  let dir = Filename.temp_file "dnsv-bench-store" "" in
  Sys.remove dir;
  dir

let copy_store src dst =
  Unix.mkdir dst 0o755;
  let file = "store.data" in
  let ic = open_in_bin (Filename.concat src file) in
  let n = in_channel_length ic in
  let b = really_input_string ic n in
  close_in ic;
  let oc = open_out_bin (Filename.concat dst file) in
  output_string oc b;
  close_out oc

type incr_run = { ir_wall : float; ir_fp : string }

let incr_verify ?store cfg =
  Smt.Solver.clear_caches ();
  Dnsv.Pipeline.clear_summary_memo ();
  let t0 = Unix.gettimeofday () in
  let v =
    Dnsv.Pipeline.verify ~qtypes:incremental_qtypes
      ~budget:(Budget.create ()) ?store cfg
      Spec.Fixtures.figure11_zone
  in
  { ir_wall = Unix.gettimeofday () -. t0; ir_fp = Dnsv.Pipeline.fingerprint v }

let incr_with_store dir f =
  let st = Store.open_ dir in
  Fun.protect ~finally:(fun () -> Store.close st) (fun () -> f st)

let best_incr cur r =
  match cur with Some b when b.ir_wall <= r.ir_wall -> Some b | _ -> Some r

type incremental_result = {
  inc_prime : incr_run; (* buggy engine, empty store *)
  inc_cold : incr_run; (* patched engine, no store *)
  inc_warm : incr_run; (* patched engine, primed store *)
  inc_entries : int; (* live entries after priming *)
}

let incremental_runs () =
  let primed = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf primed) @@ fun () ->
  let buggy = Engine.Versions.v3_0 in
  let patched = Engine.Versions.fixed Engine.Versions.v3_0 in
  let prime = incr_with_store primed (fun st -> incr_verify ~store:st buggy) in
  let entries = (Store.stat primed).Store.st_total in
  let cold = ref None and warm = ref None in
  for _ = 1 to incremental_reps do
    cold := best_incr !cold (incr_verify patched);
    let scratch = fresh_dir () in
    rm_rf scratch;
    copy_store primed scratch;
    Fun.protect
      ~finally:(fun () -> rm_rf scratch)
      (fun () ->
        warm :=
          best_incr !warm
            (incr_with_store scratch (fun st -> incr_verify ~store:st patched)))
  done;
  {
    inc_prime = prime;
    inc_cold = Option.get !cold;
    inc_warm = Option.get !warm;
    inc_entries = entries;
  }

type store_overhead_result = {
  so_without : incr_run;
  so_with : incr_run;
}

let store_overhead_runs () =
  let patched = Engine.Versions.fixed Engine.Versions.v3_0 in
  let without = ref None and with_ = ref None in
  for _ = 1 to store_overhead_reps do
    let w0 = incr_verify patched in
    without := best_incr !without w0;
    let dir = fresh_dir () in
    Fun.protect
      ~finally:(fun () -> rm_rf dir)
      (fun () ->
        let w1 = incr_with_store dir (fun st -> incr_verify ~store:st patched) in
        if Sys.getenv_opt "DNSV_BENCH_DEBUG" <> None then
          Printf.eprintf "  rep: without=%.4f with=%.4f ratio=%.3f\n%!"
            w0.ir_wall w1.ir_wall (w1.ir_wall /. w0.ir_wall);
        with_ := best_incr !with_ w1)
  done;
  { so_without = Option.get !without; so_with = Option.get !with_ }

let incremental () =
  rule ();
  print_endline
    "Incremental cross-version re-verification (persistent store)";
  print_newline ();
  let r = incremental_runs () in
  Printf.printf "%-34s %8.3f s   (%d entries persisted)\n"
    "prime (v3.0 buggy, empty store)" r.inc_prime.ir_wall r.inc_entries;
  Printf.printf "%-34s %8.3f s\n" "cold (v3.0 patched, no store)"
    r.inc_cold.ir_wall;
  Printf.printf "%-34s %8.3f s\n" "warm (v3.0 patched, primed store)"
    r.inc_warm.ir_wall;
  let speedup = r.inc_cold.ir_wall /. r.inc_warm.ir_wall in
  let identical = String.equal r.inc_cold.ir_fp r.inc_warm.ir_fp in
  Printf.printf
    "\nwarm speedup %.1fx (gate >= %.0fx), verdict fingerprints identical: \
     %b\n\n"
    speedup incremental_gate identical;
  let so = store_overhead_runs () in
  let ratio = so.so_with.ir_wall /. so.so_without.ir_wall in
  Printf.printf "store bookkeeping overhead %.3fx (gate <= %.2fx)\n\n" ratio
    store_overhead_gate;
  if (not identical) || speedup < incremental_gate then exit 1

let reverify () =
  rule ();
  Printf.printf
    "Re-verification workload: %d passes x %d fixed versions x %d qtypes\n\n"
    reverify_passes
    (List.length (reverify_versions ()))
    (List.length Dnsv.Pipeline.all_qtypes);
  let cached, par = reverify_all () in
  let line name (r : reverify_run) =
    Printf.printf
      "%-22s %8.3f s   speedup %5.2fx   dpllt %4d   cache %d/%d hit/miss   \
       incr/scratch %d/%d\n"
      name r.rv_wall
      (cached.rv_wall /. r.rv_wall)
      (solver_count r.rv_stats "dpllt_iterations")
      (solver_count r.rv_stats "cache_hits")
      (solver_count r.rv_stats "cache_misses")
      (solver_count r.rv_stats "incremental_checks")
      (solver_count r.rv_stats "scratch_checks")
  in
  line "cached, sequential" cached;
  line (Printf.sprintf "cached, --jobs %d" reverify_jobs) par;
  let identical = String.equal cached.rv_fingerprint par.rv_fingerprint in
  Printf.printf "\nverdict fingerprints identical across configurations: %b\n\n"
    identical;
  if not identical then exit 1

(* ------------------------------------------------------------------ *)
(* JSON budget-consumption report                                     *)
(* ------------------------------------------------------------------ *)

(* Hand-rolled JSON (no JSON library in the dependency set): one
   whole-pipeline verification with a tracked budget, reported as
   per-phase consumption — solver calls, paths, retries, wall time. *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_str s = "\"" ^ json_escape s ^ "\""

let json_obj fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> json_str k ^ ": " ^ v) fields)
  ^ "}"

let json_of_status = function
  | Budget.Proved -> json_str "proved"
  | Budget.Refuted _ -> json_str "refuted"
  | Budget.Inconclusive r -> json_str ("inconclusive:" ^ Budget.reason_tag r)

(* Minimum acceptable summarized-vs-inlined speedup (t_inlined /
   t_summarized), as a fraction of the ratio measured on the seed
   commit. The summaries ablation must not silently regress under the
   new solver plumbing. *)
let ablation_seed_speedup = 0.83
let ablation_regression_floor = 0.5

let json_of_stats (d : Trace.Metrics.snapshot) =
  json_obj
    (List.map
       (fun name -> (name, string_of_int (solver_count d name)))
       [
         "checks"; "fast_path"; "dpllt_iterations"; "unknowns"; "cache_hits";
         "cache_misses"; "incremental_checks"; "scratch_checks"; "cert_checks";
         "cert_failures";
       ])

let json_of_reverify (r : reverify_run) =
  json_obj
    [
      ("wall_s", Printf.sprintf "%.4f" r.rv_wall);
      ( "worker_walls_s",
        "["
        ^ String.concat ", "
            (List.map (Printf.sprintf "%.4f") r.rv_worker_walls)
        ^ "]" );
      ("solver", json_of_stats r.rv_stats);
    ]

let timed_ablation () =
  let cfg = Engine.Versions.fixed Engine.Versions.v3_0 in
  let zone = Spec.Fixtures.reference_zone in
  let measure mode =
    let t0 = Unix.gettimeofday () in
    let store = Symex.Summary.create_store () in
    let reports =
      List.map
        (fun qtype -> Refine.Check.check_version ~mode ~store cfg zone ~qtype)
        [ Dns.Rr.A; Dns.Rr.MX; Dns.Rr.NS ]
    in
    (Unix.gettimeofday () -. t0, List.for_all Refine.Check.ok reports)
  in
  let t_sum, ok_sum = measure Refine.Check.With_summaries in
  let t_inl, ok_inl = measure Refine.Check.Inline_all in
  (t_sum, t_inl, ok_sum && ok_inl)

(* ------------------------------------------------------------------ *)
(* Chaos soak                                                         *)
(* ------------------------------------------------------------------ *)

let chaos_seed = 1
let chaos_plans = 200

let timed_chaos () =
  let t0 = Unix.gettimeofday () in
  let o = Dnsv.Chaos.run ~seed:chaos_seed ~plans:chaos_plans () in
  (Unix.gettimeofday () -. t0, o)

let chaos () =
  rule ();
  Printf.printf "Chaos soak: %d seeded fault plans (seed %d)\n\n" chaos_plans
    chaos_seed;
  let wall, o = timed_chaos () in
  Format.printf "%a@." Dnsv.Chaos.pp o;
  Printf.printf "\nwall %.1f s\n\n" wall;
  if not (Dnsv.Chaos.ok o) then exit 1

(* ------------------------------------------------------------------ *)
(* Wire-path probe: in-process serve throughput plus the 0-crash gate *)
(* ------------------------------------------------------------------ *)

(* Two loadgen legs through Serve.handle (no sockets, so the numbers
   measure the codec + engine, not the kernel): an all-valid leg that
   must answer every query, and a 40%-malformed leg whose gates are
   crash gates — zero exceptions escaping the serve loop and zero
   decoder catch-all (barrier) firings. QPS is recorded, not gated:
   it is an observability number, the soundness story is the zeros. *)

let wire_queries = 400
let wire_seed = 0xD15
let wire_malformed_pct = 40

type wire_probe = {
  wp_valid : Dnsv.Loadgen.result;
  wp_malformed : Dnsv.Loadgen.result;
  wp_escaped : int; (* exceptions escaping Serve.handle — must be 0 *)
  wp_barrier : int; (* Wire decoder catch-all firings — must be 0 *)
}

let wire_probe () =
  Faultinject.reset ();
  let s =
    Dnsv.Serve.create
      ~config:(Engine.Versions.fixed Engine.Versions.v3_0)
      Spec.Fixtures.reference_zone
  in
  let barrier0 = Wire.barrier_hits () in
  let escaped = ref 0 in
  let transport d =
    try Dnsv.Loadgen.inproc s d
    with _ ->
      incr escaped;
      None
  in
  let leg malformed_pct =
    Dnsv.Loadgen.run ~zone:Spec.Fixtures.reference_zone transport
      { Dnsv.Loadgen.queries = wire_queries; malformed_pct; seed = wire_seed }
  in
  let valid = leg 0 in
  let malformed = leg wire_malformed_pct in
  {
    wp_valid = valid;
    wp_malformed = malformed;
    wp_escaped = !escaped;
    wp_barrier = Wire.barrier_hits () - barrier0;
  }

let wire_probe_ok wp =
  Dnsv.Loadgen.all_answered wp.wp_valid
  && wp.wp_escaped = 0 && wp.wp_barrier = 0
  && wp.wp_malformed.Dnsv.Loadgen.lg_timeouts = 0

let json_of_loadgen (r : Dnsv.Loadgen.result) =
  json_obj
    [
      ("sent", string_of_int r.Dnsv.Loadgen.lg_sent);
      ("malformed", string_of_int r.Dnsv.Loadgen.lg_malformed);
      ("answered", string_of_int r.Dnsv.Loadgen.lg_answered);
      ("undecodable", string_of_int r.Dnsv.Loadgen.lg_undecodable);
      ("timeouts", string_of_int r.Dnsv.Loadgen.lg_timeouts);
      ("qps", Printf.sprintf "%.0f" r.Dnsv.Loadgen.lg_qps);
      ("p50_ms", Printf.sprintf "%.3f" r.Dnsv.Loadgen.lg_p50_ms);
      ("p99_ms", Printf.sprintf "%.3f" r.Dnsv.Loadgen.lg_p99_ms);
    ]

let json_of_wire wp =
  json_obj
    [
      ("queries_per_leg", string_of_int wire_queries);
      ("malformed_pct", string_of_int wire_malformed_pct);
      ("valid", json_of_loadgen wp.wp_valid);
      ("malformed", json_of_loadgen wp.wp_malformed);
      ("escaped_exceptions", string_of_int wp.wp_escaped);
      ("barrier_hits", string_of_int wp.wp_barrier);
      ("ok", string_of_bool (wire_probe_ok wp));
    ]

let wire_qps () =
  rule ();
  Printf.printf
    "Wire path: %d in-process queries per leg (seed %#x, %d%% malformed leg)\n\n"
    wire_queries wire_seed wire_malformed_pct;
  let wp = wire_probe () in
  Format.printf "valid:     %a@." Dnsv.Loadgen.pp wp.wp_valid;
  Format.printf "malformed: %a@." Dnsv.Loadgen.pp wp.wp_malformed;
  Printf.printf "escaped exceptions %d, decoder barrier hits %d\n\n"
    wp.wp_escaped wp.wp_barrier;
  if not (wire_probe_ok wp) then exit 1

(* ------------------------------------------------------------------ *)
(* Observability overhead: all-ON serving must cost <= 1.05x all-OFF  *)
(* ------------------------------------------------------------------ *)

(* Three in-process serving arms over one precomputed datagram
   sequence. OFF: no sink attached. ON: sampled query log at the
   default 10% rate, rolling SLO windows, and a bound stats endpoint
   taking real UDP scrape round-trips mid-leg. FAULT: 100% sampling
   with Obsv_sink_fail armed persistently, so every append is
   suppressed. OFF and ON interleave rep-for-rep (best-of-[obs_reps])
   to keep machine drift out of the ratio; p99 is exact — sorted raw
   latencies, not the power-of-two trace buckets, whose factor-of-two
   quantization would make a 1.05x gate meaningless. All three reply
   streams must fingerprint byte-identically: observability reads the
   answer path, it never writes it — even when the sink is failing. *)

let obs_queries = 1200
let obs_seed = 0x0B51
let obs_malformed_pct = 10
let obs_overhead_gate = 1.05
let obs_reps = 7

let obs_datagrams =
  lazy
    (Array.init obs_queries (fun i ->
         snd
           (Dnsv.Loadgen.datagram ~zone:Spec.Fixtures.reference_zone
              {
                Dnsv.Loadgen.queries = obs_queries;
                malformed_pct = obs_malformed_pct;
                seed = obs_seed;
              }
              i)))

type obs_arm = {
  mutable oa_wall : float; (* best-of wall seconds *)
  mutable oa_p99_ms : float; (* best-of exact p99 *)
  mutable oa_fp : string; (* reply-stream digest, stable across reps *)
}

type obs_ctx = {
  oc_s : Dnsv.Serve.server;
  oc_ep : Obsv.Endpoint.t option;
  oc_qlog : Obsv.Qlog.t option;
  oc_qpath : string option;
  oc_arm : obs_arm;
}

let obs_ctx ~obs ~rate_pct () =
  let s =
    Dnsv.Serve.create
      ~config:(Engine.Versions.fixed Engine.Versions.v3_0)
      Spec.Fixtures.reference_zone
  in
  let ep, qlog, qpath =
    if obs then begin
      let qpath = Filename.temp_file "dnsv-bench" ".qlog" in
      let qlog = Obsv.Qlog.create ~path:qpath ~seed:obs_seed ~rate_pct () in
      let windows = Obsv.Windows.create ~window_s:0.05 ~windows:60 () in
      Dnsv.Serve.attach_obsv s (Obsv.sink ~qlog ~windows ());
      (Some (Obsv.Endpoint.create ()), Some qlog, Some qpath)
    end
    else (None, None, None)
  in
  {
    oc_s = s;
    oc_ep = ep;
    oc_qlog = qlog;
    oc_qpath = qpath;
    oc_arm = { oa_wall = infinity; oa_p99_ms = infinity; oa_fp = "" };
  }

(* One real scrape round-trip through the endpoint's UDP socket. *)
let obs_scrape ep s =
  let c = Unix.socket PF_INET SOCK_DGRAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close c with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect c
        (ADDR_INET (Unix.inet_addr_loopback, Obsv.Endpoint.port ep));
      ignore (Unix.send c (Bytes.of_string "stats") 0 5 []);
      ignore
        (Obsv.Endpoint.serve_request ep ~respond:(Dnsv.Serve.exposition s));
      match Unix.select [ c ] [] [] 1.0 with
      | [], _, _ -> ()
      | _ ->
          let b = Bytes.create 65536 in
          ignore (Unix.recv c b 0 (Bytes.length b) []))

let obs_rep (c : obs_ctx) =
  let dgs = Lazy.force obs_datagrams in
  let lat = Array.make obs_queries 0.0 in
  let buf = Buffer.create (obs_queries * 64) in
  let t0 = Unix.gettimeofday () in
  Array.iteri
    (fun i d ->
      (match c.oc_ep with
      | Some ep when i > 0 && i mod 400 = 0 -> obs_scrape ep c.oc_s
      | _ -> ());
      let q0 = Unix.gettimeofday () in
      let out = Dnsv.Serve.handle c.oc_s d in
      lat.(i) <- (Unix.gettimeofday () -. q0) *. 1000.0;
      match out.Dnsv.Serve.reply with
      | Some r -> Buffer.add_string buf r
      | None -> Buffer.add_char buf '\000')
    dgs;
  let wall = Unix.gettimeofday () -. t0 in
  Array.sort compare lat;
  let p99 = lat.(obs_queries - 1 - (obs_queries / 100)) in
  let a = c.oc_arm in
  if wall < a.oa_wall then a.oa_wall <- wall;
  if p99 < a.oa_p99_ms then a.oa_p99_ms <- p99;
  let d = Digest.to_hex (Digest.string (Buffer.contents buf)) in
  if a.oa_fp = "" then a.oa_fp <- d
  else if not (String.equal a.oa_fp d) then a.oa_fp <- "UNSTABLE:" ^ d

let obs_ctx_close (c : obs_ctx) =
  (match c.oc_qlog with Some q -> Obsv.Qlog.close q | None -> ());
  (match c.oc_qpath with
  | Some p -> ( try Sys.remove p with Sys_error _ -> ())
  | None -> ());
  match c.oc_ep with Some ep -> Obsv.Endpoint.close ep | None -> ()

type obs_probe = {
  op_off : obs_arm;
  op_on : obs_arm;
  op_fault : obs_arm;
  op_on_sampled : int;
  op_on_scrapes : int;
  op_fault_sink_failures : int;
}

let obs_runs () =
  Faultinject.reset ();
  let off = obs_ctx ~obs:false ~rate_pct:10 () in
  let on = obs_ctx ~obs:true ~rate_pct:10 () in
  let snap0 = Trace.Metrics.snapshot () in
  for _ = 1 to obs_reps do
    obs_rep off;
    obs_rep on
  done;
  let snap1 = Trace.Metrics.snapshot () in
  let flt = obs_ctx ~obs:true ~rate_pct:100 () in
  Faultinject.arm ~persistent:true ~after:1 Faultinject.Obsv_sink_fail;
  obs_rep flt;
  obs_rep flt;
  Faultinject.reset ();
  let snap2 = Trace.Metrics.snapshot () in
  let on_d = Trace.Metrics.diff snap1 snap0 in
  let flt_d = Trace.Metrics.diff snap2 snap1 in
  obs_ctx_close off;
  obs_ctx_close on;
  obs_ctx_close flt;
  {
    op_off = off.oc_arm;
    op_on = on.oc_arm;
    op_fault = flt.oc_arm;
    op_on_sampled = Trace.Metrics.get on_d "obsv.sampled";
    op_on_scrapes = Trace.Metrics.get on_d "obsv.scrapes";
    op_fault_sink_failures = Trace.Metrics.get flt_d "obsv.sink_failures";
  }

let obs_gates (p : obs_probe) =
  let wall_ratio = p.op_on.oa_wall /. p.op_off.oa_wall in
  let p99_ratio =
    if p.op_off.oa_p99_ms > 0.0 then p.op_on.oa_p99_ms /. p.op_off.oa_p99_ms
    else 1.0
  in
  let identical =
    String.equal p.op_off.oa_fp p.op_on.oa_fp
    && String.equal p.op_on.oa_fp p.op_fault.oa_fp
  in
  (wall_ratio, p99_ratio, identical)

let obs_probe_ok p =
  let wall_ratio, p99_ratio, identical = obs_gates p in
  identical
  && wall_ratio <= obs_overhead_gate
  && p99_ratio <= obs_overhead_gate
  && p.op_on_sampled > 0 && p.op_on_scrapes > 0
  && p.op_fault_sink_failures > 0

let json_of_obs_arm (a : obs_arm) =
  json_obj
    [
      ("wall_s", Printf.sprintf "%.4f" a.oa_wall);
      ("qps", Printf.sprintf "%.0f" (float_of_int obs_queries /. a.oa_wall));
      ("p99_ms", Printf.sprintf "%.4f" a.oa_p99_ms);
      ("fingerprint", json_str a.oa_fp);
    ]

let json_of_obs (p : obs_probe) =
  let wall_ratio, p99_ratio, identical = obs_gates p in
  json_obj
    [
      ("queries_per_rep", string_of_int obs_queries);
      ("reps", string_of_int obs_reps);
      ("malformed_pct", string_of_int obs_malformed_pct);
      ("off", json_of_obs_arm p.op_off);
      ("on", json_of_obs_arm p.op_on);
      ("sink_fail", json_of_obs_arm p.op_fault);
      ("overhead_ratio", Printf.sprintf "%.3f" wall_ratio);
      ("p99_ratio", Printf.sprintf "%.3f" p99_ratio);
      ("gate", Printf.sprintf "%.2f" obs_overhead_gate);
      ("on_sampled", string_of_int p.op_on_sampled);
      ("on_scrapes", string_of_int p.op_on_scrapes);
      ("fault_sink_failures", string_of_int p.op_fault_sink_failures);
      ("fingerprints_identical", string_of_bool identical);
      ("ok", string_of_bool (obs_probe_ok p));
    ]

let obs_overhead () =
  rule ();
  Printf.printf
    "Observability overhead: %d in-process queries per rep (seed %#x, %d%% \
     malformed), best of %d interleaved reps\n\n"
    obs_queries obs_seed obs_malformed_pct obs_reps;
  let p = obs_runs () in
  let wall_ratio, p99_ratio, identical = obs_gates p in
  Printf.printf "all-OFF:   %.4fs wall, exact p99 %.4fms, fp %s\n"
    p.op_off.oa_wall p.op_off.oa_p99_ms p.op_off.oa_fp;
  Printf.printf "all-ON:    %.4fs wall, exact p99 %.4fms, fp %s\n"
    p.op_on.oa_wall p.op_on.oa_p99_ms p.op_on.oa_fp;
  Printf.printf "sink-fail: %.4fs wall, exact p99 %.4fms, fp %s\n"
    p.op_fault.oa_wall p.op_fault.oa_p99_ms p.op_fault.oa_fp;
  Printf.printf
    "\noverhead %.3fx wall, %.3fx p99 (gate <= %.2fx); %d sampled, %d \
     scrapes; %d suppressed appends under Obsv_sink_fail; fingerprints \
     identical: %b\n\n"
    wall_ratio p99_ratio obs_overhead_gate p.op_on_sampled p.op_on_scrapes
    p.op_fault_sink_failures identical;
  if not (obs_probe_ok p) then exit 1

let json_of_chaos wall (o : Dnsv.Chaos.outcome) =
  json_obj
    [
      ("seed", string_of_int chaos_seed);
      ("plans", string_of_int o.Dnsv.Chaos.plans);
      ("verify_runs", string_of_int o.Dnsv.Chaos.verify_runs);
      ("torn_runs", string_of_int o.Dnsv.Chaos.torn_runs);
      ("store_runs", string_of_int o.Dnsv.Chaos.store_runs);
      ( "truncated_store_runs",
        string_of_int o.Dnsv.Chaos.truncated_store_runs );
      ("wire_runs", string_of_int o.Dnsv.Chaos.wire_runs);
      ("fired", string_of_int o.Dnsv.Chaos.fired);
      ("survived", string_of_int o.Dnsv.Chaos.survived);
      ("degraded", string_of_int o.Dnsv.Chaos.degraded);
      ("resumed_identical", string_of_int o.Dnsv.Chaos.resumed_identical);
      ( "store_resumed_identical",
        string_of_int o.Dnsv.Chaos.store_resumed_identical );
      ( "violations",
        "["
        ^ String.concat ", "
            (List.map json_str o.Dnsv.Chaos.violations)
        ^ "]" );
      ("ok", string_of_bool (Dnsv.Chaos.ok o));
      ("wall_s", Printf.sprintf "%.2f" wall);
    ]

let json () =
  let cfg = Engine.Versions.fixed Engine.Versions.v3_0 in
  let zone = Spec.Fixtures.reference_zone in
  let budget = Budget.create () in
  let stats0 = Trace.Metrics.snapshot () in
  let t0 = Unix.gettimeofday () in
  let v = Dnsv.Pipeline.verify ~budget cfg zone in
  let wall = Unix.gettimeofday () -. t0 in
  let pipeline_stats = Trace.Metrics.diff (Trace.Metrics.snapshot ()) stats0 in
  let layer_phase (r : Refine.Layers.layer_report) =
    json_obj
      [
        ("phase", json_str ("layer:" ^ r.Refine.Layers.layer));
        ("paths", string_of_int r.Refine.Layers.code_paths);
        ("pairs", string_of_int r.Refine.Layers.pairs);
        ("unknowns", string_of_int r.Refine.Layers.unknowns);
        ( "status",
          match r.Refine.Layers.inconclusive with
          | Some reason -> json_str ("inconclusive:" ^ Budget.reason_tag reason)
          | None -> json_str (if Refine.Layers.layer_ok r then "ok" else "mismatch") );
        ("wall_s", Printf.sprintf "%.4f" r.Refine.Layers.elapsed);
      ]
  in
  let engine_phase (r : Refine.Check.report) =
    json_obj
      [
        ( "phase",
          json_str ("engine:" ^ Refine.Check.Rr.rtype_to_string r.Refine.Check.qtype) );
        ("solver_calls", string_of_int r.Refine.Check.solver_calls);
        ("paths", string_of_int r.Refine.Check.engine_paths);
        ("unknowns", string_of_int r.Refine.Check.unknowns);
        ( "summary_fallback",
          string_of_bool r.Refine.Check.summary_fallback );
        ("status", json_of_status (Refine.Check.status r));
        ("wall_s", Printf.sprintf "%.4f" r.Refine.Check.elapsed);
      ]
  in
  let phases =
    List.map layer_phase v.Dnsv.Pipeline.layer_reports
    @ List.map engine_phase v.Dnsv.Pipeline.reports
  in
  let c = Budget.consumption budget in
  let pipeline_json =
    json_obj
      [
        ("engine", json_str v.Dnsv.Pipeline.version);
        ("zone_origin", json_str v.Dnsv.Pipeline.zone_origin);
        ("status", json_of_status (Dnsv.Pipeline.status v));
        ("wall_s", Printf.sprintf "%.4f" wall);
        ("retries", string_of_int v.Dnsv.Pipeline.retries);
        ("solver", json_of_stats pipeline_stats);
        ( "budget",
          json_obj
            [
              ("solver_steps_used", string_of_int c.Budget.solver_steps_used);
              ("paths_used", string_of_int c.Budget.paths_used);
              ("fuel_used", string_of_int c.Budget.fuel_used);
              ("retries_used", string_of_int c.Budget.retries_used);
            ] );
        ("phases", "[" ^ String.concat ", " phases ^ "]");
      ]
  in
  (* The re-verification workload, then the summaries ablation with its
     regression gate. *)
  let cached, par = reverify_all () in
  let verdicts_identical =
    String.equal cached.rv_fingerprint par.rv_fingerprint
  in
  let abl_sum, abl_inl, abl_ok = timed_ablation () in
  let abl_speedup = abl_inl /. abl_sum in
  let abl_floor = ablation_regression_floor *. ablation_seed_speedup in
  let co_off, co_on = cert_overhead_runs () in
  let co_ratio = co_on.rv_wall /. co_off.rv_wall in
  let co_identical = String.equal co_off.rv_fingerprint co_on.rv_fingerprint in
  let to_off, to_on, to_spans = trace_overhead_runs () in
  let to_ratio = to_on.rv_wall /. to_off.rv_wall in
  let to_identical =
    String.equal to_off.rv_fingerprint to_on.rv_fingerprint
  in
  let inc = incremental_runs () in
  let inc_speedup = inc.inc_cold.ir_wall /. inc.inc_warm.ir_wall in
  let inc_identical = String.equal inc.inc_cold.ir_fp inc.inc_warm.ir_fp in
  let so = store_overhead_runs () in
  let so_ratio = so.so_with.ir_wall /. so.so_without.ir_wall in
  let wp = wire_probe () in
  let op = obs_runs () in
  let op_wall_ratio, op_p99_ratio, op_identical = obs_gates op in
  let chaos_wall, chaos_o = timed_chaos () in
  print_endline
    (json_obj
       [
         ("pipeline", pipeline_json);
         ( "reverify",
           json_obj
             [
               ("passes", string_of_int reverify_passes);
               ( "versions",
                 string_of_int (List.length (reverify_versions ())) );
               ("jobs", string_of_int reverify_jobs);
               ("cached_sequential", json_of_reverify cached);
               ("cached_parallel", json_of_reverify par);
               ("verdicts_identical", string_of_bool verdicts_identical);
             ] );
         ( "ablation",
           json_obj
             [
               ("summarized_wall_s", Printf.sprintf "%.4f" abl_sum);
               ("inlined_wall_s", Printf.sprintf "%.4f" abl_inl);
               ("speedup_summarized", Printf.sprintf "%.3f" abl_speedup);
               ( "seed_speedup",
                 Printf.sprintf "%.3f" ablation_seed_speedup );
               ("regression_floor", Printf.sprintf "%.3f" abl_floor);
               ("clean", string_of_bool abl_ok);
             ] );
         ( "cert_overhead",
           json_obj
             [
               ("off_wall_s", Printf.sprintf "%.4f" co_off.rv_wall);
               ("on_wall_s", Printf.sprintf "%.4f" co_on.rv_wall);
               ("overhead_ratio", Printf.sprintf "%.3f" co_ratio);
               ("gate", Printf.sprintf "%.2f" cert_overhead_gate);
               ( "cert_checks",
                 string_of_int (solver_count co_on.rv_stats "cert_checks") );
               ("verdicts_identical", string_of_bool co_identical);
             ] );
         ( "trace_overhead",
           json_obj
             [
               ("untraced_wall_s", Printf.sprintf "%.4f" to_off.rv_wall);
               ("traced_wall_s", Printf.sprintf "%.4f" to_on.rv_wall);
               ("overhead_ratio", Printf.sprintf "%.3f" to_ratio);
               ("gate", Printf.sprintf "%.2f" trace_overhead_gate);
               ("spans", string_of_int to_spans);
               ("verdicts_identical", string_of_bool to_identical);
             ] );
         ( "incremental_reverify",
           json_obj
             [
               ("prime_wall_s", Printf.sprintf "%.4f" inc.inc_prime.ir_wall);
               ("cold_wall_s", Printf.sprintf "%.4f" inc.inc_cold.ir_wall);
               ("warm_wall_s", Printf.sprintf "%.4f" inc.inc_warm.ir_wall);
               ("speedup", Printf.sprintf "%.3f" inc_speedup);
               ("gate", Printf.sprintf "%.1f" incremental_gate);
               ("store_entries", string_of_int inc.inc_entries);
               ("fingerprints_identical", string_of_bool inc_identical);
             ] );
         ( "store_overhead",
           json_obj
             [
               ("no_store_wall_s", Printf.sprintf "%.4f" so.so_without.ir_wall);
               ("with_store_wall_s", Printf.sprintf "%.4f" so.so_with.ir_wall);
               ("overhead_ratio", Printf.sprintf "%.3f" so_ratio);
               ("gate", Printf.sprintf "%.2f" store_overhead_gate);
             ] );
         ("wire", json_of_wire wp);
         ("obs_overhead", json_of_obs op);
         ("chaos", json_of_chaos chaos_wall chaos_o);
       ]);
  if not verdicts_identical then begin
    prerr_endline
      "FAIL: parallel/cached verdict fingerprints differ from sequential";
    exit 1
  end;
  if abl_speedup < abl_floor then begin
    Printf.eprintf
      "FAIL: summaries ablation regressed: speedup %.3f < floor %.3f (seed \
       %.3f)\n"
      abl_speedup abl_floor ablation_seed_speedup;
    exit 1
  end;
  if not co_identical then begin
    prerr_endline
      "FAIL: certified and uncertified re-verification fingerprints differ";
    exit 1
  end;
  if co_ratio > cert_overhead_gate then begin
    Printf.eprintf
      "FAIL: certificate checking overhead %.3fx exceeds the %.2fx gate\n"
      co_ratio cert_overhead_gate;
    exit 1
  end;
  if not to_identical then begin
    prerr_endline
      "FAIL: traced and untraced re-verification fingerprints differ";
    exit 1
  end;
  if to_ratio > trace_overhead_gate then begin
    Printf.eprintf
      "FAIL: tracing overhead %.3fx exceeds the %.2fx gate\n" to_ratio
      trace_overhead_gate;
    exit 1
  end;
  if not inc_identical then begin
    prerr_endline
      "FAIL: warm (store-served) verdict fingerprint differs from cold";
    exit 1
  end;
  if inc_speedup < incremental_gate then begin
    Printf.eprintf
      "FAIL: incremental re-verification speedup %.2fx below the %.0fx gate\n"
      inc_speedup incremental_gate;
    exit 1
  end;
  if so_ratio > store_overhead_gate then begin
    Printf.eprintf
      "FAIL: store bookkeeping overhead %.3fx exceeds the %.2fx gate\n"
      so_ratio store_overhead_gate;
    exit 1
  end;
  if not (wire_probe_ok wp) then begin
    Printf.eprintf
      "FAIL: wire probe: valid leg %d/%d answered, %d escaped exceptions, %d \
       barrier hits, %d malformed-leg timeouts\n"
      wp.wp_valid.Dnsv.Loadgen.lg_answered wp.wp_valid.Dnsv.Loadgen.lg_sent
      wp.wp_escaped wp.wp_barrier wp.wp_malformed.Dnsv.Loadgen.lg_timeouts;
    exit 1
  end;
  if not op_identical then begin
    prerr_endline
      "FAIL: observability-ON (or sink-fail) reply fingerprints differ from \
       observability-OFF";
    exit 1
  end;
  if op_wall_ratio > obs_overhead_gate || op_p99_ratio > obs_overhead_gate
  then begin
    Printf.eprintf
      "FAIL: observability overhead %.3fx wall / %.3fx p99 exceeds the %.2fx \
       gate\n"
      op_wall_ratio op_p99_ratio obs_overhead_gate;
    exit 1
  end;
  if op.op_fault_sink_failures = 0 then begin
    prerr_endline
      "FAIL: Obsv_sink_fail arm suppressed no appends — the fault site is \
       dead";
    exit 1
  end;
  if not (Dnsv.Chaos.ok chaos_o) then begin
    List.iter
      (fun v -> Printf.eprintf "FAIL: chaos violation: %s\n" v)
      chaos_o.Dnsv.Chaos.violations;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks (one Test.make per experiment)           *)
(* ------------------------------------------------------------------ *)

let bench_zone = Spec.Fixtures.figure11_zone

let micro_tests () =
  let small_cfg = Engine.Versions.fixed Engine.Versions.v3_0 in
  let enc = lazy (Dnstree.Encode.encode (Dnstree.Tree.build bench_zone)) in
  let prog = lazy (Engine.Versions.compiled small_cfg) in
  [
    (* Table 1 driver: full-path symbolic execution + summarization of
       TreeSearch on the Figure-11 tree. *)
    Test.make ~name:"table1/treesearch-summarization"
      (Staged.stage (fun () -> ignore (Dnsv.Table1.run ())));
    (* Table 2 unit: one buggy-version refinement check (bug 8). *)
    Test.make ~name:"table2/verify-bug8-witness"
      (Staged.stage (fun () ->
           let w = Spec.Fixtures.witness 8 in
           ignore
             (Refine.Check.check_version Engine.Versions.v3_0
                w.Spec.Fixtures.zone ~qtype:Dns.Rr.A)));
    (* Table 3 driver: AST size accounting across versions. *)
    Test.make ~name:"table3/loc-accounting"
      (Staged.stage (fun () -> ignore (Dnsv.Table3.run ())));
    (* Figure 12 unit: one whole-engine refinement run (one qtype). *)
    Test.make ~name:"fig12/check-version-one-qtype"
      (Staged.stage (fun () ->
           ignore
             (Refine.Check.check_version small_cfg bench_zone ~qtype:Dns.Rr.A)));
    (* Substrate costs. *)
    Test.make ~name:"substrate/solver-conjunction"
      (Staged.stage (fun () ->
           let open Smt in
           let x = Term.int_var "x" and y = Term.int_var "y" in
           ignore
             (Solver.check
                [
                  Term.le (Term.int 0) x;
                  Term.le x (Term.int 6);
                  Term.eq y (Term.add [ x; Term.int 3 ]);
                  Term.lt y (Term.int 8);
                ])));
    Test.make ~name:"substrate/engine-concrete-resolve"
      (Staged.stage (fun () ->
           ignore
             (Engine.Versions.run_compiled (Lazy.force prog) (Lazy.force enc)
                (Dns.Message.query
                   (Dns.Name.of_string_exn "web.cs.example.com")
                   Dns.Rr.A))));
    Test.make ~name:"substrate/spec-resolve"
      (Staged.stage (fun () ->
           ignore
             (Spec.Rrlookup.resolve bench_zone
                (Dns.Message.query
                   (Dns.Name.of_string_exn "web.cs.example.com")
                   Dns.Rr.A))));
    Test.make ~name:"substrate/zonegen"
      (Staged.stage (fun () ->
           ignore
             (Dns.Zonegen.generate ~seed:42
                (Dns.Name.of_string_exn "bench.example"))));
  ]

let run_micro () =
  rule ();
  print_endline "Bechamel micro-benchmarks (monotonic clock, time/run)";
  print_newline ();
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) () in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let estimates = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name est ->
          match Analyze.OLS.estimates est with
          | Some [ t ] -> Printf.printf "%-42s %14.1f ns/run\n" name t
          | _ -> Printf.printf "%-42s (no estimate)\n" name)
        estimates)
    (micro_tests ());
  print_newline ()

let () =
  let targets =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as rest) -> rest
    | _ -> [ "table1"; "table2"; "table3"; "fig12"; "ablation"; "micro" ]
  in
  List.iter
    (function
      | "table1" -> table1 ()
      | "table2" -> table2 ()
      | "table3" -> table3 ()
      | "fig12" -> fig12 ()
      | "ablation" -> ablation ()
      | "reverify" -> reverify ()
      | "certoverhead" -> cert_overhead ()
      | "traceoverhead" -> trace_overhead ()
      | "incremental" -> incremental ()
      | "chaos" -> chaos ()
      | "wireqps" -> wire_qps ()
      | "obsoverhead" -> obs_overhead ()
      | "json" -> json ()
      | "micro" -> run_micro ()
      | other ->
          Printf.eprintf
            "unknown target %s (expected \
             table1|table2|table3|fig12|ablation|reverify|certoverhead|traceoverhead|incremental|chaos|wireqps|obsoverhead|json|micro)\n"
            other;
          exit 2)
    targets
