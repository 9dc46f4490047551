(* Open-loop UDP load against a running `dnsv serve`.

   Every datagram of a run is generated from the seed before any clock
   starts ([plan]); each carries a run-unique id so replies are matched
   by id, and each query is timed from the instant it was *due*, so a
   stall also charges the queries queued behind it. One process, one
   socket. Replies are only stored while the clock runs and are checked
   against the reference ([Reference]) afterwards. *)

module Message = Dns.Message
module Rr = Dns.Rr
module Zone = Dns.Zone

(* ------------------------------------------------------------------ *)
(* The workload: Loadgen's mix, pre-generated                          *)
(* ------------------------------------------------------------------ *)

type query = {
  bytes : string; (* the datagram, id already rewritten *)
  expect : Reference.expect;
}

(* [n] datagrams of the [Loadgen.datagram] mix for [seed] (10%
   malformed; owners, nxchild children, out-of-zone names; all
   rtypes), starting at mix index [from]. A datagram's id is its mix
   index mod 2^16, so ids never repeat inside one 65536-query window. *)
let plan ~zone ~seed ~from n =
  let mix = { Dnsv.Loadgen.queries = from + n; malformed_pct = 10; seed } in
  Array.init n (fun i ->
      let _, raw = Dnsv.Loadgen.datagram ~zone mix (from + i) in
      let id = (from + i) land 0xFFFF in
      let bytes = Reference.with_id raw id in
      { bytes; expect = Reference.expect ~zone bytes })

(* ------------------------------------------------------------------ *)
(* One fixed-rate phase                                                *)
(* ------------------------------------------------------------------ *)

type phase = {
  rate : float; (* offered queries per second *)
  queries : query array;
  due : float array; (* absolute due times *)
  sent_at : float array;
  recv_at : float array; (* nan = no reply *)
  replies : string option array;
  mutable stray : string list; (* replies whose id matched no pending query *)
}

(* Give up on a reply this long after the last query was due. *)
let drain_s = 1.0

let recv_buf = Bytes.create 65536

let run_phase fd ~rate queries =
  let n = Array.length queries in
  let slot = Hashtbl.create (2 * n) in
  Array.iteri
    (fun i q ->
      Hashtbl.replace slot ((Char.code q.bytes.[0] lsl 8) lor Char.code q.bytes.[1]) i)
    queries;
  let t0 = Unix.gettimeofday () +. 0.005 in
  let p =
    {
      rate;
      queries;
      due = Array.init n (fun i -> t0 +. (float_of_int i /. rate));
      sent_at = Array.make n nan;
      recv_at = Array.make n nan;
      replies = Array.make n None;
      stray = [];
    }
  in
  let outstanding = ref n and next = ref 0 in
  let deadline = (if n = 0 then t0 else p.due.(n - 1)) +. drain_s in
  let rec receive () =
    match Unix.recv fd recv_buf 0 (Bytes.length recv_buf) [] with
    | len ->
        let now = Unix.gettimeofday () in
        (if len >= 2 then
           let id = (Bytes.get_uint8 recv_buf 0 lsl 8) lor Bytes.get_uint8 recv_buf 1 in
           match Hashtbl.find_opt slot id with
           | Some i when p.replies.(i) = None ->
               p.replies.(i) <- Some (Bytes.sub_string recv_buf 0 len);
               p.recv_at.(i) <- now;
               decr outstanding
           | _ -> p.stray <- Bytes.sub_string recv_buf 0 len :: p.stray
         else p.stray <- Bytes.sub_string recv_buf 0 len :: p.stray);
        receive ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (ECONNREFUSED, _, _) -> receive ()
  in
  let continue = ref true in
  while !continue do
    let now = Unix.gettimeofday () in
    while !next < n && p.due.(!next) <= now do
      let q = queries.(!next) in
      (try ignore (Unix.send_substring fd q.bytes 0 (String.length q.bytes) [])
       with Unix.Unix_error _ -> ());
      p.sent_at.(!next) <- Unix.gettimeofday ();
      incr next
    done;
    receive ();
    let now = Unix.gettimeofday () in
    if (!next >= n && !outstanding = 0) || now >= deadline then continue := false
    else begin
      let wake = if !next < n then p.due.(!next) else deadline in
      let wait = Float.max 0.0 (wake -. now) in
      if wait > 0.0 then
        try ignore (Unix.select [ fd ] [] [] wait)
        with Unix.Unix_error (EINTR, _, _) -> ()
    end
  done;
  p

(* ------------------------------------------------------------------ *)
(* Judging a phase                                                     *)
(* ------------------------------------------------------------------ *)

type judged = {
  j_rate : float;
  j_sent : int;
  j_failed : int;
  j_timeouts : int;
  j_failures : (int * string) list; (* first few, for the log *)
  j_latency_ms : float array; (* sorted; failures are infinity *)
  j_late_ms : float array; (* sorted send lateness *)
  j_classes : (string * int) list; (* reply class tally *)
  j_rcodes : (string * int) list; (* every decoded reply's rcode *)
  j_replies : int;
  j_stray : int;
  j_backlog_ms : float; (* median latency, last fifth minus first fifth *)
}

let tally_add tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
let tally_list tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let judge (p : phase) =
  let n = Array.length p.queries in
  let classes = Hashtbl.create 8 and rcodes = Hashtbl.create 8 in
  let failed = ref 0 and timeouts = ref 0 and failures = ref [] and replies = ref 0 in
  List.iter
    (fun r -> Option.iter (tally_add rcodes) (Reference.rcode_of r))
    p.stray;
  let lat =
    Array.init n (fun i ->
        let fail why =
          incr failed;
          if List.length !failures < 5 then failures := (i, why) :: !failures;
          infinity
        in
        match p.replies.(i) with
        | None ->
            incr timeouts;
            fail "timeout"
        | Some reply -> (
            incr replies;
            (match Reference.rcode_of reply with
            | Some rc -> tally_add rcodes rc
            | None -> ());
            match Reference.check p.queries.(i).expect reply with
            | Ok cls ->
                tally_add classes cls;
                (p.recv_at.(i) -. p.due.(i)) *. 1000.0
            | Error why -> fail why))
  in
  let fifth = max 1 (n / 5) in
  let backlog =
    if n < 10 then 0.0
    else
      Quantile.median (Array.sub lat (n - fifth) fifth)
      -. Quantile.median (Array.sub lat 0 fifth)
  in
  let late =
    Array.init n (fun i ->
        if Float.is_nan p.sent_at.(i) then 0.0
        else (p.sent_at.(i) -. p.due.(i)) *. 1000.0)
  in
  {
    j_rate = p.rate;
    j_sent = n;
    j_failed = !failed;
    j_timeouts = !timeouts;
    j_failures = List.rev !failures;
    j_latency_ms = Quantile.sorted_copy lat;
    j_late_ms = Quantile.sorted_copy late;
    j_classes = tally_list classes;
    j_rcodes = tally_list rcodes;
    j_replies = !replies;
    j_stray = List.length p.stray;
    j_backlog_ms = backlog;
  }

let quantile_json a q =
  match Quantile.exact a q with
  | Some (v, beyond) ->
      Jout.Obj [ ("value", Jout.Num v); ("beyond", Jout.Int beyond); ("n", Jout.Int (Array.length a)) ]
  | None -> Jout.Obj [ ("n", Jout.Int (Array.length a)) ]

let judged_json name j =
  let tally l = Jout.Obj (List.map (fun (k, v) -> (k, Jout.Int v)) l) in
  Jout.Obj
    [
      ("phase", Jout.Str name);
      ("rate", Jout.Num j.j_rate);
      ("sent", Jout.Int j.j_sent);
      ("replies", Jout.Int j.j_replies);
      ("failed", Jout.Int j.j_failed);
      ("timeouts", Jout.Int j.j_timeouts);
      ("stray", Jout.Int j.j_stray);
      ( "failures",
        Jout.Arr
          (List.map
             (fun (i, why) -> Jout.Str (Printf.sprintf "#%d: %s" i why))
             j.j_failures) );
      ("p50_ms", quantile_json j.j_latency_ms 0.5);
      ("p99_ms", quantile_json j.j_latency_ms 0.99);
      ("late_p99_ms", quantile_json j.j_late_ms 0.99);
      ("late_max_ms", Jout.Num (if j.j_sent = 0 then 0.0 else j.j_late_ms.(j.j_sent - 1)));
      ("backlog_ms", Jout.Num j.j_backlog_ms);
      ("classes", tally j.j_classes);
      ("rcodes", tally j.j_rcodes);
    ]

(* Pool the blocks one rate was offered in, across rounds. *)
let merge = function
  | [] -> invalid_arg "merge"
  | j :: _ as js ->
      let cat f = Quantile.sorted_copy (Array.concat (List.map f js)) in
      let sum f = List.fold_left (fun a j -> a + f j) 0 js in
      let tally f =
        let tbl = Hashtbl.create 8 in
        List.iter (fun j -> List.iter (fun (k, v) -> Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))) (f j)) js;
        tally_list tbl
      in
      {
        j_rate = j.j_rate;
        j_sent = sum (fun j -> j.j_sent);
        j_failed = sum (fun j -> j.j_failed);
        j_timeouts = sum (fun j -> j.j_timeouts);
        j_failures = List.concat_map (fun j -> j.j_failures) js;
        j_latency_ms = cat (fun j -> j.j_latency_ms);
        j_late_ms = cat (fun j -> j.j_late_ms);
        j_classes = tally (fun j -> j.j_classes);
        j_rcodes = tally (fun j -> j.j_rcodes);
        j_replies = sum (fun j -> j.j_replies);
        j_stray = sum (fun j -> j.j_stray);
        j_backlog_ms = Quantile.median (Array.of_list (List.map (fun j -> j.j_backlog_ms) js));
      }

(* ------------------------------------------------------------------ *)
(* A whole run: rounds over the fixed rates                            *)
(* ------------------------------------------------------------------ *)

(* The offered rates; a rate's phase is named "r<rate>" (r200, r400). *)
let rates = [ 200.0; 400.0 ]
let phase_name rate = Printf.sprintf "r%g" rate

(* Each rate is offered in [rounds] blocks, after [warmup] queries at
   400 qps that are checked but not reported. *)
let rounds = 2
let warmup = 200

let connect port =
  let fd = Unix.socket PF_INET SOCK_DGRAM 0 in
  Unix.setsockopt_int fd SO_RCVBUF (4 * 1024 * 1024);
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.set_nonblock fd;
  fd

(* Every rate is offered [per_rate] times in all, in [rounds] blocks,
   one per round, so each rate's pooled sample spans the whole run
   instead of one stretch of it. Each block's datagrams are the next
   slice of one seeded mix sequence, generated (with their reference
   answers) before that block's clock starts. *)
let run ~port ~seed ~per_rate =
  let zone = Spec.Fixtures.reference_zone in
  let cursor = ref 0 in
  let take n =
    let a = plan ~zone ~seed ~from:!cursor n in
    cursor := !cursor + n;
    a
  in
  let fd = connect port in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let warm = [ ("warmup", judge (run_phase fd ~rate:400.0 (take warmup))) ] in
  let blocks =
    List.init rounds (fun _ ->
        List.map
          (fun rate -> (phase_name rate, judge (run_phase fd ~rate (take ((per_rate + rounds - 1) / rounds)))))
          rates)
  in
  warm
  @ List.map
      (fun rate -> (phase_name rate, merge (List.map (List.assoc (phase_name rate)) blocks)))
      rates

(* Run the load and print the pooled per-rate results; every reply is
   checked, and a timeout is a failure. *)
let report ~port ~seed ~per_rate =
  let phases = run ~port ~seed ~per_rate in
  let sum f = List.fold_left (fun a (_, j) -> a + f j) 0 phases in
  Jout.print
    (Jout.Obj
       [
         ("attempted", Jout.Int (sum (fun j -> j.j_sent)));
         ("failed", Jout.Int (sum (fun j -> j.j_failed)));
         ("replies", Jout.Int (sum (fun j -> j.j_replies)));
         ("stray", Jout.Int (sum (fun j -> j.j_stray)));
         ("rcodes", Jout.Obj (List.map (fun (k, v) -> (k, Jout.Int v)) (merge (List.map snd phases)).j_rcodes));
         ("phases", Jout.Arr (List.map (fun (name, j) -> judged_json name j) phases));
       ]);
  sum (fun j -> j.j_failed) = 0
