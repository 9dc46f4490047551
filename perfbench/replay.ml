(* The serve loop's latency under open-loop load, from measured service
   times: every datagram of the seeded mix is answered by [Serve.handle]
   of an in-process server set up like `dnsv serve` (same per-query
   deadline, the same observability sink), its wall time is recorded,
   and the datagrams are then queued FIFO at a fixed offered rate on a
   virtual clock — arrival [i] is due at [i / rate], starts when the
   loop is free, and its latency runs from its due time to its finish.
   Percentiles are exact over the [n] queries of a pass; a p99 needs
   n >= 1000.

   This is the program's share of a query's latency: decode, engine,
   encode and the observability tail, plus the queueing they cause. The
   host's UDP path (syscalls, wake-ups) is left out on purpose — on a
   shared virtual machine it swings by 2x over minutes — and is measured
   separately over real sockets ([Udp_load]). Every reply is checked
   against the specification like the UDP replies are. *)

(* Exact latencies (ms, sorted) of the service times [s] (seconds)
   offered at [rate] per second, plus the backlog growth: median
   latency of the last fifth minus that of the first. *)
let queue ~rate (s : float array) =
  let n = Array.length s in
  let free = ref 0.0 in
  let lat =
    Array.mapi
      (fun i si ->
        let due = float_of_int i /. rate in
        let finish = Float.max due !free +. si in
        free := finish;
        (finish -. due) *. 1000.0)
      s
  in
  let fifth = max 1 (n / 5) in
  let backlog =
    Quantile.median (Array.sub lat (n - fifth) fifth) -. Quantile.median (Array.sub lat 0 fifth)
  in
  (Quantile.sorted_copy lat, backlog)

(* The capacity SLO: exact p99 at most 10 ms, and no growing backlog —
   the last fifth's median latency at most 2 ms above the first's. *)
let p99_limit_ms = 10.0
let backlog_limit_ms = 2.0

let meets ~rate s =
  let lat, backlog = queue ~rate s in
  backlog <= backlog_limit_ms
  && match Quantile.exact lat 0.99 with Some (v, _) -> v <= p99_limit_ms | None -> false

(* The highest offered rate meeting the SLO. Latencies only grow with
   the rate (arrivals only come earlier), so bisection finds it. *)
let capacity s =
  if not (meets ~rate:1.0 s) then 0.0
  else begin
    let lo = ref 1.0 and hi = ref (2.0 /. Quantile.mean s) in
    for _ = 1 to 50 do
      let mid = (!lo +. !hi) /. 2.0 in
      if meets ~rate:mid s then lo := mid else hi := mid
    done;
    !lo
  end

(* The mix's order is one random draw of independent arrivals, and
   where the few slow queries happen to cluster decides the p99 under
   load. So every figure is the median over [orders] seeded shuffles of
   the measured service times (the first is the order as sent). *)
let orders = 21

let shuffles ~seed s =
  let r = Random.State.make [| 0x5EED; seed |] in
  List.init orders (fun k ->
      let a = Array.copy s in
      if k > 0 then
        for i = Array.length a - 1 downto 1 do
          let j = Random.State.int r (i + 1) in
          let t = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- t
        done;
      a)

let median_of f l = Quantile.median (Array.of_list (List.map f l))

(* The engine the serve workload deploys (run.py spawns `dnsv serve`
   with the same version). *)
let engine = "3.0-fixed"

let config () =
  match Engine.Versions.find engine with
  | Some c -> c
  | None -> failwith ("unknown engine version " ^ engine)

(* The host is timed between segments of [segment] timed queries, so
   the samples follow the host through the pass. No timed call follows
   a sample directly: each segment after the first starts with an
   untimed re-warm of [rewarm] warm-up datagrams, so the calibration's
   cold caches and garbage are not charged to the program. *)
let segment = 250
let rewarm = 50

(* Service times of one pass over [queries] after the first [warm],
   which are handled untimed first; each reply checked. *)
let pass server queries ~warm ~failures ~classes =
  let untimed i = ignore (Dnsv.Serve.handle server queries.(i).Udp_load.bytes) in
  for i = 0 to warm - 1 do
    untimed i
  done;
  Array.init
    (Array.length queries - warm)
    (fun i ->
      if i > 0 && i mod segment = 0 then begin
        Calibrate.sample ~reps:1;
        for k = 0 to rewarm - 1 do
          untimed k
        done
      end;
      let q = queries.(warm + i) in
      let t0 = Unix.gettimeofday () in
      let o = Dnsv.Serve.handle server q.Udp_load.bytes in
      let si = Unix.gettimeofday () -. t0 in
      (match o.Dnsv.Serve.reply with
      | None -> failures := (i, "no reply") :: !failures
      | Some reply -> (
          match Reference.check q.Udp_load.expect reply with
          | Ok cls -> Udp_load.tally_add classes cls
          | Error why -> failures := (i, why) :: !failures));
      si)

(* A host stall inside one pass inflates that pass's tail, so the mix is
   measured in [passes] passes and every figure is the median of the
   passes' figures. *)
let passes = 3

let run ~seed ~n =
  let zone = Spec.Fixtures.reference_zone in
  let server = Dnsv.Serve.create ~config:(config ()) zone in
  Dnsv.Serve.attach_obsv server (Obsv.sink ~windows:(Obsv.Windows.create ()) ());
  let warm = 200 in
  let queries = Udp_load.plan ~zone ~seed ~from:0 (warm + n) in
  let failures = ref [] and classes = Hashtbl.create 8 in
  let measured =
    List.init passes (fun _ -> shuffles ~seed (pass server queries ~warm ~failures ~classes))
  in
  let figure f = median_of (fun orders -> median_of f orders) measured in
  let pct rate q a = Option.fold ~none:infinity ~some:fst (Quantile.exact (fst (queue ~rate a)) q) in
  let at rate =
    ( Printf.sprintf "%g" rate,
      Jout.Obj
        [
          ("p50_ms", Jout.Num (figure (pct rate 0.5)));
          ("p99_ms", Jout.Num (figure (pct rate 0.99)));
          ("n", Jout.Int n);
          ("beyond_p99", Jout.Int (n - Quantile.rank ~n 0.99));
        ] )
  in
  Jout.print
    (Jout.Obj
       [
         ("attempted", Jout.Int (passes * n));
         ("failed", Jout.Int (List.length !failures));
         ( "failures",
           Jout.Arr
             (List.filteri (fun i _ -> i < 5)
                (List.rev_map (fun (i, why) -> Jout.Str (Printf.sprintf "#%d: %s" i why)) !failures)) );
         ("classes", Jout.Obj (List.map (fun (k, v) -> (k, Jout.Int v)) (Udp_load.tally_list classes)));
         ("service_mean_us", Jout.Num (figure Quantile.mean *. 1e6));
         ("rates", Jout.Obj (List.map at Udp_load.rates));
         ("capacity_qps", Jout.Num (figure capacity));
         ("calibration", Calibrate.json ());
       ]);
  !failures = []
