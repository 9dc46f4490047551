(* In-process timings of the serve path's layers, each through its
   public entry point and timed from outside: [Wire.decode],
   [Engine.Versions.run_compiled], [Wire.encode_truncated],
   [Serve.handle] (bare, with the serve loop's observability sink, and
   with the trace sink recording), and the specification
   [Spec.Rrlookup.resolve] as the cost of a shadow check. The
   datagrams are the serve workload's own mix for the same seed. *)

module Message = Dns.Message

let now = Unix.gettimeofday

(* Mean microseconds per item over [reps] whole passes (for calls too
   short to time one at a time). *)
let batch_us ?(reps = 20) items f =
  let t0 = now () in
  for _ = 1 to reps do
    Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) items
  done;
  (now () -. t0) *. 1e6 /. float_of_int (reps * max 1 (Array.length items))

let pct sorted q = match Quantile.exact sorted q with Some (v, _) -> v | None -> nan

let run ~seed =
  let n = 1500 in
  let zone = Spec.Fixtures.reference_zone in
  let cfg = Replay.config () in
  let t0 = now () in
  let prog = Engine.Versions.compiled cfg in
  let compile_s = now () -. t0 in
  let enc = Dnstree.Encode.encode (Dnstree.Tree.build zone) in
  let datagrams = Array.map (fun q -> q.Udp_load.bytes) (Udp_load.plan ~zone ~seed ~from:0 n) in
  let decoded = Array.map Wire.decode datagrams in
  let decode_errors = Array.fold_left (fun a r -> match r with Error _ -> a + 1 | Ok _ -> a) 0 decoded in
  let questions =
    Array.of_list
      (List.filter_map
         (function
           | Ok m when (not m.Wire.qr) && m.Wire.opcode = 0 -> (
               match m.Wire.question with [ q ] -> Some (m, q) | _ -> None)
           | _ -> None)
         (Array.to_list decoded))
  in
  let qs = Array.map snd questions in
  (* wire *)
  let decode_us = batch_us datagrams Wire.decode in
  let responses =
    Array.map
      (fun (m, q) ->
        match Engine.Versions.run_compiled prog enc q with
        | Engine.Versions.Response r -> Wire.response ~id:m.Wire.id ~rd:m.Wire.rd ~question:[ q ] r
        | Engine.Versions.Engine_panic _ -> Wire.response ~id:m.Wire.id ~question:[ q ] (Message.response Message.ServFail))
      questions
  in
  let encode_us = batch_us responses (Wire.encode_truncated ~max_size:Wire.max_udp_payload) in
  (* engine and serve: measured back to back per datagram, so host
     drift hits both alike *)
  let bare = Dnsv.Serve.create ~config:cfg zone in
  let sinked = Dnsv.Serve.create ~config:cfg zone in
  Dnsv.Serve.attach_obsv sinked (Obsv.sink ~windows:(Obsv.Windows.create ()) ());
  let timed f x =
    let t0 = now () in
    ignore (Sys.opaque_identity (f x));
    (now () -. t0) *. 1e6
  in
  let nd = Array.length datagrams in
  let engine_us = Array.make nd 0.0 and handle_us = Array.make nd 0.0 and sink_us = Array.make nd 0.0 in
  Array.iteri
    (fun i d ->
      (match decoded.(i) with
      | Ok m when (not m.Wire.qr) && m.Wire.opcode = 0 && List.length m.Wire.question = 1 ->
          engine_us.(i) <- timed (Engine.Versions.run_compiled prog enc) (List.hd m.Wire.question)
      | _ -> ());
      handle_us.(i) <- timed (Dnsv.Serve.handle bare) d;
      sink_us.(i) <- timed (Dnsv.Serve.handle sinked) d -. handle_us.(i))
    datagrams;
  let minor0 = Gc.minor_words () in
  Array.iter (fun q -> ignore (Sys.opaque_identity (Engine.Versions.run_compiled prog enc q))) qs;
  let alloc_words = (Gc.minor_words () -. minor0) /. float_of_int (max 1 (Array.length qs)) in
  (* spec *)
  let resolve_us = batch_us ~reps:5 qs (Spec.Rrlookup.resolve zone) in
  (* the trace sink: every datagram handled with it on and with it off,
     back to back, the order alternating *)
  let on = ref 0.0 and off = ref 0.0 in
  let traced d = fst (Trace.recording (fun () -> timed (Dnsv.Serve.handle bare) d)) in
  Array.iteri
    (fun i d ->
      if i mod 2 = 0 then begin
        on := !on +. traced d;
        off := !off +. timed (Dnsv.Serve.handle bare) d
      end
      else begin
        off := !off +. timed (Dnsv.Serve.handle bare) d;
        on := !on +. traced d
      end)
    datagrams;
  let nq = float_of_int (Array.length qs) in
  let self_us =
    Quantile.mean handle_us -. decode_us -. Quantile.mean engine_us -. (encode_us *. nq /. float_of_int nd)
  in
  let engine_sorted = Quantile.sorted_copy (Array.of_list (List.filter (fun x -> x > 0.0) (Array.to_list engine_us))) in
  let handle_sorted = Quantile.sorted_copy handle_us in
  Jout.print
    (Jout.Obj
       [
         ("compile_s", Jout.Num compile_s);
         ("datagrams", Jout.Int (Array.length datagrams));
         ("questions", Jout.Int (Array.length qs));
         ("decode_us", Jout.Num decode_us);
         ("encode_us", Jout.Num encode_us);
         ("decode_errors", Jout.Int decode_errors);
         ("engine_p50_us", Jout.Num (pct engine_sorted 0.5));
         ("engine_p99_us", Jout.Num (pct engine_sorted 0.99));
         ("alloc_words", Jout.Num alloc_words);
         ("handle_p50_us", Jout.Num (pct handle_sorted 0.5));
         ("handle_p99_us", Jout.Num (pct handle_sorted 0.99));
         ("serve_self_us", Jout.Num self_us);
         ("sink_us", Jout.Num (Quantile.mean sink_us));
         ("resolve_us", Jout.Num resolve_us);
         ("trace_overhead_ratio", Jout.Num (!on /. !off));
         ("recommended_domains", Jout.Int (Domain.recommended_domain_count ()));
         ("ocaml", Jout.Str Sys.ocaml_version);
       ]);
  true
