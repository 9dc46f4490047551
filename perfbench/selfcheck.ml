(* The benchmark's checks, fed wrong answers: every one must fire.

   - every single-byte mutation of a correct reply is rejected by the
     serve reference, and every correct reply is accepted;
   - a correct reply re-encoded canonically with its first answer
     record's TTL changed, or with that record dropped, is rejected: the records are
     compared with the specification's own answer, not with another
     trip through the codec;
   - replies from a buggy engine (1.0) are caught;
   - a p99 is refused below 1000 samples (fewer than 10 beyond it).

   The verdict check (a buggy version labelled fixed) and the stats
   reconciliation are exercised from perfbench/tests. *)

let seed = 3
let n = 200

(* Canonically encoded variants of a correct reply whose answer is
   wrong: its first record's TTL changed, or that record dropped. *)
let content_mutations reply =
  match Wire.decode reply with
  | Ok ({ Wire.answer = (r : Dns.Rr.t) :: rest; _ } as m) ->
      [
        ("ttl", { m with Wire.answer = { r with Dns.Rr.ttl = r.Dns.Rr.ttl + 1 } :: rest });
        ("dropped record", { m with Wire.answer = rest });
      ]
      |> List.map (fun (what, m) -> (what, Wire.encode m))
  | _ -> []

let run () =
  let zone = Spec.Fixtures.reference_zone in
  let server version =
    match Engine.Versions.find version with
    | Some config -> Dnsv.Serve.create ~config zone
    | None -> failwith version
  in
  let good = server Replay.engine and buggy = server "1.0" in
  let queries = Udp_load.plan ~zone ~seed ~from:0 n in
  let accepted = ref 0 and rejected_good = ref 0 in
  let mutations = ref 0 and missed = ref [] in
  let content = ref 0 in
  let buggy_caught = ref 0 in
  Array.iteri
    (fun i (q : Udp_load.query) ->
      match (Dnsv.Serve.handle good q.bytes).Dnsv.Serve.reply with
      | None -> incr rejected_good
      | Some reply ->
          (match Reference.check q.expect reply with Ok _ -> incr accepted | Error _ -> incr rejected_good);
          (* Flip the low bit and the ASCII case bit of every byte. *)
          for at = 0 to String.length reply - 1 do
            List.iter
              (fun mask ->
                let b = Bytes.of_string reply in
                Bytes.set_uint8 b at (Bytes.get_uint8 b at lxor mask);
                incr mutations;
                match Reference.check q.expect (Bytes.to_string b) with
                | Ok _ -> missed := Printf.sprintf "query %d byte %d ^ %#x" i at mask :: !missed
                | Error _ -> ())
              [ 0x01; 0x20 ]
          done;
          List.iter
            (fun (what, wrong) ->
              incr content;
              match Reference.check q.expect wrong with
              | Ok _ -> missed := Printf.sprintf "query %d: %s" i what :: !missed
              | Error _ -> ())
            (content_mutations reply);
          (match (Dnsv.Serve.handle buggy q.bytes).Dnsv.Serve.reply with
          | Some r when Result.is_error (Reference.check q.expect r) -> incr buggy_caught
          | _ -> ()))
    queries;
  let p99_refused = Quantile.exact (Array.make 999 1.0) 0.99 = None in
  let p99_given = Quantile.exact (Array.make 1000 1.0) 0.99 <> None in
  let ok =
    !rejected_good = 0 && !missed = [] && !content > 0 && !buggy_caught > 0 && p99_refused && p99_given
  in
  Jout.print
    (Jout.Obj
       [
         ("replies_accepted", Jout.Int !accepted);
         ("correct_replies_rejected", Jout.Int !rejected_good);
         ("mutations", Jout.Int !mutations);
         ("content_mutations", Jout.Int !content);
         ("mutations_missed", Jout.Arr (List.map (fun s -> Jout.Str s) !missed));
         ("buggy_replies_caught", Jout.Int !buggy_caught);
         ("p99_refused_below_1000", Jout.Bool p99_refused);
         ("p99_given_at_1000", Jout.Bool p99_given);
         ("ok", Jout.Bool ok);
       ]);
  ok
