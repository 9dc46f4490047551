(* Helper executable of the repository benchmark; run.py drives it.

     dnsvbench verify --engine V [--label L] [--store DIR] [--trace]
     dnsvbench load --port P --seed S --queries N
     dnsvbench replay --seed S --queries N
     dnsvbench layers --seed S
     dnsvbench selfcheck

   Each subcommand prints one JSON object on stdout and exits 0 when
   every output it checked was correct, 1 when a check failed, and 2 on
   a usage error. *)

let usage () =
  prerr_endline "usage: dnsvbench verify|load|replay|layers|selfcheck [options]";
  exit 2

let () =
  let argv = Array.to_list Sys.argv in
  let cmd, rest = match argv with _ :: c :: r -> (c, r) | _ -> usage () in
  let opts = Hashtbl.create 8 in
  let rec parse = function
    | [] -> ()
    | "--trace" as f :: r ->
        Hashtbl.replace opts f "1";
        parse r
    | k :: v :: r when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace opts k v;
        parse r
    | _ -> usage ()
  in
  parse rest;
  let str k = match Hashtbl.find_opt opts k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (str k) with Some n -> n | None -> usage () in
  let ok =
    match cmd with
    | "verify" ->
        let engine = str "--engine" in
        Verify_step.run ~engine
          ~label:(Option.value ~default:engine (Hashtbl.find_opt opts "--label"))
          ~store_dir:(Hashtbl.find_opt opts "--store") ~traced:(Hashtbl.mem opts "--trace")
    | "load" -> Udp_load.report ~port:(int "--port") ~seed:(int "--seed") ~per_rate:(int "--queries")
    | "replay" -> Replay.run ~seed:(int "--seed") ~n:(int "--queries")
    | "layers" -> Layer_probe.run ~seed:(int "--seed")
    | "selfcheck" -> Selfcheck.run ()
    | _ -> usage ()
  in
  exit (if ok then 0 else 1)
