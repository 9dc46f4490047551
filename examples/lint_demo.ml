(* Lint demo: catch seeded bugs in a Golite program *without running
   it*, using the abstract-interpretation linter behind `dnsv lint`.

     dune exec examples/lint_demo.exe

   The program below seeds two classic mistakes:

   - [sumFirst] iterates `i <= 4` over a 4-element array, so the
     compiled bounds check on `xs[i]` can actually fire: an off-by-one
     the interval analysis proves reachable with constant bounds.
   - [scale] stores `x * 3` into a temporary on one branch and never
     reads it again: a dead store the backward liveness pass flags.

   The example is self-checking: it exits non-zero unless the linter
   reports exactly the two seeded bugs. *)

let source =
  "func sumFirst(xs [4]int) int {\n\
  \  var total int = 0\n\
  \  var i int = 0\n\
  \  while i <= 4 {\n\
  \    total = total + xs[i]\n\
  \    i = i + 1\n\
  \  }\n\
  \  return total\n\
   }\n\n\
   func scale(x int) int {\n\
  \  var tmp int = 0\n\
  \  if x > 0 {\n\
  \    tmp = x * 3\n\
  \  }\n\
  \  return x * 2\n\
   }\n"

let () =
  (* Golite source -> MinIR, exactly the path the engine versions take. *)
  let prog = Golite.Compile.compile (Golite.Parse.program_of_string_exn source) in
  let findings = Analysis.Lint.run prog (Analysis.analyze prog) in

  Printf.printf "lint findings for the seeded program:\n";
  List.iter
    (fun f -> Format.printf "  %a@." Analysis.Lint.pp_finding f)
    findings;

  let has rule fn =
    List.exists
      (fun (f : Analysis.Lint.finding) ->
        f.Analysis.Lint.rule = rule && f.Analysis.Lint.fn = fn)
      findings
  in
  let off_by_one = has "reachable-panic" "sumFirst" in
  let dead_store = has "dead-store" "scale" in
  Printf.printf "\noff-by-one in sumFirst:  %s\n"
    (if off_by_one then "caught" else "MISSED");
  Printf.printf "dead store in scale:     %s\n"
    (if dead_store then "caught" else "MISSED");

  (* And nothing else: the linter is precise on this program, not just
     lucky — extra findings here would be false positives. *)
  let expected =
    List.for_all
      (fun (f : Analysis.Lint.finding) ->
        (f.Analysis.Lint.rule = "reachable-panic"
        && f.Analysis.Lint.fn = "sumFirst")
        || (f.Analysis.Lint.rule = "dead-store" && f.Analysis.Lint.fn = "scale"))
      findings
  in
  if not expected then
    print_endline "unexpected extra findings (false positives)";
  if off_by_one && dead_store && expected then begin
    print_endline "\nlint demo: both seeded bugs caught, no false positives";
    exit 0
  end
  else exit 1
