(* A fixed, program-independent unit of work the benchmark times
   alongside the program, to track how fast the host is running right
   now. It calls nothing in lib/, so no change to the program's code
   can move it. Half of it is shaped like the program's hot paths (an
   interpreter: string-keyed register tables, association-list lookups,
   small array copies and the garbage they leave); the other half is
   random reads over a 32 MB array, which a faster clock barely speeds
   up. On the 2-vCPU host this benchmark was built on, the compute half
   alone swung about twice as far as the program did between the host's
   fast and slow spells; the two halves together track it. It is timed
   in the measured processes themselves, never right before a timed
   call: a calibration run in a fresh process of its own tracked the
   host less closely. *)

let interpreter () =
  let acc = ref 0 in
  for f = 0 to 150 do
    let regs = Hashtbl.create 16 in
    let labels = List.init 24 (fun i -> ("L" ^ string_of_int i, i)) in
    let mem = ref (Array.make 32 0) in
    for step = 0 to 60 do
      Hashtbl.replace regs ("r" ^ string_of_int (step land 15)) (step + f);
      acc :=
        !acc
        + Option.value ~default:0 (Hashtbl.find_opt regs ("r" ^ string_of_int ((step + 3) land 15)))
        + List.assoc ("L" ^ string_of_int (step * 7 mod 24)) labels;
      let m = Array.copy !mem in
      m.(step * 5 land 31) <- !acc;
      mem := m
    done
  done;
  !acc

let big = lazy (Array.init (4 lsl 20) Fun.id)

let memory () =
  let big = Lazy.force big in
  let acc = ref 0 and x = ref 12345 in
  for _ = 1 to 600_000 do
    x := (!x * 1103515245 + 12345) land 0x3FFFFFFF;
    acc := !acc + big.(!x land (Array.length big - 1))
  done;
  !acc

(* Every timing taken in this process, for the result's "calibration"
   field; run.py takes the median over the whole run. *)
let samples = ref []

let sample ~reps =
  ignore (Lazy.force big);
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (interpreter () + memory ()));
    samples := (Unix.gettimeofday () -. t0) :: !samples
  done

let json () = Jout.Arr (List.rev_map (fun s -> Jout.Num s) !samples)
