(* Exact percentiles from raw samples (nearest rank), never from the
   registry's power-of-two buckets. A percentile is reported only when
   at least [min_beyond] samples lie beyond it, so a p99 needs at least
   1000 samples. Failed operations enter as [infinity]: they miss every
   latency limit. *)

let min_beyond = 10

(* 1-based nearest rank of quantile [q] among [n] samples. *)
let rank ~n q = max 1 (int_of_float (Float.ceil (q *. float_of_int n)))

(* [Some (value, samples_beyond)] for sorted [a], or [None] when fewer
   than [min_beyond] samples lie beyond the rank. *)
let exact (sorted : float array) q =
  let n = Array.length sorted in
  if n = 0 then None
  else
    let r = rank ~n q in
    let beyond = n - r in
    if beyond < min_beyond then None else Some (sorted.(r - 1), beyond)

let sorted_copy a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let median a =
  let a = sorted_copy a in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean a =
  if Array.length a = 0 then nan
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)
