(* Crash-safe write-ahead journal for batch verification runs.

   Frame layout (all integers big-endian):

     +--------+--------+--------+-----------------+
     | "DJ01" | length | crc32  | payload (length)|
     | 4 B    | 4 B    | 4 B    |                 |
     +--------+--------+--------+-----------------+

   The payload's first byte tags the record kind: 'H' header, 'R'
   regular item record, 'F' finalization. A record is *intact* iff its
   magic matches, its declared length fits in the file, and the CRC of
   the payload matches; recovery stops at the first violation and
   reports everything before it. Because appends flush before
   returning, the only damage a kill can cause is one torn frame at the
   tail — exactly what recovery truncates. *)

type t = out_channel

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320)               *)
(* ------------------------------------------------------------------ *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32_int (s : string) : int =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

let crc32 (s : string) : int32 = Int32.of_int (crc32_int s)

(* ------------------------------------------------------------------ *)
(* Framing                                                            *)
(* ------------------------------------------------------------------ *)

let add_be32 b n =
  Buffer.add_char b (Char.chr ((n lsr 24) land 0xFF));
  Buffer.add_char b (Char.chr ((n lsr 16) land 0xFF));
  Buffer.add_char b (Char.chr ((n lsr 8) land 0xFF));
  Buffer.add_char b (Char.chr (n land 0xFF))

let read_be32 (s : string) (off : int) : int =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let frame ~magic (payload : string) : string =
  let b = Buffer.create (String.length payload + 12) in
  Buffer.add_string b magic;
  add_be32 b (String.length payload);
  add_be32 b (crc32_int payload);
  Buffer.add_string b payload;
  Buffer.contents b

let scan_frames ~magic (data : string) (accept : string -> bool) : int =
  let len = String.length data in
  let rec go p =
    if p + 12 > len || String.sub data p 4 <> magic then p
    else
      let plen = read_be32 data (p + 4) in
      if plen < 1 || p + 12 + plen > len then p
      else
        let payload = String.sub data (p + 12) plen in
        if crc32_int payload = read_be32 data (p + 8) && accept payload then
          go (p + 12 + plen)
        else p
  in
  go 0

let magic = "DJ01"

let write_record (j : t) (payload : string) : unit =
  let f = frame ~magic payload in
  (* The torn-write fault: half the frame reaches the disk, then the
     process "dies" (the injected exception plays the kill; the CI
     harness uses a real SIGKILL). Flush first so the torn bytes are
     actually visible to the recovering reader. *)
  if Faultinject.fire Faultinject.Journal_torn then begin
    let half = max 1 (String.length f / 2) in
    output_string j (String.sub f 0 half);
    flush j;
    Faultinject.injected Faultinject.Journal_torn
      "journal append torn after %d of %d bytes" half (String.length f)
  end;
  output_string j f;
  flush j

(* ------------------------------------------------------------------ *)
(* API                                                                *)
(* ------------------------------------------------------------------ *)

let create ~path ~header : t =
  let j = open_out_bin path in
  write_record j ("H" ^ header);
  j

let c_appends = Trace.Metrics.counter "journal.appends"

let append (j : t) (record : string) : unit =
  Trace.Metrics.incr c_appends;
  Trace.event "journal.append"
    ~attrs:[ ("bytes", string_of_int (String.length record)) ];
  write_record j ("R" ^ record)

let finalize (j : t) (record : string) : unit = write_record j ("F" ^ record)
let close (j : t) : unit = close_out j

type recovery = {
  header : string option;
  records : string list;
  final : string option;
  dropped_bytes : int;
}

let empty_recovery =
  { header = None; records = []; final = None; dropped_bytes = 0 }

(* Scan the raw bytes: returns the recovery and the byte offset just
   past the last intact frame. *)
let scan (data : string) : recovery * int =
  let header = ref None and records = ref [] and final = ref None in
  let good =
    scan_frames ~magic data (fun payload ->
        let body = String.sub payload 1 (String.length payload - 1) in
        (match payload.[0] with
        | 'H' -> if !header = None then header := Some body
        | 'R' -> records := body :: !records
        | 'F' -> final := Some body
        | _ -> ());
        true)
  in
  ( {
      header = !header;
      records = List.rev !records;
      final = !final;
      dropped_bytes = String.length data - good;
    },
    good )

let read_file (path : string) : string option =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (really_input_string ic (in_channel_length ic)))

let recover ~path : recovery =
  match read_file path with
  | None -> empty_recovery
  | Some data -> fst (scan data)

let open_resume ~path ~header : (t * recovery, string) result =
  match read_file path with
  | None -> Ok (create ~path ~header, empty_recovery)
  | Some data -> (
      let rec_, good = scan data in
      match rec_.header with
      | None -> Error "journal has no intact header record"
      | Some h when h <> header ->
          Error
            (Printf.sprintf
               "journal header mismatch: journal is for %S, this run is %S" h
               header)
      | Some _ ->
          (* Truncate the torn tail, then reopen positioned at the end
             of the intact prefix. *)
          if rec_.dropped_bytes > 0 then Unix.truncate path good;
          Trace.event "journal.resume"
            ~attrs:
              [
                ("records", string_of_int (List.length rec_.records));
                ("dropped_bytes", string_of_int rec_.dropped_bytes);
              ];
          Ok
            ( open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path,
              rec_ ))
