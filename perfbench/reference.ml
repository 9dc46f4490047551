(* The serve workload's correctness oracle: what each datagram must be
   answered with, computed from the top-level specification
   ([Spec.Rrlookup.resolve]) and the query bytes alone — never from
   the engine under test.

   - A query that decodes to one standard question must get exactly the
     specification's answer for it: same id, the question echoed, RD
     echoed, QR set, RA clear, and the spec's rcode, AA and records in
     every section (order-insensitive; TTLs and the exact bytes of every
     label included), compared with the [Message.response] the spec
     returns. The program's encoder is consulted for one thing only:
     whether that answer fits 512 bytes. If it does not, TC must be set
     and every record carried must be one of the spec's; otherwise TC
     must be clear and the records must be the spec's exactly. A
     degraded reply (a SERVFAIL the spec does not give, a missing
     record) is a failure.
   - Anything else must get the loop's FORMERR (or NOTIMP for a
     decodable non-zero opcode) echoing id, opcode and RD with empty
     sections.
   - Every reply must also be the canonical encoding of what it decodes
     to, so a flipped byte cannot hide in a compression pointer or in
     padding the decoder skips.

   The reference zone's l1/l2 CNAME loop answers SERVFAIL *by
   specification*; such replies are correct and classed "servfail_spec". *)

module Message = Dns.Message

type expect =
  | Answer of { id : int; rd : bool; q : Message.query; spec : Message.response; truncated : bool }
  | Header_only of { id : int; opcode : int; rd : bool; rcode : Message.rcode }

let with_id raw id =
  if String.length raw < 2 then raw
  else begin
    let b = Bytes.of_string raw in
    Bytes.set_uint8 b 0 (id lsr 8);
    Bytes.set_uint8 b 1 (id land 0xFF);
    Bytes.to_string b
  end

let header_fields raw =
  let id = (Char.code raw.[0] lsl 8) lor Char.code raw.[1] in
  let b2 = Char.code raw.[2] in
  (id, (b2 lsr 3) land 0xF, b2 land 0x01 <> 0)

let expect ~zone raw =
  let id, opcode, rd = header_fields raw in
  match Wire.decode raw with
  | Ok m when (not m.Wire.qr) && m.Wire.opcode = 0 && List.length m.Wire.question = 1 ->
      let q = List.hd m.Wire.question in
      let spec = Spec.Rrlookup.resolve zone q in
      let _, truncated =
        Wire.encode_truncated ~max_size:Wire.max_udp_payload
          (Wire.response ~id ~rd:m.Wire.rd ~question:[ q ] spec)
      in
      Answer { id; rd = m.Wire.rd; q; spec; truncated }
  | Ok m when (not m.Wire.qr) && m.Wire.opcode <> 0 ->
      Header_only { id; opcode = m.Wire.opcode; rd = m.Wire.rd; rcode = Message.NotImp }
  | Ok m when not m.Wire.qr ->
      Header_only { id; opcode = 0; rd = m.Wire.rd; rcode = Message.FormErr }
  | _ -> Header_only { id; opcode; rd; rcode = Message.FormErr }

let rcode_of reply =
  match Wire.decode reply with
  | Ok m -> Some (Message.rcode_to_string m.Wire.rcode)
  | Error _ -> None

let class_of (e : expect) =
  match e with
  | Header_only { rcode = Message.FormErr; _ } -> "formerr"
  | Header_only _ -> "notimp"
  | Answer { spec; _ } -> (
      match spec.Message.rcode with
      | Message.NoError -> "noerror"
      | Message.NXDomain -> "nxdomain"
      | Message.Refused -> "refused"
      | Message.ServFail -> "servfail_spec"
      | rc -> String.lowercase_ascii (Message.rcode_to_string rc))

(* Sections as multisets of records compared field by field — TTL and
   the exact bytes of every label included, which [Message.equal_section]
   (the verifier's semantic equality) deliberately ignores. *)
let same_records (a : Dns.Rr.t list) b = List.sort compare a = List.sort compare b

(* Every record of [a] is a distinct record of [b] (what a truncated
   reply may carry). *)
let rec sub_records (a : Dns.Rr.t list) b =
  let rec remove r = function
    | [] -> None
    | x :: xs -> if x = r then Some xs else Option.map (List.cons x) (remove r xs)
  in
  match a with
  | [] -> true
  | r :: rest -> ( match remove r b with Some b -> sub_records rest b | None -> false)

(* [Ok class] when [reply] is exactly what [e] demands, else [Error why]. *)
let check (e : expect) reply : (string, string) result =
  match Wire.decode reply with
  | Error err -> Error ("undecodable reply: " ^ Wire.error_to_string err)
  | Ok m ->
      let bad fmt = Printf.ksprintf (fun s -> Error s) fmt in
      if Wire.encode m <> reply then bad "reply is not the canonical encoding of its content"
      else if not m.Wire.qr then bad "QR clear"
      else begin
        match e with
        | Header_only { id; opcode; rd; rcode } ->
            if m.Wire.id <> id then bad "id %d, want %d" m.Wire.id id
            else if m.Wire.rcode <> rcode then
              bad "rcode %s, want %s" (Message.rcode_to_string m.Wire.rcode)
                (Message.rcode_to_string rcode)
            else if m.Wire.opcode <> opcode || m.Wire.rd <> rd then bad "header echo differs"
            else if
              m.Wire.aa || m.Wire.tc || m.Wire.ra || m.Wire.question <> []
              || m.Wire.answer <> [] || m.Wire.authority <> [] || m.Wire.additional <> []
            then bad "error reply carries content"
            else Ok (class_of e)
        | Answer { id; rd; q; spec; truncated } ->
            let records = if truncated then sub_records else same_records in
            if m.Wire.id <> id then bad "id %d, want %d" m.Wire.id id
            else if m.Wire.question <> [ q ] then bad "question not echoed"
            else if m.Wire.opcode <> 0 || m.Wire.rd <> rd || m.Wire.ra then bad "header flags differ"
            else if m.Wire.rcode <> spec.Message.rcode then
              bad "rcode %s, spec says %s" (Message.rcode_to_string m.Wire.rcode)
                (Message.rcode_to_string spec.Message.rcode)
            else if m.Wire.aa <> spec.Message.aa then bad "AA differs from the spec"
            else if m.Wire.tc <> truncated then bad "TC %b, want %b" m.Wire.tc truncated
            else if
              not
                (records m.Wire.answer spec.Message.answer
                && records m.Wire.authority spec.Message.authority
                && records m.Wire.additional spec.Message.additional)
            then bad "records differ from the spec"
            else Ok (class_of e)
      end
