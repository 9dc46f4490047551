(* Crash-safe, certificate-guarded persistent verification store.

   An append-only file of CRC-framed entries (magic "DS01" + length +
   CRC-32 + payload; header frame first) in a directory guarded by a
   pid lock file. One writer per directory: every other opener — and
   any opener under the [Store_lock_held] fault — degrades to read-only
   rather than corrupt. Opening as the writer truncates a torn tail,
   exactly like the batch journal; [gc] compacts to the live set with
   an atomic tmp+rename.

   Trust discipline: the store never decides anything. Served solver
   entries are re-validated against their certificates, served
   summaries re-validated structurally; any failure counts
   [store.cert_failures], evicts the entry and falls through to a
   fresh solve. A corrupted store costs time, never truth.

   Counters (metrics registry): store.hits, store.misses,
   store.evictions, store.cert_failures, store.appends. *)

(* [store.ml] is the library's main module; re-export the satellite
   modules so consumers reach them as [Store.Codec]/[Store.Fingerprint]. *)
module Codec = Codec
module Fingerprint = Fingerprint

type t

(* Open (creating directory and file as needed). [read_only] skips the
   writer lock. The torn tail, if any, is truncated when opening as the
   writer. *)
val open_ : ?read_only:bool -> string -> t

val close : t -> unit
val dir : t -> string
val writable : t -> bool
val dropped_bytes : t -> int
val loaded : t -> int
val entries : t -> int

(* Raw keyed access. [find] consults the fault plan: [Store_stale]
   forces a miss, [Store_corrupt] serves a byte-flipped copy on a hit.
   [add] on a read-only store is a no-op. [evict ~cert_failure:true]
   also counts store.cert_failures. *)
val find : t -> string -> string option
val add : t -> string -> string -> unit
val evict : ?cert_failure:bool -> t -> string -> unit

(* Compact to the live entries (sorted, atomic tmp+rename). [Error] on
   a read-only store. *)
val gc : t -> (int, string) result

(* Key builders. [solver_key] digests the canonical term list;
   [summary_key] combines a function's cone fingerprint with the
   workload tag and canonical call shape; [derived_key] is for the
   layer/query report entries framed by the pipeline. *)
val solver_key : Smt.Term.t list -> string
val summary_key : cone:string -> tag:string -> shape:string -> string
val derived_key : prefix:string -> parts:string list -> string

(* Interprocedural-analysis entries ("A|"): the summarized function's
   cone fingerprint plus a digest of the environment fingerprint (the
   filtered field invariants the analysis ran under). *)
val analysis_key : cone:string -> envfp:string -> string

(* The Smt.Solver persistence hook over this store. Serves nothing
   unless certification is on and a validator is installed; everything
   served was validated here (and is validated again by the solver's
   gatekeeper). [with_solver] installs it around [f], restoring the
   previously installed hook after. *)
val solver_persist : t -> Smt.Solver.persist
val with_solver : t -> (unit -> 'a) -> 'a

(* The Symex.Summary persistence hook. [cone_of fn] must return the
   cone fingerprint of [fn] in the program under verification; [tag]
   names everything else a summary depends on (the zone fingerprint). *)
val summary_persist :
  t -> cone_of:(string -> string) -> tag:string -> Symex.Summary.persist

(* The Analysis relational-summary persistence hook over "A|" entries:
   decoded entries that fail to parse or name another function are
   evicted as certificate failures and recomputed, never trusted (the
   analysis additionally rejects signature mismatches after load).
   [with_analysis] installs it around [f], restoring the previous
   hook. *)
val analysis_persist : t -> cone_of:(string -> string) -> Analysis.ip_persist
val with_analysis : t -> cone_of:(string -> string) -> (unit -> 'a) -> 'a

(* Drop this domain's parsed-entry memos (bench/test isolation; also
   done by [open_] and [close]). *)
val clear_domain_memos : unit -> unit

(* ---------------- Offline tools (operate on the directory) -------- *)

type stat_report = {
  st_header_ok : bool;
  st_total : int;
  st_by_prefix : (string * int) list;
  st_bytes : int;
  st_torn_bytes : int;
}

val stat : string -> stat_report

type fsck_report = {
  fk_header_ok : bool;
  fk_entries : int;
  fk_bad : (string * string) list;
  fk_torn_bytes : int;
  fk_repaired : bool;
}

(* Frame-level scan plus deep structural checks of every live entry.
   A torn tail is truncated away (repair) when the file is writable;
   torn tails alone leave the store clean — they are the expected
   crash signature, not corruption. [check] extends deep checking to
   entry kinds framed above this library ([None] = "not mine"). *)
val fsck :
  ?check:(key:string -> payload:string -> (unit, string) result option) ->
  string ->
  fsck_report

(* Clean: header intact and no deep-corrupt entries. *)
val fsck_clean : fsck_report -> bool

val pp_stat : Format.formatter -> stat_report -> unit
val pp_fsck : Format.formatter -> fsck_report -> unit
