(** One append-only record log, shared by the campaign checkpoint
    journal ({!Journal}) and the serve cache journal
    ([Spf_serve.Cjournal]).  See docs/ROBUSTNESS.md.

    File format (line-oriented; payloads hex-encoded):
    {v
    <header>
    <id_field> <identity>
    <tag> <md5 of "<tag> <key> <hex>"> <key> <hex payload>
    v}

    {!append} writes one whole line and flushes, so a kill can tear
    only the final line, by cutting its newline off.  {!open_} drops
    exactly that unterminated final line, counts it ({!torn}) and heals
    the file; any other damage raises [Failure] naming the file and the
    remedy, so a damaged log is never half-loaded.  Heals and
    {!compact} write a whole snapshot to [<path>.tmp] and rename it
    over the file, so a kill leaves the old file or the new one.
    Nothing is fsynced: a flushed append survives the process, not the
    machine.

    Not thread-safe: owners serialise calls. *)

(** {1 Hex codec and file helpers} *)

val to_hex : string -> string
(** Lower-case hex, two digits per byte. *)

val of_hex : string -> string option
(** Inverse of {!to_hex} (either case); [None] on odd length or a
    non-hex digit. *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents. *)

val read_file : string -> string

(** {1 The log} *)

type spec = {
  name : string;  (** what the file is, in messages: ["cache journal"] *)
  remedy : string;  (** advice ending every damage message *)
  header : string;  (** first line: magic and format version *)
  id_field : string;  (** the second line is [id_field ^ " " ^ identity] *)
  tags : string list;  (** accepted record tags *)
  mismatch : path:string -> found:string -> want:string -> string;
      (** the [Failure] message for a log written under another identity *)
}

type t

val open_ :
  spec ->
  path:string ->
  identity:string ->
  replay:(tag:string -> key:string -> string -> (unit, string) result) ->
  t
(** Create [path] holding just the header and identity, or check an
    existing one and pass each whole record to [replay], oldest first.
    [replay] returning [Error msg] refuses the file as damaged.  A torn
    final line is dropped and the file compacted at once.
    @raise Failure on any other damage, or an identity other than
    [identity]. *)

val append : t -> tag:string -> key:string -> string -> unit
(** Append one record and flush.
    @raise Invalid_argument if [key] is empty or contains a space,
    newline or carriage return. *)

val compact : t -> (string * string * string) list -> unit
(** Atomically rewrite the log to exactly these [(tag, key, payload)]
    records, oldest first. *)

val close : t -> unit
(** Close the append channel; a later {!append} reopens it. *)

val path : t -> string

val appends : t -> int
(** Records appended since the last compaction (or open). *)

val compactions : t -> int

val torn : t -> bool
(** True when {!open_} dropped a torn final line. *)
