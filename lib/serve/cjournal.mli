(** Crash-safe append-only journal for the serve result cache
    ([`spf serve --cache-journal DIR`]).

    File format (line-oriented; payloads hex-encoded):
    {v
    spf-cache-journal 1
    identity <hex md5 over machine/engine/config/body-format identity>
    P <md5> <key> <hex pass-entry payload>
    S <md5> <key> <hex reply-body payload>
    v}

    The file is a {!Spf_harness.Recordlog}: appends write one whole
    line and flush, {!open_} drops and heals only a torn final record,
    and any other damage or an identity mismatch raises [Failure]
    telling the operator to delete the journal.

    Not thread-safe: the owning {!Rcache} serializes all calls under
    its lock. *)

type record =
  | Pass of string * string  (** key, encoded pass entry *)
  | Sim of string * string  (** key, rendered reply body *)

type t

val identity : unit -> string
(** Digest over everything that could silently change a cached reply
    body: the body-format version, every machine model's canonical
    render, the engine list, and the default config's canonical render.
    A journal written under a different identity is refused at
    {!open_}. *)

val open_ : dir:string -> t
(** Create [dir] if needed, replay [dir]/cache-journal if present, and
    leave the file open for appends.  Compacts immediately when a torn
    tail was dropped.  @raise Failure on identity mismatch or
    corruption anywhere but the torn tail. *)

val replayed : t -> record list
(** Records recovered at {!open_}, oldest first (duplicates possible —
    later records win). *)

val append : t -> record -> unit
(** Append one record and flush.  @raise Invalid_argument if the key
    contains whitespace. *)

val compact : t -> record list -> unit
(** Atomically rewrite the journal to exactly [records] (oldest
    first): snapshot to [.tmp], rename over the live file, reopen for
    appends. *)

val close : t -> unit

val path : t -> string
val dir : t -> string

val appends : t -> int
(** Records appended since the last compaction (or open). *)

val compactions : t -> int
val replayed_pass : t -> int
val replayed_sim : t -> int

val truncated : t -> bool
(** True when {!open_} dropped a torn tail record. *)
