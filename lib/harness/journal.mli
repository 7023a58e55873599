(** Append-only campaign checkpoint journal (see docs/ROBUSTNESS.md).

    Records the completed cells of one campaign as (key, payload) pairs
    so an interrupted run can be resumed: journaled cells are skipped and
    their recorded payloads substituted, making the resumed run's output
    byte-identical to an uninterrupted one.

    The file is a {!Recordlog}: every write appends one whole line and
    flushes, so a kill can only tear the final record, which the next
    {!start} drops (that cell simply runs again) before healing the
    file.  The header pins a format version and the campaign identity;
    corrupted or mismatched-campaign journals are rejected with
    [Failure] rather than silently merged. *)

type t

val start : dir:string -> campaign:string -> t
(** Open (or create) [dir]/journal for the campaign identified by
    [campaign] (a single line naming everything that must match for
    records to be reusable: seed, count, engine, figure set...).

    @raise Failure if an existing journal is corrupt (anywhere but a torn
    final record) or belongs to a different campaign.
    @raise Invalid_argument if [campaign] contains a newline. *)

val dir : t -> string
val file : t -> string
val completed : t -> int
(** Number of recorded cells. *)

val find : t -> string -> string option
(** The recorded payload for a key, if that cell already completed.
    Thread-safe. *)

val record : t -> key:string -> payload:string -> unit
(** Durably record a completed cell (idempotent per key).  Thread-safe —
    pool workers record their own completions.

    @raise Invalid_argument if [key] is empty or contains spaces or
    newlines. *)
