(** Flat little-endian byte memory with a bump allocator.

    Address 0 is never handed out, so it can serve as a null sentinel. *)

type t

val create : ?initial:int -> unit -> t
(** [create ?initial ()] starts with [initial] bytes of zeroed backing
    (default 8 KiB) and the break at 4096.  [initial] is clamped to at
    least 4096, so the first page is always backed; the buffer doubles
    as {!alloc} needs. *)

val alloc : t -> int -> int
(** Allocate bytes aligned to a cache line; returns the base address. *)

val size : t -> int
(** Current break (total bytes in use). *)

val truncate : t -> int -> unit
(** Shrink the mapping break (used by the translation validator to hunt
    for introduced faults under the tightest mapping that still admits
    the original run).  Clamped to 4096: the initial page is never
    unmapped, so addresses below 4096 stay in-bounds in every reachable
    memory. *)

val in_bounds : t -> addr:int -> width:int -> bool
(** Whether a [width]-byte access at [addr] lies entirely inside the
    allocated (mapped) region [0, break).  The interpreter traps demand
    accesses outside it and drops prefetches to it non-faulting. *)

val digest : t -> string
(** Hex digest of the allocated region's contents — the differential
    fuzzing oracle's memory-equality check. *)

val load : t -> Spf_ir.Ir.ty -> int -> int
(** Integer loads zero-extend ([I8]/[I16]/[I32]); [I64]/[F64] return the
    raw low 63 bits. *)

val store : t -> Spf_ir.Ir.ty -> int -> int -> unit

val load_f64 : t -> int -> float
val store_f64 : t -> int -> float -> unit

(** {1 Unchecked accessors for the simulator hot path}

    Same semantics as the checked versions, but skip the Bytes bounds
    check and inline to a raw machine access.  Callers must have
    established [in_bounds] for the access first — the interpreter's
    trap check does exactly that. *)

val unsafe_load : t -> Spf_ir.Ir.ty -> int -> int
val unsafe_store : t -> Spf_ir.Ir.ty -> int -> int -> unit
val unsafe_load_f64 : t -> int -> float
val unsafe_store_f64 : t -> int -> float -> unit

(** {1 Bulk helpers for workload setup and checksums} *)

val alloc_i32_array : t -> int array -> int
val alloc_i64_array : t -> int array -> int
val alloc_f64_array : t -> float array -> int
val read_i32_array : t -> base:int -> len:int -> int array
val read_i64_array : t -> base:int -> len:int -> int array
val read_f64_array : t -> base:int -> len:int -> float array
