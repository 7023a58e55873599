(* Set-associative cache with true-LRU replacement.

   Keyed on an abstract "unit" number (a line number for data caches, a
   page number for the TLB).  Each set's ways are stored in recency
   order — tags.(base) is the MRU way, tags.(base + assoc - 1) the LRU —
   so a probe needs no stamp array and the dominant case of the whole
   simulator, a repeat hit on the most-recently-used way, is a single
   compare.  A hit elsewhere rotates the prefix (move-to-front); the
   eviction victim is simply the last way.  This is observationally
   identical to the classic stamp-based true-LRU scheme: the same keys
   hit, and the same victim is displaced on every insert (invalid ways
   drift to — and are consumed from — the back, exactly like the
   all-zero stamps they used to carry).

   The tag array covers only the materialised sets [0, hi): it starts at
   64 sets (all of an 8-way 32 KiB L1) and doubles the first time a key
   is inserted into a higher set.  An 8 MiB L3 would otherwise cost
   131,072 words per instance, while a small program touches a few
   hundred lines.  A set not yet materialised holds only invalid ways,
   so probing it is the same miss as before. *)

type t = {
  sets : int;
  mask : int; (* sets - 1 when sets is a power of two, else -1 *)
  assoc : int;
  mutable hi : int; (* sets materialised in [tags] *)
  mutable tags : int array; (* hi * assoc, recency-ordered per set; -1 = invalid *)
}

(* Every real machine config has power-of-two set counts, so set
   selection is a mask rather than an integer division — [set_of] runs
   on every cache and TLB probe, making the division measurable. *)
let mask_of sets = if sets land (sets - 1) = 0 then sets - 1 else -1

let of_sets sets assoc =
  let hi = min sets 64 in
  { sets; mask = mask_of sets; assoc; hi; tags = Array.make (hi * assoc) (-1) }

let create ~size ~assoc ~unit_shift =
  let units = size lsr unit_shift in
  of_sets (max 1 (units / assoc)) assoc

let create_entries ~entries ~assoc = of_sets (max 1 (entries / assoc)) assoc

(* Materialise sets up to and including [s] (< [sets]). *)
let grow t s =
  let hi = ref (2 * t.hi) in
  while !hi <= s do
    hi := 2 * !hi
  done;
  let hi = min !hi t.sets in
  let tags = Array.make (hi * t.assoc) (-1) in
  Array.blit t.tags 0 tags 0 (Array.length t.tags);
  t.hi <- hi;
  t.tags <- tags

let index t key = if t.mask >= 0 then key land t.mask else key mod t.sets

(* Index of [key]'s set, materialised first — for the inserts, which
   already keep a frame for [promote], so inlining this costs them no
   call. *)
let[@inline] set_of t key =
  let s = index t key in
  if s >= t.hi then grow t s;
  s

(* The scans below use unsafe accesses: a set index below [hi] puts
   [base + w] below [hi * assoc] = the array length for every way [w] —
   and these loops run on every simulated memory access.  The probes
   answer a set not yet materialised without growing (its ways are all
   invalid), so their fast path makes no call. *)

(* Probe without modifying replacement state. *)
let mem t key =
  let s = index t key in
  let base = s * t.assoc in
  let rec scan w =
    w < t.assoc && (Array.unsafe_get t.tags (base + w) = key || scan (w + 1))
  in
  s < t.hi && scan 0

(* Rotate ways [0, w] of the set right by one and put [key] in front —
   the move-to-front that refreshes recency. *)
let promote tags ~base ~w key =
  for k = w downto 1 do
    Array.unsafe_set tags (base + k) (Array.unsafe_get tags (base + k - 1))
  done;
  Array.unsafe_set tags base key

(* Probe and, on a hit, refresh LRU state.  Returns whether the key hit. *)
let access t key =
  let s = index t key in
  let base = s * t.assoc in
  let tags = t.tags in
  s < t.hi
  && (Array.unsafe_get tags base = key
     ||
     let rec scan w =
       if w >= t.assoc then false
       else if Array.unsafe_get tags (base + w) = key then begin
         promote tags ~base ~w key;
         true
       end
       else scan (w + 1)
     in
     scan 1)

(* Insert a key (refreshing its recency if already present), evicting
   the LRU way.  Returns the evicted key, if a valid line was
   displaced. *)
let insert t key =
  let base = set_of t key * t.assoc in
  let tags = t.tags in
  let rec find w =
    if w >= t.assoc then -1
    else if Array.unsafe_get tags (base + w) = key then w
    else find (w + 1)
  in
  let pos = find 0 in
  if pos = 0 then None
  else if pos > 0 then begin
    promote tags ~base ~w:pos key;
    None
  end
  else begin
    let old = Array.unsafe_get tags (base + t.assoc - 1) in
    promote tags ~base ~w:(t.assoc - 1) key;
    if old >= 0 then Some old else None
  end

(* Insert a key the caller has just proven absent (an [access] on this
   cache missed, with no intervening insert of it): skips the presence
   scan of {!insert}, going straight to evict-LRU + move-to-front.
   Every memory-system fill site satisfies the precondition — fills only
   happen after the corresponding probe missed. *)
let insert_absent t key =
  let base = set_of t key * t.assoc in
  let tags = t.tags in
  let old = Array.unsafe_get tags (base + t.assoc - 1) in
  promote tags ~base ~w:(t.assoc - 1) key;
  if old >= 0 then Some old else None

let clear t = Array.fill t.tags 0 (Array.length t.tags) (-1)
let capacity t = t.sets * t.assoc
