module Cache = Spf_sim.Cache

(* Unit and property tests for the set-associative LRU cache, including a
   brute-force reference model. *)

let test_hit_after_insert () =
  let c = Cache.create ~size:1024 ~assoc:2 ~unit_shift:6 in
  Alcotest.(check bool) "cold miss" false (Cache.access c 5);
  ignore (Cache.insert c 5);
  Alcotest.(check bool) "hit after insert" true (Cache.access c 5)

let test_lru_eviction () =
  (* 2-way, pick keys that map to the same set. *)
  let c = Cache.create ~size:128 ~assoc:2 ~unit_shift:6 in
  (* sets = 128/64/2 = 1, so every key collides. *)
  ignore (Cache.insert c 1);
  ignore (Cache.insert c 2);
  ignore (Cache.access c 1); (* refresh 1; 2 becomes LRU *)
  let evicted = Cache.insert c 3 in
  Alcotest.(check (option int)) "LRU way evicted" (Some 2) evicted;
  Alcotest.(check bool) "1 survives" true (Cache.mem c 1);
  Alcotest.(check bool) "3 present" true (Cache.mem c 3);
  Alcotest.(check bool) "2 gone" false (Cache.mem c 2)

let test_insert_refreshes () =
  let c = Cache.create ~size:128 ~assoc:2 ~unit_shift:6 in
  ignore (Cache.insert c 1);
  ignore (Cache.insert c 2);
  ignore (Cache.insert c 1); (* refresh, not duplicate *)
  let evicted = Cache.insert c 3 in
  Alcotest.(check (option int)) "2 was LRU" (Some 2) evicted

let test_mem_does_not_touch () =
  let c = Cache.create ~size:128 ~assoc:2 ~unit_shift:6 in
  ignore (Cache.insert c 1);
  ignore (Cache.insert c 2);
  ignore (Cache.mem c 1); (* must NOT refresh *)
  let evicted = Cache.insert c 3 in
  Alcotest.(check (option int)) "probe did not refresh 1" (Some 1) evicted

let test_clear () =
  let c = Cache.create ~size:1024 ~assoc:4 ~unit_shift:6 in
  ignore (Cache.insert c 7);
  Cache.clear c;
  Alcotest.(check bool) "cleared" false (Cache.mem c 7)

let test_capacity () =
  let c = Cache.create ~size:4096 ~assoc:4 ~unit_shift:6 in
  Alcotest.(check int) "capacity" 64 (Cache.capacity c)

(* Reference model: per-set list, most-recent first. *)
module Reference = struct
  type t = { sets : int; assoc : int; mutable data : (int * int list) list }

  let create ~sets ~assoc = { sets; assoc; data = [] }

  let set_of t key = key mod t.sets

  let find_set t s = try List.assoc s t.data with Not_found -> []

  let update_set t s l = t.data <- (s, l) :: List.remove_assoc s t.data

  let access t key =
    let s = set_of t key in
    let l = find_set t s in
    if List.mem key l then begin
      update_set t s (key :: List.filter (( <> ) key) l);
      true
    end
    else false

  let mem t key = List.mem key (find_set t (set_of t key))

  (* Returns the evicted key, if any. *)
  let insert t key =
    let s = set_of t key in
    let l = find_set t s in
    if List.mem key l then begin
      update_set t s (key :: List.filter (( <> ) key) l);
      None
    end
    else begin
      let l = key :: l in
      if List.length l > t.assoc then begin
        update_set t s (List.filteri (fun i _ -> i < t.assoc) l);
        Some (List.nth l t.assoc)
      end
      else begin
        update_set t s l;
        None
      end
    end

  let clear t = t.data <- []
end

let prop_matches_reference =
  QCheck.Test.make ~name:"cache matches reference LRU model" ~count:200
    QCheck.(pair (int_bound 3) (list (pair bool (int_bound 40))))
    (fun (assoc_sel, ops) ->
      let assoc = 1 lsl assoc_sel in
      (* 4 sets x assoc ways *)
      let c = Cache.create_entries ~entries:(4 * assoc) ~assoc in
      let r = Reference.create ~sets:4 ~assoc in
      List.for_all
        (fun (is_insert, key) ->
          if is_insert then begin
            ignore (Cache.insert c key);
            ignore (Reference.insert r key);
            true
          end
          else Cache.access c key = Reference.access r key)
        ops)

(* Caches large enough that their tag array starts with only some sets
   materialised and grows on first touch of a higher set.  Every
   operation, the victim of every insert included, must match the
   reference, whichever set is touched first.  [insert_absent] is only
   used as the memory system uses it: right after a missed [access]. *)
let growing_matches_reference ~name ~make ~sets ~assoc ops =
  QCheck.Test.make ~name ~count:200 ops (fun ops ->
      let c = make () in
      let r = Reference.create ~sets ~assoc in
      let evicted = Alcotest.(option int) in
      List.iter
        (fun (op, k) ->
          let what = Printf.sprintf "op %d key %d" op k in
          match op with
          | 0 -> Alcotest.(check bool) ("mem " ^ what) (Reference.mem r k) (Cache.mem c k)
          | 1 ->
              Alcotest.(check bool) ("access " ^ what) (Reference.access r k)
                (Cache.access c k)
          | 2 ->
              Alcotest.check evicted ("insert " ^ what) (Reference.insert r k)
                (Cache.insert c k)
          | 3 ->
              let hit = Reference.access r k in
              Alcotest.(check bool) ("fill probe " ^ what) hit (Cache.access c k);
              if not hit then
                Alcotest.check evicted ("insert_absent " ^ what) (Reference.insert r k)
                  (Cache.insert_absent c k)
          | _ ->
              Reference.clear r;
              Cache.clear c)
        ops;
      Alcotest.(check int) "capacity" (sets * assoc) (Cache.capacity c);
      true)

(* 1024 sets x 16 ways.  Each case reuses three sets drawn from the
   whole range, so the first touch is often a high set and a later one
   grows past sets that already hold lines; 24 tags per set force
   evictions. *)
let prop_growing_pow2 =
  let ops =
    QCheck.(
      map
        (fun (palette, ops) ->
          List.map (fun (op, (pick, tag)) -> (op, (tag lsl 10) lor palette.(pick))) ops)
        (pair
           (array_of_size (Gen.return 3) (int_bound 1023))
           (list (pair (int_bound 4) (pair (int_bound 2) (int_bound 23))))))
  in
  growing_matches_reference ~name:"growing power-of-two cache matches reference"
    ~make:(fun () -> Cache.create ~size:(1 lsl 20) ~assoc:16 ~unit_shift:6)
    ~sets:1024 ~assoc:16 ops

(* 200 sets x 2 ways: not a power of two, so set selection takes the
   [mod] path, and growth stops at the set count rather than a power of
   two. *)
let prop_growing_mod =
  growing_matches_reference ~name:"growing 200-set cache matches reference"
    ~make:(fun () -> Cache.create_entries ~entries:400 ~assoc:2)
    ~sets:200 ~assoc:2
    QCheck.(list (pair (int_bound 4) (int_bound 1199)))

let suite =
  [
    Alcotest.test_case "hit after insert" `Quick test_hit_after_insert;
    Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
    Alcotest.test_case "insert refreshes" `Quick test_insert_refreshes;
    Alcotest.test_case "mem does not touch LRU" `Quick test_mem_does_not_touch;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "capacity" `Quick test_capacity;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    QCheck_alcotest.to_alcotest prop_growing_pow2;
    QCheck_alcotest.to_alcotest prop_growing_mod;
  ]
