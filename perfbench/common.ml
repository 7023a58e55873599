(* Shared plumbing of the benchmark workloads: clocks, statistics, host
   memory, the span recorder of the traced run, and the result record each
   workload hands back to [Bench] for printing. *)

(* Seconds on the system-wide monotonic clock, at nanosecond resolution;
   comparable across processes (the campaign set-up probe relies on it). *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array, [p] in [0, 100]. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float n)) - 1)))

let median xs = percentile (sorted xs) 50.

let geomean = function
  | [] -> nan
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. xs
        /. float (List.length xs))

(* Peak resident set (VmHWM) of this process or of [pid], in MB. *)
let peak_rss_mb ?pid () =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in path in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Words allocated by this domain so far (minor + direct major). *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir path =
  rm_rf path;
  Unix.mkdir path 0o755;
  path

(* Sums of simulator counters by [Stats.fields] name. *)
module Counts = struct
  type t = (string, int) Hashtbl.t

  let create () : t = Hashtbl.create 32

  let add (t : t) name v =
    Hashtbl.replace t name (v + Option.value ~default:0 (Hashtbl.find_opt t name))

  let add_stats t (s : Spf_sim.Stats.t) =
    List.iter (fun (name, v) -> add t ("sim." ^ name) v) (Spf_sim.Stats.fields s)

  let get (t : t) name = Option.value ~default:0 (Hashtbl.find_opt t name)

  let to_list (t : t) =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [])
end

(* The traced run's span recorder.  A span is one call into a layer's
   public function: its name, the case / cell / request id it serves, its
   start and end, the span open around it, and the words allocated while it
   ran.  Spans stay in memory and are written out once the run ends.  With
   tracing off, [span] is a plain call. *)
module Trace = struct
  type span = {
    idx : int;
    parent : int;  (** [idx] of the enclosing span, -1 at top level *)
    name : string;
    id : int;
    t0 : float;
    t1 : float;
    words : float;
  }

  let on = ref false
  let next = ref 0
  let stack = ref []
  let spans = ref []

  (* [span_as] names the span after its result, e.g. by cache outcome. *)
  let span_as ?(id = -1) name_of f =
    if not !on then f ()
    else begin
      let idx = !next in
      incr next;
      let parent = match !stack with p :: _ -> p | [] -> -1 in
      stack := idx :: !stack;
      let w0 = alloc_words () in
      let t0 = now () in
      let close name =
        let t1 = now () in
        let words = alloc_words () -. w0 in
        stack := List.tl !stack;
        spans := { idx; parent; name; id; t0; t1; words } :: !spans
      in
      match f () with
      | v ->
          close (name_of (Some v));
          v
      | exception e ->
          close (name_of None);
          raise e
    end

  let span ?id name f = span_as ?id (fun _ -> name) f

  let named name = List.filter (fun s -> s.name = name) !spans
  let dur s = s.t1 -. s.t0
  let total name = List.fold_left (fun acc s -> acc +. dur s) 0. (named name)
  let total_words name = List.fold_left (fun acc s -> acc +. s.words) 0. (named name)

  let median_us name =
    match named name with
    | [] -> 0.
    | ss -> 1e6 *. median (List.map dur ss)

  let mean_words name =
    match List.length (named name) with
    | 0 -> 0.
    | n -> total_words name /. float n

  (* One line per span, in start order; self time is the span minus the
     time its direct children cover. *)
  let write path =
    let all = List.rev !spans in
    let child = Hashtbl.create 1024 in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          Hashtbl.replace child s.parent
            (dur s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
      all;
    let origin = match all with [] -> 0. | s :: _ -> s.t0 in
    let oc = open_out path in
    output_string oc "idx\tparent\tname\tid\tstart_us\tdur_us\tself_us\twords\n";
    List.iter
      (fun s ->
        let kids = Option.value ~default:0. (Hashtbl.find_opt child s.idx) in
        Printf.fprintf oc "%d\t%d\t%s\t%d\t%.1f\t%.1f\t%.1f\t%.0f\n" s.idx
          s.parent s.name s.id
          (1e6 *. (s.t0 -. origin))
          (1e6 *. dur s)
          (1e6 *. (dur s -. kids))
          s.words)
      (List.sort (fun a b -> compare a.idx b.idx) all);
    close_out oc
end

(* What one workload run reports.  [counters] are exact simulated or
   campaign counts: a traced and an untraced run of the same inputs must
   report identical ones.  [wall_s] is the fixed work's wall time, the
   base of the tracing overhead. *)
type report = {
  attempted : int;
  failed : int;
  e2e : (string * float * string) list;
  layers : (string * float * string) list;
  counters : (string * int) list;
  wall_s : float;
}

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun (name, v, unit) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v)
           unit)
       ms)

(* The line [run.py] reads back. *)
let print_result r =
  Printf.printf
    "RESULT {\"attempted\": %d, \"failed\": %d, \"wall_s\": %s, \"e2e\": {%s}, \
     \"layers\": {%s}, \"counters\": {%s}}\n%!"
    r.attempted r.failed (json_float r.wall_s) (json_metrics r.e2e)
    (json_metrics r.layers)
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%S: %d" k v) r.counters))
