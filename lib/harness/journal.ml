(* Append-only campaign checkpoint journal: the completed cells of one
   campaign (a figure run, a fuzz run, ...) as (key, payload) pairs, the
   payload being the cell's full result (typically a Marshal image), so a
   resumed campaign reproduces byte-identical output without re-running
   the work.

   The file is a {!Recordlog}, which owns the line format, the MD5s, the
   torn-tail rule and compaction.  This module adds the campaign identity
   line (resuming a different seed, count, engine, figure set... is
   rejected, never mixed), the key -> payload table, and the refusal of a
   key recorded twice (never written, so a duplicate is damage). *)

let spec =
  {
    Recordlog.name = "checkpoint journal";
    remedy = "delete it to start the campaign over";
    header = "spf-checkpoint 2";
    id_field = "campaign";
    tags = [ "cell" ];
    mismatch =
      (fun ~path ~found ~want ->
        Printf.sprintf
          "checkpoint journal %s belongs to a different campaign:\n\
          \  journal: %s\n  requested: %s"
          path found want);
  }

type t = {
  dir : string;
  log : Recordlog.t;
  tbl : (string, string) Hashtbl.t; (* key -> payload (decoded) *)
  lock : Mutex.t; (* serialises pool workers *)
}

let start ~dir ~campaign =
  if String.contains campaign '\n' then
    invalid_arg "Journal.start: campaign string must be a single line";
  if not (Sys.file_exists dir) then Recordlog.mkdir_p dir
  else if not (Sys.is_directory dir) then
    failwith (Printf.sprintf "campaign directory %s is not a directory" dir);
  let tbl = Hashtbl.create 64 in
  let replay ~tag:_ ~key payload =
    if Hashtbl.mem tbl key then Error ("duplicate key " ^ key)
    else Ok (Hashtbl.add tbl key payload)
  in
  let log =
    Recordlog.open_ spec
      ~path:(Filename.concat dir "journal")
      ~identity:campaign ~replay
  in
  { dir; log; tbl; lock = Mutex.create () }

let dir t = t.dir
let file t = Recordlog.path t.log
let completed t = Hashtbl.length t.tbl

let find t key =
  Mutex.lock t.lock;
  let r = Hashtbl.find_opt t.tbl key in
  Mutex.unlock t.lock;
  r

let record t ~key ~payload =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      if not (Hashtbl.mem t.tbl key) then begin
        Recordlog.append t.log ~tag:"cell" ~key payload;
        Hashtbl.add t.tbl key payload
      end)
