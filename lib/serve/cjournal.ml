(* The result-cache journal behind `spf serve --cache-journal DIR`: an
   append-only record of every cache insertion, replayed on startup so a
   restarted daemon answers previously-seen work warm instead of
   re-simulating it.

   The file is a {!Spf_harness.Recordlog} (line format, per-record MD5,
   append + flush, torn-tail rule, compaction — see that module and
   docs/ROBUSTNESS.md).  This module adds what only the cache knows: the
   header names the format version and an *identity* digest over
   everything that could silently change a cached reply body — the
   canonical renders of every machine model, the engine list, the
   default pass config and the body-format version — so a journal
   written by a build with different semantics is refused loudly, never
   half-loaded; records are tagged [P] (pass entry) or [S] (sim body).

   NOT thread-safe: the owning {!Rcache} serializes all calls under its
   own lock. *)

module Recordlog = Spf_harness.Recordlog

(* Bump when the rendered reply-body format changes in a way the cache
   keys cannot see (they digest inputs, not the rendering). *)
let body_format_version = 1

type record =
  | Pass of string * string  (* key, encoded pass entry *)
  | Sim of string * string  (* key, rendered reply body *)

type t = {
  dir : string;
  log : Recordlog.t;
  replayed_pass : int;
  replayed_sim : int;
  replayed : record list;  (* oldest first *)
}

let dir t = t.dir
let path t = Recordlog.path t.log
let appends t = Recordlog.appends t.log
let compactions t = Recordlog.compactions t.log
let replayed_pass t = t.replayed_pass
let replayed_sim t = t.replayed_sim
let truncated t = Recordlog.torn t.log
let replayed t = t.replayed

let identity () =
  let b = Buffer.create 512 in
  Buffer.add_string b (Printf.sprintf "body-format %d\n" body_format_version);
  List.iter
    (fun m ->
      Buffer.add_string b (Spf_sim.Machine.canonical m);
      Buffer.add_char b '\n')
    Spf_sim.Machine.all;
  List.iter
    (fun e ->
      Buffer.add_string b (Spf_sim.Engine.to_string e);
      Buffer.add_char b '\n')
    Spf_sim.Engine.all;
  Buffer.add_string b (Spf_core.Config.canonical Spf_core.Config.default);
  Digest.to_hex (Digest.string (Buffer.contents b))

let spec =
  {
    Recordlog.name = "cache journal";
    remedy = "delete it to start the cache cold";
    header = "spf-cache-journal 1";
    id_field = "identity";
    tags = [ "P"; "S" ];
    mismatch =
      (fun ~path ~found ~want ->
        Printf.sprintf
          "cache journal %s was written under a different \
           machine/engine/config identity:\n\
          \  journal:   %s\n\
          \  this build: %s\n\
           (delete it to start the cache cold)"
          path found want);
  }

let open_ ~dir =
  if not (Sys.file_exists dir) then Recordlog.mkdir_p dir
  else if not (Sys.is_directory dir) then
    failwith (Printf.sprintf "cache-journal path %s is not a directory" dir);
  let out = ref [] in
  let replay ~tag ~key payload =
    let r = if tag = "P" then Pass (key, payload) else Sim (key, payload) in
    Ok (out := r :: !out)
  in
  let log =
    Recordlog.open_ spec
      ~path:(Filename.concat dir "cache-journal")
      ~identity:(identity ()) ~replay
  in
  let replayed = List.rev !out in
  let rp, rs =
    List.fold_left
      (fun (p, s) -> function Pass _ -> (p + 1, s) | Sim _ -> (p, s + 1))
      (0, 0) replayed
  in
  { dir; log; replayed_pass = rp; replayed_sim = rs; replayed }

let fields = function Pass (k, p) -> ("P", k, p) | Sim (k, p) -> ("S", k, p)

let append t r =
  let tag, key, payload = fields r in
  Recordlog.append t.log ~tag ~key payload

let compact t records =
  Recordlog.compact t.log (List.map fields records)

let close t = Recordlog.close t.log
