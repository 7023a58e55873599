(* Self-contained crash bundles.

   A bundle is a directory capturing everything needed to reproduce one
   failing campaign job offline: human-readable metadata (what ran, with
   which seed/config/engine, and how it failed), the printed IR of the
   program involved, the stats accumulated up to the failure, and an
   opaque binary payload (a Marshal image of the campaign-specific
   reproduction recipe, e.g. a fuzz spec) guarded by a checksum.

   Layout:
     <dir>/meta          "spf-bundle 1" + one "key value" line per entry
     <dir>/program.ir    printed IR (optional, informational + greppable)
     <dir>/stats.txt     stats-so-far (optional)
     <dir>/payload.bin   binary reproduction payload (optional)

   [meta] carries payload.bin's MD5 ("payload-md5"), so a tampered or
   torn payload is rejected before anything tries to unmarshal it.
   Values are newline-escaped; keys are single tokens. *)

let format_header = "spf-bundle 1"

type t = {
  dir : string;
  meta : (string * string) list;
  ir : string option;
  stats : string option;
  payload : string option;
}

let dir t = t.dir
let meta t = t.meta
let ir t = t.ir
let stats t = t.stats
let payload t = t.payload
let meta_value t key = List.assoc_opt key t.meta

let escape_value v =
  String.concat "\\n" (String.split_on_char '\n' v)

let unescape_value v =
  (* Split on the literal two-character sequence "\n". *)
  let b = Buffer.create (String.length v) in
  let n = String.length v in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && v.[!i] = '\\' && v.[!i + 1] = 'n' then begin
      Buffer.add_char b '\n';
      i := !i + 2
    end
    else begin
      Buffer.add_char b v.[!i];
      incr i
    end
  done;
  Buffer.contents b

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* Bundle directory name for a job key: keys are path-like
   ("fig4/7", "case/12"); flatten to a single component. *)
let name_of_key key =
  String.map (fun c -> if c = '/' || c = ' ' then '-' else c) key

let write ~root ~name ~meta ?ir ?stats ?payload () =
  let dir = Filename.concat root (name_of_key name) in
  Recordlog.mkdir_p dir;
  let meta =
    match payload with
    | Some p -> meta @ [ ("payload-md5", Digest.to_hex (Digest.string p)) ]
    | None -> meta
  in
  List.iter
    (fun (k, _) ->
      if k = "" || String.exists (fun c -> c = ' ' || c = '\n') k then
        invalid_arg ("Bundle.write: bad meta key " ^ String.escaped k))
    meta;
  let b = Buffer.create 256 in
  Buffer.add_string b (format_header ^ "\n");
  List.iter
    (fun (k, v) -> Buffer.add_string b (k ^ " " ^ escape_value v ^ "\n"))
    meta;
  write_file (Filename.concat dir "meta") (Buffer.contents b);
  Option.iter (fun s -> write_file (Filename.concat dir "program.ir") s) ir;
  Option.iter (fun s -> write_file (Filename.concat dir "stats.txt") s) stats;
  Option.iter (fun s -> write_file (Filename.concat dir "payload.bin") s) payload;
  dir

let bad dir msg =
  failwith (Printf.sprintf "%s is not a usable crash bundle: %s" dir msg)

let read dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    bad dir "no such directory";
  let meta_path = Filename.concat dir "meta" in
  if not (Sys.file_exists meta_path) then bad dir "missing meta file";
  let lines = String.split_on_char '\n' (Recordlog.read_file meta_path) in
  (match lines with
  | header :: _ when header = format_header -> ()
  | header :: _ -> bad dir (Printf.sprintf "unrecognised header %S" header)
  | [] -> bad dir "empty meta");
  let meta =
    List.filteri (fun i _ -> i >= 1) lines
    |> List.filter (fun l -> l <> "")
    |> List.map (fun line ->
           match String.index_opt line ' ' with
           | Some i ->
               ( String.sub line 0 i,
                 unescape_value
                   (String.sub line (i + 1) (String.length line - i - 1)) )
           | None -> bad dir (Printf.sprintf "malformed meta line %S" line))
  in
  let opt_file name =
    let p = Filename.concat dir name in
    if Sys.file_exists p then Some (Recordlog.read_file p) else None
  in
  let payload = opt_file "payload.bin" in
  (match (payload, List.assoc_opt "payload-md5" meta) with
  | Some p, Some sum ->
      if Digest.to_hex (Digest.string p) <> sum then
        bad dir "payload.bin checksum mismatch"
  | Some _, None -> bad dir "payload.bin present but no payload-md5 in meta"
  | None, Some _ -> bad dir "payload-md5 in meta but payload.bin missing"
  | None, None -> ());
  {
    dir;
    meta;
    ir = opt_file "program.ir";
    stats = opt_file "stats.txt";
    payload;
  }
