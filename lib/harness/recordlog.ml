(* One append-only record log, shared by the campaign checkpoint journal
   ({!Journal}) and the serve cache journal ([Spf_serve.Cjournal]).  The
   format and the durability rules are in recordlog.mli; each owner
   supplies a {!spec} and keeps its own table of what the records mean. *)

(* ------------------------------------------------------------------ *)
(* Hex codec and file helpers.                                         *)

let hex_digits = "0123456789abcdef"

(* Value of every byte as a hex digit, -1 when it is not one. *)
let nibble =
  Array.init 256 (fun c ->
      match Char.chr c with
      | '0' .. '9' -> c - Char.code '0'
      | 'a' .. 'f' -> c - Char.code 'a' + 10
      | 'A' .. 'F' -> c - Char.code 'A' + 10
      | _ -> -1)

let to_hex s =
  let b = Bytes.create (2 * String.length s) in
  String.iteri
    (fun i c ->
      let c = Char.code c in
      Bytes.set b (2 * i) hex_digits.[c lsr 4];
      Bytes.set b ((2 * i) + 1) hex_digits.[c land 15])
    s;
  Bytes.unsafe_to_string b

exception Not_hex

let of_hex s =
  let n = String.length s / 2 in
  if String.length s mod 2 <> 0 then None
  else
    let b = Bytes.create n in
    match
      for i = 0 to n - 1 do
        let hi = nibble.(Char.code s.[2 * i])
        and lo = nibble.(Char.code s.[(2 * i) + 1]) in
        if hi < 0 || lo < 0 then raise_notrace Not_hex;
        Bytes.set b i (Char.chr ((hi lsl 4) lor lo))
      done
    with
    | () -> Some (Bytes.unsafe_to_string b)
    | exception Not_hex -> None

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    (* A concurrent creator is fine — only a still-missing dir is an error. *)
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* The log.                                                            *)

type spec = {
  name : string;
  remedy : string;
  header : string;
  id_field : string;
  tags : string list;
  mismatch : path:string -> found:string -> want:string -> string;
}

type t = {
  spec : spec;
  path : string;
  identity : string;
  mutable oc : out_channel option;  (* opened by the first append *)
  mutable appends : int;
  mutable compactions : int;
  torn : bool;
}

let path t = t.path
let appends t = t.appends
let compactions t = t.compactions
let torn t = t.torn

let damaged spec path msg =
  failwith
    (Printf.sprintf "%s %s is not usable: %s (%s)" spec.name path msg
       spec.remedy)

let checksum ~tag ~key ~hex =
  Digest.to_hex (Digest.string (String.concat " " [ tag; key; hex ]))

let line ~tag ~key payload =
  let hex = to_hex payload in
  String.concat " " [ tag; checksum ~tag ~key ~hex; key; hex ] ^ "\n"

let preamble spec identity =
  spec.header ^ "\n" ^ spec.id_field ^ " " ^ identity ^ "\n"

(* Write a whole image to [path.tmp] and atomically swap it in. *)
let snapshot path image =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc image;
  close_out oc;
  Sys.rename tmp path

(* Check and replay an existing image; returns whether a torn final line
   was dropped (and the file healed). *)
let load spec ~path ~identity ~replay =
  let contents = read_file path in
  let damaged = damaged spec path in
  (* The last element is "" when the file ends in a newline, otherwise
     the torn final line. *)
  let lines = String.split_on_char '\n' contents in
  let tail, whole =
    match List.rev lines with
    | tail :: rev_whole -> (tail, List.rev rev_whole)
    | [] -> assert false (* split_on_char never returns [] *)
  in
  let header = List.hd lines in
  if header <> spec.header then
    damaged
      (Printf.sprintf "unrecognised header %S (expected %S)" header
         spec.header);
  let prefix = spec.id_field ^ " " in
  let records =
    match whole with
    | _ :: id_line :: records when String.starts_with ~prefix id_line ->
        let found =
          String.sub id_line (String.length prefix)
            (String.length id_line - String.length prefix)
        in
        if found <> identity then
          failwith (spec.mismatch ~path ~found ~want:identity);
        records
    | _ -> damaged (Printf.sprintf "missing %s line" spec.id_field)
  in
  List.iteri
    (fun i line ->
      if line = "" then damaged (Printf.sprintf "blank line at record %d" i);
      match String.split_on_char ' ' line with
      | [ tag; sum; key; hex ] when List.mem tag spec.tags -> (
          if checksum ~tag ~key ~hex <> sum then
            damaged
              (Printf.sprintf "checksum mismatch on record for key %s" key);
          match of_hex hex with
          | None ->
              damaged (Printf.sprintf "undecodable payload for key %s" key)
          | Some payload -> (
              match replay ~tag ~key payload with
              | Ok () -> ()
              | Error msg -> damaged msg))
      | _ -> damaged (Printf.sprintf "malformed record line %d: %S" i line))
    records;
  let torn = tail <> "" in
  if torn then
    snapshot path
      (String.sub contents 0 (String.length contents - String.length tail));
  torn

let open_ spec ~path ~identity ~replay =
  let torn =
    if Sys.file_exists path then load spec ~path ~identity ~replay
    else begin
      snapshot path (preamble spec identity);
      false
    end
  in
  {
    spec;
    path;
    identity;
    oc = None;
    appends = 0;
    compactions = (if torn then 1 else 0);
    torn;
  }

let append t ~tag ~key payload =
  if key = "" || String.exists (fun c -> c = ' ' || c = '\n' || c = '\r') key
  then
    invalid_arg
      (Printf.sprintf "%s: bad record key %s" t.spec.name (String.escaped key));
  let oc =
    match t.oc with
    | Some oc -> oc
    | None ->
        let oc =
          open_out_gen [ Open_wronly; Open_append; Open_creat; Open_binary ]
            0o644 t.path
        in
        t.oc <- Some oc;
        oc
  in
  (* One write of the whole line, then flush: a kill can only tear it. *)
  output_string oc (line ~tag ~key payload);
  flush oc;
  t.appends <- t.appends + 1

let close t =
  Option.iter close_out_noerr t.oc;
  t.oc <- None

let compact t records =
  close t;
  snapshot t.path
    (String.concat ""
       (preamble t.spec t.identity
       :: List.map (fun (tag, key, payload) -> line ~tag ~key payload) records));
  t.appends <- 0;
  t.compactions <- t.compactions + 1
