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

(* Decode the [len] hex digits of [s] starting at [pos]. *)
let of_hex_sub s ~pos ~len =
  let n = len / 2 in
  if len mod 2 <> 0 then None
  else
    let b = Bytes.create n in
    match
      for i = 0 to n - 1 do
        let hi = nibble.(Char.code s.[pos + (2 * i)])
        and lo = nibble.(Char.code s.[pos + (2 * i) + 1]) in
        if hi < 0 || lo < 0 then raise_notrace Not_hex;
        Bytes.set b i (Char.chr ((hi lsl 4) lor lo))
      done
    with
    | () -> Some (Bytes.unsafe_to_string b)
    | exception Not_hex -> None

let of_hex s = of_hex_sub s ~pos:0 ~len:(String.length s)

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
   was dropped (and the file healed).  Records are checked in place —
   located by offset, digested from one buffer and decoded once — since
   a reopen walks every record of the log. *)
let load spec ~path ~identity ~replay =
  let contents = read_file path in
  let len = String.length contents in
  let damaged = damaged spec path in
  (* End of the line starting at [pos]: its newline, or [len] when it is
     the unterminated final line. *)
  let eol pos =
    match String.index_from_opt contents pos '\n' with Some i -> i | None -> len
  in
  (* Everything past the last newline is the torn final line. *)
  let whole_end =
    match String.rindex_opt contents '\n' with Some i -> i + 1 | None -> 0
  in
  let header_end = eol 0 in
  let header = String.sub contents 0 header_end in
  if header <> spec.header then
    damaged
      (Printf.sprintf "unrecognised header %S (expected %S)" header
         spec.header);
  let prefix = spec.id_field ^ " " in
  let id_end = if header_end < len then eol (header_end + 1) else len in
  let id_line =
    if id_end < len then String.sub contents (header_end + 1) (id_end - header_end - 1)
    else ""
  in
  if id_end >= len || not (String.starts_with ~prefix id_line) then
    damaged (Printf.sprintf "missing %s line" spec.id_field);
  let found =
    String.sub id_line (String.length prefix)
      (String.length id_line - String.length prefix)
  in
  if found <> identity then failwith (spec.mismatch ~path ~found ~want:identity);
  (* One record line [pos, stop): "<tag> <sum> <key> <hex>". *)
  let record i pos stop =
    if stop = pos then damaged (Printf.sprintf "blank line at record %d" i);
    let malformed () =
      damaged
        (Printf.sprintf "malformed record line %d: %S" i
           (String.sub contents pos (stop - pos)))
    in
    let rec space j =
      if j >= stop then -1 else if contents.[j] = ' ' then j else space (j + 1)
    in
    let next j = if j < 0 then -1 else space (j + 1) in
    let s1 = space pos in
    let s2 = next s1 in
    let s3 = next s2 in
    if s3 < 0 || next s3 >= 0 then malformed ();
    let tag = String.sub contents pos (s1 - pos) in
    if not (List.mem tag spec.tags) then malformed ();
    let key = String.sub contents (s2 + 1) (s3 - s2 - 1) in
    (* The checksum covers the line without its " <sum>" field. *)
    let body = Bytes.create (s1 - pos + (stop - s2)) in
    Bytes.blit_string contents pos body 0 (s1 - pos);
    Bytes.blit_string contents s2 body (s1 - pos) (stop - s2);
    let d = Digest.bytes body in
    (* Compare with the stored sum digit by digit, as {!to_hex} writes it. *)
    let rec sum_ok k =
      k = String.length d
      ||
      let c = Char.code d.[k] and at = s1 + 1 + (2 * k) in
      contents.[at] = hex_digits.[c lsr 4]
      && contents.[at + 1] = hex_digits.[c land 15]
      && sum_ok (k + 1)
    in
    if s2 - s1 - 1 <> 2 * String.length d || not (sum_ok 0) then
      damaged (Printf.sprintf "checksum mismatch on record for key %s" key);
    match of_hex_sub contents ~pos:(s3 + 1) ~len:(stop - s3 - 1) with
    | None -> damaged (Printf.sprintf "undecodable payload for key %s" key)
    | Some payload -> (
        match replay ~tag ~key payload with
        | Ok () -> ()
        | Error msg -> damaged msg)
  in
  let rec records i pos =
    if pos < whole_end then begin
      let stop = eol pos in
      record i pos stop;
      records (i + 1) (stop + 1)
    end
  in
  records 0 (id_end + 1);
  let torn = whole_end < len in
  if torn then snapshot path (String.sub contents 0 whole_end);
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
