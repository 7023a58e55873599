(* Protocol-surface fuzz: no byte sequence a client can send — truncated
   frames, oversized tokens, non-UTF-8 bytes, embedded NULs — may make
   the parsing layer raise.  Everything hostile must come back as a
   classified [Error]; a raise on the handler thread would leak the
   connection.  The live-socket counterpart is the garbage-frame phase
   of `spf chaos`. *)

module Proto = Spf_serve.Proto

let arb_bytes = QCheck.string_gen QCheck.Gen.char

let never_raises name f =
  QCheck.Test.make ~name ~count:500 arb_bytes (fun s ->
      match f s with _ -> true)

let prop_parse_verb = never_raises "parse_verb total on bytes" Proto.parse_verb

let prop_parse_verb_submit =
  never_raises "parse_verb total on SUBMIT junk" (fun s ->
      Proto.parse_verb ("SUBMIT " ^ s))

let prop_request_of =
  QCheck.Test.make ~name:"request_of total on junk opts" ~count:300
    QCheck.(pair (small_list (pair arb_bytes arb_bytes)) arb_bytes)
    (fun (opts, case_text) ->
      match Proto.request_of ~id:"f" ~opts ~case_text with
      | Ok _ | Error _ -> true)

(* A line source over a finite list: the reply parser must terminate and
   classify, whatever the lines contain. *)
let source lines =
  let r = ref lines in
  fun () ->
    match !r with
    | [] -> None
    | x :: tl ->
        r := tl;
        Some x

let prop_read_reply =
  QCheck.Test.make ~name:"read_reply total on byte lines" ~count:500
    QCheck.(small_list arb_bytes)
    (fun lines ->
      match Proto.read_reply (source lines) with Ok _ | Error _ -> true)

(* ------------------------------------------------------------------ *)
(* Pinned hostile shapes: the classifications the server and the chaos
   harness rely on. *)

let read lines = Proto.read_reply (source lines)

let test_truncated_frame_is_torn () =
  (* OK header and body, no DONE: the torn-reply classification the
     chaos drain gate keys on. *)
  match read [ "OK x cache=cold"; "R line" ] with
  | Error "connection closed mid-reply" -> ()
  | Error e -> Alcotest.fail ("wrong classification: " ^ e)
  | Ok _ -> Alcotest.fail "truncated frame parsed as a reply"

let test_eof_is_closed () =
  match read [] with
  | Error "connection closed" -> ()
  | Error e -> Alcotest.fail ("wrong classification: " ^ e)
  | Ok _ -> Alcotest.fail "EOF parsed as a reply"

let test_garbage_first_line_is_malformed () =
  List.iter
    (fun line ->
      match read [ line ] with
      | Error e ->
          Alcotest.(check bool)
            ("malformed prefix for " ^ String.escaped line)
            true
            (String.length e >= 9 && String.sub e 0 9 = "malformed")
      | Ok _ -> Alcotest.fail ("garbage accepted: " ^ String.escaped line))
    [ "XYZZY plugh"; "OK"; "OK too many tokens here now"; "\x00\x01\x02"; "DONE x us=1" ]

let test_submit_rejects_option_id () =
  match Proto.parse_verb "SUBMIT k=v" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "option-shaped id accepted"

let test_busy_line_round_trips () =
  (* The shed reply must parse back as a busy ERR carrying its backoff
     hint — clients distinguish "come back later" from real failures. *)
  let line = Proto.busy_line ~id:"-" ~retry_after_ms:250 ~msg:"queue full" in
  match read [ line ] with
  | Ok r -> (
      (match r.Proto.r_err with
      | Some ("busy", _) -> ()
      | _ -> Alcotest.fail "not classified busy");
      match Proto.retry_after_ms r with
      | Some 250 -> ()
      | _ -> Alcotest.fail "retry-after hint lost")
  | Error e -> Alcotest.fail ("busy line unparsable: " ^ e)

let test_retry_after_absent_elsewhere () =
  match read [ "ERR x protocol retry-after is just prose here" ] with
  | Ok r ->
      Alcotest.(check (option int)) "only busy replies carry the hint" None
        (Proto.retry_after_ms r)
  | Error e -> Alcotest.fail e

let test_removed_engine_is_classified () =
  (* A client written against an older build may still send
     engine=compiled (the closure engine, since removed): it must get a
     classified error — an ERR reply — not a raise that drops the
     connection. *)
  match
    Proto.request_of ~id:"old" ~opts:[ ("engine", "compiled") ] ~case_text:""
  with
  | Error e ->
      Alcotest.(check string) "classified" "unknown engine \"compiled\"" e
  | Ok _ -> Alcotest.fail "removed engine accepted"
  | exception e -> Alcotest.fail ("raised: " ^ Printexc.to_string e)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_parse_verb; prop_parse_verb_submit; prop_request_of; prop_read_reply ]
  @ [
      Alcotest.test_case "truncated frame classified torn" `Quick
        test_truncated_frame_is_torn;
      Alcotest.test_case "EOF classified closed" `Quick test_eof_is_closed;
      Alcotest.test_case "garbage first line classified malformed" `Quick
        test_garbage_first_line_is_malformed;
      Alcotest.test_case "SUBMIT id cannot be an option" `Quick
        test_submit_rejects_option_id;
      Alcotest.test_case "busy line round-trips with backoff" `Quick
        test_busy_line_round_trips;
      Alcotest.test_case "retry-after only on busy" `Quick
        test_retry_after_absent_elsewhere;
      Alcotest.test_case "engine=compiled is a classified error" `Quick
        test_removed_engine_is_classified;
    ]
