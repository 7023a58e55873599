module Sup = Spf_harness.Supervisor
module Journal = Spf_harness.Journal
module Bundle = Spf_harness.Bundle
module Figures = Spf_harness.Figures
module Driver = Spf_fuzz.Driver
module Replay = Spf_fuzz.Replay
module Gen = Spf_fuzz.Gen
module Rng = Spf_workloads.Rng

(* Durable campaign state: checkpoint journals (append-only, versioned,
   strictly validated) and self-contained crash bundles.  See
   docs/ROBUSTNESS.md for the on-disk formats. *)

let counter = ref 0

let fresh_dir () =
  incr counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "spf-ckpt-test-%d-%d" (Unix.getpid ()) !counter)
  in
  let rec rm path =
    if Sys.is_directory path then (
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path)
    else Sys.remove path
  in
  if Sys.file_exists d then rm d;
  d

let test_journal_roundtrip () =
  let dir = fresh_dir () in
  let j = Journal.start ~dir ~campaign:"test seed=1 count=3" in
  Alcotest.(check int) "fresh journal is empty" 0 (Journal.completed j);
  Journal.record j ~key:"cell/0" ~payload:"alpha";
  Journal.record j ~key:"cell/1" ~payload:"\x00binary\xffbytes\n";
  (* Reopen — as a resumed process would — and read everything back. *)
  let j2 = Journal.start ~dir ~campaign:"test seed=1 count=3" in
  Alcotest.(check int) "both cells survive reopen" 2 (Journal.completed j2);
  Alcotest.(check (option string))
    "text payload" (Some "alpha")
    (Journal.find j2 "cell/0");
  Alcotest.(check (option string))
    "binary payload round-trips exactly"
    (Some "\x00binary\xffbytes\n")
    (Journal.find j2 "cell/1");
  Alcotest.(check (option string))
    "unknown key" None (Journal.find j2 "cell/9")

let test_journal_campaign_mismatch () =
  let dir = fresh_dir () in
  let j = Journal.start ~dir ~campaign:"campaign A" in
  Journal.record j ~key:"cell/0" ~payload:"x";
  Alcotest.check_raises "different campaign is rejected, not merged"
    (Failure
       (Printf.sprintf
          "checkpoint journal %s belongs to a different campaign:\n\
          \  journal: campaign A\n  requested: campaign B"
          (Journal.file j)))
    (fun () -> ignore (Journal.start ~dir ~campaign:"campaign B"))

let expect_rejected what dir =
  match Journal.start ~dir ~campaign:"c" with
  | _ -> Alcotest.failf "%s journal was accepted" what
  | exception Failure _ -> ()

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_back path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_journal_corruption_rejected () =
  (* Garbage file. *)
  let dir = fresh_dir () in
  let j = Journal.start ~dir ~campaign:"c" in
  write_file (Journal.file j) "not a journal at all\n";
  expect_rejected "garbage" dir;
  (* Bit-flipped payload byte: the per-record checksum must catch it. *)
  let dir = fresh_dir () in
  let j = Journal.start ~dir ~campaign:"c" in
  Journal.record j ~key:"cell/0" ~payload:"payload";
  (let lines = String.split_on_char '\n' (read_back (Journal.file j)) in
   let flip line =
     (* The record line ends with the hex payload; nudge its last digit. *)
     let n = String.length line in
     let last = if line.[n - 1] = '0' then '1' else '0' in
     String.sub line 0 (n - 1) ^ String.make 1 last
   in
   let lines =
     List.mapi (fun i l -> if i = 2 then flip l else l) lines
   in
   write_file (Journal.file j) (String.concat "\n" lines));
  expect_rejected "bit-flipped" dir;
  (* A torn final record — what a kill in the middle of an append leaves:
     the last line cut short of its newline.  The journal opens without
     the torn cell, every earlier record survives byte-exact, and the
     file is healed whole, so the next open has nothing to recover (a
     heal renames a fresh snapshot in, which would change the inode). *)
  let dir = fresh_dir () in
  let j = Journal.start ~dir ~campaign:"c" in
  Journal.record j ~key:"cell/0" ~payload:"an earlier payload";
  let before_tail = read_back (Journal.file j) in
  Journal.record j ~key:"cell/1" ~payload:"a long enough payload";
  let contents = read_back (Journal.file j) in
  write_file (Journal.file j)
    (String.sub contents 0 (String.length contents - 7));
  let j = Journal.start ~dir ~campaign:"c" in
  Alcotest.(check int) "torn cell dropped" 1 (Journal.completed j);
  Alcotest.(check (option string)) "torn cell absent" None
    (Journal.find j "cell/1");
  Alcotest.(check (option string))
    "earlier cell survives" (Some "an earlier payload")
    (Journal.find j "cell/0");
  Alcotest.(check string)
    "earlier records kept byte-exact, file whole" before_tail
    (read_back (Journal.file j));
  let inode () = (Unix.stat (Journal.file j)).Unix.st_ino in
  let healed = inode () in
  let j = Journal.start ~dir ~campaign:"c" in
  Alcotest.(check int) "second open: no recovery" healed (inode ());
  Alcotest.(check string)
    "second open leaves the file alone" before_tail
    (read_back (Journal.file j));
  Journal.record j ~key:"cell/1" ~payload:"again";
  Alcotest.(check (option string))
    "appends after the heal reload" (Some "again")
    (Journal.find (Journal.start ~dir ~campaign:"c") "cell/1");
  (* Every other damage stays fatal, even next to a torn tail. *)
  let journal_with payloads =
    let dir = fresh_dir () in
    let j = Journal.start ~dir ~campaign:"c" in
    List.iteri
      (fun i p -> Journal.record j ~key:(Printf.sprintf "cell/%d" i) ~payload:p)
      payloads;
    (dir, Journal.file j, read_back (Journal.file j))
  in
  let newline_after_record contents n =
    (* Offset of the newline ending record [n] (after header + campaign). *)
    let rec nth_nl from k =
      let i = String.index_from contents from '\n' in
      if k = 0 then i else nth_nl (i + 1) (k - 1)
    in
    nth_nl 0 (n + 2)
  in
  (* A non-final record missing its newline: two records joined. *)
  let dir, file, contents = journal_with [ "zero"; "one"; "two" ] in
  let nl = newline_after_record contents 0 in
  write_file file
    (String.sub contents 0 nl
    ^ String.sub contents (nl + 1) (String.length contents - nl - 1));
  expect_rejected "joined-records" dir;
  (* A bit-flipped earlier record followed by a torn tail. *)
  let dir, file, contents = journal_with [ "zero"; "one" ] in
  let nl = newline_after_record contents 0 in
  let b = Bytes.of_string contents in
  Bytes.set b (nl - 1) (if contents.[nl - 1] = '0' then '1' else '0');
  write_file file (Bytes.sub_string b 0 (Bytes.length b - 5));
  expect_rejected "bit-flipped-then-torn" dir;
  (* The same key recorded twice (the journal never writes that). *)
  let dir, file, contents = journal_with [ "zero" ] in
  let record = newline_after_record contents (-1) + 1 in
  write_file file
    (contents ^ String.sub contents record (String.length contents - record));
  expect_rejected "duplicate-key" dir;
  (* A version-1 journal (its checksums do not cover the tag). *)
  let dir, file, contents = journal_with [ "zero" ] in
  let header_end = String.index contents '\n' in
  write_file file
    ("spf-checkpoint 1"
    ^ String.sub contents header_end (String.length contents - header_end));
  expect_rejected "version-1" dir

let test_bundle_roundtrip () =
  let root = fresh_dir () in
  let payload = "\x01\x02reproduction\x00recipe" in
  let d =
    Bundle.write ~root ~name:"case/7"
      ~meta:[ ("kind", "test"); ("note", "multi\nline value") ]
      ~ir:"func @f() { }" ~stats:"cycles=1" ~payload ()
  in
  Alcotest.(check string)
    "slashes flattened in the directory name" "case-7" (Filename.basename d);
  let b = Bundle.read d in
  Alcotest.(check (option string)) "meta" (Some "test") (Bundle.meta_value b "kind");
  Alcotest.(check (option string))
    "multi-line meta value" (Some "multi\nline value")
    (Bundle.meta_value b "note");
  Alcotest.(check (option string)) "ir" (Some "func @f() { }") (Bundle.ir b);
  Alcotest.(check (option string)) "stats" (Some "cycles=1") (Bundle.stats b);
  Alcotest.(check (option string)) "payload" (Some payload) (Bundle.payload b);
  (* Tampering with the payload must fail the checksum on read. *)
  write_file (Filename.concat d "payload.bin") "\x01\x02tampered\x00recipe";
  match Bundle.read d with
  | _ -> Alcotest.fail "tampered payload was accepted"
  | exception Failure _ -> ()

let summary = Alcotest.testable Driver.pp_summary ( = )

let opts ?policy ?(bundles = false) dir campaign =
  let journal = Journal.start ~dir ~campaign in
  let bundle_root =
    if bundles then Some (Filename.concat dir "bundles") else None
  in
  Sup.options ?policy ?bundle_root ~journal ()

let test_supervised_matches_raw () =
  (* Supervision is an execution wrapper: the campaign result must be
     exactly what the unsupervised driver produces. *)
  let raw = Driver.run ~seed:11 ~count:25 () in
  let sup =
    Driver.run ~seed:11 ~count:25
      ~supervise:(opts (fresh_dir ()) "fuzz seed=11 count=25")
      ()
  in
  Alcotest.check summary "supervised == raw" raw sup

let test_crash_then_resume_matches_raw () =
  let dir = fresh_dir () in
  let campaign = "fuzz seed=11 count=25" in
  let raw = Driver.run ~seed:11 ~count:25 () in
  (* First run: case 5 crashes deterministically -> incomplete campaign,
     a bundle, and a journal holding every other case. *)
  (match
     Driver.run ~seed:11 ~count:25 ~inject:(5, Driver.Crash)
       ~supervise:(opts ~bundles:true dir campaign)
       ()
   with
  | _ -> Alcotest.fail "injected crash must make the campaign incomplete"
  | exception Driver.Campaign_incomplete n ->
      Alcotest.(check int) "exactly the injected case failed" 1 n);
  let bundle_dir = Filename.concat (Filename.concat dir "bundles") "case-5" in
  let b = Bundle.read bundle_dir in
  Alcotest.(check (option string))
    "bundle records the crash class" (Some "deterministic")
    (Bundle.meta_value b "class");
  let j = Journal.start ~dir ~campaign in
  Alcotest.(check int)
    "all other cases are checkpointed" 24 (Journal.completed j);
  (* Resume without the fault: only case 5 re-runs, and the summary is
     byte-identical to an uninterrupted run. *)
  let resumed =
    Driver.run ~seed:11 ~count:25 ~supervise:(opts dir campaign) ()
  in
  Alcotest.check summary "resumed == raw" raw resumed;
  (* The replayed bundle no longer crashes (the fault was injected), so
     replay reports Clean rather than a divergence. *)
  match Replay.replay b with
  | Replay.Clean -> ()
  | Replay.Divergence d -> Alcotest.failf "unexpected divergence: %s" d
  | Replay.Undecided r -> Alcotest.failf "unexpected give-up: %s" r

let test_kill_mid_campaign_resume () =
  (* Simulate a kill after N cells by running a prefix campaign into the
     journal, then resuming the full campaign: recorded cells are
     substituted (resumed = true) and never re-executed. *)
  let dir = fresh_dir () in
  let campaign = "ints" in
  let encode (v : int) = Marshal.to_string v []
  and decode s = try Some (Marshal.from_string s 0 : int) with _ -> None in
  let executions = Array.make 6 0 in
  let job i =
    {
      Sup.key = Printf.sprintf "cell/%d" i;
      work =
        (fun _ctx ->
          executions.(i) <- executions.(i) + 1;
          100 + i);
      binfo = None;
    }
  in
  let first =
    Sup.run_jobs
      (opts dir campaign)
      ~encode ~decode
      (List.init 3 job)
  in
  Alcotest.(check int) "prefix all succeeded" 3 (List.length first);
  let second =
    Sup.run_jobs (opts dir campaign) ~encode ~decode (List.init 6 job)
  in
  let values, resumed_flags =
    List.split
      (List.map
         (function
           | Ok o -> (o.Sup.value, o.Sup.resumed)
           | Error _ -> Alcotest.fail "unexpected failure")
         second)
  in
  Alcotest.(check (list int))
    "values identical to an uninterrupted run"
    [ 100; 101; 102; 103; 104; 105 ]
    values;
  Alcotest.(check (list bool))
    "first three substituted from the journal"
    [ true; true; true; false; false; false ]
    resumed_flags;
  Alcotest.(check (list int))
    "journaled cells ran exactly once overall"
    [ 1; 1; 1; 1; 1; 1 ]
    (Array.to_list executions);
  (* A kill in the middle of the third append: the prefix journal loses
     its last bytes.  The torn cell runs again, once, with the rest.  One
     worker, so cell 2 is the last record. *)
  let dir = fresh_dir () in
  ignore
    (Sup.run_jobs
       (Sup.options ~jobs:1 ~journal:(Journal.start ~dir ~campaign) ())
       ~encode ~decode (List.init 3 job));
  let file = Filename.concat dir "journal" in
  let contents = read_back file in
  write_file file (String.sub contents 0 (String.length contents - 4));
  Array.fill executions 0 6 0;
  let resumed =
    Sup.run_jobs (opts dir campaign) ~encode ~decode (List.init 6 job)
  in
  Alcotest.(check (list int))
    "torn-tail resume: values identical to an uninterrupted run"
    [ 100; 101; 102; 103; 104; 105 ]
    (List.map
       (function
         | Ok o -> o.Sup.value | Error _ -> Alcotest.fail "unexpected failure")
       resumed);
  Alcotest.(check (list int))
    "torn-tail resume: cells 0-1 replayed, the torn cell and 3-5 run once"
    [ 0; 0; 1; 1; 1; 1 ]
    (Array.to_list executions)

let test_fuzz_payload_roundtrip () =
  let spec = Gen.random (Rng.split ~seed:3 17) in
  let p = Replay.payload ~mode:(Spf_fuzz.Oracle.Concrete None) spec in
  let p' = Replay.decode_payload (Replay.encode_payload p) in
  Alcotest.(check bool) "spec survives encode/decode" true (p = p');
  Alcotest.check_raises "garbage payload rejected"
    (Failure
       "bundle payload does not decode as a fuzz case (incompatible build?)")
    (fun () -> ignore (Replay.decode_payload "garbage"))

let test_figure_cell_replay () =
  let cycles = Figures.replay_cell ~figure:"fig2" ~index:0 () in
  Alcotest.(check bool) "fig2 cell 0 simulates" true (cycles > 0);
  Alcotest.(check bool)
    "unknown figure rejected" true
    (match Figures.replay_cell ~figure:"fig99" ~index:0 () with
    | _ -> false
    | exception Failure _ -> true);
  Alcotest.(check bool)
    "out-of-range index rejected" true
    (match Figures.replay_cell ~figure:"fig2" ~index:9999 () with
    | _ -> false
    | exception Failure _ -> true)

let suite =
  [
    Alcotest.test_case "journal round-trips across reopen" `Quick
      test_journal_roundtrip;
    Alcotest.test_case "journal rejects a different campaign" `Quick
      test_journal_campaign_mismatch;
    Alcotest.test_case "corrupt and truncated journals rejected" `Quick
      test_journal_corruption_rejected;
    Alcotest.test_case "bundle round-trips and detects tampering" `Quick
      test_bundle_roundtrip;
    Alcotest.test_case "supervised fuzz summary equals raw" `Quick
      test_supervised_matches_raw;
    Alcotest.test_case "crash -> bundle -> resume -> identical summary"
      `Quick test_crash_then_resume_matches_raw;
    Alcotest.test_case "kill after N cells, resume skips them" `Quick
      test_kill_mid_campaign_resume;
    Alcotest.test_case "fuzz bundle payload round-trips" `Quick
      test_fuzz_payload_roundtrip;
    Alcotest.test_case "figure cells replay from the registry" `Quick
      test_figure_cell_replay;
  ]
