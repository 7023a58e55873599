(* Workload [campaign-resume]: the supervised, checkpointed fuzz campaign
   behind [spf fuzz --resume DIR] (concrete oracle, one domain).  Each
   round records a fresh journal, reopens the completed journal and
   resumes from it; the resumed summary must be byte-identical to the
   recording pass. *)

open Common
module Driver = Spf_fuzz.Driver
module Oracle = Spf_fuzz.Oracle
module Supervisor = Spf_harness.Supervisor
module Journal = Spf_harness.Journal
module Engine = Spf_sim.Engine

let n_cases = 500
let reopens = 5
let mode = Oracle.Concrete (Some Engine.default)

let campaign_id rseed =
  Printf.sprintf "perfbench campaign-resume seed=%d count=%d oracle=%s" rseed n_cases
    (Oracle.mode_to_string mode)

let supervise ?journal dir =
  Supervisor.options ~jobs:1 ~engine:Engine.default ?journal
    ~bundle_root:(Filename.concat dir "bundles") ()

let campaign ?supervise rseed =
  Driver.run ~oracle:mode ~jobs:1 ~seed:rseed ?supervise ~count:n_cases ()

let text s = Format.asprintf "%a" Driver.pp_summary s

let round_seed seed r = Campaign.case_seed seed r

type round = {
  record_s : float;
  open_s : float list;
  identical : bool;
  summary : Driver.summary;
  journal_bytes : int;
}

(* Record, reopen [reopens] times, resume. *)
let round ~dir rseed =
  let dir = fresh_dir dir in
  let campaign_id = campaign_id rseed in
  let t0 = now () in
  let j = Journal.start ~dir ~campaign:campaign_id in
  let s1 =
    Trace.span ~id:rseed "harness.journaled" (fun () ->
        campaign ~supervise:(supervise ~journal:j dir) rseed)
  in
  let record_s = now () -. t0 in
  let journal_bytes = (Unix.stat (Journal.file j)).Unix.st_size in
  let opens =
    List.init reopens (fun _ ->
        let t = now () in
        let j =
          Trace.span ~id:rseed "harness.journal_open" (fun () ->
              Journal.start ~dir ~campaign:campaign_id)
        in
        (now () -. t, j))
  in
  let j2 = snd (List.nth opens (reopens - 1)) in
  let s2 =
    Trace.span ~id:rseed "harness.resume" (fun () ->
        campaign ~supervise:(supervise ~journal:j2 dir) rseed)
  in
  let identical = text s1 = text s2 && Journal.completed j2 = n_cases in
  rm_rf dir;
  { record_s; open_s = List.map fst opens; identical; summary = s1; journal_bytes }

let counts_of rounds =
  let t = Counts.create () in
  List.iter
    (fun r ->
      Campaign.add_summary t r.summary;
      Counts.add t "resume.identical" (if r.identical then 1 else 0))
    rounds;
  t

let failures rounds =
  List.fold_left
    (fun acc r ->
      acc + List.length r.summary.Driver.failures + if r.identical then 0 else 1)
    0 rounds

let measure ~scratch ~seed ~seconds =
  let t_start = now () in
  let first = round ~dir:(Filename.concat scratch "resume-0") (round_seed seed 0) in
  let rss = peak_rss_mb () in
  let round_s = now () -. t_start in
  (* Start another round only while it fits in the window. *)
  let rec more r acc =
    if now () -. t_start +. round_s > seconds then List.rev acc
    else
      let dir = Filename.concat scratch (Printf.sprintf "resume-%d" r) in
      let x = round ~dir (round_seed seed r) in
      more (r + 1) (x :: acc)
  in
  let rounds = first :: more 1 [] in
  let n = List.length rounds in
  let record_s = List.fold_left (fun acc r -> acc +. r.record_s) 0. rounds in
  let ms = sorted (List.map (fun r -> 1e3 *. r.record_s) rounds) in
  let sample_specs = List.init Fuzzset.sample (Campaign.spec_of_seed (round_seed seed 0)) in
  let t = counts_of rounds in
  Printf.printf "campaign-resume: %d round(s) of %d cases, seed %d, journal %d bytes\n" n
    n_cases seed first.journal_bytes;
  Campaign.print_counts t;
  Printf.printf "  resumed summary identical in %d/%d rounds\n"
    (Counts.get t "resume.identical") n;
  Printf.printf
    "  latency samples: %d recorded campaigns; set-up samples: %d journal reopens\n"
    n (n * reopens);
  {
    attempted = (n * n_cases) + n;
    failed = failures rounds;
    e2e =
      [
        ("setup_s", median (List.concat_map (fun r -> r.open_s) rounds), "s");
        ("cases_per_s", float (n * n_cases) /. record_s, "1/s");
        ("p50_ms", percentile ms 50., "ms");
        ("p99_ms", percentile ms 99., "ms");
        ("peak_rss_mb", rss, "MB");
        ("speedup_geomean", Fuzzset.speedup sample_specs, "x");
        ("decided_frac", Fuzzset.decided sample_specs, "fraction");
      ];
    layers = [];
    counters = Counts.to_list t;
    wall_s = now () -. t_start;
  }

(* One round preceded by the same cases unsupervised and supervised
   without a journal, so the harness's two costs separate. *)
let fixed ~scratch ~seed ~traced =
  Trace.on := traced;
  let rseed = round_seed seed 0 in
  let dir = fresh_dir (Filename.concat scratch "resume-fixed") in
  let t0 = now () in
  let plain = Trace.span ~id:rseed "harness.plain" (fun () -> campaign rseed) in
  let sup =
    Trace.span ~id:rseed "harness.supervised" (fun () ->
        campaign ~supervise:(supervise dir) rseed)
  in
  let r = round ~dir rseed in
  let wall_s = now () -. t0 in
  let same s = text s = text r.summary in
  let r = { r with identical = r.identical && same plain && same sup } in
  let t = counts_of [ r ] in
  Campaign.print_counts t;
  let layers =
    if not traced then []
    else
      let pct a b = 100. *. (Trace.total a -. Trace.total b) /. Trace.total b in
      [
        ("harness.supervise_overhead_pct", pct "harness.supervised" "harness.plain", "%");
        ("harness.journal_overhead_pct", pct "harness.journaled" "harness.supervised", "%");
        ("harness.journal_bytes", float r.journal_bytes, "bytes");
        ("harness.journal_open_s", median r.open_s, "s");
      ]
  in
  {
    attempted = n_cases + 1;
    failed = failures [ r ];
    e2e = [];
    layers;
    counters = Counts.to_list t;
    wall_s;
  }
