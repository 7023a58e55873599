module Pass = Spf_core.Pass
module Diag = Spf_core.Diag
module Config = Spf_core.Config
module Gen = Spf_fuzz.Gen
module Oracle = Spf_fuzz.Oracle
module Shrink = Spf_fuzz.Shrink
module Driver = Spf_fuzz.Driver
module Rng = Spf_workloads.Rng

(* The differential-fuzzing harness itself: the default pass survives a
   campaign untouched, no exception ever escapes [Pass.run], the §4.4
   drop path is genuinely exercised, and — as a negative control — the
   oracle catches real clamp failures and shrinks them to a minimal
   reproducer when the clamp is deliberately disabled. *)

let test_campaign_clean () =
  let s = Driver.run ~seed:42 ~count:200 () in
  Alcotest.(check int) "zero divergences" 0 (List.length s.Driver.failures);
  Alcotest.(check int) "zero introduced faults" 0 s.Driver.introduced_faults;
  Alcotest.(check bool) "most programs transformed" true (s.Driver.transformed > 100);
  (* Wild prefetches must have hit the non-faulting drop path: the
     campaign actually exercises §4.4, it doesn't just avoid it. *)
  Alcotest.(check bool) "drops observed" true (s.Driver.dropped_prefetches > 0);
  Alcotest.(check bool) "prefetches issued" true (s.Driver.sw_prefetches > 0)

let test_pass_never_raises_and_never_crashes_internally () =
  (* Stronger than the oracle's catch-all: not only must nothing escape,
     nothing may be *contained* either — an error-severity diag in the
     report is a crash the Diag machinery swallowed. *)
  let rng = Rng.create ~seed:9 in
  for _ = 1 to 100 do
    let spec = Gen.random rng in
    let b = Gen.build spec in
    match Pass.run b.Gen.func with
    | report ->
        List.iter
          (fun (d : Diag.t) ->
            if d.Diag.severity = Diag.Error then
              Alcotest.failf "internal failure contained on %s: %s"
                (Gen.to_string spec) (Diag.to_string d))
          report.Pass.diags
    | exception exn ->
        Alcotest.failf "Pass.run raised on %s: %s" (Gen.to_string spec)
          (Printexc.to_string exn)
  done

let test_strict_mode_clean_on_generated_programs () =
  (* ~strict only escalates internal errors; healthy inputs (including
     ones the pass declines) must run strict without raising. *)
  let rng = Rng.create ~seed:10 in
  for _ = 1 to 50 do
    let spec = Gen.random rng in
    let b = Gen.build spec in
    ignore (Pass.run ~strict:true b.Gen.func)
  done

let no_clamp_config =
  (* assume_margin skips the §4.2 clamp; sound only after Split has peeled
     the loop tail, which the fuzz programs have NOT done — so on tight
     specs the look-ahead load must walk off the end of the index array. *)
  { Config.default with Config.assume_margin = max_int }

let test_oracle_catches_clamp_failures () =
  let s = Driver.run ~config:no_clamp_config ~seed:3 ~count:60 () in
  Alcotest.(check bool) "divergences found" true (s.Driver.failures <> []);
  Alcotest.(check bool) "attributed to pass-inserted instructions" true
    (s.Driver.introduced_faults > 0)

let test_shrinker_minimises_clamp_failures () =
  let fails spec =
    match Oracle.check ~config:no_clamp_config spec with
    | Oracle.Diverged _ -> true
    | Oracle.Agree _ | Oracle.Undecided _ -> false
  in
  (* A known-failing spec under the clamp-free config. *)
  let big =
    {
      Gen.shape = Gen.Hash_indirect;
      n = 178;
      inner = 8;
      len_a = 64;
      bound = Gen.Bound_loaded;
      tight = true;
      alias_store = false;
      hash_depth = 2;
      data_seed = 807468;
    }
  in
  Alcotest.(check bool) "seed case fails" true (fails big);
  let small = Shrink.shrink big ~still_fails:fails in
  Alcotest.(check bool) "shrunk case still fails" true (fails small);
  Alcotest.(check bool) "shrunk to the core shape" true
    (small.Gen.shape = Gen.Indirect);
  Alcotest.(check bool) "trip count minimised" true (small.Gen.n <= 2);
  Alcotest.(check bool) "tightness kept (it is load-bearing)" true
    small.Gen.tight

let test_alias_stores_rejected_in_campaign () =
  (* Specs that store through the index array must never yield a prefetch
     chain through it: §4.2's store-alias scan.  (The oracle already
     guarantees semantics; this pins the *reason*.) *)
  let rng = Rng.create ~seed:11 in
  let checked = ref 0 in
  while !checked < 20 do
    let spec = { (Gen.random rng) with Gen.alias_store = true } in
    match spec.Gen.shape with
    | Gen.Nested | Gen.Wild_prefetch -> ()  (* no alias store in body *)
    | _ ->
        incr checked;
        let b = Gen.build spec in
        let report = Pass.run b.Gen.func in
        let indirect_emitted =
          List.exists
            (fun (_, d) ->
              match d with
              | Pass.Emitted gs ->
                  (* Emitted groups may only target the stride companion
                     (offset over the index array itself), never a chain
                     of depth > 1 through stored-to memory. *)
                  List.exists
                    (fun (g : Spf_core.Codegen.emitted) ->
                      List.length g.Spf_core.Codegen.support_ids > 0)
                    gs
              | _ -> false)
            report.Pass.decisions
        in
        Alcotest.(check bool)
          ("no indirect chain through a stored-to array: " ^ Gen.to_string spec)
          false indirect_emitted
  done

let test_rebuild_is_deterministic () =
  let rng = Rng.create ~seed:12 in
  for _ = 1 to 20 do
    let spec = Gen.random rng in
    let b1 = Gen.build spec and b2 = Gen.build spec in
    let o1, _ = Oracle.execute ~fuel:(Gen.fuel spec) b1 in
    let o2, _ = Oracle.execute ~fuel:(Gen.fuel spec) b2 in
    Alcotest.(check string)
      ("deterministic rebuild: " ^ Gen.to_string spec)
      (Oracle.outcome_to_string o1) (Oracle.outcome_to_string o2)
  done

(* Words this domain has allocated so far (minor + direct major). *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Per-program set-up must cost what the program touches, not the
   modelled machine's full memory and cache geometry: a fuzz program
   needs a few KB, while a 1 MiB memory buffer or an 8 MiB L3's full tag
   array is ~131k words each.  The median is used because a GC slice can
   land inside one measured call; the counts themselves are
   deterministic, so this is not a timing test. *)
let test_setup_allocation_budget () =
  let rng = Rng.create ~seed:7 in
  let budget = 16_000. in
  let builds, creates =
    List.split
      (List.init 50 (fun _ ->
           let spec = Gen.random rng in
           let w0 = alloc_words () in
           let b = Gen.build spec in
           let w1 = alloc_words () in
           let create () =
             Spf_sim.Interp.create ~machine:Spf_sim.Machine.haswell ~mem:b.Gen.mem
               ~args:b.Gen.args b.Gen.func
           in
           (* Warm the decode cache, so only the per-instance state counts. *)
           ignore (create ());
           let w2 = alloc_words () in
           ignore (Sys.opaque_identity (create ()));
           let w3 = alloc_words () in
           (w1 -. w0, w3 -. w2)))
  in
  let check what xs =
    let m = median xs in
    Alcotest.(check bool)
      (Printf.sprintf "median %s allocation %.0f words < %.0f" what m budget)
      true (m < budget)
  in
  check "Gen.build" builds;
  check "Haswell Interp.create" creates

let suite =
  [
    Alcotest.test_case "200-case campaign is clean" `Quick test_campaign_clean;
    Alcotest.test_case "pass never raises nor crashes internally" `Quick
      test_pass_never_raises_and_never_crashes_internally;
    Alcotest.test_case "strict mode clean on generated programs" `Quick
      test_strict_mode_clean_on_generated_programs;
    Alcotest.test_case "oracle catches clamp failures" `Quick
      test_oracle_catches_clamp_failures;
    Alcotest.test_case "shrinker minimises clamp failures" `Quick
      test_shrinker_minimises_clamp_failures;
    Alcotest.test_case "alias stores never yield indirect chains" `Quick
      test_alias_stores_rejected_in_campaign;
    Alcotest.test_case "rebuild from spec is deterministic" `Quick
      test_rebuild_is_deterministic;
    Alcotest.test_case "per-program set-up allocation budget" `Quick
      test_setup_allocation_budget;
  ]
