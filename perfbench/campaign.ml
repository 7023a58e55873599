(* Workload [campaign]: a fuzz campaign under the symbolic oracle in one
   domain — thousands of tiny generated programs, so fixed per-program
   costs (generation, interpreter instantiation, pass, proof) dominate.
   Case [k] of seed [s] is [Driver.run ~seed:(case_seed s k) ~count:1],
   timed one case at a time. *)

open Common
module Driver = Spf_fuzz.Driver
module Oracle = Spf_fuzz.Oracle
module Gen = Spf_fuzz.Gen
module Rng = Spf_workloads.Rng
module Interp = Spf_sim.Interp
module Stats = Spf_sim.Stats
module Pass = Spf_core.Pass

let case_seed seed k = (seed lsl 20) lor k

(* Case [i] of a [Driver.run] campaign with seed [rseed]. *)
let spec_of_seed rseed i = Gen.random (Rng.split ~seed:rseed i)
let spec seed k = spec_of_seed (case_seed seed k) 0

let run_case seed k =
  Driver.run ~oracle:Oracle.Symbolic ~jobs:1 ~seed:(case_seed seed k) ~count:1 ()

(* The campaign summary's counters, which a replica must reproduce. *)
let add_summary t (s : Driver.summary) =
  Counts.add t "campaign.cases" s.Driver.runs;
  Counts.add t "campaign.transformed" s.Driver.transformed;
  Counts.add t "campaign.rejected_only" s.Driver.rejected_only;
  Counts.add t "campaign.discarded" s.Driver.discarded;
  Counts.add t "campaign.dropped_prefetches" s.Driver.dropped_prefetches;
  Counts.add t "campaign.sw_prefetches" s.Driver.sw_prefetches;
  Counts.add t "campaign.undecided" s.Driver.undecided;
  Counts.add t "campaign.divergences" (List.length s.Driver.failures);
  Counts.add t "campaign.introduced_faults" s.Driver.introduced_faults

let print_counts t =
  List.iter
    (fun (k, v) ->
      if String.starts_with ~prefix:"campaign." k then Printf.printf "  %s=%d\n" k v)
    (Counts.to_list t)

(* [probe-start] child: time of the first case, as seen from inside. *)
let probe_start ~seed =
  Printf.printf "FIRST_CASE %.9f\n%!" (now ());
  ignore (run_case seed 0)

(* Median over [n] fresh processes of spawn -> first case. *)
let process_setup_s ~seed ~n =
  median
    (List.init n (fun _ ->
         let rd, wr = Unix.pipe ~cloexec:true () in
         let t0 = now () in
         let pid =
           Unix.create_process Sys.executable_name
             [| Sys.executable_name; "probe-start"; "--seed"; string_of_int seed |]
             Unix.stdin wr Unix.stderr
         in
         Unix.close wr;
         let ic = Unix.in_channel_of_descr rd in
         let line = input_line ic in
         close_in ic;
         ignore (Unix.waitpid [] pid);
         Scanf.sscanf line "FIRST_CASE %f" (fun t -> t -. t0)))

let measure ~seed ~seconds =
  let setup_s = process_setup_s ~seed ~n:5 in
  let t = Counts.create () in
  let lat = ref [] in
  let t_start = now () in
  let k = ref 0 in
  while now () -. t_start < seconds do
    let t0 = now () in
    let s = run_case seed !k in
    lat := (now () -. t0) :: !lat;
    add_summary t s;
    incr k
  done;
  let elapsed = now () -. t_start in
  let rss = peak_rss_mb () in
  let n = !k in
  let sample = List.init (min n Fuzzset.sample) (spec seed) in
  let speedup = Fuzzset.speedup sample in
  let c = Counts.get t in
  let failed = c "campaign.divergences" in
  let ms = sorted (List.map (fun s -> 1e3 *. s) !lat) in
  Printf.printf "campaign: %d cases, symbolic oracle, seed %d\n" n seed;
  print_counts t;
  Printf.printf "  latency samples: %d cases\n" n;
  {
    attempted = n;
    failed;
    e2e =
      [
        ("setup_s", setup_s, "s");
        ("cases_per_s", float n /. elapsed, "1/s");
        ("p50_ms", percentile ms 50., "ms");
        ("p99_ms", percentile ms 99., "ms");
        ("peak_rss_mb", rss, "MB");
        ("speedup_geomean", speedup, "x");
        ("decided_frac", float (n - c "campaign.undecided") /. float n, "fraction");
      ];
    layers = [];
    counters = Counts.to_list t;
    wall_s = elapsed;
  }

(* --- the traced replica ---------------------------------------------- *)

let sims = Counts.create ()
let prefetches = ref 0

let execute ~id ~fuel (b : Gen.built) =
  let interp =
    Trace.span ~id "sim.create" (fun () ->
        Interp.create ~machine:Spf_sim.Machine.haswell ~mem:b.Gen.mem ~args:b.Gen.args
          b.Gen.func)
  in
  let outcome =
    match Trace.span ~id "sim.exec" (fun () -> Interp.run ~fuel interp) with
    | () ->
        Oracle.Returned
          { retval = Interp.retval interp; digest = Spf_sim.Memory.digest b.Gen.mem }
    | exception Interp.Trap { pc; addr; is_store; _ } -> Oracle.Trapped { pc; addr; is_store }
    | exception Interp.Fuel_exhausted -> Oracle.Out_of_fuel
  in
  let stats = Interp.stats interp in
  Counts.add_stats sims stats;
  (outcome, stats)

(* [Oracle.check_symbolic] spelled out call by call, folded into the same
   counters [Driver.run] keeps. *)
let traced_case t ~id spec =
  Trace.span ~id "fuzz.case" @@ fun () ->
  let fuel = Gen.fuel spec in
  let build () = Trace.span ~id "fuzz.build" (fun () -> Gen.build spec) in
  let diverged ~introduced =
    Counts.add t "campaign.divergences" 1;
    if introduced then Counts.add t "campaign.introduced_faults" 1
  in
  let pass func = Trace.span ~id "core.pass" (fun () -> Pass.run func) in
  Counts.add t "campaign.cases" 1;
  let original = build () in
  let o1, _ = execute ~id ~fuel original in
  let transformed = build () in
  let n_orig = Spf_ir.Ir.n_instrs transformed.Gen.func in
  match pass transformed.Gen.func with
  | exception _ -> diverged ~introduced:false
  | report -> (
      prefetches := !prefetches + report.Pass.n_prefetches;
      match Trace.span ~id "ir.verify" (fun () -> Spf_ir.Verifier.check transformed.Gen.func) with
      | _ :: _ -> diverged ~introduced:false
      | [] -> (
          let o2, st2 = execute ~id ~fuel transformed in
          let concrete =
            match (o1, o2) with
            | (Oracle.Trapped _ | Oracle.Out_of_fuel), _ -> `Agree true
            | Oracle.Returned r1, Oracle.Returned r2 ->
                if r1.retval = r2.retval && r1.digest = r2.digest then `Agree false
                else `Diverged false
            | Oracle.Returned _, Oracle.Trapped { pc; _ } -> `Diverged (pc >= n_orig)
            | Oracle.Returned _, Oracle.Out_of_fuel -> `Diverged false
          in
          match concrete with
          | `Diverged introduced -> diverged ~introduced
          | `Agree discarded -> (
              let orig2 = build () in
              let xform = build () in
              match pass xform.Gen.func with
              | exception _ -> diverged ~introduced:false
              | _ -> (
                  let env =
                    {
                      Spf_valid.Model.fresh =
                        (fun () ->
                          let b = Gen.build spec in
                          (b.Gen.mem, b.Gen.args));
                      fuel;
                    }
                  in
                  match
                    Trace.span ~id "valid.prove" (fun () ->
                        Spf_valid.Validate.check ~env ~orig:orig2.Gen.func
                          ~xform:xform.Gen.func ())
                  with
                  | Spf_valid.Validate.Proved _ ->
                      Counts.add t
                        (if report.Pass.n_prefetches > 0 then "campaign.transformed"
                         else "campaign.rejected_only")
                        1;
                      if discarded then Counts.add t "campaign.discarded" 1;
                      Counts.add t "campaign.dropped_prefetches" st2.Stats.dropped_prefetches;
                      Counts.add t "campaign.sw_prefetches" st2.Stats.sw_prefetches
                  | Spf_valid.Validate.Refuted { cex; _ } ->
                      diverged ~introduced:cex.Spf_valid.Model.introduced_fault
                  | Spf_valid.Validate.Gave_up _ -> Counts.add t "campaign.undecided" 1))))

let fixed_cases = 1500

(* A fixed case list, through [Driver.run] or through the traced replica. *)
let fixed ~seed ~traced =
  Trace.on := traced;
  let t = Counts.create () in
  let h0, m0 = Spf_sim.Tape.cache_counters () in
  let t0 = now () in
  for k = 0 to fixed_cases - 1 do
    if traced then traced_case t ~id:k (spec seed k) else add_summary t (run_case seed k)
  done;
  let wall_s = now () -. t0 in
  let h1, m1 = Spf_sim.Tape.cache_counters () in
  print_counts t;
  let layers =
    if not traced then []
    else begin
      for k = 0 to Fuzzset.sample - 1 do
        let b = Gen.build (spec seed k) in
        ignore (Pass.run b.Gen.func);
        ignore
          (Trace.span ~id:k "sim.decode" (fun () ->
               Spf_sim.Tape.decode ~tscale:Interp.default_tscale b.Gen.func))
      done;
      [
        ( "sim.exec_ns_per_inst",
          Trace.total "sim.exec" *. 1e9 /. float (Counts.get sims "sim.instructions"),
          "ns" );
        ("sim.create_us", Trace.median_us "sim.create", "us");
        ("sim.create_alloc_kw", Trace.mean_words "sim.create" /. 1e3, "kwords");
        ("sim.decode_us", Trace.median_us "sim.decode", "us");
        ("sim.decode_cache_hits", float (h1 - h0), "count");
        ("sim.decode_cache_misses", float (m1 - m0), "count");
        ("ir.verify_us", Trace.median_us "ir.verify", "us");
        ("core.pass_us", Trace.median_us "core.pass", "us");
        ("core.prefetches", float !prefetches, "count");
        ("fuzz.build_us", Trace.median_us "fuzz.build", "us");
        ("fuzz.build_alloc_kw", Trace.mean_words "fuzz.build" /. 1e3, "kwords");
        ("valid.prove_us", Trace.median_us "valid.prove", "us");
        ("valid.undecided", float (Counts.get t "campaign.undecided"), "count");
      ]
    end
  in
  {
    attempted = fixed_cases;
    failed = Counts.get t "campaign.divergences";
    e2e = [];
    layers;
    counters = Counts.to_list t @ if traced then Counts.to_list sims else [];
    wall_s;
  }
