(* Workload [kernels]: the paper's Fig 4 kernels (G500-s21 excluded) with
   data seeded from the benchmark seed, each simulated plain and with the
   pass applied on an out-of-order (Haswell) and an in-order (A53) core —
   24 simulations per pass, one domain. *)

open Common
module Benches = Spf_harness.Benches
module Runner = Spf_harness.Runner
module Machine = Spf_sim.Machine
module Stats = Spf_sim.Stats
module Interp = Spf_sim.Interp
module Workload = Spf_workloads.Workload
module W = Spf_workloads

(* Fig 4 geomeans read off the paper's chart (EXPERIMENTS.md), +-0.05..0.1. *)
let paper = [ ("Haswell", 1.3); ("A53", 2.1) ]
let machines = [ Machine.haswell; Machine.a53 ]

(* Seed 0 is the repository's default data set. *)
let benches seed =
  let s base = base + (7919 * seed) in
  [
    Benches.is_bench ~params:{ W.Is.default with seed = s W.Is.default.seed } ();
    Benches.cg_bench ~params:{ W.Cg.default with seed = s W.Cg.default.seed } ();
    Benches.ra_bench ~params:{ W.Ra.default with seed = s W.Ra.default.seed } ();
    Benches.hj2_bench
      ~params:{ W.Hj.default_hj2 with seed = s W.Hj.default_hj2.seed }
      ();
    Benches.hj8_bench
      ~params:{ W.Hj.default_hj8 with seed = s W.Hj.default_hj8.seed }
      ();
    Benches.g500_bench ~id:"G500-s16"
      ~params:{ W.G500.small with seed = s W.G500.small.seed }
      ();
  ]

type cell = { bench : Benches.bench; machine : Machine.t; auto : bool }

let cells seed =
  List.concat_map
    (fun bench ->
      List.concat_map
        (fun machine -> [ { bench; machine; auto = false }; { bench; machine; auto = true } ])
        machines)
    (benches seed)

let cell_name c =
  Printf.sprintf "%s/%s/%s" c.bench.Benches.id c.machine.Machine.name
    (if c.auto then "auto" else "plain")

type obs = {
  gen_s : float;  (** the plain builder: workload input generation *)
  sim_s : float;  (** [Runner.run]: verify, simulate, validate the checksum *)
  stats : (Stats.t, string) result;
  func : Spf_ir.Ir.func;
}

let run_cell c =
  let t0 = now () in
  let built = c.bench.Benches.plain () in
  let t1 = now () in
  let built = if c.auto then Benches.auto built else built in
  let t2 = now () in
  let stats =
    match Runner.run ~machine:c.machine built with
    | r -> Ok r.Runner.stats
    | exception e -> Error (Printexc.to_string e)
  in
  { gen_s = t1 -. t0; sim_s = now () -. t2; stats; func = built.Workload.func }

(* The same cell through each layer's public calls, one span per call. *)
let prefetches = ref 0

let traced_cell ~id c =
  Trace.span ~id "kernels.cell" @@ fun () ->
  let t0 = now () in
  let built = Trace.span ~id "workloads.gen" c.bench.Benches.plain in
  let gen_s = now () -. t0 in
  let t1 = now () in
  if c.auto then begin
    let r = Trace.span ~id "core.pass" (fun () -> Spf_core.Pass.run built.Workload.func) in
    prefetches := !prefetches + r.Spf_core.Pass.n_prefetches
  end;
  let stats =
    match Trace.span ~id "ir.verify" (fun () -> Spf_ir.Verifier.check built.Workload.func) with
    | _ :: _ -> Error "verifier violations"
    | [] -> (
        let interp =
          Trace.span ~id "sim.create" (fun () ->
              Interp.create ~machine:c.machine ~mem:built.Workload.mem
                ~args:built.Workload.args built.Workload.func)
        in
        match
          Trace.span ~id "sim.exec" (fun () -> Interp.run interp);
          Trace.span ~id "workloads.validate" (fun () ->
              Workload.validate built ~retval:(Interp.retval interp))
        with
        | () -> Ok (Interp.stats interp)
        | exception e -> Error (Printexc.to_string e))
  in
  { gen_s; sim_s = now () -. t1; stats; func = built.Workload.func }

let cycles o = match o.stats with Ok s -> s.Stats.cycles | Error _ -> 0

(* Exact counters of one pass: per-cell cycles and instructions, plus
   every [Stats] field summed. *)
let counters pass =
  let t = Counts.create () in
  List.iter
    (fun (c, o) ->
      match o.stats with
      | Ok s ->
          Counts.add_stats t s;
          Counts.add t ("cycles." ^ cell_name c) s.Stats.cycles;
          Counts.add t ("insts." ^ cell_name c) s.Stats.instructions
      | Error _ -> Counts.add t "failed_cells" 1)
    pass;
  t

let pass_failures pass =
  List.filter_map
    (fun (c, o) ->
      match o.stats with Ok _ -> None | Error m -> Some (cell_name c ^ ": " ^ m))
    pass

(* plain / auto cycles for each (bench, machine). *)
let speedups pass =
  List.filter_map
    (fun (c, o) ->
      if c.auto then None
      else
        let auto =
          List.find
            (fun (c', _) ->
              c'.auto && c'.bench.Benches.id = c.bench.Benches.id
              && c'.machine.Machine.name = c.machine.Machine.name)
            pass
          |> snd
        in
        if cycles o > 0 && cycles auto > 0 then
          Some (c, float (cycles o) /. float (cycles auto))
        else None)
    pass

(* Share of the six kernels whose pass-applied twin the translation
   validator proves or refutes.  Runs after the measured window. *)
let decided_frac pass =
  let plain =
    List.filter
      (fun (c, _) -> (not c.auto) && c.machine.Machine.name = Machine.haswell.Machine.name)
      pass
  in
  let decided =
    List.filter
      (fun (c, o) ->
        match Spf_valid.Validate.transform o.func with
        | Error _ -> false
        | Ok xform -> (
            let env =
              {
                Spf_valid.Model.fresh =
                  (fun () ->
                    let b = c.bench.Benches.plain () in
                    (b.Workload.mem, b.Workload.args));
                fuel = Spf_valid.Validate.golden_fuel;
              }
            in
            match Spf_valid.Validate.check ~env ~orig:o.func ~xform () with
            | Spf_valid.Validate.Proved _ | Spf_valid.Validate.Refuted _ -> true
            | Spf_valid.Validate.Gave_up _ -> false))
      plain
  in
  float (List.length decided) /. float (List.length plain)

let print_pass pass =
  List.iter
    (fun (c, o) ->
      match o.stats with
      | Ok s ->
          Printf.printf "  %-22s cycles=%d insts=%d checksum=ok gen=%.3fs sim=%.3fs\n"
            (cell_name c) s.Stats.cycles s.Stats.instructions o.gen_s o.sim_s
      | Error m -> Printf.printf "  %-22s FAILED: %s\n" (cell_name c) m)
    pass

let measure ~seed ~seconds =
  let cells = cells seed in
  let t_start = now () in
  let pass () = List.map (fun c -> (c, run_cell c)) cells in
  let first = pass () in
  let rss = peak_rss_mb () in
  (* Repeat whole passes until the window is used; peak RSS and set-up
     come from the first pass only. *)
  let rec more acc =
    if now () -. t_start >= seconds then List.rev acc else more (pass () :: acc)
  in
  let passes = first :: more [] in
  let base = counters first in
  let nondeterministic =
    List.length
      (List.filter (fun p -> Counts.to_list (counters p) <> Counts.to_list base) passes)
  in
  let all = List.concat passes in
  let failures = List.concat_map pass_failures passes in
  (* A cell's latency is its fastest pass: with one sample per cell p99
     would be a single 1-2 s simulation, exposed whole to the host's
     speed drift, and a slow phase rarely covers the same cell twice. *)
  let sim_ms =
    List.mapi
      (fun i _ ->
        let fastest acc p = Float.min acc (snd (List.nth p i)).sim_s in
        1e3 *. List.fold_left fastest infinity passes)
      cells
  in
  let sim_s = List.fold_left (fun acc (_, o) -> acc +. o.sim_s) 0. all in
  let setup_s = List.fold_left (fun acc (_, o) -> acc +. o.gen_s) 0. first in
  Printf.printf "kernels: %d pass(es) of %d simulations, seed %d\n" (List.length passes)
    (List.length cells) seed;
  print_pass first;
  let sp = speedups first in
  List.iter
    (fun (m, chart) ->
      let g =
        geomean
          (List.filter_map
             (fun (c, x) -> if c.machine.Machine.name = m then Some x else None)
             sp)
      in
      Printf.printf
        "  speedup geomean %s: %.3f simulated (paper Fig 4 chart: ~%.1f; G500-s21 \
         excluded)\n"
        m g chart)
    paper;
  let decided = decided_frac first in
  List.iter (Printf.printf "  failure: %s\n") failures;
  if nondeterministic > 0 then
    Printf.printf "  failure: %d pass(es) simulated different counters\n" nondeterministic;
  let sorted_ms = sorted sim_ms in
  Printf.printf "  latency samples: %d cells, each its fastest of %d pass(es)\n"
    (List.length sim_ms) (List.length passes);
  {
    attempted = List.length all;
    failed = List.length failures + nondeterministic;
    e2e =
      [
        ("setup_s", setup_s, "s");
        ("cases_per_s", float (List.length all) /. sim_s, "1/s");
        ("p50_ms", percentile sorted_ms 50., "ms");
        ("p99_ms", percentile sorted_ms 99., "ms");
        ("peak_rss_mb", rss, "MB");
        ("speedup_geomean", geomean (List.map snd sp), "x");
        ("decided_frac", decided, "fraction");
      ];
    layers = [];
    counters = Counts.to_list base;
    wall_s = now () -. t_start;
  }

(* Direct [Memsys.access] timings: a repeated L1 hit, and a line stride
   that misses every level. *)
let memsys_probe () =
  let module Memsys = Spf_sim.Memsys in
  let machine = Machine.haswell and tscale = Interp.default_tscale in
  let mk () =
    Memsys.create machine ~tscale
      ~dram:(Spf_sim.Dram.create machine.Machine.dram ~tscale)
      ~stats:(Stats.create ()) ()
  in
  let time n f =
    let t0 = now () in
    for i = 1 to n do
      ignore (f i)
    done;
    (now () -. t0) *. 1e9 /. float n
  in
  let hit = mk () in
  ignore (Memsys.access hit ~kind:Memsys.Demand ~pc:0 ~addr:4096 ~now:0);
  let l1 =
    Trace.span "memsys.l1_hit" (fun () ->
        time 2_000_000 (fun _ ->
            Memsys.access hit ~kind:Memsys.Demand ~pc:0 ~addr:4096 ~now:0))
  in
  let miss = mk () in
  let dram =
    Trace.span "memsys.dram" (fun () ->
        time 200_000 (fun i ->
            Memsys.access miss ~kind:Memsys.Demand ~pc:0
              ~addr:(i * 8191 * Machine.line_size)
              ~now:0))
  in
  (l1, dram)

(* One pass, traced or not, for the trace run's pair of processes. *)
let fixed ~seed ~traced =
  let cells = cells seed in
  Trace.on := traced;
  let h0, m0 = Spf_sim.Tape.cache_counters () in
  let t0 = now () in
  let pass =
    List.mapi (fun id c -> (c, if traced then traced_cell ~id c else run_cell c)) cells
  in
  let wall_s = now () -. t0 in
  let h1, m1 = Spf_sim.Tape.cache_counters () in
  let counts = counters pass in
  let failures = pass_failures pass in
  List.iter (Printf.printf "  failure: %s\n") failures;
  let layers =
    if not traced then []
    else begin
      List.iter
        (fun (c, o) ->
          if c.machine.Machine.name = Machine.haswell.Machine.name then
            ignore
              (Trace.span "sim.decode" (fun () ->
                   Spf_sim.Tape.decode ~tscale:Interp.default_tscale o.func)))
        pass;
      let l1, dram = memsys_probe () in
      let c = Counts.get counts in
      [
        ("workloads.gen_s", Trace.total "workloads.gen", "s");
        ( "workloads.gen_alloc_mw",
          Trace.total_words "workloads.gen" /. 1e6,
          "Mwords" );
        ( "sim.exec_ns_per_inst",
          Trace.total "sim.exec" *. 1e9 /. float (c "sim.instructions"),
          "ns" );
        ("sim.create_us", Trace.median_us "sim.create", "us");
        ("sim.create_alloc_kw", Trace.mean_words "sim.create" /. 1e3, "kwords");
        ("sim.decode_us", Trace.median_us "sim.decode", "us");
        ("sim.decode_cache_hits", float (h1 - h0), "count");
        ("sim.decode_cache_misses", float (m1 - m0), "count");
        ("memsys.l1_hit_ns", l1, "ns");
        ("memsys.dram_ns", dram, "ns");
        ("ir.verify_us", Trace.median_us "ir.verify", "us");
        ("core.pass_us", Trace.median_us "core.pass", "us");
        ("core.prefetches", float !prefetches, "count");
      ]
    end
  in
  {
    attempted = List.length pass;
    failed = List.length failures;
    e2e = [];
    layers;
    counters = Counts.to_list counts;
    wall_s;
  }
