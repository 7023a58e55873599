(* Entry point of the benchmark's OCaml side; [run.py] builds and drives it.

     bench.exe WORKLOAD --seed N --seconds S --mode MODE --spf EXE --scratch DIR
     bench.exe probe-start --seed N

   MODE is [measure] (the end-to-end metrics, tracing off), or [untraced] /
   [traced]: the same fixed work without and with spans, run as two fresh
   processes whose wall times give the tracing overhead and whose exact
   counters must agree.  The last line is [RESULT <json>]. *)

open Common

(* Simulated counters under their per-layer names. *)
let counter_layers =
  [
    ("sim.insts", "sim.instructions");
    ("sim.cycles", "sim.cycles");
    ("memsys.l1_hits", "sim.l1_hits");
    ("memsys.dram_fills", "sim.dram_fills");
    ("memsys.inflight_hits", "sim.inflight_hits");
    ("memsys.sw_prefetches", "sim.sw_prefetches");
    ("memsys.late_pf_fills", "sim.late_pf_fills");
    ("memsys.unused_pf_fills", "sim.unused_pf_fills");
    ("memsys.page_walks", "sim.page_walks");
  ]

let () =
  let args = Array.to_list Sys.argv in
  let opt name default =
    let rec go = function
      | k :: v :: _ when k = name -> v
      | _ :: rest -> go rest
      | [] -> default
    in
    go args
  in
  let seed = int_of_string (opt "--seed" "0") in
  let seconds = float_of_string (opt "--seconds" "10") in
  let mode = opt "--mode" "measure" in
  let spf = opt "--spf" "spf" in
  let scratch = opt "--scratch" "." in
  let workload = match args with _ :: w :: _ -> w | _ -> "" in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if workload = "probe-start" then Campaign.probe_start ~seed
  else begin
    let traced = mode = "traced" in
    let r =
      match (workload, mode) with
      | "kernels", "measure" -> Kernels.measure ~seed ~seconds
      | "kernels", _ -> Kernels.fixed ~seed ~traced
      | "campaign", "measure" -> Campaign.measure ~seed ~seconds
      | "campaign", _ -> Campaign.fixed ~seed ~traced
      | "campaign-resume", "measure" -> Resume.measure ~scratch ~seed ~seconds
      | "campaign-resume", _ -> Resume.fixed ~scratch ~seed ~traced
      | "serve", "measure" -> Serve_load.measure ~spf ~scratch ~seed ~seconds
      | "serve", _ -> Serve_load.fixed ~spf ~scratch ~seed ~seconds ~traced
      | _ ->
          prerr_endline ("bench: unknown workload " ^ workload);
          exit 2
    in
    let r =
      if not traced then r
      else begin
        let path =
          Filename.concat scratch (Printf.sprintf "trace-%s-seed%d.tsv" workload seed)
        in
        Trace.write path;
        Printf.printf "  trace: %d spans in %s\n" (List.length !Trace.spans) path;
        let extra =
          List.filter_map
            (fun (layer, counter) ->
              Option.map
                (fun v -> (layer, float v, "count"))
                (List.assoc_opt counter r.counters))
            counter_layers
        in
        { r with layers = r.layers @ extra }
      end
    in
    print_result r
  end
