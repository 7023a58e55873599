(* The two simulated / validator outcomes every workload reports, computed
   over a sample of fuzz-generated programs for the workloads built from
   them (campaign, campaign-resume, serve).  Both run after the measured
   window. *)

module Gen = Spf_fuzz.Gen
module Oracle = Spf_fuzz.Oracle
module Stats = Spf_sim.Stats

(* Programs per workload run: 1000 for the speedup keeps its seed-to-seed
   spread near 2 %; the proofs cost more, so the first 200 of them. *)
let sample = 1000
let proof_sample = 200

(* Geomean over the programs the pass transformed of simulated Haswell
   cycles, untransformed / transformed.  Programs whose original traps or
   spins are undefined input and left out. *)
let speedup specs =
  Common.geomean
    (List.filter_map
       (fun spec ->
         let fuel = Gen.fuel spec in
         let o1, s1 = Oracle.execute ~fuel (Gen.build spec) in
         let t = Gen.build spec in
         let report = Spf_core.Pass.run t.Gen.func in
         let o2, s2 = Oracle.execute ~fuel t in
         match (o1, o2) with
         | Oracle.Returned _, Oracle.Returned _
           when report.Spf_core.Pass.n_prefetches > 0 ->
             Some (float s1.Stats.cycles /. float s2.Stats.cycles)
         | _ -> None)
       specs)

(* Share of programs the symbolic oracle proves or refutes. *)
let decided specs =
  let specs = List.filteri (fun i _ -> i < proof_sample) specs in
  let undecided =
    List.length
      (List.filter
         (fun s ->
           match Oracle.check_symbolic s with
           | Oracle.Undecided _ -> true
           | Oracle.Agree _ | Oracle.Diverged _ -> false)
         specs)
  in
  float (List.length specs - undecided) /. float (List.length specs)
