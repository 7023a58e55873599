(* Workload [serve]: the real [spf serve] daemon in its own process (default
   domain pool, cache journal on), driven over two connections by an open
   loop at a fixed offered rate.  Every eighth request introduces a new
   fuzz-generated program and the other seven repeat programs already seen,
   so seven eighths of the requests are sim-level cache hits and the
   median stays inside the hit mode, clear of the cold mode. *)

open Common
module Loadtest = Spf_serve.Loadtest
module Client = Spf_serve.Client
module Proto = Spf_serve.Proto
module Service = Spf_serve.Service
module Rcache = Spf_serve.Rcache
module Rng = Spf_workloads.Rng

(* Offered requests/s: under a third of the closed-loop capacity of a
   2-core host at this mix over two connections.  Near half of it, the
   host's slow phases pushed the daemon into queueing and the percentiles
   measured the host rather than the service. *)
let rate = 250.

(* With one new program in four, requests queued behind colds on their
   connection lifted the median 17 % above the hit median on average,
   and by more in the host's slow phases; one in eight halves that. *)
let block = 8
let conns = 2
let cache_cap = 16384
let setups = 3

(* [d] distinct programs and the request schedule over them: block [b]
   introduces program [b] and repeats [block - 1] programs introduced so
   far. *)
let schedule ~seed ~seconds =
  let d = max 1 (int_of_float (rate *. seconds) / block) in
  let rng = Rng.create ~seed:(seed + 1) in
  let s = Array.make (d * block) 0 in
  for b = 0 to d - 1 do
    let blk = Array.init block (fun j -> if j = 0 then b else Rng.int rng (b + 1)) in
    Rng.shuffle rng blk;
    Array.blit blk 0 s (block * b) block
  done;
  (d, s)

let request pool p =
  match Proto.request_of ~id:(string_of_int p) ~opts:[] ~case_text:pool.(p) with
  | Ok r -> r
  | Error e -> failwith ("request: " ^ e)

let body_lines lines = String.concat "\n" lines

(* --- the daemon ------------------------------------------------------- *)

let spawn ~spf ~sock ~journal =
  (try Sys.remove sock with Sys_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let cap = string_of_int cache_cap in
  let pid =
    Unix.create_process spf
      [| spf; "serve"; "--socket"; sock; "--cache-journal"; journal; "--sim-cache"; cap;
         "--pass-cache"; cap |]
      devnull devnull devnull
  in
  Unix.close devnull;
  pid

let await_ping sock =
  let deadline = now () +. 60. in
  let rec go () =
    match Client.connect_unix sock with
    | c ->
        let ok = Client.ping c in
        Client.close c;
        if not ok then retry ()
    | exception Unix.Unix_error _ -> retry ()
  and retry () =
    if now () > deadline then failwith "serve: daemon did not answer PING";
    Unix.sleepf 0.0005;
    go ()
  in
  go ()

(* SHUTDOWN, then wait for the exit; SIGKILL if it does not come. *)
let stop ~sock pid =
  (try
     let c = Client.connect_unix sock in
     ignore (Client.shutdown c);
     Client.close c
   with _ -> ());
  let deadline = now () +. 20. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

(* Spawn [setups] daemons on fresh journals, each timed from spawn to the
   first PING reply; all but the last are shut down again. *)
let start ~spf ~scratch =
  let sock = Filename.concat scratch "serve.sock" in
  let rec go i acc =
    let journal = fresh_dir (Filename.concat scratch (Printf.sprintf "serve-journal-%d" i)) in
    let t0 = now () in
    let pid = spawn ~spf ~sock ~journal in
    (try await_ping sock
     with e ->
       stop ~sock pid;
       raise e);
    let acc = (now () -. t0) :: acc in
    if i + 1 < setups then begin
      stop ~sock pid;
      go (i + 1) acc
    end
    else (pid, sock, median acc)
  in
  go 0 []

(* --- the open loop ---------------------------------------------------- *)

type obs = {
  mutable ok : bool;
  mutable latency : float;  (** reply time minus due time *)
  mutable lateness : float;  (** send time minus due time *)
  mutable wire_us : float;  (** client round trip minus server-reported us *)
  mutable status : string;
  mutable body : string;
}

let drive ~sock ~pool sched =
  let m = Array.length sched in
  let obs =
    Array.init m (fun _ ->
        { ok = false; latency = 0.; lateness = 0.; wire_us = 0.; status = "-"; body = "" })
  in
  let clients = Array.init conns (fun _ -> Client.connect_unix sock) in
  let t_start = now () +. 0.05 in
  let worker c =
    let i = ref c in
    while !i < m do
      let due = t_start +. (float !i /. rate) in
      let d = due -. now () in
      if d > 0. then Unix.sleepf d;
      let sent = now () in
      let o = obs.(!i) in
      o.lateness <- sent -. due;
      (match
         Client.submit clients.(c) ~id:(string_of_int !i) ~case_text:pool.(sched.(!i)) ()
       with
      | Ok r when r.Proto.r_err = None ->
          let got = now () in
          o.ok <- true;
          o.latency <- got -. due;
          o.wire_us <- (1e6 *. (got -. sent)) -. float r.Proto.r_us;
          o.status <- r.Proto.r_cache;
          o.body <- body_lines r.Proto.r_body
      | Ok _ | Error _ -> ());
      i := !i + conns
    done
  in
  let threads = Array.init conns (fun c -> Thread.create worker c) in
  Array.iter Thread.join threads;
  let finish = now () in
  Array.iter Client.close clients;
  (obs, finish -. t_start)

let daemon_stats sock =
  let c = Client.connect_unix sock in
  let s = Client.stats c in
  Client.close c;
  match s with Ok l -> l | Error e -> failwith ("serve: STATS: " ^ e)

(* One socket run: spawn, drive, read STATS and the daemon's peak RSS. *)
let socket_run ~spf ~scratch ~pool sched =
  let pid, sock, setup_s = start ~spf ~scratch in
  Fun.protect
    ~finally:(fun () ->
      stop ~sock pid;
      for i = 0 to setups - 1 do
        rm_rf (Filename.concat scratch (Printf.sprintf "serve-journal-%d" i))
      done)
    (fun () ->
      let obs, elapsed = drive ~sock ~pool sched in
      let stats = daemon_stats sock in
      let rss = peak_rss_mb ~pid () in
      (obs, elapsed, stats, rss, setup_s))

(* Every reply body against the in-process pipeline on a private fresh
   cache; returns the failed request count. *)
let check_replies ~expected sched obs =
  let bad = ref 0 in
  Array.iteri
    (fun i o -> if not (o.ok && String.equal o.body (expected sched.(i))) then incr bad)
    obs;
  !bad

let stat stats name = Option.value ~default:0 (List.assoc_opt name stats)

let measure ~spf ~scratch ~seed ~seconds =
  let d, sched = schedule ~seed ~seconds in
  let pool = Loadtest.build_pool ~seed ~distinct:d in
  let obs, elapsed, stats, rss, setup_s = socket_run ~spf ~scratch ~pool sched in
  let cache = Rcache.create ~pass_cap:cache_cap ~sim_cap:cache_cap () in
  let expected =
    Array.init d (fun p ->
        body_lines
          (Service.run ~cache ~ctx:Spf_harness.Runner.null_ctx
             (Service.prepare (request pool p)))
            .Service.body)
  in
  let failed = check_replies ~expected:(Array.get expected) sched obs in
  let good = List.filter (fun o -> o.ok) (Array.to_list obs) in
  let lat = sorted (List.map (fun o -> 1e3 *. o.latency) good) in
  let late = sorted (List.map (fun o -> 1e6 *. o.lateness) (Array.to_list obs)) in
  let count s = List.length (List.filter (fun o -> o.status = s) good) in
  let m = Array.length sched in
  let specs = List.init (min d Fuzzset.sample) (Campaign.spec_of_seed seed) in
  Printf.printf
    "serve: %d requests over %d programs at %.0f req/s offered, %d connections, seed %d\n"
    m d rate conns seed;
  Printf.printf "  replies: cold=%d pass-hit=%d sim-hit=%d failed=%d\n" (count "cold")
    (count "pass-hit") (count "sim-hit") failed;
  let p50_of st =
    median
      (List.filter_map
         (fun o -> if o.status = st then Some (1e3 *. o.latency) else None)
         good)
  in
  Printf.printf "  latency samples: %d (p99 has %d beyond it); p50 sim-hit %.3fms cold %.3fms\n"
    (Array.length lat) (Array.length lat / 100) (p50_of "sim-hit") (p50_of "cold");
  Printf.printf "  generator lateness: p50=%.0fus p99=%.0fus max=%.0fus\n" (percentile late 50.)
    (percentile late 99.) (percentile late 100.);
  Printf.printf "  daemon STATS: sim_evictions=%d shed=%d journal_appends=%d\n"
    (stat stats "sim_evictions")
    (stat stats "shed_conns" + stat stats "shed_requests")
    (stat stats "journal_appends");
  {
    attempted = m;
    failed;
    e2e =
      [
        ("setup_s", setup_s, "s");
        ("cases_per_s", float (List.length good) /. elapsed, "1/s");
        ("p50_ms", percentile lat 50., "ms");
        ("p99_ms", percentile lat 99., "ms");
        ("peak_rss_mb", rss, "MB");
        ("speedup_geomean", Fuzzset.speedup specs, "x");
        ("decided_frac", Fuzzset.decided specs, "fraction");
      ];
    layers = [];
    counters = [];
    wall_s = elapsed;
  }

(* --- the in-process replica of the request stream ---------------------- *)

(* The reply's simulated counters: its [S <field> <n>] lines. *)
let add_reply_stats t body =
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "S"; n; v ] -> Counts.add t ("sim." ^ n) (int_of_string v)
      | _ -> ())
    (String.split_on_char '\n' body)

(* The schedule, sequentially, through [Service.prepare] / [try_hit] /
   [run] on a fresh cache; the first body of each program is kept. *)
let replica ~pool sched d =
  let cache = Rcache.create ~pass_cap:cache_cap ~sim_cap:cache_cap () in
  let bodies = Array.make d "" in
  let t = Counts.create () in
  let keys = Array.make d "" in
  let t0 = now () in
  Array.iteri
    (fun id p ->
      let prepared = Trace.span ~id "serve.prepare" (fun () -> Service.prepare (request pool p)) in
      keys.(p) <- prepared.Service.pass_key;
      let reply =
        match Trace.span ~id "serve.try_hit" (fun () -> Service.try_hit ~cache prepared) with
        | Some r -> r
        | None ->
            Trace.span_as ~id
              (function
                | Some { Service.status = Service.Pass_hit; _ } -> "serve.pass_hit"
                | _ -> "serve.cold")
              (fun () -> Service.run ~cache ~ctx:Spf_harness.Runner.null_ctx prepared)
      in
      let body = body_lines reply.Service.body in
      if bodies.(p) = "" then bodies.(p) <- body
      else if bodies.(p) <> body then Counts.add t "serve.mismatch" 1;
      let status = Service.status_to_string reply.Service.status in
      Counts.add t ("serve." ^ String.map (function '-' -> '_' | c -> c) status) 1;
      add_reply_stats t body)
    sched;
  (now () -. t0, bodies, t, cache, keys)

let fixed ~spf ~scratch ~seed ~seconds ~traced =
  Trace.on := traced;
  let d, sched = schedule ~seed ~seconds in
  let pool = Loadtest.build_pool ~seed ~distinct:d in
  let h0, m0 = Spf_sim.Tape.cache_counters () in
  let wall_s, bodies, t, cache, keys = replica ~pool sched d in
  let h1, m1 = Spf_sim.Tape.cache_counters () in
  let mismatches = Counts.get t "serve.mismatch" in
  if not traced then
    { attempted = Array.length sched; failed = mismatches; e2e = []; layers = [];
      counters = Counts.to_list t; wall_s }
  else begin
    (* The parse [Service.run] repeats on every cold and pass-hit request. *)
    Array.iter
      (fun key ->
        match Rcache.find_pass cache key with
        | Some e ->
            ignore
              (Trace.span "ir.parse" (fun () -> Spf_ir.Parser.parse e.Rcache.tfunc_text))
        | None -> ())
      keys;
    let obs, _, stats, _, _ = socket_run ~spf ~scratch ~pool sched in
    let failed = mismatches + check_replies ~expected:(Array.get bodies) sched obs in
    let good = List.filter (fun o -> o.ok) (Array.to_list obs) in
    let sim_hits = List.length (List.filter (fun o -> o.status = "sim-hit") good) in
    {
      attempted = Array.length sched;
      failed;
      e2e = [];
      layers =
        [
          ("serve.prepare_us", Trace.median_us "serve.prepare", "us");
          ("serve.hit_us", Trace.median_us "serve.try_hit", "us");
          ("serve.wire_us", median (List.map (fun o -> o.wire_us) good), "us");
          ( "serve.p99_ms",
            percentile (sorted (List.map (fun o -> 1e3 *. o.latency) good)) 99.,
            "ms" );
          ("serve.cold_us", Trace.median_us "serve.cold", "us");
          ("serve.pass_hit_us", Trace.median_us "serve.pass_hit", "us");
          ("serve.hit_rate", float sim_hits /. float (max 1 (List.length good)), "fraction");
          ( "serve.evictions",
            float (stat stats "sim_evictions" + stat stats "pass_evictions"),
            "count" );
          ("serve.shed", float (stat stats "shed_conns" + stat stats "shed_requests"), "count");
          ("serve.journal_appends", float (stat stats "journal_appends"), "count");
          ("sim.decode_cache_hits", float (h1 - h0), "count");
          ("sim.decode_cache_misses", float (m1 - m0), "count");
          ("ir.parse_us", Trace.median_us "ir.parse", "us");
        ];
      counters = Counts.to_list t;
      wall_s;
    }
  end
