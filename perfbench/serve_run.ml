(* The two serve workloads.

   Untraced run (the end-to-end metrics): the real [revkb serve] binary,
   driven by this one client in a closed loop, with the workload's
   pinned [-j] and [--cache-cap].  After set-up (spawn, load, warm-up)
   the daemon replays whole passes of the fixed request stream until the
   run length is used up; set-up is timed [setups] times in all, spread
   over the run, and reported as a median.

   Traced run (the per-layer metrics): the same script, first through an
   untraced daemon (client latency), then in-process with instrumentation
   on, where this file times the calls into each layer's public
   functions and reads the counters the library already keeps; last
   in-process with instrumentation off, for the tracing overhead. *)

open Logic
open Measure
module Json = Revkb_serve.Json
module Server = Revkb_serve.Server
module Registry = Revkb_serve.Registry
module Obs = Revkb_obs.Obs
module MB = Revision.Model_based
module Session = Semantics.Session

type xcheck =
  | Recompute  (** answers equal those of a [--cache-cap 1] daemon *)
  | Nothing

type cfg = { jobs : int; cache_cap : int; script : Workgen.script; xcheck : xcheck }

(* Validate a block of replies; returns their answers. *)
let answers tally replies =
  List.map
    (fun r ->
      tally.attempted <- tally.attempted + 1;
      match Json.parse r with
      | v ->
          let e = errors v in
          if e > 0 then begin
            tally.failed <- tally.failed + 1;
            problem tally "error reply: %s" r
          end;
          answer v
      | exception Json.Parse_error d ->
          tally.failed <- tally.failed + 1;
          problem tally "unparsable reply (%s): %s" d r;
          "unparsable")
    replies

(* Every replayed pass must answer exactly as the first one did. *)
let same_answers tally what reference got =
  if got <> reference then problem tally "%s: answers differ from the first pass" what

let sizes replies =
  List.filter_map (fun r -> Json.int_member "size" (Json.parse r)) replies

(* -- correctness cross-checks ---------------------------------------------- *)

let recompute_sample = 300

(* Cached answers must equal recomputed ones: a capacity-1 daemon
   alternating keys recomputes nearly every revision. *)
let cross_recompute tally ~exe cfg pass_answers =
  let d = Daemon.spawn ~exe ~jobs:cfg.jobs ~cache_cap:1 in
  let load = List.hd cfg.script.setup in
  let sample = List.filteri (fun i _ -> i < recompute_sample) cfg.script.pass in
  let got = answers tally (List.map (Daemon.rpc d) (load :: sample)) in
  Daemon.stop d;
  let expect = "ok" :: List.filteri (fun i _ -> i < recompute_sample) pass_answers in
  same_answers tally "cache-cap 1 daemon" expect got

let str v k = Option.get (Json.str_member k v)

let cross_check tally ~exe cfg pass_answers =
  match cfg.xcheck with
  | Recompute -> cross_recompute tally ~exe cfg pass_answers
  | Nothing -> ()

(* Spawn a daemon and send the set-up script; returns it with the
   set-up replies and the wall time. *)
let set_up tally ~exe cfg =
  let t0 = now () in
  let d = Daemon.spawn ~exe ~jobs:cfg.jobs ~cache_cap:cfg.cache_cap in
  let replies = List.map (Daemon.rpc d) cfg.script.setup in
  let dt = now () -. t0 in
  ignore (answers tally replies);
  (d, replies, dt)

(* Replay passes through the daemon; checks every pass against the
   first and returns the first pass's replies and answers. *)
let daemon_passes ?between ?after ?min_passes tally ~seconds lat d pass =
  let all, elapsed = replay ?between ?after ?min_passes ~keep:Fun.id ~seconds (timed lat (Daemon.rpc d)) pass in
  let first = List.hd all in
  let reference = answers tally first in
  List.iteri
    (fun i r -> if i > 0 then same_answers tally (Printf.sprintf "pass %d" (i + 1)) reference (answers tally r))
    all;
  (first, reference, elapsed)

let mean l = if l = [] then 0.0 else List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* -- untraced run ---------------------------------------------------------- *)

let run ~exe ~seconds cfg =
  let tally = tally () in
  let d, setup_replies, setup_time = set_up tally ~exe cfg in
  let spare () =
    let d, _, dt = set_up tally ~exe cfg in
    Daemon.stop d;
    dt
  in
  let between, setup_times = spread_setups ~seconds ~n:setups setup_time spare in
  let after, rss = rss_after (Printf.sprintf "/proc/%d/status" d.pid) in
  let lat = samples () in
  let first, reference, elapsed =
    daemon_passes ~between ~after ~min_passes:rss_passes tally ~seconds lat d cfg.script.pass
  in
  Daemon.stop d;
  cross_check tally ~exe cfg reference;
  let size_mean = mean (List.map float_of_int (sizes (setup_replies @ first))) in
  {
    tally;
    answers = reference;
    counts = [];
    metrics =
      [
        metric "setup_s" "s" (median_of (setup_times ()));
        metric "lat_p50_ms" "ms" (percentile lat 0.50);
        metric "lat_p90_ms" "ms" (percentile lat 0.90);
        metric "lat_p99_ms" "ms" (percentile lat 0.99);
        metric "req_per_s" "1/s" (float_of_int (count lat) /. elapsed);
        metric "revised_size_mean" "occurrences" size_mean;
        metric "rss_peak_mb" "MiB" (rss ());
      ];
  }

(* -- traced run ------------------------------------------------------------ *)

let compact_revise op t p =
  match op with
  | MB.Dalal -> Compact.Dalal_compact.revise t p
  | MB.Weber -> Compact.Weber_compact.revise t p
  | MB.Winslett | MB.Borgida | MB.Forbus | MB.Satoh -> Compact.Iterated_bounded.for_op op t [ p ]

(* Per-layer timings, taken by calling each layer's public entry point
   from here on the same inputs the request just used. *)
type layers = {
  parse : samples;
  handle : samples;
  render : samples;
  whole : samples; (* parse + handle + render *)
  revise_ms : samples;
  entails_us : samples;
  mutable alloc : float;
  mutable majors : int;
  mutable requests : int;
  mirrors : (string, Session.t) Hashtbl.t;
}

let layers () =
  {
    parse = samples ();
    handle = samples ();
    render = samples ();
    whole = samples ();
    revise_ms = samples ();
    entails_us = samples ();
    alloc = 0.0;
    majors = 0;
    requests = 0;
    mirrors = Hashtbl.create 64;
  }

let mirror l key build =
  match Hashtbl.find_opt l.mirrors key with
  | Some s -> s
  | None ->
      let f = build () in
      let s = Session.create ~vars:(Var.Set.elements (Formula.vars f)) () in
      Session.assert_always s f;
      Hashtbl.replace l.mirrors key s;
      s

(* The layer calls behind one request, made after [Server.handle]
   answered it; [t] and [epoch] are the KB as the request found it.  A
   compact construction is timed only where the server missed. *)
let shadow l req resp ~t ~epoch =
  let op () = Option.get (MB.of_name (str req "op")) in
  let p () = Parser.formula_of_string (str req "p") in
  let missed = Json.bool_member "cached" resp = Some false in
  let revised () =
    let rf, ms = time_ms (fun () -> compact_revise (op ()) t (p ())) in
    if missed then push l.revise_ms ms;
    rf
  in
  match Json.str_member "verb" req with
  | Some ("revise" | "update") -> if missed then ignore (revised ())
  | Some "query" ->
      let q = Parser.formula_of_string (str req "q") in
      let kb = Printf.sprintf "%s@%d" (str req "kb") epoch in
      let s =
        if Json.member "op" req = None then mirror l kb (fun () -> t)
        else
          let key = Printf.sprintf "%s|%s|%s" kb (str req "op") (str req "p") in
          let rf = if missed || not (Hashtbl.mem l.mirrors key) then Some (revised ()) else None in
          mirror l key (fun () -> Option.get rf)
      in
      let _, ms = time_ms (fun () -> Session.entails s q) in
      push l.entails_us (ms *. 1000.0)
  | _ -> ()

(* The KB a request addresses, as the request finds it. *)
let kb_state srv req =
  match Json.str_member "kb" req with
  | None -> (Formula.top, -1)
  | Some name -> (
      match Registry.find (Server.registry srv) name with
      | Some e -> (e.formula, e.epoch)
      | None -> (Formula.top, -1))

(* One in-process request through the three layer entry points. *)
let in_process l srv line =
  let q0 = Gc.quick_stat () in
  let a = now () in
  let req = Json.parse line in
  let b = now () in
  let resp = Server.handle srv req in
  let c = now () in
  let out = Json.render resp in
  let d = now () in
  let q1 = Gc.quick_stat () in
  push l.parse ((b -. a) *. 1e6);
  push l.handle ((c -. b) *. 1e6);
  push l.render ((d -. c) *. 1e6);
  push l.whole ((d -. a) *. 1e6);
  l.alloc <- l.alloc +. alloc_words q1 -. alloc_words q0;
  l.majors <- l.majors + q1.major_collections - q0.major_collections;
  l.requests <- l.requests + 1;
  (req, resp, out)

let run_traced ~exe ~seconds cfg =
  let tally = tally () in
  (* Phase 1: the untraced daemon, for the client-side latency. *)
  let d, _, _ = set_up tally ~exe cfg in
  let client = samples () in
  let _, reference, _ = daemon_passes tally ~seconds:(0.3 *. seconds) client d cfg.script.pass in
  Daemon.stop d;
  (* Phase 2: in-process with instrumentation on, at the daemon's job
     count. *)
  Revkb_parallel.Pool.set_default_jobs cfg.jobs;
  Obs.set_enabled true;
  let srv = Server.create ~cache_cap:cfg.cache_cap () in
  ignore (answers tally (List.map (Server.handle_line srv) cfg.script.setup));
  let traced = layers () and counts = counting () in
  let step line =
    let req = Json.parse line in
    let t, epoch = kb_state srv req in
    let _, resp, out = counted counts (fun () -> in_process traced srv line) in
    shadow traced req resp ~t ~epoch;
    out
  in
  let started = ref 0 in
  let between _ =
    (* Counters cover the first pass only, so they repeat exactly. *)
    counts.on <- !started = 0;
    incr started;
    Hashtbl.reset traced.mirrors
  in
  let all, _ = replay ~between ~keep:Fun.id ~seconds:(0.45 *. seconds) step cfg.script.pass in
  List.iter (fun got -> same_answers tally "in-process traced pass" reference (answers tally got)) all;
  (* Phase 3: in-process with instrumentation off, for the overhead. *)
  Obs.set_enabled false;
  let srv0 = Server.create ~cache_cap:cfg.cache_cap () in
  ignore (answers tally (List.map (Server.handle_line srv0) cfg.script.setup));
  let plain = layers () in
  let all, _ =
    replay ~keep:Fun.id ~seconds:(0.25 *. seconds) (fun line -> let _, _, out = in_process plain srv0 line in out) cfg.script.pass
  in
  List.iter (fun got -> same_answers tally "in-process untraced pass" reference (answers tally got)) all;
  let n = float_of_int (List.length cfg.script.pass) in
  let c = delta counts in
  let per_req name = c name /. n in
  let lookups = c "serve.cache.hits" +. c "serve.cache.misses" in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let metrics =
    [
      metric "serve.parse_us" "us" (median traced.parse);
      metric "serve.handle_us" "us" (median traced.handle);
      metric "serve.render_us" "us" (median traced.render);
      metric "serve.loop_us" "us" ((median client *. 1000.0) -. median plain.whole);
      metric "serve.cache.hits" "count" (c "serve.cache.hits");
      metric "serve.cache.hit_ratio" "ratio" (ratio (c "serve.cache.hits") lookups);
      metric "serve.session.builds" "count/req" (per_req "serve.session.builds");
      metric "compact.revise_ms" "ms" (median traced.revise_ms);
      metric "sem.env.builds" "count/req" (per_req "sem.env.builds");
      metric "sem.encode.clauses" "count/req" (per_req "sem.encode.clauses");
      metric "sem.entails_us" "us" (median traced.entails_us);
      metric "sat.solves" "count/req" (per_req "sat.solves");
      metric "sat.conflicts" "count/req" (per_req "sat.conflicts");
      metric "sat.propagations" "count/req" (per_req "sat.propagations");
      metric "pool.tasks_per_batch" "count/batch" (ratio (c "pool.tasks") (c "pool.batches"));
      metric "engine.enumerate_ms" "ms" 0.0;
      metric "engine.select_ms" "ms" 0.0;
      metric "enum.models" "count/req" (per_req "enum.models");
      metric "gc.alloc_words_per_req" "words/req" (traced.alloc /. float_of_int traced.requests);
      metric "gc.major_per_kreq" "count/kreq" (1000.0 *. float_of_int traced.majors /. float_of_int traced.requests);
      metric "trace.overhead_ratio" "ratio" (ratio (total traced.whole /. float_of_int traced.requests) (total plain.whole /. float_of_int plain.requests));
    ]
  in
  { tally; answers = reference; metrics; counts = List.map (fun n -> (n, c n)) counter_names }
