(* engine-sweep: in-process model-based revision over all six operators.

   No serve verb reaches [lib/revision] or the packed/wide model
   engines, so this workload calls [Model_based.revise_on] directly on
   the seeded (T, P) pairs of {!Workgen.engine_sweep}, replaying whole
   passes over them.  The traced run splits each revision into its
   enumeration ([Models.enumerate_packed] / [enumerate_wide]) and
   selection ([Model_based.Packed.select] / [Wide.select]) calls. *)

open Logic
open Measure
module MB = Revision.Model_based
module R = Revision.Result
module Obs = Revkb_obs.Obs

type inst = { spec : Workgen.instance; op : MB.op; alpha : Var.t list; t : Formula.t; p : Formula.t }

let prepare (spec : Workgen.instance) =
  let t = Parser.formula_of_string spec.t and p = Parser.formula_of_string spec.p in
  { spec; op = Option.get (MB.of_name spec.op); alpha = Models.alphabet_of [ t; p ]; t; p }

let revise i = MB.revise_on i.op i.alpha i.t i.p

(* The model set, order-free. *)
let answer r =
  digest (List.sort compare (List.map (Format.asprintf "%a" Interp.pp) (R.models r)))

(* Set-up: build and parse the instances, then one warm-up revision per
   alphabet width. *)
let set_up seed =
  let t0 = now () in
  let insts = List.map prepare (Workgen.engine_sweep seed) in
  List.iter
    (fun w -> ignore (revise (List.find (fun i -> i.spec.width = w) insts)))
    Workgen.engine_widths;
  (insts, now () -. t0)

(* Replay passes for [seconds], keeping only each pass's model-set
   digests; every pass must give the first pass's.  Returns the first
   pass's digests and the pass time. *)
let passes ?between ?after ?min_passes tally ~seconds f insts =
  let all, elapsed = replay ?between ?after ?min_passes ~keep:(List.map answer) ~seconds f insts in
  let reference = List.hd all in
  List.iteri
    (fun k got ->
      tally.attempted <- tally.attempted + List.length got;
      if k > 0 && got <> reference then problem tally "engine pass %d: model sets differ from the first pass" (k + 1))
    all;
  (reference, elapsed)

(* Independent routes re-derive the 12-letter revisions: the legacy
   list engine for the operators it handles in well under a second, and
   for Winslett and Borgida (seconds per instance in the legacy engine)
   the pre-session SAT checker, asked about every model of P. *)
let cross_check tally insts reference =
  List.iter2
    (fun i got ->
      if i.spec.width <= 12 then begin
        let agree =
          match i.op with
          | MB.Winslett | MB.Borgida ->
              let r = revise i in
              List.for_all
                (fun n -> Compact.Check.Fresh.model_check i.op i.t i.p n = R.model_check r n)
                (Models.enumerate i.alpha i.p)
          | _ -> answer (MB.Legacy.revise_on i.op i.alpha i.t i.p) = got
        in
        if not agree then problem tally "independent route disagrees on %s/%d" i.spec.op i.spec.width
      end)
    insts reference

let run ~seed ~seconds =
  let tally = tally () in
  Obs.set_enabled false;
  let insts, setup_time = set_up seed in
  let between, setup_times = spread_setups ~seconds ~n:setups setup_time (fun () -> snd (set_up seed)) in
  let after, rss = rss_after "/proc/self/status" in
  let lat = samples () in
  let reference, elapsed = passes ~between ~after ~min_passes:rss_passes tally ~seconds (timed lat revise) insts in
  cross_check tally insts reference;
  let size_mean =
    List.fold_left (fun acc i -> acc +. float_of_int (Formula.size (R.to_dnf (revise i)))) 0.0 insts
    /. float_of_int (List.length insts)
  in
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

(* The enumeration and selection calls [revise_on] makes, timed apart. *)
let layered i (enum_ms, select_ms) =
  let pa = Interp_packed.alphabet i.alpha in
  let time f =
    let a = now () in
    let r = f () in
    (r, (now () -. a) *. 1000.0)
  in
  if Interp_packed.fits pa then begin
    let (ts, ps), e = time (fun () -> (Models.enumerate_packed pa i.t, Models.enumerate_packed pa i.p)) in
    let _, s = time (fun () -> MB.Packed.select i.op ts ps) in
    push enum_ms e;
    push select_ms s
  end
  else begin
    let (ts, ps), e = time (fun () -> (Models.enumerate_wide pa i.t, Models.enumerate_wide pa i.p)) in
    let _, s = time (fun () -> MB.Wide.select i.op pa ts ps) in
    push enum_ms e;
    push select_ms s
  end

let run_traced ~seed ~seconds =
  let tally = tally () in
  let insts, _ = set_up seed in
  let n = float_of_int (List.length insts) in
  (* Untraced, then traced with the layer calls and counters. *)
  Obs.set_enabled false;
  let plain = samples () in
  let reference, _ = passes tally ~seconds:(0.4 *. seconds) (timed plain revise) insts in
  Obs.set_enabled true;
  let traced = samples () and enum_ms = samples () and select_ms = samples () in
  let counts = counting () in
  let alloc = ref 0.0 and majors = ref 0 in
  let step i =
    let q0 = Gc.quick_stat () in
    let r = counted counts (fun () -> timed traced revise i) in
    let q1 = Gc.quick_stat () in
    alloc := !alloc +. alloc_words q1 -. alloc_words q0;
    majors := !majors + q1.major_collections - q0.major_collections;
    layered i (enum_ms, select_ms);
    r
  in
  (* Counters cover the first pass only, so they repeat exactly. *)
  let started = ref 0 in
  let between _ =
    counts.on <- !started = 0;
    incr started
  in
  let got, _ = passes ~between tally ~seconds:(0.6 *. seconds) step insts in
  if got <> reference then problem tally "traced engine pass differs from the untraced one";
  Obs.set_enabled false;
  let c = delta counts in
  let revisions = float_of_int (count traced) in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let zero name unit_ = metric name unit_ 0.0 in
  let metrics =
    [
      zero "serve.parse_us" "us";
      zero "serve.handle_us" "us";
      zero "serve.render_us" "us";
      zero "serve.loop_us" "us";
      zero "serve.cache.hits" "count";
      zero "serve.cache.hit_ratio" "ratio";
      zero "serve.session.builds" "count/req";
      zero "compact.revise_ms" "ms";
      metric "sem.env.builds" "count/req" (c "sem.env.builds" /. n);
      metric "sem.encode.clauses" "count/req" (c "sem.encode.clauses" /. n);
      zero "sem.entails_us" "us";
      metric "sat.solves" "count/req" (c "sat.solves" /. n);
      metric "sat.conflicts" "count/req" (c "sat.conflicts" /. n);
      metric "sat.propagations" "count/req" (c "sat.propagations" /. n);
      metric "pool.tasks_per_batch" "count/batch" (ratio (c "pool.tasks") (c "pool.batches"));
      metric "engine.enumerate_ms" "ms" (median enum_ms);
      metric "engine.select_ms" "ms" (median select_ms);
      metric "enum.models" "count/req" (c "enum.models" /. n);
      metric "gc.alloc_words_per_req" "words/req" (!alloc /. revisions);
      metric "gc.major_per_kreq" "count/kreq" (1000.0 *. float_of_int !majors /. revisions);
      metric "trace.overhead_ratio" "ratio" (ratio (total traced /. revisions) (total plain /. float_of_int (count plain)));
    ]
  in
  { tally; answers = reference; metrics; counts = List.map (fun n -> (n, c n)) counter_names }
