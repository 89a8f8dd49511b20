(* The repo benchmark: one seeded, fixed-work workload per invocation.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--revkb EXE]

   Prints the run's stream and answer digests, a metric table, and as
   its last line one JSON object: [correct], [attempted], [failed] and
   the metrics (end-to-end ones with [--trace 0], per-layer ones with
   [--trace 1]).  Exits 1 when any answer is wrong.  See README.md. *)

module Pool = Revkb_parallel.Pool

type workload = Serve of (int -> Serve_run.cfg) | Engine of int

(* Job counts and cache capacities are part of each workload's
   definition, never the machine default. *)
let workloads =
  [
    ( "serve-hot",
      Serve (fun seed -> { jobs = 1; cache_cap = 64; script = Workgen.serve_hot seed; xcheck = Recompute }) );
    ( "serve-churn",
      Serve (fun seed -> { jobs = 1; cache_cap = 64; script = Workgen.serve_churn seed; xcheck = Nothing }) );
    ("engine-sweep", Engine 1);
  ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload (serve-hot|serve-churn|engine-sweep) --seed N --seconds S \
     --trace 0|1 [--revkb EXE]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let exe = ref "_build/default/bin/revkb.exe" in
  let rec args = function
    | "--workload" :: v :: rest -> workload := v; args rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; args rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; args rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); args rest
    | "--revkb" :: v :: rest -> exe := v; args rest
    | [] -> ()
    | _ -> usage ()
  in
  args (List.tl (Array.to_list Sys.argv));
  let seed, seconds, trace =
    match (!seed, !seconds, !trace) with
    | Some a, Some b, Some c when b > 0.0 -> (a, b, c)
    | _ -> usage ()
  in
  let outcome, stream =
    match List.assoc_opt !workload workloads with
    | None -> usage ()
    | Some (Serve mk) ->
        let cfg = mk seed in
        if not (Sys.file_exists !exe) then begin
          Printf.eprintf "bench: no revkb binary at %s\n" !exe;
          exit 2
        end;
        Printf.printf "workload %s seed %d: revkb serve -j %d --cache-cap %d\n" !workload seed cfg.jobs
          cfg.cache_cap;
        let o = (if trace then Serve_run.run_traced else Serve_run.run) ~exe:!exe ~seconds cfg in
        (o, cfg.script.setup @ cfg.script.pass)
    | Some (Engine jobs) ->
        Pool.set_default_jobs jobs;
        Printf.printf "workload %s seed %d: in-process, %d jobs\n" !workload seed jobs;
        let o = (if trace then Engine_run.run_traced else Engine_run.run) ~seed ~seconds in
        (o, Workgen.engine_lines (Workgen.engine_sweep seed))
  in
  let tally = outcome.tally in
  Printf.printf "stream %s\nanswers %s\n" (Measure.digest stream) (Measure.digest outcome.answers);
  if outcome.counts <> [] then
    print_endline
      ("counts " ^ String.concat " " (List.map (fun (n, v) -> Printf.sprintf "%s=%.0f" n v) outcome.counts));
  List.iter (fun p -> prerr_endline ("bench: " ^ p)) (List.rev tally.problems);
  let correct = tally.problems = [] && tally.failed = 0 in
  Measure.print_result ~correct ~attempted:tally.attempted ~failed:tally.failed outcome.metrics;
  exit (if correct then 0 else 1)
