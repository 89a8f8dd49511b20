(* Sample summaries, reply projections and the result line. *)

module Json = Revkb_serve.Json

(* Seconds on the monotonic clock, to the nanosecond: [Unix.gettimeofday]
   steps in whole microseconds, so a percentile of fast requests would
   read the same value run after run. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* A growable sample of floats. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.0; len = 0 }

let push s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let count s = s.len
let total s = Array.fold_left ( +. ) 0.0 (Array.sub s.data 0 s.len)

(* Nearest-rank percentile, [p] in (0, 1]; 0 for an empty sample (a
   layer the workload never reaches). *)
let percentile s p =
  if s.len = 0 then 0.0
  else begin
    let a = Array.sub s.data 0 s.len in
    Array.sort compare a;
    let k = int_of_float (Float.ceil (p *. float_of_int s.len)) - 1 in
    a.(max 0 (min (s.len - 1) k))
  end

let median s = percentile s 0.5

let median_of l =
  let s = samples () in
  List.iter (push s) l;
  median s

let timed lat f x =
  let a = now () in
  let r = f x in
  push lat ((now () -. a) *. 1000.0);
  r

let time_ms f =
  let a = now () in
  let r = f () in
  (r, (now () -. a) *. 1000.0)

(* Set-ups timed per run; their median is [setup_s]. *)
let setups = 9

(* Replay whole passes over [items] through [f] until [seconds] of
   pass time are spent and at least [min_passes] passes are done.
   [between] runs before each pass, given the pass time so far, [after]
   after each pass, given the number of passes done, and [keep] turns a
   pass's results into what is kept of them; none of them is counted as
   pass time.  Returns what was kept of every pass, first pass first,
   and the pass time. *)
let replay ?(between = fun _ -> ()) ?(after = fun _ -> ()) ?(min_passes = 1) ~keep ~seconds f items =
  let spent = ref 0.0 in
  let rec go acc passes =
    between !spent;
    let t0 = now () in
    let r = List.map f items in
    spent := !spent +. (now () -. t0);
    let acc = keep r :: acc in
    after (passes + 1);
    if !spent < seconds || passes + 1 < min_passes then go acc (passes + 1) else List.rev acc
  in
  let all = go [] 0 in
  (all, !spent)

(* The machine's speed drifts over seconds, so set-up is timed [n] times
   spread evenly over the timed phase rather than back to back: the
   first set-up is the one the timed phase runs on, and [spare ()] sets
   up and tears down a throwaway copy, returning its time.  Gives the
   [between] hook for {!replay} and a function returning every time. *)
let spread_setups ~seconds ~n first spare =
  let times = ref [ first ] in
  let between spent =
    let k = List.length !times in
    if k < n && spent >= float_of_int k *. seconds /. float_of_int n then times := spare () :: !times
  in
  let all () =
    while List.length !times < n do
      times := spare () :: !times
    done;
    !times
  in
  (between, all)

(* Peak resident set ([VmHWM]) of a process, in MiB. *)
let vm_hwm_mb status_path =
  let ic = open_in status_path in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* [rss_peak_mb] is read after this many timed passes, not at the end
   of the run: a process whose memory grows with the requests it has
   served would otherwise read higher the faster the machine or the
   commit, and the reading would follow the machine's speed. *)
let rss_passes = 8

(* The [after] hook for {!replay} that reads [status_path]'s peak
   resident set after pass [rss_passes], and a function returning it. *)
let rss_after status_path =
  let rss = ref nan in
  ((fun passes -> if passes = rss_passes then rss := vm_hwm_mb status_path), fun () -> !rss)

(* Everything a run sent and what came back wrong. *)
type tally = { mutable attempted : int; mutable failed : int; mutable problems : string list }

let tally () = { attempted = 0; failed = 0; problems = [] }
let problem t fmt = Printf.ksprintf (fun s -> t.problems <- s :: t.problems) fmt

(* -- library counters -------------------------------------------------------- *)

(* The counters traced runs read around each request of their first
   pass: all kept by the library already. *)
let counter_names =
  [
    "serve.cache.hits";
    "serve.cache.misses";
    "serve.session.builds";
    "sem.env.builds";
    "sem.encode.clauses";
    "sat.solves";
    "sat.conflicts";
    "sat.propagations";
    "pool.tasks";
    "pool.batches";
    "enum.models";
  ]

let read_counters () = List.map (fun n -> Revkb_obs.Obs.value (Revkb_obs.Obs.counter n)) counter_names

(* Counter deltas summed over the calls [counted] wraps while [on]. *)
type counting = { mutable on : bool; mutable deltas : int list }

let counting () = { on = true; deltas = List.map (fun _ -> 0) counter_names }

let counted c f =
  let before = read_counters () in
  let r = f () in
  if c.on then c.deltas <- List.map2 (fun acc (x, y) -> acc + y - x) c.deltas (List.combine before (read_counters ()));
  r

let delta c name = float_of_int (List.assoc name (List.combine counter_names c.deltas))

let alloc_words (q : Gc.stat) = q.minor_words +. q.major_words -. q.promoted_words

(* -- replies --------------------------------------------------------------- *)

(* The answer a reply carries, without sizes, epochs, cache flags or
   timings: what two runs of the same stream must agree on. *)
let rec answer v =
  if Json.bool_member "ok" v <> Some true then
    "error:" ^ Option.value (Json.str_member "error" v) ~default:"?"
  else
    match (Json.member "entails" v, Json.list_member "results" v, Json.list_member "responses" v) with
    | Some (Json.Bool b), _, _ -> if b then "T" else "F"
    | _, Some rs, _ -> String.concat "" (List.map (function Json.Bool true -> "1" | _ -> "0") rs)
    | _, _, Some ms -> "[" ^ String.concat "," (List.map answer ms) ^ "]"
    | _ -> "ok"

(* Error replies in a reply, counting those nested in a batch. *)
let rec errors v =
  if Json.bool_member "ok" v <> Some true then 1
  else
    match Json.list_member "responses" v with
    | Some ms -> List.fold_left (fun acc m -> acc + errors m) 0 ms
    | None -> 0

let digest strings = Digest.to_hex (Digest.string (String.concat "\n" strings))

(* -- the result line ------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

type outcome = { tally : tally; answers : string list; metrics : metric list; counts : (string * float) list }

let json_number x = if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x else Printf.sprintf "%.17g" x

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun m -> Printf.printf "%-28s %14.6f %s\n" m.name m.value m.unit_) metrics;
  let ms =
    List.map
      (fun m -> Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} m.name (json_number m.value) m.unit_)
      metrics
  in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct attempted failed
    (String.concat ", " ms);
  print_newline ()
