(* A [revkb serve] child driven in a closed loop over its stdin/stdout:
   one request line out, then block until its reply line is back. *)

type t = {
  pid : int;
  to_d : Unix.file_descr;
  from_d : Unix.file_descr;
  chunk : Bytes.t;
  mutable lo : int; (* unread bytes of [chunk] are [lo, hi) *)
  mutable hi : int;
  mutable stopped : bool;
}

let live : t list ref = ref []

(* The daemon runs with exactly the configuration the workload pins:
   inherited REVKB_* variables (job count, stats, trace) are dropped. *)
let child_env () =
  Array.of_list
    (List.filter
       (fun kv -> not (String.length kv >= 6 && String.sub kv 0 6 = "REVKB_"))
       (Array.to_list (Unix.environment ())))

let spawn ~exe ~jobs ~cache_cap =
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let stdout_r, stdout_w = Unix.pipe ~cloexec:true () in
  let argv =
    [| exe; "serve"; "-j"; string_of_int jobs; "--cache-cap"; string_of_int cache_cap |]
  in
  let pid = Unix.create_process_env exe argv (child_env ()) stdin_r stdout_w Unix.stderr in
  Unix.close stdin_r;
  Unix.close stdout_w;
  let d =
    { pid; to_d = stdin_w; from_d = stdout_r; chunk = Bytes.create 65536; lo = 0; hi = 0; stopped = false }
  in
  live := d :: !live;
  d

let rec write_all fd s off =
  if off < String.length s then
    let n = Unix.write_substring fd s off (String.length s - off) in
    write_all fd s (off + n)

let read_line d =
  let buf = Buffer.create 256 in
  let rec go () =
    if d.lo = d.hi then begin
      let n = Unix.read d.from_d d.chunk 0 (Bytes.length d.chunk) in
      if n = 0 then failwith "revkb serve closed its output";
      d.lo <- 0;
      d.hi <- n
    end;
    match Bytes.index_from_opt d.chunk d.lo '\n' with
    | Some i when i < d.hi ->
        Buffer.add_subbytes buf d.chunk d.lo (i - d.lo);
        d.lo <- i + 1
    | _ ->
        Buffer.add_subbytes buf d.chunk d.lo (d.hi - d.lo);
        d.lo <- d.hi;
        go ()
  in
  go ();
  Buffer.contents buf

(* One request: send the line, wait for the reply line. *)
let rpc d line =
  write_all d.to_d (line ^ "\n") 0;
  read_line d

let rec wait_pid pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_pid pid

(* Ask for a clean shutdown, then reap the child. *)
let stop d =
  if not d.stopped then begin
    d.stopped <- true;
    live := List.filter (fun x -> x != d) !live;
    (try ignore (rpc d {|{"verb":"shutdown"}|}) with _ -> Unix.kill d.pid Sys.sigkill);
    (try Unix.close d.to_d with Unix.Unix_error _ -> ());
    (try Unix.close d.from_d with Unix.Unix_error _ -> ());
    wait_pid d.pid
  end

(* On any exit path, no daemon outlives the benchmark. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun d ->
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          wait_pid d.pid)
        !live)
