(* Seeded fixed-work inputs for the three workloads.

   Everything a run sends is a pure function of (workload, seed): the
   same seed gives a byte-identical request stream, so two runs of the
   same code do the same work and every count they report repeats.
   Requests are rendered here by hand, not through the library's JSON
   renderer, so a change to [Revkb_serve.Json] cannot change what the
   benchmark sends.

   A serve script has two parts: [setup] (daemon load and warm-up,
   untimed) and [pass] (one pass of timed traffic, replayed whole as
   many times as the run length allows). *)

type script = { setup : string list; pass : string list }

(* The structure of every stream (theories, P's, queries, operators,
   request kinds) is drawn from [structure], one fixed generator per
   workload, whatever the seed.  The seed only renames letters: it picks
   a permutation of the letters, applied to the whole stream.  Every
   operator and construction is invariant under renaming, so all seeds
   do the same work up to the names of the letters and the orders that
   follow from names (alphabets are sorted by name). *)
let structure salt = Random.State.make [| 0x5eed; salt |]

(* A random permutation of [1..n]. *)
let permute st n =
  let a = Array.init n (fun k -> k + 1) in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let permutation seed salt n = permute (Random.State.make [| 0x5eed; seed; salt |]) n

(* [s] with every letter [xi], [i <= Array.length perm], renamed to
   [x(perm.(i-1))]; other letters are kept.  Request lines name no other
   word of the form [x<digits>]. *)
let rename perm s =
  let n = String.length s and b = Buffer.create (String.length s) in
  let digit c = c >= '0' && c <= '9' in
  let rec go i =
    if i < n then
      if s.[i] = 'x' && i + 1 < n && digit s.[i + 1] then begin
        let j = ref (i + 1) in
        while !j < n && digit s.[!j] do incr j done;
        let k = int_of_string (String.sub s (i + 1) (!j - i - 1)) in
        Buffer.add_char b 'x';
        Buffer.add_string b (string_of_int (if k <= Array.length perm then perm.(k - 1) else k));
        go !j
      end
      else begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents b

let letter i = Printf.sprintf "x%d" i
let neg i = "~" ^ letter i
let lit st i = if Random.State.bool st then letter i else neg i

(* [k] distinct letters of [1..n], none in [avoid]. *)
let distinct st n ?(avoid = []) k =
  let rec go acc =
    if List.length acc = k then List.rev acc
    else
      let i = 1 + Random.State.int st n in
      if List.mem i acc || List.mem i avoid then go acc else go (i :: acc)
  in
  go []

(* One 3-clause per letter, each holding its own letter positively: the
   all-true assignment satisfies the theory by construction, so every
   revision below has a satisfiable T.  Returns the clauses. *)
let kb_clauses st n =
  List.init n (fun k ->
      let i = k + 1 in
      match distinct st n ~avoid:[ i ] 2 with
      | [ a; b ] -> Printf.sprintf "%s | %s | %s" (letter i) (lit st a) (lit st b)
      | _ -> assert false)

let theory_of clauses = String.concat "; " clauses

(* A revising formula over at most three letters (the bounded
   constructions of Section 6 are exponential in |V(P)| only).  The
   shape is fixed by the caller's schedule, only letters come from
   [st]. *)
let p_formula st n shape =
  match distinct st n 3 with
  | [ a; b; c ] -> (
      match shape mod 4 with
      | 0 -> Printf.sprintf "%s & %s" (neg a) (neg b)
      | 1 -> Printf.sprintf "%s | %s" (neg a) (neg b)
      | 2 -> Printf.sprintf "%s & %s" (neg a) (letter b)
      | _ -> Printf.sprintf "(%s | %s) & %s" (neg a) (neg b) (neg c))
  | _ -> assert false

(* A query of a fixed shape.  Shape 3 weakens [implied] (a formula the
   KB entails) by a random letter, so some answers are [true]. *)
let query_formula st n ~implied shape =
  match distinct st n 2 with
  | [ a; b ] -> (
      match shape mod 4 with
      | 0 -> lit st a
      | 1 -> Printf.sprintf "%s | %s" (lit st a) (lit st b)
      | 2 -> Printf.sprintf "%s & %s" (lit st a) (lit st b)
      | _ -> Printf.sprintf "(%s) | %s" implied (lit st a))
  | _ -> assert false

(* -- request lines --------------------------------------------------------- *)

let load ~id kb theory =
  Printf.sprintf {|{"id":%d,"verb":"load","kb":"%s","theory":"%s"}|} id kb theory

let revise ~id kb op p =
  Printf.sprintf {|{"id":%d,"verb":"revise","kb":"%s","op":"%s","p":"%s"}|} id kb op p

let update ~id kb op p =
  Printf.sprintf {|{"id":%d,"verb":"update","kb":"%s","op":"%s","p":"%s"}|} id kb op p

let query_revised ~id kb op p q =
  Printf.sprintf {|{"id":%d,"verb":"query","kb":"%s","op":"%s","p":"%s","q":"%s"}|} id kb op p q

let query ~id kb q = Printf.sprintf {|{"id":%d,"verb":"query","kb":"%s","q":"%s"}|} id kb q

(* Numbers requests in stream order. *)
let numbered mk = List.mapi (fun id f -> f ~id) mk

(* -- serve-hot ------------------------------------------------------------- *)

let hot_letters = 32
let hot_pool = 24
let hot_pass = 1500
let hot_ops = [| "dalal"; "weber"; "satoh" |]

(* The pool rank of request [i] under a Zipf(1) law over [k] items,
   drawn from a golden-ratio sequence. *)
let zipf_rank k i =
  let w = Array.init k (fun r -> 1.0 /. float_of_int (r + 1)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let u = Float.rem ((float_of_int i +. 0.5) *. 0.6180339887498949) 1.0 *. total in
  let rec go r acc = if r = k - 1 || acc +. w.(r) > u then r else go (r + 1) (acc +. w.(r)) in
  go 0 0.0

(* Request [i]: kind by [i mod 10] (8 revised queries, 1 revise, 1
   plain query), pool entry by Zipf rank, query shape by [i / 10]. *)
let serve_hot seed =
  let st = structure 1 and names = rename (permutation seed 1 hot_letters) in
  let n = hot_letters in
  let clauses = Array.of_list (kb_clauses st n) in
  let pool = Array.init hot_pool (fun i -> (hot_ops.(i mod 3), p_formula st n (i / 3))) in
  let pass =
    List.init hot_pass (fun i ->
        let op, p = pool.(zipf_rank hot_pool i) in
        let shape = i / 10 in
        match i mod 10 with
        | 8 -> fun ~id -> revise ~id "hot" op p
        | 9 ->
            let q = query_formula st n ~implied:clauses.(Random.State.int st n) shape in
            fun ~id -> query ~id "hot" q
        | _ ->
            let q = query_formula st n ~implied:p shape in
            fun ~id -> query_revised ~id "hot" op p q)
  in
  let pass = List.map names (numbered pass) in
  (* Warm-up: one untimed pass after the load, so every pooled revision,
     its session and every query encoding exist before timing starts. *)
  { setup = names (load ~id:0 "hot" (theory_of (Array.to_list clauses))) :: pass; pass }

(* -- serve-churn ----------------------------------------------------------- *)

let churn_letters = 32
let churn_bases = 3
let chain_cap = 2
let churn_rounds = 2
let all_ops = [| "dalal"; "weber"; "satoh"; "winslett"; "forbus"; "borgida" |]
let update_ops = [| "dalal"; "weber"; "satoh" |]

(* Per base theory: load, then [chain_cap] updates, each step followed
   by revise/query traffic with fresh P's so that every revision misses
   the cache, and by plain queries, which rebuild the KB's pooled session
   after each epoch bump.  Operators and P shapes follow fixed rotations
   (the update chains are dalal->weber, satoh->dalal, weber->satoh).
   Reloading a base bumps its epoch, so a replayed pass misses again. *)
let serve_churn seed =
  let st = structure 2 and names = rename (permutation seed 2 churn_letters) in
  let n = churn_letters in
  let bases = List.init churn_bases (fun _ -> theory_of (kb_clauses st n)) in
  let step = ref 0 and updates = ref 0 in
  let next () =
    let k = !step in
    incr step;
    let p = p_formula st n k in
    (all_ops.(k mod Array.length all_ops), p, k)
  in
  let traffic () =
    List.concat
      (List.init churn_rounds (fun _ ->
           let op, p, _ = next () in
           let op', p', k = next () in
           let q = query_formula st n ~implied:p' k in
           let q' = query_formula st n ~implied:p k in
           [
             (fun ~id -> revise ~id "churn" op p);
             (fun ~id -> query_revised ~id "churn" op' p' q);
             (fun ~id -> query ~id "churn" q');
           ]))
  in
  let chain () =
    let u = !updates in
    incr updates;
    let p = p_formula st n u in
    let op = update_ops.(u mod Array.length update_ops) in
    (fun ~id -> update ~id "churn" op p) :: traffic ()
  in
  let pass =
    List.concat_map
      (fun theory ->
        let head = (fun ~id -> load ~id "churn" theory) :: traffic () in
        head @ List.concat (List.init chain_cap (fun _ -> chain ())))
      bases
  in
  (* Set-up brings the daemon up with the first base loaded. *)
  { setup = [ names (load ~id:0 "churn" (List.hd bases)) ]; pass = List.map names (numbered pass) }

(* -- engine-sweep ---------------------------------------------------------- *)

type instance = { width : int; op : string; t : string; p : string }

let engine_free = 12
let engine_widths = [ 12; 16; 24; 40; 70 ]
let engine_pairs = 2

(* Shuffled free letters [1..engine_free]. *)
let shuffle st = permute st engine_free

let clause st ls = "(" ^ String.concat " | " (List.map (lit st) ls) ^ ")"

(* T and P have fixed model counts.  Over the free letters, T pins two
   letters true, ties three disjoint pairs by equivalences and puts a
   clause on each of two more pairs (2^3 * 3^2 = 72 models); P negates
   the two pinned letters (so T and P conflict and every operator has to
   choose), ties two pairs and puts a clause on each of three (2^2 * 3^3
   = 108 models).  [st] picks the letters and signs; the seed renames the
   free letters.  The remaining letters of each width are pinned true in
   both, so the model sets keep their size while the alphabet crosses the
   packed sweep / SAT-walk cutover (20) and the one-word limit (62). *)
let engine_pair st width =
  let pairs_of a b =
    let f = shuffle st in
    let rest = List.filter (fun i -> i <> a && i <> b) (Array.to_list f) in
    List.init 5 (fun k -> (List.nth rest (2 * k), List.nth rest ((2 * k) + 1)))
  in
  let tie (x, y) = Printf.sprintf "(%s <-> %s)" (letter x) (lit st y) in
  let either (x, y) = clause st [ x; y ] in
  let f = shuffle st in
  let a = f.(0) and b = f.(1) in
  let shape ties prs = List.mapi (fun k pr -> if k < ties then tie pr else either pr) prs in
  let pinned = List.init (width - engine_free) (fun k -> letter (engine_free + k + 1)) in
  let t = String.concat " & " ((letter a :: letter b :: shape 3 (pairs_of a b)) @ pinned) in
  let p = String.concat " & " ((neg a :: neg b :: shape 2 (pairs_of a b)) @ pinned) in
  (t, p)

let engine_sweep seed =
  let st = structure 4 and names = rename (permutation seed 4 engine_free) in
  List.concat_map
    (fun width ->
      List.concat
        (List.init engine_pairs (fun _ ->
             let t, p = engine_pair st width in
             List.map (fun op -> { width; op; t = names t; p = names p }) (Array.to_list all_ops))))
    engine_widths

let engine_lines instances =
  List.map (fun i -> Printf.sprintf "%d|%s|%s|%s" i.width i.op i.t i.p) instances
