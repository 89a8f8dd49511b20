(* CDCL solver tests: cross-checks against brute force, classic hard
   instances, incremental use, and the Vec/Heap substrate. *)

module S = Satsolver.Solver
module L = Satsolver.Lit
module V = Satsolver.Vec
module H = Satsolver.Heap

(* -- Lit ---------------------------------------------------------------- *)

let test_lit_roundtrip () =
  for i = 1 to 50 do
    Helpers.check_int "pos" i (L.to_int (L.of_int i));
    Helpers.check_int "neg" (-i) (L.to_int (L.of_int (-i)))
  done;
  Helpers.check_int "var" 4 (L.var (L.of_var 4));
  Helpers.check_bool "neg flips sign" false (L.is_pos (L.neg (L.of_var 3)));
  Helpers.check_int "double neg" (L.of_var 3) (L.neg (L.neg (L.of_var 3)))

let test_lit_zero () =
  Alcotest.check_raises "of_int 0" (Invalid_argument "Lit.of_int: zero")
    (fun () -> ignore (L.of_int 0))

(* -- Vec ---------------------------------------------------------------- *)

let test_vec_basic () =
  let v = V.create () in
  Helpers.check_bool "empty" true (V.is_empty v);
  for i = 0 to 99 do
    V.push v i
  done;
  Helpers.check_int "size" 100 (V.size v);
  Helpers.check_int "get" 42 (V.get v 42);
  V.set v 42 (-1);
  Helpers.check_int "set" (-1) (V.get v 42);
  Helpers.check_int "pop" 99 (V.pop v);
  Helpers.check_int "last after pop" 98 (V.last v);
  V.shrink v 10;
  Helpers.check_int "shrink" 10 (V.size v);
  V.filter_in_place (fun x -> x mod 2 = 0) v;
  Helpers.check_int "filter" 5 (V.size v);
  Helpers.check_bool "exists" true (V.exists (fun x -> x = 4) v);
  V.clear v;
  Helpers.check_bool "cleared" true (V.is_empty v)

let test_vec_swap_remove () =
  let v = V.of_list [ 1; 2; 3; 4 ] in
  V.swap_remove v 0;
  Helpers.check_int "size after swap_remove" 3 (V.size v);
  Helpers.check_int "swapped-in element" 4 (V.get v 0)

let test_vec_fold () =
  let v = V.of_list [ 1; 2; 3 ] in
  Helpers.check_int "fold sum" 6 (V.fold ( + ) 0 v);
  Alcotest.(check (list int)) "to_list" [ 1; 2; 3 ] (V.to_list v)

(* -- Heap --------------------------------------------------------------- *)

let test_heap_order () =
  let score = [| 5.0; 1.0; 9.0; 3.0; 7.0 |] in
  let h = H.create (ref score) in
  List.iter (H.insert h) [ 0; 1; 2; 3; 4 ];
  let order = List.init 5 (fun _ -> Option.get (H.pop_max h)) in
  Alcotest.(check (list int)) "descending by score" [ 2; 4; 0; 3; 1 ] order;
  Helpers.check_bool "empty pop" true (H.pop_max h = None)

let test_heap_update () =
  let score = Array.make 4 0.0 in
  let h = H.create (ref score) in
  List.iter (H.insert h) [ 0; 1; 2; 3 ];
  score.(3) <- 10.0;
  H.update h 3;
  Helpers.check_int "bumped to top" 3 (Option.get (H.pop_max h))

let test_heap_no_duplicates () =
  let h = H.create (ref (Array.make 2 0.0)) in
  H.insert h 1;
  H.insert h 1;
  Helpers.check_int "size" 1 (H.size h)

(* Once the heap's arrays have grown, reordering is pointer and float
   traffic only: a run of [insert]/[update] must not allocate (the
   comparison reads the score array, no closure, no boxed float). *)
let test_heap_no_alloc () =
  let n = 256 in
  let score = ref (Array.make n 0.0) in
  let h = H.create score in
  let fill () =
    for v = 0 to n - 1 do
      H.insert h v
    done
  and bump r =
    for v = 0 to n - 1 do
      !score.(v) <- !score.(v) +. float_of_int ((v * r) mod 7);
      H.update h v
    done
  in
  (* Grow the heap's arrays, then empty it again. *)
  fill ();
  while H.pop_max h <> None do
    ()
  done;
  let before = Gc.minor_words () in
  fill ();
  for r = 1 to 40 do
    bump r
  done;
  let allocated = Gc.minor_words () -. before in
  Helpers.check_int "every variable back in the heap" n (H.size h);
  if allocated > 64. then
    Alcotest.failf
      "heap insert/update allocated %.0f words over %d inserts and %d \
       updates (expected ~0)"
      allocated n (40 * n)

(* -- Solver: brute-force cross-check ------------------------------------ *)

let brute_force_sat nv clauses =
  let sat = ref false in
  for code = 0 to (1 lsl nv) - 1 do
    let value l =
      let b = code land (1 lsl L.var l) <> 0 in
      if L.is_pos l then b else not b
    in
    if List.for_all (fun c -> List.exists value c) clauses then sat := true
  done;
  !sat

let random_clauses st nv nc =
  List.init nc (fun _ ->
      let len = 1 + Random.State.int st 3 in
      List.init len (fun _ ->
          L.of_var ~neg:(Random.State.bool st) (Random.State.int st nv)))

let test_random_cross_check () =
  let st = Random.State.make [| 2024 |] in
  for _ = 1 to 1000 do
    let nv = 1 + Random.State.int st 8 in
    let nc = Random.State.int st 35 in
    let clauses = random_clauses st nv nc in
    let s = S.create () in
    S.ensure_nvars s nv;
    List.iter (S.add_clause s) clauses;
    let expected = brute_force_sat nv clauses in
    let got = S.solve s in
    if got <> expected then
      Alcotest.failf "mismatch: brute=%b cdcl=%b (%d vars, %d clauses)"
        expected got nv nc;
    if got then begin
      (* The model must satisfy every clause. *)
      let ok =
        List.for_all (fun c -> List.exists (fun l -> S.value s l) c) clauses
      in
      Helpers.check_bool "model satisfies clauses" true ok
    end
  done

(* -- Solver: randomized incremental differential ------------------------ *)

(* Clause intake and assumptions under interleaving: clauses arrive
   between solves and carry duplicate literals, complementary pairs and
   literals already fixed at level 0 (by earlier unit clauses), so every
   branch of [add_clause]'s one-pass simplification is taken; solves
   carry assumption lists that may repeat or contradict themselves.
   Each answer is checked against brute force over the clauses so far
   and the assumptions, and each model against both. *)

let holds code l =
  let b = code land (1 lsl L.var l) <> 0 in
  if L.is_pos l then b else not b

let brute_force_under nv clauses assumptions =
  let rec go code =
    code < 1 lsl nv
    && (List.for_all (holds code) assumptions
        && List.for_all (List.exists (holds code)) clauses
       || go (code + 1))
  in
  go 0

let random_lit st nv = L.of_var ~neg:(Random.State.bool st) (Random.State.int st nv)

(* 1 to 12 literals; with some probability a repeat of a drawn
   literal, the negation of one, or a literal on a variable fixed by an
   earlier unit clause (in either polarity). *)
let messy_clause st nv fixed =
  let base = List.init (1 + Random.State.int st 5) (fun _ -> random_lit st nv) in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let extra =
    List.init (Random.State.int st 8) (fun _ ->
        match Random.State.int st 4 with
        | 0 -> pick base
        | 1 -> L.neg (pick base)
        | 2 when fixed <> [] ->
            let l = pick fixed in
            if Random.State.bool st then l else L.neg l
        | _ -> random_lit st nv)
  in
  base @ extra

let messy_assumptions st nv =
  let base = List.init (Random.State.int st 4) (fun _ -> random_lit st nv) in
  match base with
  | l :: _ when Random.State.int st 3 = 0 ->
      (* a repeat, or the assumption contradicted later in the list *)
      base @ [ (if Random.State.bool st then l else L.neg l) ]
  | _ -> base

let test_random_incremental () =
  let st = Random.State.make [| 4242 |] in
  let solves = ref 0 and sats = ref 0 in
  for _ = 1 to 400 do
    let nv = 1 + Random.State.int st 8 in
    let s = S.create () in
    let clauses = ref [] and fixed = ref [] in
    for _ = 1 to 25 do
      if Random.State.int st 5 < 3 then begin
        let c =
          if Random.State.int st 6 = 0 then [ random_lit st nv ]
          else messy_clause st nv !fixed
        in
        (match c with [ l ] -> fixed := l :: !fixed | _ -> ());
        clauses := c :: !clauses;
        S.add_clause s c
      end
      else begin
        let assumptions = messy_assumptions st nv in
        let expected = brute_force_under nv !clauses assumptions in
        let got = S.solve ~assumptions s in
        incr solves;
        if got <> expected then
          Alcotest.failf
            "mismatch: brute=%b cdcl=%b (%d vars, %d clauses, %d assumptions)"
            expected got nv (List.length !clauses) (List.length assumptions);
        if got then begin
          incr sats;
          Helpers.check_bool "model satisfies every clause" true
            (List.for_all (List.exists (S.value s)) !clauses);
          Helpers.check_bool "model satisfies every assumption" true
            (List.for_all (S.value s) assumptions)
        end
      end
    done
  done;
  (* Both answers must actually occur, or the differential is vacuous. *)
  Helpers.check_bool "some solves sat" true (!sats > 100);
  Helpers.check_bool "some solves unsat" true (!solves - !sats > 100)

let test_pigeonhole_unsat () =
  (* PHP(n+1, n) is unsatisfiable and requires real search. *)
  List.iter
    (fun n ->
      let s = S.create () in
      let var p h = (p * n) + h in
      for p = 0 to n do
        S.add_clause s (List.init n (fun h -> L.of_var (var p h)))
      done;
      for h = 0 to n - 1 do
        for p1 = 0 to n do
          for p2 = p1 + 1 to n do
            S.add_clause s
              [ L.of_var ~neg:true (var p1 h); L.of_var ~neg:true (var p2 h) ]
          done
        done
      done;
      Helpers.check_bool (Printf.sprintf "php(%d,%d)" (n + 1) n) false
        (S.solve s))
    [ 3; 4; 5; 6 ]

let test_empty_and_unit () =
  let s = S.create () in
  Helpers.check_bool "empty problem is sat" true (S.solve s);
  S.add_clause s [ L.of_var 0 ];
  Helpers.check_bool "unit sat" true (S.solve s);
  Helpers.check_bool "unit value" true (S.value s (L.of_var 0));
  S.add_clause s [ L.neg (L.of_var 0) ];
  Helpers.check_bool "contradiction" false (S.solve s);
  Helpers.check_bool "ok false" false (S.ok s);
  S.add_clause s [ L.of_var 1 ];
  Helpers.check_bool "still unsat after more clauses" false (S.solve s)

let test_tautological_clause_dropped () =
  let s = S.create () in
  S.add_clause s [ L.of_var 0; L.neg (L.of_var 0) ];
  Helpers.check_bool "taut only" true (S.solve s)

let test_assumptions () =
  let s = S.create () in
  let a = L.of_var (S.new_var s) in
  let b = L.of_var (S.new_var s) in
  S.add_clause s [ L.neg a; b ];
  Helpers.check_bool "sat under a" true (S.solve ~assumptions:[ a ] s);
  Helpers.check_bool "b forced" true (S.value s b);
  Helpers.check_bool "sat under a & ~b is unsat" false
    (S.solve ~assumptions:[ a; L.neg b ] s);
  Helpers.check_bool "solver still usable" true (S.solve s)

let test_assumptions_conflicting () =
  let s = S.create () in
  let a = L.of_var (S.new_var s) in
  Helpers.check_bool "a & ~a assumptions" false
    (S.solve ~assumptions:[ a; L.neg a ] s);
  Helpers.check_bool "still ok" true (S.ok s)

let test_incremental_blocking () =
  (* Enumerate all models of (a | b) & (a | c) by blocking clauses. *)
  let s = S.create () in
  let a = L.of_var (S.new_var s) in
  let b = L.of_var (S.new_var s) in
  let c = L.of_var (S.new_var s) in
  S.add_clause s [ a; b ];
  S.add_clause s [ a; c ];
  let count = ref 0 in
  while S.solve s do
    incr count;
    let block =
      List.map
        (fun l -> if S.value s l then L.neg l else l)
        [ a; b; c ]
    in
    S.add_clause s block
  done;
  (* models: a** (4), ~a b c (1) => 5 *)
  Helpers.check_int "model count" 5 !count

let test_random_3cnf_hard () =
  (* Near the 3-SAT phase transition (ratio ~4.26); checks robustness,
     not a particular outcome. *)
  let st = Random.State.make [| 77 |] in
  for _ = 1 to 5 do
    let nv = 60 in
    let nc = 256 in
    let clauses =
      List.init nc (fun _ ->
          let rec distinct acc =
            if List.length acc = 3 then acc
            else begin
              let v = Random.State.int st nv in
              if List.mem v acc then distinct acc else distinct (v :: acc)
            end
          in
          List.map
            (fun v -> L.of_var ~neg:(Random.State.bool st) v)
            (distinct []))
    in
    let s = S.create () in
    List.iter (S.add_clause s) clauses;
    let sat = S.solve s in
    if sat then begin
      let ok =
        List.for_all (fun cl -> List.exists (fun l -> S.value s l) cl) clauses
      in
      Helpers.check_bool "model valid" true ok
    end
  done

let test_solve_twice_consistent () =
  let s = S.create () in
  let a = L.of_var (S.new_var s) in
  let b = L.of_var (S.new_var s) in
  S.add_clause s [ a; b ];
  Helpers.check_bool "first solve" true (S.solve s);
  let m1 = S.model s in
  Helpers.check_bool "second solve" true (S.solve s);
  let m2 = S.model s in
  Alcotest.(check (array bool)) "same model without new clauses" m1 m2

let test_learnt_clause_pressure () =
  (* Enumerate all models of a 12-variable parity-ish formula by blocking
     clauses: thousands of conflicts exercise learning and DB reduction. *)
  let s = S.create () in
  let n = 12 in
  S.ensure_nvars s n;
  (* x1 xor x2, x3 xor x4, ... : 2^6 models *)
  for i = 0 to (n / 2) - 1 do
    let a = L.of_var (2 * i) and b = L.of_var ((2 * i) + 1) in
    S.add_clause s [ a; b ];
    S.add_clause s [ L.neg a; L.neg b ]
  done;
  let count = ref 0 in
  while S.solve s do
    incr count;
    S.add_clause s
      (List.init n (fun v ->
           let l = L.of_var v in
           if S.value s l then L.neg l else l))
  done;
  Helpers.check_int "2^6 models" 64 !count

let test_ensure_nvars_idempotent () =
  let s = S.create () in
  S.ensure_nvars s 5;
  Helpers.check_int "five vars" 5 (S.nvars s);
  S.ensure_nvars s 3;
  Helpers.check_int "no shrink" 5 (S.nvars s);
  let v = S.new_var s in
  Helpers.check_int "next var" 5 v

(* The stats record must grow monotonically across solve calls, zero on
   [reset_stats], and resume counting afterwards. *)
let test_statistics_monotone () =
  let s = S.create () in
  S.add_clause s [ L.of_var 0; L.of_var 1 ];
  S.add_clause s [ L.neg (L.of_var 0); L.of_var 1 ];
  ignore (S.solve s);
  let st1 = S.stats s in
  Helpers.check_bool "propagations counted" true (st1.S.propagations >= 0);
  Helpers.check_bool "decisions counted" true (st1.S.decisions >= 0);
  Helpers.check_int "legacy getter agrees" st1.S.propagations
    (S.n_propagations s);
  ignore (S.solve s);
  ignore (S.solve ~assumptions:[ L.neg (L.of_var 1) ] s);
  let st2 = S.stats s in
  Helpers.check_bool "decisions monotone" true
    (st2.S.decisions >= st1.S.decisions);
  Helpers.check_bool "propagations monotone" true
    (st2.S.propagations >= st1.S.propagations);
  Helpers.check_bool "conflicts monotone" true
    (st2.S.conflicts >= st1.S.conflicts);
  Helpers.check_bool "learned monotone" true (st2.S.learned >= st1.S.learned);
  Helpers.check_bool "restarts monotone" true
    (st2.S.restarts >= st1.S.restarts);
  (* The unsat-under-assumptions probe must have worked at least once. *)
  Helpers.check_bool "some propagation happened" true
    (st2.S.propagations > 0);
  S.reset_stats s;
  let z = S.stats s in
  Helpers.check_int "reset decisions" 0 z.S.decisions;
  Helpers.check_int "reset propagations" 0 z.S.propagations;
  Helpers.check_int "reset conflicts" 0 z.S.conflicts;
  Helpers.check_int "reset learned" 0 z.S.learned;
  Helpers.check_int "reset restarts" 0 z.S.restarts;
  S.add_clause s [ L.of_var 2 ];
  S.add_clause s [ L.neg (L.of_var 2); L.of_var 3 ];
  ignore (S.solve s);
  let r = S.stats s in
  Helpers.check_bool "counting resumes after reset" true
    (r.S.propagations + r.S.decisions > 0)

(* -- DIMACS -------------------------------------------------------------- *)

let test_dimacs_parse () =
  let text = "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n" in
  let nvars, clauses = Satsolver.Dimacs.parse_string text in
  Helpers.check_int "nvars" 3 nvars;
  Helpers.check_int "nclauses" 2 (List.length clauses);
  let s = S.create () in
  Satsolver.Dimacs.load s clauses;
  Helpers.check_bool "sat" true (S.solve s)

(* Regression: the header's declared variable count must survive even
   when some declared variables appear in no clause, so the CLI's v line
   can cover them (they read false). *)
let test_dimacs_header_vars () =
  let text = "p cnf 5 2\n1 -2 0\n2 3 0\n" in
  let nvars, clauses = Satsolver.Dimacs.parse_string text in
  Helpers.check_int "declared nvars kept" 5 nvars;
  let s = S.create () in
  S.ensure_nvars s nvars;
  Satsolver.Dimacs.load s clauses;
  Helpers.check_bool "sat" true (S.solve s);
  Helpers.check_int "model padded to declared count" 5
    (Array.length (S.model s));
  (* A clause mentioning a variable beyond the header still raises the
     count. *)
  let nvars', _ = Satsolver.Dimacs.parse_string "p cnf 2 1\n1 7 0\n" in
  Helpers.check_int "scan can exceed header" 7 nvars'

(* Malformed input must raise [Parse_error] with the 1-based line number
   of the offending line — the clean-error contract behind `revkb sat`. *)
let test_dimacs_parse_errors () =
  let expect_error name text line msg_part =
    match Satsolver.Dimacs.parse_string text with
    | exception Satsolver.Dimacs.Parse_error { line = l; msg } ->
        Helpers.check_int (name ^ ": line") line l;
        Helpers.check_bool
          (Printf.sprintf "%s: message %S mentions %S" name msg msg_part)
          true
          (Helpers.contains_substring msg msg_part)
    | _ -> Alcotest.failf "%s: expected Parse_error" name
  in
  expect_error "bad token" "p cnf 2 1\n1 x 0\n" 2 "bad token";
  expect_error "bad header arity" "p cnf 2\n1 0\n" 1 "bad header";
  expect_error "negative header count" "p cnf -3 1\n1 0\n" 1 "bad header";
  expect_error "token after comments" "c hi\nc there\np cnf 1 1\n\n1 0\nbad 0\n"
    6 "bad token"

let test_dimacs_roundtrip () =
  let st = Random.State.make [| 3 |] in
  for _ = 1 to 50 do
    let nv = 1 + Random.State.int st 6 in
    let clauses =
      List.filter (fun c -> c <> []) (random_clauses st nv 10)
    in
    let text =
      Format.asprintf "%a" Satsolver.Dimacs.print (nv, clauses)
    in
    let _, clauses' = Satsolver.Dimacs.parse_string text in
    Alcotest.(check int) "clause count survives" (List.length clauses)
      (List.length clauses');
    Helpers.check_bool "same satisfiability"
      (brute_force_sat nv clauses)
      (brute_force_sat nv clauses')
  done

let () =
  Alcotest.run "satsolver"
    [
      ( "lit",
        [
          Alcotest.test_case "roundtrip" `Quick test_lit_roundtrip;
          Alcotest.test_case "zero rejected" `Quick test_lit_zero;
        ] );
      ( "vec",
        [
          Alcotest.test_case "basic ops" `Quick test_vec_basic;
          Alcotest.test_case "swap_remove" `Quick test_vec_swap_remove;
          Alcotest.test_case "fold/to_list" `Quick test_vec_fold;
        ] );
      ( "heap",
        [
          Alcotest.test_case "max order" `Quick test_heap_order;
          Alcotest.test_case "update" `Quick test_heap_update;
          Alcotest.test_case "no duplicates" `Quick test_heap_no_duplicates;
          Alcotest.test_case "insert/update allocate nothing" `Quick
            test_heap_no_alloc;
        ] );
      ( "solver",
        [
          Alcotest.test_case "random cross-check" `Quick
            test_random_cross_check;
          Alcotest.test_case "random incremental differential" `Quick
            test_random_incremental;
          Alcotest.test_case "pigeonhole unsat" `Quick test_pigeonhole_unsat;
          Alcotest.test_case "empty and unit" `Quick test_empty_and_unit;
          Alcotest.test_case "tautology dropped" `Quick
            test_tautological_clause_dropped;
          Alcotest.test_case "assumptions" `Quick test_assumptions;
          Alcotest.test_case "conflicting assumptions" `Quick
            test_assumptions_conflicting;
          Alcotest.test_case "incremental blocking" `Quick
            test_incremental_blocking;
          Alcotest.test_case "hard random 3-CNF" `Slow test_random_3cnf_hard;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "solve twice" `Quick test_solve_twice_consistent;
          Alcotest.test_case "learnt pressure" `Quick
            test_learnt_clause_pressure;
          Alcotest.test_case "ensure_nvars" `Quick
            test_ensure_nvars_idempotent;
          Alcotest.test_case "statistics" `Quick test_statistics_monotone;
        ] );
      ( "dimacs",
        [
          Alcotest.test_case "parse" `Quick test_dimacs_parse;
          Alcotest.test_case "header var count" `Quick
            test_dimacs_header_vars;
          Alcotest.test_case "roundtrip" `Quick test_dimacs_roundtrip;
          Alcotest.test_case "parse errors carry line numbers" `Quick
            test_dimacs_parse_errors;
        ] );
    ]
