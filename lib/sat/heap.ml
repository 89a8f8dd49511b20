type t = {
  score : float array ref;
  mutable heap : int array; (* variable indices; slots [0, size) in use *)
  mutable size : int;
  mutable pos : int array; (* var -> index in heap, or -1 *)
}

let create score =
  { score; heap = Array.make 16 0; size = 0; pos = Array.make 16 (-1) }

let grow_to t n =
  let cap = Array.length t.pos in
  if n > cap then begin
    let pos' = Array.make (max n (2 * cap)) (-1) in
    Array.blit t.pos 0 pos' 0 cap;
    t.pos <- pos';
    let heap' = Array.make (Array.length pos') 0 in
    Array.blit t.heap 0 heap' 0 t.size;
    t.heap <- heap'
  end

let mem t v = v < Array.length t.pos && t.pos.(v) >= 0
let size t = t.size

(* Variable [a] outranks variable [b].  The scores are read straight out
   of the float array, so a comparison neither calls a closure nor boxes
   a float. *)
let above t a b =
  let s = !(t.score) in
  s.(a) > s.(b)

let place t i v =
  t.heap.(i) <- v;
  t.pos.(v) <- i

(* Sift [v] up from slot [i]: move each parent it outranks down one
   level, then place [v] in the slot left free. *)
let rec sift_up t i v =
  let p = (i - 1) / 2 in
  if i > 0 && above t v t.heap.(p) then begin
    place t i t.heap.(p);
    sift_up t p v
  end
  else place t i v

(* Sift [v] down from slot [i]: move the larger child up while it
   outranks [v]. *)
let rec sift_down t i v =
  let l = (2 * i) + 1 in
  if l >= t.size then place t i v
  else
    let c =
      if l + 1 < t.size && above t t.heap.(l + 1) t.heap.(l) then l + 1 else l
    in
    if above t t.heap.(c) v then begin
      place t i t.heap.(c);
      sift_down t c v
    end
    else place t i v

let insert t v =
  grow_to t (v + 1);
  if t.pos.(v) < 0 then begin
    t.size <- t.size + 1;
    sift_up t (t.size - 1) v
  end

let update t v = if mem t v then sift_up t t.pos.(v) v

let pop_max t =
  if t.size = 0 then None
  else begin
    let top = t.heap.(0) in
    t.size <- t.size - 1;
    t.pos.(top) <- -1;
    if t.size > 0 then sift_down t 0 t.heap.(t.size);
    Some top
  end
