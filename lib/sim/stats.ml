(* Samples live in a growable unboxed float array, in insertion order;
   [sums] holds the running sum and sum of squares unboxed, so [add]
   allocates only when the array doubles.  [sorted] caches an ascending
   copy for [percentile] and [samples], valid while [sorted_n = n]. *)
type t = {
  mutable data : float array;
  mutable n : int;
  sums : float array;  (* [| sum; sum of squares |] *)
  mutable sorted : float array;
  mutable sorted_n : int;
}

let create () = { data = [||]; n = 0; sums = [| 0.0; 0.0 |]; sorted = [||]; sorted_n = 0 }

let add t x =
  let cap = Array.length t.data in
  if t.n = cap then begin
    let data = Array.make (if cap = 0 then 4 else 2 * cap) 0.0 in
    Array.blit t.data 0 data 0 t.n;
    t.data <- data
  end;
  t.data.(t.n) <- x;
  t.n <- t.n + 1;
  t.sums.(0) <- t.sums.(0) +. x;
  t.sums.(1) <- t.sums.(1) +. (x *. x)

let count t = t.n
let mean t = if t.n = 0 then 0.0 else t.sums.(0) /. float_of_int t.n

let stddev t =
  if t.n < 2 then 0.0
  else
    let m = mean t in
    sqrt (Float.max 0.0 ((t.sums.(1) /. float_of_int t.n) -. (m *. m)))

let fold f init t =
  let acc = ref init in
  for i = 0 to t.n - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let min t = fold Float.min infinity t
let max t = fold Float.max neg_infinity t

(* A stable sort of the samples newest-first: samples that compare
   equal (the two zeros, NaNs) keep the order a sorted newest-first
   list gives them, so results match the list-backed form bit for bit. *)
let sorted t =
  if t.sorted_n <> t.n then begin
    let s = Array.init t.n (fun i -> t.data.(t.n - 1 - i)) in
    Array.stable_sort Float.compare s;
    t.sorted <- s;
    t.sorted_n <- t.n
  end;
  t.sorted

let samples t = Array.to_list (sorted t)

let append dst src =
  let s = sorted src in
  for i = 0 to Array.length s - 1 do
    add dst s.(i)
  done

let histogram ?(bins = 10) t =
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  if t.n = 0 then []
  else
    let lo = min t and hi = max t in
    let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1.0 in
    let counts = Array.make bins 0 in
    for j = 0 to t.n - 1 do
      let i = Stdlib.min (bins - 1) (int_of_float ((t.data.(j) -. lo) /. width)) in
      counts.(i) <- counts.(i) + 1
    done;
    List.init bins (fun i ->
        (lo +. (float_of_int i *. width), lo +. (float_of_int (i + 1) *. width), counts.(i)))

let percentile t p =
  if t.n = 0 then invalid_arg "Stats.percentile: no samples";
  if p < 0.0 || p > 1.0 then invalid_arg "Stats.percentile: rank out of range";
  (sorted t).(int_of_float (p *. float_of_int (t.n - 1)))

let pp ppf t =
  if t.n = 0 then Format.pp_print_string ppf "(no samples)"
  else
    Format.fprintf ppf "n=%d mean=%.2f sd=%.2f min=%.2f max=%.2f" t.n (mean t) (stddev t)
      (min t) (max t)
