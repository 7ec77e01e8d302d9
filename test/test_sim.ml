(* Tests for the discrete-event substrate: the event queue, deterministic
   RNG, statistics, and the engine itself. *)

open Mediactl_sim

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

(* --- event queue ------------------------------------------------------ *)

let drain_values q =
  let rec go acc = if Pqueue.is_empty q then List.rev acc else go (Pqueue.pop_min q :: acc) in
  go []

let test_pqueue_order () =
  let q = Pqueue.create () in
  Pqueue.insert q ~key:3.0 ~seq:0 "c";
  Pqueue.insert q ~key:1.0 ~seq:1 "a";
  Pqueue.insert q ~key:2.0 ~seq:2 "b";
  check tbool "sorted" true (drain_values q = [ "a"; "b"; "c" ])

let test_pqueue_ties_fifo () =
  let q = Pqueue.create () in
  Pqueue.insert q ~key:1.0 ~seq:0 "first";
  Pqueue.insert q ~key:1.0 ~seq:1 "second";
  Pqueue.insert q ~key:1.0 ~seq:2 "third";
  check tbool "fifo among ties" true (drain_values q = [ "first"; "second"; "third" ])

let test_pqueue_size () =
  let q = Pqueue.create () in
  List.iter (fun i -> Pqueue.insert q ~key:(float_of_int i) ~seq:i i) (List.init 10 Fun.id);
  check tint "size" 10 (Pqueue.size q);
  check tbool "peek" true (Pqueue.min_key q = 0.0)

let prop_pqueue_sorted =
  QCheck2.Test.make ~name:"pqueue pops keys in nondecreasing order" ~count:300
    QCheck2.Gen.(list_size (int_range 0 60) (float_range 0.0 100.0))
    (fun keys ->
      let q = Pqueue.create () in
      List.iteri (fun seq k -> Pqueue.insert q ~key:k ~seq k) keys;
      let rec drain last =
        Pqueue.is_empty q
        ||
        let k = Pqueue.pop_min q in
        k >= last && drain k
      in
      drain neg_infinity)

(* Fresh blocks made and dropped in functions of their own, so no
   stack slot of the test keeps one alive. *)
let[@inline never] fill_fresh q weak n =
  for i = 0 to n - 1 do
    let v = Bytes.make 16 'x' in
    Weak.set weak i (Some v);
    Pqueue.insert q ~key:(float_of_int (i mod 4)) ~seq:i v
  done

let[@inline never] pop_and_drop q n =
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Pqueue.pop_min q))
  done

(* A popped value must be collectable while the queue still holds
   others: a slot it vacated may not keep it. *)
let test_pqueue_popped_collectable () =
  let n = 40 and popped = 25 in
  let q = Pqueue.create () in
  let weak = Weak.create n in
  fill_fresh q weak n;
  pop_and_drop q popped;
  Gc.full_major ();
  let ids = List.init n Fun.id in
  (* Value i has key i mod 4 and seq i, so the 25 pops take the ten
     cells of key 0, the ten of key 1 and the first five of key 2. *)
  let queued = List.filter (fun i -> i mod 4 = 3 || (i mod 4 = 2 && i >= 22)) ids in
  check tint "still queued" (n - popped) (Pqueue.size q);
  check (Alcotest.list tint) "only the queued values are reachable" queued
    (List.filter (Weak.check weak) ids)

(* The reference queue for the cases below: a list kept sorted by
   (key, seq), inserted into by a linear walk. *)
module Sorted = struct
  type 'a t = { mutable cells : (float * int * 'a) list }

  let create () = { cells = [] }
  let is_empty m = m.cells = []

  let insert m ~key ~seq v =
    let rec go = function
      | ((k, s, _) as c) :: rest when k < key || (k = key && s < seq) -> c :: go rest
      | cells -> (key, seq, v) :: cells
    in
    m.cells <- go m.cells

  let pop m =
    match m.cells with
    | [] -> None
    | c :: rest ->
      m.cells <- rest;
      Some c

  let min_key m = match m.cells with (k, _, _) :: _ -> Some k | [] -> None
end

(* Pop with the key, for comparison with [Sorted.pop]. *)
let pop_keyed q =
  if Pqueue.is_empty q then None
  else
    let k = Pqueue.min_key q in
    Some (k, Pqueue.pop_min q)

(* Batches and interleavings.  They report under the group name
   twheel, the queue they were first written for, so their results
   compare across runs. *)

let test_queue_order_and_ties () =
  let q = Pqueue.create () in
  Pqueue.insert q ~key:3.0 ~seq:0 "c";
  Pqueue.insert q ~key:1.0 ~seq:1 "a";
  Pqueue.insert q ~key:1.0 ~seq:2 "a2";
  Pqueue.insert q ~key:2.0 ~seq:3 "b";
  check tbool "sorted, fifo ties" true (drain_values q = [ "a"; "a2"; "b"; "c" ])

(* Keys drawn from a small integer grid so equal keys (exercising the
   seq tie-break) are common; each insert is followed by 0-3 pops, so
   the heap is sifted at every size it passes through. *)
let prop_pqueue_interleaved =
  QCheck2.Test.make ~name:"inserts and pops match a sorted list" ~count:500
    QCheck2.Gen.(list_size (int_range 0 80) (pair (int_range 0 400) (int_range 0 3)))
    (fun script ->
      let q = Pqueue.create () and m = Sorted.create () in
      let seq = ref 0 in
      let ok = ref true in
      let pop_both () =
        match (pop_keyed q, Sorted.pop m) with
        | Some (k, v), Some (k', _, v') -> if not (Float.equal k k' && v = v') then ok := false
        | None, None -> ()
        | Some _, None | None, Some _ -> ok := false
      in
      List.iter
        (fun (k, pops) ->
          let key = float_of_int k /. 4.0 in
          Pqueue.insert q ~key ~seq:!seq !seq;
          Sorted.insert m ~key ~seq:!seq !seq;
          incr seq;
          for _ = 1 to pops do
            pop_both ()
          done)
        script;
      while not (Pqueue.is_empty q && Sorted.is_empty m) do
        pop_both ()
      done;
      !ok && Pqueue.size q = 0)

(* Batch draining must be observationally identical to per-event pops:
   [drain_due] takes the maximal equal-earliest-key run, in (key, seq)
   order, and leaves nothing at that key behind. *)
let prop_drain_batch =
  QCheck2.Test.make ~name:"drain_due takes the whole due batch in heap order" ~count:300
    QCheck2.Gen.(list_size (int_range 1 60) (int_range 0 40))
    (fun keys ->
      let q = Pqueue.create () and m = Sorted.create () in
      List.iteri
        (fun seq k ->
          let key = float_of_int k /. 4.0 in
          Pqueue.insert q ~key ~seq seq;
          Sorted.insert m ~key ~seq seq)
        keys;
      let out = Vec.create () in
      let ok = ref true in
      while not (Pqueue.is_empty q) do
        let due = Pqueue.min_key q in
        Vec.clear out;
        let n = Pqueue.drain_due q ~max:max_int out in
        if n = 0 || n <> Vec.length out then ok := false;
        (* The batch is exactly the model's run of [due]-keyed cells. *)
        for i = 0 to n - 1 do
          match Sorted.pop m with
          | Some (k, _, v) -> if not (Float.equal k due) || v <> Vec.get out i then ok := false
          | None -> ok := false
        done;
        (* Nothing at the due key may remain in either queue. *)
        (match Sorted.min_key m with Some k -> if Float.equal k due then ok := false | None -> ());
        if (not (Pqueue.is_empty q)) && Pqueue.min_key q <= due then ok := false
      done;
      !ok && Sorted.is_empty m)

(* The engine pattern over [drain_due]: dispatching a batch makes its
   handlers reschedule at exactly the drained key.  Those cells carry
   higher seqs than the whole batch, so they land in the {e next}
   batch — precisely where per-event popping (reschedule after each
   pop) would deliver them.  Both arms must log the same sequence. *)
let prop_drain_reschedule =
  QCheck2.Test.make ~name:"drain_due with same-key reschedules matches per-pop order"
    ~count:200
    QCheck2.Gen.(list_size (int_range 1 40) (int_range 0 15))
    (fun keys ->
      let cap = List.length keys + 60 in
      let reschedules v = v mod 3 = 0 in
      (* Arm 1: the queue, whole-batch drain, reschedules after drain. *)
      let q = Pqueue.create () in
      let seqq = ref 0 in
      let insq key v =
        Pqueue.insert q ~key ~seq:!seqq v;
        incr seqq
      in
      List.iteri (fun i k -> insq (float_of_int k /. 2.0) i) keys;
      let out = Vec.create () in
      let logq = ref [] in
      let nextq = ref (List.length keys) in
      while not (Pqueue.is_empty q) do
        let due = Pqueue.min_key q in
        Vec.clear out;
        let _ = Pqueue.drain_due q ~max:max_int out in
        Vec.iter
          (fun v ->
            logq := (due, v) :: !logq;
            if reschedules v && !nextq < cap then begin
              insq due !nextq;
              incr nextq
            end)
          out
      done;
      (* Arm 2: the sorted list, one pop (and reschedule) at a time. *)
      let m = Sorted.create () in
      let seqm = ref 0 in
      let insm key v =
        Sorted.insert m ~key ~seq:!seqm v;
        incr seqm
      in
      List.iteri (fun i k -> insm (float_of_int k /. 2.0) i) keys;
      let logm = ref [] in
      let nextm = ref (List.length keys) in
      let continue = ref true in
      while !continue do
        match Sorted.pop m with
        | None -> continue := false
        | Some (k, _, v) ->
          logm := (k, v) :: !logm;
          if reschedules v && !nextm < cap then begin
            insm k !nextm;
            incr nextm
          end
      done;
      !logq = !logm)

(* [max] caps one drain without reordering: the rest of the batch
   stays due and comes out first on the next call. *)
let test_drain_max () =
  let q = Pqueue.create () in
  for seq = 0 to 4 do
    Pqueue.insert q ~key:2.0 ~seq seq
  done;
  Pqueue.insert q ~key:5.0 ~seq:5 5;
  let out = Vec.create () in
  let n1 = Pqueue.drain_due q ~max:2 out in
  check tint "capped drain" 2 n1;
  let n2 = Pqueue.drain_due q ~max:10 out in
  check tint "rest of the batch" 3 n2;
  check tbool "batch in seq order" true (Vec.to_list out = [ 0; 1; 2; 3; 4 ]);
  Vec.clear out;
  let n3 = Pqueue.drain_due q ~max:10 out in
  check tint "next key drains alone" 1 n3;
  check tbool "later key untouched until due" true (Vec.to_list out = [ 5 ])

(* Capped drains leave part of an equal-key batch queued, and the
   inserts between drains land at the key just drained, just after it,
   or further ahead; the sorted list pops the same cells one at a time.
   Each drained cell must be the model's next pop, and a drain that
   stops short of its cap must have taken the whole equal-key run. *)
let prop_capped_drain_merge =
  QCheck2.Test.make ~name:"capped drains merging due inserts match per-event heap pops"
    ~count:300
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 60) (int_range 0 40))
        (list_size (int_range 1 80)
           (pair (int_range 1 8)
              (list_size (int_range 0 3) (pair (int_range 0 2) (int_range 0 12))))))
    (fun (keys, script) ->
      let q = Pqueue.create () and m = Sorted.create () in
      let seq = ref 0 in
      let insert key =
        Pqueue.insert q ~key ~seq:!seq !seq;
        Sorted.insert m ~key ~seq:!seq !seq;
        incr seq
      in
      List.iter (fun k -> insert (float_of_int k /. 4.0)) keys;
      let out = Vec.create () in
      let ok = ref true in
      let script = ref script in
      while not (Pqueue.is_empty q) do
        let cap, inserts =
          match !script with
          | step :: rest ->
            script := rest;
            step
          | [] -> (8, [])
        in
        let due = Pqueue.min_key q in
        Vec.clear out;
        let n = Pqueue.drain_due q ~max:cap out in
        if n < 1 || n > cap then ok := false;
        for i = 0 to n - 1 do
          match Sorted.pop m with
          | Some (k, _, v) -> if not (Float.equal k due) || v <> Vec.get out i then ok := false
          | None -> ok := false
        done;
        (if n < cap then
           match Sorted.min_key m with Some k -> if k <= due then ok := false | None -> ());
        List.iter
          (fun (where, o) ->
            insert
              (match where with
              | 0 -> due
              | 1 -> due +. (float_of_int o /. 13.0)
              | _ -> due +. 1.0 +. (float_of_int o /. 4.0)))
          inserts
      done;
      !ok && Sorted.is_empty m)

(* Churn's t = 0 prefill puts a shard's whole population at one key:
   10,000 cells at one key, drained 64 at a time.  The first pass grows
   the arrays by doubling, a bounded number of words per cell (about
   15 here, counting the major heap, where large arrays go); once they
   have grown, a second pass allocates nothing per insert or per pop. *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let test_due_burst_linear () =
  let n = 10_000 in
  let q = Pqueue.create () in
  let out = Vec.create () in
  let pass () =
    let words0 = allocated_words () in
    for seq = 0 to n - 1 do
      Pqueue.insert q ~key:0.0 ~seq seq
    done;
    let drained = ref 0 in
    while not (Pqueue.is_empty q) do
      Vec.clear out;
      drained := !drained + Pqueue.drain_due q ~max:64 out
    done;
    check tint "every cell drained" n !drained;
    (allocated_words () -. words0) /. float_of_int n
  in
  let growing = pass () in
  let grown = pass () in
  check tbool
    (Printf.sprintf "%.1f words per cell while growing (at most 32)" growing)
    true (growing <= 32.0);
  check tbool (Printf.sprintf "%.2f words per cell once grown (under 1)" grown) true (grown < 1.0)

(* End-to-end: the engine against a per-event reference over the
   sorted list, with handlers that keep scheduling — zero delays,
   which tie with the current time, and equal delays, which tie with
   each other — must deliver the identical event sequence. *)
let test_engine_sched_equiv () =
  let initial = [ 5.0; 1.0; 1.0; 9.0; 0.0; 1.0 ] in
  let reactions v =
    if v >= 40 then []
    else if v mod 3 = 0 then [ (0.0, v + 10); (2.0, v + 11) ]
    else [ (float_of_int (v mod 7), v + 10) ]
  in
  let engine = Engine.create () in
  let log = ref [] in
  List.iteri (fun i d -> Engine.schedule engine ~delay:d i) initial;
  let handler e v =
    log := (Engine.now e, v) :: !log;
    List.iter (fun (d, v') -> Engine.schedule e ~delay:d v') (reactions v)
  in
  let processed = Engine.run engine handler in
  let m = Sorted.create () in
  let seq = ref 0 in
  let schedule ~now d v =
    Sorted.insert m ~key:(now +. d) ~seq:!seq v;
    incr seq
  in
  List.iteri (fun i d -> schedule ~now:0.0 d i) initial;
  let reference = ref [] in
  let continue = ref true in
  while !continue do
    match Sorted.pop m with
    | None -> continue := false
    | Some (now, _, v) ->
      reference := (now, v) :: !reference;
      List.iter (fun (d, v') -> schedule ~now d v') (reactions v)
  done;
  check tint "every event processed" (List.length !reference) processed;
  check tbool "engine matches the per-event reference" true (!log = !reference)

(* --- rng -------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 99 and b = Rng.create 99 in
  let xs = List.init 20 (fun _ -> Rng.next_int64 a) in
  let ys = List.init 20 (fun _ -> Rng.next_int64 b) in
  check tbool "same stream" true (xs = ys)

let test_rng_ranges () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let f = Rng.float rng 10.0 in
    assert (f >= 0.0 && f < 10.0);
    let i = Rng.int rng 7 in
    assert (i >= 0 && i < 7);
    let u = Rng.uniform rng ~lo:3.0 ~hi:4.0 in
    assert (u >= 3.0 && u < 4.0);
    assert (Rng.exponential rng ~mean:5.0 >= 0.0)
  done

let test_rng_mean () =
  let rng = Rng.create 17 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.float rng 1.0
  done;
  let mean = !sum /. float_of_int n in
  check tbool "uniform mean near 0.5" true (abs_float (mean -. 0.5) < 0.02)

(* --- stats ------------------------------------------------------------ *)

let test_stats () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  check tint "count" 5 (Stats.count s);
  check tbool "mean" true (abs_float (Stats.mean s -. 3.0) < 1e-9);
  check tbool "min" true (Stats.min s = 1.0);
  check tbool "max" true (Stats.max s = 5.0);
  check tbool "median" true (Stats.percentile s 0.5 = 3.0)

let test_stats_empty () =
  let s = Stats.create () in
  check tbool "mean 0" true (Stats.mean s = 0.0);
  Alcotest.check_raises "percentile" (Invalid_argument "Stats.percentile: no samples")
    (fun () -> ignore (Stats.percentile s 0.5))

let test_stats_single_sample () =
  let s = Stats.create () in
  Stats.add s 42.0;
  check tint "count" 1 (Stats.count s);
  check tbool "rank 0" true (Stats.percentile s 0.0 = 42.0);
  check tbool "median" true (Stats.percentile s 0.5 = 42.0);
  check tbool "rank 1" true (Stats.percentile s 1.0 = 42.0);
  check tbool "stddev" true (Stats.stddev s = 0.0)

let prop_percentile_extremes =
  QCheck2.Test.make ~name:"percentile ranks 0 and 1 are min and max" ~count:200
    QCheck2.Gen.(list_size (int_range 1 40) (float_range (-50.0) 50.0))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      Stats.percentile s 0.0 = Stats.min s && Stats.percentile s 1.0 = Stats.max s)

(* The boxed-list implementation the array-backed [Stats] replaced,
   kept as its model: newest sample first, sorted on every query. *)
module Stats_model = struct
  type t = { mutable samples : float list; mutable n : int; mutable sum : float; mutable sumsq : float }

  let create () = { samples = []; n = 0; sum = 0.0; sumsq = 0.0 }

  let add t x =
    t.samples <- x :: t.samples;
    t.n <- t.n + 1;
    t.sum <- t.sum +. x;
    t.sumsq <- t.sumsq +. (x *. x)

  let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n

  let stddev t =
    if t.n < 2 then 0.0
    else
      let m = mean t in
      sqrt (Float.max 0.0 ((t.sumsq /. float_of_int t.n) -. (m *. m)))

  let min t = List.fold_left Float.min infinity t.samples
  let max t = List.fold_left Float.max neg_infinity t.samples
  let samples t = List.sort Float.compare t.samples

  let histogram ~bins t =
    if t.n = 0 then []
    else
      let lo = min t and hi = max t in
      let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1.0 in
      let counts = Array.make bins 0 in
      List.iter
        (fun x ->
          let i = Stdlib.min (bins - 1) (int_of_float ((x -. lo) /. width)) in
          counts.(i) <- counts.(i) + 1)
        t.samples;
      List.init bins (fun i ->
          (lo +. (float_of_int i *. width), lo +. (float_of_int (i + 1) *. width), counts.(i)))

  let percentile t p = List.nth (samples t) (int_of_float (p *. float_of_int (t.n - 1)))
end

type stats_op = Add of float | Append of float list | Query of float

(* Everything observable, floats as bit patterns: a sum taken in a
   different order, or two zeros sorted the other way, shows up. *)
let stats_view ~count ~mean ~stddev ~min ~max ~samples ~histogram ~percentile =
  let bits = Int64.bits_of_float in
  ( count,
    bits mean,
    bits stddev,
    bits min,
    bits max,
    List.map bits samples,
    List.map
      (fun bins -> List.map (fun (lo, hi, n) -> (bits lo, bits hi, n)) (histogram bins))
      [ 1; 3; 8 ],
    if count = 0 then [] else List.map (fun p -> bits (percentile p)) [ 0.0; 0.5; 0.95; 1.0 ] )

let view_stats s =
  stats_view ~count:(Stats.count s) ~mean:(Stats.mean s) ~stddev:(Stats.stddev s)
    ~min:(Stats.min s) ~max:(Stats.max s) ~samples:(Stats.samples s)
    ~histogram:(fun bins -> Stats.histogram ~bins s)
    ~percentile:(Stats.percentile s)

let view_model (m : Stats_model.t) =
  stats_view ~count:m.Stats_model.n ~mean:(Stats_model.mean m) ~stddev:(Stats_model.stddev m)
    ~min:(Stats_model.min m) ~max:(Stats_model.max m) ~samples:(Stats_model.samples m)
    ~histogram:(fun bins -> Stats_model.histogram ~bins m)
    ~percentile:(Stats_model.percentile m)

let prop_stats_matches_list_model =
  let sample =
    QCheck2.Gen.(
      frequency
        [
          (3, map float_of_int (int_range (-5) 5));
          (1, oneofl [ 0.0; -0.0; 1e15; -1e-300 ]);
          (4, float_range (-1e6) 1e6);
        ])
  in
  let op =
    QCheck2.Gen.(
      frequency
        [
          (6, map (fun x -> Add x) sample);
          (1, map (fun xs -> Append xs) (list_size (int_range 0 12) sample));
          (2, map (fun p -> Query p) (float_range 0.0 1.0));
        ])
  in
  QCheck2.Test.make ~name:"array-backed Stats matches the boxed-list model bit for bit" ~count:300
    QCheck2.Gen.(list_size (int_range 0 60) op)
    (fun ops ->
      let s = Stats.create () and m = Stats_model.create () in
      let agree = ref true in
      List.iter
        (function
          | Add x ->
            Stats.add s x;
            Stats_model.add m x
          | Append xs ->
            let src = Stats.create () and msrc = Stats_model.create () in
            List.iter (Stats.add src) xs;
            List.iter (Stats_model.add msrc) xs;
            Stats.append s src;
            List.iter (Stats_model.add m) (Stats_model.samples msrc)
          | Query p ->
            if Stats.count s > 0 then begin
              let b = Int64.bits_of_float in
              if b (Stats.percentile s p) <> b (Stats_model.percentile m p) then agree := false
            end;
            if view_stats s <> view_model m then agree := false)
        ops;
      !agree && view_stats s = view_model m)

let prop_exponential_mean =
  QCheck2.Test.make ~name:"exponential is nonnegative with mean near the parameter" ~count:25
    QCheck2.Gen.(pair (int_range 0 10_000) (float_range 0.5 40.0))
    (fun (seed, mean) ->
      let rng = Rng.create seed in
      let n = 4000 in
      let sum = ref 0.0 and nonneg = ref true in
      for _ = 1 to n do
        let x = Rng.exponential rng ~mean in
        if x < 0.0 then nonneg := false;
        sum := !sum +. x
      done;
      let m = !sum /. float_of_int n in
      !nonneg && m > 0.0 && abs_float (m -. mean) < 0.25 *. mean)

(* --- engine ----------------------------------------------------------- *)

let test_engine_order_and_clock () =
  let engine = Engine.create () in
  let log = ref [] in
  Engine.schedule engine ~delay:5.0 "b";
  Engine.schedule engine ~delay:1.0 "a";
  Engine.schedule engine ~delay:9.0 "c";
  let n = Engine.run engine (fun e v -> log := (Engine.now e, v) :: !log) in
  check tint "events" 3 n;
  check tbool "order" true (List.rev !log = [ (1.0, "a"); (5.0, "b"); (9.0, "c") ])

let test_engine_cascade () =
  let engine = Engine.create () in
  let fired = ref 0 in
  Engine.schedule engine ~delay:1.0 3;
  let handler e k =
    incr fired;
    if k > 0 then Engine.schedule e ~delay:1.0 (k - 1)
  in
  let _ = Engine.run engine handler in
  check tint "cascaded" 4 !fired;
  check tbool "clock" true (Engine.now engine = 4.0)

let test_engine_until () =
  let engine = Engine.create () in
  List.iter (fun d -> Engine.schedule engine ~delay:d ()) [ 1.0; 2.0; 3.0; 4.0 ];
  let n = Engine.run engine ~until:2.5 (fun _ () -> ()) in
  check tint "stopped at horizon" 2 n

let test_engine_negative_delay () =
  let engine = Engine.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Engine.schedule: negative delay")
    (fun () -> Engine.schedule engine ~delay:(-1.0) ())

(* A run that empties the queue releases its arrays, so an idle engine
   (a dormant churn resident's) reaches only its own few blocks; a
   later schedule continues from the same clock, and equal times still
   fire in scheduling order. *)
let test_engine_release () =
  let engine = Engine.create () in
  for i = 0 to 99 do
    Engine.schedule engine ~delay:(float_of_int (i mod 7)) i
  done;
  let _ = Engine.run engine (fun _ _ -> ()) in
  let words = Obj.reachable_words (Obj.repr engine) in
  check tbool (Printf.sprintf "%d words reachable when idle (at most 16)" words) true (words <= 16);
  let log = ref [] in
  Engine.schedule engine ~delay:2.0 100;
  Engine.schedule engine ~delay:1.0 101;
  Engine.schedule engine ~delay:2.0 102;
  let _ = Engine.run engine (fun e v -> log := (Engine.now e, v) :: !log) in
  check tbool "continues from the clock, (time, seq) order" true
    (List.rev !log = [ (7.0, 101); (8.0, 100); (8.0, 102) ])

let () =
  Alcotest.run "sim"
    [
      ( "pqueue",
        [
          Alcotest.test_case "ordering" `Quick test_pqueue_order;
          Alcotest.test_case "fifo ties" `Quick test_pqueue_ties_fifo;
          Alcotest.test_case "size/peek" `Quick test_pqueue_size;
          QCheck_alcotest.to_alcotest prop_pqueue_sorted;
          Alcotest.test_case "popped value is collectable" `Quick test_pqueue_popped_collectable;
        ] );
      ( "twheel",
        [
          Alcotest.test_case "ordering and ties" `Quick test_queue_order_and_ties;
          Alcotest.test_case "engine scheduler equivalence" `Quick test_engine_sched_equiv;
          Alcotest.test_case "drain_due max cap" `Quick test_drain_max;
          QCheck_alcotest.to_alcotest prop_pqueue_interleaved;
          QCheck_alcotest.to_alcotest prop_drain_batch;
          QCheck_alcotest.to_alcotest prop_drain_reschedule;
          QCheck_alcotest.to_alcotest prop_capped_drain_merge;
          Alcotest.test_case "due burst allocates linearly" `Quick test_due_burst_linear;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "ranges" `Quick test_rng_ranges;
          Alcotest.test_case "uniform mean" `Quick test_rng_mean;
          QCheck_alcotest.to_alcotest prop_exponential_mean;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "single sample" `Quick test_stats_single_sample;
          QCheck_alcotest.to_alcotest prop_percentile_extremes;
          QCheck_alcotest.to_alcotest prop_stats_matches_list_model;
        ] );
      ( "engine",
        [
          Alcotest.test_case "order and clock" `Quick test_engine_order_and_clock;
          Alcotest.test_case "cascade" `Quick test_engine_cascade;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "negative delay" `Quick test_engine_negative_delay;
          Alcotest.test_case "emptied run releases the queue" `Quick test_engine_release;
        ] );
    ]
