(* Tests for the discrete-event substrate: priority queue, deterministic
   RNG, statistics, and the engine itself. *)

open Mediactl_sim

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

(* --- priority queue -------------------------------------------------- *)

let test_pqueue_order () =
  let q = Pqueue.empty in
  let q = Pqueue.insert q ~key:3.0 ~seq:0 "c" in
  let q = Pqueue.insert q ~key:1.0 ~seq:1 "a" in
  let q = Pqueue.insert q ~key:2.0 ~seq:2 "b" in
  let rec drain q acc =
    match Pqueue.pop q with
    | None -> List.rev acc
    | Some ((_, _, v), q) -> drain q (v :: acc)
  in
  check tbool "sorted" true (drain q [] = [ "a"; "b"; "c" ])

let test_pqueue_ties_fifo () =
  let q = Pqueue.empty in
  let q = Pqueue.insert q ~key:1.0 ~seq:0 "first" in
  let q = Pqueue.insert q ~key:1.0 ~seq:1 "second" in
  let q = Pqueue.insert q ~key:1.0 ~seq:2 "third" in
  let rec drain q acc =
    match Pqueue.pop q with
    | None -> List.rev acc
    | Some ((_, _, v), q) -> drain q (v :: acc)
  in
  check tbool "fifo among ties" true (drain q [] = [ "first"; "second"; "third" ])

let test_pqueue_size () =
  let q = List.fold_left (fun q i -> Pqueue.insert q ~key:(float_of_int i) ~seq:i i)
      Pqueue.empty (List.init 10 Fun.id) in
  check tint "size" 10 (Pqueue.size q);
  check tbool "peek" true (Pqueue.peek_key q = Some 0.0)

let prop_pqueue_sorted =
  QCheck2.Test.make ~name:"pqueue pops keys in nondecreasing order" ~count:300
    QCheck2.Gen.(list_size (int_range 0 60) (float_range 0.0 100.0))
    (fun keys ->
      let q =
        List.fold_left
          (fun (q, seq) k -> (Pqueue.insert q ~key:k ~seq (), seq + 1))
          (Pqueue.empty, 0) keys
        |> fst
      in
      let rec drain q last =
        match Pqueue.pop q with
        | None -> true
        | Some ((k, _, ()), q) -> k >= last && drain q k
      in
      drain q neg_infinity)

(* --- timer wheel ------------------------------------------------------ *)

(* The wheel must be observationally identical to the reference heap:
   same (key, seq, value) pop sequence, including the FIFO tie-break at
   equal keys, under any interleaving of inserts and pops. *)

let pop_heap h =
  match Pqueue.pop !h with
  | None -> None
  | Some ((k, s, v), rest) ->
    h := rest;
    Some (k, s, v)

let test_twheel_order_and_ties () =
  let w = Twheel.create () in
  Twheel.insert w ~key:3.0 ~seq:0 "c";
  Twheel.insert w ~key:1.0 ~seq:1 "a";
  Twheel.insert w ~key:1.0 ~seq:2 "a2";
  Twheel.insert w ~key:2.0 ~seq:3 "b";
  let rec drain acc =
    match Twheel.pop w with
    | None -> List.rev acc
    | Some (_, _, v) -> drain (v :: acc)
  in
  check tbool "sorted, fifo ties" true (drain [] = [ "a"; "a2"; "b"; "c" ])

(* Keys drawn from a small integer grid so equal keys (exercising the
   seq tie-break) are common; each insert is followed by 0-3 pops so
   cursor advance interleaves with placement. *)
let prop_twheel_heap_equiv =
  QCheck2.Test.make ~name:"timer wheel pops exactly like the leftist heap" ~count:500
    QCheck2.Gen.(
      pair
        (float_range 0.05 8.0)
        (list_size (int_range 0 80) (pair (int_range 0 400) (int_range 0 3))))
    (fun (resolution, script) ->
      let w = Twheel.create ~resolution () in
      let h = ref Pqueue.empty in
      let seq = ref 0 in
      let ok = ref true in
      let pop_both () = if Twheel.pop w <> pop_heap h then ok := false in
      List.iter
        (fun (k, pops) ->
          let key = float_of_int k /. 4.0 in
          Twheel.insert w ~key ~seq:!seq !seq;
          h := Pqueue.insert !h ~key ~seq:!seq !seq;
          incr seq;
          for _ = 1 to pops do
            pop_both ()
          done)
        script;
      while not (Twheel.is_empty w) || Pqueue.size !h > 0 do
        pop_both ()
      done;
      !ok && Twheel.pop w = None)

(* Far-future keys spill into the overflow list and are rebased back
   onto the levels as the cursor reaches them. *)
let prop_twheel_overflow =
  QCheck2.Test.make ~name:"timer wheel overflow horizon preserves heap order" ~count:100
    QCheck2.Gen.(list_size (int_range 0 40) (float_range 0.0 5e12))
    (fun keys ->
      let w = Twheel.create ~resolution:1.0 () in
      let h = ref Pqueue.empty in
      List.iteri
        (fun seq key ->
          Twheel.insert w ~key ~seq ();
          h := Pqueue.insert !h ~key ~seq ())
        keys;
      let ok = ref true in
      while not (Twheel.is_empty w) do
        if Twheel.pop w <> pop_heap h then ok := false
      done;
      !ok && pop_heap h = None)

(* Batch draining must be observationally identical to per-event pops:
   [drain_due] takes the maximal equal-earliest-key run, in (key, seq)
   order, and leaves nothing at that key behind. *)
let prop_twheel_drain_batch =
  QCheck2.Test.make ~name:"drain_due takes the whole due batch in heap order" ~count:300
    QCheck2.Gen.(
      pair (float_range 0.05 8.0) (list_size (int_range 1 60) (int_range 0 40)))
    (fun (resolution, keys) ->
      let w = Twheel.create ~resolution () in
      let h = ref Pqueue.empty in
      List.iteri
        (fun seq k ->
          let key = float_of_int k /. 4.0 in
          Twheel.insert w ~key ~seq seq;
          h := Pqueue.insert !h ~key ~seq seq)
        keys;
      let out = Vec.create () in
      let ok = ref true in
      while not (Twheel.is_empty w) do
        let due = Twheel.next_key w in
        Vec.clear out;
        let n = Twheel.drain_due w ~max:max_int out in
        if n = 0 || n <> Vec.length out then ok := false;
        (* The batch is exactly the heap's run of [due]-keyed cells. *)
        for i = 0 to n - 1 do
          match pop_heap h with
          | Some (k, _, v) ->
            if not (Float.equal k due) || v <> Vec.get out i then ok := false
          | None -> ok := false
        done;
        (* Nothing at the due key may remain in either structure. *)
        (match Pqueue.pop !h with
        | Some ((k, _, _), _) -> if Float.equal k due then ok := false
        | None -> ());
        (match Twheel.peek_key w with
        | Some k -> if k <= due then ok := false
        | None -> ())
      done;
      !ok && Pqueue.size !h = 0)

(* The engine pattern over [drain_due]: dispatching a batch makes its
   handlers reschedule at exactly the drained key.  Those cells carry
   higher seqs than the whole batch, so they land in the {e next}
   batch — precisely where per-event popping (reschedule after each
   pop) would deliver them.  Both arms must log the same sequence. *)
let prop_twheel_drain_reschedule =
  QCheck2.Test.make ~name:"drain_due with same-key reschedules matches per-pop order"
    ~count:200
    QCheck2.Gen.(
      pair (float_range 0.05 4.0) (list_size (int_range 1 40) (int_range 0 15)))
    (fun (resolution, keys) ->
      let cap = List.length keys + 60 in
      let reschedules v = v mod 3 = 0 in
      (* Arm 1: the wheel, whole-batch drain, reschedules after drain. *)
      let w = Twheel.create ~resolution () in
      let seqw = ref 0 in
      let insw key v =
        Twheel.insert w ~key ~seq:!seqw v;
        incr seqw
      in
      List.iteri (fun i k -> insw (float_of_int k /. 2.0) i) keys;
      let out = Vec.create () in
      let logw = ref [] in
      let nextw = ref (List.length keys) in
      while not (Twheel.is_empty w) do
        let due = Twheel.next_key w in
        Vec.clear out;
        let _ = Twheel.drain_due w ~max:max_int out in
        Vec.iter
          (fun v ->
            logw := (due, v) :: !logw;
            if reschedules v && !nextw < cap then begin
              insw due !nextw;
              incr nextw
            end)
          out
      done;
      (* Arm 2: the reference heap, one pop (and reschedule) at a time. *)
      let h = ref Pqueue.empty in
      let seqh = ref 0 in
      let insh key v =
        h := Pqueue.insert !h ~key ~seq:!seqh v;
        incr seqh
      in
      List.iteri (fun i k -> insh (float_of_int k /. 2.0) i) keys;
      let logh = ref [] in
      let nexth = ref (List.length keys) in
      let continue = ref true in
      while !continue do
        match pop_heap h with
        | None -> continue := false
        | Some (k, _, v) ->
          logh := (k, v) :: !logh;
          if reschedules v && !nexth < cap then begin
            insh k !nexth;
            incr nexth
          end
      done;
      !logw = !logh)

(* [max] caps one drain without reordering: the rest of the batch
   stays due and comes out first on the next call. *)
let test_twheel_drain_max () =
  let w = Twheel.create () in
  for seq = 0 to 4 do
    Twheel.insert w ~key:2.0 ~seq seq
  done;
  Twheel.insert w ~key:5.0 ~seq:5 5;
  let out = Vec.create () in
  let n1 = Twheel.drain_due w ~max:2 out in
  check tint "capped drain" 2 n1;
  let n2 = Twheel.drain_due w ~max:10 out in
  check tint "rest of the batch" 3 n2;
  check tbool "batch in seq order" true (Vec.to_list out = [ 0; 1; 2; 3; 4 ]);
  Vec.clear out;
  let n3 = Twheel.drain_due w ~max:10 out in
  check tint "next key drains alone" 1 n3;
  check tbool "later key untouched until due" true (Vec.to_list out = [ 5 ])

(* The due path: capped drains leave part of an equal-key batch in the
   due list, and the inserts between drains land at the key just
   drained, inside the cursor's current tick, or ahead of it.  The
   first two are already due, so they wait in the late list and are
   merged into a non-empty due list; the reference heap pops the same
   cells one at a time.  Each drained cell must be the heap's next pop,
   and a drain that stops short of its cap must have taken the whole
   equal-key run. *)
let prop_twheel_capped_drain_merge =
  QCheck2.Test.make ~name:"capped drains merging due inserts match per-event heap pops"
    ~count:300
    QCheck2.Gen.(
      triple (float_range 0.25 4.0)
        (list_size (int_range 1 60) (int_range 0 40))
        (list_size (int_range 1 80)
           (pair (int_range 1 8)
              (list_size (int_range 0 3) (pair (int_range 0 2) (int_range 0 12))))))
    (fun (resolution, keys, script) ->
      let w = Twheel.create ~resolution () in
      let h = ref Pqueue.empty in
      let seq = ref 0 in
      let insert key =
        Twheel.insert w ~key ~seq:!seq !seq;
        h := Pqueue.insert !h ~key ~seq:!seq !seq;
        incr seq
      in
      List.iter (fun k -> insert (float_of_int k /. 4.0)) keys;
      let out = Vec.create () in
      let ok = ref true in
      let script = ref script in
      while not (Twheel.is_empty w) do
        let cap, inserts =
          match !script with
          | step :: rest ->
            script := rest;
            step
          | [] -> (8, [])
        in
        let due = Twheel.next_key w in
        Vec.clear out;
        let n = Twheel.drain_due w ~max:cap out in
        if n < 1 || n > cap then ok := false;
        for i = 0 to n - 1 do
          match pop_heap h with
          | Some (k, _, v) -> if not (Float.equal k due) || v <> Vec.get out i then ok := false
          | None -> ok := false
        done;
        (if n < cap then
           match Pqueue.peek_key !h with
           | Some k -> if k <= due then ok := false
           | None -> ());
        let tick_end = Float.of_int (int_of_float (due /. resolution) + 1) *. resolution in
        List.iter
          (fun (where, o) ->
            insert
              (match where with
              | 0 -> due
              | 1 -> due +. ((tick_end -. due) *. float_of_int o /. 13.0)
              | _ -> tick_end +. (resolution *. float_of_int o /. 4.0)))
          inserts
      done;
      !ok && Pqueue.size !h = 0)

(* A burst of due inserts costs one sort, not a sorted insert each:
   10,000 cells at one key, drained 64 at a time, allocate a bounded
   number of words per cell (under 50 in a dev build, nearly all of it
   the sort; a sorted insert per cell costs about 15,000). *)
let test_twheel_due_burst_linear () =
  let n = 10_000 in
  let w = Twheel.create () in
  let out = Vec.create () in
  let words0 = Gc.minor_words () in
  for seq = 0 to n - 1 do
    Twheel.insert w ~key:0.0 ~seq seq
  done;
  let drained = ref 0 in
  while not (Twheel.is_empty w) do
    Vec.clear out;
    drained := !drained + Twheel.drain_due w ~max:64 out
  done;
  let per_cell = (Gc.minor_words () -. words0) /. float_of_int n in
  check tint "every cell drained" n !drained;
  check tbool
    (Printf.sprintf "%.1f minor words per cell (at most 100)" per_cell)
    true (per_cell <= 100.0)

(* Merging a late cell behind a long due list must not take a stack
   frame per due cell: a shard's population can be 10^5-10^6 cells.
   The drain runs under a 16k-word stack limit, which a frame per
   cell of 100,000 would overflow. *)
let test_twheel_merge_flat_stack () =
  let n = 100_000 in
  let w = Twheel.create () in
  for seq = 0 to n - 1 do
    Twheel.insert w ~key:0.0 ~seq seq
  done;
  let out = Vec.create () in
  let first = Twheel.drain_due w ~max:1 out in
  Twheel.insert w ~key:0.5 ~seq:n n;
  let saved = Gc.get () in
  Gc.set { saved with Gc.stack_limit = 16_384 };
  let drained =
    Fun.protect
      ~finally:(fun () -> Gc.set saved)
      (fun () ->
        let drained = ref first in
        while not (Twheel.is_empty w) do
          Vec.clear out;
          drained := !drained + Twheel.drain_due w ~max:4096 out
        done;
        !drained)
  in
  check tint "every cell drained" (n + 1) drained;
  check tint "the late cell comes last" n (Vec.get out (Vec.length out - 1))

(* End-to-end: an engine under each scheduler, with handlers that keep
   scheduling (including zero delays, which tie with the current time),
   must deliver the identical event sequence. *)
let test_engine_sched_equiv () =
  let run sched =
    let engine = Engine.create ~sched () in
    let log = ref [] in
    List.iteri (fun i d -> Engine.schedule engine ~delay:d i) [ 5.0; 1.0; 1.0; 9.0; 0.0 ];
    let handler e v =
      log := (Engine.now e, v) :: !log;
      if v < 40 then Engine.schedule e ~delay:(float_of_int (v mod 7)) (v + 10)
    in
    let _ = Engine.run engine handler in
    List.rev !log
  in
  check tbool "wheel and heap engines agree" true (run Engine.Wheel = run Engine.Heap)

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

let () =
  Alcotest.run "sim"
    [
      ( "pqueue",
        [
          Alcotest.test_case "ordering" `Quick test_pqueue_order;
          Alcotest.test_case "fifo ties" `Quick test_pqueue_ties_fifo;
          Alcotest.test_case "size/peek" `Quick test_pqueue_size;
          QCheck_alcotest.to_alcotest prop_pqueue_sorted;
        ] );
      ( "twheel",
        [
          Alcotest.test_case "ordering and ties" `Quick test_twheel_order_and_ties;
          Alcotest.test_case "engine scheduler equivalence" `Quick test_engine_sched_equiv;
          Alcotest.test_case "drain_due max cap" `Quick test_twheel_drain_max;
          QCheck_alcotest.to_alcotest prop_twheel_heap_equiv;
          QCheck_alcotest.to_alcotest prop_twheel_overflow;
          QCheck_alcotest.to_alcotest prop_twheel_drain_batch;
          QCheck_alcotest.to_alcotest prop_twheel_drain_reschedule;
          QCheck_alcotest.to_alcotest prop_twheel_capped_drain_merge;
          Alcotest.test_case "due burst allocates linearly" `Quick test_twheel_due_burst_linear;
          Alcotest.test_case "merge keeps the stack flat" `Quick test_twheel_merge_flat_stack;
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
        ] );
    ]
