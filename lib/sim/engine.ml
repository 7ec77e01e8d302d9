type 'e t = { mutable clock : float; queue : 'e Pqueue.t; mutable seq : int }

let create () = { clock = 0.0; queue = Pqueue.create (); seq = 0 }
let now t = t.clock

let schedule t ~delay event =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  Pqueue.insert t.queue ~key:(t.clock +. delay) ~seq:t.seq event;
  t.seq <- t.seq + 1

(* The event loop is a top-level function, not a [while] in [run]: the
   recursion threads [processed] as an accumulator (no counter refs on
   the hot loop), and — because it is where [@@lint.hotpath] roots the
   allocation lint — the handler arrives as a parameter, which is
   exactly ALLOC001's reachability boundary: the dispatched event code
   is charged to its own phase, not to the loop. *)
let rec run_loop t ~until ~max_events handler processed =
  if processed >= max_events || Pqueue.is_empty t.queue then processed
  else
    let time = Pqueue.min_key t.queue in
    if time > until then processed
    else begin
      t.clock <- time;
      handler t (Pqueue.pop_min t.queue);
      run_loop t ~until ~max_events handler (processed + 1)
    end
[@@lint.hotpath]

let run t ?(until = infinity) ?(max_events = max_int) handler =
  let processed = run_loop t ~until ~max_events handler 0 in
  if Pqueue.is_empty t.queue then Pqueue.release t.queue;
  processed
