open Mediactl_types
open Mediactl_sim

type frame = { f_id : int; f_send : Netsys.send; f_signal : Mediactl_types.Signal.t }

type event =
  | Arrival of Netsys.send  (* the signal reaches the box (transit n) *)
  | Process of Netsys.send  (* the box has computed its reaction (cost c) *)
  | Frame_arrival of frame  (* impaired path: the frame reaches the box *)
  | Frame_process of frame  (* impaired path: the box's reaction commits *)
  | Meta_arrival of { chan : string; at : string }
  | Scripted of (t -> unit)  (* an [at]/[after] action, dropped once it fires *)

(* The driver runs over one of two engines: the discrete-event simulator
   (virtual clock, [Engine.run] drives it) or an external scheduler —
   typically the wall-clock select loop of [Mediactl_daemon_core.Wallclock] —
   that owns the loop itself and is handed each due event as a thunk.
   All of the protocol machinery below is engine-agnostic: it only ever
   reads the clock and schedules events a delay from now. *)
and engine =
  | Sim of event Engine.t
  | Ext of { ext_now : unit -> float; ext_schedule : delay:float -> (unit -> unit) -> unit }

and t = {
  engine : engine;
  mutable network : Netsys.t;
  n : float;
  c : float;
  mutable meta_handlers : (t -> chan:string -> at:string -> Meta.t -> unit) list;
  mutable step_hooks : (t -> unit) list;
  mutable watches : ((Netsys.t -> bool) * (float -> unit)) list;
  mutable impairment : (t -> frame -> float list) option;
  mutable delivery_filter : (t -> frame -> bool) option;
  mutable frame_seq : int;
}

let make engine ~n ~c network =
  {
    engine;
    network;
    n;
    c;
    meta_handlers = [];
    step_hooks = [];
    watches = [];
    impairment = None;
    delivery_filter = None;
    frame_seq = 0;
  }

let create ?(n = 34.0) ?(c = 20.0) network = make (Sim (Engine.create ())) ~n ~c network

let create_external ~now ~schedule ?(n = 34.0) ?(c = 20.0) network =
  make (Ext { ext_now = now; ext_schedule = schedule }) ~n ~c network

let net t = t.network

let now t =
  match t.engine with
  | Sim e -> Engine.now e
  | Ext e -> e.ext_now ()

let observe t = Mediactl_obs.Trace.set_clock (fun () -> now t)
let n t = t.n
let c t = t.c
let error t = Netsys.err t.network

(* A signal emitted at time T reaches its destination box at T + n and
   takes effect (the box's reaction commits) at T + n + c.

   With no impairment installed, delivery tokens ride the reliable FIFO
   tunnels of Netsys.  With an impairment hook installed, each emission
   is popped out of its tunnel immediately ({!Netsys.take}) and carried
   in a [frame] event instead, so the hook can lose it (no copies),
   duplicate it, or add per-copy transit delay; frames are dispatched on
   arrival with {!Netsys.inject}. *)

let set_impairment t hook = t.impairment <- Some hook
let set_delivery_filter t filter = t.delivery_filter <- Some filter

let fresh_frame t send signal =
  let id = t.frame_seq in
  t.frame_seq <- id + 1;
  { f_id = id; f_send = send; f_signal = signal }

let run_watches t =
  match t.watches with
  | [] -> ()
  | watches ->
    let now = now t in
    let still =
      List.filter
        (fun (pred, callback) ->
          if pred t.network then begin
            callback now;
            false
          end
          else true)
        watches
    in
    t.watches <- still

let when_true t pred callback =
  t.watches <- (pred, callback) :: t.watches;
  run_watches t

(* [sched]/[emit]/[handle] are mutually recursive because an external
   engine carries events as thunks over [handle], while [handle]'s
   reactions [emit] further signals, which [sched]ules their arrival. *)
let rec sched t ~delay event =
  match t.engine with
  | Sim e -> Engine.schedule e ~delay event
  | Ext e -> e.ext_schedule ~delay (fun () -> handle t event)

(* Emissions leave their box [lead] after now ([c] when the emission is
   part of an externally applied operation, 0 when it is the output of a
   Process/Frame_process reaction, whose compute cost is already paid). *)
and emit t ~lead sends =
  match t.impairment with
  | None -> List.iter (fun send -> sched t ~delay:(lead +. t.n) (Arrival send)) sends
  | Some hook ->
    List.iter
      (fun send ->
        match Netsys.take t.network send with
        | None -> ()
        | Some (signal, network) ->
          t.network <- network;
          let frame = fresh_frame t send signal in
          List.iter
            (fun offset ->
              sched t ~delay:(lead +. t.n +. Float.max 0.0 offset) (Frame_arrival frame))
            (hook t frame))
      sends

and handle t event =
  (match event with
  | Arrival send -> sched t ~delay:t.c (Process send)
  | Process send -> (
    match Netsys.deliver t.network send with
    | None -> ()
    | Some (network, sends) ->
      t.network <- network;
      emit t ~lead:0.0 sends)
  | Frame_arrival frame -> sched t ~delay:t.c (Frame_process frame)
  | Frame_process frame ->
    let deliverable =
      match t.delivery_filter with
      | None -> true
      | Some filter -> filter t frame
    in
    if deliverable then (
      match Netsys.inject t.network frame.f_send frame.f_signal with
      | None -> ()
      | Some (network, sends) ->
        t.network <- network;
        emit t ~lead:0.0 sends)
  | Meta_arrival { chan; at } -> (
    match Netsys.take_meta t.network ~chan ~at with
    | None -> ()
    | Some (meta, network) ->
      t.network <- network;
      List.iter (fun handler -> handler t ~chan ~at meta) t.meta_handlers)
  | Scripted f -> f t);
  (match t.step_hooks with [] -> () | hooks -> List.iter (fun hook -> hook t) hooks);
  run_watches t

let inject_frame t ~delay frame = sched t ~delay:(Float.max 0.0 delay) (Frame_arrival frame)

let apply t op =
  (* The operation itself is a box computation: its emissions leave the
     box c after now. *)
  let network, sends = op t.network in
  t.network <- network;
  emit t ~lead:t.c sends

let apply_quiet t op = t.network <- op t.network

(* The event carries its action, so the queue holds it only until it
   fires. *)
let at t time f = sched t ~delay:(Float.max 0.0 (time -. now t)) (Scripted f)
let after t delay f = sched t ~delay (Scripted f)

let send_meta t ~chan ~from meta =
  t.network <- Netsys.send_meta t.network ~chan ~from meta;
  match Netsys.peer_of_chan t.network ~chan ~box:from with
  | None -> ()
  | Some peer -> sched t ~delay:t.n (Meta_arrival { chan; at = peer })

let on_meta t handler = t.meta_handlers <- t.meta_handlers @ [ handler ]
let on_step t hook = t.step_hooks <- hook :: t.step_hooks

let run ?until ?max_events t =
  match t.engine with
  | Sim e -> Engine.run e ?until ?max_events (fun _ ev -> handle t ev)
  | Ext _ ->
    invalid_arg "Timed.run: externally driven engine (the owning event loop runs the driver)"
