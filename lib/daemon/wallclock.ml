open Mediactl_sim

(* The wall-clock engine: a single-threaded poll loop owning a timer
   queue of thunks and a set of readable file descriptors.  Timers sit
   on the simulator's event queue ([Pqueue]) keyed in wall milliseconds
   since [create]; fd readiness comes from poll(2), with the timeout
   clipped to the next deadline so timers fire on schedule even while
   the loop sits in poll.  Not [Unix.select]: it cannot watch a
   descriptor numbered 1024 or more, which a daemon with many
   connections is given.

   Time is [Unix.gettimeofday]-based (the portable clock the stdlib
   exposes); a backwards NTP step would delay timers, which is
   acceptable for a control plane.  All mutation happens on the thread
   running [run], so the module needs no locking. *)

type t = {
  origin : float;  (* gettimeofday at create *)
  timers : (unit -> unit) Pqueue.t;
  mutable tseq : int;
  mutable readers : (Unix.file_descr * (unit -> unit)) list;
  mutable stopping : bool;
  mutable spinning : bool;
}

let create () =
  {
    origin = Unix.gettimeofday ();
    timers = Pqueue.create ();
    tseq = 0;
    readers = [];
    stopping = false;
    spinning = false;
  }

let now t = (Unix.gettimeofday () -. t.origin) *. 1000.0

let after t ~delay thunk =
  let key = now t +. Float.max 0.0 delay in
  Pqueue.insert t.timers ~key ~seq:t.tseq thunk;
  t.tseq <- t.tseq + 1

let on_readable t fd callback =
  t.readers <- (fd, callback) :: List.remove_assoc fd t.readers

let remove_fd t fd = t.readers <- List.remove_assoc fd t.readers
let stop t = t.stopping <- true
let pending_timers t = Pqueue.size t.timers

(* Run every timer whose deadline has passed.  Timers may add timers
   (they re-enter through [after]) and may stop the loop. *)
let rec run_due t =
  if (not t.stopping) && (not (Pqueue.is_empty t.timers)) && Pqueue.min_key t.timers <= now t
  then begin
    let thunk = Pqueue.pop_min t.timers in
    thunk ();
    run_due t
  end

(* Cap on one poll sleep so a [stop] from a signal handler (rather
   than from a callback) is noticed promptly. *)
let max_slice = 0.25

(* [poll_readable fds ready timeout] waits at most [timeout] seconds
   for one of [fds] to be readable, and marks byte [i] of [ready]
   nonzero if [fds.(i)] is.  It raises [Unix_error] as [Unix.select]
   does (see wallclock_stubs.c). *)
external poll_readable : Unix.file_descr array -> Bytes.t -> float -> int
  = "mediactl_poll_readable"

let poll_once t =
  let timeout =
    if Pqueue.is_empty t.timers then max_slice
    else Float.min max_slice (Float.max 0.0 ((Pqueue.min_key t.timers -. now t) /. 1000.0))
  in
  let fds = Array.of_list (List.map fst t.readers) in
  let ready = Bytes.make (Array.length fds) '\000' in
  match poll_readable fds ready timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | _ ->
    (* Ready fds are served oldest registration first, the order
       [Unix.select] returned them in.  A callback may close or
       re-register fds; consult the current table for each ready fd
       rather than the snapshot. *)
    for i = Array.length fds - 1 downto 0 do
      if Bytes.get ready i <> '\000' && not t.stopping then
        match List.assoc_opt fds.(i) t.readers with
        | Some callback -> callback ()
        | None -> ()
    done

let run t =
  if t.spinning then invalid_arg "Wallclock.run: already running";
  t.spinning <- true;
  Fun.protect
    ~finally:(fun () -> t.spinning <- false)
    (fun () ->
      while (not t.stopping) && not (Pqueue.is_empty t.timers && t.readers = []) do
        run_due t;
        if (not t.stopping) && not (Pqueue.is_empty t.timers && t.readers = []) then
          poll_once t
      done)

let driver ?(n = 34.0) ?(c = 20.0) t network =
  Mediactl_runtime.Timed.create_external ~now:(fun () -> now t)
    ~schedule:(fun ~delay thunk -> after t ~delay thunk)
    ~n ~c network
