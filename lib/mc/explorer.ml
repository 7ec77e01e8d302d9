module type SYSTEM = sig
  type state
  type label

  val successors : state -> (label * state) list
  val pack : state -> string
  val pp_label : Format.formatter -> label -> unit
  val pp_state : Format.formatter -> state -> unit
end

(* A growable array.  The pushed element doubles as the fill value for
   fresh capacity, so no dummy is ever needed. *)
type 'a vec = { mutable data : 'a array; mutable len : int }

let vec_create () = { data = [||]; len = 0 }

let vec_push v x =
  if v.len = Array.length v.data then begin
    let cap = if v.len = 0 then 1024 else 2 * v.len in
    let data = Array.make cap x in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let vec_clear v = v.len <- 0

(* Intern tables keyed by packed state strings: [String.hash] and
   [String.equal] in place of the polymorphic hash and compare. *)
module Keys = Hashtbl.Make (String)

(* Under [jobs > 1] a level is expanded in chunks of this many frontier
   states.  A chunk's successors wait for the caller to intern them, so
   larger chunks hold more: at jobs 2, chunks of 32 to 256 raised
   check-par's 3-party star from 39-41 MB to 43-57 MB, while chunks of 4
   and 8 saved about 7% of check-par's peak RSS but cost 5% and 3% of
   its throughput (EXPERIMENTS E29). *)
let chunk = 16

(* Sleeping until a condition over atomics holds.  [wake] must follow
   every change a sleeper can wait for.  A sleeper counts itself before
   its last test of the condition, so a change made after that test
   sees the count and wakes it: OCaml's atomics are sequentially
   consistent. *)
type bell = { m : Mutex.t; c : Condition.t; sleepers : int Atomic.t }

let await b ready =
  if not (ready ()) then begin
    Mutex.lock b.m;
    Atomic.incr b.sleepers;
    while not (ready ()) do
      Condition.wait b.c b.m
    done;
    Atomic.decr b.sleepers;
    Mutex.unlock b.m
  end

let wake b =
  if Atomic.get b.sleepers > 0 then begin
    Mutex.lock b.m;
    Condition.broadcast b.c;
    Mutex.unlock b.m
  end

module Make (S : SYSTEM) = struct
  type 'a space = {
    states : 'a array;
    csr : Csr.t;
    labels : S.label array;
    transition_count : int;
    capped : bool;
    expanded : int;
  }

  type graph = S.state space

  (* A chunk's output: the successors of its [j]th state, in order, as
     (label, key, kept value, frontier entry) in [succs.(j)].  [ready]
     holds the chunk's number once it is written, and -1 once it is
     interned. *)
  type ('a, 'f) out = { ready : int Atomic.t; succs : (S.label * string * 'a * 'f) list array }

  (* A level as the domains share it: chunk [c] holds the entries
     [c * chunk ..] of its frontier [front], domains claim chunks from
     [claim], and [interned] counts the chunks the caller has interned. *)
  type 'f shared = { front : 'f vec; chunks : int; claim : int Atomic.t; interned : int Atomic.t }

  (* ---------------------------------------------------------------- *)
  (* Breadth-first search.                                             *)

  (* States are interned in discovery order, so the work queue is the
     id sequence itself and the CSR rows are laid down in id order.  A
     state is kept as [keep state] from the moment it is interned, and
     waits in the frontier as its [entry] ([level] the entries being
     expanded, [next] those discovered since), which [state_of] turns
     back into the state; an expanded entry's slot is overwritten so
     that the state can be collected.  At jobs 1 the caller expands each
     state and interns its successors at once.  Under [jobs > 1] every
     domain, the caller included, claims chunks of the level and writes
     their successors into a ring of [slots] reused outputs, at most
     [slots] chunks ahead of the one the caller interns; the caller
     interns chunks in frontier order and expands unclaimed ones while
     it waits.  Ids, rows and the cap are therefore those of jobs 1. *)

  let search ~max_states ~jobs ~keep ~entry ~state_of initial =
    let ids : int Keys.t = Keys.create 4096 in
    let kept = vec_create () and row = vec_create () and dst = vec_create () in
    let labels = vec_create () in
    let capped = ref false in
    let level = ref (vec_create ()) and next = ref (vec_create ()) in
    let add key k e =
      let id = kept.len in
      vec_push kept k;
      vec_push !next e;
      Keys.add ids key id;
      id
    in
    let edge label id =
      vec_push dst id;
      vec_push labels label
    in
    (* Opens the next state's row, unless the cap stops the search. *)
    let opens () =
      capped := kept.len >= max_states;
      if not !capped then vec_push row dst.len;
      not !capped
    in
    let key0 = S.pack initial in
    let fill = entry key0 initial in
    ignore (add key0 (keep initial) fill : int);
    let run expand_level =
      while !next.len > 0 && not !capped do
        let lv = !next in
        next := !level;
        vec_clear !next;
        level := lv;
        expand_level lv
      done
    in
    (if jobs <= 1 then
       run (fun lv ->
           let i = ref 0 in
           while !i < lv.len && opens () do
             let state = state_of lv.data.(!i) in
             lv.data.(!i) <- fill;
             List.iter
               (fun (label, state') ->
                 let key = S.pack state' in
                 match Keys.find ids key with
                 | id -> edge label id
                 | exception Not_found -> edge label (add key (keep state') (entry key state')))
               (S.successors state);
             incr i
           done)
     else
       let slots = 4 * jobs in
       let ring =
         Array.init slots (fun _ -> { ready = Atomic.make (-1); succs = Array.make chunk [] })
       in
       let b = { m = Mutex.create (); c = Condition.create (); sleepers = Atomic.make 0 } in
       let stop = Atomic.make false in
       let share front =
         let chunks = (front.len + chunk - 1) / chunk in
         { front; chunks; claim = Atomic.make 0; interned = Atomic.make 0 }
       in
       let current = Atomic.make (share (vec_create ())) in
       let produce lv c =
         let o = ring.(c mod slots) in
         for j = 0 to min chunk (lv.front.len - (c * chunk)) - 1 do
           let i = (c * chunk) + j in
           let state = state_of lv.front.data.(i) in
           lv.front.data.(i) <- fill;
           o.succs.(j) <-
             List.map
               (fun (label, state') ->
                 let key = S.pack state' in
                 (label, key, keep state', entry key state'))
               (S.successors state)
         done;
         Atomic.set o.ready c;
         wake b
       in
       let rec work lv =
         let c = Atomic.fetch_and_add lv.claim 1 in
         if c < lv.chunks then begin
           await b (fun () -> Atomic.get stop || Atomic.get lv.interned > c - slots);
           if not (Atomic.get stop) then begin
             produce lv c;
             work lv
           end
         end
         else begin
           await b (fun () -> Atomic.get stop || Atomic.get current != lv);
           if not (Atomic.get stop) then work (Atomic.get current)
         end
       in
       (* The caller interns chunk [k] from [o], then drops it from the
          ring so that its keys and entries can be collected. *)
       let intern lv k o =
         let j = ref 0 in
         while !j < min chunk (lv.front.len - (k * chunk)) && opens () do
           List.iter
             (fun (label, key, v, e) ->
               match Keys.find ids key with
               | id -> edge label id
               | exception Not_found -> edge label (add key v e))
             o.succs.(!j);
           incr j
         done;
         Array.fill o.succs 0 chunk []
       in
       (* The caller's side of a level.  A worker that raised has set
          [stop], and joining it re-raises. *)
       let expand_level front =
         let lv = share front in
         Atomic.set current lv;
         wake b;
         let k = ref 0 in
         while !k < lv.chunks && not !capped do
           let o = ring.(!k mod slots) in
           if Atomic.get o.ready = !k then begin
             intern lv !k o;
             Atomic.set o.ready (-1);
             incr k;
             Atomic.set lv.interned !k;
             wake b
           end
           else begin
             let c = Atomic.get lv.claim in
             if c < lv.chunks && c < !k + slots then begin
               if Atomic.compare_and_set lv.claim c (c + 1) then produce lv c
             end
             else await b (fun () -> Atomic.get stop || Atomic.get o.ready = !k);
             if Atomic.get stop then raise Exit
           end
         done
       in
       let halt () =
         Atomic.set stop true;
         wake b
       in
       let worker () = Fun.protect ~finally:halt (fun () -> work (Atomic.get current)) in
       let workers = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
       let failed = match run expand_level with () -> None | exception e -> Some e in
       halt ();
       Array.iter Domain.join workers;
       Option.iter raise failed);
    let n = kept.len in
    let m = dst.len in
    let row_arr = Array.make (n + 1) m in
    Array.blit row.data 0 row_arr 0 row.len;
    {
      states = Array.sub kept.data 0 n;
      csr = Csr.make ~row:row_arr ~dst:(Array.sub dst.data 0 m);
      labels = Array.sub labels.data 0 m;
      transition_count = m;
      capped = !capped;
      expanded = row.len;
    }

  let explore_with ?(max_states = 1_000_000) ?(jobs = 1) ?unpack ~keep initial =
    match unpack with
    | Some unpack when jobs > 1 ->
      search ~max_states ~jobs ~keep ~entry:(fun key _ -> key) ~state_of:unpack initial
    | _ -> search ~max_states ~jobs ~keep ~entry:(fun _ state -> state) ~state_of:Fun.id initial

  let explore ?max_states ?jobs ?unpack initial =
    explore_with ?max_states ?jobs ?unpack ~keep:Fun.id initial

  (* ---------------------------------------------------------------- *)

  let succs graph id =
    let csr = graph.csr in
    let result = ref [] in
    for k = csr.Csr.row.(id + 1) - 1 downto csr.Csr.row.(id) do
      result := (graph.labels.(k), csr.Csr.dst.(k)) :: !result
    done;
    !result

  let deadlocks graph =
    let result = ref [] in
    for id = graph.expanded - 1 downto 0 do
      if Csr.terminal graph.csr id then result := id :: !result
    done;
    !result

  let path_to graph target =
    (* BFS from 0 recording the incoming edge of every state. *)
    let csr = graph.csr in
    let n = Csr.n csr in
    let parent = Array.make n (-1) in
    let parent_edge = Array.make n (-1) in
    let visited = Array.make n false in
    visited.(0) <- true;
    let queue = Queue.create () in
    Queue.add 0 queue;
    let found = ref (target = 0) in
    while (not !found) && not (Queue.is_empty queue) do
      let id = Queue.pop queue in
      for k = csr.Csr.row.(id) to csr.Csr.row.(id + 1) - 1 do
        let id' = csr.Csr.dst.(k) in
        if not visited.(id') then begin
          visited.(id') <- true;
          parent.(id') <- id;
          parent_edge.(id') <- k;
          if id' = target then found := true;
          Queue.add id' queue
        end
      done
    done;
    let rec build id acc =
      if parent_edge.(id) = -1 then (None, id) :: acc
      else build parent.(id) ((Some graph.labels.(parent_edge.(id)), id) :: acc)
    in
    if !found then build target [] else []
end
