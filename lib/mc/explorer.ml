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

(* A reusable cyclic barrier over stdlib Mutex/Condition. *)
module Barrier = struct
  type t = {
    m : Mutex.t;
    c : Condition.t;
    parties : int;
    mutable waiting : int;
    mutable phase : int;
  }

  let create parties = { m = Mutex.create (); c = Condition.create (); parties; waiting = 0; phase = 0 }

  let wait b =
    Mutex.lock b.m;
    let phase = b.phase in
    b.waiting <- b.waiting + 1;
    if b.waiting = b.parties then begin
      b.waiting <- 0;
      b.phase <- phase + 1;
      Condition.broadcast b.c
    end
    else
      while b.phase = phase do
        Condition.wait b.c b.m
      done;
    Mutex.unlock b.m
end

(* Intern tables keyed by packed state strings: [String.hash] and
   [String.equal] in place of the polymorphic hash and compare. *)
module Keys = Hashtbl.Make (String)

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

  (* ---------------------------------------------------------------- *)
  (* Sequential exploration.                                           *)
  (*                                                                   *)
  (* States are interned in discovery order, so the BFS work queue is  *)
  (* the id sequence itself and the CSR rows can be laid down directly *)
  (* as each state is expanded — no per-state lists, no hashtable of   *)
  (* successor edges, no freeze copy.  A state is kept as [keep state] *)
  (* from the moment it is interned; its decoded value lives only in   *)
  (* the frontier: [level] holds the states of ids [base ..] still to  *)
  (* expand, [next] those discovered since, numbered after them.  An   *)
  (* expanded state's slot is overwritten with [initial] so that it    *)
  (* can be collected.                                                 *)

  let explore_seq ~max_states ~keep initial =
    let ids : int Keys.t = Keys.create 4096 in
    let kept = vec_create () in
    let level = ref (vec_create ()) and next = ref (vec_create ()) in
    let base = ref 0 in
    let row = vec_create () in
    let dst = vec_create () in
    let labels = vec_create () in
    let capped = ref false in
    let intern state =
      let key = S.pack state in
      match Keys.find ids key with
      | id -> id
      | exception Not_found ->
        let id = kept.len in
        vec_push kept (keep state);
        vec_push !next state;
        Keys.add ids key id;
        id
    in
    ignore (intern initial : int);
    let expanded = ref 0 in
    while !expanded < kept.len && not !capped do
      if kept.len >= max_states then capped := true
      else begin
        if !expanded - !base = !level.len then begin
          let done_ = !level in
          vec_clear done_;
          base := !expanded;
          level := !next;
          next := done_
        end;
        let i = !expanded - !base in
        let state = !level.data.(i) in
        !level.data.(i) <- initial;
        vec_push row dst.len;
        List.iter
          (fun (label, state') ->
            let id' = intern state' in
            vec_push dst id';
            vec_push labels label)
          (S.successors state);
        incr expanded
      end
    done;
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
      expanded = !expanded;
    }

  (* ---------------------------------------------------------------- *)
  (* Parallel exploration.                                             *)
  (*                                                                   *)
  (* [jobs] domains each own the states whose packed key hashes into   *)
  (* their shard.  The BFS runs level-synchronously: in the expand     *)
  (* phase every domain expands its own frontier, interning locally-   *)
  (* owned successors and batching remotely-owned ones (with their     *)
  (* already-packed key, so nothing is packed twice) into per-pair     *)
  (* mailboxes; after a barrier, the absorb phase drains the mailboxes *)
  (* addressed to this domain, interning fresh states into the next    *)
  (* frontier.  An edge is recorded by whichever domain resolved its   *)
  (* target id, as (global src, label, global dst); the freeze step    *)
  (* merges the per-domain edge sets with one counting sort.  Because  *)
  (* the reachable state set and the edge multiset do not depend on    *)
  (* scheduling, an uncapped parallel run is isomorphic to the         *)
  (* sequential one.                                                   *)

  (* A mailbox batch in struct-of-arrays form: column [k] is one
     message (global source id, label, packed key, successor state).
     Each ordered domain pair owns one batch, written by the sender
     during the expand phase and drained by the receiver during the
     absorb phase; the level barrier between the phases is the only
     synchronisation the exchange needs, so messages cost no mutex
     traffic and no per-message allocation beyond the vec slots.

     [bst] carries the sender's live successor value, and only when no
     [unpack] is available; systems whose states embed domain-local
     interned values (packed signal words in tunnel queues) must supply
     [unpack] so the receiver rebuilds the state from its canonical key
     in its own domain's tables. *)
  type batch = {
    bsrc : int vec;
    blab : S.label vec;
    bkey : string vec;
    bst : S.state vec;
  }

  (* A shard keeps [keep state] for each of its states, by local id.
     Each level numbers the states it discovers after all earlier ones,
     so the frontier, the decoded states of this level, holds local ids
     [base ..], and [fresh] the states discovered since. *)
  type 'a shard = {
    table : int Keys.t;  (* packed key -> local id *)
    kept : 'a vec;
    mutable frontier : S.state vec;
    mutable base : int;
    mutable fresh : S.state vec;
    esrc : int vec;  (* edges resolved by this domain, global ids *)
    edst : int vec;
    elab : S.label vec;
  }

  (* Locality-aware partitioning: shard on a short prefix of the packed
     key rather than the whole key.  Successor states usually differ from
     their parent in a localised region of the encoding, so a transition
     that leaves the prefix untouched keeps the successor in the same
     shard and off the mailbox path entirely; hashing the prefix still
     spreads the space across shards.  Any pure function of the key gives
     the same graph — only message traffic changes. *)
  let prefix_len = 8

  let explore_par ~max_states ~jobs ~unpack ~keep initial =
    let shard_of key =
      let n = min prefix_len (String.length key) in
      let h = ref 0 in
      for i = 0 to n - 1 do
        h := (!h * 131) + Char.code (String.unsafe_get key i)
      done;
      !h land max_int mod jobs
    in
    let mk_shard () =
      {
        table = Keys.create 4096;
        kept = vec_create ();
        frontier = vec_create ();
        base = 0;
        fresh = vec_create ();
        esrc = vec_create ();
        edst = vec_create ();
        elab = vec_create ();
      }
    in
    let shards = Array.init jobs (fun _ -> mk_shard ()) in
    let key0 = S.pack initial in
    let owner0 = shard_of key0 in
    (* mail.(src).(dst): one reusable batch per ordered pair. *)
    let mail =
      Array.init jobs (fun _ ->
          Array.init jobs (fun _ ->
              { bsrc = vec_create (); blab = vec_create (); bkey = vec_create (); bst = vec_create () }))
    in
    let barrier = Barrier.create jobs in
    let counts = Array.make jobs 0 in
    counts.(owner0) <- 1;
    let fsizes = Array.make jobs 0 in
    fsizes.(owner0) <- 1;
    let capped = Array.make jobs false in
    (* Owner-side intern: only the domain whose shard a key hashes into
       ever touches that shard's table, so no lock is needed. *)
    let add_local sh d key state =
      let i = sh.kept.len in
      vec_push sh.kept (keep state);
      Keys.add sh.table key i;
      vec_push sh.fresh state;
      (i * jobs) + d
    in
    (* A state that crossed a domain boundary, rebuilt from its key when
       the system can decode one. *)
    let arrived b k =
      match unpack with
      | Some u -> u b.bkey.data.(k)
      | None -> b.bst.data.(k)
    in
    let body d =
      let sh = shards.(d) in
      let out = mail.(d) in
      (* The initial state is interned here, not at setup, so that it
         too is built by its owning domain; it is the first level's
         frontier. *)
      if d = owner0 then begin
        let state = match unpack with Some u -> u key0 | None -> initial in
        ignore (add_local sh d key0 state : int);
        let fr = sh.frontier in
        sh.frontier <- sh.fresh;
        sh.fresh <- fr
      end;
      let running = ref true in
      while !running do
        (* Expand: successors of every frontier state.  The pack buffer
           is domain-local, so [key] must be copied out of it before the
           next successor is packed — [S.pack] already returns a fresh
           string, so pushing it into the batch is enough. *)
        let fr = sh.frontier in
        for fi = 0 to fr.len - 1 do
          let g_u = ((sh.base + fi) * jobs) + d in
          let state = fr.data.(fi) in
          fr.data.(fi) <- initial;
          List.iter
            (fun (label, state') ->
              let key = S.pack state' in
              let o = shard_of key in
              if o = d then begin
                let g_v =
                  match Keys.find sh.table key with
                  | i -> (i * jobs) + d
                  | exception Not_found -> add_local sh d key state'
                in
                vec_push sh.esrc g_u;
                vec_push sh.edst g_v;
                vec_push sh.elab label
              end
              else begin
                let b = out.(o) in
                vec_push b.bsrc g_u;
                vec_push b.blab label;
                vec_push b.bkey key;
                if Option.is_none unpack then vec_push b.bst state'
              end)
            (S.successors state)
        done;
        Barrier.wait barrier;
        (* Absorb: everything addressed to this domain this level.  The
           barrier orders the senders' writes before these reads, and
           the level-end barrier orders the clears before the next
           level's writes. *)
        for src = 0 to jobs - 1 do
          let b = mail.(src).(d) in
          for k = 0 to b.bsrc.len - 1 do
            (* The state is rebuilt only on a genuine miss. *)
            let key = b.bkey.data.(k) in
            let g_v =
              match Keys.find sh.table key with
              | i -> (i * jobs) + d
              | exception Not_found -> add_local sh d key (arrived b k)
            in
            vec_push sh.esrc b.bsrc.data.(k);
            vec_push sh.edst g_v;
            vec_push sh.elab b.blab.data.(k)
          done;
          vec_clear b.bsrc;
          vec_clear b.blab;
          vec_clear b.bkey;
          vec_clear b.bst
        done;
        let expanded = sh.frontier in
        vec_clear expanded;
        sh.frontier <- sh.fresh;
        sh.fresh <- expanded;
        sh.base <- sh.kept.len - sh.frontier.len;
        fsizes.(d) <- sh.frontier.len;
        counts.(d) <- sh.kept.len;
        Barrier.wait barrier;
        (* Every domain reads the same published totals, so they all
           take the same branch and stay in lockstep. *)
        let total = Array.fold_left ( + ) 0 counts in
        let any_frontier = Array.exists (fun s -> s > 0) fsizes in
        if total >= max_states && any_frontier then begin
          capped.(d) <- true;
          running := false
        end
        else if not any_frontier then running := false
      done
    in
    let workers = Array.init (jobs - 1) (fun i -> Domain.spawn (fun () -> body (i + 1))) in
    body 0;
    Array.iter Domain.join workers;
    (* Freeze: lay the shards' expanded states out contiguously (the
       initial state's owner first, so the initial state is id 0), then
       their frontiers, which only a capped run leaves unexpanded, and
       counting-sort the merged edge set into CSR form. *)
    let order = Array.init jobs (fun i -> (owner0 + i) mod jobs) in
    let done_ = Array.map (fun sh -> sh.base) shards in
    let offsets = Array.make jobs 0 and fr_offsets = Array.make jobs 0 in
    let n = ref 0 in
    Array.iter
      (fun d ->
        offsets.(d) <- !n;
        n := !n + done_.(d))
      order;
    let expanded = !n in
    Array.iter
      (fun d ->
        fr_offsets.(d) <- !n;
        n := !n + shards.(d).frontier.len)
      order;
    let n = !n in
    let remap g =
      let d = g mod jobs and i = g / jobs in
      if i < done_.(d) then offsets.(d) + i else fr_offsets.(d) + i - done_.(d)
    in
    let states = Array.make n shards.(owner0).kept.data.(0) in
    Array.iteri
      (fun d sh ->
        Array.blit sh.kept.data 0 states offsets.(d) done_.(d);
        Array.blit sh.kept.data done_.(d) states fr_offsets.(d) sh.frontier.len)
      shards;
    let m = Array.fold_left (fun acc sh -> acc + sh.esrc.len) 0 shards in
    let row = Array.make (n + 1) 0 in
    Array.iter
      (fun sh ->
        for k = 0 to sh.esrc.len - 1 do
          let v = remap sh.esrc.data.(k) in
          row.(v + 1) <- row.(v + 1) + 1
        done)
      shards;
    for v = 0 to n - 1 do
      row.(v + 1) <- row.(v + 1) + row.(v)
    done;
    let dst = Array.make m 0 in
    let labels =
      match Array.find_opt (fun sh -> sh.elab.len > 0) shards with
      | None -> [||]
      | Some sh -> Array.make m sh.elab.data.(0)
    in
    let pos = Array.copy row in
    Array.iter
      (fun sh ->
        for k = 0 to sh.esrc.len - 1 do
          let v = remap sh.esrc.data.(k) in
          let p = pos.(v) in
          dst.(p) <- remap sh.edst.data.(k);
          labels.(p) <- sh.elab.data.(k);
          pos.(v) <- p + 1
        done)
      shards;
    {
      states;
      csr = Csr.make ~row ~dst;
      labels;
      transition_count = m;
      capped = Array.exists Fun.id capped;
      expanded;
    }

  let explore_with ?(max_states = 1_000_000) ?(jobs = 1) ?unpack ~keep initial =
    if jobs <= 1 then explore_seq ~max_states ~keep initial
    else explore_par ~max_states ~jobs ~unpack ~keep initial

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
